//! Quickstart: measure the branching benchmark on the simulated machine and
//! let the pipeline define branch metrics from raw events.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use catalyze::report;
use catalyze_cat::{Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_sim::sapphire_rapids_like;

fn main() {
    // 1. The machine: a simulated CPU exposing ~300 raw events.
    let events = sapphire_rapids_like();
    println!("machine exposes {} raw events\n", events.len());

    // 2. Run the CAT branching benchmark (11 microkernels, 5 repetitions),
    //    measuring every event.
    let cfg = RunnerConfig::default_sim();
    let measurements = SimRequest::new()
        .domain(Domain::Branch)
        .events(&events)
        .config(&cfg)
        .run()
        .expect("valid request");
    println!(
        "measured {} events over {} kernels, {} repetitions\n",
        measurements.num_events(),
        measurements.num_points(),
        measurements.num_runs()
    );

    // 3. Analyze: noise filter -> expectation basis -> specialized QRCP ->
    //    least-squares metric definitions. The domain's study supplies the
    //    expectation basis, the metric signatures and the thresholds.
    let analysis = study(Domain::Branch, &cfg)
        .request(&measurements)
        .run()
        .expect("simulated measurements analyze cleanly");

    print!("{}", report::noise_summary(&analysis.noise));
    println!();
    print!("{}", report::selection_table(&analysis));
    println!();
    print!("{}", report::metrics_table("Branching Metrics (paper Table VII)", &analysis.metrics));

    // 4. Export composable metrics as PAPI-style presets.
    println!("\n== presets ==");
    for m in analysis.composable_metrics() {
        print!("{}", m.to_preset(1e-6));
    }
}
