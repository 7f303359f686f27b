//! Data-cache metric analysis (the paper's §V.D / Table VIII / Figure 3
//! flow): a multi-threaded pointer chase sweeps buffer footprints across
//! L1/L2/L3/memory; the pipeline defines hit/miss/read metrics despite the
//! cache events' noise, and coefficient rounding recovers exact signature
//! behavior.

use catalyze::report;
use catalyze_cat::{dcache, Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_sim::sapphire_rapids_like;

fn main() {
    let events = sapphire_rapids_like();
    let cfg = RunnerConfig::default_sim();
    let hier = cfg.core.hierarchy;
    println!(
        "hierarchy: L1 {} KiB / L2 {} KiB / L3 {} KiB",
        hier.l1.size_bytes / 1024,
        hier.l2.size_bytes / 1024,
        hier.l3.size_bytes / 1024
    );
    println!(
        "pointer-chase sweep: {} configurations, {} threads, median across threads\n",
        dcache::sweep(&hier).len(),
        cfg.dcache_threads
    );

    let ms = SimRequest::new()
        .domain(Domain::Dcache)
        .events(&events)
        .config(&cfg)
        .run()
        .expect("valid request");

    // The expectation basis follows the core: each point's row comes from
    // the level its footprint lands in on this hierarchy.
    let study = study(Domain::Dcache, &cfg);
    let analysis = study.request(&ms).run().expect("simulated measurements analyze cleanly");

    print!("{}", report::noise_summary(&analysis.noise));
    println!();
    print!("{}", report::selection_table(&analysis));
    println!();
    print!("{}", report::metrics_table("Data Cache Metrics (paper Table VIII)", &analysis.metrics));

    // Figure-3-style data: signature vs measured combination per point.
    println!("\n== L1 Hits curve (paper Fig. 3a) ==");
    let sig = &study.signatures[1]; // L1 Hits
    print!("{}", report::figure3_data(&analysis, &study.basis, sig, &ms.point_labels));

    println!("\nCoefficients are within a few percent of 0/1 (noise) and round");
    println!("to combinations that match the signatures exactly — §VI.D.");
}
