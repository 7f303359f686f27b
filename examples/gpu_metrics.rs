//! Define GPU floating-point metrics (the paper's §V.B / Table VI flow) on
//! the MI250X-like device: the `SQ_INSTS_VALU_ADD_F*` counters fuse
//! additions and subtractions, so "HP Add" alone is not composable but
//! "HP Add and Sub" is.

use catalyze::report;
use catalyze_cat::{Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_sim::mi250x_like;

fn main() {
    // A Frontier-like node: 8 GPU devices, ~1200 events.
    let events = mi250x_like(8);
    println!("node exposes {} GPU events across 8 devices\n", events.len());

    let cfg = RunnerConfig::default_sim();
    println!("running the GPU-FLOPs benchmark (15 kernels x 3 sizes) on device 0...\n");
    let ms = SimRequest::new()
        .domain(Domain::GpuFlops)
        .gpu_events(&events)
        .config(&cfg)
        .run()
        .expect("valid request");

    let analysis = study(Domain::GpuFlops, &cfg)
        .request(&ms)
        .run()
        .expect("simulated measurements analyze cleanly");

    print!("{}", report::noise_summary(&analysis.noise));
    println!();
    print!("{}", report::selection_table(&analysis));
    println!();
    print!(
        "{}",
        report::metrics_table("GPU Floating-Point Metrics (paper Table VI)", &analysis.metrics)
    );

    println!("\nNote the 0.5-coefficient / 4.1e-1-error definitions of HP Add and");
    println!("HP Sub: the hardware cannot separate them, and the analysis says so.");
}
