//! Define CPU floating-point metrics (the paper's §V.A / Table V flow):
//! run the 16-kernel FLOPs benchmark, select the independent
//! `FP_ARITH_INST_RETIRED` events, and compose SP/DP instruction and
//! operation metrics — including the discovery that FMA-only metrics are
//! *not* composable on this (Sapphire-Rapids-like) machine.

use catalyze::report;
use catalyze_cat::{Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_sim::sapphire_rapids_like;

fn main() {
    let events = sapphire_rapids_like();
    let cfg = RunnerConfig::default_sim();

    println!("running the CAT CPU-FLOPs benchmark (16 kernels x 3 loops)...\n");
    let ms = SimRequest::new()
        .domain(Domain::CpuFlops)
        .events(&events)
        .config(&cfg)
        .run()
        .expect("valid request");

    let analysis = study(Domain::CpuFlops, &cfg)
        .request(&ms)
        .run()
        .expect("simulated measurements analyze cleanly");

    print!("{}", report::noise_summary(&analysis.noise));
    println!(
        "representable in the FLOPs expectation basis: {} events ({} rejected)\n",
        analysis.representation.kept.len(),
        analysis.representation.rejected.len()
    );
    print!("{}", report::selection_table(&analysis));

    println!();
    print!(
        "{}",
        report::metrics_table("CPU Floating-Point Metrics (paper Table V)", &analysis.metrics)
    );

    println!("\n== verdicts ==");
    for m in &analysis.metrics {
        let verdict = if m.is_composable(analysis.config.composability_threshold) {
            "composable"
        } else {
            "NOT composable on this architecture"
        };
        println!("{:<18} {verdict} (error {:.2e})", m.metric, m.error);
    }
    println!(
        "\nThe FMA metrics fail because FP_ARITH_INST_RETIRED counts an FMA\n\
         instruction twice and the machine has no dedicated FMA event —\n\
         the analysis detects the absence automatically (error ~2.4e-1)."
    );
}
