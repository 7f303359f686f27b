//! Portability — the paper's reason to exist. The same benchmarks and the
//! same pipeline, run against two different architectures' event
//! inventories, produce each machine's own correct metric definitions:
//!
//! * the SPR-like machine has per-precision FP instruction counters but no
//!   FMA-only event: SP/DP metrics compose, FMA metrics do not;
//! * the Zen-like machine has per-class FP *operation* counters with no
//!   precision split: the total-FLOPs metric composes, SP/DP metrics do
//!   not; and its branch family lacks a taken-conditional event, so that
//!   metric needs a three-event combination.

use catalyze::pipeline::AnalysisReport;
use catalyze::signature;
use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;
use catalyze_check::study;
use catalyze_obs::NoopObserver;
use catalyze_sim::{sapphire_rapids_like, zen_like, CpuEventSet};

/// Runs one domain at paper scale on a machine with the given events. The
/// CPU-FLOPs study also asks for the precision-agnostic total.
fn report(cpu_events: CpuEventSet, domain: Domain) -> AnalysisReport {
    let h = Harness { cpu_events, ..Harness::new(Scale::Full) };
    let ms = h.measure(domain, &NoopObserver).expect("valid request");
    let mut study = study(domain, &h.cfg);
    if domain == Domain::CpuFlops {
        study.signatures.push(signature::all_fp_ops_signature());
    }
    study.request(&ms).run().expect("simulated measurements analyze cleanly")
}

fn verdict(r: &AnalysisReport, metric: &str) -> String {
    let m = r.metric(metric).expect("metric defined");
    if m.is_composable(r.config.composability_threshold) {
        format!("composable   (err {:.1e})", m.error)
    } else {
        format!("NOT composable (err {:.1e})", m.error)
    }
}

fn main() {
    println!("running the identical CPU-FLOPs benchmark on two machines...\n");
    let spr_report = report(sapphire_rapids_like(), Domain::CpuFlops);
    let zen_report = report(zen_like(), Domain::CpuFlops);

    println!("{:<18} {:<28} {:<28}", "metric", "SPR-like", "Zen-like");
    for metric in ["SP Ops.", "DP Ops.", "SP FMA Instrs.", "DP FMA Instrs.", "All FP Ops."] {
        println!(
            "{:<18} {:<28} {:<28}",
            metric,
            verdict(&spr_report, metric),
            verdict(&zen_report, metric)
        );
    }

    println!("\nselected FP events:");
    println!("  SPR-like: {:?}", spr_report.selection.names());
    println!("  Zen-like: {:?}", zen_report.selection.names());

    println!("\nbranching: the same metric, different raw-event combinations --");
    for (label, events) in [("SPR-like", sapphire_rapids_like()), ("Zen-like", zen_like())] {
        let report = report(events, Domain::Branch);
        let taken = report.metric("Conditional Branches Taken").unwrap();
        let combo: Vec<String> = taken
            .events
            .iter()
            .zip(&taken.coefficients)
            .filter(|(_, c)| c.abs() > 1e-6)
            .map(|(e, c)| format!("{c:+.0}x{e}"))
            .collect();
        println!("  {label:<9} Conditional Branches Taken = {}", combo.join(" "));
    }
    println!("\nSame pipeline, zero per-architecture configuration: each machine");
    println!("gets its own correct definitions, and impossibilities are reported");
    println!("as such rather than papered over.");
}
