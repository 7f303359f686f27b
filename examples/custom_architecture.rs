//! Analyzing a *custom* architecture: the whole point of the paper's
//! methodology is portability — rerun the same pipeline on different
//! hardware and it discovers that machine's metric definitions.
//!
//! Here we build a hypothetical CPU whose event inventory, unlike Sapphire
//! Rapids, includes dedicated FMA-instruction counters. The same pipeline
//! that found "DP FMA Instrs." non-composable on the SPR-like machine now
//! composes it exactly.

use catalyze_cat::{Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_events::EventName;
use catalyze_sim::cpu::ExecStats;
use catalyze_sim::{sapphire_rapids_like, FpKind, Precision, VecWidth};

/// Computes what a dedicated FMA-instruction counter (one count per FMA
/// instruction, unlike `FP_ARITH`'s double counting) would read.
fn fma_instr_count(stats: &ExecStats, prec: Precision) -> f64 {
    VecWidth::ALL.iter().map(|&w| stats.fp_class(prec, w, FpKind::Fma) as f64).sum()
}

fn main() {
    let base_events = sapphire_rapids_like();
    let cfg = RunnerConfig::default_sim();

    // Measure on the stock machine...
    let mut ms = SimRequest::new()
        .domain(Domain::CpuFlops)
        .events(&base_events)
        .config(&cfg)
        .run()
        .expect("valid request");

    // ...then graft on the hypothetical architecture's two extra events by
    // recomputing their ideal measurements from the same kernels. (On a
    // real port this would simply be two more rows in the PMU inventory.)
    let kernels = catalyze_cat::flops_cpu::kernel_space();
    for (name, prec) in [
        ("FMA_INST_RETIRED:DOUBLE", Precision::Double),
        ("FMA_INST_RETIRED:SINGLE", Precision::Single),
    ] {
        let event: EventName = name.parse().expect("valid name");
        let mut vectors: Vec<f64> = Vec::new();
        for k in &kernels {
            for l in 0..3 {
                let mut cpu = catalyze_sim::Cpu::new(cfg.core);
                cpu.run(&k.program(l, 64));
                vectors.push(fma_instr_count(&cpu.stats(), prec) / 64.0);
            }
        }
        ms.events.push(event.to_string());
        for run in &mut ms.runs {
            run.push(vectors.clone());
        }
    }

    let analysis = study(Domain::CpuFlops, &cfg)
        .request(&ms)
        .run()
        .expect("simulated measurements analyze cleanly");

    println!("selected events:");
    for e in &analysis.selection.events {
        println!("  {}", e.name);
    }
    println!();
    for m in &analysis.metrics {
        let verdict = if m.is_composable(analysis.config.composability_threshold) {
            "composable"
        } else {
            "NOT composable"
        };
        println!("{:<18} {verdict} (error {:.2e})", m.metric, m.error);
    }
    println!(
        "\nWith dedicated FMA counters in the inventory, the FMA metrics now\n\
         compose exactly — same pipeline, different architecture, correct\n\
         per-architecture answer."
    );
}
