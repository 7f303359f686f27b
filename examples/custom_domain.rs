//! Defining a **new analysis domain from scratch** with the public API —
//! what a downstream user does to extend the methodology to a hardware
//! attribute the shipped benchmarks do not cover.
//!
//! The recipe (the same one every built-in domain follows):
//!
//! 1. write microkernels that stress the attribute in isolation, with
//!    *known* expected counts per iteration;
//! 2. stack those expected counts into an expectation [`Basis`];
//! 3. express the metrics you want as [`MetricSignature`]s over the basis;
//! 4. measure every raw event while running the kernels;
//! 5. hand everything to [`analyze`].
//!
//! Here the attribute is the **integer ALU**: four pure kernels (adds,
//! multiplies, compares, logic ops) plus one mixed kernel, composed against
//! the SPR-like machine's `INT_ALU_RETIRED:*` events.

use catalyze::basis::Basis;
use catalyze::pipeline::{AnalysisConfig, AnalysisRequest};
use catalyze::report;
use catalyze::signature::MetricSignature;
use catalyze_events::EventId;
use catalyze_linalg::Matrix;
use catalyze_sim::program::Block;
use catalyze_sim::{
    sapphire_rapids_like, CoreConfig, Cpu, CpuPmu, Instruction, IntKind, PmuConfig, Program,
};

/// Instructions per loop iteration for the three loops of every kernel.
const LOOP_SIZES: [u64; 3] = [24, 48, 96];
/// Loop trip count.
const TRIPS: u64 = 2048;

/// One integer kernel: per-iteration instruction counts per kind
/// (add, mul, cmp, logic), scaled by the loop size factor.
struct IntKernel {
    name: &'static str,
    /// Relative mix per kind; the loop with size `s` issues
    /// `mix[k] * s / 24` instructions of kind `k` per iteration.
    mix: [u64; 4],
}

const KERNELS: [IntKernel; 5] = [
    IntKernel { name: "K_ADD", mix: [24, 0, 0, 0] },
    IntKernel { name: "K_MUL", mix: [0, 24, 0, 0] },
    IntKernel { name: "K_CMP", mix: [0, 0, 24, 0] },
    IntKernel { name: "K_LOGIC", mix: [0, 0, 0, 24] },
    IntKernel { name: "K_MIX", mix: [12, 6, 4, 2] },
];

const KINDS: [IntKind; 4] = [IntKind::Add, IntKind::Mul, IntKind::Cmp, IntKind::Logic];

fn kernel_program(k: &IntKernel, loop_size: u64) -> Program {
    let mut block = Block::new();
    for (kind, &count) in KINDS.iter().zip(&k.mix) {
        block = block.repeat(Instruction::Int(*kind), (count * loop_size / 24) as usize);
    }
    // Explicit always-taken back edge: keeps the integer counts exactly the
    // kernel's own (a synthesized counted-loop header would add its own
    // add/cmp per iteration).
    block = block.push(Instruction::cond_forced(50, true, false));
    Program::new().bare_loop(block, TRIPS)
}

/// Step 2: the expectation basis — what ideal per-kind integer events
/// would measure, per iteration, at every (kernel, loop) point.
fn int_basis() -> Basis {
    let mut e = Matrix::zeros(KERNELS.len() * 3, 4);
    for (k, kernel) in KERNELS.iter().enumerate() {
        for (l, &size) in LOOP_SIZES.iter().enumerate() {
            for kind in 0..4 {
                e[(3 * k + l, kind)] = (kernel.mix[kind] * size / 24) as f64;
            }
        }
    }
    Basis {
        labels: ["I_ADD", "I_MUL", "I_CMP", "I_LOGIC"].iter().map(|s| s.to_string()).collect(),
        matrix: e,
    }
}

/// Step 3: the metrics we want.
fn int_signatures() -> Vec<MetricSignature> {
    vec![
        MetricSignature::new("Integer Adds.", vec![1., 0., 0., 0.]),
        MetricSignature::new("Integer Multiplies.", vec![0., 1., 0., 0.]),
        MetricSignature::new("All Integer Ops.", vec![1., 1., 1., 1.]),
        MetricSignature::new("Flag-Setting Ops.", vec![0., 0., 1., 1.]),
    ]
}

fn main() {
    // Lint the hand-built basis before trusting anything downstream.
    let issues = catalyze_check::check_basis("integer-alu", &int_basis(), Some(KERNELS.len() * 3));
    assert!(issues.is_empty(), "basis problems: {issues:?}");

    let set = sapphire_rapids_like();
    let pmu = CpuPmu::new(PmuConfig::default_sim());
    let all_events: Vec<EventId> = (0..set.len()).map(|i| EventId(i as u32)).collect();

    // Step 4: measure every raw event over every (kernel, loop) point.
    let kernel_names: Vec<&str> = KERNELS.iter().map(|k| k.name).collect();
    println!(
        "measuring {} events over {} points ({})...\n",
        set.len(),
        KERNELS.len() * 3,
        kernel_names.join(", ")
    );
    let mut runs = Vec::new();
    for rep in 0..3 {
        let mut per_event: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
        for (k, kernel) in KERNELS.iter().enumerate() {
            for (l, &size) in LOOP_SIZES.iter().enumerate() {
                let mut cpu = Cpu::new(CoreConfig::default_sim());
                cpu.run(&kernel_program(kernel, size));
                let counts =
                    pmu.read_cpu(&set, &cpu.stats(), &all_events, rep * 100_000 + 3 * k + l);
                for (e, &c) in counts.iter().enumerate() {
                    per_event[e].push(c / TRIPS as f64);
                }
            }
        }
        runs.push(per_event);
    }
    let names: Vec<String> = set.iter().map(|(_, d)| d.info.name.to_string()).collect();

    // Step 5: analyze.
    let basis = int_basis();
    let signatures = int_signatures();
    let analysis = AnalysisRequest::new()
        .domain("integer-alu (custom domain)")
        .events(&names)
        .runs(&runs)
        .basis(&basis)
        .signatures(&signatures)
        .config(AnalysisConfig::cpu_flops()) // exact counters: the strict thresholds apply
        .run()
        .expect("simulated measurements analyze cleanly");

    print!("{}", report::noise_summary(&analysis.noise));
    println!();
    print!("{}", report::selection_table(&analysis));
    println!();
    print!("{}", report::metrics_table("Custom Integer-ALU Metrics", &analysis.metrics));
    println!(
        "\nThe pipeline picked the four per-kind INT_ALU_RETIRED events and\n\
         rejected INT_MISC:ALL as their linear combination — the same\n\
         discovery pattern as every built-in domain, on a domain this\n\
         example defined in ~100 lines."
    );
}
