//! The simulator rows of the performance snapshot: `Direct` against
//! `Replay` per CPU domain and per data-cache policy variant, and the
//! single-thread stream row. [`crate::perf::snapshot`] folds them into
//! `BENCH_obs.json`.

use crate::perf::timed;
use crate::Harness;
use catalyze_cat::{dcache, Domain, MeasurementSet, RunnerConfig, SimEngine, SimRequest};
use catalyze_obs::{Observer, TraceCollector};
use catalyze_sim::cache::{CacheConfig, ReplacementPolicy};
use catalyze_sim::{Block, CoreConfig, Cpu, Instruction, Item, KernelTrace, Program};

/// The data-cache engine rows off the stock core: span tag, the policy of
/// every level, and whether the next-line prefetcher is on.
pub(crate) const POLICY_ROWS: [(&str, ReplacementPolicy, bool); 5] = [
    ("lru+prefetch", ReplacementPolicy::Lru, true),
    ("plru", ReplacementPolicy::TreePlru, false),
    ("plru+prefetch", ReplacementPolicy::TreePlru, true),
    ("random", ReplacementPolicy::Random, false),
    ("random+prefetch", ReplacementPolicy::Random, true),
];

fn measure(h: &Harness, domain: Domain, cfg: &RunnerConfig, engine: SimEngine) -> MeasurementSet {
    let request = SimRequest::new().domain(domain).events(&h.cpu_events).config(cfg);
    // lint: allow(panic): the harness configuration and its policy variants are valid
    request.engine(engine).run().expect("valid runner configuration")
}

fn identical(a: &MeasurementSet, b: &MeasurementSet) -> bool {
    serde_json::to_string(a).unwrap_or_default() == serde_json::to_string(b).unwrap_or_default()
}

/// Rebuilds the core's hierarchy with every level on `policy` and the
/// prefetcher set to `prefetch`, keeping the stock geometry.
fn core_with_policy(mut core: CoreConfig, policy: ReplacementPolicy, prefetch: bool) -> CoreConfig {
    let h = &mut core.hierarchy;
    for level in [&mut h.l1, &mut h.l2, &mut h.l3] {
        *level = CacheConfig::with_policy(
            level.size_bytes,
            level.line_bytes,
            level.associativity,
            policy,
        );
    }
    h.prefetch_next_line = prefetch;
    core
}

/// The Direct-vs-Replay rows. `replayed` holds each domain's measurements
/// from the traced pipeline, which ran on the Replay engine.
pub(crate) fn engine_rows(
    h: &Harness,
    repeats: u32,
    replayed: &[(Domain, MeasurementSet)],
    perf: &TraceCollector,
) {
    let mut mismatches = 0;
    for (domain, replay) in replayed.iter().filter(|(d, _)| !d.is_gpu()) {
        for _ in 0..repeats {
            let direct = timed(perf, &format!("direct/{domain}"), || {
                measure(h, *domain, &h.cfg, SimEngine::Direct)
            });
            mismatches += u64::from(!identical(&direct, replay));
        }
    }
    for (tag, policy, prefetch) in POLICY_ROWS {
        let mut cfg = h.cfg;
        cfg.core = core_with_policy(cfg.core, policy, prefetch);
        let direct = timed(perf, &format!("direct/dcache/{tag}"), || {
            measure(h, Domain::Dcache, &cfg, SimEngine::Direct)
        });
        let replay = timed(perf, &format!("replay/dcache/{tag}"), || {
            measure(h, Domain::Dcache, &cfg, SimEngine::Replay)
        });
        mismatches += u64::from(!identical(&direct, &replay));
    }
    perf.counter("perf.engine_mismatches", mismatches);
}

/// The stream rows: `n` single-thread `Cpu::replay_passes` calls over the
/// warmup passes of the dcache 4×L3, stride-64 point (thread 0's chase),
/// each on a fresh core — empty (`stream/counted`), or holding one
/// unrelated line (`stream/driven`).
pub(crate) fn stream_rows(cfg: &RunnerConfig, n: usize, perf: &TraceCollector) {
    let h = cfg.core.hierarchy;
    let (index, point) = dcache::sweep(&h)
        .into_iter()
        .enumerate()
        .find(|(_, c)| c.stride == 64 && c.footprint_bytes() == 4 * h.l3.size_bytes)
        // lint: allow(panic): the dcache sweep always has a 4xL3 footprint at stride 64
        .expect("4xL3 stride-64 point in the dcache sweep");
    let trace = KernelTrace::record(&point.program(1 << 40, index as u64, dcache::MEASURE_PASSES));
    let unrelated = Block::new().push(Instruction::Load { addr: 1 << 50, size: 8 });
    let unrelated = Program::new().item(Item::Block(unrelated));
    let mut accesses = 0;
    for (name, warm) in [("stream/counted", false), ("stream/driven", true)] {
        for _ in 0..n {
            let mut cpu = Cpu::new(cfg.core);
            if warm {
                cpu.run(&unrelated);
                cpu.reset_stats();
            }
            timed(perf, name, || cpu.replay_passes(&trace, dcache::WARMUP_PASSES));
            let tlb = cpu.stats().tlb;
            accesses = tlb.hits + tlb.misses;
        }
    }
    perf.counter("perf.stream_accesses", accesses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::fast_snapshot;
    use catalyze_obs::Snapshot;

    #[test]
    fn snapshot_is_valid_versioned_json_with_identical_engines() {
        let snapshot = fast_snapshot();
        let parsed: serde_json::Value = serde_json::from_str(snapshot).unwrap();
        assert_eq!(parsed["version"].as_u64(), Some(1));
        let loaded = Snapshot::from_json(snapshot).unwrap();
        assert_eq!(loaded.counters.get("perf.engine_mismatches"), Some(&0));
        // 65,536 pointers per pass on the stock core, two warmup passes.
        assert_eq!(loaded.counters.get("perf.stream_accesses"), Some(&(2 * 65_536)));

        let mut gated: Vec<String> =
            Domain::ALL.iter().filter(|d| !d.is_gpu()).map(|d| format!("direct/{d}")).collect();
        for (tag, ..) in POLICY_ROWS {
            gated.push(format!("direct/dcache/{tag}"));
            gated.push(format!("replay/dcache/{tag}"));
        }
        gated.extend(["stream/counted", "stream/driven"].map(String::from));
        for name in &gated {
            let span = loaded.spans.get(name.as_str());
            assert!(span.is_some_and(|s| s.count > 0 && s.stat_ns() > 0.0), "{name}");
        }
        // One Direct run per traced repeat; one run per policy row.
        assert_eq!(loaded.spans["direct/dstore"].count, 2);
        assert_eq!(loaded.spans["replay/dcache/plru"].count, 1);
        assert!(!loaded.spans.keys().any(|name| name.starts_with("direct/gpu")));
    }
}
