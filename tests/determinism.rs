//! Determinism guarantees: identical configurations must reproduce every
//! measurement and every analysis artifact bit-for-bit — the property that
//! makes the `repro` harness trustworthy.

use catalyze_bench::{Harness, Scale};
use catalyze_cat::{Domain, RunnerConfig, SimRequest};
use catalyze_check::study;
use catalyze_obs::NoopObserver;
use catalyze_sim::{mi250x_like, sapphire_rapids_like};

fn cfg() -> RunnerConfig {
    let mut c = RunnerConfig::fast_test();
    c.flops_trips = 128;
    c.branch_iterations = 256;
    c
}

fn assert_reproducible(domain: Domain) {
    let h = Harness { cfg: cfg(), ..Harness::new(Scale::Fast) };
    let a = h.measure(domain, &NoopObserver).unwrap();
    assert_eq!(a, h.measure(domain, &NoopObserver).unwrap());
}

#[test]
fn branch_measurements_bitwise_reproducible() {
    assert_reproducible(Domain::Branch);
}

#[test]
fn cpu_flops_measurements_bitwise_reproducible() {
    assert_reproducible(Domain::CpuFlops);
}

#[test]
fn gpu_measurements_bitwise_reproducible() {
    assert_reproducible(Domain::GpuFlops);
}

#[test]
fn different_pmu_seed_changes_noisy_reads_only() {
    let mut h = Harness { cfg: cfg(), ..Harness::new(Scale::Fast) };
    h.cfg.pmu.seed = 1;
    let a = h.measure(Domain::Branch, &NoopObserver).unwrap();
    h.cfg.pmu.seed = 2;
    let b = h.measure(Domain::Branch, &NoopObserver).unwrap();
    // Architectural counters identical...
    let cond = a.event_index("BR_INST_RETIRED:COND").unwrap();
    assert_eq!(a.runs[0][cond], b.runs[0][cond]);
    // ...noisy ones differ.
    let cycles = a.event_index("CPU_CLK_UNHALTED:THREAD").unwrap();
    assert_ne!(a.runs[0][cycles], b.runs[0][cycles]);
}

#[test]
fn analysis_is_a_pure_function_of_measurements() {
    let h = Harness { cfg: cfg(), ..Harness::new(Scale::Fast) };
    let ms = h.measure(Domain::Branch, &NoopObserver).unwrap();
    let study = study(Domain::Branch, &h.cfg);
    let a = study.request(&ms).run().unwrap();
    let b = study.request(&ms).run().unwrap();
    assert_eq!(
        a.selection.events.iter().map(|e| &e.name).collect::<Vec<_>>(),
        b.selection.events.iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(x.coefficients, y.coefficients, "{}", x.metric);
        assert_eq!(x.error, y.error);
    }
}

/// FNV-1a over the bit patterns of every measured value, in `runs[r][e][p]`
/// order.
fn digest(ms: &catalyze_cat::MeasurementSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bits in ms.runs.iter().flatten().flatten().map(|v| v.to_bits()) {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins every simulated measurement to digests recorded from an earlier
/// build. The engine-parity tests compare Replay with Direct in the *same*
/// build, so a change that both engines share (a cache or TLB rewrite, say)
/// slips past them; this test catches it across commits.
#[test]
fn measurements_match_recorded_digests() {
    use catalyze_cat::SimEngine;
    use catalyze_sim::cache::{CacheConfig, ReplacementPolicy};

    let set = sapphire_rapids_like();
    let run = |domain: Domain, cfg: &RunnerConfig, engine: SimEngine| {
        let ms = SimRequest::new()
            .domain(domain)
            .events(&set)
            .config(cfg)
            .engine(engine)
            .run()
            .expect("valid request");
        digest(&ms)
    };
    let base = RunnerConfig::fast_test();
    let mut got = Vec::new();
    for domain in [Domain::CpuFlops, Domain::Branch, Domain::Dcache, Domain::Dtlb, Domain::Dstore] {
        for (engine, label) in [(SimEngine::Direct, "direct"), (SimEngine::Replay, "replay")] {
            got.push((format!("{domain}/{label}"), run(domain, &base, engine)));
        }
    }
    let gpu_set = mi250x_like(base.gpu_devices);
    for (engine, label) in [(SimEngine::Direct, "direct"), (SimEngine::Replay, "replay")] {
        let ms = SimRequest::new()
            .domain(Domain::GpuFlops)
            .gpu_events(&gpu_set)
            .config(&base)
            .engine(engine)
            .run()
            .expect("valid request");
        got.push((format!("gpu-flops/{label}"), digest(&ms)));
    }
    // A non-stock LRU geometry (16-way L2) runs the stream engine's
    // runtime-ways instantiation on the product path. The chases do not
    // depend on L2 associativity, so its digest equals the stock one; a
    // faulty runtime-ways LRU would move it.
    let mut wide_l2 = base;
    let l2 = &mut wide_l2.core.hierarchy.l2;
    *l2 = CacheConfig::with_policy(l2.size_bytes, l2.line_bytes, 16, ReplacementPolicy::Lru);
    got.push(("dcache/l2=16way/replay".into(), run(Domain::Dcache, &wide_l2, SimEngine::Replay)));
    for (policy, label) in [
        (ReplacementPolicy::Lru, "lru"),
        (ReplacementPolicy::TreePlru, "plru"),
        (ReplacementPolicy::Random, "random"),
    ] {
        for prefetch in [false, true] {
            let mut cfg = base;
            let h = &mut cfg.core.hierarchy;
            for level in [&mut h.l1, &mut h.l2, &mut h.l3] {
                *level = CacheConfig::with_policy(
                    level.size_bytes,
                    level.line_bytes,
                    level.associativity,
                    policy,
                );
            }
            h.prefetch_next_line = prefetch;
            for domain in [Domain::Dcache, Domain::Dstore, Domain::Dtlb] {
                let key = format!("{domain}/{label}/prefetch={prefetch}");
                got.push((key, run(domain, &cfg, SimEngine::Replay)));
            }
        }
    }
    let expected: [(&str, u64); 31] = [
        ("cpu-flops/direct", 0x89bad8c045bb6b5b),
        ("cpu-flops/replay", 0x89bad8c045bb6b5b),
        ("branch/direct", 0xd5e1404117015328),
        ("branch/replay", 0xd5e1404117015328),
        ("dcache/direct", 0x0941b87abda7b240),
        ("dcache/replay", 0x0941b87abda7b240),
        ("dtlb/direct", 0x4cf0b2f747bb71ce),
        ("dtlb/replay", 0x4cf0b2f747bb71ce),
        ("dstore/direct", 0xc35585d21baf0fd9),
        ("dstore/replay", 0xc35585d21baf0fd9),
        ("gpu-flops/direct", 0xdfc1ece1acf28876),
        ("gpu-flops/replay", 0xdfc1ece1acf28876),
        ("dcache/l2=16way/replay", 0x0941b87abda7b240),
        ("dcache/lru/prefetch=false", 0x0941b87abda7b240),
        ("dstore/lru/prefetch=false", 0xc35585d21baf0fd9),
        ("dtlb/lru/prefetch=false", 0x4cf0b2f747bb71ce),
        ("dcache/lru/prefetch=true", 0xebb54ae98f29dc75),
        ("dstore/lru/prefetch=true", 0xb4bc7875aaa615c0),
        ("dtlb/lru/prefetch=true", 0x12fc27ae593d44d3),
        ("dcache/plru/prefetch=false", 0x0941b87abda7b240),
        ("dstore/plru/prefetch=false", 0xc35585d21baf0fd9),
        ("dtlb/plru/prefetch=false", 0x9811adb4204c1a7e),
        ("dcache/plru/prefetch=true", 0x39ce31f626a5e4c3),
        ("dstore/plru/prefetch=true", 0x0071d86232281f5e),
        ("dtlb/plru/prefetch=true", 0x22173f203523bb95),
        ("dcache/random/prefetch=false", 0x54103b7c62a734a6),
        ("dstore/random/prefetch=false", 0x27846051484cd509),
        ("dtlb/random/prefetch=false", 0xe5b4ca28cbe6864c),
        ("dcache/random/prefetch=true", 0x6e2b3b0ddfb9ee95),
        ("dstore/random/prefetch=true", 0x6251194b56910906),
        ("dtlb/random/prefetch=true", 0x99a6c05ce0cadd61),
    ];
    assert_eq!(got.len(), expected.len());
    for ((key, d), (want_key, want)) in got.iter().zip(expected) {
        assert_eq!(key, want_key);
        assert_eq!(*d, want, "{key}: measurements drifted from the recorded digest");
    }
}
