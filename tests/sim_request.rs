//! `SimRequest` end-to-end guarantees:
//!
//! * the unified builder produces byte-identical `MeasurementSet`s to the
//!   `measure_*` runner it dispatches to, for all six domains;
//! * the parallel `Replay` engine matches the sequential `Direct`
//!   reference engine through the public API;
//! * the validating `RunnerConfig` builder round-trips into requests.

use catalyze_cat::{
    measure_branch, measure_cpu_flops, measure_dcache, measure_dstore, measure_dtlb,
    measure_gpu_flops, Domain, MeasurementSet, RunnerConfig, RunnerConfigBuilder, SimEngine,
    SimRequest,
};
use catalyze_obs::NoopObserver;
use catalyze_sim::cache::{CacheConfig, ReplacementPolicy};
use catalyze_sim::hierarchy::HierarchyConfig;
use catalyze_sim::{mi250x_like, sapphire_rapids_like};

fn request(domain: Domain, cfg: &RunnerConfig) -> MeasurementSet {
    let cpu = sapphire_rapids_like();
    let gpu = mi250x_like(cfg.gpu_devices);
    let req = SimRequest::new().domain(domain).config(cfg);
    let req = if domain.is_gpu() { req.gpu_events(&gpu) } else { req.events(&cpu) };
    req.run().expect("valid request")
}

fn bytes(ms: &MeasurementSet) -> Vec<u8> {
    serde_json::to_string(ms).expect("measurement sets serialize").into_bytes()
}

#[test]
fn request_matches_measure_runners_for_all_six_domains() {
    let cpu = sapphire_rapids_like();
    let cfg = RunnerConfig::fast_test();
    let gpu = mi250x_like(cfg.gpu_devices);
    let obs = &NoopObserver;
    let runners: [(Domain, MeasurementSet); 6] = [
        (Domain::CpuFlops, measure_cpu_flops(&cpu, &cfg, obs)),
        (Domain::Branch, measure_branch(&cpu, &cfg, obs)),
        (Domain::Dcache, measure_dcache(&cpu, &cfg, obs)),
        (Domain::Dtlb, measure_dtlb(&cpu, &cfg, obs)),
        (Domain::Dstore, measure_dstore(&cpu, &cfg, obs)),
        (Domain::GpuFlops, measure_gpu_flops(&gpu, &cfg, obs)),
    ];
    for (domain, direct) in &runners {
        let new = request(*domain, &cfg);
        assert_eq!(bytes(&new), bytes(direct), "{domain}: SimRequest differs from its runner");
    }
}

#[test]
fn parallel_replay_engine_matches_direct_reference_byte_for_byte() {
    let cfg = RunnerConfig::fast_test();
    let cpu = sapphire_rapids_like();
    for domain in [Domain::CpuFlops, Domain::Branch, Domain::Dcache, Domain::Dtlb, Domain::Dstore] {
        let direct = SimRequest::new()
            .domain(domain)
            .events(&cpu)
            .config(&cfg)
            .engine(SimEngine::Direct)
            .run()
            .expect("valid request");
        let replay = SimRequest::new()
            .domain(domain)
            .events(&cpu)
            .config(&cfg)
            .engine(SimEngine::Replay)
            .run()
            .expect("valid request");
        assert_eq!(bytes(&direct), bytes(&replay), "{domain}: engines disagree");
    }
}

#[test]
fn replay_engine_matches_direct_across_policies_and_prefetch() {
    // The stream fast path must stay byte-identical to the reference
    // engine on every robustness-sweep configuration — tree pseudo-LRU,
    // random replacement, and the next-line prefetcher — not just the
    // true-LRU default it was first built for.
    let cpu = sapphire_rapids_like();
    let policies = [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random];
    for policy in policies {
        for prefetch in [false, true] {
            let mut cfg = RunnerConfig::fast_test();
            let mk = |size: u64, ways: u32| CacheConfig::with_policy(size, 64, ways, policy);
            cfg.core.hierarchy = HierarchyConfig {
                l1: mk(16 * 1024, 8),
                l2: mk(128 * 1024, 8),
                l3: mk(1024 * 1024, 16),
                prefetch_next_line: prefetch,
            };
            for domain in [Domain::Dcache, Domain::Dstore] {
                let run = |engine: SimEngine| {
                    SimRequest::new()
                        .domain(domain)
                        .events(&cpu)
                        .config(&cfg)
                        .engine(engine)
                        .run()
                        .expect("valid request")
                };
                assert_eq!(
                    bytes(&run(SimEngine::Direct)),
                    bytes(&run(SimEngine::Replay)),
                    "{domain}: engines disagree under {policy:?} prefetch={prefetch}"
                );
            }
        }
    }
}

#[test]
fn config_builder_feeds_requests() {
    let cpu = sapphire_rapids_like();
    let builder: RunnerConfigBuilder =
        RunnerConfig::builder().repetitions(2).branch_iterations(128).dcache_threads(1);
    let cfg = builder.build().expect("valid config");
    let ms = SimRequest::new()
        .domain(Domain::Branch)
        .events(&cpu)
        .config(&cfg)
        .run()
        .expect("valid request");
    assert_eq!(ms.num_runs(), 2);
    assert!(RunnerConfig::builder().repetitions(0).build().is_err());
}
