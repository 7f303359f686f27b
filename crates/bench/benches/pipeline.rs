//! Criterion benches for the analysis pipeline itself: the per-stage costs
//! (noise filtering, representation, selection, definition) and the full
//! analysis pass on each benchmark domain.

use catalyze::noise::analyze_noise;
use catalyze::normalize::represent;
use catalyze::select::select_events;
use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;
use catalyze_check::study;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_full_analyze(c: &mut Criterion) {
    let h = Harness::new(Scale::Fast);
    let mut g = c.benchmark_group("analyze_domain");
    g.sample_size(20);
    for domain in [Domain::Branch, Domain::CpuFlops, Domain::GpuFlops] {
        let ms = h.measure(domain, &catalyze_obs::NoopObserver).expect("valid request");
        let study = study(domain, &h.cfg);
        g.bench_function(domain.label(), |b| b.iter(|| study.request(black_box(&ms)).run()));
    }
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::CpuFlops).expect("cpu-flops analysis");
    let ms = &d.measurements;

    c.bench_function("stage_noise_filter", |b| {
        let vectors: Vec<Vec<&[f64]>> =
            (0..ms.num_events()).map(|e| ms.vectors_for_event(e)).collect();
        b.iter(|| analyze_noise(black_box(&ms.events), black_box(&vectors), 1e-10))
    });

    c.bench_function("stage_representation", |b| {
        let kept: Vec<(usize, String, Vec<f64>)> = d
            .analysis
            .noise
            .kept()
            .into_iter()
            .map(|e| (e, ms.events[e].clone(), ms.mean_vector(e)))
            .collect();
        b.iter(|| represent(black_box(&d.basis), black_box(&kept), 0.05))
    });

    c.bench_function("stage_selection", |b| {
        b.iter(|| select_events(black_box(&d.analysis.representation), 5e-4))
    });
}

fn bench_measurement_runners(c: &mut Criterion) {
    let h = Harness::new(Scale::Fast);
    let mut g = c.benchmark_group("measure_domain");
    g.sample_size(10);
    for domain in [Domain::Branch, Domain::GpuFlops] {
        g.bench_function(domain.label(), |b| {
            b.iter(|| h.measure(black_box(domain), &catalyze_obs::NoopObserver))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_full_analyze, bench_stages, bench_measurement_runners);
criterion_main!(benches);
