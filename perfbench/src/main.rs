//! `perfbench` — the CATalyze end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --describe
//! ```
//!
//! One closed-loop client runs one request at a time and times it from
//! outside. The program's own worker pool stays at its default size; the
//! benchmark adds no threads. With `--trace 0` it runs untraced passes for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it runs
//! the same untraced passes, then traced passes, and reports the per-layer
//! metrics. Every request's output is checked bit for bit against the
//! Direct engine. The last line of standard output is the JSON result.

mod layers;
mod metrics;
mod workload;

use catalyze_cat::RunnerConfig;
use catalyze_obs::NoopObserver;
use layers::{bench_replay, traced_pass, TracedPass, LAYER_SPANS};
use metrics::{median, ratio, result_line, tail, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Reference, Setup, Workload};

/// Blocks of set-ups per run; `setup_s` is the median over blocks of the
/// mean set-up time within a block.
const SETUP_BLOCKS: usize = 15;
/// Set-ups timed together in one block, so a sample spans tens of
/// milliseconds rather than one 2 ms set-up.
const SETUPS_PER_BLOCK: usize = 24;
/// Traced passes per `--trace 1` run; per-layer times are their medians.
const TRACED_PASSES: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} expects a whole number"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")?, trace })
}

/// What one run measured, before it is rendered.
struct Run {
    setup_s: Vec<f64>,
    pass_ms: Vec<f64>,
    completed: usize,
    /// Σ request time of the timed passes, without the output check.
    request_s: f64,
    /// Wall clock of the timed loop, output checks and set-ups included.
    timed_s: f64,
    attempted: usize,
    failed: usize,
    peak_rss_mib: f64,
    traced: Vec<TracedPass>,
    layers: Vec<(&'static str, f64)>,
    /// Why the run is wrong beyond failed requests (a count drift).
    fault: Option<String>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the peak covers only
/// what runs after this call.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Runs every request once; returns (request ns, failures).
fn untraced_pass(setup: &Setup, reference: &Reference) -> (u64, usize) {
    let mut pass_ns = 0;
    let mut failed = 0;
    for i in 0..setup.requests.len() {
        match setup.run(i, &NoopObserver) {
            Ok(out) => {
                pass_ns += out.total_ns();
                if !reference.matches(i, &out) {
                    eprintln!("request {} differs from the reference", setup.requests[i].label);
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                failed += 1;
            }
        }
    }
    (pass_ns, failed)
}

/// Mean time of one set-up over a block of `SETUPS_PER_BLOCK`, in seconds.
fn setup_block(workload: Workload, cfg: &RunnerConfig) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..SETUPS_PER_BLOCK {
        drop(std::hint::black_box(Setup::new(workload, cfg)?));
    }
    Ok(secs(start) / SETUPS_PER_BLOCK as f64)
}

fn measure(args: &Args, base: &RunnerConfig) -> Result<Run, String> {
    let mut cfg = *base;
    cfg.pmu.seed = args.seed;
    let setup = Setup::new(args.workload, &cfg)?;
    let reference = Reference::new(&setup)?;
    let n = setup.requests.len();

    // One unrecorded pass lets lazy set-up and caches settle. The memory
    // peak is taken from here on, leaving out the Direct-engine reference.
    let (_, mut failed) = untraced_pass(&setup, &reference);
    let mut attempted = n;
    reset_peak_rss()?;

    // The set-up blocks are spread evenly over the timed run, so they see
    // the same host as the passes. The memory peak leaves them out.
    let mut setup_s = Vec::new();
    let mut peak_rss = 0.0_f64;
    let mut pass_ms = Vec::new();
    let mut completed = 0;
    let start = Instant::now();
    loop {
        let due = setup_s.len() as f64 * args.seconds as f64 / SETUP_BLOCKS as f64;
        if setup_s.len() < SETUP_BLOCKS && secs(start) >= due {
            peak_rss = peak_rss.max(peak_rss_mib()?);
            setup_s.push(setup_block(args.workload, &cfg)?);
            reset_peak_rss()?;
        }
        let (ns, f) = untraced_pass(&setup, &reference);
        pass_ms.push(ns as f64 / 1e6);
        attempted += n;
        failed += f;
        completed += n - f;
        if secs(start) >= args.seconds as f64 && setup_s.len() == SETUP_BLOCKS {
            break;
        }
    }
    let timed_s = secs(start);
    let request_s = pass_ms.iter().sum::<f64>() / 1e3;
    peak_rss = peak_rss.max(peak_rss_mib()?);

    let mut run = Run {
        setup_s,
        pass_ms,
        completed,
        request_s,
        timed_s,
        attempted,
        failed,
        peak_rss_mib: peak_rss,
        traced: Vec::new(),
        layers: Vec::new(),
        fault: None,
    };
    if args.trace {
        for _ in 0..TRACED_PASSES {
            let pass = traced_pass(&setup, &reference);
            run.attempted += pass.attempted;
            run.failed += pass.failed;
            run.traced.push(pass);
        }
        let replay = bench_replay(&setup);
        run.fault = check_counts(args, &run.traced, &replay);
        run.layers = layer_metrics(&run, &replay);
    }
    Ok(run)
}

/// Every count must repeat exactly across traced passes, across runs of
/// the same build, and between the bench's replay mirror and the traced
/// program. Returns the first drift found.
fn check_counts(
    args: &Args,
    traced: &[TracedPass],
    replay: &layers::BenchReplay,
) -> Option<String> {
    drift_within_run(traced, replay).or_else(|| {
        // The simulation counts do not depend on the PMU seed, so runs
        // with different seeds compare them; the noise-dependent rest
        // compares between runs of the same seed.
        let first = &traced[0].counts;
        let seedless = |k: &str| k.starts_with("stream.") || k.starts_with("runner.");
        let kept = [
            ("any-seed".to_string(), first.iter().filter(|(k, _)| seedless(k)).collect::<Vec<_>>()),
            (format!("seed{}", args.seed), first.iter().collect()),
        ];
        kept.into_iter().find_map(|(key, counts)| {
            let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
            compare_with_earlier_run(&counts_path(args, &key)?, &text)
        })
    })
}

/// Count drift between traced passes, or between the bench's replay
/// mirror and the traced program.
fn drift_within_run(traced: &[TracedPass], replay: &layers::BenchReplay) -> Option<String> {
    let first = &traced[0].counts;
    if let Some(p) = traced.iter().position(|t| &t.counts != first) {
        return Some(format!("counts of traced pass {p} differ from pass 0"));
    }
    let count = |name: &str| first.get(name).copied().unwrap_or(0);
    [
        ("points", replay.points, count("runner.replay_points")),
        ("memo hits", replay.stream.memo_hits, count("stream.memo_hits")),
        ("memo misses", replay.stream.memo_misses, count("stream.memo_misses")),
        ("collapsed passes", replay.stream.passes_collapsed, count("stream.passes_collapsed")),
    ]
    .into_iter()
    .find(|(_, mirror, program)| mirror != program)
    .map(|(what, mirror, program)| {
        format!("bench replay has {mirror} {what}, the traced program {program}")
    })
}

/// Compares `text` with what an earlier run kept at `path`, or keeps it
/// there for the next run. Returns the drift, if any.
fn compare_with_earlier_run(path: &std::path::Path, text: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(previous) if previous != text => {
            Some(format!("counts differ from an earlier run of this build: {}", path.display()))
        }
        Ok(_) => None,
        Err(_) => {
            let saved = path
                .parent()
                .map(std::fs::create_dir_all)
                .transpose()
                .and_then(|_| std::fs::write(path, text));
            if let Err(e) = saved {
                eprintln!("cannot keep counts for the next run: {e}");
            }
            None
        }
    }
}

/// The directory, under the cargo target directory, that keeps counts
/// between runs.
fn counts_dir() -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir).join("perfbench-counts")
}

/// Where the counts of this build, workload and `key` are kept. Keyed by
/// the executable's size and modification time, so a rebuild starts afresh.
fn counts_path(args: &Args, key: &str) -> Option<std::path::PathBuf> {
    let meta = std::env::current_exe().and_then(std::fs::metadata).ok()?;
    let stamp = meta.modified().ok()?.duration_since(std::time::UNIX_EPOCH).ok()?.as_nanos();
    Some(counts_dir().join(format!("{}-{key}-{}-{stamp}.txt", args.workload.name(), meta.len())))
}

fn layer_metrics(run: &Run, replay: &layers::BenchReplay) -> Vec<(&'static str, f64)> {
    let traced = &run.traced;
    let med_ms = |f: &dyn Fn(&TracedPass) -> u64| -> f64 {
        median(&traced.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>())
    };
    let span_ms = |span: &str| med_ms(&|t| t.span_ns.get(span).copied().unwrap_or(0));
    let counts = &traced[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;

    let mut out: Vec<(&'static str, f64)> = vec![
        ("cat.sim_request_ms", med_ms(&|t| t.sim_ns)),
        ("core.analysis_request_ms", med_ms(&|t| t.analysis_ns)),
    ];
    out.extend(LAYER_SPANS.iter().map(|&(span, metric)| (metric, span_ms(span))));

    let minstr = replay.instructions as f64 / 1e6;
    let bench_replay_ms = replay.replay_ns as f64 / 1e6;
    out.push(("simarch.minstr_per_s", ratio(minstr, bench_replay_ms / 1e3)));
    out.push(("simarch.minstr", minstr));
    out.push(("simarch.bench_replay_ms", bench_replay_ms));

    let hits = count("stream.memo_hits");
    let lookups = hits + count("stream.memo_misses");
    let collapsed = count("stream.passes_collapsed");
    let replayed = count("stream.passes_replayed");
    let driven = replayed - collapsed;
    out.extend([
        ("stream.memo_hit_ratio", ratio(hits, lookups)),
        ("stream.memo_hits", hits),
        ("stream.memo_lookups", lookups),
        ("stream.collapse_ratio", ratio(collapsed, replayed)),
        ("stream.passes_collapsed", collapsed),
        ("stream.passes_replayed", replayed),
        ("stream.driven_pass_us", ratio(span_ms("replay") * 1e3, driven)),
        ("stream.passes_driven", driven),
    ]);

    let values_read = traced[0].values_read as f64;
    out.push(("pmu.read_ns_per_value", ratio(span_ms("read-counters") * 1e6, values_read)));
    out.push(("pmu.values_read", values_read));
    for name in ["runner.points", "runner.events", "runner.repetitions"] {
        out.push((name, count(name)));
    }
    for name in [
        "core.noise_in",
        "core.noise_kept",
        "core.represent_in",
        "core.represent_kept",
        "core.select_in",
        "core.select_kept",
        "core.define_in",
        "core.define_kept",
    ] {
        out.push((name, count(name)));
    }
    out.extend([
        ("linalg.lstsq_ms", med_ms(&|t| t.lstsq_ns)),
        ("linalg.spqrcp_ms", med_ms(&|t| t.spqrcp_ns)),
        ("linalg.lstsq_solves", count("linalg.delta.lstsq_solves")),
        ("linalg.qr_factorizations", count("linalg.delta.qr_factorizations")),
    ]);

    let traced_ms = med_ms(&|t| t.pass_ns);
    let untraced_ms = median(&run.pass_ms);
    let unattributed_ms = median(
        &traced
            .iter()
            .map(|t| t.pass_ns.saturating_sub(t.leaf_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let unattributed_ratio = median(
        &traced
            .iter()
            .map(|t| ratio(t.pass_ns.saturating_sub(t.leaf_ns) as f64, t.pass_ns as f64))
            .collect::<Vec<_>>(),
    );
    let (_, quantile) = tail(&run.pass_ms);
    out.extend([
        ("obs.trace_overhead_ratio", ratio(traced_ms, untraced_ms)),
        ("obs.traced_pass_ms", traced_ms),
        ("obs.untraced_pass_ms", untraced_ms),
        ("unattributed_ratio", unattributed_ratio),
        ("unattributed_ms", unattributed_ms),
        ("failed_fraction", ratio(run.failed as f64, run.attempted as f64)),
        ("run.requests", run.completed as f64),
        ("run.request_s", run.request_s),
        ("pass_ms_tail.quantile", quantile),
        ("pass_ms_tail.samples", run.pass_ms.len() as f64),
    ]);
    out
}

fn end_to_end_metrics(run: &Run) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(&run.setup_s)),
        ("pass_ms_p50", median(&run.pass_ms)),
        ("pass_ms_tail", tail(&run.pass_ms).0),
        ("requests_per_s", ratio(run.completed as f64, run.request_s)),
        ("peak_rss_mib", run.peak_rss_mib),
    ]
}

/// The lines a run prints: a human table, a detail line, the result line.
fn render(args: &Args, run: &Run) -> Result<(Vec<String>, bool), String> {
    let (declared, values): (Vec<metrics::Metric>, _) = if args.trace {
        (PER_LAYER.iter().map(|l| l.metric).collect(), run.layers.clone())
    } else {
        (END_TO_END.to_vec(), end_to_end_metrics(run))
    };
    let mut lines = vec![format!(
        "# perfbench {} seed={} seconds={} trace={} requests={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.request_labels().join(",")
    )];
    for d in &declared {
        let v = values.iter().find(|(n, _)| *n == d.name).map_or(f64::NAN, |(_, v)| *v);
        lines.push(format!("{:<28} {v:>16.6} {}", d.name, d.unit));
    }
    let (tail_ms, quantile) = tail(&run.pass_ms);
    let counts: BTreeMap<&str, u64> = run
        .traced
        .first()
        .map(|t| t.counts.iter().map(|(k, v)| (k.as_str(), *v)).collect())
        .unwrap_or_default();
    lines.push(format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"requests\": [{}], \"setup_s\": {:?}, \
         \"pass_ms_tail\": {{\"value\": {tail_ms}, \"quantile\": {quantile}, \
         \"samples\": {}}}, \"requests_per_s\": {{\"requests\": {}, \"request_s\": {}, \
         \"timed_s\": {}}}, \"failed_fraction\": {{\"failed\": {}, \"attempted\": {}}}, \
         \"counts\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        quoted(&args.workload.request_labels()),
        run.setup_s,
        run.pass_ms.len(),
        run.completed,
        run.request_s,
        run.timed_s,
        run.failed,
        run.attempted,
        counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", "),
    ));
    if let Some(fault) = &run.fault {
        eprintln!("count drift: {fault}");
    }
    let correct = run.failed == 0 && run.fault.is_none();
    lines.push(result_line(correct, run.attempted, run.failed, &declared, &values)?);
    Ok((lines, correct))
}

fn quoted(items: &[String]) -> String {
    items.iter().map(|l| format!("\"{l}\"")).collect::<Vec<_>>().join(", ")
}

/// The workloads and per-layer predictions, as JSON.
fn describe() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": \"{}\", \"why\": \"{}\", \"requests\": [{}]}}",
                w.name(),
                w.why(),
                quoted(&w.request_labels())
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"moves\": \"{}\", \
                 \"on\": \"{}\", \"no_change_on\": \"{}\"}}",
                l.metric.name, l.metric.unit, l.metric.better, l.moves, l.on, l.no_change_on
            )
        })
        .collect();
    format!(
        "{{\"workloads\": [\n  {}\n], \"per_layer\": [\n  {}\n]}}",
        workloads.join(",\n  "),
        layers.join(",\n  ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("workloads: {}", Workload::ALL.map(Workload::name).join(", "));
            return ExitCode::from(2);
        }
    };
    let outcome = measure(&args, &RunnerConfig::default_sim()).and_then(|run| render(&args, &run));
    match outcome {
        Ok((lines, correct)) => {
            for line in lines {
                println!("{line}");
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(lines: &[String]) -> Vec<String> {
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        let serde_json::Value::Object(metrics) = &last["metrics"] else { panic!("metrics object") };
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    /// A scaled-down run of every workload in both modes emits exactly the
    /// declared metric names, with a correct result.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args { workload, seed: 7, seconds: 0, trace };
                let run = measure(&args, &RunnerConfig::fast_test()).unwrap();
                let (lines, correct) = render(&args, &run).unwrap();
                assert!(correct, "{} trace={trace}: {:?}", workload.name(), run.fault);
                let expected: Vec<String> = if trace {
                    PER_LAYER.iter().map(|l| l.metric.name.to_string()).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name.to_string()).collect()
                };
                assert_eq!(names(&lines), expected);
            }
        }
    }

    #[test]
    fn count_drift_is_caught() {
        let pass = |points: u64, collapsed: u64| TracedPass {
            counts: BTreeMap::from([
                ("runner.replay_points".to_string(), points),
                ("stream.memo_misses".to_string(), 1),
                ("stream.passes_collapsed".to_string(), collapsed),
            ]),
            ..TracedPass::default()
        };
        let stream =
            catalyze_sim::StreamStats { memo_hits: 0, memo_misses: 1, passes_collapsed: 2 };
        let replay = layers::BenchReplay { points: 4, stream, ..Default::default() };
        assert_eq!(drift_within_run(&[pass(4, 2), pass(4, 2)], &replay), None);
        assert!(drift_within_run(&[pass(4, 2), pass(4, 3)], &replay).is_some());
        assert!(drift_within_run(&[pass(5, 2)], &replay).is_some());
        assert!(drift_within_run(&[pass(4, 0)], &replay).is_some());

        let path = counts_dir().join(format!("self-test-{}.txt", std::process::id()));
        assert_eq!(compare_with_earlier_run(&path, "stream.memo_hits 3\n"), None);
        assert_eq!(compare_with_earlier_run(&path, "stream.memo_hits 3\n"), None);
        assert!(compare_with_earlier_run(&path, "stream.memo_hits 4\n").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload chase-lru --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::ChaseLru, 3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload chase-lru --seed x --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload chase-lru --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload chase-lru --seed 3 --trace 0")).is_err());
    }
}
