//! `catalyze` — end-to-end command-line tool: run the CAT benchmarks on the
//! simulated platform, analyze raw events, and emit metric definitions.
//!
//! ```text
//! catalyze events [--gpu]                      list the raw-event inventory
//! catalyze run <domain> [--out FILE] [--trace [FILE]]
//! catalyze analyze <domain> [--in FILE] [--set k=v ...] [--trace [FILE]]
//!                           [--metrics [FILE]]
//! catalyze metrics <domain> [--repeat N] [--json FILE] [--expo FILE]
//! catalyze trace diff <baseline.json> <candidate.json> [--json FILE]
//! catalyze presets <domain> [--json] [--set k=v ...]
//! catalyze check [--format json|sarif] [--presets FILE [--arch spr|zen|gpu]]
//! ```
//!
//! Domains: `cpu-flops`, `branch`, `dcache`, `gpu-flops`, `dtlb`, `dstore`.
//!
//! `--set key=value` overrides a stage threshold (`tau`, `alpha`,
//! `representation_threshold`, `rounding_tol`, `composability_threshold`);
//! unknown keys are a usage error (exit 2). `--tau T` / `--alpha A` are
//! shorthands for the two most common overrides.
//!
//! `--trace` records structured observability (nested timed spans, event
//! funnel, linalg solve counters) and prints a human summary; with a FILE
//! argument the schema-stable JSON trace is written there too. `--metrics`
//! folds the same run into a metrics registry and prints the
//! Prometheus-style exposition (with a FILE, the `metrics.v1` JSON is
//! written there). `catalyze metrics` aggregates `--repeat N` runs into
//! one registry; `catalyze trace diff` compares two observability
//! artifacts and exits 1 when a span regresses beyond
//! `--set diff.max_span_regression` (see `DiffConfig`).
//!
//! `check` validates every shipped analysis input (bases, catalogs, stage
//! configurations) and, with `--presets`, a PAPI-style preset file against
//! the chosen architecture's catalog. It exits 1 when any error-severity
//! diagnostic fires, so it can gate CI.

#![forbid(unsafe_code)]

use catalyze::pipeline::{AnalysisConfig, AnalysisReport};
use catalyze::report;
use catalyze_cat::{Domain, MeasurementSet, RunnerConfig, SimRequest};
use catalyze_events::PresetTable;
use catalyze_obs::{
    diff, render_exposition, render_metrics_json, DiffConfig, MetricsRegistry, NoopObserver,
    Observer, Snapshot, TraceCollector,
};
use catalyze_sim::{mi250x_like, sapphire_rapids_like, zen_like, CpuEventSet};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: catalyze <events|run|analyze|metrics|presets|trace> [args]");
    eprintln!("  catalyze events [--gpu]");
    eprintln!("  catalyze run <domain> [--out FILE] [--trace [FILE]]");
    eprintln!("  catalyze analyze <domain> [--in FILE] [--tau T] [--alpha A]");
    eprintln!("                            [--set key=value ...] [--trace [FILE]]");
    eprintln!("                            [--metrics [FILE]]");
    eprintln!("  catalyze metrics <domain> [--repeat N] [--json FILE] [--expo FILE]");
    eprintln!("                            [--set key=value ...]");
    eprintln!("  catalyze trace diff <baseline.json> <candidate.json> [--json FILE]");
    eprintln!("                            [--set diff.key=value ...]");
    eprintln!("  catalyze presets <domain> [--json] [--set key=value ...]");
    eprintln!("  catalyze papi <domain>");
    eprintln!("  catalyze check [--format human|json|sarif] [--presets FILE [--arch spr|zen|gpu]]");
    let domains: Vec<&str> = Domain::ALL.iter().map(|d| d.label()).collect();
    eprintln!("domains: {}", domains.join(", "));
    eprintln!("threshold keys for --set: {}", AnalysisConfig::keys().join(", "));
    eprintln!("diff keys for --set: {}", DiffConfig::keys().join(", "));
    ExitCode::from(2)
}

fn cpu_inventory(args: &[String]) -> CpuEventSet {
    match flag_value(args, "--arch").as_deref() {
        Some("zen") => zen_like(),
        Some("spr") | None => sapphire_rapids_like(),
        Some(other) => {
            eprintln!("unknown --arch {other} (expected spr or zen)");
            std::process::exit(2);
        }
    }
}

/// The domain a subcommand names in its first argument. `None` when the
/// argument is missing, or names no domain (reported on stderr).
fn domain_arg(args: &[String]) -> Option<Domain> {
    let name = args.get(1)?;
    let domain = Domain::parse(name);
    if domain.is_none() {
        eprintln!("unknown domain {name}");
    }
    domain
}

fn run_domain(
    domain: Domain,
    cfg: &RunnerConfig,
    cpu: &CpuEventSet,
    obs: &dyn Observer,
) -> MeasurementSet {
    let request = SimRequest::new().domain(domain).config(cfg).observer(obs);
    let gpu_events;
    let request = if domain.is_gpu() {
        gpu_events = mi250x_like(cfg.gpu_devices);
        request.gpu_events(&gpu_events)
    } else {
        request.events(cpu)
    };
    request.run().unwrap_or_else(|e| {
        eprintln!("run {domain}: {e}");
        std::process::exit(1);
    })
}

fn analyze_domain(
    domain: Domain,
    ms: &MeasurementSet,
    cfg: &RunnerConfig,
    overrides: &[(String, f64)],
    obs: &dyn Observer,
) -> AnalysisReport {
    let mut study = catalyze_check::study(domain, cfg);
    for (key, value) in overrides {
        if !study.config.set(key, *value) {
            eprintln!(
                "unknown threshold key {key} (expected one of: {})",
                AnalysisConfig::keys().join(", ")
            );
            std::process::exit(2);
        }
    }
    study.request(ms).observer(obs).run().unwrap_or_else(|e| {
        eprintln!("analysis failed for {domain}: {e}");
        std::process::exit(1);
    })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Collects `--set key=value` threshold overrides plus the `--tau`/`--alpha`
/// shorthands, in command-line order. Malformed pairs are a usage error.
fn parse_overrides(args: &[String]) -> Vec<(String, f64)> {
    let mut overrides = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let (key, raw) = match args[i].as_str() {
            "--set" => {
                let Some(pair) = args.get(i + 1) else {
                    eprintln!("--set requires a key=value argument");
                    std::process::exit(2);
                };
                let Some((key, raw)) = pair.split_once('=') else {
                    eprintln!("malformed --set {pair} (expected key=value)");
                    std::process::exit(2);
                };
                (key.to_string(), raw.to_string())
            }
            "--tau" | "--alpha" => {
                let key = args[i].trim_start_matches('-').to_string();
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("{} requires a numeric argument", args[i]);
                    std::process::exit(2);
                };
                (key, raw.clone())
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let Ok(value) = raw.parse::<f64>() else {
            eprintln!("non-numeric threshold value {raw} for {key}");
            std::process::exit(2);
        };
        overrides.push((key, value));
        i += 2;
    }
    overrides
}

/// Optional-file flag handling (`--trace`, `--metrics`): `None` when
/// absent, `Some(None)` for the bare flag, `Some(Some(path))` when followed
/// by a file name.
fn optional_file_flag(args: &[String], flag: &str) -> Option<Option<String>> {
    let i = args.iter().position(|a| a == flag)?;
    Some(args.get(i + 1).filter(|v| !v.starts_with('-')).cloned())
}

fn trace_request(args: &[String]) -> Option<Option<String>> {
    optional_file_flag(args, "--trace")
}

/// Folds a finished run's trace into a one-run registry and renders the
/// exposition; writes the `metrics.v1` JSON when a file was requested.
fn emit_metrics(trace: &TraceCollector, file: Option<&str>) -> String {
    let mut reg = MetricsRegistry::new();
    reg.fold(trace);
    if let Some(path) = file {
        std::fs::write(path, render_metrics_json(&reg)).expect("write metrics file");
        eprintln!("wrote metrics {path}");
    }
    render_exposition(&reg)
}

/// Writes the JSON trace when a file was requested and returns the human
/// summary for the caller to print on its preferred stream.
fn emit_trace(trace: &TraceCollector, file: Option<&str>) -> String {
    if let Some(path) = file {
        std::fs::write(path, trace.render_json()).expect("write trace file");
        eprintln!("wrote trace {path}");
    }
    trace.render_human()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let cfg = RunnerConfig::default_sim();

    match command.as_str() {
        "events" => {
            if args.iter().any(|a| a == "--gpu") {
                let set = mi250x_like(cfg.gpu_devices);
                for (_, def) in set.iter() {
                    println!("{:<56} {}", def.info.name.to_string(), def.info.description);
                }
            } else {
                let set = cpu_inventory(&args);
                for (_, def) in set.iter() {
                    println!(
                        "{:<48} [{}] {}",
                        def.info.name.to_string(),
                        def.info.domain,
                        def.info.description
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(domain) = domain_arg(&args) else { return usage() };
            let trace_to = trace_request(&args);
            let trace = TraceCollector::new();
            let obs: &dyn Observer = if trace_to.is_some() { &trace } else { &NoopObserver };
            let ms = run_domain(domain, &cfg, &cpu_inventory(&args), obs);
            eprintln!(
                "measured {} events over {} points, {} repetitions",
                ms.num_events(),
                ms.num_points(),
                ms.num_runs()
            );
            let json = serde_json::to_string(&ms).expect("measurement serializes");
            match flag_value(&args, "--out") {
                Some(path) => {
                    std::fs::write(&path, json).expect("write measurement file");
                    eprintln!("wrote {path}");
                }
                None => println!("{json}"),
            }
            if let Some(file) = trace_to {
                // stdout carries the measurement JSON; the summary goes to
                // stderr so pipelines stay clean.
                eprint!("{}", emit_trace(&trace, file.as_deref()));
            }
            ExitCode::SUCCESS
        }
        "analyze" => {
            let Some(domain) = domain_arg(&args) else { return usage() };
            let trace_to = trace_request(&args);
            let metrics_to = optional_file_flag(&args, "--metrics");
            let trace = TraceCollector::new();
            let obs: &dyn Observer =
                if trace_to.is_some() || metrics_to.is_some() { &trace } else { &NoopObserver };
            let ms = match flag_value(&args, "--in") {
                Some(path) => {
                    let data = std::fs::read_to_string(&path).expect("read measurement file");
                    let ms: MeasurementSet =
                        serde_json::from_str(&data).expect("valid measurement JSON");
                    ms.validate().expect("consistent measurement file");
                    ms
                }
                None => run_domain(domain, &cfg, &cpu_inventory(&args), obs),
            };
            let overrides = parse_overrides(&args);
            let analysis = analyze_domain(domain, &ms, &cfg, &overrides, obs);
            print!("{}", report::noise_summary(&analysis.noise));
            println!();
            print!("{}", report::selection_table(&analysis));
            println!();
            print!("{}", report::metrics_table(&format!("{domain} metrics"), &analysis.metrics));
            if let Some(file) = trace_to {
                println!();
                print!("{}", emit_trace(&trace, file.as_deref()));
            }
            if let Some(file) = metrics_to {
                println!();
                print!("{}", emit_metrics(&trace, file.as_deref()));
            }
            ExitCode::SUCCESS
        }
        "metrics" => {
            let Some(domain) = domain_arg(&args) else { return usage() };
            let repeat = match flag_value(&args, "--repeat") {
                Some(raw) => match raw.parse::<u32>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--repeat expects a positive integer, got {raw}");
                        return ExitCode::from(2);
                    }
                },
                None => 1,
            };
            let overrides = parse_overrides(&args);
            let cpu = cpu_inventory(&args);
            let mut reg = MetricsRegistry::new();
            for _ in 0..repeat {
                let trace = TraceCollector::new();
                let obs: &dyn Observer = &trace;
                let ms = run_domain(domain, &cfg, &cpu, obs);
                analyze_domain(domain, &ms, &cfg, &overrides, obs);
                reg.fold(&trace);
            }
            if let Some(path) = flag_value(&args, "--json") {
                std::fs::write(&path, render_metrics_json(&reg)).expect("write metrics file");
                eprintln!("wrote metrics {path}");
            }
            let expo = render_exposition(&reg);
            if let Some(path) = flag_value(&args, "--expo") {
                std::fs::write(&path, &expo).expect("write exposition file");
                eprintln!("wrote exposition {path}");
            }
            print!("{expo}");
            ExitCode::SUCCESS
        }
        "trace" => {
            if args.get(1).map(String::as_str) != Some("diff") {
                return usage();
            }
            let paths: Vec<&String> =
                args.iter().skip(2).take_while(|a| !a.starts_with('-')).collect();
            if paths.len() != 2 {
                return usage();
            }
            let (base_path, cand_path) = (paths[0].as_str(), paths[1].as_str());
            let mut diff_cfg = DiffConfig::default();
            for (key, value) in parse_overrides(&args) {
                if !diff_cfg.set(&key, value) {
                    eprintln!(
                        "unknown diff key {key} (expected one of: {})",
                        DiffConfig::keys().join(", ")
                    );
                    return ExitCode::from(2);
                }
            }
            let load = |path: &str| -> Snapshot {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                Snapshot::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("cannot load {path}: {e}");
                    std::process::exit(2);
                })
            };
            let baseline = load(base_path);
            let candidate = load(cand_path);
            let report = diff(&baseline, &candidate, diff_cfg);
            if let Some(path) = flag_value(&args, "--json") {
                std::fs::write(&path, report.render_json()).expect("write diff file");
                eprintln!("wrote diff {path}");
            }
            print!("{}", report.render_human());
            if report.regressed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "presets" => {
            let Some(domain) = domain_arg(&args) else { return usage() };
            let ms = run_domain(domain, &cfg, &cpu_inventory(&args), &NoopObserver);
            let overrides = parse_overrides(&args);
            let analysis = analyze_domain(domain, &ms, &cfg, &overrides, &NoopObserver);
            let table = PresetTable {
                title: format!("{domain} presets"),
                presets: analysis.composable_metrics().iter().map(|m| m.to_preset(1e-6)).collect(),
            };
            if args.iter().any(|a| a == "--json") {
                println!("{}", serde_json::to_string_pretty(&table).expect("serializes"));
            } else {
                for p in &table.presets {
                    print!("{p}");
                }
            }
            ExitCode::SUCCESS
        }
        "papi" => {
            let Some(domain) = domain_arg(&args) else { return usage() };
            let ms = run_domain(domain, &cfg, &cpu_inventory(&args), &NoopObserver);
            let analysis = analyze_domain(domain, &ms, &cfg, &[], &NoopObserver);
            let table = PresetTable {
                title: format!("{domain} presets (auto-generated by catalyze)"),
                presets: analysis.composable_metrics().iter().map(|m| m.to_preset(1e-6)).collect(),
            };
            let arch = flag_value(&args, "--arch").unwrap_or_else(|| "spr".into());
            print!("{}", catalyze_events::to_papi_format(&format!("{arch}-sim"), &table));
            ExitCode::SUCCESS
        }
        "check" => {
            let format = flag_value(&args, "--format").unwrap_or_else(|| "human".into());
            if format != "human" && format != "json" && format != "sarif" {
                eprintln!("unknown --format {format} (expected human, json, or sarif)");
                return usage();
            }
            let mut report = catalyze_check::check_shipped();
            if let Some(path) = flag_value(&args, "--presets") {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let catalog = match flag_value(&args, "--arch").as_deref() {
                    Some("zen") => zen_like().catalog().clone(),
                    Some("gpu") => mi250x_like(cfg.gpu_devices).catalog().clone(),
                    Some("spr") | None => sapphire_rapids_like().catalog().clone(),
                    Some(other) => {
                        eprintln!("unknown --arch {other} (expected spr, zen, or gpu)");
                        return usage();
                    }
                };
                report.extend(catalyze_check::check_preset_file(&path, &text, &catalog));
            }
            if format == "json" {
                println!("{}", report.render_json());
            } else if format == "sarif" {
                println!("{}", report.render_sarif("catalyze-check"));
            } else {
                print!("{}", report.render_human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
