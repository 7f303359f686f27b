//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                  # everything below, in order
//! repro table1..table4       # signature tables (paper Tables I–IV)
//! repro table5..table8       # metric-definition tables (Tables V–VIII)
//! repro fig2                 # sorted event variabilities (Figs. 2a–2d)
//! repro fig3                 # cache metric curves (Figs. 3a–3f)
//! repro select-cpu|select-gpu|select-branch|select-cache   (§V.A–D)
//! repro ablate-pivot         # standard vs specialized QRCP (A1)
//! repro ablate-alpha         # α sensitivity (§V.E)
//! repro ablate-tau           # τ sensitivity (§IV)
//! repro ablate-median        # per-thread median suppression (A3)
//! repro dtlb                 # extension domain: data-TLB metrics
//! repro dstore               # extension domain: store-path (RFO) metrics
//! repro perf                 # BENCH_{pipeline,linalg,obs}.json snapshots
//! ```
//!
//! Add `--fast` for a down-scaled run and `--out DIR` to also write
//! gnuplot-ready data files.

use catalyze::report;
use catalyze_bench::ablations;
use catalyze_bench::{DomainResult, Harness, Scale};
use catalyze_cat::{Domain, RunnerConfig};
use catalyze_check::study;
use std::fs;
use std::path::PathBuf;

struct Opts {
    command: String,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut command = String::from("all");
    let mut scale = Scale::Full;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => scale = Scale::Fast,
            "--out" => {
                out = args.next().map(PathBuf::from);
                if out.is_none() {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!("usage: repro [COMMAND] [--fast] [--out DIR]");
                println!("commands: all, table1..table8, fig2, fig3, select-cpu,");
                println!("  select-gpu, select-branch, select-cache, ablate-pivot,");
                println!("  ablate-alpha, ablate-tau, ablate-median, dtlb, dstore, perf");
                std::process::exit(0);
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Opts { command, scale, out }
}

fn write_out(opts: &Opts, name: &str, content: &str) {
    if let Some(dir) = &opts.out {
        fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join(name);
        fs::write(&path, content).expect("write data file");
        eprintln!("wrote {}", path.display());
    }
}

fn signature_tables(opts: &Opts, cfg: &RunnerConfig) {
    for (key, title, domain) in [
        ("table1", "Table I: CPU FLOPs Metric Signatures", Domain::CpuFlops),
        ("table2", "Table II: GPU FLOPs Metric Signatures", Domain::GpuFlops),
        ("table3", "Table III: Branching Metric Signatures", Domain::Branch),
        ("table4", "Table IV: Data Cache Metric Signatures", Domain::Dcache),
    ] {
        if opts.command == "all" || opts.command == key {
            let study = study(domain, cfg);
            let rendered = report::signatures_table(title, &study.basis, &study.signatures);
            println!("{rendered}");
            write_out(opts, &format!("{key}.txt"), &rendered);
        }
    }
}

fn one_signature_table(opts: &Opts) -> bool {
    matches!(opts.command.as_str(), "all" | "table1" | "table2" | "table3" | "table4")
}

fn metric_table(opts: &Opts, key: &str, title: &str, d: &DomainResult) {
    let rendered = report::metrics_table(title, &d.analysis.metrics);
    println!("{rendered}");
    write_out(opts, &format!("{key}.txt"), &rendered);
}

fn selection(opts: &Opts, key: &str, d: &DomainResult) {
    let rendered = report::selection_table(&d.analysis);
    println!("{rendered}");
    write_out(opts, &format!("{key}.txt"), &rendered);
}

fn fig2(opts: &Opts, key: &str, title: &str, d: &DomainResult) {
    println!("-- {title} --");
    print!("{}", report::noise_summary(&d.analysis.noise));
    println!("{}", report::figure2_ascii(&d.analysis.noise, 72));
    write_out(opts, &format!("{key}.dat"), &report::figure2_data(&d.analysis.noise));
    write_out(
        opts,
        &format!("{key}.gp"),
        &catalyze::plot::figure2_script(
            title,
            &format!("{key}.dat"),
            d.analysis.config.tau,
            &format!("{key}.png"),
        ),
    );
}

fn fig3(opts: &Opts, d: &DomainResult) {
    for (panel, sig_name) in [
        ("fig3a", "L1 Hits."),
        ("fig3b", "L1 Misses."),
        ("fig3c", "L1 Reads."),
        ("fig3d", "L2 Hits."),
        ("fig3e", "L2 Misses."),
        ("fig3f", "L3 Hits."),
    ] {
        let sig =
            d.signatures.iter().find(|s| s.name == sig_name).expect("cache signature present");
        let data = report::figure3_data(&d.analysis, &d.basis, sig, &d.measurements.point_labels);
        println!("-- Figure 3 panel {panel}: {sig_name} --");
        print!("{data}");
        println!();
        write_out(opts, &format!("{panel}.dat"), &data);
        write_out(
            opts,
            &format!("{panel}.gp"),
            &catalyze::plot::figure3_script(
                sig_name,
                &format!("{panel}.dat"),
                &format!("{panel}.png"),
            ),
        );
    }
}

fn main() {
    let opts = parse_args();
    let h = Harness::new(opts.scale);
    let cmd = opts.command.as_str();
    let all = cmd == "all";

    if one_signature_table(&opts) {
        signature_tables(&opts, &h.cfg);
    }

    // Lazily run only the domains the command needs.
    if all || matches!(cmd, "table5" | "fig2" | "fig2b" | "select-cpu") {
        let d = h.domain(Domain::CpuFlops).expect("cpu-flops analysis");
        if all || cmd == "select-cpu" {
            selection(&opts, "select-cpu", &d);
        }
        if all || cmd == "table5" {
            metric_table(&opts, "table5", "Table V: CPU Floating-Point Metrics", &d);
        }
        if all || cmd.starts_with("fig2") {
            fig2(&opts, "fig2b", "Figure 2b: CAT CPU-FLOPs benchmark variabilities", &d);
        }
    }
    if all || matches!(cmd, "table6" | "fig2" | "fig2c" | "select-gpu") {
        let d = h.domain(Domain::GpuFlops).expect("gpu-flops analysis");
        if all || cmd == "select-gpu" {
            selection(&opts, "select-gpu", &d);
        }
        if all || cmd == "table6" {
            metric_table(&opts, "table6", "Table VI: GPU Floating-Point Metrics", &d);
        }
        if all || cmd.starts_with("fig2") {
            fig2(&opts, "fig2c", "Figure 2c: CAT GPU-FLOPs benchmark variabilities", &d);
        }
    }
    if all
        || matches!(
            cmd,
            "table7" | "fig2" | "fig2a" | "select-branch" | "ablate-alpha" | "ablate-tau"
        )
    {
        let d = h.domain(Domain::Branch).expect("branch analysis");
        if all || cmd == "select-branch" {
            selection(&opts, "select-branch", &d);
        }
        if all || cmd == "table7" {
            metric_table(&opts, "table7", "Table VII: Branching Metrics", &d);
        }
        if all || cmd.starts_with("fig2") {
            fig2(&opts, "fig2a", "Figure 2a: CAT branching benchmark variabilities", &d);
        }
        if all || cmd == "ablate-alpha" {
            println!("-- alpha sensitivity (branch domain, §V.E) --");
            let mut text = String::new();
            let sweep = ablations::alpha_sweep(&d, &[1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 5e-2])
                .expect("alpha sweep on a validated representation");
            for row in sweep {
                let line = format!(
                    "alpha {:>8.0e}: {} events, matches default: {}\n",
                    row.alpha,
                    row.selected.len(),
                    row.matches_default
                );
                print!("{line}");
                text.push_str(&line);
            }
            println!();
            write_out(&opts, "ablate-alpha.txt", &text);
        }
        if all || cmd == "ablate-tau" {
            println!("-- tau sensitivity (branch domain, §IV) --");
            let mut text = String::new();
            for row in ablations::tau_sweep(&d, &[1e-15, 1e-12, 1e-10, 1e-8, 1e-4, 1e-2, 1e0, 1e2])
            {
                let line = format!(
                    "tau {:>8.0e}: kept {:>4}, noisy {:>4}\n",
                    row.tau, row.kept, row.noisy
                );
                print!("{line}");
                text.push_str(&line);
            }
            println!();
            write_out(&opts, "ablate-tau.txt", &text);
        }
    }
    if all || matches!(cmd, "table8" | "fig2d" | "fig2" | "fig3" | "select-cache" | "ablate-pivot")
    {
        let d = h.domain(Domain::Dcache).expect("dcache analysis");
        if all || cmd == "select-cache" {
            selection(&opts, "select-cache", &d);
        }
        if all || cmd == "table8" {
            metric_table(&opts, "table8", "Table VIII: Data Cache Metrics", &d);
        }
        if all || cmd.starts_with("fig2") {
            fig2(&opts, "fig2d", "Figure 2d: CAT data-cache benchmark variabilities", &d);
        }
        if all || cmd == "fig3" {
            fig3(&opts, &d);
        }
        if all || cmd == "ablate-pivot" {
            let ab = ablations::pivot_rule_ablation(&d);
            let mut text = String::from("-- pivot-rule ablation (dcache domain) --\n");
            text.push_str("specialized QRCP selection (paper Algorithm 2):\n");
            for n in &ab.specialized {
                text.push_str(&format!("  {n}\n"));
            }
            text.push_str("classical max-norm QRCP selection (Algorithm 1):\n");
            for n in ab.standard.iter().take(8) {
                text.push_str(&format!("  {n}\n"));
            }
            print!("{text}");
            println!();
            write_out(&opts, "ablate-pivot.txt", &text);
        }
    }
    if all || matches!(cmd, "dtlb" | "select-dtlb") {
        let d = h.domain(Domain::Dtlb).expect("dtlb analysis");
        selection(&opts, "select-dtlb", &d);
        metric_table(&opts, "table-dtlb", "Extension: Data-TLB Metrics", &d);
    }
    if all || matches!(cmd, "dstore" | "select-dstore") {
        let d = h.domain(Domain::Dstore).expect("dstore analysis");
        selection(&opts, "select-dstore", &d);
        metric_table(&opts, "table-dstore", "Extension: Store-Path (RFO) Metrics", &d);
    }
    if cmd == "perf" {
        // Re-runs every domain under a trace collector; not part of `all`
        // because the domains above already ran once without tracing.
        let snapshot = h.perf_snapshot(opts.scale).expect("perf snapshot");
        print!("{snapshot}");
        write_out(&opts, "BENCH_pipeline.json", &snapshot);
        let linalg = catalyze_bench::linalg_perf::linalg_snapshot(opts.scale);
        print!("{linalg}");
        write_out(&opts, "BENCH_linalg.json", &linalg);
        let sim = catalyze_bench::sim_perf::sim_snapshot(opts.scale);
        print!("{sim}");
        write_out(&opts, "BENCH_sim.json", &sim);
        let obs =
            h.obs_snapshot(opts.scale, Harness::obs_repeats(opts.scale)).expect("obs snapshot");
        print!("{obs}");
        write_out(&opts, "BENCH_obs.json", &obs);
    }
    if all || cmd == "ablate-median" {
        let ab = ablations::median_ablation(&h);
        let mut text = String::from("-- per-thread median ablation (dcache, §IV/VII) --\n");
        text.push_str(&format!("{:<36} {:>14} {:>14}\n", "event", "single-thread", "median"));
        for ((name, single), (_, med)) in ab.single_thread.iter().zip(&ab.with_median) {
            text.push_str(&format!("{name:<36} {single:>14.4e} {med:>14.4e}\n"));
        }
        print!("{text}");
        println!();
        write_out(&opts, "ablate-median.txt", &text);
    }
}
