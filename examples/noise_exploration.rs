//! Exploring measurement noise (the paper's §IV): the max-RNMSE variability
//! distribution per benchmark, how the threshold τ splits it, and the ASCII
//! rendition of Figure 2.

use catalyze::report;
use catalyze_bench::{ablations, Harness, Scale};
use catalyze_cat::Domain;

fn main() {
    let h = Harness::new(Scale::Full);

    for (domain, caption) in [
        (Domain::Branch, "Figure 2a: branching benchmark"),
        (Domain::CpuFlops, "Figure 2b: CPU-FLOPs benchmark"),
        (Domain::Dcache, "Figure 2d: data-cache benchmark"),
    ] {
        let d = h.domain(domain).expect("domain analyzes");
        println!("== {caption} ==");
        print!("{}", report::noise_summary(&d.analysis.noise));
        println!("{}", report::figure2_ascii(&d.analysis.noise, 70));

        if domain == Domain::Branch {
            println!("-- tau sweep: kept-event counts --");
            for row in ablations::tau_sweep(&d, &[1e-15, 1e-12, 1e-10, 1e-8, 1e-4, 1e-1, 1e2]) {
                println!("  tau {:>8.0e} -> kept {:>4}  noisy {:>4}", row.tau, row.kept, row.noisy);
            }
            println!(
                "\nAny tau between the zero-noise cluster and the noisy tail picks\n\
                 the same events — the threshold needs no careful tuning (§IV).\n"
            );
        }
        if domain == Domain::Dcache {
            println!(
                "The cache panel has no clean gap: hit/miss events carry real\n\
                 noise, so the paper (and this pipeline) use the lenient tau = 1e-1\n\
                 and rely on per-thread medians plus coefficient rounding instead.\n"
            );
        }
    }
}
