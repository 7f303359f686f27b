//! Process-wide counters for the linear-algebra hot paths.
//!
//! Every QR factorization, column-pivoted QR run, and least-squares solve
//! increments a relaxed atomic counter and adds its wall time to a nanosecond
//! accumulator. The increments cost a few nanoseconds against kernels that
//! run for microseconds, so they stay on unconditionally; consumers that
//! want per-phase numbers take a [`snapshot`] before and after the phase and
//! difference them with [`Snapshot::delta_since`] (this is how the pipeline's
//! observability layer attributes solves to stages).
//!
//! Counters are global to the process. The analysis pipeline runs its solves
//! sequentially on the calling thread, so a delta taken around one analysis
//! is exact for it; concurrent analyses in the same process fold into each
//! other's deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static QR_COUNT: AtomicU64 = AtomicU64::new(0);
static QR_NANOS: AtomicU64 = AtomicU64::new(0);
static QRCP_COUNT: AtomicU64 = AtomicU64::new(0);
static QRCP_NANOS: AtomicU64 = AtomicU64::new(0);
static SPQRCP_COUNT: AtomicU64 = AtomicU64::new(0);
static SPQRCP_NANOS: AtomicU64 = AtomicU64::new(0);
static LSTSQ_COUNT: AtomicU64 = AtomicU64::new(0);
static LSTSQ_NANOS: AtomicU64 = AtomicU64::new(0);
static SPECTRAL_COUNT: AtomicU64 = AtomicU64::new(0);
static SPECTRAL_NANOS: AtomicU64 = AtomicU64::new(0);
static QR_AVOIDED: AtomicU64 = AtomicU64::new(0);
static SPECTRAL_CACHED: AtomicU64 = AtomicU64::new(0);

/// The instrumented kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Unpivoted Householder QR ([`crate::Qr::factor`]), including the
    /// factorizations performed inside least-squares solves.
    Qr,
    /// Classical max-norm column-pivoted QR ([`crate::qrcp()`]).
    Qrcp,
    /// The paper's specialized column-pivoted QR ([`crate::specialized_qrcp`]).
    SpQrcp,
    /// Least-squares solve with diagnostics ([`crate::lstsq()`]), whether
    /// one-shot or through a [`crate::FactoredLstsq`] workspace.
    Lstsq,
    /// Spectral-norm computation ([`crate::spectral_norm`]), the Jacobi-SVD
    /// part of the backward-error measure.
    SpectralNorm,
}

impl Kernel {
    fn cells(self) -> (&'static AtomicU64, &'static AtomicU64) {
        match self {
            Kernel::Qr => (&QR_COUNT, &QR_NANOS),
            Kernel::Qrcp => (&QRCP_COUNT, &QRCP_NANOS),
            Kernel::SpQrcp => (&SPQRCP_COUNT, &SPQRCP_NANOS),
            Kernel::Lstsq => (&LSTSQ_COUNT, &LSTSQ_NANOS),
            Kernel::SpectralNorm => (&SPECTRAL_COUNT, &SPECTRAL_NANOS),
        }
    }
}

/// Point-in-time reading of every kernel counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Householder QR factorizations (includes those inside `lstsq`).
    pub qr_factorizations: u64,
    /// Nanoseconds spent in Householder QR.
    pub qr_nanos: u64,
    /// Classical column-pivoted QR runs.
    pub qrcp_runs: u64,
    /// Nanoseconds spent in classical QRCP.
    pub qrcp_nanos: u64,
    /// Specialized column-pivoted QR runs.
    pub spqrcp_runs: u64,
    /// Nanoseconds spent in the specialized QRCP.
    pub spqrcp_nanos: u64,
    /// Least-squares solves.
    pub lstsq_solves: u64,
    /// Nanoseconds spent in least-squares solves. One-shot [`crate::lstsq()`]
    /// factors inside [`crate::FactoredLstsq::factor`] before the solve
    /// timer starts, so QR time is accumulated in `qr_nanos` only.
    pub lstsq_nanos: u64,
    /// Spectral-norm computations (the Jacobi-SVD part of the
    /// backward-error measure).
    pub spectral_norms: u64,
    /// Nanoseconds spent computing spectral norms.
    pub spectral_nanos: u64,
    /// QR factorizations a [`crate::FactoredLstsq`] workspace *avoided* by
    /// reusing its factorization: one per solve beyond the first, compared
    /// against the naive one-factorization-per-solve baseline.
    pub qr_factorizations_avoided: u64,
    /// Spectral-norm computations answered from a [`crate::FactoredLstsq`]
    /// workspace's cache instead of re-running the Jacobi SVD.
    pub spectral_norms_cached: u64,
}

impl Snapshot {
    /// The counter movement since `earlier` (saturating, so a stale
    /// snapshot from another epoch yields zeros rather than wrapping).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            qr_factorizations: self.qr_factorizations.saturating_sub(earlier.qr_factorizations),
            qr_nanos: self.qr_nanos.saturating_sub(earlier.qr_nanos),
            qrcp_runs: self.qrcp_runs.saturating_sub(earlier.qrcp_runs),
            qrcp_nanos: self.qrcp_nanos.saturating_sub(earlier.qrcp_nanos),
            spqrcp_runs: self.spqrcp_runs.saturating_sub(earlier.spqrcp_runs),
            spqrcp_nanos: self.spqrcp_nanos.saturating_sub(earlier.spqrcp_nanos),
            lstsq_solves: self.lstsq_solves.saturating_sub(earlier.lstsq_solves),
            lstsq_nanos: self.lstsq_nanos.saturating_sub(earlier.lstsq_nanos),
            spectral_norms: self.spectral_norms.saturating_sub(earlier.spectral_norms),
            spectral_nanos: self.spectral_nanos.saturating_sub(earlier.spectral_nanos),
            qr_factorizations_avoided: self
                .qr_factorizations_avoided
                .saturating_sub(earlier.qr_factorizations_avoided),
            spectral_norms_cached: self
                .spectral_norms_cached
                .saturating_sub(earlier.spectral_norms_cached),
        }
    }
}

/// Reads every counter at once.
pub fn snapshot() -> Snapshot {
    Snapshot {
        // lint: allow(relaxed_result): telemetry tallies for perf reporting, never part of certified analysis values
        qr_factorizations: QR_COUNT.load(Ordering::Relaxed),
        qr_nanos: QR_NANOS.load(Ordering::Relaxed),
        qrcp_runs: QRCP_COUNT.load(Ordering::Relaxed),
        qrcp_nanos: QRCP_NANOS.load(Ordering::Relaxed),
        spqrcp_runs: SPQRCP_COUNT.load(Ordering::Relaxed),
        spqrcp_nanos: SPQRCP_NANOS.load(Ordering::Relaxed),
        lstsq_solves: LSTSQ_COUNT.load(Ordering::Relaxed),
        lstsq_nanos: LSTSQ_NANOS.load(Ordering::Relaxed),
        spectral_norms: SPECTRAL_COUNT.load(Ordering::Relaxed),
        spectral_nanos: SPECTRAL_NANOS.load(Ordering::Relaxed),
        qr_factorizations_avoided: QR_AVOIDED.load(Ordering::Relaxed),
        spectral_norms_cached: SPECTRAL_CACHED.load(Ordering::Relaxed),
    }
}

/// Records `runs` kernel runs that together took `nanos` wall nanoseconds —
/// the batched analogue of [`time`], used by
/// [`crate::FactoredLstsq::solve_many`] where per-solve timers inside the
/// parallel region would double-count overlapping wall time.
pub(crate) fn record_batch(kernel: Kernel, runs: u64, nanos: u64) {
    let (count, total) = kernel.cells();
    count.fetch_add(runs, Ordering::Relaxed);
    total.fetch_add(nanos, Ordering::Relaxed);
}

/// Records `n` QR factorizations avoided through factorization reuse.
pub(crate) fn record_qr_factorizations_avoided(n: u64) {
    QR_AVOIDED.fetch_add(n, Ordering::Relaxed);
}

/// Records `n` spectral norms served from a workspace cache.
pub(crate) fn record_spectral_norms_cached(n: u64) {
    SPECTRAL_CACHED.fetch_add(n, Ordering::Relaxed);
}

/// RAII timer: created at kernel entry, records one run and its wall time
/// when dropped (on success *and* on early error return).
pub(crate) struct KernelTimer {
    kernel: Kernel,
    start: Instant,
}

/// Starts timing one run of `kernel`.
pub(crate) fn time(kernel: Kernel) -> KernelTimer {
    // lint: allow(raw_timing, nondet_time): feeds the relaxed-atomic kernel counters behind stats::snapshot()
    KernelTimer { kernel, start: Instant::now() }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (count, nanos) = self.kernel.cells();
        count.fetch_add(1, Ordering::Relaxed);
        nanos.fetch_add(elapsed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_count_and_time() {
        let before = snapshot();
        {
            let _t = time(Kernel::Qrcp);
        }
        let delta = snapshot().delta_since(&before);
        assert!(delta.qrcp_runs >= 1);
    }

    #[test]
    fn batch_recorder_adds_counts_and_reuse_counters() {
        let before = snapshot();
        record_batch(Kernel::Lstsq, 8, 1234);
        record_qr_factorizations_avoided(7);
        record_spectral_norms_cached(7);
        let delta = snapshot().delta_since(&before);
        assert!(delta.lstsq_solves >= 8);
        assert!(delta.lstsq_nanos >= 1234);
        assert!(delta.qr_factorizations_avoided >= 7);
        assert!(delta.spectral_norms_cached >= 7);
    }

    #[test]
    fn delta_saturates() {
        let big = Snapshot { lstsq_solves: 10, ..Snapshot::default() };
        let small = Snapshot::default();
        assert_eq!(small.delta_since(&big).lstsq_solves, 0);
        assert_eq!(big.delta_since(&small).lstsq_solves, 10);
    }
}
