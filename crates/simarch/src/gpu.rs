//! Wavefront-level GPU model (AMD MI250X-like) with its event inventory.
//!
//! The GPU-FLOPs CAT benchmark only needs faithful *instruction counting*
//! semantics: each kernel issues a known number of VALU instructions of one
//! class per wavefront. The model therefore executes kernels at wavefront
//! granularity: dispatch is limited by compute-unit/SIMD occupancy, VALU
//! counters accumulate per `(class, precision)`, and cycle/L2/power
//! telemetry is derived with realistic noise.
//!
//! Semantics matching real MI250X counters that the paper's results rely
//! on: `SQ_INSTS_VALU_ADD_F*` counts **both** additions and subtractions
//! (§V-B: "occur in equivalent amounts for addition and subtraction
//! kernels"), and square root lands in the `TRANS` (transcendental) class.

use crate::isa::{FpKind, Precision};
use crate::noise::NoiseModel;
use catalyze_events::{EventCatalog, EventDomain, EventId, EventInfo, EventName, Qualifier};
use serde::{Deserialize, Serialize};

/// GPU device geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Compute units per die.
    pub compute_units: u32,
    /// SIMD units per compute unit.
    pub simds_per_cu: u32,
    /// Wavefront width (threads).
    pub wave_width: u32,
}

impl GpuConfig {
    /// One MI250X graphics compute die: 110 CUs, 4 SIMDs each, wave64.
    pub fn default_sim() -> Self {
        Self { compute_units: 110, simds_per_cu: 4, wave_width: 64 }
    }
}

/// A GPU microkernel: `wavefronts` wavefronts each issuing `instructions`
/// VALU instructions of one `(op, precision)` class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuKernel {
    /// Kernel label (reporting only).
    pub name: String,
    /// VALU operation class.
    pub op: FpKind,
    /// Element precision.
    pub prec: Precision,
    /// VALU instructions per wavefront.
    pub instructions: u64,
    /// Number of wavefronts dispatched.
    pub wavefronts: u64,
}

fn prec_index(p: Precision) -> usize {
    match p {
        Precision::Half => 0,
        Precision::Single => 1,
        Precision::Double => 2,
    }
}

/// Counters accumulated by one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuStats {
    /// VALU add+sub instructions per precision (the fused ADD counter).
    pub valu_add: [u64; 3],
    /// VALU multiplies per precision.
    pub valu_mul: [u64; 3],
    /// VALU transcendental ops (sqrt, div, etc.) per precision.
    pub valu_trans: [u64; 3],
    /// VALU fused multiply-adds per precision.
    pub valu_fma: [u64; 3],
    /// Scalar-ALU instructions (kernel control flow).
    pub salu: u64,
    /// Scalar memory reads (kernel argument loads).
    pub smem: u64,
    /// Vector memory reads.
    pub vmem_rd: u64,
    /// Vector memory writes.
    pub vmem_wr: u64,
    /// Wavefronts launched.
    pub waves: u64,
    /// Busy cycles (derived from the dispatch model).
    pub busy_cycles: u64,
}

impl GpuStats {
    /// All VALU instructions.
    pub fn valu_total(&self) -> u64 {
        let sum = |a: &[u64; 3]| a.iter().sum::<u64>();
        sum(&self.valu_add) + sum(&self.valu_mul) + sum(&self.valu_trans) + sum(&self.valu_fma)
    }
}

/// One GPU device.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    cfg: GpuConfig,
    /// Accumulated counters.
    pub stats: GpuStats,
}

impl GpuDevice {
    /// Creates an idle device.
    pub fn new(cfg: GpuConfig) -> Self {
        Self { cfg, stats: GpuStats::default() }
    }

    /// Launches a kernel to completion.
    pub fn launch(&mut self, k: &GpuKernel) {
        let total_instr = k.instructions * k.wavefronts;
        let pi = prec_index(k.prec);
        match k.op {
            FpKind::Add | FpKind::Sub => self.stats.valu_add[pi] += total_instr,
            FpKind::Mul => self.stats.valu_mul[pi] += total_instr,
            FpKind::Div | FpKind::Sqrt => self.stats.valu_trans[pi] += total_instr,
            FpKind::Fma => self.stats.valu_fma[pi] += total_instr,
        }
        self.stats.waves += k.wavefronts;
        // Kernel preamble per wavefront: control flow + argument loads,
        // plus one loop-control SALU op per 16 VALU instructions.
        self.stats.salu += k.wavefronts * (8 + k.instructions / 16);
        self.stats.smem += k.wavefronts * 4;
        self.stats.vmem_rd += k.wavefronts * 2;
        self.stats.vmem_wr += k.wavefronts;
        // Dispatch model: wavefront slots = CUs x SIMDs; each batch runs
        // its instructions back-to-back at class-dependent issue latency.
        let slots = u64::from(self.cfg.compute_units) * u64::from(self.cfg.simds_per_cu);
        let batches = k.wavefronts.div_ceil(slots.max(1));
        let latency = match (k.op, k.prec) {
            (FpKind::Sqrt | FpKind::Div, _) => 16,
            (_, Precision::Double) => 2,
            _ => 1,
        };
        self.stats.busy_cycles += batches * k.instructions * latency;
    }

    /// Clears counters.
    pub fn reset_stats(&mut self) {
        self.stats = GpuStats::default();
    }
}

/// Base semantic of a GPU raw event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// lint: allow(dead_api): base-event discriminant in GpuEventDef's public fields
pub enum GpuBase {
    /// `SQ_INSTS_VALU_ADD_F*`: adds and subtracts of one precision.
    ValuAdd(Precision),
    /// Multiplies of one precision.
    ValuMul(Precision),
    /// Transcendental ops of one precision.
    ValuTrans(Precision),
    /// FMAs of one precision.
    ValuFma(Precision),
    /// All VALU instructions.
    ValuTotal,
    /// Scalar-ALU instructions.
    Salu,
    /// Scalar memory instructions.
    Smem,
    /// Vector memory reads.
    VmemRd,
    /// Vector memory writes.
    VmemWr,
    /// Wavefronts launched.
    Waves,
    /// Busy cycles.
    BusyCycles,
    /// Nothing the benchmarks exercise.
    Zero,
}

impl GpuBase {
    /// Evaluates the true count against device statistics.
    pub fn eval(&self, s: &GpuStats) -> f64 {
        let v: u64 = match *self {
            GpuBase::ValuAdd(p) => s.valu_add[prec_index(p)],
            GpuBase::ValuMul(p) => s.valu_mul[prec_index(p)],
            GpuBase::ValuTrans(p) => s.valu_trans[prec_index(p)],
            GpuBase::ValuFma(p) => s.valu_fma[prec_index(p)],
            GpuBase::ValuTotal => s.valu_total(),
            GpuBase::Salu => s.salu,
            GpuBase::Smem => s.smem,
            GpuBase::VmemRd => s.vmem_rd,
            GpuBase::VmemWr => s.vmem_wr,
            GpuBase::Waves => s.waves,
            GpuBase::BusyCycles => s.busy_cycles,
            GpuBase::Zero => 0,
        };
        v as f64
    }
}

/// Full definition of one GPU raw event (bound to one device).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuEventDef {
    /// Catalog entry.
    pub info: EventInfo,
    /// Device the event reads from.
    pub device: u32,
    /// Base semantic.
    pub base: GpuBase,
    /// Count multiplier.
    pub scale: f64,
    /// Observation noise.
    pub noise: NoiseModel,
}

/// The GPU event inventory across all devices of a node.
#[derive(Debug, Clone)]
pub struct GpuEventSet {
    catalog: EventCatalog,
    defs: Vec<GpuEventDef>,
}

impl GpuEventSet {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The name catalog.
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// Definition by id.
    pub fn def(&self, id: EventId) -> Option<&GpuEventDef> {
        self.defs.get(id.index())
    }

    /// Iterates definitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &GpuEventDef)> {
        self.defs.iter().enumerate().map(|(i, d)| (EventId(i as u32), d))
    }

    /// Id by exact name.
    pub fn id_of(&self, name: &str) -> Option<EventId> {
        self.catalog.id_of(name)
    }

    /// True count of an event given per-device statistics.
    pub fn true_count(&self, id: EventId, devices: &[GpuStats]) -> Option<f64> {
        let d = self.defs.get(id.index())?;
        let stats = devices.get(d.device as usize)?;
        Some(d.base.eval(stats) * d.scale)
    }
}

/// Builds the MI250X-like event set for `num_devices` devices
/// (8 on a Frontier node → ~1200 events).
pub fn mi250x_like(num_devices: u32) -> GpuEventSet {
    let mut catalog = EventCatalog::new();
    let mut defs = Vec::new();
    let mut add =
        |name: EventName, desc: &str, device: u32, base: GpuBase, scale: f64, noise: NoiseModel| {
            let info = EventInfo { name, description: desc.to_string(), domain: EventDomain::Gpu };
            // lint: allow(panic, reachable_panic): the builder inserts a static, duplicate-free inventory
            catalog.add(info.clone()).expect("duplicate GPU event");
            defs.push(GpuEventDef { info, device, base, scale, noise });
        };
    let exact = NoiseModel::None;

    for dev in 0..num_devices {
        let dq = |base: &str| {
            EventName::component("rocm", base)
                .with_qualifier(Qualifier::with_value("device", dev.to_string()))
        };
        // SQ_INSTS_VALU_{class}_F{16,32,64}: exact instruction counters.
        for (class, mk) in [
            ("ADD", GpuBase::ValuAdd as fn(Precision) -> GpuBase),
            ("MUL", GpuBase::ValuMul as fn(Precision) -> GpuBase),
            ("TRANS", GpuBase::ValuTrans as fn(Precision) -> GpuBase),
            ("FMA", GpuBase::ValuFma as fn(Precision) -> GpuBase),
        ] {
            for (pname, prec) in
                [("16", Precision::Half), ("32", Precision::Single), ("64", Precision::Double)]
            {
                add(
                    dq(&format!("SQ_INSTS_VALU_{class}_F{pname}")),
                    "VALU instruction count by class and precision (ADD counts subs too)",
                    dev,
                    mk(prec),
                    1.0,
                    exact,
                );
            }
        }
        add(dq("SQ_INSTS_VALU"), "All VALU instructions", dev, GpuBase::ValuTotal, 1.0, exact);
        add(dq("SQ_INSTS_SALU"), "Scalar ALU instructions", dev, GpuBase::Salu, 1.0, exact);
        add(dq("SQ_INSTS_SMEM"), "Scalar memory instructions", dev, GpuBase::Smem, 1.0, exact);
        add(dq("SQ_INSTS_VMEM_RD"), "Vector memory reads", dev, GpuBase::VmemRd, 1.0, exact);
        add(dq("SQ_INSTS_VMEM_WR"), "Vector memory writes", dev, GpuBase::VmemWr, 1.0, exact);
        add(dq("SQ_INSTS_LDS"), "LDS instructions", dev, GpuBase::Zero, 1.0, exact);
        add(dq("SQ_INSTS_FLAT"), "FLAT memory instructions", dev, GpuBase::Zero, 1.0, exact);
        add(dq("SQ_WAVES"), "Wavefronts launched", dev, GpuBase::Waves, 1.0, exact);
        add(
            dq("SQ_BUSY_CYCLES"),
            "Sequencer busy cycles",
            dev,
            GpuBase::BusyCycles,
            1.0,
            NoiseModel::Multiplicative { sigma: 3e-4 },
        );
        add(
            dq("SQ_WAVE_CYCLES"),
            "Wave residency cycles",
            dev,
            GpuBase::BusyCycles,
            1.4,
            NoiseModel::Multiplicative { sigma: 8e-4 },
        );
        add(
            dq("GRBM_GUI_ACTIVE"),
            "Graphics pipe active cycles",
            dev,
            GpuBase::BusyCycles,
            1.1,
            NoiseModel::Multiplicative { sigma: 2e-3 },
        );
        add(
            dq("GRBM_COUNT"),
            "Free-running GRBM clock",
            dev,
            GpuBase::Zero,
            1.0,
            NoiseModel::Unrelated { mean: 2e8, spread: 0.01 },
        );
        // L2 (TCC) channels: benchmark data footprint is tiny, so these are
        // dominated by background traffic.
        for ch in 0..16 {
            add(
                dq(&format!("TCC_HIT[{ch}]")),
                "L2 channel hits",
                dev,
                GpuBase::VmemRd,
                0.05,
                NoiseModel::Multiplicative { sigma: 0.15 },
            );
            add(
                dq(&format!("TCC_MISS[{ch}]")),
                "L2 channel misses",
                dev,
                GpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 300.0, spread: 0.4 },
            );
        }
        // Further TCC umasks and per-instance texture-cache-pipe counters:
        // background traffic only.
        for ch in 0..16 {
            add(
                dq(&format!("TCC_READ[{ch}]")),
                "L2 channel read requests",
                dev,
                GpuBase::VmemRd,
                0.06,
                NoiseModel::Multiplicative { sigma: 0.2 },
            );
            add(
                dq(&format!("TCC_WRITE[{ch}]")),
                "L2 channel write requests",
                dev,
                GpuBase::VmemWr,
                0.06,
                NoiseModel::Multiplicative { sigma: 0.25 },
            );
        }
        for inst in 0..8 {
            for umask in ["TCP_READ", "TCP_WRITE", "TCP_ATOMIC"] {
                add(
                    dq(&format!("{umask}[{inst}]")),
                    "Per-CU vector cache pipe traffic",
                    dev,
                    GpuBase::Zero,
                    1.0,
                    NoiseModel::Unrelated { mean: 150.0 + 10.0 * inst as f64, spread: 0.5 },
                );
            }
        }
        for misc in [
            "SQ_INSTS_BRANCH",
            "SQ_INSTS_SENDMSG",
            "SQ_INSTS_EXP",
            "SQ_ITEMS",
            "SQ_ACCUM_PREV",
            "SQ_IFETCH",
            "SQC_ICACHE_HITS",
            "SQC_ICACHE_MISSES",
            "SQC_DCACHE_HITS",
            "SQC_DCACHE_MISSES",
        ] {
            add(
                dq(misc),
                "Sequencer miscellany",
                dev,
                GpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 80.0, spread: 0.6 },
            );
        }
        // Texture-addresser/data units: idle on compute kernels.
        for unit in ["TA_BUSY", "TD_BUSY", "TCP_BUSY", "CPC_BUSY", "CPF_BUSY", "SPI_BUSY"] {
            add(
                dq(unit),
                "Fixed-function unit busy cycles",
                dev,
                GpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 1e4, spread: 0.2 },
            );
        }
        // Power/thermal telemetry.
        for (name, mean, spread) in [
            ("GPU_POWER", 350.0, 0.05),
            ("GPU_TEMP_EDGE", 55.0, 0.04),
            ("GPU_TEMP_JUNCTION", 70.0, 0.04),
            ("GPU_SCLK", 1.6e3, 0.02),
        ] {
            add(
                dq(name),
                "Device telemetry",
                dev,
                GpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean, spread },
            );
        }
    }

    GpuEventSet { catalog, defs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_kernel(op: FpKind, prec: Precision) -> GpuKernel {
        GpuKernel { name: "k".into(), op, prec, instructions: 256, wavefronts: 440 }
    }

    #[test]
    fn event_count_scales_with_devices() {
        let one = mi250x_like(1);
        let eight = mi250x_like(8);
        assert_eq!(eight.len(), one.len() * 8);
        assert!(eight.len() > 1000, "got {}", eight.len());
        assert!(!eight.is_empty());
    }

    #[test]
    fn add_event_counts_both_add_and_sub() {
        let mut dev = GpuDevice::new(GpuConfig::default_sim());
        dev.launch(&add_kernel(FpKind::Add, Precision::Half));
        dev.launch(&add_kernel(FpKind::Sub, Precision::Half));
        assert_eq!(dev.stats.valu_add[0], 2 * 256 * 440);
        assert_eq!(dev.stats.valu_mul[0], 0);
    }

    #[test]
    fn sqrt_counts_as_trans() {
        let mut dev = GpuDevice::new(GpuConfig::default_sim());
        dev.launch(&add_kernel(FpKind::Sqrt, Precision::Double));
        assert_eq!(dev.stats.valu_trans[2], 256 * 440);
    }

    #[test]
    fn fma_counts_once_as_instruction() {
        let mut dev = GpuDevice::new(GpuConfig::default_sim());
        dev.launch(&add_kernel(FpKind::Fma, Precision::Single));
        assert_eq!(dev.stats.valu_fma[1], 256 * 440);
        assert_eq!(dev.stats.valu_total(), 256 * 440);
    }

    #[test]
    fn true_count_respects_device_binding() {
        let set = mi250x_like(2);
        let mut d0 = GpuDevice::new(GpuConfig::default_sim());
        d0.launch(&add_kernel(FpKind::Add, Precision::Half));
        let stats = [d0.stats, GpuStats::default()];
        let id0 = set.id_of("rocm:::SQ_INSTS_VALU_ADD_F16:device=0").unwrap();
        let id1 = set.id_of("rocm:::SQ_INSTS_VALU_ADD_F16:device=1").unwrap();
        assert_eq!(set.true_count(id0, &stats), Some((256 * 440) as f64));
        assert_eq!(set.true_count(id1, &stats), Some(0.0));
        assert!(set.def(id1).is_some());
    }

    #[test]
    fn dispatch_model_cycles() {
        let mut dev = GpuDevice::new(GpuConfig::default_sim());
        let k = add_kernel(FpKind::Add, Precision::Half); // 440 waves on 440 slots -> 1 batch
        dev.launch(&k);
        assert_eq!(dev.stats.busy_cycles, 256);
        dev.reset_stats();
        let big = GpuKernel { wavefronts: 441, ..k };
        dev.launch(&big); // 2 batches
        assert_eq!(dev.stats.busy_cycles, 512);
    }

    #[test]
    fn double_precision_slower() {
        let mut d1 = GpuDevice::new(GpuConfig::default_sim());
        let mut d2 = GpuDevice::new(GpuConfig::default_sim());
        d1.launch(&add_kernel(FpKind::Add, Precision::Half));
        d2.launch(&add_kernel(FpKind::Add, Precision::Double));
        assert!(d2.stats.busy_cycles > d1.stats.busy_cycles);
    }

    #[test]
    fn valu_counters_are_exact() {
        let set = mi250x_like(1);
        for (_, def) in set.iter() {
            if def.info.name.base.starts_with("SQ_INSTS_VALU") {
                assert!(def.noise.is_exact(), "{} must be exact", def.info.name);
            }
        }
    }
}
