//! The simulated CPU's raw-event inventory, modeled on Intel Sapphire
//! Rapids.
//!
//! Faithful behavioral details that the paper's results hinge on:
//!
//! * `FP_ARITH_INST_RETIRED:*` counts an FMA instruction **twice** (as two
//!   arithmetic uops), and there is **no** dedicated FMA-only event — this
//!   is why "SP/DP FMA Instrs" metrics come out non-composable (Table V);
//! * `BR_INST_RETIRED:ALL_BRANCHES` covers conditional + unconditional
//!   control flow, and no event measures *executed* (speculative)
//!   conditional branches — hence "Conditional Branches Executed" has
//!   backward error 1.0 (Table VII);
//! * the `MEM_LOAD_RETIRED`/`L2_RQSTS` families carry the largest
//!   measurement noise (§IV of the paper and Table VIII);
//! * a long tail of frontend, uncore, power, and software events exists
//!   that measures nothing the CAT kernels control — the noisy cluster of
//!   Figure 2.

use crate::cpu::ExecStats;
use crate::isa::{FpKind, Precision, VecWidth};
use crate::noise::NoiseModel;
use catalyze_events::{EventCatalog, EventDomain, EventId, EventInfo, EventName};
use serde::{Deserialize, Serialize};

/// Base semantic: what an event truly counts, as a function of execution
/// statistics. The PMU evaluates this and then applies the noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CpuBase {
    /// `FP_ARITH_INST_RETIRED`-style count: optional precision/width
    /// filters, FMA counted twice.
    FpArith {
        /// Precision filter (`None` = all).
        prec: Option<Precision>,
        /// Width filter (`None` = all).
        width: Option<VecWidth>,
    },
    /// All retired instructions.
    Instructions,
    /// Retired no-ops.
    Nops,
    /// Core cycles.
    Cycles,
    /// Issued micro-ops.
    Uops,
    /// All integer ALU instructions.
    IntAll,
    /// Integer ALU instructions of one kind (index into
    /// [`ExecStats::int_ops`]).
    IntKind(usize),
    /// All retired branches.
    BrAll,
    /// Retired conditional branches.
    BrCond,
    /// Retired taken conditional branches.
    BrCondTaken,
    /// Retired not-taken conditional branches.
    BrCondNtaken,
    /// Retired unconditional direct jumps.
    BrUncond,
    /// Retired near calls.
    BrCall,
    /// Retired near returns.
    BrRet,
    /// All retired taken branches.
    BrAllTaken,
    /// Mispredicted conditional branches (== all mispredicts here: the
    /// model never mispredicts unconditional flow).
    MispCond,
    /// Mispredicted taken conditional branches.
    MispCondTaken,
    /// Retired loads.
    Loads,
    /// Retired stores.
    Stores,
    /// Retired loads that hit L1.
    L1Hit,
    /// Retired loads that missed L1.
    L1Miss,
    /// Retired loads that hit L2.
    L2Hit,
    /// Retired loads that missed L2.
    L2Miss,
    /// Retired loads that hit L3.
    L3Hit,
    /// Retired loads that missed L3.
    L3Miss,
    /// L2 demand-data-read requests that hit.
    L2RqstsDemandRdHit,
    /// L2 demand-data-read requests that missed.
    L2RqstsDemandRdMiss,
    /// All L2 demand data reads.
    L2RqstsAllDemandRd,
    /// L2 store (RFO) hits.
    L2RqstsRfoHit,
    /// L2 store (RFO) misses.
    L2RqstsRfoMiss,
    /// All L2 store (RFO) requests — every store that missed L1.
    L2RqstsAllRfo,
    /// TLB load misses (page walks).
    DtlbLoadMisses,
    /// TLB load hits.
    DtlbLoadHits,
    /// AMD-style FLOP counter: add/sub *operations*, all precisions.
    FpOpsAddSub,
    /// Multiply operations, all precisions.
    FpOpsMul,
    /// Divide/square-root operations, all precisions.
    FpOpsDivSqrt,
    /// Fused multiply-accumulate operations (two per instruction, times
    /// lanes), all precisions.
    FpOpsMac,
    /// All floating-point operations, all precisions.
    FpOpsAny,
    /// Structurally zero on this machine/workload class (reserved or
    /// inapplicable events).
    Zero,
}

impl CpuBase {
    /// Evaluates the true (pre-noise) count against execution statistics.
    pub fn eval(&self, s: &ExecStats) -> f64 {
        let v: u64 = match *self {
            CpuBase::FpArith { prec, width } => s.fp_filtered(prec, width, 2),
            CpuBase::Instructions => s.instructions,
            CpuBase::Nops => s.nops,
            CpuBase::Cycles => s.cycles,
            CpuBase::Uops => s.uops,
            CpuBase::IntAll => s.int_total(),
            CpuBase::IntKind(i) => s.int_ops[i.min(3)],
            CpuBase::BrAll => s.branch.all_branches(),
            CpuBase::BrCond => s.branch.cond_retired,
            CpuBase::BrCondTaken => s.branch.cond_taken,
            CpuBase::BrCondNtaken => s.branch.cond_not_taken,
            CpuBase::BrUncond => s.branch.uncond_retired,
            CpuBase::BrCall => s.branch.calls,
            CpuBase::BrRet => s.branch.rets,
            CpuBase::BrAllTaken => s.branch.all_taken(),
            CpuBase::MispCond => s.branch.mispredicted,
            CpuBase::MispCondTaken => s.branch.mispredicted_taken,
            CpuBase::Loads => s.loads,
            CpuBase::Stores => s.stores,
            CpuBase::L1Hit => s.memory.loads_hit_l1,
            CpuBase::L1Miss => s.memory.loads_miss_l1,
            CpuBase::L2Hit => s.memory.loads_hit_l2,
            CpuBase::L2Miss => s.memory.loads_miss_l2,
            CpuBase::L3Hit => s.memory.loads_hit_l3,
            CpuBase::L3Miss => s.memory.loads_miss_l3,
            CpuBase::L2RqstsDemandRdHit => s.memory.l2.read_hits,
            CpuBase::L2RqstsDemandRdMiss => s.memory.l2.read_misses,
            CpuBase::L2RqstsAllDemandRd => s.memory.l2.read_hits + s.memory.l2.read_misses,
            CpuBase::L2RqstsRfoHit => s.memory.l2.write_hits,
            CpuBase::L2RqstsRfoMiss => s.memory.l2.write_misses,
            CpuBase::L2RqstsAllRfo => s.memory.l2.write_hits + s.memory.l2.write_misses,
            CpuBase::DtlbLoadMisses => s.tlb.misses,
            CpuBase::DtlbLoadHits => s.tlb.hits,
            CpuBase::FpOpsAddSub => s.fp_ops_by_kind(&[FpKind::Add, FpKind::Sub]),
            CpuBase::FpOpsMul => s.fp_ops_by_kind(&[FpKind::Mul]),
            CpuBase::FpOpsDivSqrt => s.fp_ops_by_kind(&[FpKind::Div, FpKind::Sqrt]),
            CpuBase::FpOpsMac => s.fp_ops_by_kind(&[FpKind::Fma]),
            CpuBase::FpOpsAny => s.fp_ops_by_kind(&[
                FpKind::Add,
                FpKind::Sub,
                FpKind::Mul,
                FpKind::Div,
                FpKind::Sqrt,
                FpKind::Fma,
            ]),
            CpuBase::Zero => 0,
        };
        v as f64
    }
}

/// Full definition of one raw CPU event.
#[derive(Debug, Clone, Serialize, Deserialize)]
// lint: allow(dead_api): re-exported event-definition type in CpuEventSet's public surface
pub struct CpuEventDef {
    /// Catalog entry (name, description, domain).
    pub info: EventInfo,
    /// Base semantic.
    pub base: CpuBase,
    /// Multiplier applied to the base count (models events that fire at a
    /// different granularity, e.g. per-uop variants).
    pub scale: f64,
    /// Observation noise.
    pub noise: NoiseModel,
}

impl CpuEventDef {
    /// The exact count of this event for a workload that produced `stats`.
    pub fn true_count(&self, stats: &ExecStats) -> f64 {
        self.base.eval(stats) * self.scale
    }
}

/// The event inventory of the simulated CPU.
#[derive(Debug, Clone)]
pub struct CpuEventSet {
    catalog: EventCatalog,
    defs: Vec<CpuEventDef>,
}

impl CpuEventSet {
    /// Assembles an event set from a catalog and aligned definitions
    /// (used by alternative-architecture inventories such as
    /// [`crate::events_zen::zen_like`]).
    ///
    /// # Panics
    /// Panics when the catalog and definition list disagree in length.
    pub fn from_parts(catalog: EventCatalog, defs: Vec<CpuEventDef>) -> Self {
        assert_eq!(catalog.len(), defs.len(), "catalog/definition mismatch");
        Self { catalog, defs }
    }

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

    /// Event definition by id.
    pub fn def(&self, id: EventId) -> Option<&CpuEventDef> {
        self.defs.get(id.index())
    }

    /// Iterates definitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &CpuEventDef)> {
        self.defs.iter().enumerate().map(|(i, d)| (EventId(i as u32), d))
    }

    /// Looks up an id by exact name string.
    pub fn id_of(&self, name: &str) -> Option<EventId> {
        self.catalog.id_of(name)
    }

    /// True (pre-noise) count of an event for given execution stats.
    pub fn true_count(&self, id: EventId, stats: &ExecStats) -> Option<f64> {
        self.defs.get(id.index()).map(|d| d.true_count(stats))
    }
}

/// Builder used by [`sapphire_rapids_like`].
struct SetBuilder {
    catalog: EventCatalog,
    defs: Vec<CpuEventDef>,
}

impl SetBuilder {
    fn new() -> Self {
        Self { catalog: EventCatalog::new(), defs: Vec::new() }
    }

    fn add(
        &mut self,
        name: EventName,
        desc: &str,
        domain: EventDomain,
        base: CpuBase,
        scale: f64,
        noise: NoiseModel,
    ) {
        let info = EventInfo { name, description: desc.to_string(), domain };
        // lint: allow(panic, reachable_panic): the builder inserts a static, duplicate-free inventory
        self.catalog.add(info.clone()).expect("duplicate event in builder");
        self.defs.push(CpuEventDef { info, base, scale, noise });
    }

    fn finish(self) -> CpuEventSet {
        CpuEventSet { catalog: self.catalog, defs: self.defs }
    }
}

/// Builds the Sapphire-Rapids-like event inventory (~300 events).
pub fn sapphire_rapids_like() -> CpuEventSet {
    let mut b = SetBuilder::new();
    let exact = NoiseModel::None;

    // --- Floating point: the FP_ARITH_INST_RETIRED family (exact). ---
    let widths: [(&str, VecWidth); 3] = [
        ("128B_PACKED", VecWidth::V128),
        ("256B_PACKED", VecWidth::V256),
        ("512B_PACKED", VecWidth::V512),
    ];
    for (prec_name, prec) in [("SINGLE", Precision::Single), ("DOUBLE", Precision::Double)] {
        b.add(
            EventName::cpu_q("FP_ARITH_INST_RETIRED", format!("SCALAR_{prec_name}")),
            "Counts retired scalar FP arithmetic instructions (FMA counts twice)",
            EventDomain::FloatingPoint,
            CpuBase::FpArith { prec: Some(prec), width: Some(VecWidth::Scalar) },
            1.0,
            exact,
        );
        for (wname, w) in widths {
            b.add(
                EventName::cpu_q("FP_ARITH_INST_RETIRED", format!("{wname}_{prec_name}")),
                "Counts retired packed FP arithmetic instructions (FMA counts twice)",
                EventDomain::FloatingPoint,
                CpuBase::FpArith { prec: Some(prec), width: Some(w) },
                1.0,
                exact,
            );
        }
    }
    // Aggregate umasks (linear combinations of the above — QR must reject
    // them as dependent).
    b.add(
        EventName::cpu_q("FP_ARITH_INST_RETIRED", "SCALAR"),
        "All scalar FP arithmetic instructions",
        EventDomain::FloatingPoint,
        CpuBase::FpArith { prec: None, width: Some(VecWidth::Scalar) },
        1.0,
        exact,
    );
    for (wname, w) in widths {
        b.add(
            EventName::cpu_q("FP_ARITH_INST_RETIRED", format!("{wname}_ANY")),
            "All packed FP arithmetic instructions of this width",
            EventDomain::FloatingPoint,
            CpuBase::FpArith { prec: None, width: Some(w) },
            1.0,
            exact,
        );
    }
    b.add(
        EventName::cpu_q("FP_ARITH_INST_RETIRED", "ANY"),
        "All FP arithmetic instructions",
        EventDomain::FloatingPoint,
        CpuBase::FpArith { prec: None, width: None },
        1.0,
        exact,
    );
    for (pname, prec) in [("SINGLE", Precision::Single), ("DOUBLE", Precision::Double)] {
        b.add(
            EventName::cpu_q("FP_ARITH_INST_RETIRED", format!("ANY_{pname}")),
            "All FP arithmetic instructions of this precision",
            EventDomain::FloatingPoint,
            CpuBase::FpArith { prec: Some(prec), width: None },
            1.0,
            exact,
        );
    }

    // --- Retirement / cycles / uops. ---
    // Instruction counters carry a whisper of jitter (interrupt handling
    // retires extra instructions on real machines) — enough to land above
    // the paper's τ = 1e-10 and below everything else.
    b.add(
        EventName::cpu_q("INST_RETIRED", "ANY"),
        "Instructions retired",
        EventDomain::Other,
        CpuBase::Instructions,
        1.0,
        NoiseModel::Multiplicative { sigma: 1e-8 },
    );
    b.add(
        EventName::cpu_q("INST_RETIRED", "ANY_P"),
        "Instructions retired (programmable counter)",
        EventDomain::Other,
        CpuBase::Instructions,
        1.0,
        NoiseModel::Multiplicative { sigma: 2e-8 },
    );
    b.add(
        EventName::cpu_q("INST_RETIRED", "NOP"),
        "NOP instructions retired",
        EventDomain::Other,
        CpuBase::Nops,
        1.0,
        NoiseModel::Multiplicative { sigma: 1e-8 },
    );
    b.add(
        EventName::cpu_q("CPU_CLK_UNHALTED", "THREAD"),
        "Core cycles while the thread is unhalted",
        EventDomain::Cycles,
        CpuBase::Cycles,
        1.0,
        NoiseModel::Multiplicative { sigma: 2e-4 },
    );
    b.add(
        EventName::cpu_q("CPU_CLK_UNHALTED", "THREAD_P"),
        "Core cycles (programmable)",
        EventDomain::Cycles,
        CpuBase::Cycles,
        1.0,
        NoiseModel::Multiplicative { sigma: 3e-4 },
    );
    b.add(
        EventName::cpu_q("CPU_CLK_UNHALTED", "REF_TSC"),
        "Reference cycles at TSC rate",
        EventDomain::Cycles,
        CpuBase::Cycles,
        0.8,
        NoiseModel::Multiplicative { sigma: 5e-4 },
    );
    b.add(
        EventName::cpu_q("CPU_CLK_UNHALTED", "DISTRIBUTED"),
        "Cycles distributed across SMT threads",
        EventDomain::Cycles,
        CpuBase::Cycles,
        1.0,
        NoiseModel::Multiplicative { sigma: 1e-3 },
    );
    for (umask, scale, sigma) in [("ANY", 1.0, 1e-7), ("SLOTS", 1.0, 5e-7)] {
        b.add(
            EventName::cpu_q("UOPS_ISSUED", umask),
            "Micro-ops issued",
            EventDomain::Frontend,
            CpuBase::Uops,
            scale,
            NoiseModel::Multiplicative { sigma },
        );
    }
    b.add(
        EventName::cpu_q("UOPS_RETIRED", "SLOTS"),
        "Micro-ops retired",
        EventDomain::Frontend,
        CpuBase::Uops,
        1.0,
        NoiseModel::Multiplicative { sigma: 2e-7 },
    );
    b.add(
        EventName::cpu_q("UOPS_EXECUTED", "THREAD"),
        "Micro-ops executed",
        EventDomain::Frontend,
        CpuBase::Uops,
        1.02,
        NoiseModel::Multiplicative { sigma: 1e-5 },
    );

    // --- Integer ALU. ---
    b.add(
        EventName::cpu_q("INT_MISC", "ALL"),
        "Integer ALU instructions",
        EventDomain::Other,
        CpuBase::IntAll,
        1.0,
        exact,
    );
    for (i, umask) in ["ADD", "MUL", "CMP", "LOGIC"].iter().enumerate() {
        b.add(
            EventName::cpu_q("INT_ALU_RETIRED", *umask),
            "Integer ALU instructions of one class",
            EventDomain::Other,
            CpuBase::IntKind(i),
            1.0,
            exact,
        );
    }

    // --- Branches (all exact: architectural counts). ---
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "ALL_BRANCHES"),
        "All retired branch instructions",
        EventDomain::Branch,
        CpuBase::BrAll,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "COND"),
        "Retired conditional branches",
        EventDomain::Branch,
        CpuBase::BrCond,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "COND_TAKEN"),
        "Retired taken conditional branches",
        EventDomain::Branch,
        CpuBase::BrCondTaken,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "COND_NTAKEN"),
        "Retired not-taken conditional branches",
        EventDomain::Branch,
        CpuBase::BrCondNtaken,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "NEAR_CALL"),
        "Retired near calls",
        EventDomain::Branch,
        CpuBase::BrCall,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "NEAR_RETURN"),
        "Retired near returns",
        EventDomain::Branch,
        CpuBase::BrRet,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "NEAR_TAKEN"),
        "Retired taken branches",
        EventDomain::Branch,
        CpuBase::BrAllTaken,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_INST_RETIRED", "FAR_BRANCH"),
        "Retired far branches",
        EventDomain::Branch,
        CpuBase::Zero,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_MISP_RETIRED", "ALL_BRANCHES"),
        "All mispredicted retired branches",
        EventDomain::Branch,
        CpuBase::MispCond,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_MISP_RETIRED", "COND"),
        "Mispredicted conditional branches",
        EventDomain::Branch,
        CpuBase::MispCond,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_MISP_RETIRED", "COND_TAKEN"),
        "Mispredicted taken conditional branches",
        EventDomain::Branch,
        CpuBase::MispCondTaken,
        1.0,
        exact,
    );
    b.add(
        EventName::cpu_q("BR_MISP_RETIRED", "INDIRECT"),
        "Mispredicted indirect branches",
        EventDomain::Branch,
        CpuBase::Zero,
        1.0,
        exact,
    );

    // --- Memory / caches (the noisy family). ---
    b.add(
        EventName::cpu_q("MEM_INST_RETIRED", "ALL_LOADS"),
        "All retired load instructions (split loads replay and count twice)",
        EventDomain::Memory,
        CpuBase::Loads,
        1.006,
        NoiseModel::Multiplicative { sigma: 1e-6 },
    );
    b.add(
        EventName::cpu_q("MEM_INST_RETIRED", "ALL_STORES"),
        "All retired store instructions",
        EventDomain::Memory,
        CpuBase::Stores,
        1.0,
        NoiseModel::Multiplicative { sigma: 1e-6 },
    );
    b.add(
        EventName::cpu_q("MEM_INST_RETIRED", "ANY"),
        "All retired memory instructions",
        EventDomain::Memory,
        CpuBase::Loads,
        1.01,
        NoiseModel::Multiplicative { sigma: 2e-6 },
    );
    let cache_noise = |sigma: f64| NoiseModel::Multiplicative { sigma };
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L1_HIT"),
        "Retired loads that hit the L1 data cache",
        EventDomain::Memory,
        CpuBase::L1Hit,
        1.0,
        cache_noise(1.5e-3),
    );
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L1_MISS"),
        "Retired loads that missed the L1 data cache",
        EventDomain::Memory,
        CpuBase::L1Miss,
        1.0,
        cache_noise(3e-3),
    );
    // L2_HIT under-reports slightly: loads satisfied by fill-buffer
    // coalescing are not attributed to L2 (matching real-hardware caveats).
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L2_HIT"),
        "Retired loads that hit L2",
        EventDomain::Memory,
        CpuBase::L2Hit,
        0.97,
        cache_noise(5e-3),
    );
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L2_MISS"),
        "Retired loads that missed L2",
        EventDomain::Memory,
        CpuBase::L2Miss,
        1.02,
        cache_noise(6e-3),
    );
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L3_HIT"),
        "Retired loads that hit L3",
        EventDomain::Memory,
        CpuBase::L3Hit,
        1.0,
        cache_noise(8e-3),
    );
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "L3_MISS"),
        "Retired loads that missed L3",
        EventDomain::Memory,
        CpuBase::L3Miss,
        1.02,
        cache_noise(1e-2),
    );
    b.add(
        EventName::cpu_q("MEM_LOAD_RETIRED", "FB_HIT"),
        "Retired loads that hit the fill buffer",
        EventDomain::Memory,
        CpuBase::L1Miss,
        0.02,
        NoiseModel::Multiplicative { sigma: 3e-1 },
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "DEMAND_DATA_RD_HIT"),
        "L2 demand data reads that hit",
        EventDomain::Memory,
        CpuBase::L2RqstsDemandRdHit,
        1.0,
        cache_noise(3e-3),
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "DEMAND_DATA_RD_MISS"),
        "L2 demand data reads that missed",
        EventDomain::Memory,
        CpuBase::L2RqstsDemandRdMiss,
        1.015,
        cache_noise(7e-3),
    );
    // ALL_DEMAND_DATA_RD over-counts slightly (includes L1 hardware
    // prefetcher requests that piggyback on the demand path).
    b.add(
        EventName::cpu_q("L2_RQSTS", "ALL_DEMAND_DATA_RD"),
        "All L2 demand data reads",
        EventDomain::Memory,
        CpuBase::L2RqstsAllDemandRd,
        1.03,
        cache_noise(6e-3),
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "RFO_HIT"),
        "L2 RFO requests that hit",
        EventDomain::Memory,
        CpuBase::L2RqstsRfoHit,
        1.0,
        cache_noise(1e-2),
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "RFO_MISS"),
        "L2 RFO requests that missed",
        EventDomain::Memory,
        CpuBase::L2RqstsRfoMiss,
        1.0,
        cache_noise(1e-2),
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "ALL_RFO"),
        "All L2 read-for-ownership requests (stores missing L1)",
        EventDomain::Memory,
        CpuBase::L2RqstsAllRfo,
        1.0,
        cache_noise(8e-3),
    );
    b.add(
        EventName::cpu_q("L2_RQSTS", "REFERENCES"),
        "All L2 requests",
        EventDomain::Memory,
        CpuBase::L2RqstsAllDemandRd,
        1.05,
        cache_noise(2e-2),
    );
    b.add(
        EventName::cpu_q("DTLB_LOAD_MISSES", "MISS_CAUSES_A_WALK"),
        "Load DTLB misses causing a page walk",
        EventDomain::Tlb,
        CpuBase::DtlbLoadMisses,
        1.0,
        cache_noise(4e-3),
    );
    b.add(
        EventName::cpu_q("DTLB_LOAD_MISSES", "WALK_COMPLETED"),
        "Completed page walks for loads",
        EventDomain::Tlb,
        CpuBase::DtlbLoadMisses,
        1.0,
        cache_noise(5e-3),
    );
    b.add(
        EventName::cpu_q("DTLB_LOAD_MISSES", "STLB_HIT"),
        "Load translations hitting the STLB",
        EventDomain::Tlb,
        CpuBase::DtlbLoadMisses,
        0.3,
        cache_noise(8e-2),
    );

    // --- Generated families: frontend / backend activity (cycle-scaled,
    //     noisy) — correlate with work but match no expectation pattern. ---
    for (i, umask) in [
        "DSB_UOPS",
        "MITE_UOPS",
        "MS_UOPS",
        "DSB_CYCLES_ANY",
        "MITE_CYCLES_ANY",
        "MS_SWITCHES",
        "BUBBLES_CORE",
        "BUBBLES_CYCLES",
    ]
    .iter()
    .enumerate()
    {
        b.add(
            EventName::cpu_q("IDQ", *umask),
            "Instruction decode queue delivery",
            EventDomain::Frontend,
            CpuBase::Uops,
            0.2 + 0.1 * i as f64,
            NoiseModel::Multiplicative { sigma: 1e-4 * (i + 1) as f64 },
        );
    }
    for (i, umask) in [
        "STALLS_TOTAL",
        "STALLS_L1D_MISS",
        "STALLS_L2_MISS",
        "STALLS_L3_MISS",
        "STALLS_MEM_ANY",
        "CYCLES_MEM_ANY",
    ]
    .iter()
    .enumerate()
    {
        b.add(
            EventName::cpu_q("CYCLE_ACTIVITY", *umask),
            "Stall cycle accounting",
            EventDomain::Cycles,
            CpuBase::Cycles,
            0.05 + 0.05 * i as f64,
            NoiseModel::Multiplicative { sigma: 5e-3 },
        );
    }
    for (i, umask) in [
        "1_PORTS_UTIL",
        "2_PORTS_UTIL",
        "3_PORTS_UTIL",
        "4_PORTS_UTIL",
        "BOUND_ON_LOADS",
        "BOUND_ON_STORES",
    ]
    .iter()
    .enumerate()
    {
        b.add(
            EventName::cpu_q("EXE_ACTIVITY", *umask),
            "Execution port utilization",
            EventDomain::Cycles,
            CpuBase::Cycles,
            0.1 + 0.08 * i as f64,
            NoiseModel::Multiplicative { sigma: 2e-3 },
        );
    }
    for umask in ["HIT", "MISS", "IFETCH_STALL", "TAG_STALL"] {
        b.add(
            EventName::cpu_q("ICACHE", umask),
            "Instruction cache activity",
            EventDomain::Frontend,
            CpuBase::Instructions,
            0.01,
            NoiseModel::Multiplicative { sigma: 5e-2 },
        );
    }
    for (i, umask) in
        ["DRAM_BW_USE", "L3_MISS_DEMAND", "DATA_RD", "ALL_REQUESTS"].iter().enumerate()
    {
        b.add(
            EventName::cpu_q("OFFCORE_REQUESTS", *umask),
            "Offcore request traffic",
            EventDomain::Uncore,
            CpuBase::L3Miss,
            1.0 + 0.2 * i as f64,
            NoiseModel::Multiplicative { sigma: 1.3e-1 },
        );
    }
    // OFFCORE_RESPONSE matrix: request x response combinations.
    for req in ["DMND_DATA_RD", "DMND_RFO", "PF_L2_DATA_RD", "STREAMING_WR"] {
        for rsp in ["L3_HIT", "L3_MISS", "DRAM", "ANY_RESPONSE"] {
            let base = match rsp {
                "L3_HIT" => CpuBase::L3Hit,
                _ => CpuBase::L3Miss,
            };
            b.add(
                EventName::cpu_q("OFFCORE_RESPONSE", format!("{req}.{rsp}")),
                "Offcore response matrix event",
                EventDomain::Uncore,
                if req == "DMND_DATA_RD" { base } else { CpuBase::Zero },
                0.9,
                NoiseModel::Multiplicative { sigma: 1.2e-1 },
            );
        }
    }
    // Divider / assists: zero on CAT kernels.
    for (name, umask) in [
        ("ARITH", "DIV_ACTIVE"),
        ("ARITH", "FPDIV_ACTIVE"),
        ("ASSISTS", "FP"),
        ("ASSISTS", "ANY"),
        ("MISC_RETIRED", "LBR_INSERTS"),
        ("MISC_RETIRED", "PAUSE_INST"),
    ] {
        b.add(
            EventName::cpu_q(name, umask),
            "Rare-path activity",
            EventDomain::Other,
            CpuBase::Zero,
            1.0,
            exact,
        );
    }

    // Frontend retirement latency tags: tiny uops-scaled fractions.
    for (i, umask) in [
        "LATENCY_GE_1",
        "LATENCY_GE_2",
        "LATENCY_GE_4",
        "LATENCY_GE_8",
        "LATENCY_GE_16",
        "LATENCY_GE_32",
        "DSB_MISS",
        "ITLB_MISS",
    ]
    .iter()
    .enumerate()
    {
        b.add(
            EventName::cpu_q("FRONTEND_RETIRED", *umask),
            "Retirement tagged by frontend delivery latency",
            EventDomain::Frontend,
            CpuBase::Uops,
            0.01 + 0.012 * i as f64,
            NoiseModel::Multiplicative { sigma: 3e-3 },
        );
    }
    // Loop stream detector.
    for (umask, scale) in [("UOPS", 0.5), ("CYCLES_ACTIVE", 0.12), ("CYCLES_OK", 0.1)] {
        b.add(
            EventName::cpu_q("LSD", umask),
            "Loop stream detector delivery",
            EventDomain::Frontend,
            CpuBase::Uops,
            scale,
            NoiseModel::Multiplicative { sigma: 1e-4 },
        );
    }
    // Machine clears: rare background occurrences.
    for umask in ["COUNT", "MEMORY_ORDERING", "SMC", "DISAMBIGUATION"] {
        b.add(
            EventName::cpu_q("MACHINE_CLEARS", umask),
            "Pipeline machine clears",
            EventDomain::Other,
            CpuBase::Zero,
            1.0,
            NoiseModel::Additive { scale: 0.8 },
        );
    }
    // Topdown slot accounting: cycle/uop-scaled with moderate noise.
    for (i, umask) in [
        "SLOTS",
        "BACKEND_BOUND_SLOTS",
        "BAD_SPEC_SLOTS",
        "BR_MISPREDICT_SLOTS",
        "FRONTEND_BOUND_SLOTS",
        "HEAVY_OPERATIONS",
        "LIGHT_OPERATIONS",
        "RETIRING_SLOTS",
    ]
    .iter()
    .enumerate()
    {
        b.add(
            EventName::cpu_q("TOPDOWN", *umask),
            "Topdown pipeline-slot accounting",
            EventDomain::Cycles,
            CpuBase::Cycles,
            0.5 + 0.55 * i as f64,
            NoiseModel::Multiplicative { sigma: 1e-3 * (1 + i) as f64 },
        );
    }
    // L3-miss retirement attribution: local vs remote memory.
    b.add(
        EventName::cpu_q("MEM_LOAD_L3_MISS_RETIRED", "LOCAL_DRAM"),
        "Retired loads served from local DRAM",
        EventDomain::Memory,
        CpuBase::L3Miss,
        0.98,
        cache_noise(2e-2),
    );
    for umask in ["REMOTE_DRAM", "REMOTE_FWD", "REMOTE_HITM"] {
        b.add(
            EventName::cpu_q("MEM_LOAD_L3_MISS_RETIRED", umask),
            "Retired loads served from a remote socket (idle here)",
            EventDomain::Memory,
            CpuBase::Zero,
            1.0,
            NoiseModel::Additive { scale: 0.3 },
        );
    }
    // Software prefetch instructions: none in these kernels.
    for umask in ["NTA", "T0", "T1_T2", "PREFETCHW"] {
        b.add(
            EventName::cpu_q("SW_PREFETCH_ACCESS", umask),
            "Software prefetch instructions retired",
            EventDomain::Memory,
            CpuBase::Zero,
            1.0,
            exact,
        );
    }
    // Page-walker fill attribution: fractions of the walk count.
    for (umask, frac) in
        [("DTLB_L1_HIT", 0.55), ("DTLB_L2_HIT", 0.3), ("DTLB_L3_HIT", 0.1), ("DTLB_MEMORY", 0.05)]
    {
        b.add(
            EventName::cpu_q("PAGE_WALKER_LOADS", umask),
            "Page-walker accesses by supplying level",
            EventDomain::Tlb,
            CpuBase::DtlbLoadMisses,
            frac,
            cache_noise(1.5e-2),
        );
    }
    // Turbo license / core power states: cycle-correlated, noisy.
    for (i, umask) in
        ["LVL0_TURBO_LICENSE", "LVL1_TURBO_LICENSE", "LVL2_TURBO_LICENSE"].iter().enumerate()
    {
        b.add(
            EventName::cpu_q("CORE_POWER", *umask),
            "Cycles under a turbo license level",
            EventDomain::Cycles,
            CpuBase::Cycles,
            0.9 - 0.3 * i as f64,
            NoiseModel::Multiplicative { sigma: 3e-2 },
        );
    }
    // Decode-pipeline switch counts.
    for umask in ["COUNT", "PENALTY_CYCLES"] {
        b.add(
            EventName::cpu_q("DSB2MITE_SWITCHES", umask),
            "DSB-to-MITE switch activity",
            EventDomain::Frontend,
            CpuBase::Uops,
            0.003,
            NoiseModel::Multiplicative { sigma: 8e-2 },
        );
    }

    // --- Uncore: unrelated to any core workload (noisy cluster). ---
    for box_id in 0..4 {
        for (i, base_name) in [
            "UNC_CHA_CLOCKTICKS",
            "UNC_CHA_LLC_LOOKUP",
            "UNC_CHA_DIR_UPDATE",
            "UNC_CHA_SF_EVICTION",
            "UNC_CHA_TOR_INSERTS",
            "UNC_CHA_TOR_OCCUPANCY",
        ]
        .iter()
        .enumerate()
        {
            b.add(
                EventName::cpu(*base_name).with_qualifier(catalyze_events::Qualifier::with_value(
                    "unit",
                    box_id.to_string(),
                )),
                "Caching/home agent activity (uncore)",
                EventDomain::Uncore,
                CpuBase::Zero,
                1.0,
                NoiseModel::Unrelated {
                    mean: 1e6 * (1.0 + i as f64),
                    spread: 0.02 * (1 + box_id) as f64,
                },
            );
        }
    }
    for chan in 0..4 {
        for base_name in [
            "UNC_IMC_CAS_COUNT_RD",
            "UNC_IMC_CAS_COUNT_WR",
            "UNC_IMC_ACT_COUNT",
            "UNC_IMC_PRE_COUNT",
        ] {
            b.add(
                EventName::cpu(base_name).with_qualifier(catalyze_events::Qualifier::with_value(
                    "chan",
                    chan.to_string(),
                )),
                "Integrated memory controller activity (uncore)",
                EventDomain::Uncore,
                CpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 5e5 + 1e5 * chan as f64, spread: 0.05 },
            );
        }
    }
    // Mesh-to-memory and UPI link traffic: background only.
    for chan in 0..4 {
        for base_name in ["UNC_M2M_IMC_READS", "UNC_M2M_IMC_WRITES", "UNC_M2M_DIRECTORY_HIT"] {
            b.add(
                EventName::cpu(base_name).with_qualifier(catalyze_events::Qualifier::with_value(
                    "chan",
                    chan.to_string(),
                )),
                "Mesh-to-memory traffic (uncore)",
                EventDomain::Uncore,
                CpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 2e5 + 3e4 * chan as f64, spread: 0.08 },
            );
        }
    }
    for link in 0..3 {
        for base_name in ["UNC_UPI_TXL_FLITS", "UNC_UPI_RXL_FLITS", "UNC_UPI_CLOCKTICKS"] {
            b.add(
                EventName::cpu(base_name).with_qualifier(catalyze_events::Qualifier::with_value(
                    "link",
                    link.to_string(),
                )),
                "UPI cross-socket link traffic (uncore)",
                EventDomain::Uncore,
                CpuBase::Zero,
                1.0,
                NoiseModel::Unrelated { mean: 1e4 * (link + 1) as f64, spread: 0.15 },
            );
        }
    }
    // Power / thermal: pure background.
    for (name, mean, spread) in [
        ("RAPL_PKG_ENERGY", 1e4, 0.03),
        ("RAPL_DRAM_ENERGY", 4e3, 0.05),
        ("THERMAL_MARGIN", 40.0, 0.08),
        ("FREQ_THROTTLE_CYCLES", 100.0, 1.0),
        ("SMI_COUNT", 0.5, 2.0),
        ("C6_RESIDENCY", 1e3, 0.5),
    ] {
        b.add(
            EventName::cpu(name),
            "Package-level background telemetry",
            EventDomain::Software,
            CpuBase::Zero,
            1.0,
            NoiseModel::Unrelated { mean, spread },
        );
    }
    // Software / OS events: jitter that scales with nothing.
    for (name, mean, spread) in [
        ("sde:::PAGE_FAULTS", 2.0, 0.8),
        ("sde:::CONTEXT_SWITCHES", 1.0, 1.2),
        ("sde:::MIGRATIONS", 0.2, 2.0),
        ("sde:::SOFT_IRQS", 10.0, 0.6),
    ] {
        // lint: allow(panic, reachable_panic): static event-name literals parse
        let n: EventName = name.parse().expect("static name");
        b.add(
            n,
            "Software-defined OS event",
            EventDomain::Software,
            CpuBase::Zero,
            1.0,
            NoiseModel::Unrelated { mean, spread },
        );
    }
    // Additive-jitter variants of memory events: hybrid noise sources.
    for (i, umask) in
        ["LOCK_LOADS", "SPLIT_LOADS", "SPLIT_STORES", "STLB_MISS_LOADS", "STLB_MISS_STORES"]
            .iter()
            .enumerate()
    {
        b.add(
            EventName::cpu_q("MEM_INST_RETIRED", *umask),
            "Irregular memory instruction subset",
            EventDomain::Memory,
            CpuBase::Zero,
            1.0,
            NoiseModel::Additive { scale: 0.5 + i as f64 },
        );
    }

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CoreConfig, Cpu};
    use crate::isa::{FpKind, Instruction};
    use crate::program::{Block, Program};

    #[test]
    fn catalog_size_is_substantial() {
        let set = sapphire_rapids_like();
        assert!(set.len() >= 150, "got {} events", set.len());
        assert_eq!(set.catalog().len(), set.len());
        assert!(!set.is_empty());
    }

    #[test]
    fn no_dedicated_fma_event_exists() {
        let set = sapphire_rapids_like();
        for (_, def) in set.iter() {
            let name = def.info.name.to_string();
            assert!(!name.contains("FMA"), "SPR-like set must not expose an FMA event: {name}");
        }
    }

    #[test]
    fn key_events_present() {
        let set = sapphire_rapids_like();
        for name in [
            "FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
            "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE",
            "BR_INST_RETIRED:ALL_BRANCHES",
            "BR_INST_RETIRED:COND",
            "BR_INST_RETIRED:COND_TAKEN",
            "BR_MISP_RETIRED:ALL_BRANCHES",
            "MEM_LOAD_RETIRED:L1_HIT",
            "MEM_LOAD_RETIRED:L1_MISS",
            "MEM_LOAD_RETIRED:L3_HIT",
            "L2_RQSTS:DEMAND_DATA_RD_HIT",
        ] {
            assert!(set.id_of(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn fp_events_count_fma_twice() {
        let set = sapphire_rapids_like();
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let block = Block::new()
            .repeat(Instruction::fp(Precision::Double, VecWidth::V256, FpKind::Fma), 12);
        cpu.run(&Program::new().bare_loop(block, 1));
        let stats = cpu.stats();
        let id = set.id_of("FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE").unwrap();
        assert_eq!(set.true_count(id, &stats), Some(24.0));
        let any = set.id_of("FP_ARITH_INST_RETIRED:ANY").unwrap();
        assert_eq!(set.true_count(any, &stats), Some(24.0));
        let sp = set.id_of("FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE").unwrap();
        assert_eq!(set.true_count(sp, &stats), Some(0.0));
    }

    #[test]
    fn architectural_events_are_noise_free() {
        let set = sapphire_rapids_like();
        for name in ["FP_ARITH_INST_RETIRED:SCALAR_DOUBLE", "BR_INST_RETIRED:COND"] {
            let id = set.id_of(name).unwrap();
            assert!(set.def(id).unwrap().noise.is_exact(), "{name} must be exact");
        }
        for name in ["CPU_CLK_UNHALTED:THREAD", "MEM_LOAD_RETIRED:L1_HIT", "INST_RETIRED:ANY"] {
            let id = set.id_of(name).unwrap();
            assert!(!set.def(id).unwrap().noise.is_exact(), "{name} must be noisy");
        }
    }

    #[test]
    fn uncore_events_unrelated() {
        let set = sapphire_rapids_like();
        let mut found = 0;
        for (_, def) in set.iter() {
            if matches!(def.noise, NoiseModel::Unrelated { .. }) {
                found += 1;
                assert_eq!(
                    def.base.eval(&ExecStats::default()),
                    0.0,
                    "unrelated events carry Zero base"
                );
            }
        }
        assert!(found >= 30, "expect a large unrelated tail, got {found}");
    }

    #[test]
    fn eval_covers_every_base() {
        // Smoke-check that eval is total over a default stats value.
        let s = ExecStats::default();
        for base in [
            CpuBase::Instructions,
            CpuBase::Cycles,
            CpuBase::Uops,
            CpuBase::IntAll,
            CpuBase::IntKind(2),
            CpuBase::BrAll,
            CpuBase::BrCondNtaken,
            CpuBase::BrUncond,
            CpuBase::BrCall,
            CpuBase::BrRet,
            CpuBase::BrAllTaken,
            CpuBase::MispCondTaken,
            CpuBase::Loads,
            CpuBase::Stores,
            CpuBase::L1Hit,
            CpuBase::L2Miss,
            CpuBase::L3Hit,
            CpuBase::L3Miss,
            CpuBase::L2RqstsRfoHit,
            CpuBase::L2RqstsRfoMiss,
            CpuBase::DtlbLoadMisses,
            CpuBase::DtlbLoadHits,
            CpuBase::Nops,
            CpuBase::Zero,
        ] {
            assert_eq!(base.eval(&s), 0.0);
        }
    }
}
