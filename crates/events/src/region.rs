//! The cache level a benchmark point's working set lands in: the
//! structural input the load- and store-cache benchmarks hand to their
//! expectation bases.

use serde::{Deserialize, Serialize};

/// The cache region a pointer-chase or store-sweep point's working set
/// lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheRegion {
    /// Fits in the L1 data cache.
    L1,
    /// Fits in L2 (but not L1).
    L2,
    /// Fits in L3 (but not L2).
    L3,
    /// Exceeds L3: served from memory.
    Memory,
}

impl CacheRegion {
    /// Short label used on figure axes.
    pub fn label(self) -> &'static str {
        match self {
            CacheRegion::L1 => "L1",
            CacheRegion::L2 => "L2",
            CacheRegion::L3 => "L3",
            CacheRegion::Memory => "M",
        }
    }
}
