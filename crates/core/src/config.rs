//! EtaGraph configuration: the paper's three ablation axes.

/// The traversal algorithms the paper evaluates (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Breadth-first search: `label = hops`, relax with `min`.
    Bfs,
    /// Single-source shortest path: `label = Σ weights`, relax with `min`.
    Sssp,
    /// Single-source widest path: `label = min edge weight on path`,
    /// relax with `max`.
    Sswp,
    /// Connected components by min-label propagation: every vertex starts
    /// active with its own ID; labels converge to each component's minimum
    /// vertex ID. Propagation follows out-edges, so run it on a
    /// symmetrized graph for weakly-connected components (an extension
    /// beyond the paper's three traversal algorithms).
    Cc,
}

impl Algorithm {
    pub fn needs_weights(self) -> bool {
        matches!(self, Algorithm::Sssp | Algorithm::Sswp)
    }

    /// Whether the traversal starts from every vertex rather than a source.
    pub fn all_active(self) -> bool {
        matches!(self, Algorithm::Cc)
    }

    /// Label every vertex starts with.
    pub fn init_label(self) -> u32 {
        match self {
            Algorithm::Bfs | Algorithm::Sssp => u32::MAX,
            Algorithm::Sswp => 0,
            // CC labels start at each vertex's own ID; this value is only
            // used for "visited" accounting, which CC never leaves.
            Algorithm::Cc => u32::MAX,
        }
    }

    /// Label of the source vertex.
    pub fn source_label(self) -> u32 {
        match self {
            Algorithm::Bfs | Algorithm::Sssp => 0,
            Algorithm::Sswp => u32::MAX, // the empty path is infinitely wide
            Algorithm::Cc => 0,          // unused: CC ignores the source
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bfs => "BFS",
            Algorithm::Sssp => "SSSP",
            Algorithm::Sswp => "SSWP",
            Algorithm::Cc => "CC",
        }
    }

    /// The paper's three traversal algorithms (Table III rows).
    pub const ALL: [Algorithm; 3] = [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp];
}

/// How graph topology reaches the device (§IV-B and the Fig. 6 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Unified Memory with demand paging ("EtaGraph w/o UMP").
    Unified,
    /// Unified Memory plus `cudaMemPrefetchAsync` at start ("EtaGraph").
    UnifiedPrefetch,
    /// `cudaMalloc` + upfront `cudaMemcpy` ("w/o UM"); can go out of memory.
    ExplicitCopy,
    /// Pinned host memory mapped into the device; every access crosses the
    /// interconnect (§IV-B discusses this alternative).
    ZeroCopy,
    /// HyTGraph-style hybrid: unified allocation whose 64 KiB page groups
    /// are each served by demand paging, prefetch, or zero-copy, re-decided
    /// every iteration from observed access density (see
    /// `eta_mem::adaptive`). Labels are byte-identical to every static mode
    /// — only timing differs.
    Adaptive,
}

impl TransferMode {
    /// CLI spelling (`--transfer {demand,prefetch,zerocopy,adaptive}`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "demand" => Some(TransferMode::Unified),
            "prefetch" => Some(TransferMode::UnifiedPrefetch),
            "explicit" => Some(TransferMode::ExplicitCopy),
            "zerocopy" => Some(TransferMode::ZeroCopy),
            "adaptive" => Some(TransferMode::Adaptive),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TransferMode::Unified => "demand",
            TransferMode::UnifiedPrefetch => "prefetch",
            TransferMode::ExplicitCopy => "explicit",
            TransferMode::ZeroCopy => "zerocopy",
            TransferMode::Adaptive => "adaptive",
        }
    }

    /// Whether graph topology lives in explicit device allocations (the
    /// footprint accounting serve admission keys on). Every other mode keeps
    /// topology host-backed.
    pub fn topology_is_explicit(self) -> bool {
        matches!(self, TransferMode::ExplicitCopy)
    }

    /// Whether kernels read topology from pinned host memory over the
    /// interconnect, so it never occupies device memory at all.
    pub fn topology_is_zero_copy(self) -> bool {
        matches!(self, TransferMode::ZeroCopy)
    }
}

/// Where the Unified Degree Cut transformation runs (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdcMode {
    /// The paper's choice: shadow tuples are generated **on the GPU** each
    /// iteration, directly from the raw CSR offsets. No extra memory, no
    /// preprocessing, nothing extra to transfer.
    InCore,
    /// The alternative §III-A describes and rejects: materialize every
    /// vertex's shadow tuples in main memory upfront and ship them to the
    /// device — saving the on-the-fly division at the price of `3|N| + |V|`
    /// extra words of memory and transfer.
    OutOfCore,
}

/// Full EtaGraph configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtaConfig {
    /// The Unified Degree Cut limit `K` (shadow vertices have degree ≤ K).
    pub k: u32,
    /// Shared Memory Prefetch on/off (the "w/o SMP" ablation).
    pub smp: bool,
    pub transfer: TransferMode,
    /// In-core (on-the-fly) vs out-of-core (pre-materialized) UDC.
    pub udc: UdcMode,
    /// Direction-optimizing BFS: switch to pull-based iterations when the
    /// frontier covers a large share of the graph (Beamer et al.; listed by
    /// the paper as specialized related work, implemented here as an
    /// extension). Only affects [`Algorithm::Bfs`].
    pub direction_optimizing: bool,
    /// Threads per block for all kernels.
    pub threads_per_block: u32,
}

impl Default for EtaConfig {
    fn default() -> Self {
        EtaConfig {
            k: 16,
            smp: true,
            transfer: TransferMode::UnifiedPrefetch,
            udc: UdcMode::InCore,
            direction_optimizing: false,
            threads_per_block: 256,
        }
    }
}

impl EtaConfig {
    /// The paper's headline configuration ("EtaGraph").
    pub fn paper() -> Self {
        Self::default()
    }

    /// "EtaGraph w/o UMP": demand paging instead of prefetch.
    pub fn without_ump() -> Self {
        EtaConfig {
            transfer: TransferMode::Unified,
            ..Self::default()
        }
    }

    /// "w/o SMP" ablation of Fig. 6.
    pub fn without_smp() -> Self {
        EtaConfig {
            smp: false,
            ..Self::default()
        }
    }

    /// "w/o UM" ablation of Fig. 6 (plain device allocation + memcpy).
    pub fn without_um() -> Self {
        EtaConfig {
            transfer: TransferMode::ExplicitCopy,
            ..Self::default()
        }
    }

    /// The out-of-core UDC alternative §III-A rejects.
    pub fn out_of_core() -> Self {
        EtaConfig {
            udc: UdcMode::OutOfCore,
            ..Self::default()
        }
    }

    /// Direction-optimizing BFS extension enabled.
    pub fn direction_optimizing() -> Self {
        EtaConfig {
            direction_optimizing: true,
            ..Self::default()
        }
    }

    /// Zero-copy transfer backend (EMOGI-style direct host access).
    pub fn zero_copy() -> Self {
        EtaConfig {
            transfer: TransferMode::ZeroCopy,
            ..Self::default()
        }
    }

    /// Adaptive per-region transfer policy (HyTGraph-style).
    pub fn adaptive() -> Self {
        EtaConfig {
            transfer: TransferMode::Adaptive,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_label_conventions() {
        assert_eq!(Algorithm::Bfs.init_label(), u32::MAX);
        assert_eq!(Algorithm::Bfs.source_label(), 0);
        assert_eq!(Algorithm::Sswp.init_label(), 0);
        assert_eq!(Algorithm::Sswp.source_label(), u32::MAX);
        assert!(!Algorithm::Bfs.needs_weights());
        assert!(Algorithm::Sssp.needs_weights());
        assert!(Algorithm::Sswp.needs_weights());
    }

    #[test]
    fn config_variants() {
        assert_eq!(EtaConfig::paper().transfer, TransferMode::UnifiedPrefetch);
        assert_eq!(EtaConfig::without_ump().transfer, TransferMode::Unified);
        assert!(!EtaConfig::without_smp().smp);
        assert_eq!(EtaConfig::without_um().transfer, TransferMode::ExplicitCopy);
        assert_eq!(EtaConfig::adaptive().transfer, TransferMode::Adaptive);
        assert_eq!(EtaConfig::zero_copy().transfer, TransferMode::ZeroCopy);
        assert_eq!(EtaConfig::default().k, 16);
    }

    #[test]
    fn transfer_mode_parse_roundtrip() {
        for m in [
            TransferMode::Unified,
            TransferMode::UnifiedPrefetch,
            TransferMode::ExplicitCopy,
            TransferMode::ZeroCopy,
            TransferMode::Adaptive,
        ] {
            assert_eq!(TransferMode::parse(m.as_str()), Some(m));
            assert_eq!(m.topology_is_explicit(), m == TransferMode::ExplicitCopy);
        }
        assert_eq!(TransferMode::parse("um"), None);
        assert_eq!(TransferMode::parse(""), None);
    }
}
