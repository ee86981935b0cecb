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

    /// The label an edge of weight `weight` offers its destination from a
    /// source labelled `label`: BFS counts hops, SSSP sums weights, SSWP
    /// keeps the bottleneck, CC propagates the label itself. The one relax
    /// rule every execution model applies.
    #[inline]
    pub fn relax(self, label: u32, weight: u32) -> u32 {
        match self {
            Algorithm::Bfs => label.saturating_add(1),
            Algorithm::Sssp => label.saturating_add(weight),
            Algorithm::Sswp => label.min(weight),
            Algorithm::Cc => label,
        }
    }

    /// Whether label `new` beats `old` under the merge order: larger for
    /// SSWP, smaller otherwise.
    #[inline]
    pub fn improves(self, new: u32, old: u32) -> bool {
        if self == Algorithm::Sswp {
            new > old
        } else {
            new < old
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
/// Defined in eta-mem, which is the one place that decides what a mode
/// does: every region records the mode it was placed under (see
/// [`eta_mem::system`]).
pub use eta_mem::TransferMode;

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

/// Threads per block of every launch on a [`crate::driver::Lane`]: every
/// kernel here and in the baseline models, the shape the paper's
/// comparison launches.
pub const THREADS_PER_BLOCK: u32 = 256;

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
}

impl Default for EtaConfig {
    fn default() -> Self {
        EtaConfig {
            k: 16,
            smp: true,
            transfer: TransferMode::UnifiedPrefetch,
            udc: UdcMode::InCore,
            direction_optimizing: false,
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
    fn relax_rule_and_merge_order() {
        assert_eq!(Algorithm::Bfs.relax(3, 9), 4);
        assert_eq!(Algorithm::Sssp.relax(3, 9), 12);
        assert_eq!(Algorithm::Sssp.relax(u32::MAX - 1, 9), u32::MAX);
        assert_eq!(Algorithm::Sswp.relax(3, 9), 3);
        assert_eq!(Algorithm::Sswp.relax(u32::MAX, 9), 9);
        assert_eq!(Algorithm::Cc.relax(3, 9), 3);
        for alg in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Cc] {
            assert!(alg.improves(1, 2) && !alg.improves(2, 2) && !alg.improves(3, 2));
        }
        assert!(Algorithm::Sswp.improves(3, 2) && !Algorithm::Sswp.improves(2, 2));
        // An offer from a source's label never loses to the initial label.
        for alg in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp] {
            assert!(alg.improves(alg.relax(alg.source_label(), 5), alg.init_label()));
        }
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
}
