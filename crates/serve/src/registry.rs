//! Named graphs the service can answer queries about.
//!
//! The registry holds host-side CSRs; *device* residency is per-worker and
//! managed by [`crate::pool::DeviceWorker`] (a graph may be resident on
//! several devices at once, or none). A `BTreeMap` keeps iteration order —
//! and therefore every downstream decision — deterministic.
//!
//! Beyond whole-graph lookup, the registry also admits **partitioned
//! residency** for device-group serving: [`GraphRegistry::partition`]
//! caches the `devices`-way [`eta_shard::GraphPartition`] of a named graph,
//! and [`GraphRegistry::group_footprint_bytes`] sizes the *largest member's*
//! pinned bytes — counting each shard's halo-replica label/tag/queue rows,
//! not just its owned range, because that is what the engine allocates.
//! The cache sits behind `&self` (and a lock, so the registry stays
//! `Sync`): every service built on one registry — whatever its placement,
//! whatever its host thread — shares it and finds it warm.

use eta_graph::Csr;
use eta_shard::GraphPartition;
use etagraph::EtaConfig;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One registered graph plus its lazily built partitions, keyed by group
/// size. Replacing the graph replaces the entry, which drops them.
#[derive(Debug)]
struct Entry {
    csr: Csr,
    partitions: Mutex<BTreeMap<u32, Arc<GraphPartition>>>,
}

/// Host-side catalog of named graphs.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: BTreeMap<String, Entry>,
}

impl GraphRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a graph under `name`.
    pub fn insert(&mut self, name: &str, csr: Csr) {
        let entry = Entry {
            csr,
            partitions: Mutex::default(),
        };
        self.graphs.insert(name.to_string(), entry);
    }

    /// The `devices`-way vertex-range partition of `name`, computed on
    /// first use and cached (partitioning walks every edge). `None` when
    /// the graph is not registered.
    pub fn partition(&self, name: &str, devices: u32) -> Option<Arc<GraphPartition>> {
        let entry = self.graphs.get(name)?;
        // An insert either happened or did not, so a poisoned cache is
        // still a valid cache.
        let mut cache = entry
            .partitions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let part = cache
            .entry(devices)
            .or_insert_with(|| Arc::new(GraphPartition::vertex_range(&entry.csr, devices)));
        Some(Arc::clone(part))
    }

    /// Explicit device bytes the *largest* member of a `devices`-way group
    /// pins while serving `name`: the max over shards of the shard's full
    /// footprint. Each shard allocates labels, tags and queues over its
    /// **local** vertex space — owned range plus replicated halo rows — so
    /// admission must size that, not `owned/devices`: a cut with a large
    /// halo can make every member strictly bigger than an even split of the
    /// whole graph, and an owned-range check would over-admit exactly those
    /// partitions (the group then OOMs mid-flight instead of rejecting
    /// upfront). `None` when the graph is not registered.
    pub fn group_footprint_bytes(&self, name: &str, devices: u32, cfg: &EtaConfig) -> Option<u64> {
        let explicit = cfg.transfer.topology_is_explicit();
        self.partition(name, devices).map(|p| {
            p.shards
                .iter()
                .map(|s| s.footprint_bytes(cfg.k, explicit))
                .max()
                .unwrap_or(0)
        })
    }

    pub fn get(&self, name: &str) -> Option<&Csr> {
        self.graphs.get(name).map(|e| &e.csr)
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.graphs.keys().map(|s| s.as_str()).collect()
    }

    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};

    #[test]
    fn partitions_are_cached_and_invalidated_on_replace() {
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(9, 3_000, 1)));
        let cuts = reg.partition("g", 2).unwrap().cuts.clone();
        assert_eq!(reg.partition("g", 2).unwrap().cuts, cuts, "cache hit");
        assert!(reg.partition("missing", 2).is_none());
        // Replacing the graph drops its cached partitions.
        reg.insert("g", rmat(&RmatConfig::paper(8, 1_500, 2)));
        let fresh = reg.partition("g", 2).unwrap();
        assert_eq!(fresh.n as usize, reg.get("g").unwrap().n());
    }

    #[test]
    fn group_footprint_counts_halo_replicas() {
        use etagraph::EtaConfig;
        let mut reg = GraphRegistry::new();
        reg.insert("g", rmat(&RmatConfig::paper(10, 12_000, 3)));
        let cfg = EtaConfig::paper();
        let fp = reg.group_footprint_bytes("g", 2, &cfg).unwrap();
        let part = reg.partition("g", 2).unwrap();
        assert!(part.halo_total() > 0, "an rmat cut has cross edges");
        // The admitted size is the max *local* footprint; any shard with a
        // non-empty halo is strictly bigger than its owned range alone.
        let explicit = cfg.transfer.topology_is_explicit();
        let max_local = part
            .shards
            .iter()
            .map(|s| s.footprint_bytes(cfg.k, explicit))
            .max()
            .unwrap();
        assert_eq!(fp, max_local);
        assert!(reg.group_footprint_bytes("missing", 2, &cfg).is_none());
    }

    #[test]
    fn insert_get_and_sorted_names() {
        let mut reg = GraphRegistry::new();
        assert!(reg.is_empty());
        reg.insert("zeta", rmat(&RmatConfig::paper(8, 1_000, 1)));
        reg.insert("alpha", rmat(&RmatConfig::paper(8, 1_000, 2)));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["alpha", "zeta"]);
        assert!(reg.get("alpha").is_some());
        assert!(reg.get("missing").is_none());
    }
}
