//! The device pool: one simulated GPU per worker, each with its own clock,
//! per-graph residency, admission by allocation footprint, and LRU eviction.
//!
//! A graph becomes resident on a worker the first time a batch for it is
//! dispatched there: the topology is uploaded under the configured transfer
//! mode and a [`MultiBfsResources`] block is allocated once, then reused by
//! every subsequent batch (upload once, query many — the warm-session
//! economics of `etagraph::session`, multiplied across tenants). When a new
//! graph's footprint does not fit the device's remaining memory, the
//! least-recently-used unpinned resident graph is evicted until it does.

use etagraph::device_graph::DeviceGraph;
use etagraph::multi_bfs::{self, MultiBfsResources, MultiBfsResult};
use etagraph::{EtaConfig, QueryError};

use eta_ckpt::{Checkpoint, CkptCtl, CkptSink};
use eta_fault::FaultPlan;
use eta_graph::Csr;
use eta_mem::Ns;
use eta_sim::{Device, GpuConfig};
use std::collections::BTreeMap;

/// A graph's on-device state: topology plus reusable batch resources.
struct ResidentGraph {
    dg: DeviceGraph,
    multi: MultiBfsResources,
    /// Content digest of the uploaded topology (checkpoint epoch guard:
    /// a snapshot taken against this graph only resumes where the digest
    /// matches, so migration can never land on the wrong graph version).
    digest: u64,
    /// LRU clock value of the last dispatch that used this graph.
    last_used: u64,
    /// Dispatches currently using this graph; pinned graphs are never
    /// evicted. (Dispatch is synchronous, so this guards the in-flight
    /// graph while *its own* upload triggers eviction of others.)
    pins: u32,
}

/// One simulated device plus its scheduler-visible state.
pub struct DeviceWorker {
    pub id: usize,
    pub dev: Device,
    /// The worker is idle at any `t >= free_at`.
    pub free_at: Ns,
    /// Total simulated time spent serving batches (drives utilization).
    pub busy_ns: Ns,
    /// Topology uploads performed (cold starts + re-uploads after eviction).
    pub uploads: u32,
    /// Resident graphs evicted to make room.
    pub evictions: u32,
    /// The scheduler keeps this device out of dispatch until this time
    /// (0 = never quarantined). Set after repeated faults; the device is
    /// re-probed by ordinary dispatch once the window passes.
    pub quarantined_until: Ns,
    /// Faults since the last successful batch; quarantine triggers when
    /// this reaches the configured threshold.
    pub consecutive_faults: u32,
    /// Total device faults observed over the whole run.
    pub faults: u32,
    resident: BTreeMap<String, ResidentGraph>,
    lru_tick: u64,
}

impl DeviceWorker {
    pub fn new(id: usize, gpu: GpuConfig) -> Self {
        DeviceWorker {
            id,
            dev: Device::new(gpu),
            free_at: 0,
            busy_ns: 0,
            uploads: 0,
            evictions: 0,
            quarantined_until: 0,
            consecutive_faults: 0,
            faults: 0,
            resident: BTreeMap::new(),
            lru_tick: 0,
        }
    }

    /// Whether the scheduler may dispatch here at `now`: not busy, not
    /// quarantined.
    pub fn is_idle(&self, now: Ns) -> bool {
        self.free_at <= now && self.quarantined_until <= now
    }

    /// Installs this worker's slice of a fault plan on its device (the
    /// plan's per-device events are filtered by `self.id`). An empty plan
    /// is inert.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.dev.install_faults(plan, self.id as u32);
    }

    /// Explicit device bytes serving `csr` will pin: the topology where
    /// the transfer mode pins it ([`DeviceGraph::footprint_bytes`]) plus the
    /// reusable batch state. Unified-memory topology is host-backed and
    /// pages in against the *remaining* budget, so it does not count here —
    /// the UM driver's own LRU handles its oversubscription.
    pub fn footprint_bytes(csr: &Csr, cfg: &EtaConfig) -> u64 {
        DeviceGraph::footprint_bytes(csr, cfg.transfer)
            + MultiBfsResources::footprint_bytes(csr, cfg)
    }

    /// Makes `name` resident (uploading and evicting as needed) and returns
    /// the time its synchronous setup completes (`now` when already warm).
    pub fn ensure_resident(
        &mut self,
        name: &str,
        csr: &Csr,
        cfg: &EtaConfig,
        now: Ns,
    ) -> Result<Ns, QueryError> {
        self.lru_tick += 1;
        let tick = self.lru_tick;
        if let Some(rg) = self.resident.get_mut(name) {
            if self.dev.mem.mode(rg.dg.row_offsets.region) == cfg.transfer {
                rg.last_used = tick;
                return Ok(now);
            }
            // Mode mismatch (qos brownout re-routes best-effort batches to
            // zero-copy): the resident layout was placed under another
            // transfer mode, so drop it and fall through to a fresh upload.
            // (Unpinned by construction — dispatch pins only for the launch
            // it is about to run, and it asks for residency first.)
            // lint: allow(L-PANIC): guarded by the contains_key + mode-mismatch check just above
            let rg = self.resident.remove(name).expect("checked above");
            rg.dg.release(&mut self.dev);
            rg.multi.release(&mut self.dev);
            self.evictions += 1;
        }
        // Evict least-recently-used unpinned graphs until the newcomer's
        // explicit footprint fits. Eviction itself is free in simulated
        // time: topology pages are clean (read-only during traversal), so
        // dropping them is an unmap, and the batch state holds no results
        // between dispatches.
        let need = Self::footprint_bytes(csr, cfg);
        while self.dev.mem.free_bytes() < need && self.evict_lru() {}
        let (dg, end) = DeviceGraph::upload(&mut self.dev, csr, cfg.transfer, now)?;
        let multi = MultiBfsResources::alloc(&mut self.dev, csr, cfg)?;
        self.uploads += 1;
        self.resident.insert(
            name.to_string(),
            ResidentGraph {
                dg,
                multi,
                digest: csr.digest(),
                last_used: tick,
                pins: 0,
            },
        );
        Ok(end)
    }

    /// Evicts the least-recently-used unpinned graph; `false` when nothing
    /// is evictable. Ties break on name order (BTreeMap iteration), so the
    /// choice is deterministic.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .resident
            .iter()
            .filter(|(_, rg)| rg.pins == 0)
            .min_by_key(|(_, rg)| rg.last_used)
            .map(|(name, _)| name.clone());
        match victim {
            Some(name) => {
                let rg = self.resident.remove(&name).expect("victim exists");
                rg.dg.release(&mut self.dev);
                rg.multi.release(&mut self.dev);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    pub fn pin(&mut self, name: &str) {
        self.resident.get_mut(name).expect("resident").pins += 1;
    }

    pub fn unpin(&mut self, name: &str) {
        let rg = self.resident.get_mut(name).expect("resident");
        rg.pins = rg.pins.saturating_sub(1);
    }

    /// [`Self::run_batch_ckpt`] for callers that never checkpoint: a
    /// disabled sink, no resume.
    pub fn run_batch(
        &mut self,
        name: &str,
        sources: &[u32],
        cfg: &EtaConfig,
        start: Ns,
    ) -> Result<MultiBfsResult, QueryError> {
        self.run_batch_ckpt(name, sources, cfg, start, &mut CkptSink::default(), None)
    }

    /// Runs one batch against the resident graph `name`, starting at
    /// `start` on this device's clock. Snapshots land in `sink` at its
    /// configured interval (a disabled sink is byte-inert), and `resume`
    /// (when given) restarts the batch from a prior snapshot instead of
    /// iteration 0.
    pub fn run_batch_ckpt(
        &mut self,
        name: &str,
        sources: &[u32],
        cfg: &EtaConfig,
        start: Ns,
        sink: &mut CkptSink,
        resume: Option<&Checkpoint>,
    ) -> Result<MultiBfsResult, QueryError> {
        let rg = self.resident.get(name).expect("graph must be resident");
        let ctl = match resume {
            Some(ck) => CkptCtl::resuming(sink, ck, rg.digest),
            None => CkptCtl::with_sink(sink, rg.digest),
        };
        multi_bfs::run_on_ckpt(&mut self.dev, &rg.dg, &rg.multi, sources, cfg, start, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;

    impl DeviceWorker {
        /// Number of graphs currently resident on this device.
        fn resident_count(&self) -> usize {
            self.resident.len()
        }

        /// Whether `name` is resident on this device.
        fn is_resident(&self, name: &str) -> bool {
            self.resident.contains_key(name)
        }

        /// Content digest of the resident graph `name` (`None` when not
        /// resident).
        fn resident_digest(&self, name: &str) -> Option<u64> {
            self.resident.get(name).map(|rg| rg.digest)
        }
    }

    fn small(seed: u64) -> Csr {
        rmat(&RmatConfig::paper(10, 8_000, seed))
    }

    #[test]
    fn warm_graph_skips_the_upload() {
        let mut w = DeviceWorker::new(0, GpuConfig::default_preset());
        let g = small(1);
        let cfg = EtaConfig::paper();
        let t0 = w.ensure_resident("g", &g, &cfg, 0).unwrap();
        assert_eq!(w.uploads, 1);
        let r = w.run_batch("g", &[0, 3], &cfg, t0).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g, 0));
        assert_eq!(r.levels[1], reference::bfs(&g, 3));
        // Second ensure: no new upload, setup completes immediately.
        let t1 = w.ensure_resident("g", &g, &cfg, 123).unwrap();
        assert_eq!(t1, 123);
        assert_eq!(w.uploads, 1);
    }

    #[test]
    fn lru_eviction_makes_room_and_keeps_results_correct() {
        // Device sized to hold roughly one graph's batch state at a time.
        let g1 = small(1);
        let cfg = EtaConfig::paper();
        let one = DeviceWorker::footprint_bytes(&g1, &cfg);
        let mut w = DeviceWorker::new(0, GpuConfig::gtx1080ti_scaled(one + one / 2));
        let g2 = small(2);
        let g3 = small(3);
        w.ensure_resident("g1", &g1, &cfg, 0).unwrap();
        w.ensure_resident("g2", &g2, &cfg, 0).unwrap();
        assert!(w.evictions >= 1, "second graph must evict the first");
        w.ensure_resident("g3", &g3, &cfg, 0).unwrap();
        assert!(w.resident_count() <= 2);
        // The surviving graph still answers correctly after the churn.
        let r = w.run_batch("g3", &[7], &cfg, 0).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g3, 7));
        // And a re-ensure of an evicted graph re-uploads, still correct.
        w.ensure_resident("g1", &g1, &cfg, 0).unwrap();
        let r = w.run_batch("g1", &[5], &cfg, 0).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g1, 5));
    }

    #[test]
    fn zero_copy_footprint_shrinks_and_admits_more_tenants() {
        let g = small(1);
        let explicit = DeviceWorker::footprint_bytes(&g, &EtaConfig::without_um());
        let zc = DeviceWorker::footprint_bytes(&g, &EtaConfig::zero_copy());
        let adaptive = DeviceWorker::footprint_bytes(&g, &EtaConfig::adaptive());
        assert!(
            zc < explicit,
            "host-mapped topology must not count against device memory"
        );
        assert_eq!(zc, adaptive, "both modes pin only the batch state");
        // The saved topology bytes become admission headroom: a device with
        // `explicit + zc` capacity holds two zero-copy tenants at once,
        // while two explicit tenants must churn through eviction.
        let g2 = small(2);
        let cap = explicit + zc;
        let mut w = DeviceWorker::new(0, GpuConfig::gtx1080ti_scaled(cap));
        let cfg = EtaConfig::zero_copy();
        w.ensure_resident("g1", &g, &cfg, 0).unwrap();
        w.ensure_resident("g2", &g2, &cfg, 0).unwrap();
        assert_eq!(w.evictions, 0, "both tenants fit without churn");
        assert_eq!(w.resident_count(), 2);
        let r = w.run_batch("g1", &[0], &cfg, 0).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g, 0));

        let mut we = DeviceWorker::new(0, GpuConfig::gtx1080ti_scaled(cap));
        let cfg_e = EtaConfig::without_um();
        we.ensure_resident("g1", &g, &cfg_e, 0).unwrap();
        we.ensure_resident("g2", &g2, &cfg_e, 0).unwrap();
        assert!(we.evictions >= 1, "explicit tenants cannot coexist here");
    }

    #[test]
    fn checkpointed_batch_resumes_on_another_worker() {
        let g = small(1);
        let cfg = EtaConfig::paper();
        let sources = vec![0u32, 3, 9];
        let mut w0 = DeviceWorker::new(0, GpuConfig::default_preset());
        let t0 = w0.ensure_resident("g", &g, &cfg, 0).unwrap();
        let clean = w0.run_batch("g", &sources, &cfg, t0).unwrap();

        // Snapshot every 2 iterations on worker 0, then resume the last
        // snapshot on a different worker — the cross-device migration path.
        let mut sink = CkptSink::every(2);
        let mut w1 = DeviceWorker::new(1, GpuConfig::default_preset());
        let ta = w1.ensure_resident("g", &g, &cfg, 0).unwrap();
        w1.run_batch_ckpt("g", &sources, &cfg, ta, &mut sink, None)
            .unwrap();
        let ck = sink.take().expect("interval 2 must snapshot");
        assert!(ck.iteration >= 2);

        let mut w2 = DeviceWorker::new(2, GpuConfig::default_preset());
        let tb = w2.ensure_resident("g", &g, &cfg, 0).unwrap();
        let resumed = w2
            .run_batch_ckpt("g", &sources, &cfg, tb, &mut sink, Some(&ck))
            .unwrap();
        assert_eq!(resumed.levels, clean.levels, "migration preserves answers");
        assert_eq!(
            w2.resident_digest("g"),
            w1.resident_digest("g"),
            "same topology hashes identically on both workers"
        );
    }

    #[test]
    fn transfer_mode_switch_reuploads_the_graph() {
        // The qos brownout path re-routes best-effort batches to zero-copy:
        // a residency built under one mode must be dropped and rebuilt, not
        // silently reused with the wrong layout.
        let mut w = DeviceWorker::new(0, GpuConfig::default_preset());
        let g = small(1);
        let paper = EtaConfig::paper();
        let zc = EtaConfig::zero_copy();
        w.ensure_resident("g", &g, &paper, 0).unwrap();
        assert_eq!((w.uploads, w.evictions), (1, 0));
        // Same mode: warm, no churn.
        w.ensure_resident("g", &g, &paper, 10).unwrap();
        assert_eq!((w.uploads, w.evictions), (1, 0));
        // Brownout re-route: drop + re-upload under zero-copy.
        w.ensure_resident("g", &g, &zc, 20).unwrap();
        assert_eq!((w.uploads, w.evictions), (2, 1));
        let r = w.run_batch("g", &[0], &zc, 20).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g, 0));
        // Restore: pressure cleared, the normal mode re-uploads once more.
        w.ensure_resident("g", &g, &paper, 30).unwrap();
        assert_eq!((w.uploads, w.evictions), (3, 2));
        let r = w.run_batch("g", &[3], &paper, 30).unwrap();
        assert_eq!(r.levels[0], reference::bfs(&g, 3));
    }

    #[test]
    fn pinned_graphs_survive_eviction_pressure() {
        let g1 = small(1);
        let cfg = EtaConfig::paper();
        let one = DeviceWorker::footprint_bytes(&g1, &cfg);
        let mut w = DeviceWorker::new(0, GpuConfig::gtx1080ti_scaled(one + one / 2));
        w.ensure_resident("g1", &g1, &cfg, 0).unwrap();
        w.pin("g1");
        // g2 cannot evict the pinned g1, so its allocation fails typed.
        let g2 = small(2);
        let err = w.ensure_resident("g2", &g2, &cfg, 0);
        assert!(matches!(err, Err(QueryError::Mem(_))));
        assert!(w.is_resident("g1"));
        w.unpin("g1");
        // Unpinned, the same request now succeeds by evicting g1.
        w.ensure_resident("g2", &g2, &cfg, 0).unwrap();
        assert!(!w.is_resident("g1"));
    }
}
