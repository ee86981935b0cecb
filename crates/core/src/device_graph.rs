//! Graph topology on the device, under one of the transfer policies.
//!
//! This is where the paper's data-management story lives: EtaGraph keeps the
//! CSR arrays (and weights) in Unified Memory so they migrate page by page
//! as the traversal touches them, while the baselines (and the "w/o UM"
//! ablation) must explicitly allocate and copy everything upfront —
//! potentially running out of device memory.
//!
//! What a mode *does* is eta-mem's decision: each array is placed by
//! [`eta_mem::MemSystem::place`] and its region records the mode, so
//! release and prefetch just ask eta-mem to follow the placement.

use crate::config::TransferMode;
use eta_graph::Csr;
use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_sim::Device;

/// CSR topology resident (or residable) on the device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceGraph {
    pub n: u32,
    pub m: u32,
    pub row_offsets: DSlice,
    pub col_idx: DSlice,
    pub weights: Option<DSlice>,
}

impl DeviceGraph {
    /// Places `csr` on `dev` under `mode`, starting transfers at `now`.
    ///
    /// Returns the device graph and the time at which *synchronous* setup
    /// completes. Asynchronous work (UM prefetch, issued by the engine after
    /// the label copies — see [`DeviceGraph::prefetch`]) is not waited for:
    /// kernels stall on page arrival instead, which is exactly the overlap
    /// the paper exploits.
    pub fn upload(
        dev: &mut Device,
        csr: &Csr,
        mode: TransferMode,
        now: Ns,
    ) -> Result<(DeviceGraph, Ns), MemError> {
        let n = csr.n() as u32;
        let m = csr.m() as u32;
        let (row_offsets, now) = dev.mem.place(&csr.row_offsets, mode, now)?;
        let (col_idx, mut now) = dev.mem.place(&csr.col_idx, mode, now)?;
        let mut weights = None;
        if let Some(w) = &csr.weights {
            let (slice, end) = dev.mem.place(w, mode, now)?;
            (weights, now) = (Some(slice), end);
        }
        let graph = DeviceGraph {
            n,
            m,
            row_offsets,
            col_idx,
            weights,
        };
        Ok((graph, now))
    }

    /// Explicit device bytes [`DeviceGraph::upload`] pins for `csr` under
    /// `mode`: what [`eta_mem::MemSystem::place`] pins for each array.
    pub fn footprint_bytes(csr: &Csr, mode: TransferMode) -> u64 {
        [
            Some(&csr.row_offsets),
            Some(&csr.col_idx),
            csr.weights.as_ref(),
        ]
        .into_iter()
        .flatten()
        .map(|array| mode.pinned_bytes(array.len()))
        .sum()
    }

    /// The topology's device arrays: offsets, targets, then weights.
    pub(crate) fn arrays(&self) -> impl Iterator<Item = DSlice> {
        [Some(self.row_offsets), Some(self.col_idx), self.weights]
            .into_iter()
            .flatten()
    }

    /// Retires the topology from the device, each array the way it was
    /// placed (see [`eta_mem::MemSystem::release`]). Used by the serving
    /// layer's registry eviction.
    pub fn release(self, dev: &mut Device) {
        for s in self.arrays() {
            dev.mem.release(s);
        }
    }

    /// Issues `cudaMemPrefetchAsync` for the topology arrays, which streams
    /// them when they were placed under [`TransferMode::UnifiedPrefetch`]
    /// and is a no-op otherwise. Asynchronous: the chunks queue on the link
    /// and pages gain arrival times, but the call returns at `now`.
    pub fn prefetch(&self, dev: &mut Device, now: Ns) {
        for s in self.arrays() {
            dev.mem.prefetch(s, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_sim::GpuConfig;

    fn small_graph() -> Csr {
        rmat(&RmatConfig::paper(10, 8_000, 3)).with_random_weights(1, 32)
    }

    #[test]
    fn unified_upload_is_instant_and_never_oom() {
        let mut dev = Device::new(GpuConfig::gtx1080ti_scaled(1024)); // 1 KiB device!
        let g = small_graph();
        let (dg, end) = DeviceGraph::upload(&mut dev, &g, TransferMode::Unified, 0).unwrap();
        assert_eq!(end, 0, "UM upload costs nothing upfront");
        assert_eq!(dg.n as usize, g.n());
        assert!(dg.weights.is_some());
    }

    #[test]
    fn explicit_upload_charges_the_link_and_can_oom() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let g = small_graph();
        let (_, end) = DeviceGraph::upload(&mut dev, &g, TransferMode::ExplicitCopy, 0).unwrap();
        assert!(end > 0, "memcpy takes time");
        assert!(dev.mem.pcie.bytes_moved() >= g.topology_bytes());

        let mut tiny = Device::new(GpuConfig::gtx1080ti_scaled(1024));
        let err = DeviceGraph::upload(&mut tiny, &g, TransferMode::ExplicitCopy, 0);
        assert!(matches!(err, Err(MemError::Oom { .. })));
    }

    #[test]
    fn upload_pins_exactly_its_footprint() {
        for g in [
            small_graph(),
            Csr::from_edges(1, &[]),
            rmat(&RmatConfig::paper(6, 200, 1)),
        ] {
            for mode in [
                TransferMode::Unified,
                TransferMode::UnifiedPrefetch,
                TransferMode::ExplicitCopy,
                TransferMode::ZeroCopy,
                TransferMode::Adaptive,
            ] {
                let mut dev = Device::new(GpuConfig::default_preset());
                let (dg, _) = DeviceGraph::upload(&mut dev, &g, mode, 0).unwrap();
                let used = dev.mem.explicit_used_bytes();
                assert_eq!(used, DeviceGraph::footprint_bytes(&g, mode), "{mode:?}");
                assert_eq!(dev.mem.mode(dg.col_idx.region), mode);
            }
        }
    }

    #[test]
    fn prefetch_schedules_transfers() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let g = small_graph();
        let (dg, end) =
            DeviceGraph::upload(&mut dev, &g, TransferMode::UnifiedPrefetch, 0).unwrap();
        assert_eq!(end, 0, "upload itself is free under UM");
        assert_eq!(dev.mem.pcie.bytes_moved(), 0);
        dg.prefetch(&mut dev, 0);
        assert!(
            dev.mem.pcie.bytes_moved() >= g.topology_bytes() / 2,
            "prefetch streams the topology"
        );
        // Prefetch in non-prefetch mode is a no-op.
        let mut dev2 = Device::new(GpuConfig::default_preset());
        let (dg2, _) = DeviceGraph::upload(&mut dev2, &g, TransferMode::Unified, 0).unwrap();
        dg2.prefetch(&mut dev2, 0);
        assert_eq!(dev2.mem.pcie.bytes_moved(), 0);
    }

    #[test]
    fn device_values_match_host() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let g = small_graph();
        let (dg, _) = DeviceGraph::upload(&mut dev, &g, TransferMode::ExplicitCopy, 0).unwrap();
        assert_eq!(dev.mem.host_read(dg.row_offsets, 0, 5), &g.row_offsets[..5]);
        assert_eq!(dev.mem.host_read(dg.col_idx, 0, 5), &g.col_idx[..5]);
    }
}
