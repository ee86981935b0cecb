//! Graph topology on the device, under one of the transfer policies.
//!
//! This is where the paper's data-management story lives: EtaGraph keeps the
//! CSR arrays (and weights) in Unified Memory so they migrate page by page
//! as the traversal touches them, while the baselines (and the "w/o UM"
//! ablation) must explicitly allocate and copy everything upfront —
//! potentially running out of device memory.

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
    pub mode: TransferMode,
}

impl DeviceGraph {
    /// Places `csr` on `dev` under `mode`, starting transfers at `now`.
    ///
    /// Returns the device graph and the time at which *synchronous* setup
    /// completes. Asynchronous work (UM prefetch) is scheduled but not
    /// waited for — kernels stall on page arrival instead, which is exactly
    /// the overlap the paper exploits.
    pub fn upload(
        dev: &mut Device,
        csr: &Csr,
        mode: TransferMode,
        now: Ns,
    ) -> Result<(DeviceGraph, Ns), MemError> {
        // One array at a time: allocate by mode, then fill. Explicit
        // copies chain on the link; host-backed data (unified, zero-copy)
        // starts on the host at no transfer cost — that is the whole point.
        // `cudaMemPrefetchAsync` is issued by the engine after the label
        // initialization copies, matching Procedure 1's statement order
        // (see [`DeviceGraph::prefetch`]).
        let n = csr.n() as u32;
        let m = csr.m() as u32;
        let mut end = now;
        let mut place = |data: &[u32]| -> Result<DSlice, MemError> {
            let len = data.len().max(1) as u64;
            if mode.topology_is_explicit() {
                let slice = dev.mem.alloc_explicit(len)?;
                end = dev.mem.copy_h2d(slice, 0, data, end);
                return Ok(slice);
            }
            let slice = if mode.topology_is_zero_copy() {
                dev.mem.alloc_zero_copy(len)
            } else {
                dev.mem.alloc_unified(len)
            };
            dev.mem.host_write(slice, 0, data);
            // Adaptive: the per-group policy manager observes the unified
            // allocation. Every group starts on demand paging; the driver
            // moves them via `adaptive_tick`.
            if mode == TransferMode::Adaptive {
                dev.mem.enable_adaptive(slice);
            }
            Ok(slice)
        };
        let graph = DeviceGraph {
            n,
            m,
            row_offsets: place(&csr.row_offsets)?,
            col_idx: place(&csr.col_idx)?,
            weights: csr.weights.as_deref().map(&mut place).transpose()?,
            mode,
        };
        Ok((graph, end))
    }

    /// Retires the topology from the device: explicit copies return their
    /// capacity, unified regions drop page residency back to the UM budget,
    /// zero-copy mappings never held device memory. Used by the serving
    /// layer's registry eviction.
    pub fn release(self, dev: &mut Device) {
        for s in [Some(self.row_offsets), Some(self.col_idx), self.weights]
            .into_iter()
            .flatten()
        {
            match self.mode {
                TransferMode::ExplicitCopy => dev.mem.free_explicit(s),
                TransferMode::Unified | TransferMode::UnifiedPrefetch | TransferMode::Adaptive => {
                    dev.mem.invalidate_unified(s)
                }
                TransferMode::ZeroCopy => {}
            }
        }
    }

    /// Issues `cudaMemPrefetchAsync` for the topology arrays (only in
    /// [`TransferMode::UnifiedPrefetch`]). Asynchronous: the chunks queue on
    /// the link and pages gain arrival times, but the call returns at `now`.
    pub fn prefetch(&self, dev: &mut Device, now: Ns) {
        if self.mode != TransferMode::UnifiedPrefetch {
            return;
        }
        dev.mem.prefetch(self.row_offsets, now);
        dev.mem.prefetch(self.col_idx, now);
        if let Some(ws) = self.weights {
            dev.mem.prefetch(ws, now);
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
