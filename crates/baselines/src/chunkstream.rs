//! GTS-like chunk-streaming framework.
//!
//! §I of the paper criticizes the stream-processing systems (GTS, Graphie)
//! that overlap transfer and compute by shipping **fixed-size topology
//! chunks** through CUDA streams: "They both use fixed-sized data chunks
//! (partitions) to stream. This could cause waste of work if there is only
//! a small part of data actually used in one chunk." This framework
//! implements that design so the claim can be measured against EtaGraph's
//! page-granular, demand-driven overlap:
//!
//! * Attribute (label) data stays resident on the device; topology lives on
//!   the host and is **re-streamed every iteration** in fixed chunks of
//!   `chunk_edges` edges, double-buffered so chunk `i+1` transfers while
//!   chunk `i` computes (the GTS "streaming topology" execution model).
//! * Each streamed chunk is processed edge-centrically: every edge in the
//!   chunk is relaxed whether or not its source is active — the wasted work
//!   the paper points at. Iterations repeat until a device-side change flag
//!   stays clear.
//!
//! The device footprint is small (two chunk buffers + labels), so this
//! framework never goes O.O.M — its weakness is transfer volume, not
//! capacity, which is exactly how the paper positions GTS.

use crate::framework::{check_supported, init_labels, Framework, FrameworkError};
use eta_graph::Csr;
use eta_mem::system::DSlice;
use eta_sim::{Device, Kernel, WarpCtx, WARP_SIZE};
use etagraph::driver::Group;
use etagraph::result::{IterationStats, RunResult};
use etagraph::Algorithm;

/// Default chunk size: 512 K edges per streamed partition (GTS streams
/// multi-MB partitions; scaled alongside the datasets).
pub const DEFAULT_CHUNK_EDGES: u32 = 512 * 1024;

pub struct ChunkStream {
    pub chunk_edges: u32,
    pub threads_per_block: u32,
}

impl Default for ChunkStream {
    fn default() -> Self {
        ChunkStream {
            chunk_edges: DEFAULT_CHUNK_EDGES,
            threads_per_block: 256,
        }
    }
}

/// Relaxes every edge of the resident chunk (edge-centric, no frontier).
struct ChunkRelaxKernel {
    alg: Algorithm,
    src: DSlice,
    dst: DSlice,
    weights: Option<DSlice>,
    labels: DSlice,
    flag: DSlice,
    len: u32,
}

impl Kernel for ChunkRelaxKernel {
    fn name(&self) -> &'static str {
        "chunkstream_relax"
    }

    fn run(&self, w: &mut WarpCtx<'_>) {
        let tids = w.thread_ids();
        let mask = w.mask_for_items(self.len);
        if mask == 0 {
            return;
        }
        let s = w.load(self.src, &tids, mask);
        let d = w.load(self.dst, &tids, mask);
        let wt = match self.weights {
            Some(ws) => w.load(ws, &tids, mask),
            None => [1; WARP_SIZE],
        };
        let sl = w.load(self.labels, &s, mask);
        w.alu(1);
        let unvisited = match self.alg {
            Algorithm::Bfs | Algorithm::Sssp => u32::MAX,
            Algorithm::Sswp => 0,
            Algorithm::Cc => unreachable!("rejected at entry"),
        };
        let mut new = [0u32; WARP_SIZE];
        let mut active = 0u32;
        for lane in 0..WARP_SIZE {
            if (mask >> lane) & 1 == 1 && sl[lane] != unvisited {
                new[lane] = match self.alg {
                    Algorithm::Bfs => sl[lane].saturating_add(1),
                    Algorithm::Sssp => sl[lane].saturating_add(wt[lane]),
                    Algorithm::Sswp => sl[lane].min(wt[lane]),
                    Algorithm::Cc => unreachable!("rejected at entry"),
                };
                active |= 1 << lane;
            }
        }
        if active == 0 {
            return;
        }
        let old = if self.alg == Algorithm::Sswp {
            w.atomic_max(self.labels, &d, &new, active)
        } else {
            w.atomic_min(self.labels, &d, &new, active)
        };
        let mut improved = 0u32;
        for lane in 0..WARP_SIZE {
            if (active >> lane) & 1 == 1 {
                let better = if self.alg == Algorithm::Sswp {
                    new[lane] > old[lane]
                } else {
                    new[lane] < old[lane]
                };
                if better {
                    improved |= 1 << lane;
                }
            }
        }
        if improved != 0 {
            w.atomic_add(self.flag, &[0; WARP_SIZE], &[1; WARP_SIZE], improved);
        }
    }
}

impl Framework for ChunkStream {
    fn name(&self) -> &'static str {
        "ChunkStream"
    }

    fn run(
        &self,
        dev: &mut Device,
        csr: &Csr,
        source: u32,
        alg: Algorithm,
    ) -> Result<RunResult, FrameworkError> {
        check_supported(csr, alg)?;
        let n = csr.n() as u32;
        let m = csr.m() as u32;
        let chunk = self.chunk_edges.min(m.max(1));
        let n_chunks = m.div_ceil(chunk.max(1)).max(1);

        // Host-side edge list in chunk order (GTS's partitioned topology).
        let mut src_h = Vec::with_capacity(csr.m());
        let mut dst_h = Vec::with_capacity(csr.m());
        for v in 0..n {
            for &t in csr.neighbors(v) {
                src_h.push(v);
                dst_h.push(t);
            }
        }
        let w_h = csr.weights.clone().unwrap_or_default();

        // Device: double-buffered chunk slots + labels + flag.
        let weighted = alg.needs_weights();
        let mut chunk_slot = || -> Result<[DSlice; 3], FrameworkError> {
            Ok([
                dev.mem.alloc_explicit(chunk as u64)?,
                dev.mem.alloc_explicit(chunk as u64)?,
                dev.mem
                    .alloc_explicit(if weighted { chunk as u64 } else { 1 })?,
            ])
        };
        let slots = [chunk_slot()?, chunk_slot()?];
        let labels = dev.mem.alloc_explicit(n as u64)?;
        let flag = dev.mem.alloc_explicit(1)?;

        let mut group = Group::solo(dev, 0, self.threads_per_block);
        let lane = &mut group.lane(0);
        lane.h2d(labels, &init_labels(n, source, alg));

        let mut iter = 0u32;
        let mut per_iteration = Vec::new();
        loop {
            iter += 1;
            let start_ns = lane.now();
            lane.h2d(flag, &[0]);

            // Stream every chunk through the double buffers: chunk c's copy
            // is issued while chunk c-1 computes, and the buffer is reused
            // only after the kernel two chunks back released it. The copy of
            // the *whole* chunk happens regardless of how many of its edges
            // matter — the fixed-granularity waste the paper calls out.
            //
            // Two stream clocks: the lane's is the compute stream; copies
            // are issued on the copy stream at `buf_ready[slot]`, off the
            // lane, and the launch waits for whichever is later.
            let mut buf_ready = [lane.now(); 2];
            for c in 0..n_chunks {
                let lo = (c * chunk) as usize;
                let hi = ((c + 1) * chunk).min(m) as usize;
                let len = (hi - lo) as u32;
                if len == 0 {
                    continue;
                }
                let slot = (c % 2) as usize;
                let bufs = &slots[slot];
                let mem = &mut lane.dev.mem;
                let mut xfer_end = mem.copy_h2d(bufs[0], 0, &src_h[lo..hi], buf_ready[slot]);
                xfer_end = mem.copy_h2d(bufs[1], 0, &dst_h[lo..hi], xfer_end);
                if weighted {
                    xfer_end = mem.copy_h2d(bufs[2], 0, &w_h[lo..hi], xfer_end);
                }
                let kern = ChunkRelaxKernel {
                    alg,
                    src: bufs[0].slice(0, len as u64),
                    dst: bufs[1].slice(0, len as u64),
                    weights: weighted.then(|| bufs[2].slice(0, len as u64)),
                    labels,
                    flag,
                    len,
                };
                lane.timed(|_, now| ((), now.max(xfer_end)));
                lane.launch(&kern, len)?;
                buf_ready[slot] = lane.now();
            }

            let changed = lane.readback(flag, 1)?[0];

            let visited_total = lane.visited_scan(labels, alg.init_label());
            per_iteration.push(IterationStats {
                iteration: iter,
                active: visited_total as u32,
                shadow_full: 0,
                shadow_partial: 0,
                pulled: false,
                visited_total,
                start_ns,
                end_ns: lane.now(),
            });
            if changed == 0 || m == 0 {
                break;
            }
        }

        let labels = lane.readback(labels, n as u64)?.to_vec();
        Ok(group.solo_result(alg, labels, iter, per_iteration, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::EtaFramework;
    use eta_graph::generate::{rmat, RmatConfig};
    use eta_graph::reference;
    use eta_mem::timeline::SpanKind;
    use eta_sim::GpuConfig;

    fn graph() -> Csr {
        rmat(&RmatConfig::paper(11, 25_000, 91)).with_random_weights(5, 32)
    }

    fn small_chunks() -> ChunkStream {
        ChunkStream {
            chunk_edges: 4096,
            threads_per_block: 256,
        }
    }

    #[test]
    fn chunkstream_bfs_matches_reference() {
        let g = graph();
        let r = small_chunks()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
    }

    #[test]
    fn chunkstream_sssp_and_sswp_match_reference() {
        let g = graph();
        let sssp = small_chunks()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Sssp,
            )
            .unwrap();
        assert_eq!(sssp.labels, reference::sssp(&g, 0));
        let sswp = small_chunks()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Sswp,
            )
            .unwrap();
        assert_eq!(sswp.labels, reference::sswp(&g, 0));
    }

    #[test]
    fn chunkstream_survives_tiny_devices() {
        // The streaming design's one strength: a device barely larger than
        // two chunk buffers suffices.
        let g = graph();
        let fw = small_chunks();
        let gpu = GpuConfig::gtx1080ti_scaled(400 * 1024);
        let r = fw
            .run(&mut Device::new(gpu), &g, 0, Algorithm::Bfs)
            .unwrap();
        assert_eq!(r.labels, reference::bfs(&g, 0));
    }

    #[test]
    fn chunkstream_restreams_topology_every_iteration() {
        let g = graph();
        let r = small_chunks()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        let h2d: u64 = r
            .timeline
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::CopyH2D))
            .map(|s| s.bytes)
            .sum();
        let one_pass = 2 * g.m() as u64 * 4;
        assert!(
            h2d > one_pass * (r.iterations as u64 - 1),
            "fixed chunks must re-stream per iteration: {h2d} bytes over {} iterations",
            r.iterations
        );
    }

    #[test]
    fn etagraph_beats_chunkstream_at_scale() {
        // The paper's §I claim, measured: demand-driven fine-grained overlap
        // beats fixed-chunk re-streaming once re-streaming the topology
        // every iteration costs more than the per-iteration frontier
        // bookkeeping (on tiny graphs the streaming design actually wins —
        // its per-iteration fixed costs are lower).
        let g = rmat(&RmatConfig::paper(15, 1_200_000, 91));
        let eta = EtaFramework::paper()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        let chunks = ChunkStream::default()
            .run(
                &mut Device::new(GpuConfig::default_preset()),
                &g,
                0,
                Algorithm::Bfs,
            )
            .unwrap();
        assert_eq!(eta.labels, chunks.labels);
        assert!(
            eta.total_ns * 2 < chunks.total_ns,
            "EtaGraph {} vs ChunkStream {}",
            eta.total_ns,
            chunks.total_ns
        );
    }
}
