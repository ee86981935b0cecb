//! The simulated device: SMs, caches, scheduler and the kernel timing model.
//!
//! # Timing model
//!
//! Thread blocks are assigned round-robin to SMs; each warp runs to
//! completion through [`crate::warp::WarpCtx`], accumulating warp
//! instructions and raw memory-stall cycles. Per SM:
//!
//! ```text
//! sm_cycles = instructions + stall / hiding
//! hiding    = min(resident_warps, hiding_cap)
//! ```
//!
//! — multithreading hides memory latency proportionally to how many warps
//! the SM can switch between (bounded, because MSHRs and the memory pipeline
//! saturate). The kernel's duration is the slowest SM, floored by the DRAM
//! bandwidth bound `dram_bytes / bytes_per_cycle`:
//!
//! ```text
//! kernel_cycles = max(max_sm(sm_cycles), dram_bytes / bw_per_cycle)
//! ```
//!
//! Load imbalance (the paper's motivation for Unified Degree Cut) therefore
//! shows up directly: a warp stuck on a million-edge vertex inflates its
//! SM's cycle count and the whole kernel waits for it.
//!
//! # Occupancy
//!
//! Resident warps per SM — which set both the latency-hiding factor and the
//! cache-interleave pressure — are limited by the hardware warp limit, by
//! the grid size, and by per-block shared-memory usage. A kernel that asks
//! for more shared memory per block (large SMP degree limit `K`) reduces its
//! own occupancy, a real trade-off the `K`-sweep ablation measures.

use crate::config::{ConfigError, GpuConfig};
use crate::kernel::{Kernel, LaunchConfig};
use crate::metrics::KernelMetrics;
use crate::sanitizer::{Sanitizer, SanitizerReport};
use crate::warp::{Lanes, WarpCtx, WarpId};
use eta_fault::{DeviceFault, FaultKind, FaultPlan};
use eta_mem::access::{L1DrainParams, PipeOp, SmQueue};
use eta_mem::cache::Cache;
use eta_mem::pcie::PcieLink;
use eta_mem::system::MemSystem;
use eta_mem::timeline::{Span, SpanKind, Timeline};
use eta_mem::Ns;
use eta_prof::{ArgValue, Profile, Track};

/// The simulated GPU.
pub struct Device {
    pub cfg: GpuConfig,
    pub mem: MemSystem,
    sms: Vec<Sm>,
    l2: Cache,
    /// Compute spans recorded by launches (transfer spans live on the link).
    pub compute_timeline: Timeline,
    /// Attached when `cfg.sanitizer` enables any analysis.
    sanitizer: Option<Sanitizer>,
    /// Canonical record order: the SM index of every recorded access, in
    /// block-major execution order. The serial residency and L2 stages walk
    /// this to evolve shared state in one order at any host thread count.
    order: Vec<u32>,
    /// SMs the last launch ran blocks on: `sms[..used_sms]`. Blocks are
    /// dealt round-robin from SM 0, so every other SM recorded nothing and
    /// no launch stage visits it.
    used_sms: usize,
    /// One block's shared memory, zeroed at every block start.
    shared: Vec<u32>,
    /// Row arena of the running warp's [`crate::warp::Burst`]s.
    burst_rows: Vec<Lanes>,
}

/// One SM: its private L1, its record/replay arena for the staged launch
/// pipeline, and the launch's per-SM accumulators and replay cursors. All
/// of it is reused across launches, so a launch allocates nothing once
/// warm.
struct Sm {
    l1: Cache,
    queue: SmQueue,
    instr: u64,
    stall: u64,
    /// Next of `queue.recs` / `queue.l2q` in a serial stage's walk of the
    /// canonical order.
    next_rec: usize,
    next_l2: usize,
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchResult {
    /// When kernel compute finishes, given a `start` and the timing model.
    pub end_ns: Ns,
    pub metrics: KernelMetrics,
}

impl Device {
    /// Builds a device, panicking on a degenerate configuration. Use
    /// [`Device::try_new`] to handle [`ConfigError`] instead.
    pub fn new(cfg: GpuConfig) -> Self {
        // lint: allow(L-PANIC): infallible-constructor convenience for known-good presets; the fallible path is try_new
        Self::try_new(cfg).expect("invalid GpuConfig")
    }

    /// Builds a device after [`GpuConfig::validate`], so degenerate fields
    /// (`num_sms = 0`, zero cache ways, …) surface as typed errors rather
    /// than div-by-zero panics mid-launch.
    pub fn try_new(cfg: GpuConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let pcie = PcieLink::new(cfg.pcie_bandwidth_gb_s, cfg.pcie_latency_ns);
        let mut mem = MemSystem::new(cfg.device_mem_bytes, pcie);
        let sanitizer = if cfg.sanitizer.enabled() {
            if cfg.sanitizer.memcheck() {
                mem.enable_init_tracking();
            }
            Some(Sanitizer::new(cfg.sanitizer))
        } else {
            None
        };
        mem.prof.set_enabled(cfg.profiling);
        Ok(Device {
            cfg,
            mem,
            sms: (0..cfg.num_sms)
                .map(|_| Sm {
                    l1: Cache::new(cfg.l1),
                    queue: SmQueue::default(),
                    instr: 0,
                    stall: 0,
                    next_rec: 0,
                    next_l2: 0,
                })
                .collect(),
            l2: Cache::new(cfg.l2),
            compute_timeline: Timeline::new(),
            sanitizer,
            order: Vec::new(),
            used_sms: 0,
            shared: Vec::new(),
            burst_rows: Vec::new(),
        })
    }

    /// What SM `sm` recorded and replayed in the last launch (empty for an
    /// SM that launch ran no block on).
    pub fn sm_queue(&self, sm: usize) -> &SmQueue {
        &self.sms[sm].queue
    }

    /// The sanitizer's findings so far; `None` when no sanitizer is attached.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Installs a fault plan for this device (identified as `device` in the
    /// plan's entries). Injection happens inside [`Device::launch`] and the
    /// memory system's demand-migration path; detected failures are
    /// collected with [`Device::take_fault`]. Installing an empty plan is a
    /// timing no-op.
    pub fn install_faults(&mut self, plan: &FaultPlan, device: u32) {
        self.mem.install_faults(plan, device);
    }

    /// Collects the earliest detected (and not yet collected) device fault.
    /// Callers running kernels poll this after each launch; a `Some` means
    /// the query on this device is dead and must be retried or degraded
    /// (see eta-serve's recovery ladder).
    pub fn take_fault(&mut self) -> Option<DeviceFault> {
        self.mem.faults.take_pending()
    }

    /// Full transfer+compute timeline (PCIe spans + compute spans).
    pub fn merged_timeline(&self) -> Timeline {
        let mut t = Timeline::new();
        for s in self.mem.pcie.timeline.spans() {
            t.push(*s);
        }
        for s in self.compute_timeline.spans() {
            t.push(*s);
        }
        t
    }

    /// Resident warps per SM for a launch, honoring warp and shared-memory
    /// limits.
    pub fn occupancy(&self, launch: &LaunchConfig, shared_words_per_block: u64) -> u64 {
        let warps_per_block = (launch.threads_per_block as u64).div_ceil(32).max(1);
        let max_blocks_by_warps = self.cfg.max_resident_warps as u64 / warps_per_block;
        let shared_bytes = shared_words_per_block * 4;
        let max_blocks_by_shared = self
            .cfg
            .shared_mem_per_sm
            .checked_div(shared_bytes)
            .unwrap_or(u64::MAX);
        let total_warps = launch.blocks as u64 * warps_per_block;
        let warps_if_unlimited = total_warps.div_ceil(self.cfg.num_sms as u64);
        (max_blocks_by_warps.min(max_blocks_by_shared) * warps_per_block)
            .min(warps_if_unlimited)
            .max(1)
    }

    /// Runs `kernel` over the launch grid starting at time `start_ns`.
    ///
    /// The kernel executes functionally (real data is read and written) while
    /// the memory hierarchy records costs; the result carries the modelled
    /// end time and the per-launch metric deltas.
    pub fn launch<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        launch: LaunchConfig,
        start_ns: Ns,
    ) -> LaunchResult {
        let mut metrics = KernelMetrics::default();
        if launch.blocks == 0 || launch.threads_per_block == 0 {
            return LaunchResult {
                end_ns: start_ns,
                metrics,
            };
        }

        let shared_words = kernel.shared_words_per_block(launch.threads_per_block);
        assert!(
            shared_words * 4 <= self.cfg.shared_mem_per_sm,
            "kernel '{}' requests {} B of shared memory per block; the SM has {} B \
             (CUDA would fail this launch)",
            kernel.name(),
            shared_words * 4,
            self.cfg.shared_mem_per_sm
        );
        let occupancy = self.occupancy(&launch, shared_words);
        // L2 interleaving pressure: between two instructions of one warp,
        // roughly one instruction per *SM* reaches the shared L2 (the other
        // co-resident warps' traffic is already serialized through the same
        // L2 instance by this simulator). Bounded by the grid's actual size.
        let total_warps = launch.blocks as u64 * (launch.threads_per_block as u64).div_ceil(32);
        let l2_interleave = (self.cfg.num_sms as u64).min(total_warps).max(1);
        let warps_per_block = (launch.threads_per_block as u64).div_ceil(32) as u32;

        // The previous launch's records go; this launch's SMs start cold in
        // L1 (invalidated per launch, as on hardware where L1 is not
        // coherent across kernels — O(1) each, see `Cache::flush`). An SM
        // this launch leaves idle keeps its stale L1 until the launch that
        // next uses it invalidates it here. L2 persists.
        for sm in &mut self.sms[..self.used_sms] {
            sm.queue.clear();
        }
        self.order.clear();
        let used = (launch.blocks as usize).min(self.cfg.num_sms);
        self.used_sms = used;
        for sm in &mut self.sms[..used] {
            sm.l1.flush();
            (sm.instr, sm.stall, sm.next_rec, sm.next_l2) = (0, 0, 0, 0);
        }
        self.shared.resize(shared_words as usize, 0);

        if let Some(san) = self.sanitizer.as_mut() {
            san.begin_launch(kernel.name());
        }
        let zc_mark = self.mem.zero_copy_bytes;

        // ---- Stage 1: record (serial, canonical block-major order) ------
        // Warps execute functionally — real loads, stores, atomics, all
        // sanitizer hooks — in canonical order, recording their global
        // accesses into per-SM queues; the cache/residency effects are
        // replayed below.
        for block in 0..launch.blocks {
            let smi = (block as usize) % self.cfg.num_sms;
            let sm = &mut self.sms[smi];
            self.shared.fill(0);
            for warp in 0..warps_per_block {
                let mut ctx = WarpCtx::new_recording(
                    &self.cfg,
                    &mut self.mem,
                    smi as u32,
                    &mut sm.queue,
                    &mut self.order,
                    &mut self.shared,
                    &mut self.burst_rows,
                    WarpId {
                        block,
                        warp_in_block: warp,
                        threads_per_block: launch.threads_per_block,
                        grid_blocks: launch.blocks,
                    },
                    self.sanitizer.as_mut(),
                );
                kernel.run(&mut ctx);
                let (instr, stall) = ctx.finish(&mut metrics);
                sm.instr += instr;
                sm.stall += stall;
            }
        }
        if let Some(san) = self.sanitizer.as_mut() {
            san.end_launch();
        }

        let host_threads = self.cfg.host_threads;
        let sms = &mut self.sms[..used];

        // ---- Stage 2: coalesce (parallel per SM) ------------------------
        eta_par::for_each_mut_threads(host_threads, sms, |_, sm| sm.queue.coalesce());

        // ---- Stage 3: residency + zero-copy classification (serial) -----
        // UM migrations, PCIe spans, adaptive-policy evolution and fault
        // injection are shared state: replay them in the canonical order.
        for &smi in &self.order {
            let sm = &mut sms[smi as usize];
            let q = &mut sm.queue;
            let rec = q.recs[sm.next_rec];
            sm.next_rec += 1;
            let secs = &q.sectors[rec.sec_start..rec.sec_start + rec.sec_len];
            let zc = &mut q.zc[rec.sec_start..rec.sec_start + rec.sec_len];
            let arrival = self.mem.resolve_access(rec.region, secs, start_ns, zc);
            metrics.data_ready_ns = metrics.data_ready_ns.max(arrival);
        }

        // ---- Stage 4: L1 drain (parallel per SM) ------------------------
        // Each SM's L1 is private and starts the launch invalidated, so its
        // probe sequence is fully determined by its own queue.
        let params = L1DrainParams {
            l1_latency: self.cfg.l1_latency,
            zero_copy_latency: self.cfg.zero_copy_latency,
            interleave: occupancy,
        };
        eta_par::for_each_mut_threads(host_threads, sms, |_, sm| {
            eta_mem::access::drain_l1(&mut sm.queue, &mut sm.l1, &params);
        });

        // ---- Stage 5: shared L2/DRAM drain (serial, canonical order) ----
        for sm in sms.iter_mut() {
            sm.next_rec = 0;
        }
        for &smi in &self.order {
            let sm = &mut sms[smi as usize];
            let q = &sm.queue;
            let i = sm.next_rec;
            sm.next_rec += 1;
            let Some(&work) = q.l2q.get(sm.next_l2) else {
                continue;
            };
            if work.rec != i {
                continue;
            }
            sm.next_l2 += 1;
            let rec = q.recs[work.rec];
            let mut worst_d = 0u64;
            for &sec in &q.l2q_sectors[work.sec_start..work.sec_start + work.sec_len] {
                match rec.op {
                    PipeOp::Load => {
                        metrics.l2_requests += 1;
                        if self.l2.access(sec) {
                            metrics.l2.hits += 1;
                            worst_d = worst_d.max(self.cfg.l2_latency);
                        } else {
                            metrics.l2.misses += 1;
                            metrics.dram_transactions += 1;
                            worst_d = worst_d.max(self.cfg.dram_latency);
                        }
                    }
                    PipeOp::Store | PipeOp::Atomic => {
                        if !self.l2.access(sec) {
                            metrics.dram_write_transactions += 1;
                        }
                    }
                }
            }
            let inserted = work.sec_len as u64;
            if rec.burst {
                self.l2.tick(inserted);
            } else {
                // The L2 absorbs traffic from every SM concurrently.
                self.l2.tick(l2_interleave * inserted);
            }
            if rec.charge {
                let worst = work.worst_c.max(worst_d);
                sm.stall += worst;
                metrics.mem_stall_cycles += worst;
            }
        }

        // Merge the per-SM stage results in SM-index order.
        for sm in sms.iter_mut() {
            let q = &sm.queue;
            metrics.l1_requests += q.l1_requests;
            metrics.l1.hits += q.l1_hits;
            metrics.l1.misses += q.l1_requests - q.l1_hits;
            metrics.mem_stall_cycles += q.stall;
            sm.stall += q.stall;
        }

        // Warp-accumulated counters are already in `metrics`; derive bytes.
        metrics.dram_bytes = (metrics.dram_transactions + metrics.dram_write_transactions) * 32;

        // Timing.
        let hiding = occupancy.min(self.cfg.hiding_cap as u64).max(1);
        let sm_cycles = sms
            .iter()
            .map(|sm| sm.instr + sm.stall / hiding)
            .max()
            .unwrap_or(0);
        let dram_cycles = (metrics.dram_bytes as f64 / self.cfg.dram_bytes_per_cycle()) as u64;
        let cycles = sm_cycles.max(dram_cycles).max(1);
        metrics.cycles = cycles;
        metrics.time_ns = self.cfg.cycles_to_ns(cycles).max(1);
        metrics.occupancy_warps = occupancy;

        // The kernel occupies the device until both its compute finishes and
        // its last demand-migrated page has arrived — warps stall in place on
        // UM faults. `time_ns` stays pure compute (the paper's t_kernel); the
        // recorded span covers the stall, which is exactly the overlapped
        // region Fig. 4 plots.
        let mut end_ns = (start_ns + metrics.time_ns).max(metrics.data_ready_ns);

        // Zero-copy traffic of this launch occupies the PCIe link as one
        // aggregate ZeroCopyRead span (per-sector latency is already in the
        // warps' stall cycles; this adds the *bandwidth* bound and makes the
        // traffic visible to Fig.-4-style overlap accounting). The launch
        // cannot retire before its host reads have all crossed the link.
        let zc_bytes = self.mem.zero_copy_bytes - zc_mark;
        if zc_bytes > 0 {
            let zc_end = self.mem.charge_zero_copy(zc_bytes, start_ns);
            end_ns = end_ns.max(zc_end);
        }

        // Fault injection (eta-fault): inert unless a plan is installed, so
        // the default path stays byte-identical.
        if self.mem.faults.active {
            // Watchdog: a launch starting inside a hang window that exceeds
            // its cycle budget is killed at start + budget.
            if let Some(budget) = self.mem.faults.hang_budget(start_ns) {
                if end_ns - start_ns > budget {
                    end_ns = start_ns + budget;
                    self.mem.faults.counters.hangs += 1;
                    let device = self.mem.faults.device();
                    self.mem.faults.set_pending(DeviceFault {
                        kind: FaultKind::KernelHang,
                        device,
                        at_ns: end_ns,
                    });
                    self.mem.prof.instant(
                        Track::Fault,
                        "kernel_hang",
                        end_ns,
                        vec![
                            ("kernel", kernel.name().into()),
                            ("device", device.into()),
                            ("budget_ns", budget.into()),
                        ],
                    );
                }
            }
            // One-shot ECC events covered by the (possibly shortened) launch
            // span fire now: single-bit corrects and continues, double-bit
            // fails the launch.
            for e in self.mem.faults.fire_ecc(start_ns, end_ns) {
                let device = self.mem.faults.device();
                if e.double_bit {
                    self.mem.faults.set_pending(DeviceFault {
                        kind: FaultKind::EccDoubleBit,
                        device,
                        at_ns: e.at_ns,
                    });
                }
                self.mem.prof.instant(
                    Track::Fault,
                    "ecc_error",
                    e.at_ns,
                    vec![
                        ("kernel", kernel.name().into()),
                        ("device", device.into()),
                        ("addr_start", e.addr_start.into()),
                        ("addr_words", e.addr_words.into()),
                        ("double_bit", e.double_bit.into()),
                    ],
                );
                if let Some(san) = self.sanitizer.as_mut() {
                    san.note_ecc(
                        kernel.name(),
                        e.addr_start,
                        e.addr_words,
                        e.double_bit,
                        e.at_ns,
                    );
                }
            }
        }

        self.compute_timeline.push(Span {
            kind: SpanKind::Compute,
            start: start_ns,
            end: end_ns,
            bytes: 0,
        });
        if self.mem.prof.is_enabled() {
            let args: Vec<(&'static str, ArgValue)> = vec![
                ("cycles", metrics.cycles.into()),
                ("instructions", metrics.instructions.into()),
                ("ipc", metrics.ipc().into()),
                ("time_ns", metrics.time_ns.into()),
                ("warps", metrics.warps.into()),
                ("occupancy_warps", metrics.occupancy_warps.into()),
                (
                    "warp_efficiency",
                    metrics.warp_execution_efficiency().into(),
                ),
                ("l1_sector_requests", metrics.l1_requests.into()),
                ("l1_hit_rate", metrics.l1_hit_rate().into()),
                ("l2_sector_requests", metrics.l2_requests.into()),
                ("l2_hit_rate", metrics.l2_hit_rate().into()),
                ("dram_read_transactions", metrics.dram_transactions.into()),
                (
                    "dram_write_transactions",
                    metrics.dram_write_transactions.into(),
                ),
                ("dram_bytes", metrics.dram_bytes.into()),
                ("shared_accesses", metrics.shared_accesses.into()),
                (
                    "shared_bank_conflicts",
                    metrics.shared_bank_conflicts.into(),
                ),
                ("atomics", metrics.atomics.into()),
                ("mem_stall_cycles", metrics.mem_stall_cycles.into()),
            ];
            self.mem
                .prof
                .record(Track::Kernel, kernel.name(), start_ns, end_ns, args);
        }
        // Conservation laws of the launch's counters and of the UM
        // bookkeeping, checked continuously rather than discovered (the
        // latter is O(pages), so debug builds only).
        if cfg!(debug_assertions) {
            let m = &metrics;
            assert_eq!(m.l1_requests, m.l1.hits + m.l1.misses, "L1 probes");
            assert_eq!(m.l2_requests, m.l2.hits + m.l2.misses, "L2 read probes");
            assert_eq!(m.l1.misses, m.l2_requests, "every L1 miss reads L2");
            assert_eq!(m.dram_transactions, m.l2.misses, "every L2 miss reads DRAM");
            assert_eq!(
                m.dram_bytes,
                (m.dram_transactions + m.dram_write_transactions) * 32
            );
            let recorded: usize = self.sms.iter().map(|sm| sm.queue.recs.len()).sum();
            assert_eq!(recorded, self.order.len(), "one order entry per record");
            self.mem.um.check_invariants();
        }
        LaunchResult { end_ns, metrics }
    }

    /// The profile recorded so far as a single-process [`Profile`].
    ///
    /// Empty unless the device was built with
    /// [`GpuConfig::with_profiling`](crate::config::GpuConfig::with_profiling)
    /// (or `mem.prof` was enabled by hand).
    pub fn profile(&self) -> Profile {
        Profile::single("device", self.mem.prof.events().to_vec())
    }

    /// Clears caches and timelines for a fresh experiment on the same data.
    pub fn reset_run_state(&mut self) {
        for sm in &mut self.sms {
            sm.l1.flush();
            sm.l1.reset_stats();
        }
        self.l2.flush();
        self.l2.reset_stats();
        self.compute_timeline.clear();
        self.mem.pcie.reset();
        self.mem.um.invalidate_all();
        self.mem.um.reset_stats();
        self.mem.prof.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, LaunchConfig};
    use crate::warp::WarpCtx;
    use eta_mem::system::DSlice;

    /// out[i] = in[i] * 2 over n elements.
    struct DoubleKernel {
        input: DSlice,
        output: DSlice,
        n: u32,
    }

    impl Kernel for DoubleKernel {
        fn name(&self) -> &'static str {
            "double"
        }

        fn run(&self, w: &mut WarpCtx<'_>) {
            let ids = w.thread_ids();
            let mask = w.mask_for_items(self.n);
            if mask == 0 {
                return;
            }
            let vals = w.load(self.input, &ids, mask);
            let mut out = [0u32; 32];
            for (o, v) in out.iter_mut().zip(vals.iter()) {
                *o = v * 2;
            }
            w.alu(1);
            w.store(self.output, &ids, &out, mask);
        }
    }

    fn grid(n: u32, tpb: u32) -> LaunchConfig {
        LaunchConfig {
            blocks: n.div_ceil(tpb),
            threads_per_block: tpb,
        }
    }

    #[test]
    fn kernel_computes_correct_values() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let n = 10_000u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        dev.mem.host_write(input, 0, &(0..n).collect::<Vec<u32>>());
        let k = DoubleKernel { input, output, n };
        let r = dev.launch(&k, grid(n, 256), 0);
        assert!(r.end_ns > 0);
        let out = dev.mem.host_read(output, 0, n as u64);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn metrics_are_populated() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let n = 4096u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        let k = DoubleKernel { input, output, n };
        let r = dev.launch(&k, grid(n, 256), 0);
        let m = r.metrics;
        assert_eq!(m.warps, 128);
        assert!(m.instructions >= 3 * 128, "3 instructions per warp");
        assert!(m.l1_requests > 0);
        assert!(m.cycles > 0);
        assert!(m.ipc() > 0.0);
        assert_eq!(
            m.dram_bytes,
            (m.dram_transactions + m.dram_write_transactions) * 32
        );
    }

    #[test]
    fn empty_launch_is_a_noop() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let input = dev.mem.alloc_explicit(32).unwrap();
        let output = dev.mem.alloc_explicit(32).unwrap();
        let k = DoubleKernel {
            input,
            output,
            n: 0,
        };
        let r = dev.launch(
            &k,
            LaunchConfig {
                blocks: 0,
                threads_per_block: 256,
            },
            123,
        );
        assert_eq!(r.end_ns, 123);
        assert_eq!(r.metrics.instructions, 0);
    }

    #[test]
    fn more_work_takes_more_cycles() {
        // Compare two sizes that both saturate occupancy, so the scaling is
        // not confounded by the latency-hiding difference between tiny and
        // large grids (which is itself realistic behaviour).
        let mut dev = Device::new(GpuConfig::default_preset());
        let medium = {
            let n = 16_384u32;
            let i = dev.mem.alloc_explicit(n as u64).unwrap();
            let o = dev.mem.alloc_explicit(n as u64).unwrap();
            dev.launch(
                &DoubleKernel {
                    input: i,
                    output: o,
                    n,
                },
                grid(n, 256),
                0,
            )
        };
        let big = {
            let n = 262_144u32;
            let i = dev.mem.alloc_explicit(n as u64).unwrap();
            let o = dev.mem.alloc_explicit(n as u64).unwrap();
            dev.launch(
                &DoubleKernel {
                    input: i,
                    output: o,
                    n,
                },
                grid(n, 256),
                0,
            )
        };
        assert!(
            big.metrics.cycles > 4 * medium.metrics.cycles,
            "16x work at equal occupancy must cost >4x cycles: {} vs {}",
            big.metrics.cycles,
            medium.metrics.cycles
        );
    }

    #[test]
    fn occupancy_respects_shared_memory_limit() {
        let dev = Device::new(GpuConfig::default_preset());
        let launch = LaunchConfig {
            blocks: 1000,
            threads_per_block: 256,
        };
        let free = dev.occupancy(&launch, 0);
        // 96 KiB shared / 24 KiB per block = 4 blocks = 32 warps.
        let constrained = dev.occupancy(&launch, 24 * 1024 / 4);
        assert!(constrained < free);
        assert_eq!(constrained, 32);
    }

    #[test]
    fn occupancy_small_grid_is_grid_bound() {
        let dev = Device::new(GpuConfig::default_preset());
        let launch = LaunchConfig {
            blocks: 28,
            threads_per_block: 64,
        };
        assert_eq!(dev.occupancy(&launch, 0), 2, "one 2-warp block per SM");
    }

    #[test]
    fn compute_spans_are_recorded() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let n = 2048u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        let k = DoubleKernel { input, output, n };
        dev.launch(&k, grid(n, 256), 500);
        let spans = dev.compute_timeline.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start, 500);
        assert!(spans[0].end > 500);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn impossible_shared_memory_launch_is_rejected() {
        struct Greedy;
        impl Kernel for Greedy {
            fn shared_words_per_block(&self, _t: u32) -> u64 {
                1 << 20 // 4 MiB per block >> 96 KiB per SM
            }
            fn run(&self, _w: &mut WarpCtx<'_>) {}
        }
        let mut dev = Device::new(GpuConfig::default_preset());
        dev.launch(
            &Greedy,
            LaunchConfig {
                blocks: 1,
                threads_per_block: 256,
            },
            0,
        );
    }

    #[test]
    fn profiling_records_kernel_events_with_counters() {
        let mut dev = Device::new(GpuConfig::default_preset().with_profiling());
        let n = 2048u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        dev.launch(&DoubleKernel { input, output, n }, grid(n, 256), 0);
        let events = dev.mem.prof.events();
        let kernel: Vec<_> = events
            .iter()
            .filter(|e| e.track == eta_prof::Track::Kernel)
            .collect();
        assert_eq!(kernel.len(), 1);
        assert_eq!(kernel[0].name, "double");
        let arg_names: Vec<&str> = kernel[0].args.iter().map(|(k, _)| *k).collect();
        for want in [
            "cycles",
            "ipc",
            "warp_efficiency",
            "l1_hit_rate",
            "l2_hit_rate",
            "dram_read_transactions",
            "shared_bank_conflicts",
            "mem_stall_cycles",
        ] {
            assert!(arg_names.contains(&want), "missing counter {want}");
        }
        // Explicit-allocation writes in the test setup plus any copies are
        // mirrored too; the single-process profile must see the kernel span.
        let p = dev.profile();
        assert!(p.kernel_busy_ns() > 0);
        // Disabled device records nothing.
        let mut quiet = Device::new(GpuConfig::default_preset());
        let i2 = quiet.mem.alloc_explicit(n as u64).unwrap();
        let o2 = quiet.mem.alloc_explicit(n as u64).unwrap();
        quiet.launch(
            &DoubleKernel {
                input: i2,
                output: o2,
                n,
            },
            grid(n, 256),
            0,
        );
        assert!(quiet.mem.prof.is_empty());
        assert_eq!(quiet.mem.prof.allocated_bytes(), 0);
    }

    #[test]
    fn hang_window_kills_a_long_launch_at_its_budget() {
        use eta_fault::{FaultPlan, HangFault};
        let mut dev = Device::new(GpuConfig::default_preset());
        let n = 262_144u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        let clean = dev.launch(&DoubleKernel { input, output, n }, grid(n, 256), 0);
        assert!(clean.end_ns > 10, "kernel long enough to exceed the budget");
        assert!(dev.take_fault().is_none(), "no plan: no faults");

        let mut plan = FaultPlan::default();
        plan.hangs.push(HangFault {
            device: 0,
            start_ns: 0,
            end_ns: u64::MAX,
            budget_ns: 10,
        });
        let mut faulty = Device::new(GpuConfig::default_preset());
        faulty.install_faults(&plan, 0);
        let i2 = faulty.mem.alloc_explicit(n as u64).unwrap();
        let o2 = faulty.mem.alloc_explicit(n as u64).unwrap();
        let r = faulty.launch(
            &DoubleKernel {
                input: i2,
                output: o2,
                n,
            },
            grid(n, 256),
            0,
        );
        assert_eq!(r.end_ns, 10, "watchdog kill at start + budget");
        let f = faulty.take_fault().expect("hang detected");
        assert_eq!(f.kind, eta_fault::FaultKind::KernelHang);
        assert_eq!(f.at_ns, 10);
        assert_eq!(faulty.mem.faults.counters.hangs, 1);
        assert!(faulty.take_fault().is_none(), "collected once");
    }

    #[test]
    fn ecc_events_fire_once_inside_a_covering_launch() {
        use eta_fault::{EccFault, FaultPlan};
        let mut plan = FaultPlan::default();
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 5,
            addr_start: 0,
            addr_words: 8,
            double_bit: false,
        });
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 6,
            addr_start: 64,
            addr_words: 8,
            double_bit: true,
        });
        let mut dev = Device::new(GpuConfig::default_preset().with_profiling());
        dev.install_faults(&plan, 0);
        let n = 65_536u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        let r = dev.launch(&DoubleKernel { input, output, n }, grid(n, 256), 0);
        assert!(r.end_ns >= 6, "launch span covers both events");
        let f = dev.take_fault().expect("double-bit ECC fails the launch");
        assert_eq!(f.kind, eta_fault::FaultKind::EccDoubleBit);
        assert_eq!(f.at_ns, 6);
        assert_eq!(dev.mem.faults.counters.ecc_corrected, 1);
        assert_eq!(dev.mem.faults.counters.ecc_uncorrected, 1);
        let ecc_events: Vec<_> = dev
            .mem
            .prof
            .events()
            .iter()
            .filter(|e| e.track == eta_prof::Track::Fault && e.name == "ecc_error")
            .collect();
        assert_eq!(ecc_events.len(), 2, "one profiler instant per ECC event");
        // A second launch must not re-fire the one-shot events.
        let i2 = dev.mem.alloc_explicit(n as u64).unwrap();
        let o2 = dev.mem.alloc_explicit(n as u64).unwrap();
        dev.launch(
            &DoubleKernel {
                input: i2,
                output: o2,
                n,
            },
            grid(n, 256),
            0,
        );
        assert!(dev.take_fault().is_none());
        assert_eq!(dev.mem.faults.counters.ecc_uncorrected, 1);
    }

    #[test]
    fn ecc_errors_surface_through_the_sanitizer() {
        use crate::sanitizer::{FindingKind, SanitizerMode, Severity};
        use eta_fault::{EccFault, FaultPlan};
        let mut plan = FaultPlan::default();
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 0,
            addr_start: 128,
            addr_words: 4,
            double_bit: true,
        });
        plan.ecc.push(EccFault {
            device: 0,
            at_ns: 1,
            addr_start: 256,
            addr_words: 4,
            double_bit: false,
        });
        let mut cfg = GpuConfig::default_preset();
        cfg.sanitizer = SanitizerMode::Memcheck;
        let mut dev = Device::new(cfg);
        dev.install_faults(&plan, 0);
        let n = 4096u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        dev.mem.host_write(input, 0, &vec![1u32; n as usize]);
        dev.launch(&DoubleKernel { input, output, n }, grid(n, 256), 0);
        let rep = dev.sanitizer_report().expect("sanitizer attached");
        let errors: Vec<_> = rep
            .errors
            .iter()
            .filter(|f| f.kind == FindingKind::EccError)
            .collect();
        assert_eq!(errors.len(), 1, "double-bit is an error");
        assert_eq!(errors[0].severity, Severity::Error);
        assert_eq!(errors[0].addr, 128);
        assert!(errors[0].detail.contains("double-bit"));
        let warnings: Vec<_> = rep
            .warnings
            .iter()
            .filter(|f| f.kind == FindingKind::EccError)
            .collect();
        assert_eq!(warnings.len(), 1, "single-bit is a corrected warning");
        assert!(!rep.is_clean());
    }

    #[test]
    fn empty_plan_install_keeps_launch_timing_identical() {
        let run = |install: bool| {
            let mut dev = Device::new(GpuConfig::default_preset());
            if install {
                dev.install_faults(&eta_fault::FaultPlan::default(), 0);
            }
            let n = 65_536u32;
            let input = dev.mem.alloc_explicit(n as u64).unwrap();
            let output = dev.mem.alloc_explicit(n as u64).unwrap();
            let r = dev.launch(&DoubleKernel { input, output, n }, grid(n, 256), 0);
            (r.end_ns, r.metrics.cycles)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn reset_run_state_clears_everything() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let n = 2048u32;
        let input = dev.mem.alloc_explicit(n as u64).unwrap();
        let output = dev.mem.alloc_explicit(n as u64).unwrap();
        let k = DoubleKernel { input, output, n };
        let cold = dev.launch(&k, grid(n, 256), 0).metrics;
        assert_eq!((cold.l1.hits, cold.l2.hits), (0, 0), "a first touch");
        let warm = dev.launch(&k, grid(n, 256), 0).metrics;
        assert_eq!(warm.l1.hits, 0, "L1 starts every launch invalidated");
        assert_eq!(warm.l2.hits, warm.l2_requests, "L2 persists");
        dev.reset_run_state();
        assert!(dev.compute_timeline.spans().is_empty());
        assert_eq!(dev.mem.pcie.bytes_moved(), 0);
        let again = dev.launch(&k, grid(n, 256), 0).metrics;
        assert_eq!((again.l1, again.l2), (cold.l1, cold.l2), "cold again");
        assert_eq!(again.dram_bytes, cold.dram_bytes);
    }

    /// Each warp checks its slice of the block's shared memory is zero,
    /// counting the rows it checked and the non-zero words it found, then
    /// dirties it.
    struct SharedProbe {
        words: u64,
        checked: DSlice,
        dirty: DSlice,
    }

    impl Kernel for SharedProbe {
        fn shared_words_per_block(&self, _threads_per_block: u32) -> u64 {
            self.words
        }

        fn run(&self, w: &mut WarpCtx<'_>) {
            let id = w.id();
            let per_warp = self.words as u32 / (id.threads_per_block / 32);
            let zero = [0u32; 32];
            for row in 0..per_warp / 32 {
                let base = id.warp_in_block * per_warp + row * 32;
                let mut idx = [0u32; 32];
                for (lane, slot) in idx.iter_mut().enumerate() {
                    *slot = base + lane as u32;
                }
                let seen = w.load_shared(&idx, u32::MAX);
                let mut nonzero = zero;
                nonzero[0] = seen.iter().filter(|&&v| v != 0).count() as u32;
                w.atomic_add(self.dirty, &zero, &nonzero, 1);
                w.atomic_add(self.checked, &zero, &[1; 32], 1);
                w.store_shared(&idx, &[0xDEAD_BEEF; 32], u32::MAX);
            }
        }
    }

    #[test]
    fn shared_memory_starts_zeroed_for_every_block_across_launch_sizes() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let checked = dev.mem.alloc_explicit(8).unwrap();
        let dirty = dev.mem.alloc_explicit(8).unwrap();
        let launch = LaunchConfig {
            blocks: 3,
            threads_per_block: 256,
        };
        // The block buffer is device-owned scratch: none, 16 KiB, none
        // again, and back — every block of every launch finds it zeroed.
        let mut rows = 0;
        for words in [0u64, 4096, 0, 4096, 1024] {
            let probe = SharedProbe {
                words,
                checked,
                dirty,
            };
            dev.launch(&probe, launch, 0);
            rows += 3 * words as u32 / 32;
            assert_eq!(dev.mem.host_read(checked, 0, 1), &[rows], "{words} words");
            assert_eq!(dev.mem.host_read(dirty, 0, 1), &[0], "{words} words");
        }
    }
}
