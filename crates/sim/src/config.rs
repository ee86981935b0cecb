//! GPU configuration and presets.
//!
//! The preset models the paper's testbed — an NVIDIA GTX 1080Ti (28 SMs,
//! 48 KiB L1/unified cache per SM, 2.75 MiB L2, GDDR5X at ~484 GB/s, PCIe
//! 3.0 x16 at ~12 GB/s) — with one deliberate deviation: device memory
//! capacity is **scaled down** in the same proportion as the datasets
//! (DESIGN.md), so that the O.O.M boundaries of Table III fall between the
//! same dataset pairs as in the paper.
//!
//! The numbers no experiment varies are associated constants of
//! [`GpuConfig`] (`GpuConfig::CLOCK_GHZ`, `GpuConfig::DRAM_LATENCY`, …),
//! checked when the crate compiles; the struct holds what a caller sets or
//! a probe reads.

use crate::sanitizer::SanitizerMode;
use eta_mem::cache::CacheConfig;

/// Number of lanes in a warp. Fixed at compile time for the simulator.
pub const WARP_SIZE: usize = 32;

/// Full configuration of the simulated GPU.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// Per-SM L1/unified cache.
    pub l1: CacheConfig,
    /// Device-wide L2 cache.
    pub l2: CacheConfig,
    /// Latency of an access serviced by L1, cycles.
    pub l1_latency: u64,
    /// Latency of a zero-copy (host-mapped) access, cycles.
    pub zero_copy_latency: u64,
    /// Device memory capacity, bytes (scaled with the datasets).
    pub device_mem_bytes: u64,
    /// Host↔device interconnect bandwidth, GB/s.
    pub pcie_bandwidth_gb_s: f64,
    /// Per-transfer interconnect setup latency, ns.
    pub pcie_latency_ns: u64,
    /// Whether a sanitizer instruments kernel accesses (default off).
    pub sanitizer: SanitizerMode,
    /// Whether the device records an `eta-prof` event stream (default off;
    /// disabled profiling is zero-cost).
    pub profiling: bool,
    /// Host threads a launch may use (default 2). At 1 a launch runs
    /// inline; at 2 or more a launch of two or more waves records later
    /// blocks on the calling thread while one worker drains the caches for
    /// earlier ones, and values above 2 behave as 2. This is a host-speed
    /// knob only: every simulated result — counters, timings, sanitizer
    /// findings, profiler spans — is byte-identical across thread counts
    /// (see DESIGN.md "Host parallelism").
    pub host_threads: usize,
}

/// A degenerate [`GpuConfig`] field, rejected at device construction by
/// [`GpuConfig::validate`] before it can reach `block % num_sms` or a cache's
/// set arithmetic deep inside `Device::launch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_sms == 0`: no SM to schedule blocks onto.
    ZeroSms,
    /// `host_threads == 0`: a launch needs at least the calling thread.
    ZeroHostThreads,
    /// `l1.ways == 0`: a set-associative cache needs at least one way.
    ZeroL1Ways,
    /// `l1.line_bytes == 0`: sector math divides by the line size.
    ZeroL1Line,
    /// `l2.ways == 0`.
    ZeroL2Ways,
    /// `l2.line_bytes == 0`.
    ZeroL2Line,
    /// `l1.size_bytes < l1.line_bytes * l1.ways`: not even one set.
    L1SmallerThanOneSet,
    /// `l2.size_bytes < l2.line_bytes * l2.ways`.
    L2SmallerThanOneSet,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroSms => "num_sms must be at least 1",
            ConfigError::ZeroHostThreads => "host_threads must be at least 1",
            ConfigError::ZeroL1Ways => "l1.ways must be at least 1",
            ConfigError::ZeroL1Line => "l1.line_bytes must be at least 1",
            ConfigError::ZeroL2Ways => "l2.ways must be at least 1",
            ConfigError::ZeroL2Line => "l2.line_bytes must be at least 1",
            ConfigError::L1SmallerThanOneSet => {
                "l1.size_bytes must hold at least one set (line_bytes * ways)"
            }
            ConfigError::L2SmallerThanOneSet => {
                "l2.size_bytes must hold at least one set (line_bytes * ways)"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

// A launch schedules with the first two and divides by the last two.
const _: () = {
    assert!(GpuConfig::MAX_RESIDENT_WARPS > 0 && GpuConfig::HIDING_CAP > 0);
    assert!(GpuConfig::CLOCK_GHZ.is_finite() && GpuConfig::CLOCK_GHZ > 0.0);
    assert!(GpuConfig::DRAM_BANDWIDTH_GB_S.is_finite() && GpuConfig::DRAM_BANDWIDTH_GB_S > 0.0);
};

impl GpuConfig {
    /// Hardware limit of resident warps per SM.
    pub const MAX_RESIDENT_WARPS: usize = 64;
    /// Core clock in GHz (cycles per ns).
    pub const CLOCK_GHZ: f64 = 1.48;
    /// Programmer-managed shared memory per SM, bytes.
    pub const SHARED_MEM_PER_SM: u64 = 96 * 1024;
    /// DRAM bandwidth, GB/s.
    pub const DRAM_BANDWIDTH_GB_S: f64 = 484.0;
    /// Latency of an access serviced by DRAM, cycles.
    pub const DRAM_LATENCY: u64 = 400;
    /// Latency of an access serviced by L2, cycles.
    pub const L2_LATENCY: u64 = 220;
    /// Latency of a shared-memory access, cycles.
    pub const SHARED_LATENCY: u64 = 24;
    /// Issue cost of a pipelined (burst) memory operation, cycles.
    pub const BURST_ISSUE: u64 = 4;
    /// Serialization cost per lane of an atomic, cycles.
    pub const ATOMIC_SERIALIZE: u64 = 2;
    /// Cap on the memory-latency-hiding factor from warp switching.
    pub const HIDING_CAP: usize = 24;

    /// GTX 1080Ti-like preset with device memory scaled to the datasets.
    ///
    /// `device_mem_bytes` is the one knob experiments vary (the paper's GPU
    /// has 11 GiB; the scaled evaluation uses [`Self::DEFAULT_DEVICE_MEM`]).
    pub fn gtx1080ti_scaled(device_mem_bytes: u64) -> Self {
        let l1 = CacheConfig {
            size_bytes: 48 * 1024,
            line_bytes: 32,
            ways: 8,
            // Under interleaved traffic a line survives about half a cache
            // turnover: set conflicts evict before full capacity reuse
            // (see eta-mem::cache for the aging model).
            retention: (48 * 1024) / 32 / 2,
        };
        let l2 = CacheConfig {
            size_bytes: 2816 * 1024, // 2.75 MiB, as the paper cites
            line_bytes: 32,
            ways: 16,
            // Same half-turnover rule as L1, in global-insertion ticks.
            retention: (2816 * 1024) / 32 / 2,
        };
        GpuConfig {
            num_sms: 28,
            l1,
            l2,
            l1_latency: 32,
            zero_copy_latency: 2_000,
            device_mem_bytes,
            pcie_bandwidth_gb_s: 12.0,
            // Scaled with the datasets: the real ~8 us per-operation latency
            // would dominate 128x-smaller transfers and erase every
            // kernel-side effect the paper measures.
            pcie_latency_ns: 1_000,
            sanitizer: SanitizerMode::Off,
            profiling: false,
            host_threads: 2,
        }
    }

    /// The same preset with a sanitizer attached.
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = mode;
        self
    }

    /// The same preset with `eta-prof` event recording enabled.
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// The same preset with `n` host threads per launch (see
    /// [`GpuConfig::host_threads`]).
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.host_threads = n;
        self
    }

    /// Rejects degenerate fields before they reach div/mod arithmetic deep
    /// inside the launch path (`num_sms = 0` would divide by zero in
    /// `block % num_sms`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sms == 0 {
            return Err(ConfigError::ZeroSms);
        }
        if self.host_threads == 0 {
            return Err(ConfigError::ZeroHostThreads);
        }
        if self.l1.ways == 0 {
            return Err(ConfigError::ZeroL1Ways);
        }
        if self.l1.line_bytes == 0 {
            return Err(ConfigError::ZeroL1Line);
        }
        if self.l2.ways == 0 {
            return Err(ConfigError::ZeroL2Ways);
        }
        if self.l2.line_bytes == 0 {
            return Err(ConfigError::ZeroL2Line);
        }
        let holds_a_set = |c: &CacheConfig| {
            c.line_bytes
                .checked_mul(c.ways as u64)
                .is_some_and(|set_bytes| c.size_bytes >= set_bytes)
        };
        if !holds_a_set(&self.l1) {
            return Err(ConfigError::L1SmallerThanOneSet);
        }
        if !holds_a_set(&self.l2) {
            return Err(ConfigError::L2SmallerThanOneSet);
        }
        Ok(())
    }

    /// Device memory used by the scaled evaluation.
    ///
    /// 88 MiB ≈ 11 GiB / 128, consistent with the ~128× dataset scale-down,
    /// chosen so the O.O.M boundaries of Table III fall between the same
    /// dataset pairs as in the paper (see eta-bench's `table3` and DESIGN.md
    /// for the per-framework footprint arithmetic).
    pub const DEFAULT_DEVICE_MEM: u64 = 88 * 1024 * 1024;

    /// Default preset used across tests and benches.
    pub fn default_preset() -> Self {
        Self::gtx1080ti_scaled(Self::DEFAULT_DEVICE_MEM)
    }

    /// Converts core cycles to nanoseconds.
    pub fn cycles_to_ns(cycles: u64) -> u64 {
        (cycles as f64 / Self::CLOCK_GHZ).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_sane() {
        let c = GpuConfig::default_preset();
        assert_eq!(c.num_sms, 28);
        assert!(c.l1.lines() > 0);
        assert!(c.l2.size_bytes > c.l1.size_bytes);
    }

    #[test]
    fn cycle_conversion() {
        // 1.48 GHz: 1480 cycles = 1000 ns.
        assert_eq!(GpuConfig::cycles_to_ns(1480), 1000);
        assert_eq!(GpuConfig::cycles_to_ns(0), 0);
    }

    /// Every degenerate field is a typed error at validation time, and
    /// `Device::new` panics naming it, before a div/mod by zero deep inside
    /// `Device::launch` could.
    #[test]
    fn degenerate_fields_are_typed_errors() {
        let ok = GpuConfig::default_preset();
        assert_eq!(ok.validate(), Ok(()));

        type Case = (fn(&mut GpuConfig), ConfigError);
        let cases: &[Case] = &[
            (|c| c.num_sms = 0, ConfigError::ZeroSms),
            (|c| c.host_threads = 0, ConfigError::ZeroHostThreads),
            (|c| c.l1.ways = 0, ConfigError::ZeroL1Ways),
            (|c| c.l1.line_bytes = 0, ConfigError::ZeroL1Line),
            (|c| c.l2.ways = 0, ConfigError::ZeroL2Ways),
            (|c| c.l2.line_bytes = 0, ConfigError::ZeroL2Line),
            // `Cache::new` asserts on these two, so `validate` must catch
            // them before device construction reaches it.
            (|c| c.l1.size_bytes = 64, ConfigError::L1SmallerThanOneSet),
            (
                |c| c.l2.size_bytes = c.l2.line_bytes * c.l2.ways as u64 - 1,
                ConfigError::L2SmallerThanOneSet,
            ),
            (
                |c| c.l2.line_bytes = u64::MAX,
                ConfigError::L2SmallerThanOneSet,
            ),
        ];
        for (mutate, want) in cases {
            let mut c = GpuConfig::default_preset();
            mutate(&mut c);
            assert_eq!(c.validate(), Err(*want), "expected {want:?}");
            let panic = std::panic::catch_unwind(|| crate::Device::new(c))
                .err()
                .expect("Device::new accepted a degenerate config");
            let msg = panic.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*msg, format!("invalid GpuConfig: {want}"));
        }
    }

    #[test]
    fn host_threads_builder_round_trips() {
        let c = GpuConfig::default_preset().with_host_threads(4);
        assert_eq!(c.host_threads, 4);
        assert_eq!(c.validate(), Ok(()));
    }
}
