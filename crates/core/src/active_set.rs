//! Device-resident active set and virtual active set (§IV-A).
//!
//! The active set is "a simple device array" of vertex IDs with an atomic
//! append counter; the virtual active set records the `(ID, Start Index,
//! End Index)` 3-tuples of shadow vertices, stored as three parallel arrays
//! for coalesced access. Counts live in single-word device slots; reading
//! one back (to size the next launch) or resetting it costs a 4-byte PCIe
//! hop — the per-iteration overhead that makes EtaGraph slightly slower than
//! Tigr on the tiny Slashdot graph (Table III).

use eta_mem::system::{DSlice, MemError};
use eta_mem::Ns;
use eta_sim::Device;

/// A device array with an atomic append counter.
#[derive(Debug, Clone, Copy)]
pub struct DeviceQueue {
    pub items: DSlice,
    pub count: DSlice,
    pub capacity: u32,
}

impl DeviceQueue {
    pub fn alloc(dev: &mut Device, capacity: u32) -> Result<DeviceQueue, MemError> {
        let items = dev.mem.alloc_explicit(capacity.max(1) as u64)?;
        let count = dev.mem.alloc_explicit(1)?;
        Ok(DeviceQueue {
            items,
            count,
            capacity,
        })
    }

    /// Reads the count back to the host (4-byte device→host transfer).
    pub fn read_count(&self, dev: &mut Device, now: Ns) -> (u32, Ns) {
        let end = dev.mem.copy_d2h(self.count, 1, now);
        (dev.mem.host_read(self.count, 0, 1)[0], end)
    }

    /// Host-side push during setup (seeding the source), free of charge —
    /// it rides along with the label initialization copy. Returns the
    /// queue length.
    pub fn host_seed(&self, dev: &mut Device, values: &[u32]) -> u32 {
        let len = u32::try_from(values.len()).unwrap_or(u32::MAX);
        assert!(len <= self.capacity, "seed exceeds the queue capacity");
        dev.mem.host_write(self.items, 0, values);
        dev.mem.host_write(self.count, 0, &[len]);
        len
    }

    /// Seeds the queue from host `values` and charges the one 4-byte count
    /// update that tells the device about them — how every frontier is
    /// (re)built from the host: initialization, checkpoint resume, and the
    /// post-exchange merge of a device group. Returns the length and the
    /// time the count update lands.
    pub fn seed(&self, dev: &mut Device, values: &[u32], now: Ns) -> (u32, Ns) {
        let len = self.host_seed(dev, values);
        (len, dev.mem.copy_h2d(self.count, 0, &[len], now))
    }

    /// Returns the queue's device capacity (registry eviction path).
    pub fn release(self, dev: &mut Device) {
        dev.mem.free_explicit(self.items);
        dev.mem.free_explicit(self.count);
    }
}

/// The virtual active set: shadow-vertex 3-tuples in structure-of-arrays
/// form, plus the append counter.
#[derive(Debug, Clone, Copy)]
pub struct VirtualQueue {
    pub ids: DSlice,
    pub starts: DSlice,
    pub ends: DSlice,
    pub count: DSlice,
    pub capacity: u32,
}

impl VirtualQueue {
    pub fn alloc(dev: &mut Device, capacity: u32) -> Result<VirtualQueue, MemError> {
        let cap = capacity.max(1) as u64;
        Ok(VirtualQueue {
            ids: dev.mem.alloc_explicit(cap)?,
            starts: dev.mem.alloc_explicit(cap)?,
            ends: dev.mem.alloc_explicit(cap)?,
            count: dev.mem.alloc_explicit(1)?,
            capacity,
        })
    }

    pub fn read_count(&self, dev: &mut Device, now: Ns) -> (u32, Ns) {
        let end = dev.mem.copy_d2h(self.count, 1, now);
        (dev.mem.host_read(self.count, 0, 1)[0], end)
    }

    /// Returns the queue's device capacity (registry eviction path).
    pub fn release(self, dev: &mut Device) {
        for s in [self.ids, self.starts, self.ends, self.count] {
            dev.mem.free_explicit(s);
        }
    }
}

/// Procedure 1's four device queues: the `(act, next)` active-set pair and
/// the uniform-K / tail virtual active sets the UDC cut fills.
#[derive(Debug, Clone, Copy)]
pub struct WorkQueues {
    pub act: DeviceQueue,
    pub next: DeviceQueue,
    pub full: VirtualQueue,
    pub partial: VirtualQueue,
}

impl WorkQueues {
    /// `n`-vertex active sets plus virtual sets of the given capacities.
    pub fn alloc(dev: &mut Device, n: u32, full: u32, partial: u32) -> Result<Self, MemError> {
        Ok(WorkQueues {
            act: DeviceQueue::alloc(dev, n)?,
            next: DeviceQueue::alloc(dev, n)?,
            full: VirtualQueue::alloc(dev, full)?,
            partial: VirtualQueue::alloc(dev, partial)?,
        })
    }

    /// In-core UDC bounds the uniform-K queue by `m / k` shadows (plus the
    /// rounding slack the cut can produce).
    pub fn full_capacity(m: u32, k: u32) -> u32 {
        (m / k).max(1) + 1
    }

    pub fn release(self, dev: &mut Device) {
        self.act.release(dev);
        self.next.release(dev);
        self.full.release(dev);
        self.partial.release(dev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_sim::GpuConfig;

    #[test]
    fn queue_roundtrip_and_costs() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let q = DeviceQueue::alloc(&mut dev, 100).unwrap();
        q.host_seed(&mut dev, &[7, 8, 9]);
        let (count, t) = q.read_count(&mut dev, 0);
        assert_eq!(count, 3);
        assert!(t > 0, "readback crosses PCIe");
        let (_, t2) = q.seed(&mut dev, &[], t);
        assert!(t2 > t);
        let (count, _) = q.read_count(&mut dev, t2);
        assert_eq!(count, 0);
    }

    #[test]
    fn virtual_queue_allocates_three_arrays() {
        let mut dev = Device::new(GpuConfig::default_preset());
        let before = dev.mem.explicit_used_bytes();
        let q = VirtualQueue::alloc(&mut dev, 1000).unwrap();
        let used = dev.mem.explicit_used_bytes() - before;
        assert!(used >= 3 * 1000 * 4);
        assert_eq!(q.capacity, 1000);
    }

    #[test]
    fn queue_oom_propagates() {
        let mut dev = Device::new(GpuConfig::gtx1080ti_scaled(4096));
        assert!(DeviceQueue::alloc(&mut dev, 10_000).is_err());
    }
}
