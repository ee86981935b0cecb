//! NVLink-style peer-to-peer links between simulated devices.
//!
//! The single-device model prices one PCIe link per device ([`crate::pcie`]).
//! Sharded multi-device traversal (eta-shard) adds a second interconnect:
//! direct device↔device links over which the BSP engine exchanges halo
//! frontier/label updates each superstep. EMOGI's observation (PAPERS.md)
//! motivates modeling this explicitly — once the graph is partitioned, the
//! link, not the SM, is the resource that must be priced correctly.
//!
//! A peer link is priced exactly like the host link, so each unordered
//! device pair owns one [`PcieLink`] at NVLink rates (40 GB/s, 2 µs of
//! setup per transfer). Transfers on the same link serialize
//! (`busy_until`), which is the fabric-contention model: two exchanges
//! between the same pair queue behind each other, while disjoint pairs
//! proceed in parallel. Every transfer is a [`SpanKind::PeerCopy`], so no
//! pageable-staging penalty applies (peer copies move pinned device memory)
//! and no fault plan degrades the link.
//!
//! Each transfer is recorded as a `PeerCopy` span on the link's
//! [`Timeline`](crate::timeline::Timeline); the superstep driver mirrors
//! each superstep's transfers, with their endpoints, into the sender's
//! profiler on `Track::Peer`.

use crate::pcie::PcieLink;
use crate::timeline::SpanKind;
use crate::Ns;

/// NVLink 1.0-style bricks: ~40 GB/s with a short setup latency —
/// roughly 3× the modeled PCIe bandwidth at a quarter of its latency,
/// matching the published NVLink-vs-PCIe ratios EMOGI reports.
const NVLINK_GB_S: f64 = 40.0;
/// Per-transfer setup latency of every peer link.
const NVLINK_LATENCY_NS: Ns = 2_000;

/// The all-pairs peer fabric of a device group.
///
/// Holds one [`PcieLink`] per unordered device pair, created lazily on
/// first use so a fabric over N devices costs O(pairs actually exercised).
#[derive(Debug, Clone)]
pub struct PeerFabric {
    devices: u32,
    /// Keyed by `(min, max)` of the endpoint pair, kept sorted for
    /// deterministic iteration.
    links: Vec<((u32, u32), PcieLink)>,
}

impl PeerFabric {
    /// A fabric over `devices` devices whose every link runs at NVLink
    /// rates.
    pub fn nvlink(devices: u32) -> Self {
        Self {
            devices,
            links: Vec::new(),
        }
    }

    pub fn devices(&self) -> u32 {
        self.devices
    }

    fn link_mut(&mut self, a: u32, b: u32) -> &mut PcieLink {
        let key = (a.min(b), a.max(b));
        match self.links.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => &mut self.links[i].1,
            Err(i) => {
                let link = PcieLink::new(NVLINK_GB_S, NVLINK_LATENCY_NS);
                self.links.insert(i, (key, link));
                &mut self.links[i].1
            }
        }
    }

    /// Models one `from → to` transfer of `bytes` requested at `now`;
    /// returns the `(start, end)` interval on the pair's link.
    pub fn transfer(&mut self, from: u32, to: u32, bytes: u64, now: Ns) -> (Ns, Ns) {
        debug_assert!(from < self.devices && to < self.devices && from != to);
        self.link_mut(from, to)
            .transfer(SpanKind::PeerCopy, bytes, now)
    }

    /// Total bytes moved over every link.
    pub fn bytes_moved(&self) -> u64 {
        self.links.iter().map(|(_, l)| l.bytes_moved()).sum()
    }

    /// The link for an unordered pair, if it has carried traffic.
    pub fn link(&self, a: u32, b: u32) -> Option<&PcieLink> {
        let key = (a.min(b), a.max(b));
        self.links
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.links[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_on_one_link_serialize() {
        // 40_000 B at 40 GB/s is 1000 ns of wire time after 2000 ns of setup.
        let mut f = PeerFabric::nvlink(2);
        let (s1, e1) = f.transfer(0, 1, 40_000, 0);
        assert_eq!((s1, e1), (0, 3000));
        // Second request at t=50 queues behind the first (contention), and
        // the reverse direction shares the same physical link.
        let (s2, e2) = f.transfer(1, 0, 40_000, 50);
        assert_eq!((s2, e2), (3000, 6000));
        assert_eq!(f.bytes_moved(), 80_000);
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let mut f = PeerFabric::nvlink(4);
        let (_, e1) = f.transfer(0, 1, 40_000, 0);
        let (s2, _) = f.transfer(2, 3, 40_000, 0);
        assert_eq!(s2, 0, "0-1 traffic must not delay the 2-3 link");
        assert!(e1 > 0);
        let links = [f.link(0, 1), f.link(2, 3)].map(|l| l.expect("link exists"));
        assert!(links.iter().all(|l| l.timeline.spans().len() == 1));
    }

    #[test]
    fn peer_copies_skip_the_pageable_penalty() {
        // 40 GB/s for 40_000 bytes is 1000 ns of wire time exactly; the
        // pageable staging factor (pcie.rs) must not apply to peer copies.
        let mut f = PeerFabric::nvlink(2);
        let (s, e) = f.transfer(0, 1, 40_000, 0);
        assert_eq!(e - s - NVLINK_LATENCY_NS, 1000);
    }

    #[test]
    fn spans_record_peer_kind() {
        let mut f = PeerFabric::nvlink(2);
        f.transfer(0, 1, 64, 0);
        let link = f.link(1, 0).expect("link exists");
        assert_eq!(link.timeline.spans().len(), 1);
        assert_eq!(link.timeline.spans()[0].kind, SpanKind::PeerCopy);
        assert_eq!(link.timeline.spans()[0].bytes, 64);
    }
}
