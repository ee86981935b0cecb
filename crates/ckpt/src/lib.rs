//! Iteration-granular checkpoint/resume for simulated traversals.
//!
//! A long BFS on oversubscribed Unified Memory can spend most of its
//! simulated wall-clock migrating pages; a device fault near the end throws
//! all of it away if the only recovery is restart-from-scratch. This crate
//! is the training-stack answer scaled down to traversal queries: snapshot
//! the engine state at iteration boundaries, and let the serving layer
//! resume from the last good frontier — on the same device after a
//! re-probe, or migrated to a healthy one.
//!
//! The crate is deliberately engine-agnostic: it defines *what a checkpoint
//! is* ([`Checkpoint`], [`CkptState`]), *when to take one* ([`CkptPolicy`]),
//! *where a run's snapshot lives* ([`CkptSink`]; a parked serving job owns
//! its own), and *how a resume is validated* ([`Checkpoint::validate`]
//! against a graph-content digest). The engine hooks that fill these types
//! in live in `eta-core`; the ladder that consumes them lives in
//! `eta-serve`.
//!
//! Everything here is plain host-side data on the simulated clock — no
//! wall time, no I/O — so checkpointed runs stay byte-deterministic.

use serde::Serialize;

/// Simulated nanoseconds (mirrors `eta_sim::Ns` without the dependency).
pub type Ns = u64;

/// Why a checkpoint could not be resumed. `Copy` so it can ride inside
/// `QueryError` (which is `Copy`) without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptError {
    /// The checkpoint was taken against a different graph epoch: the
    /// content digest of the resident graph does not match.
    GraphDigest { expected: u64, actual: u64 },
    /// The vertex count baked into the checkpoint does not match the
    /// graph it is being resumed against.
    VertexCount { expected: u32, actual: u32 },
    /// The checkpoint carries state for a different algorithm or batch
    /// shape than the resuming run expects.
    StateShape,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::GraphDigest { expected, actual } => write!(
                f,
                "checkpoint graph digest mismatch (checkpoint {expected:#018x}, graph {actual:#018x})"
            ),
            CkptError::VertexCount { expected, actual } => write!(
                f,
                "checkpoint vertex count mismatch (checkpoint {expected}, graph {actual})"
            ),
            CkptError::StateShape => {
                write!(f, "checkpoint state does not match the resuming run's shape")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Algorithm-specific engine state captured at an iteration boundary.
///
/// Each variant holds exactly the words a resume needs to reproduce the
/// uninterrupted run byte-for-byte; anything recomputable deterministically
/// from the graph (e.g. PageRank's static UDC queue) is *not* stored.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptState {
    /// `multi_bfs` (iBFS) state: per-vertex fresh/joint reach masks, the
    /// packed per-vertex level words, and the active frontier *in queue
    /// order* (order is what makes the resumed propagation byte-identical).
    MultiBfs {
        sources: Vec<u32>,
        fresh: Vec<u32>,
        joint: Vec<u32>,
        levels: Vec<u32>,
        frontier: Vec<u32>,
    },
    /// Single-source `Engine` state: labels, visit tags, and the frontier.
    SingleSource {
        source: u32,
        labels: Vec<u32>,
        tags: Vec<u32>,
        frontier: Vec<u32>,
    },
    /// PageRank state: rank words (`f32::to_bits`) after a completed
    /// apply step; `next_ranks` is zero at every boundary by construction.
    PageRank { ranks_bits: Vec<u32> },
}

impl CkptState {
    /// Short tag for profiling/report output.
    pub fn kind(&self) -> &'static str {
        match self {
            CkptState::MultiBfs { .. } => "multi_bfs",
            CkptState::SingleSource { .. } => "single_source",
            CkptState::PageRank { .. } => "pagerank",
        }
    }

    /// The active frontier in queue order, for the states that carry one.
    pub fn frontier(&self) -> Option<&[u32]> {
        match self {
            CkptState::MultiBfs { frontier, .. } | CkptState::SingleSource { frontier, .. } => {
                Some(frontier)
            }
            CkptState::PageRank { .. } => None,
        }
    }

    /// Number of 32-bit words in the snapshot payload (sizing/accounting).
    pub fn payload_words(&self) -> u64 {
        let len = |v: &Vec<u32>| v.len() as u64;
        match self {
            CkptState::MultiBfs {
                sources,
                fresh,
                joint,
                levels,
                frontier,
            } => len(sources) + len(fresh) + len(joint) + len(levels) + len(frontier),
            CkptState::SingleSource {
                labels,
                tags,
                frontier,
                ..
            } => 1 + len(labels) + len(tags) + len(frontier),
            CkptState::PageRank { ranks_bits } => len(ranks_bits),
        }
    }
}

/// One snapshot of a run at an iteration boundary on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Content digest of the graph epoch the snapshot was taken against
    /// (see [`digest_words`]); a resume against a different graph is a
    /// named error, not silent corruption.
    pub graph_digest: u64,
    /// Vertex count of that graph, double-checked on resume.
    pub n: u32,
    /// Completed iterations at the time of the snapshot. A resume starts
    /// the next iteration from here; this is also the `work_saved` figure.
    pub iteration: u32,
    /// Simulated-clock cursor at snapshot time. The kernels themselves are
    /// PRNG-free, so the clock cursor is the only "random state" a resume
    /// needs to reason about (and the resumed run gets its *own* clock —
    /// this field is provenance, not replay input).
    pub taken_at_ns: Ns,
    /// Algorithm-specific payload.
    pub state: CkptState,
}

impl Checkpoint {
    /// Validates the snapshot against the graph it is about to resume on.
    pub fn validate(&self, graph_digest: u64, n: u32) -> Result<(), CkptError> {
        if self.graph_digest != graph_digest {
            return Err(CkptError::GraphDigest {
                expected: self.graph_digest,
                actual: graph_digest,
            });
        }
        if self.n != n {
            return Err(CkptError::VertexCount {
                expected: self.n,
                actual: n,
            });
        }
        Ok(())
    }

    /// Payload size in 32-bit words.
    pub fn payload_words(&self) -> u64 {
        self.state.payload_words()
    }
}

/// When to take checkpoints: every `interval` completed iterations.
/// `interval == 0` disables checkpointing entirely (and must be byte-inert:
/// a run with a disabled policy is identical to one with no policy at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CkptPolicy {
    pub interval: u32,
}

impl CkptPolicy {
    pub fn every(interval: u32) -> Self {
        CkptPolicy { interval }
    }

    fn disabled() -> Self {
        CkptPolicy { interval: 0 }
    }

    pub fn is_enabled(&self) -> bool {
        self.interval > 0
    }

    /// Is a snapshot due after `iteration` completed iterations?
    pub fn due(&self, iteration: u32) -> bool {
        self.interval > 0 && iteration > 0 && iteration.is_multiple_of(self.interval)
    }
}

/// Per-run checkpoint receiver: keeps the most recent snapshot plus
/// counters for the report. The engine writes into this; after a faulted
/// run the caller takes the survivor out and hands it to the store.
#[derive(Debug, Default)]
pub struct CkptSink {
    pub policy: CkptPolicy,
    last: Option<Checkpoint>,
    /// Snapshots taken over the sink's lifetime.
    pub taken: u32,
    /// Total payload words across all snapshots taken (accounting).
    pub words: u64,
}

impl Default for CkptPolicy {
    fn default() -> Self {
        CkptPolicy::disabled()
    }
}

impl CkptSink {
    pub fn every(interval: u32) -> Self {
        CkptSink {
            policy: CkptPolicy::every(interval),
            last: None,
            taken: 0,
            words: 0,
        }
    }

    /// Stores a snapshot, replacing any previous one (only the latest
    /// boundary matters for resume).
    pub fn store(&mut self, ck: Checkpoint) {
        self.taken += 1;
        self.words += ck.payload_words();
        self.last = Some(ck);
    }

    /// The most recent snapshot, if any (non-consuming view).
    pub fn last(&self) -> Option<&Checkpoint> {
        self.last.as_ref()
    }

    /// Takes the most recent snapshot out of the sink.
    pub fn take(&mut self) -> Option<Checkpoint> {
        self.last.take()
    }
}

/// Borrowed checkpoint control handed into an engine run: an optional sink
/// to emit into, an optional snapshot to resume from, and the digest of the
/// graph actually resident on the device (for validation). `CkptCtl::off()`
/// is the byte-inert default every legacy entry point uses.
#[derive(Debug, Default)]
pub struct CkptCtl<'a> {
    pub sink: Option<&'a mut CkptSink>,
    pub resume: Option<&'a Checkpoint>,
    pub graph_digest: u64,
}

impl<'a> CkptCtl<'a> {
    /// No checkpointing, no resume: the run must be byte-identical to one
    /// compiled before this crate existed.
    pub fn off() -> Self {
        CkptCtl {
            sink: None,
            resume: None,
            graph_digest: 0,
        }
    }

    pub fn with_sink(sink: &'a mut CkptSink, graph_digest: u64) -> Self {
        CkptCtl {
            sink: Some(sink),
            resume: None,
            graph_digest,
        }
    }

    pub fn resuming(sink: &'a mut CkptSink, resume: &'a Checkpoint, graph_digest: u64) -> Self {
        CkptCtl {
            sink: Some(sink),
            resume: Some(resume),
            graph_digest,
        }
    }
}

/// FNV-1a (64-bit) over a sequence of word slices, length-prefixed so that
/// `[[1],[2]]` and `[[1,2]]` digest differently. Used both for graph-epoch
/// digests (`Csr::digest`) and for result digests in differential tests.
pub fn digest_words(parts: &[&[u32]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |w: u64| {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for part in parts {
        eat(part.len() as u64);
        for &w in part.iter() {
            eat(w as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iter: u32) -> Checkpoint {
        Checkpoint {
            graph_digest: 0xabcd,
            n: 4,
            iteration: iter,
            taken_at_ns: 100 * iter as u64,
            state: CkptState::MultiBfs {
                sources: vec![0, 1],
                fresh: vec![1, 0, 0, 2],
                joint: vec![1, 0, 0, 2],
                levels: vec![0; 8],
                frontier: vec![0, 3],
            },
        }
    }

    #[test]
    fn policy_due_only_at_multiples_and_never_when_disabled() {
        let p = CkptPolicy::every(3);
        assert!(!p.due(0), "iteration 0 is the initial state, not progress");
        assert!(!p.due(1));
        assert!(p.due(3));
        assert!(!p.due(4));
        assert!(p.due(6));
        let off = CkptPolicy::disabled();
        assert!(!off.is_enabled());
        for it in 0..10 {
            assert!(!off.due(it));
        }
    }

    #[test]
    fn validate_names_each_mismatch() {
        let ck = sample(2);
        assert!(ck.validate(0xabcd, 4).is_ok());
        assert_eq!(
            ck.validate(0x1234, 4),
            Err(CkptError::GraphDigest {
                expected: 0xabcd,
                actual: 0x1234
            })
        );
        assert_eq!(
            ck.validate(0xabcd, 5),
            Err(CkptError::VertexCount {
                expected: 4,
                actual: 5
            })
        );
        let msg = ck.validate(0x1234, 4).unwrap_err().to_string();
        assert!(msg.contains("digest mismatch"), "{msg}");
    }

    #[test]
    fn sink_keeps_only_the_latest_snapshot_but_counts_all() {
        let mut sink = CkptSink::every(2);
        assert!(sink.policy.is_enabled());
        sink.store(sample(2));
        sink.store(sample(4));
        assert_eq!(sink.taken, 2);
        assert_eq!(sink.words, 2 * sample(2).payload_words());
        assert_eq!(sink.last().unwrap().iteration, 4);
        let got = sink.take().unwrap();
        assert_eq!(got.iteration, 4);
        assert!(sink.take().is_none(), "take drains the sink");
    }

    #[test]
    fn payload_words_counts_every_array() {
        let ck = sample(1);
        // 2 sources + 4 fresh + 4 joint + 8 levels + 2 frontier.
        assert_eq!(ck.payload_words(), 20);
        let pr = CkptState::PageRank {
            ranks_bits: vec![0; 7],
        };
        assert_eq!(pr.payload_words(), 7);
        assert_eq!(pr.kind(), "pagerank");
        let ss = CkptState::SingleSource {
            source: 0,
            labels: vec![0; 3],
            tags: vec![0; 3],
            frontier: vec![0],
        };
        assert_eq!(ss.payload_words(), 1 + 3 + 3 + 1);
    }

    #[test]
    fn digest_is_length_prefixed_and_order_sensitive() {
        assert_eq!(digest_words(&[&[1, 2]]), digest_words(&[&[1, 2]]));
        assert_ne!(digest_words(&[&[1, 2]]), digest_words(&[&[2, 1]]));
        assert_ne!(digest_words(&[&[1], &[2]]), digest_words(&[&[1, 2]]));
        assert_ne!(digest_words(&[&[]]), digest_words(&[]));
    }

    #[test]
    fn ctl_off_is_fully_disabled() {
        let ctl = CkptCtl::off();
        assert!(ctl.sink.is_none());
        assert!(ctl.resume.is_none());
    }
}
