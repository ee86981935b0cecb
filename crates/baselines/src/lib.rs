//! `eta-baselines` — the three GPU graph frameworks the paper compares
//! against, re-implemented as execution models on the shared simulator:
//!
//! * [`cusha`] — CuSha (Khorasani et al., HPDC'14): G-Shards edge-centric
//!   processing with shared-memory destination windows; perfectly coalesced
//!   but frontier-less (touches all edges every iteration) and
//!   space-hungry.
//! * [`gunrock`] — Gunrock (Wang et al., PPoPP'16): frontier advance +
//!   filter with thread/warp load-balanced mapping and generously sized
//!   work buffers.
//! * [`tigr`] — Tigr (Sabet et al., ASPLOS'18): materialized Virtual Split
//!   Transformation traversed with a frontier, full upfront copy.
//! * [`chunkstream`] — a GTS-like fixed-chunk topology streamer, the
//!   transfer/compute-overlap design §I criticizes for wasted work.
//!
//! Each framework allocates its *real* data structures through the device
//! allocator, so the out-of-memory entries of Table III fall out of actual
//! allocation failures rather than hand-written special cases. Each keeps
//! its own iteration loop but runs every launch, copy and readback on the
//! driver's [`etagraph::driver::Lane`] — one clock rule, one counter sum,
//! one fault poll, one [`etagraph::RunResult`] assembly for all five
//! frameworks (EtaGraph is wrapped in [`EtaFramework`]) — so Table III
//! compares execution models, not harnesses, and whatever is attached to
//! the device (sanitizer, profiler, a `--faults` plan) applies to every
//! `--framework` alike. Labels are validated against the CPU references in
//! the test suite.

pub mod chunkstream;
pub mod cusha;
pub mod framework;
pub mod gunrock;
pub mod tigr;

pub use chunkstream::ChunkStream;
pub use cusha::CushaLike;
pub use framework::{run_fresh, EtaFramework, Framework, FrameworkError};
pub use gunrock::GunrockLike;
pub use tigr::TigrLike;
