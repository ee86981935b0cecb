//! `eta-graph` — the graph substrate of the EtaGraph reproduction.
//!
//! Provides every graph-side ingredient the paper's evaluation needs:
//!
//! * [`csr`] — Compressed Sparse Row, the paper's canonical (and most
//!   space-efficient, Table I) representation.
//! * [`edgelist`] / [`gshard`] / [`vst`] — the competing representations of
//!   Table I: plain edge tuples, CuSha's G-Shards, and Tigr's materialized
//!   Virtual Split Transformation.
//! * [`generate`] — deterministic R-MAT (PaRMAT parameters) and web-like
//!   generators.
//! * [`datasets`] — the seven scaled analogs of Table II.
//! * [`io`] — Galois-style binary CSR container.
//! * [`analysis`] — connected components / %LCC / activation fractions.
//! * [`mod@reference`] — CPU oracles used to validate
//!   every GPU framework in the test suite.

pub mod analysis;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod generate;
pub mod gshard;
pub mod io;
pub mod reference;
pub mod vst;

pub use csr::{Csr, GraphStats, INF, MAX_VERTICES};
pub use datasets::Dataset;
pub use edgelist::EdgeList;
pub use gshard::GShards;
pub use vst::Vst;
