//! Edge-list representation (structure-of-arrays).
//!
//! Edge-centric frameworks such as X-Stream and Medusa-style GPU systems
//! store graphs as `(src, dst)` tuples — `2|E|` words of topology, the 1.87×
//! CSR overhead the paper's Table I reports for LiveJournal.

use crate::csr::{Csr, MAX_VERTICES};
use std::fmt;

/// Why an [`EdgeList`] could not be converted to CSR: the parallel arrays
/// disagree on length, the declared vertex count does not fit a CSR, or an
/// endpoint lies outside it. Externally-built edge lists (loaders, FFI) hit
/// these on corrupt input; `try_to_csr` turns them into typed errors
/// instead of panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeListError {
    /// `src`, `dst`, and (when present) `weights` must be equally long.
    LengthMismatch {
        src: usize,
        dst: usize,
        weights: Option<usize>,
    },
    /// The list declares `n` vertices, more than a CSR holds
    /// ([`MAX_VERTICES`]).
    TooManyVertices { n: usize },
    /// Edge `index` references `vertex`, but the list declares only `n`
    /// vertices.
    VertexOutOfRange { index: usize, vertex: u32, n: usize },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::LengthMismatch { src, dst, weights } => {
                write!(f, "parallel arrays disagree: {src} src, {dst} dst")?;
                if let Some(w) = weights {
                    write!(f, ", {w} weights")?;
                }
                Ok(())
            }
            EdgeListError::TooManyVertices { n } => write!(
                f,
                "the list declares {n} vertices, but a CSR holds at most {MAX_VERTICES}"
            ),
            EdgeListError::VertexOutOfRange { index, vertex, n } => write!(
                f,
                "edge {index} references vertex {vertex}, but the list declares {n} vertices"
            ),
        }
    }
}

impl std::error::Error for EdgeListError {}

/// A directed graph as parallel `src`/`dst` (and optional weight) arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    pub src: Vec<u32>,
    pub dst: Vec<u32>,
    pub weights: Option<Vec<u32>>,
    /// Vertex count (not derivable from edges when trailing vertices are
    /// isolated).
    pub n: usize,
}

impl EdgeList {
    pub fn from_csr(g: &Csr) -> EdgeList {
        let m = g.m();
        let mut src = Vec::with_capacity(m);
        let mut dst = Vec::with_capacity(m);
        for v in 0..g.n() as u32 {
            for &d in g.neighbors(v) {
                src.push(v);
                dst.push(d);
            }
        }
        EdgeList {
            src,
            dst,
            weights: g.weights.clone(),
            n: g.n(),
        }
    }

    pub fn m(&self) -> usize {
        self.src.len()
    }

    /// Topology bytes: `2|E|` words (+ weights).
    pub fn topology_bytes(&self) -> u64 {
        let words =
            (self.src.len() + self.dst.len() + self.weights.as_ref().map_or(0, Vec::len)) as u64;
        words * 4
    }

    /// Converts to CSR, assuming the list is well-formed (panics
    /// otherwise). For lists built from untrusted input use
    /// [`EdgeList::try_to_csr`].
    pub fn to_csr(&self) -> Csr {
        // lint: allow(L-PANIC): documented panicking variant; try_to_csr is the fallible API
        self.try_to_csr()
            .expect("EdgeList::to_csr on a malformed list")
    }

    /// Validated conversion to CSR: checks the parallel arrays agree on
    /// length, `n` fits a CSR and every endpoint is inside `[0, n)` before
    /// handing the edges to the (panicking) CSR builder.
    pub fn try_to_csr(&self) -> Result<Csr, EdgeListError> {
        if self.src.len() != self.dst.len()
            || self
                .weights
                .as_ref()
                .is_some_and(|w| w.len() != self.src.len())
        {
            return Err(EdgeListError::LengthMismatch {
                src: self.src.len(),
                dst: self.dst.len(),
                weights: self.weights.as_ref().map(Vec::len),
            });
        }
        if self.n > MAX_VERTICES {
            return Err(EdgeListError::TooManyVertices { n: self.n });
        }
        for (index, (&s, &d)) in self.src.iter().zip(&self.dst).enumerate() {
            let vertex = s.max(d);
            if vertex as usize >= self.n {
                return Err(EdgeListError::VertexOutOfRange {
                    index,
                    vertex,
                    n: self.n,
                });
            }
        }
        Ok(match &self.weights {
            None => {
                let edges: Vec<(u32, u32)> = self
                    .src
                    .iter()
                    .zip(&self.dst)
                    .map(|(&s, &d)| (s, d))
                    .collect();
                Csr::from_edges(self.n, &edges)
            }
            Some(w) => {
                let edges: Vec<(u32, u32, u32)> = self
                    .src
                    .iter()
                    .zip(&self.dst)
                    .zip(w)
                    .map(|((&s, &d), &w)| (s, d, w))
                    .collect();
                Csr::from_weighted_edges(self.n, &edges)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 4), (2, 3), (4, 0)]);
        let el = EdgeList::from_csr(&g);
        assert_eq!(el.m(), 4);
        assert_eq!(el.n, 5);
        assert_eq!(el.to_csr(), g);
    }

    #[test]
    fn weighted_roundtrip() {
        let g = Csr::from_weighted_edges(3, &[(0, 1, 9), (1, 2, 4)]);
        let el = EdgeList::from_csr(&g);
        assert_eq!(el.weights.as_ref().unwrap(), &vec![9, 4]);
        assert_eq!(el.to_csr(), g);
    }

    #[test]
    fn try_to_csr_rejects_malformed_lists() {
        // Parallel arrays of different lengths.
        let el = EdgeList {
            src: vec![0, 1],
            dst: vec![1],
            weights: None,
            n: 3,
        };
        let err = el.try_to_csr().unwrap_err();
        assert_eq!(
            err,
            EdgeListError::LengthMismatch {
                src: 2,
                dst: 1,
                weights: None
            }
        );
        assert!(err.to_string().contains("2 src, 1 dst"), "{err}");
        // Weights out of step with the edges.
        let el = EdgeList {
            src: vec![0, 1],
            dst: vec![1, 2],
            weights: Some(vec![5]),
            n: 3,
        };
        assert!(matches!(
            el.try_to_csr(),
            Err(EdgeListError::LengthMismatch {
                weights: Some(1),
                ..
            })
        ));
        // An endpoint past the declared vertex count, with its position.
        let el = EdgeList {
            src: vec![0, 1],
            dst: vec![1, 9],
            weights: None,
            n: 3,
        };
        let err = el.try_to_csr().unwrap_err();
        assert_eq!(
            err,
            EdgeListError::VertexOutOfRange {
                index: 1,
                vertex: 9,
                n: 3
            }
        );
        assert!(err.to_string().contains("edge 1"), "{err}");
        // A vertex count no CSR can hold.
        let el = EdgeList {
            src: vec![0],
            dst: vec![1],
            weights: None,
            n: u32::MAX as usize,
        };
        let err = el.try_to_csr().unwrap_err();
        assert_eq!(
            err,
            EdgeListError::TooManyVertices {
                n: u32::MAX as usize
            }
        );
        assert!(err.to_string().contains("at most 4294967294"), "{err}");
        // A well-formed list still converts.
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(EdgeList::from_csr(&g).try_to_csr().unwrap(), g);
    }

    #[test]
    fn topology_bytes_is_double_edges() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let el = EdgeList::from_csr(&g);
        assert_eq!(el.topology_bytes(), 2 * 3 * 4);
    }
}
