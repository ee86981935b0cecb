//! Edge-list representation (structure-of-arrays).
//!
//! Edge-centric frameworks such as X-Stream and Medusa-style GPU systems
//! store graphs as `(src, dst)` tuples — `2|E|` words of topology, the 1.87×
//! CSR overhead the paper's Table I reports for LiveJournal.

use crate::csr::Csr;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_csr_lists_every_edge_in_row_order() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 4), (2, 3), (4, 0)]);
        let el = EdgeList::from_csr(&g);
        assert_eq!(el.m(), 4);
        assert_eq!(el.n, 5);
        assert_eq!(el.src, vec![0, 0, 2, 4]);
        assert_eq!(el.dst, vec![1, 4, 3, 0]);
        assert_eq!(el.weights, None);
        let g = Csr::from_weighted_edges(3, &[(0, 1, 9), (1, 2, 4)]);
        assert_eq!(EdgeList::from_csr(&g).weights, Some(vec![9, 4]));
    }

    #[test]
    fn topology_bytes_is_double_edges() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let el = EdgeList::from_csr(&g);
        assert_eq!(el.topology_bytes(), 2 * 3 * 4);
    }
}
