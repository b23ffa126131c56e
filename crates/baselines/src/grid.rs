//! Grid partitioner (GraphBuilder \[32\]).
//!
//! Stateless constrained hashing: partitions form an `r × c` grid; each
//! vertex hashes to a cell, whose *constraint set* is its whole row and
//! column. An edge goes to the least-loaded partition in the intersection of
//! its endpoints' constraint sets — bounding every vertex's replication by
//! `r + c − 1` while needing only Θ(|E|) work.

use hep_ds::fx::mix64;
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, EdgeList, EdgePartitioner, GraphError, PartitionId};

/// Grid-constrained hash partitioner.
#[derive(Clone, Debug, Default)]
pub struct Grid {
    /// Hash salt.
    pub seed: u64,
}

/// Factors `k = rows * cols` with the sides as close as possible.
fn grid_shape(k: u32) -> (u32, u32) {
    let mut r = (k as f64).sqrt() as u32;
    while r > 1 && !k.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), k / r.max(1))
}

impl Grid {
    fn cell(&self, v: u32, rows: u32, cols: u32) -> (u32, u32) {
        let h = mix64(v as u64 ^ self.seed);
        ((h % rows as u64) as u32, ((h >> 32) % cols as u64) as u32)
    }

    /// Constraint set of a vertex: all partitions in its row or column.
    fn constraint_set(&self, v: u32, rows: u32, cols: u32) -> Vec<PartitionId> {
        let (r, c) = self.cell(v, rows, cols);
        let mut set: Vec<PartitionId> = (0..cols).map(|cc| r * cols + cc).collect();
        for rr in 0..rows {
            if rr != r {
                set.push(rr * cols + c);
            }
        }
        set
    }
}

impl EdgePartitioner for Grid {
    fn name(&self) -> String {
        "Grid".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        let (rows, cols) = grid_shape(k);
        let mut loads = vec![0u64; k as usize];
        for e in &graph.edges {
            let cs_u = self.constraint_set(e.src, rows, cols);
            let cs_v = self.constraint_set(e.dst, rows, cols);
            // Intersection is non-empty: the two cells share a row-column
            // crossing. Pick its least-loaded member.
            let mut best: Option<(u64, PartitionId)> = None;
            for &p in &cs_u {
                if cs_v.contains(&p) {
                    let cand = (loads[p as usize], p);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            // hep-lint: allow(HL007) -- the shard-grid construction guarantees any two constraint sets share a cell
            let (_, p) = best.expect("grid constraint sets always intersect");
            loads[p as usize] += 1;
            sink.assign(e.src, e.dst, p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::{CollectedAssignment, CountingSink};

    #[test]
    fn shapes_are_near_square() {
        assert_eq!(grid_shape(4), (2, 2));
        assert_eq!(grid_shape(32), (4, 8));
        assert_eq!(grid_shape(128), (8, 16));
        assert_eq!(grid_shape(256), (16, 16));
        assert_eq!(grid_shape(7), (1, 7)); // primes degenerate to a row
    }

    #[test]
    fn constraint_sets_intersect() {
        let g = Grid::default();
        for k in [4u32, 32, 128, 256, 6] {
            let (r, c) = grid_shape(k);
            for u in 0..50u32 {
                for v in 0..50u32 {
                    let a = g.constraint_set(u, r, c);
                    let b = g.constraint_set(v, r, c);
                    assert!(a.iter().any(|p| b.contains(p)), "k={k} u={u} v={v}");
                }
            }
        }
    }

    #[test]
    fn vertex_replication_bounded_by_row_plus_col() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 5000, gamma: 2.0 }.generate(4);
        let k = 16;
        let mut sink = CollectedAssignment::default();
        Grid::default().partition(&g, k, &mut sink).unwrap();
        let (rows, cols) = grid_shape(k);
        let mut parts: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); g.num_vertices as usize];
        for (e, p) in &sink.assignments {
            parts[e.src as usize].insert(*p);
            parts[e.dst as usize].insert(*p);
        }
        let bound = (rows + cols - 1) as usize;
        assert!(parts.iter().all(|s| s.len() <= bound));
    }

    #[test]
    fn covers_all_edges() {
        let g = hep_gen::GraphSpec::ErdosRenyi { n: 300, m: 2000 }.generate(8);
        let mut sink = CountingSink::default();
        Grid::default().partition(&g, 32, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), 2000);
    }
}
