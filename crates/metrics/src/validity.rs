//! Exactly-once assignment validation (§2: the partitions are disjoint and
//! cover `E`). Used as a guard by the experiment harness: an experiment that
//! reports metrics for an invalid partitioning would be meaningless.
//!
//! The check runs concurrently on the `hep-par` pool: fixed chunks of both
//! edge streams are canonicalized and bucketed into a fixed number of hash
//! shards in parallel, then each shard independently verifies multiset
//! equality between its slice of the graph and its slice of the assignment.
//! Both decompositions depend only on the input (never the worker count),
//! and the reported violation is the one from the lowest-numbered shard, so
//! the verdict — including the error text — is deterministic at any
//! `HEP_THREADS` setting.

use hep_ds::{FxHashMap, FxHasher};
use hep_graph::partitioner::CollectedAssignment;
use hep_graph::{Edge, EdgeList};
use std::hash::{Hash, Hasher};

/// Hash shards for the concurrent multiset check (constant: part of the
/// deterministic decomposition).
const SHARDS: usize = 32;
/// Edges per bucketing chunk (constant, same reason).
const CHUNK: usize = 65_536;

fn shard_of(e: &Edge) -> usize {
    let mut h = FxHasher::default();
    e.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Canonicalizes a chunk's edges into per-shard buckets.
fn bucket(edges: &[Edge]) -> Vec<Vec<Edge>> {
    let mut buckets = vec![Vec::new(); SHARDS];
    for e in edges {
        let c = e.canonical();
        buckets[shard_of(&c)].push(c);
    }
    buckets
}

/// Checks that `assignment` places every edge of `graph` exactly once on a
/// partition `< k`. Returns a human-readable description of the first
/// violation (first by shard, deterministically).
pub fn validate_assignment(
    graph: &EdgeList,
    assignment: &CollectedAssignment,
    k: u32,
) -> Result<(), String> {
    if assignment.assignments.len() != graph.edges.len() {
        return Err(format!(
            "assigned {} edges but the graph has {}",
            assignment.assignments.len(),
            graph.edges.len()
        ));
    }
    // Phase 1: concurrent partition-range check + canonical bucketing of
    // the assigned edges, and canonical bucketing of the graph's edges.
    let assigned_chunks = hep_par::par_chunks(&assignment.assignments, CHUNK, |_, chunk| {
        let mut buckets = vec![Vec::new(); SHARDS];
        let mut range_err = None;
        for (e, p) in chunk {
            if *p >= k && range_err.is_none() {
                range_err =
                    Some(format!("edge {e:?} assigned to out-of-range partition {p} (k={k})"));
            }
            let c = e.canonical();
            buckets[shard_of(&c)].push(c);
        }
        (buckets, range_err)
    });
    // First out-of-range violation in chunk order (= assignment order).
    if let Some(err) = assigned_chunks.iter().find_map(|(_, e)| e.clone()) {
        return Err(err);
    }
    let graph_chunks = hep_par::par_chunks(&graph.edges, CHUNK, |_, chunk| bucket(chunk));
    // Phase 2: per-shard multiset equality, concurrently; each shard sees
    // every occurrence of its edges and none of any other shard's.
    // Each shard reports (scan violation, leftover violation); scan
    // violations outrank leftovers globally, mirroring the serial check
    // (a double assignment always implies some other edge went missing —
    // report the cause, not the symptom).
    let verdicts = hep_par::Pool::current().par_map(SHARDS, |s| {
        let mut expect: FxHashMap<Edge, i64> = FxHashMap::default();
        for chunk in &graph_chunks {
            for e in &chunk[s] {
                *expect.entry(*e).or_insert(0) += 1;
            }
        }
        for (chunk, _) in &assigned_chunks {
            for e in &chunk[s] {
                match expect.get_mut(e) {
                    Some(c) if *c > 0 => *c -= 1,
                    Some(_) => return (Some(format!("edge {e:?} assigned more than once")), None),
                    None => return (Some(format!("edge {e:?} does not exist in the input")), None),
                }
            }
        }
        // Report the smallest offending edge so the message is stable
        // across hasher layouts, not whichever the map yields first.
        #[expect(
            clippy::disallowed_methods,
            reason = "reduced with min(); the result is independent of iteration order"
        )]
        let leftover = expect
            .iter()
            .filter(|&(_, &c)| c != 0)
            .map(|(e, _)| *e)
            .min_by_key(|e| (e.src, e.dst))
            .map(|e| format!("edge {e:?} never assigned"));
        (None, leftover)
    });
    if let Some(err) = verdicts.iter().find_map(|(scan, _)| scan.clone()) {
        return Err(err);
    }
    match verdicts.into_iter().find_map(|(_, leftover)| leftover) {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::AssignSink;

    fn graph() -> EdgeList {
        EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn accepts_valid_assignment() {
        let g = graph();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        a.assign(2, 1, 1); // reversed direction still matches canonically
        a.assign(2, 0, 1);
        assert!(validate_assignment(&g, &a, 2).is_ok());
    }

    #[test]
    fn rejects_missing_edge() {
        let g = graph();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        a.assign(1, 2, 1);
        let err = validate_assignment(&g, &a, 2).unwrap_err();
        assert!(err.contains("assigned 2 edges"), "{err}");
    }

    #[test]
    fn rejects_double_assignment() {
        let g = graph();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        a.assign(1, 0, 1);
        a.assign(1, 2, 1);
        let err = validate_assignment(&g, &a, 2).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn rejects_phantom_edge() {
        let g = graph();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        a.assign(1, 2, 1);
        a.assign(0, 3, 1);
        let err = validate_assignment(&g, &a, 2).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_partition() {
        let g = graph();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 5);
        a.assign(1, 2, 0);
        a.assign(2, 0, 1);
        let err = validate_assignment(&g, &a, 2).unwrap_err();
        assert!(err.contains("out-of-range"), "{err}");
    }

    #[test]
    fn duplicate_input_edges_need_matching_multiplicity() {
        let g = EdgeList::from_pairs([(0, 1), (0, 1)]);
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        a.assign(1, 0, 1);
        assert!(validate_assignment(&g, &a, 2).is_ok());
    }
}
