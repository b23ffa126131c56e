//! Failure injection: every public entry point must reject invalid inputs
//! with a descriptive error instead of panicking or producing garbage.

use hep::graph::partitioner::CollectedAssignment;
use hep::graph::{Edge, EdgeList, EdgePartitioner, GraphError};

fn tiny_graph() -> EdgeList {
    EdgeList::from_pairs([(0, 1), (1, 2)])
}

fn all_partitioners() -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(hep::core::Hep::with_tau(10.0)),
        Box::new(hep::core::SimpleHybrid::with_tau(10.0)),
        Box::new(hep::baselines::Ne::default()),
        Box::new(hep::baselines::Sne::default()),
        Box::new(hep::baselines::Dne::default()),
        Box::new(hep::baselines::MetisLike::default()),
        Box::new(hep::baselines::Hdrf::default()),
        Box::new(hep::baselines::Adwise::default()),
        Box::new(hep::baselines::Dbh::default()),
        Box::new(hep::baselines::RandomStreaming::default()),
    ]
}

#[test]
fn every_partitioner_rejects_k_below_2() {
    for mut p in all_partitioners() {
        let mut sink = CollectedAssignment::default();
        for k in [0, 1] {
            match p.partition(&tiny_graph(), k, &mut sink) {
                Err(GraphError::InvalidPartitionCount { .. }) => {}
                other => panic!("{} accepted k={k}: {other:?}", p.name()),
            }
        }
    }
}

#[test]
fn every_partitioner_rejects_empty_graph() {
    let empty = EdgeList::from_pairs(std::iter::empty());
    for mut p in all_partitioners() {
        let mut sink = CollectedAssignment::default();
        match p.partition(&empty, 4, &mut sink) {
            Err(GraphError::EmptyGraph) => {}
            other => panic!("{} accepted an empty graph: {other:?}", p.name()),
        }
    }
}

#[test]
fn every_partitioner_rejects_out_of_range_ids() {
    // `EdgeList`'s fields are public, so an edge can name an id past
    // `num_vertices`: a typed error, never an index panic.
    let bad = EdgeList {
        num_vertices: 3,
        edges: vec![Edge::new(0, 1), Edge::new(1, 7), Edge::new(2, 0)],
    };
    for mut p in all_partitioners() {
        let mut sink = CollectedAssignment::default();
        match p.partition(&bad, 2, &mut sink) {
            Err(GraphError::VertexOutOfRange { vertex: 7, num_vertices: 3 }) => {}
            other => panic!("{} accepted an out-of-range id: {other:?}", p.name()),
        }
    }
}

#[test]
fn hep_rejects_invalid_config() {
    let g = tiny_graph();
    let mut sink = CollectedAssignment::default();
    for tau in [0.0, -5.0, f64::NAN] {
        assert!(
            hep::core::Hep::with_tau(tau).partition(&g, 2, &mut sink).is_err(),
            "tau={tau} accepted"
        );
    }
    let mut bad_alpha = hep::core::Hep::with_tau(10.0);
    bad_alpha.config.alpha = 0.5;
    assert!(bad_alpha.partition(&g, 2, &mut sink).is_err());
    let mut bad_lambda = hep::core::Hep::with_tau(10.0);
    bad_lambda.config.lambda = -1.0;
    assert!(bad_lambda.partition(&g, 2, &mut sink).is_err());
}

#[test]
fn graph_io_rejects_malformed_files() {
    let mut p = std::env::temp_dir();
    p.push(format!("hep_failure_{}.bin", std::process::id()));
    std::fs::write(&p, [1u8, 2, 3, 4, 5]).unwrap();
    assert!(matches!(EdgeList::read_binary(&p), Err(GraphError::TruncatedBinary { bytes: 5 })));
    std::fs::write(&p, "1 2\nbroken line\n").unwrap();
    assert!(matches!(EdgeList::read_text(&p), Err(GraphError::Parse { line: 2, .. })));
    std::fs::remove_file(&p).ok();
    assert!(EdgeList::read_binary("/nonexistent/path.bin").is_err());
}

#[test]
fn file_ids_at_u32_max_are_rejected_not_overflowed() {
    // An id of u32::MAX would need num_vertices = 2^32, which a u32 count
    // cannot hold: `max(id) + 1` must not overflow into a tiny vertex
    // count next to an edge on vertex 4,294,967,295.
    let mut p = std::env::temp_dir();
    p.push(format!("hep_failure_u32max_{}", std::process::id()));
    let want = |r: Result<EdgeList, GraphError>| {
        matches!(r, Err(GraphError::VertexOutOfRange { vertex: u32::MAX, .. }))
    };
    std::fs::write(&p, "0 1\n1 4294967295\n").unwrap();
    assert!(want(EdgeList::read_text(&p)), "text reader");
    let pairs: Vec<u8> = [0u32, 1, 1, u32::MAX].iter().flat_map(|id| id.to_le_bytes()).collect();
    std::fs::write(&p, pairs).unwrap();
    assert!(want(EdgeList::read_binary(&p)), "raw pair reader");
    // One below the boundary is the largest id a file may name.
    std::fs::write(&p, "0 4294967294\n").unwrap();
    let g = EdgeList::read_text(&p).unwrap();
    std::fs::remove_file(&p).ok();
    assert_eq!(g.num_vertices, u32::MAX);
}

#[test]
fn with_vertices_rejects_out_of_range_ids() {
    assert!(matches!(
        EdgeList::with_vertices(2, [(0, 5)]),
        Err(GraphError::VertexOutOfRange { vertex: 5, num_vertices: 2 })
    ));
}

#[test]
fn planner_rejects_degenerate_grids() {
    let g = tiny_graph();
    for tau in [0.0, -1.0, f64::NAN] {
        let plan = hep::core::plan_ingest(&g.degrees(), g.mean_degree(), tau, Some(1000), 0);
        assert!(matches!(plan, Err(GraphError::InvalidConfig(_))), "tau={tau}: {plan:?}");
    }
}

#[test]
fn duplicate_and_loop_inputs_are_canonicalized_not_crashed() {
    let mut g = EdgeList::from_pairs([(0, 0), (0, 1), (1, 0), (0, 1), (1, 1)]);
    g.canonicalize();
    assert_eq!(g.num_edges(), 1);
    let mut sink = CollectedAssignment::default();
    hep::core::Hep::with_tau(10.0).partition(&g, 2, &mut sink).expect("partition");
    assert_eq!(sink.assignments.len(), 1);
}

#[test]
fn isolated_vertices_are_tolerated_everywhere() {
    let g = EdgeList::with_vertices(100, [(0, 1), (1, 2), (2, 3)]).unwrap();
    for mut p in all_partitioners() {
        let mut sink = CollectedAssignment::default();
        p.partition(&g, 2, &mut sink).unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
        assert_eq!(sink.assignments.len(), 3, "{}", p.name());
        sink.assignments.clear();
    }
}
