//! Corruption battery for the text edge-list reader, the twin of
//! `binfile_corruption.rs` for HEPB: every malformed file must surface as a
//! **typed [`GraphError`]** — from [`EdgeList::read_text`], or from the
//! partitioner the parsed graph is handed to — never a panic. The accepted
//! forms (CRLF line ends, `#`/`%` comments, a weight column) are pinned as
//! explicit expected edge lists.

use hep::core::Hep;
use hep::graph::partitioner::CollectedAssignment;
use hep::graph::{EdgeList, EdgePartitioner, GraphError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "hep_text_{}_{}_{}.txt",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        name
    ))
}

/// Reads `bytes` as a text edge list from disk.
fn read(bytes: &[u8], name: &str) -> Result<EdgeList, GraphError> {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let result = EdgeList::read_text(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// Reads `bytes` and partitions the result, returning the typed error;
/// panics (failing the test) if the file is accepted end to end.
fn drive(bytes: &[u8], name: &str) -> GraphError {
    let result = read(bytes, name).and_then(|g| {
        let mut sink = CollectedAssignment::default();
        Hep::with_tau(10.0).partition(&g, 4, &mut sink)
    });
    match result {
        Err(e) => e,
        Ok(()) => panic!("corruption case {name:?} was accepted"),
    }
}

fn parse_error_on(line: usize) -> impl Fn(&GraphError) -> bool {
    move |e| matches!(e, GraphError::Parse { line: l, .. } if *l == line)
}

#[test]
fn every_corruption_yields_a_typed_error() {
    type Check = Box<dyn Fn(&GraphError) -> bool>;
    let cases: Vec<(&str, &[u8], Check)> = vec![
        ("non-numeric-token", b"0 1\n2 x\n", Box::new(parse_error_on(2))),
        ("one-token-line", b"0 1\n3\n", Box::new(parse_error_on(2))),
        ("negative-id", b"0 1\n-1 2\n", Box::new(parse_error_on(2))),
        ("id-above-u32-max", b"0 1\n1 4294967296\n", Box::new(parse_error_on(2))),
        // Line numbers are physical: comments and blank lines count.
        ("error-after-comments", b"# header\n\n0 1\nx y\n", Box::new(parse_error_on(4))),
        ("float-id", b"0 1.5\n", Box::new(parse_error_on(1))),
        (
            "id-at-u32-max",
            b"0 1\n1 4294967295\n",
            Box::new(|e| matches!(e, GraphError::VertexOutOfRange { vertex: u32::MAX, .. })),
        ),
        ("invalid-utf8", b"0 1\n\xff\xfe 2\n", Box::new(|e| matches!(e, GraphError::Io(_)))),
        ("empty-file", b"", Box::new(|e| matches!(e, GraphError::EmptyGraph))),
        (
            "comments-only",
            b"# nothing\n% here\n\n",
            Box::new(|e| matches!(e, GraphError::EmptyGraph)),
        ),
    ];
    for (name, bytes, check) in &cases {
        let err = drive(bytes, name);
        assert!(check(&err), "case {name:?}: unexpected error shape: {err:?} ({err})");
    }
}

#[test]
fn accepted_forms_parse_to_the_expected_edge_lists() {
    let expected = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
    let forms: [(&str, &[u8]); 5] = [
        ("plain", b"0 1\n1 2\n2 0\n"),
        ("crlf", b"0 1\r\n1 2\r\n2 0\r\n"),
        ("comments", b"# SNAP header\n0 1\n% KONECT header\n\n1 2\n  # indented\n2 0\n"),
        ("weight-column", b"0 1 0.5\n1 2 7\n2 0 1e3\n"),
        ("tabs-no-final-newline", b"0\t1\n1  2\n2\t0"),
    ];
    for (name, bytes) in forms {
        assert_eq!(read(bytes, name).unwrap(), expected, "form {name:?}");
    }
    // The inferred vertex count is max(id) + 1, isolated ids included.
    let g = read(b"0 5\n", "gap").unwrap();
    assert_eq!(g, EdgeList::with_vertices(6, [(0, 5)]).unwrap());
}
