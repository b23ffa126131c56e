//! Facade wiring smoke test: every partitioner the workspace ships must be
//! constructible through `hep::prelude::*` and runnable through the
//! `EdgePartitioner` object interface. Catches re-export regressions (a
//! renamed type, a dropped `pub use`, a facade module that stops compiling)
//! before anything subtler does. The README crate map is checked against
//! the workspace members, so a crate added or deleted without its row
//! fails here too, and the bench sources against their `[[bench]]`
//! registrations and report names.

use hep::prelude::*;
use std::path::Path;

/// A graph small enough that even quadratic baselines finish instantly.
fn tiny_graph() -> EdgeList {
    hep::gen::GraphSpec::ChungLu { n: 200, m: 800, gamma: 2.2 }.generate(11)
}

#[test]
fn every_partitioner_is_constructible_and_runs_via_prelude() {
    let graph = tiny_graph();
    let k = 4;
    let partitioners: Vec<(&str, Box<dyn EdgePartitioner>)> = vec![
        ("HEP", Box::new(Hep::with_tau(10.0))),
        ("HEP(config)", Box::new(Hep { config: HepConfig::default() })),
        ("SimpleHybrid", Box::new(SimpleHybrid::with_tau(10.0))),
        ("NE", Box::new(Ne::default())),
        ("SNE", Box::new(Sne::default())),
        ("HDRF", Box::new(Hdrf::default())),
        ("ADWISE", Box::new(Adwise::default())),
        ("DBH", Box::new(Dbh::default())),
        ("DNE", Box::new(Dne::default())),
        ("METIS-like", Box::new(MetisLike::default())),
        ("Random", Box::new(RandomStreaming::default())),
    ];
    for (name, mut p) in partitioners {
        let mut metrics = PartitionMetrics::new(k, graph.num_vertices);
        p.partition(&graph, k, &mut metrics)
            .unwrap_or_else(|e| panic!("{name} failed on the smoke graph: {e}"));
        let rf = metrics.replication_factor();
        assert!(rf >= 1.0, "{name}: replication factor {rf} < 1");
    }
}

#[test]
fn facade_modules_resolve() {
    // One load-bearing symbol per re-exported crate, so a broken module
    // alias fails here by name.
    let _ = hep::ds::SplitMix64::new(1);
    let _ = hep::graph::EdgeList::from_pairs([(0, 1)]);
    let _ = hep::gen::GraphSpec::ChungLu { n: 4, m: 4, gamma: 2.0 };
    let _ = hep::metrics::Table::new(["a"]);
    let _ = hep::core::HepConfig::default();
    let _ = hep::baselines::standard_baselines();
    let _ = hep::procsim::ClusterCost::default();
    let _ = hep::pagesim::LruPageCache::new(16);
    let _: fn(&str) -> Option<hep::gen::Dataset> = |n| hep::gen::dataset(n, 1);
}

#[test]
fn error_type_is_exported_and_matchable() {
    let graph = tiny_graph();
    let mut metrics = PartitionMetrics::new(0, graph.num_vertices);
    match Hep::with_tau(10.0).partition(&graph, 0, &mut metrics) {
        Err(GraphError::InvalidPartitionCount { k: 0 }) => {}
        other => panic!("expected InvalidPartitionCount for k = 0, got {other:?}"),
    }
}

/// Reads a file at the repository root.
fn read_root_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn readme_crate_map_matches_workspace_members() {
    let readme = read_root_file("README.md");
    let map = readme.split("## Crate map").nth(1).expect("README has a `## Crate map` section");
    let map = map.split("\n## ").next().unwrap_or(map);
    // Rows look like "| `hep-core` | `crates/core` | ... |"; the header and
    // separator rows have no backticked name.
    let mut documented: Vec<String> = map
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let path = line.split('|').nth(2).expect("crate-map row has a path column");
            path.trim().trim_matches('`').to_string()
        })
        .collect();
    documented.sort();

    let manifest = read_root_file("Cargo.toml");
    let members = manifest.split("members = [").nth(1).expect("root Cargo.toml lists members");
    let members = members.split(']').next().expect("members list is closed");
    // The facade package at the root is a member without a `members` entry.
    let mut workspace: Vec<String> = std::iter::once(".".to_string())
        .chain(
            members
                .split(',')
                .map(|m| m.trim().trim_matches('"').to_string())
                .filter(|m| !m.is_empty() && !m.starts_with("crates/compat/")),
        )
        .collect();
    workspace.sort();

    assert_eq!(
        documented, workspace,
        "the README crate map's path column must list exactly the workspace members \
         (vendored crates/compat/* stand-ins excepted)"
    );
}

/// The `(name, path)` of every `[[bench]]` entry in the root manifest.
fn bench_entries(manifest: &str) -> Vec<(String, String)> {
    let value = |section: &str, key: &str| -> String {
        section
            .lines()
            .find_map(|line| line.trim().strip_prefix(key)?.trim_start().strip_prefix('='))
            .unwrap_or_else(|| panic!("[[bench]] entry without `{key}`:{section}"))
            .trim()
            .trim_matches('"')
            .to_string()
    };
    manifest
        .split("[[bench]]")
        .skip(1)
        .map(|section| section.split("\n[").next().unwrap_or(section))
        .map(|section| (value(section, "name"), value(section, "path")))
        .collect()
}

#[test]
fn bench_sources_registrations_and_reports_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = bench_entries(&read_root_file("Cargo.toml"));
    assert!(!entries.is_empty(), "the root manifest registers no [[bench]] targets");

    // Every bench source is registered, and every registration exists.
    let dir = root.join("crates/bench/benches");
    let mut sources: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").file_name())
        .filter_map(|name| name.to_str().filter(|n| n.ends_with(".rs")).map(str::to_string))
        .map(|name| format!("crates/bench/benches/{name}"))
        .collect();
    sources.sort();
    let mut registered: Vec<String> = entries.iter().map(|(_, path)| path.clone()).collect();
    registered.sort();
    assert_eq!(sources, registered, "crates/bench/benches/*.rs and the [[bench]] paths differ");

    // Each bench writes exactly one BENCH_<name>.json, under a name no
    // other bench uses, so no run overwrites another's report.
    let mut report_names = Vec::new();
    for (bench, path) in &entries {
        let text = read_root_file(path);
        let calls: Vec<&str> = text.split("Report::new(\"").skip(1).collect();
        assert_eq!(calls.len(), 1, "bench {bench} must call Report::new(\"<name>\") once");
        let name = calls[0].split('"').next().unwrap_or_default().to_string();
        assert!(!report_names.contains(&name), "bench {bench} reuses report name {name:?}");
        report_names.push(name);
    }
}
