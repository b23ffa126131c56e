//! Fixture corpus for the rule engine.
//!
//! Each fixture under `crates/lint/fixtures/` exercises one rule with
//! positive, negative and waivered cases. Expectations live *inside* the
//! fixtures: a line tagged with a trailing `//~ HL00x` marker must
//! produce exactly that diagnostic on that line, and every untagged line
//! must stay silent — so the assertion is an exact set comparison, not a
//! "contains" check. The HL006/HL008/HL009 workspace-level cases are
//! asserted explicitly because they span files.

use hep_lint::diag::{Diagnostic, Rule};
use hep_lint::{lint, FileInput, Workspace};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Extracts `(line, rule)` expectations from `//~ HLxxx` markers.
fn expected_markers(source: &str) -> Vec<(u32, Rule)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(pos) = line.find("//~") else { continue };
        for word in line[pos + 3..].split_whitespace() {
            if let Some(rule) = Rule::from_id(word) {
                out.push((idx as u32 + 1, rule));
            }
        }
    }
    out.sort();
    out
}

/// Lints one fixture at a virtual workspace path and compares the
/// diagnostics for that file against its inline markers.
fn check_fixture(fixture_name: &str, virtual_path: &str) {
    let source = fixture(fixture_name);
    let expected = expected_markers(&source);
    assert!(!expected.is_empty(), "fixture {fixture_name} has no markers");
    let ws = Workspace {
        files: vec![FileInput { path: virtual_path.into(), source: source.clone() }],
        cargo_toml: "[workspace]\n".into(),
        bench_jsons: vec![],
    };
    let got: Vec<(u32, Rule)> = lint(&ws)
        .into_iter()
        .filter(|d| d.file == virtual_path)
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got, expected,
        "{fixture_name} linted as {virtual_path}: diagnostics disagree with //~ markers"
    );
}

#[test]
fn hl001_hash_iteration() {
    check_fixture("hl001.rs", "crates/core/src/hl001.rs");
    // Scope check: the identical source outside an output-affecting
    // crate's library code raises nothing.
    let source = fixture("hl001.rs");
    let ws = Workspace {
        files: vec![FileInput { path: "crates/procsim/src/hl001.rs".into(), source }],
        cargo_toml: "[workspace]\n".into(),
        bench_jsons: vec![],
    };
    let got: Vec<Diagnostic> = lint(&ws).into_iter().filter(|d| d.rule == Rule::Hl001).collect();
    assert!(got.is_empty(), "HL001 outside output-affecting crates: {got:?}");
}

#[test]
fn hl002_wall_clock() {
    check_fixture("hl002.rs", "crates/core/src/hl002.rs");
}

#[test]
fn hl003_unsafe_hygiene() {
    check_fixture("hl003.rs", "crates/ds/src/hl003.rs");
}

#[test]
fn hl004_env_reads() {
    check_fixture("hl004.rs", "crates/par/src/hl004.rs");
}

#[test]
fn hl005_env_names() {
    check_fixture("hl005.rs", "crates/graph/src/hl005.rs");
}

#[test]
fn hl007_panic_policy() {
    check_fixture("hl007.rs", "crates/graph/src/hl007.rs");
}

#[test]
fn hl010_malformed_waivers() {
    check_fixture("hl010.rs", "crates/core/src/hl010.rs");
}

#[test]
fn diagnostics_carry_exact_locations() {
    // Pin the full file:line:col rendering for one known site: the
    // `.unwrap()` in hl007.rs `positive` sits on line 5 at the column of
    // the `unwrap` identifier.
    let source = fixture("hl007.rs");
    let unwrap_line = 5u32;
    let line_text = source.lines().nth(unwrap_line as usize - 1).expect("line 5 exists");
    let col = line_text.find("unwrap").expect("unwrap on line 5") as u32 + 1;
    let ws = Workspace {
        files: vec![FileInput { path: "crates/graph/src/hl007.rs".into(), source: source.clone() }],
        cargo_toml: "[workspace]\n".into(),
        bench_jsons: vec![],
    };
    let diags = lint(&ws);
    let first = diags.iter().find(|d| d.rule == Rule::Hl007).expect("HL007 diagnostic present");
    assert_eq!((first.line, first.col), (unwrap_line, col));
    assert!(first
        .to_string()
        .starts_with(&format!("crates/graph/src/hl007.rs:{unwrap_line}:{col}: HL007:")));
}

/// HL006: a registered knob with no reference anywhere in the workspace.
/// The registry anchor and the usage corpus are synthesized from the live
/// knob list so the fixture keeps tracking registry growth.
#[test]
fn hl006_unused_knob() {
    let knobs = hep_ds::env_registry::KNOBS;
    assert!(knobs.len() >= 2, "fixture needs at least two knobs");
    let registry_src: String =
        knobs.iter().map(|k| format!("pub const K: &str = \"{}\";\n", k.name)).collect();
    // Reference every knob except the first.
    let usage_src: String =
        knobs[1..].iter().map(|k| format!("pub fn f() {{ let _ = \"{}\"; }}\n", k.name)).collect();
    let ws = Workspace {
        files: vec![
            FileInput { path: "crates/ds/src/env_registry.rs".into(), source: registry_src },
            FileInput { path: "crates/core/src/usages.rs".into(), source: usage_src },
        ],
        cargo_toml: "[workspace]\n".into(),
        bench_jsons: vec![],
    };
    let unused: Vec<Diagnostic> = lint(&ws).into_iter().filter(|d| d.rule == Rule::Hl006).collect();
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert!(unused[0].msg.contains(knobs[0].name));
    assert_eq!(unused[0].file, "crates/ds/src/env_registry.rs");
    assert_eq!(unused[0].line, 1, "anchored at the knob's name literal");
}

/// HL008/HL009: registration and report-name consistency across the
/// bench fixtures and a synthetic facade manifest.
#[test]
fn hl008_hl009_bench_consistency() {
    let toml = "\
[workspace]

[[bench]]
name = \"bench_ok\"
path = \"crates/bench/benches/bench_ok.rs\"

[[bench]]
name = \"bench_noreport\"
path = \"crates/bench/benches/bench_noreport.rs\"

[[bench]]
name = \"dangling\"
path = \"crates/bench/benches/gone.rs\"
";
    let ws = Workspace {
        files: vec![
            FileInput {
                path: "crates/bench/benches/bench_ok.rs".into(),
                source: fixture("bench_ok.rs"),
            },
            FileInput {
                path: "crates/bench/benches/bench_noreport.rs".into(),
                source: fixture("bench_noreport.rs"),
            },
            FileInput {
                path: "crates/bench/benches/bench_collide.rs".into(),
                source: fixture("bench_collide.rs"),
            },
        ],
        cargo_toml: toml.into(),
        bench_jsons: vec!["BENCH_fixture_ok.json".into(), "BENCH_stale.json".into()],
    };
    let diags: Vec<Diagnostic> =
        lint(&ws).into_iter().filter(|d| matches!(d.rule, Rule::Hl008 | Rule::Hl009)).collect();
    let got: Vec<(&str, Rule)> = diags.iter().map(|d| (d.file.as_str(), d.rule)).collect();
    let expected = vec![
        ("BENCH_stale.json", Rule::Hl009), // orphan artifact
        ("Cargo.toml", Rule::Hl008),       // dangling registration
        ("crates/bench/benches/bench_collide.rs", Rule::Hl008), // unregistered file
        ("crates/bench/benches/bench_collide.rs", Rule::Hl009), // name collision
        ("crates/bench/benches/bench_noreport.rs", Rule::Hl009), // no Report::new
    ];
    assert_eq!(got, expected, "{diags:#?}");
    // The dangling entry's diagnostic points at its [[bench]] line.
    let dangling = diags.iter().find(|d| d.file == "Cargo.toml").expect("present");
    assert_eq!(dangling.line, 11);
    // bench_ok is fully consistent: registered, unique name, live artifact.
    assert!(diags.iter().all(|d| d.file != "crates/bench/benches/bench_ok.rs"));
}
