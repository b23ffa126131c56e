//! The README's environment-knob table is generated from the registry
//! (`env_registry::markdown_table`), never hand-edited. This test fails
//! whenever the two drift: add a knob without regenerating the table, or
//! edit the table without touching the registry, and the build says so.
//! The registry and the source tree are checked against each other too:
//! every knob-name literal must be registered, and every registered knob
//! must be read somewhere.

use hep_ds::env_registry::{is_registered, KNOBS};
use std::path::{Path, PathBuf};

const BEGIN: &str = "<!-- knob-table:begin";
const END: &str = "<!-- knob-table:end -->";

#[test]
fn readme_knob_table_matches_registry() {
    let readme_path = repo_root().join("README.md");
    let readme = std::fs::read_to_string(&readme_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", readme_path.display()));

    let begin = readme.find(BEGIN).expect("README is missing the knob-table:begin marker");
    let marker_end = readme[begin..].find('\n').expect("begin marker line ends") + begin + 1;
    let end = readme.find(END).expect("README is missing the knob-table:end marker");
    assert!(marker_end < end, "knob-table markers are out of order");

    let embedded = &readme[marker_end..end];
    let generated = hep_ds::env_registry::markdown_table();
    assert_eq!(
        embedded, generated,
        "README knob table is stale — replace the block between the knob-table \
         markers with the exact output of hep_ds::env_registry::markdown_table()"
    );
}

#[test]
fn markdown_table_covers_every_knob() {
    let table = hep_ds::env_registry::markdown_table();
    for k in hep_ds::env_registry::KNOBS {
        assert!(table.contains(k.name), "knob {} missing from the table", k.name);
        assert!(table.contains(k.since), "since column for {} missing", k.name);
    }
    // Header plus separator plus one row per knob, nothing else.
    assert_eq!(table.lines().count(), hep_ds::env_registry::KNOBS.len() + 2);
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Every `.rs` file under `dir`, with its text.
fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path)?;
            out.push((path, text));
        }
    }
    Ok(())
}

#[test]
fn knob_literals_and_registry_agree() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files).expect("the source tree is readable");
    }
    // The registry declares the names, and its unit tests look up an
    // unregistered one on purpose.
    let registry = root.join("crates/ds/src/env_registry.rs");
    files.retain(|(path, _)| *path != registry);
    assert!(files.len() > 50, "found only {} source files under {}", files.len(), root.display());

    // A string literal that opens with the knob prefix names a knob: it must
    // be registered (a typo or an undocumented knob fails here).
    let mut unregistered = Vec::new();
    for (path, text) in &files {
        for (at, _) in text.match_indices("\"HEP_") {
            let name: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            let name = name.trim_end_matches('_');
            if name != "HEP" && !is_registered(name) {
                let path = path.strip_prefix(&root).unwrap_or(path);
                unregistered.push(format!("{}: {name}", path.display()));
            }
        }
    }
    assert!(unregistered.is_empty(), "unregistered knob names: {unregistered:#?}");

    // A registered knob that no code names is dead documentation.
    for knob in KNOBS {
        let quoted = format!("\"{}\"", knob.name);
        assert!(
            files.iter().any(|(_, text)| text.contains(&quoted)),
            "registered knob {} is never named outside the registry",
            knob.name
        );
    }
}
