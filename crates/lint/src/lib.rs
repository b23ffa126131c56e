//! # hep-lint — workspace invariant linter
//!
//! The partitioner's headline guarantee is that its output is
//! bit-identical at any thread count or I/O backend.
//! Most regressions against that guarantee are *structural*: a `HashMap`
//! iteration whose order leaks into assignments, a wall-clock read
//! steering a decision, an environment knob read outside the registry
//! (and therefore missing from bench report provenance), an `unsafe`
//! block whose proof obligation nobody wrote down. `hep-lint` checks
//! those structures at source level, one token stream per file, with no
//! external dependencies — the workspace builds without a package
//! registry, so the scanner in [`scanner`] is hand-rolled rather than
//! `syn`-based.
//!
//! ## Rules
//!
//! See [`diag::Rule`] for the catalogue (HL001–HL010) and DESIGN.md §8
//! for rationale and the scanner's documented blind spots.
//!
//! ## Waivers
//!
//! A finding is suppressed by an in-source waiver comment of the form
//! `hep-lint: allow(HL001, HL007) -- <reason>` (written after `//`),
//! either trailing the offending line or standing immediately above it.
//! The reason is mandatory; a waiver without one is itself a diagnostic
//! (HL010). Waivers name the *invariant* that makes the rule's concern
//! moot — "the map is drained into a Vec and sorted before use", "the
//! heap is non-empty because we pushed on the previous line" — so every
//! exception to a workspace invariant is greppable and reviewed.
//!
//! ## Running
//!
//! ```text
//! cargo run -p hep-lint                       # exit 1 on findings
//! cargo run -p hep-lint -- --explain HL001     # one rule's rationale
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod rules;
pub mod scanner;

use diag::{Diagnostic, Rule};
use rules::{FileCtx, FileScope, Waiver};
use std::path::{Path, PathBuf};

/// One source file handed to the engine: workspace-relative path plus
/// content. Tests construct these directly; [`load_workspace`] reads them
/// from disk.
#[derive(Clone, Debug)]
pub struct FileInput {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// File content.
    pub source: String,
}

/// Everything the engine looks at, decoupled from the filesystem so the
/// fixture tests can assemble synthetic workspaces.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// All `.rs` sources in scope, sorted by path.
    pub files: Vec<FileInput>,
    /// The facade (workspace-root) `Cargo.toml` text.
    pub cargo_toml: String,
    /// Names of `BENCH_*.json` artifacts present at the workspace root.
    /// These are gitignored run outputs — HL009 treats presence as
    /// information (orphan detection) and absence as normal.
    pub bench_jsons: Vec<String>,
}

/// The file the env registry lives in; its own name literals do not count
/// as knob *usages* for HL006.
const REGISTRY_FILE: &str = "crates/ds/src/env_registry.rs";

/// A `[[bench]]` entry parsed from the facade manifest.
#[derive(Clone, Debug)]
struct BenchEntry {
    name: String,
    path: String,
    line: u32,
}

/// Lints a whole workspace and returns the surviving diagnostics in
/// deterministic order.
pub fn lint(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let is_registered = |name: &str| hep_ds::env_registry::is_registered(name);
    let mut knob_usage_text = String::new();
    let mut registry_scanned: Option<&scanner::Scanned> = None;

    // Scan every file once.
    let scans: Vec<(FileScope, scanner::Scanned)> =
        ws.files.iter().map(|f| (FileScope::classify(&f.path), scanner::scan(&f.source))).collect();

    let mut all_waivers: Vec<Vec<Waiver>> = Vec::with_capacity(scans.len());
    for (scope, scanned) in &scans {
        // Collect knob usages from *all* files (compat included — the
        // PROPTEST_SEED knob is read there) except the registry itself.
        if scope.path != REGISTRY_FILE {
            for t in &scanned.toks {
                if t.kind == scanner::TokKind::Str {
                    knob_usage_text.push_str(&t.text);
                    knob_usage_text.push('\n');
                }
            }
        } else {
            registry_scanned = Some(scanned);
        }
        if scope.compat {
            all_waivers.push(Vec::new());
            continue;
        }
        let test_lines = rules::test_region_lines(scanned);
        let (waivers, mut waiver_diags) = rules::parse_waivers(scanned);
        for d in &mut waiver_diags {
            d.file = scope.path.clone();
        }
        let ctx =
            FileCtx { scope, scanned, test_lines: &test_lines, is_registered_knob: &is_registered };
        out.extend(rules::check_file(&ctx));
        out.extend(waiver_diags);
        all_waivers.push(waivers);
    }

    check_knob_usage(&knob_usage_text, registry_scanned, &mut out);
    check_bench_consistency(ws, &scans, &mut out);

    // HL006/HL008/HL009 can anchor in a different file than the one whose
    // scan produced them (the registry, a bench source), so waivers are
    // applied globally at the end, keyed by the diagnostic's own file.
    let waivers_by_path: std::collections::BTreeMap<&str, &[Waiver]> =
        scans.iter().zip(&all_waivers).map(|((s, _), w)| (s.path.as_str(), w.as_slice())).collect();
    out.retain(|d| {
        d.rule == Rule::Hl010
            || !waivers_by_path.get(d.file.as_str()).is_some_and(|ws| {
                ws.iter().any(|w| w.rules.contains(&d.rule) && w.lines.contains(&d.line))
            })
    });

    out.sort_by_key(Diagnostic::sort_key);
    out
}

/// HL006: every registered knob must be referenced (as a string literal)
/// somewhere outside the registry — a knob nobody reads is dead
/// documentation.
fn check_knob_usage(
    usage_text: &str,
    registry: Option<&scanner::Scanned>,
    out: &mut Vec<Diagnostic>,
) {
    // No registry file in the scan means this is not the hep workspace
    // (or a partial corpus); there is nothing to cross-check against.
    let Some(registry) = registry else { return };
    for knob in hep_ds::env_registry::KNOBS {
        if usage_text.contains(knob.name) {
            continue;
        }
        let (line, col) = registry
            .toks
            .iter()
            .find(|t| t.kind == scanner::TokKind::Str && t.text == knob.name)
            .map_or((1, 1), |t| (t.line, t.col));
        out.push(Diagnostic {
            file: REGISTRY_FILE.to_string(),
            line,
            col,
            rule: Rule::Hl006,
            msg: format!(
                "registered knob `{}` is never referenced anywhere in the workspace — remove it from the registry or wire it up",
                knob.name
            ),
        });
    }
}

/// HL008 + HL009: the bench sources, the facade `[[bench]]` registrations
/// and the `BENCH_*.json` artifact names must all agree.
fn check_bench_consistency(
    ws: &Workspace,
    scans: &[(FileScope, scanner::Scanned)],
    out: &mut Vec<Diagnostic>,
) {
    let entries = parse_bench_entries(&ws.cargo_toml);
    let bench_files: Vec<&(FileScope, scanner::Scanned)> = scans
        .iter()
        .filter(|(s, _)| s.crate_name == "bench" && s.benches_dir && s.path.ends_with(".rs"))
        .collect();

    // Every bench source must be registered in the facade manifest…
    for (scope, _) in &bench_files {
        if !entries.iter().any(|e| e.path == scope.path) {
            out.push(Diagnostic {
                file: scope.path.clone(),
                line: 1,
                col: 1,
                rule: Rule::Hl008,
                msg:
                    "bench source is not registered as a [[bench]] target in the facade Cargo.toml"
                        .into(),
            });
        }
    }
    // …and every registration must point at a real file.
    for e in &entries {
        if !ws.files.iter().any(|f| f.path == e.path) {
            out.push(Diagnostic {
                file: "Cargo.toml".into(),
                line: e.line,
                col: 1,
                rule: Rule::Hl008,
                msg: format!("[[bench]] `{}` points at `{}`, which does not exist", e.name, e.path),
            });
        }
    }

    // Each bench emits exactly one uniquely-named Report; the artifact
    // name BENCH_<name>.json is derived from it, so collisions would
    // silently clobber another bench's report.
    let mut report_names: Vec<(String, String)> = Vec::new(); // (name, file)
    for (scope, scanned) in &bench_files {
        let reports = report_new_names(scanned);
        match reports.as_slice() {
            [] => out.push(Diagnostic {
                file: scope.path.clone(),
                line: 1,
                col: 1,
                rule: Rule::Hl009,
                msg: "bench emits no `Report::new(…)` — every bench must produce a BENCH_<name>.json report".into(),
            }),
            names => {
                for (name, line, col) in names {
                    if let Some((_, other)) =
                        report_names.iter().find(|(n, _)| n == name)
                    {
                        out.push(Diagnostic {
                            file: scope.path.clone(),
                            line: *line,
                            col: *col,
                            rule: Rule::Hl009,
                            msg: format!(
                                "report name `{name}` collides with `{other}` — both would write BENCH_{name}.json"
                            ),
                        });
                    } else {
                        report_names.push((name.clone(), scope.path.clone()));
                    }
                }
                if names.len() > 1 {
                    out.push(Diagnostic {
                        file: scope.path.clone(),
                        line: names[1].1,
                        col: names[1].2,
                        rule: Rule::Hl009,
                        msg: "bench emits more than one Report — one BENCH_<name>.json per bench target".into(),
                    });
                }
            }
        }
    }

    // Present artifacts must map back to a live report name (they are
    // gitignored run outputs; absence is normal, orphans are stale).
    for json in &ws.bench_jsons {
        let stem = json.trim_start_matches("BENCH_").trim_end_matches(".json");
        if !report_names.iter().any(|(n, _)| n == stem) {
            out.push(Diagnostic {
                file: json.clone(),
                line: 1,
                col: 1,
                rule: Rule::Hl009,
                msg: format!(
                    "artifact `{json}` matches no bench report name — stale output from a renamed or deleted bench"
                ),
            });
        }
    }
}

/// Finds `Report::new("<name>")` literals in a scanned bench file.
fn report_new_names(scanned: &scanner::Scanned) -> Vec<(String, u32, u32)> {
    let toks = &scanned.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let seq =
            toks.get(i).is_some_and(|t| t.kind == scanner::TokKind::Ident && t.text == "Report")
                && toks.get(i + 1).is_some_and(|t| t.kind == scanner::TokKind::Punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.kind == scanner::TokKind::Punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.kind == scanner::TokKind::Ident && t.text == "new")
                && toks.get(i + 4).is_some_and(|t| t.kind == scanner::TokKind::Punct('('));
        if seq {
            if let Some(t) = toks.get(i + 5).filter(|t| t.kind == scanner::TokKind::Str) {
                out.push((t.text.clone(), t.line, t.col));
            }
        }
    }
    out
}

/// Parses the `[[bench]]` sections of the facade manifest. A full TOML
/// parser is overkill: the manifest is ours and rustfmt-stable, so
/// line-oriented `key = "value"` scanning inside `[[bench]]` sections is
/// exact.
fn parse_bench_entries(cargo_toml: &str) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    let mut cur: Option<BenchEntry> = None;
    for (idx, line) in cargo_toml.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            if let Some(e) = cur.take() {
                entries.push(e);
            }
            if trimmed == "[[bench]]" {
                cur = Some(BenchEntry {
                    name: String::new(),
                    path: String::new(),
                    line: idx as u32 + 1,
                });
            }
            continue;
        }
        if let Some(e) = cur.as_mut() {
            if let Some(v) = toml_str_value(trimmed, "name") {
                e.name = v;
            }
            if let Some(v) = toml_str_value(trimmed, "path") {
                e.path = v;
            }
        }
    }
    if let Some(e) = cur.take() {
        entries.push(e);
    }
    entries.retain(|e| !e.path.is_empty());
    entries
}

/// Extracts `key = "value"` from one manifest line.
fn toml_str_value(line: &str, key: &str) -> Option<String> {
    let rest = line.strip_prefix(key)?.trim_start().strip_prefix('=')?.trim();
    let inner = rest.strip_prefix('"')?;
    let end = inner.find('"')?;
    inner.get(..end).map(str::to_string)
}

/// Directories scanned for `.rs` sources, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["src", "tests", "examples", "crates"];

/// Paths (prefix match, `/`-separated) excluded from scanning: build
/// output and the lint fixture corpus (fixtures *contain* violations).
const EXCLUDED_PREFIXES: &[&str] = &["target/", "crates/lint/fixtures/"];

/// Loads the real workspace from disk. Results are sorted so the scan
/// order — and therefore the report — is deterministic.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let cargo_toml_path = root.join("Cargo.toml");
    let cargo_toml = std::fs::read_to_string(&cargo_toml_path)
        .map_err(|e| format!("reading {}: {e}", cargo_toml_path.display()))?;
    if !cargo_toml.contains("[workspace]") {
        return Err(format!("{} is not a workspace manifest", cargo_toml_path.display()));
    }
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));

    let mut bench_jsons = Vec::new();
    let iter = std::fs::read_dir(root).map_err(|e| format!("reading {}: {e}", root.display()))?;
    for entry in iter.flatten() {
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                bench_jsons.push(name.to_string());
            }
        }
    }
    bench_jsons.sort();

    Ok(Workspace { files, cargo_toml, bench_jsons })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<FileInput>) -> Result<(), String> {
    let iter = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = iter.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            out.push(FileInput { path: rel, source });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: Vec<(&str, &str)>, cargo_toml: &str, jsons: Vec<&str>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| FileInput { path: p.into(), source: s.into() })
                .collect(),
            cargo_toml: cargo_toml.into(),
            bench_jsons: jsons.into_iter().map(String::from).collect(),
        }
    }

    #[test]
    fn bench_entry_parsing() {
        let toml = "\
[package]\nname = \"hep\"\n\n[[bench]]\nname = \"a\"\npath = \"crates/bench/benches/a.rs\"\nharness = false\n\n[[bench]]\nname = \"b\"\npath = \"crates/bench/benches/b.rs\"\n";
        let entries = parse_bench_entries(toml);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        assert_eq!(entries[0].path, "crates/bench/benches/a.rs");
        assert_eq!(entries[0].line, 4);
        assert_eq!(entries[1].line, 9);
    }

    #[test]
    fn bench_consistency_rules() {
        let bench_src = "fn main() { let r = Report::new(\"a\"); }";
        let orphan_src = "fn main() { }";
        let toml = "[workspace]\n[[bench]]\nname = \"a\"\npath = \"crates/bench/benches/a.rs\"\n[[bench]]\nname = \"gone\"\npath = \"crates/bench/benches/gone.rs\"\n";
        let w = ws(
            vec![
                ("crates/bench/benches/a.rs", bench_src),
                ("crates/bench/benches/unregistered.rs", orphan_src),
            ],
            toml,
            vec!["BENCH_a.json", "BENCH_stale.json"],
        );
        let diags = lint(&w);
        let has = |rule: Rule, file: &str| diags.iter().any(|d| d.rule == rule && d.file == file);
        assert!(has(Rule::Hl008, "crates/bench/benches/unregistered.rs"), "{diags:?}");
        assert!(has(Rule::Hl008, "Cargo.toml"), "dangling registration: {diags:?}");
        assert!(has(Rule::Hl009, "crates/bench/benches/unregistered.rs"), "no Report: {diags:?}");
        assert!(has(Rule::Hl009, "BENCH_stale.json"), "orphan artifact: {diags:?}");
        assert!(!has(Rule::Hl009, "crates/bench/benches/a.rs"), "{diags:?}");
    }

    #[test]
    fn knob_usage_cross_check() {
        // A workspace referencing no knobs: every registered knob is
        // reported as unused, anchored in the registry source.
        let reg_src = "pub const X: &str = \"HEP_THREADS\";";
        let w = ws(
            vec![(REGISTRY_FILE, reg_src), ("crates/core/src/a.rs", "fn a() {}")],
            "[workspace]\n",
            vec![],
        );
        let diags = lint(&w);
        let unused: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == Rule::Hl006).collect();
        assert_eq!(unused.len(), hep_ds::env_registry::KNOBS.len(), "{diags:?}");
        assert!(unused.iter().all(|d| d.file == REGISTRY_FILE));
        // The HEP_THREADS literal in the registry file itself does not
        // count as a usage, but it anchors the diagnostic.
        let threads = unused.iter().find(|d| d.msg.contains("HEP_THREADS"));
        assert_eq!(threads.map(|d| d.line), Some(1));
    }

    #[test]
    fn deterministic_order() {
        let src = "fn f() { let x = v.get(0).unwrap(); let y = w.get(0).unwrap(); }";
        let w = ws(
            vec![("crates/graph/src/b.rs", src), ("crates/graph/src/a.rs", src)],
            "[workspace]\n",
            vec![],
        );
        let d1 = lint(&w);
        let d2 = lint(&w);
        assert_eq!(d1, d2);
        let files: Vec<&str> = d1.iter().map(|d| d.file.as_str()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "report is path-sorted");
    }
}
