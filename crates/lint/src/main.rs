//! `hep-lint` CLI.
//!
//! ```text
//! hep-lint [WORKSPACE_ROOT]
//! hep-lint --explain HLxxx
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` usage or I/O error.
//! The report is one `file:line:col: HLxxx: message` line per finding.
//! `--explain HLxxx` prints the rule's rationale and waiver policy.

use std::path::PathBuf;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("hep-lint: --explain requires a rule ID (e.g. HL001)");
                    return 2;
                };
                match hep_lint::diag::Rule::from_id(&id) {
                    Some(rule) => {
                        print!("{}", rule.explain());
                        return 0;
                    }
                    None => {
                        eprintln!("hep-lint: unknown rule `{id}` (rules are HL001..HL010)");
                        return 2;
                    }
                }
            }
            "--help" | "-h" => {
                print_help();
                return 0;
            }
            other if other.starts_with('-') => {
                eprintln!("hep-lint: unknown option `{other}`");
                print_help();
                return 2;
            }
            other => {
                if root.is_some() {
                    eprintln!("hep-lint: more than one workspace root given");
                    return 2;
                }
                root = Some(PathBuf::from(other));
            }
        }
    }
    let root = match root.or_else(default_root) {
        Some(r) => r,
        None => {
            eprintln!("hep-lint: cannot determine the workspace root; pass it explicitly");
            return 2;
        }
    };
    let ws = match hep_lint::load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("hep-lint: {e}");
            return 2;
        }
    };
    let diags = hep_lint::lint(&ws);
    for d in &diags {
        println!("{d}");
    }
    let files = ws.files.len();
    if diags.is_empty() {
        println!("hep-lint: clean ({files} files scanned)");
    } else {
        println!("hep-lint: {} diagnostic(s) across {files} scanned files", diags.len());
    }
    i32::from(!diags.is_empty())
}

/// The workspace root when none is given: walk up from the current
/// directory to the first `Cargo.toml` declaring `[workspace]` — this
/// makes `cargo run -p hep-lint` work from any subdirectory.
fn default_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn print_help() {
    println!(
        "hep-lint: workspace invariant linter (determinism, unsafe hygiene, env registry, panic policy,\n\
         \u{20}         bench/report consistency)\n\n\
         usage: hep-lint [WORKSPACE_ROOT]\n\
         \u{20}      hep-lint --explain HLxxx\n\n\
         options:\n\
         \u{20} --explain HLxxx   print the rule's rationale and waiver policy\n\n\
         exit codes: 0 clean, 1 diagnostics, 2 error"
    );
}
