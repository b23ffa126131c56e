//! Diagnostics: stable rule identifiers and `file:line:col` rendering.

use std::fmt;

/// The stable rule catalogue. IDs are append-only: a rule may be retired
/// but its number is never reused, so waivers stay meaningful across
/// versions. HL011–HL014 belonged to a cross-file semantic pass (panic
/// reachability, untrusted-data taint, `hep_par` closure hazards,
/// swallowed `Result`s); that pass is deleted and the four IDs are
/// retired, never to be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Iteration over a hash-ordered container in output-affecting code.
    Hl001,
    /// Wall-clock reads (`Instant::now` / `SystemTime`) in output-affecting code.
    Hl002,
    /// `unsafe` not immediately preceded by a `// SAFETY:` comment.
    Hl003,
    /// Direct `env::var` outside the sanctioned env registry.
    Hl004,
    /// `HEP_*` environment-variable name not present in the registry.
    Hl005,
    /// Registered knob never referenced anywhere in the workspace.
    Hl006,
    /// `unwrap()` / `expect(` / `panic!` in library code without a waiver.
    Hl007,
    /// Bench source not registered in the facade `Cargo.toml` (or vice versa).
    Hl008,
    /// Bench `Report` name without a matching `BENCH_<name>.json` (or vice versa).
    Hl009,
    /// Malformed or unknown-rule waiver comment.
    Hl010,
}

/// All rules, in catalogue order.
pub const ALL_RULES: &[Rule] = &[
    Rule::Hl001,
    Rule::Hl002,
    Rule::Hl003,
    Rule::Hl004,
    Rule::Hl005,
    Rule::Hl006,
    Rule::Hl007,
    Rule::Hl008,
    Rule::Hl009,
    Rule::Hl010,
];

impl Rule {
    /// The stable textual ID, e.g. `"HL001"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Hl001 => "HL001",
            Rule::Hl002 => "HL002",
            Rule::Hl003 => "HL003",
            Rule::Hl004 => "HL004",
            Rule::Hl005 => "HL005",
            Rule::Hl006 => "HL006",
            Rule::Hl007 => "HL007",
            Rule::Hl008 => "HL008",
            Rule::Hl009 => "HL009",
            Rule::Hl010 => "HL010",
        }
    }

    /// Parses a textual ID back into a rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description used in `--help`-style output and DESIGN.md.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Hl001 => "hash-ordered iteration in output-affecting code",
            Rule::Hl002 => "wall-clock read in output-affecting code",
            Rule::Hl003 => "unsafe without an immediately preceding SAFETY comment",
            Rule::Hl004 => "environment read bypassing hep_core::config::env_registry",
            Rule::Hl005 => "HEP_* name not present in the env registry",
            Rule::Hl006 => "registered env knob never referenced in the workspace",
            Rule::Hl007 => "unwrap/expect/panic! in library code without a waiver",
            Rule::Hl008 => "bench file and facade Cargo.toml [[bench]] list disagree",
            Rule::Hl009 => "bench Report name and BENCH_*.json artifacts disagree",
            Rule::Hl010 => "malformed hep-lint waiver comment",
        }
    }

    /// Full rationale and waiver policy, printed by `--explain HLxxx`.
    /// The first line is always `HLxxx — <summary>`; DESIGN.md §8 carries
    /// the same IDs and summaries (drift-tested).
    pub fn explain(self) -> String {
        let body = match self {
            Rule::Hl001 => {
                "\
Hash-ordered iteration in an output-affecting crate can leak memory-layout\n\
order into the partition assignment, breaking the bit-identical-output\n\
invariant. Collect and sort, use a BTreeMap, or iterate a stable index.\n\
Waive only with a proof that the observed order cannot reach any output\n\
(e.g. the values are folded with a commutative, associative operation)."
            }
            Rule::Hl002 => {
                "\
Wall-clock reads in output-affecting code can steer partitioning decisions,\n\
making output depend on machine speed. Timing belongs in bench harnesses\n\
and reports. Waive measurement-only sites whose readings provably never\n\
feed back into an assignment decision."
            }
            Rule::Hl003 => {
                "\
Every `unsafe` block or function must carry its proof obligation as a\n\
`// SAFETY:` comment trailing the line or immediately above it. There is\n\
no waiver for this rule's spirit: write the proof. (The rule itself can be\n\
waived for tokens like `unsafe` appearing in prose-bearing code.)"
            }
            Rule::Hl004 => {
                "\
`std::env::var` outside `hep_ds::env_registry::read` bypasses knob\n\
registration, so the knob is invisible to bench-report provenance and the\n\
README knob table. Read knobs through the registry. Waive only inside the\n\
registry's own implementation or bootstrap code that provably runs before\n\
the registry exists."
            }
            Rule::Hl005 => {
                "\
A `HEP_*` string literal that is not a registered knob is either a typo or\n\
an undocumented knob; both undermine the env-registry contract. Register\n\
the name in `hep_ds::env_registry::KNOBS` or fix the spelling. Waive only\n\
for strings that merely *resemble* knob names (e.g. documentation prose)."
            }
            Rule::Hl006 => {
                "\
A registered knob that no workspace code references is dead documentation:\n\
the README table advertises a control that does nothing. Wire the knob up\n\
or remove the registration. Waivers are not applicable (the fix is always\n\
one of those two)."
            }
            Rule::Hl007 => {
                "\
`unwrap()`, `expect(…)` and `panic!` in library code turn recoverable\n\
conditions into aborts. Return a typed error, use a total helper\n\
(`hep_ds::sync`, `hep_ds::bytes`), or waive with the one-line invariant\n\
that makes the panic impossible (\"heap is non-empty: pushed above\")."
            }
            Rule::Hl008 => {
                "\
Every bench source must be a `[[bench]]` target in the facade Cargo.toml\n\
and vice versa; a drifted registration silently drops a bench from CI.\n\
Fix the manifest. Waivers are not applicable."
            }
            Rule::Hl009 => {
                "\
Each bench emits exactly one uniquely-named `Report::new(…)`; the\n\
BENCH_<name>.json artifact name derives from it. Collisions clobber\n\
another bench's report, orphan artifacts are stale outputs. Fix the name.\n\
Waivers are not applicable."
            }
            Rule::Hl010 => {
                "\
A malformed waiver (bad syntax, unknown rule, missing ` -- reason`) would\n\
silently fail to apply; that is worse than no waiver. Fix the waiver\n\
comment. HL010 is itself unwaivable."
            }
        };
        format!("{} — {}\n\n{}\n", self.id(), self.summary(), body)
    }
}

/// One finding: where, which rule, and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (`/`-separated on every platform).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Explanation, specific to the site.
    pub msg: String,
}

impl Diagnostic {
    /// Sort key giving a deterministic report order.
    pub fn sort_key(&self) -> (String, u32, u32, Rule) {
        (self.file.clone(), self.line, self.col, self.rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.col, self.rule.id(), self.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("HL999"), None);
        assert_eq!(Rule::from_id("hl001"), None, "IDs are case-sensitive");
    }

    #[test]
    fn display_is_clickable() {
        let d = Diagnostic {
            file: "crates/core/src/hep.rs".into(),
            line: 12,
            col: 5,
            rule: Rule::Hl007,
            msg: "`.unwrap()` in library code".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/hep.rs:12:5: HL007: `.unwrap()` in library code"
        );
    }
}
