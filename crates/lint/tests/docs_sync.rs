//! Drift tests between the rule engine and its documentation: every rule
//! the linter can emit must be explained by `--explain` and documented in
//! DESIGN.md's §8 rule table, and neither side may carry IDs the other
//! does not know. Docs that describe a rule set the binary no longer
//! implements are worse than no docs.

use hep_lint::diag::{Rule, ALL_RULES};
use std::collections::BTreeSet;
use std::path::Path;

/// Rule IDs mentioned as `| HLxxx |` table rows in DESIGN.md §8.
fn design_md_rule_ids() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(&path).expect("read DESIGN.md");
    let mut ids = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("| HL") else { continue };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.len() == 3 {
            ids.insert(format!("HL{digits}"));
        }
    }
    ids
}

#[test]
fn design_md_table_matches_rule_set() {
    let documented = design_md_rule_ids();
    let implemented: BTreeSet<String> = ALL_RULES.iter().map(|r| r.id().to_string()).collect();
    assert_eq!(
        documented, implemented,
        "DESIGN.md §8 rule table and hep_lint::diag::ALL_RULES disagree — \
         update whichever side is stale"
    );
}

#[test]
fn every_rule_has_a_substantive_explanation() {
    for &rule in ALL_RULES {
        let text = rule.explain();
        assert!(text.len() > 80, "--explain {} is too thin to be useful: {text:?}", rule.id());
        assert!(text.contains(rule.id()), "--explain {} never names its own rule ID", rule.id());
    }
}

#[test]
fn explain_ids_round_trip() {
    for &rule in ALL_RULES {
        assert_eq!(Rule::from_id(rule.id()), Some(rule), "{} must parse back", rule.id());
    }
    assert_eq!(Rule::from_id("HL999"), None);
    assert_eq!(Rule::from_id("hl001"), None, "IDs are case-sensitive");
    for retired in ["HL011", "HL012", "HL013", "HL014"] {
        assert_eq!(Rule::from_id(retired), None, "{retired} is retired and never reused");
    }
}
