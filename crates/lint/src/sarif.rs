//! SARIF 2.1.0 emitter.
//!
//! Emits the subset of the Static Analysis Results Interchange Format
//! that code-scanning UIs (GitHub, VS Code SARIF viewer) consume: one
//! run, a tool driver listing every rule with its short description, and
//! one result per diagnostic with a physical location. Hand-rolled for
//! the same reason as `diag::to_json` — the container is offline.
//!
//! The shape is pinned by `tests/sarif_shape.rs`, which parses the output
//! with `crate::json` and asserts the required SARIF members exist with
//! the right types.

use crate::diag::{json_escape, Diagnostic, ALL_RULES};

/// The SARIF spec version this emitter targets.
pub const SARIF_VERSION: &str = "2.1.0";

/// Canonical schema URI for SARIF 2.1.0 documents.
pub const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders the diagnostic list as a complete SARIF 2.1.0 document.
///
/// Every rule in [`ALL_RULES`] appears in `tool.driver.rules` (even if it
/// produced no results) so viewers can show the full rule table; each
/// result carries a `ruleIndex` into that array.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096 + diags.len() * 256);
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": \"{SARIF_SCHEMA}\",\n"));
    out.push_str(&format!("  \"version\": \"{SARIF_VERSION}\",\n"));
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"hep-lint\",\n");
    out.push_str(&format!("          \"version\": \"{}\",\n", env!("CARGO_PKG_VERSION")));
    out.push_str("          \"informationUri\": \"https://example.invalid/hep-lint\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            r.id(),
            json_escape(r.summary())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // ALL_RULES lists the variants in declaration order, so the
        // discriminant IS the index — total, and pinned by the shape test
        // (`rules[ruleIndex].id == ruleId`).
        let rule_index = d.rule as usize;
        out.push_str(&format!(
            concat!(
                "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", ",
                "\"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": ",
                "{{\"artifactLocation\": {{\"uri\": \"{}\"}}, ",
                "\"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}"
            ),
            d.rule.id(),
            rule_index,
            json_escape(&d.msg),
            json_escape(&d.file),
            d.line,
            d.col
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;
    use crate::json::{parse, Json};

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                file: "crates/ds/src/bytes.rs".into(),
                line: 10,
                col: 3,
                rule: Rule::Hl012,
                msg: "untrusted \"header\" value".into(),
            },
            Diagnostic {
                file: "crates/core/src/nepp.rs".into(),
                line: 44,
                col: 9,
                rule: Rule::Hl011,
                msg: "panic reachable".into(),
            },
        ]
    }

    #[test]
    fn document_parses_and_has_required_members() {
        let doc = to_sarif(&sample());
        let v = parse(&doc).expect("SARIF output is valid JSON");
        assert_eq!(v.get("version").and_then(Json::as_str), Some(SARIF_VERSION));
        assert!(v.get("$schema").and_then(Json::as_str).is_some());
        let runs = v.get("runs").and_then(Json::as_arr).expect("runs array");
        assert_eq!(runs.len(), 1);
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .expect("driver.rules");
        assert_eq!(rules.len(), ALL_RULES.len(), "every rule is listed");
        let results = runs[0].get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 2);
        let r0 = &results[0];
        assert_eq!(r0.get("ruleId").and_then(Json::as_str), Some("HL012"));
        let idx = r0.get("ruleIndex").and_then(Json::as_num).expect("ruleIndex") as usize;
        assert_eq!(rules[idx].get("id").and_then(Json::as_str), Some("HL012"));
        let region = r0
            .get("locations")
            .and_then(Json::as_arr)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .expect("region");
        assert_eq!(region.get("startLine").and_then(Json::as_num), Some(10.0));
        assert_eq!(region.get("startColumn").and_then(Json::as_num), Some(3.0));
    }

    #[test]
    fn empty_diag_list_is_still_a_valid_run() {
        let doc = to_sarif(&[]);
        let v = parse(&doc).expect("valid JSON");
        let runs = v.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs[0].get("results").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }
}
