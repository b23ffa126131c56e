//! Per-file rule implementations and the waiver machinery.
//!
//! Every rule works over the token stream from [`crate::scanner`] — no
//! macro expansion and no type resolution. Where a rule needs to know a
//! variable's type (HL001), it uses a conservative lexical binding
//! tracker; the residual blind spots are documented in DESIGN.md §8.

use crate::diag::{Diagnostic, Rule};
use crate::scanner::{Scanned, Tok, TokKind};

/// How a file participates in linting, derived purely from its
/// workspace-relative path.
#[derive(Clone, Debug)]
pub struct FileScope {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Crate directory name (`ds`, `core`, …), `hep` for the facade
    /// package, or empty when unknown.
    pub crate_name: String,
    /// Crate whose code can influence partition output (determinism rules
    /// apply).
    pub output_affecting: bool,
    /// Under a `src/` directory (library code).
    pub library: bool,
    /// Under `tests/` or `examples/`, or a `build.rs` (test context: the
    /// determinism / env / panic rules do not apply).
    pub tests_dir: bool,
    /// Under a `benches/` directory (panic policy does not apply; the env
    /// registry rules still do).
    pub benches_dir: bool,
    /// Under `crates/compat/` — vendored stand-ins, scanned only to
    /// collect env-name usages for HL006.
    pub compat: bool,
}

/// Crates whose code paths can influence the partition assignment. The
/// determinism rules (HL001/HL002) are scoped to these.
pub const OUTPUT_AFFECTING: &[&str] = &["ds", "graph", "gen", "core", "baselines", "metrics"];

impl FileScope {
    /// Classifies a workspace-relative path.
    pub fn classify(path: &str) -> FileScope {
        let segs: Vec<&str> = path.split('/').collect();
        let (crate_name, rest): (String, &[&str]) = if segs.first() == Some(&"crates") {
            (segs.get(1).copied().unwrap_or("").to_string(), segs.get(2..).unwrap_or(&[]))
        } else {
            ("hep".to_string(), &segs[..])
        };
        let top = rest.first().copied().unwrap_or("");
        let compat = crate_name == "compat";
        FileScope {
            path: path.to_string(),
            output_affecting: OUTPUT_AFFECTING.contains(&crate_name.as_str()),
            library: top == "src",
            tests_dir: top == "tests" || top == "examples" || top == "build.rs",
            benches_dir: top == "benches",
            crate_name,
            compat,
        }
    }
}

/// A parsed, well-formed waiver comment and the lines it covers.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Rules the waiver suppresses.
    pub rules: Vec<Rule>,
    /// Lines covered (the comment's own lines plus, for standalone
    /// comments, the next code line).
    pub lines: Vec<u32>,
}

/// Waiver syntax marker. A comment is a waiver attempt iff its text —
/// after stripping the comment markers — starts with this prefix.
const WAIVER_PREFIX: &str = "hep-lint:";

fn strip_comment_markers(text: &str) -> &str {
    let t = text.trim_start();
    let t = t
        .strip_prefix("//!")
        .or_else(|| t.strip_prefix("///"))
        .or_else(|| t.strip_prefix("//"))
        .or_else(|| t.strip_prefix("/*"))
        .unwrap_or(t);
    t.trim_start()
}

/// Parses the waivers in a scanned file. Malformed attempts (bad syntax,
/// unknown rule, missing ` -- reason`) become HL010 diagnostics — a waiver
/// that silently fails to apply would be worse than no waiver.
pub fn parse_waivers(scanned: &Scanned) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    for c in &scanned.comments {
        let body = strip_comment_markers(&c.text);
        let Some(after) = body.strip_prefix(WAIVER_PREFIX) else { continue };
        let mut fail = |msg: &str| {
            diags.push(Diagnostic {
                file: String::new(), // filled in by the engine
                line: c.line,
                col: c.col,
                rule: Rule::Hl010,
                msg: msg.to_string(),
            });
        };
        let after = after.trim_start();
        let Some(args) = after.strip_prefix("allow(") else {
            fail("waiver must have the form `hep-lint: allow(<RULES>) -- <reason>`");
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("waiver rule list is missing its closing `)`");
            continue;
        };
        let (list, tail) = args.split_at(close);
        let mut rules = Vec::new();
        let mut ok = true;
        for id in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_id(id) {
                Some(r) => rules.push(r),
                None => {
                    fail(&format!("unknown rule `{id}` in waiver"));
                    ok = false;
                }
            }
        }
        if rules.is_empty() && ok {
            fail("waiver allows no rules");
            ok = false;
        }
        let reason = tail.trim_start_matches(')').trim_start();
        let reason_body = reason
            .strip_prefix("--")
            .map(|r| r.trim_matches(|c: char| c.is_whitespace() || c == '*' || c == '/'));
        match reason_body {
            Some(r) if !r.is_empty() => {}
            _ => {
                fail("waiver is missing its mandatory ` -- <reason>`");
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        waivers.push(Waiver { rules, lines: waiver_coverage(scanned, c.line, c.end_line, c.col) });
    }
    (waivers, diags)
}

/// Which lines a waiver comment covers: its own lines, and — when it is a
/// standalone comment — the next line of code, looking through attributes
/// and further comments but not across blank lines ("immediately").
fn waiver_coverage(scanned: &Scanned, line: u32, end_line: u32, col: u32) -> Vec<u32> {
    let mut lines: Vec<u32> = (line..=end_line).collect();
    let trailing = scanned.toks.iter().any(|t| t.line == line && t.col < col);
    if trailing {
        return lines;
    }
    let mut l = end_line + 1;
    while l <= scanned.n_lines {
        if scanned.is_attr_line(l) || scanned.is_comment_only(l) {
            lines.push(l);
            l += 1;
            continue;
        }
        let has_code = scanned.has_code.get(l as usize).copied().unwrap_or(false);
        if has_code {
            lines.push(l);
        }
        break; // blank line (or code): stop either way
    }
    lines
}

/// Marks the lines belonging to `#[test]` / `#[cfg(test)]` items so the
/// scoped rules can skip them. Attribute detection: a `#[...]` whose
/// identifier list contains `test` and not `not`; the region runs from the
/// attribute to the matching close brace (or `;`) of the annotated item.
pub fn test_region_lines(scanned: &Scanned) -> Vec<bool> {
    let toks = &scanned.toks;
    let mut test = vec![false; scanned.n_lines as usize + 2];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks, i, '#') || !is_punct(toks, i + 1, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut has_test = false;
        let mut has_not = false;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident => {
                    has_test |= toks[j].text == "test";
                    has_not |= toks[j].text == "not";
                }
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the item.
        let start_line = toks[i].line;
        let mut k = j;
        while is_punct(toks, k, '#') && is_punct(toks, k + 1, '[') {
            let mut d = 1i32;
            k += 2;
            while k < toks.len() && d > 0 {
                match toks[k].kind {
                    TokKind::Punct('[') => d += 1,
                    TokKind::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let mut brace = 0i32;
        let mut end_line = start_line;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => brace += 1,
                TokKind::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                TokKind::Punct(';') if brace == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        for l in start_line..=end_line {
            if let Some(slot) = test.get_mut(l as usize) {
                *slot = true;
            }
        }
        i = k.max(i + 1);
    }
    test
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn is_ident(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

fn ident_text(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str())
}

/// Hash container type names whose iteration order is nondeterministic
/// (or seeded-but-layout-dependent) and therefore banned from
/// output-affecting iteration.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods that observe a container's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Lexical binding tracker: which identifiers in this file are bound to a
/// hash container (via `let`, a typed field/param, or a struct literal).
fn hashy_idents(toks: &[Tok]) -> std::collections::BTreeSet<String> {
    let mut hashy = std::collections::BTreeSet::new();
    let is_hash_type = |t: &Tok| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str());
    let mut i = 0usize;
    while i < toks.len() {
        // `let [mut] name ... = ... ;` — hash type anywhere before the `;`.
        if is_ident(toks, i, "let") {
            let mut j = i + 1;
            if is_ident(toks, j, "mut") {
                j += 1;
            }
            if let Some(name) = ident_text(toks, j) {
                let name = name.to_string();
                let mut depth = 0i32;
                for tok in toks.iter().take((j + 200).min(toks.len())).skip(j + 1) {
                    match tok.kind {
                        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                            depth += 1;
                        }
                        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                            depth -= 1;
                        }
                        TokKind::Punct(';') if depth <= 0 => break,
                        _ => {}
                    }
                    // Depth 0 only: a hash type nested inside parens or
                    // braces (a closure body, a tuple element, a call
                    // argument) types something *inside* the value, not
                    // the binding itself.
                    if depth <= 0 && is_hash_type(tok) {
                        hashy.insert(name.clone());
                        break;
                    }
                }
            }
            i = j + 1;
            continue;
        }
        // `name : ... HashMap ...` — struct field, fn param, or struct
        // literal field holding a container. Stop at item punctuation.
        if toks[i].kind == TokKind::Ident
            && is_punct(toks, i + 1, ':')
            && !is_punct(toks, i + 2, ':')
            && !is_punct(toks, i.wrapping_sub(1), ':')
        {
            let mut depth = 0i32;
            for k in i + 2..(i + 40).min(toks.len()) {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}')
                        if depth > 0 =>
                    {
                        depth -= 1;
                    }
                    TokKind::Punct(',')
                    | TokKind::Punct(';')
                    | TokKind::Punct(')')
                    | TokKind::Punct('}')
                    | TokKind::Punct('=')
                        if depth <= 0 =>
                    {
                        break;
                    }
                    _ => {}
                }
                if depth <= 0 && is_hash_type(&toks[k]) {
                    hashy.insert(toks[i].text.clone());
                    break;
                }
            }
        }
        i += 1;
    }
    hashy
}

/// Context handed to the per-file rules.
pub struct FileCtx<'a> {
    /// Path-derived scope flags.
    pub scope: &'a FileScope,
    /// Scan result.
    pub scanned: &'a Scanned,
    /// `test_lines[line]`: line is inside a `#[test]` / `#[cfg(test)]` item.
    pub test_lines: &'a [bool],
    /// Registered-knob predicate (injected so the rules stay decoupled
    /// from `hep_ds`).
    pub is_registered_knob: &'a dyn Fn(&str) -> bool,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.scope.tests_dir || self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    fn diag(&self, tok_line: u32, tok_col: u32, rule: Rule, msg: String) -> Diagnostic {
        Diagnostic { file: self.scope.path.clone(), line: tok_line, col: tok_col, rule, msg }
    }
}

/// Runs every per-file rule that applies to this file and returns the raw
/// (pre-waiver) diagnostics.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let s = ctx.scope;
    if s.compat {
        return out; // usage-only: HL006 collection happens in the engine
    }
    check_unsafe_hygiene(ctx, &mut out);
    if (s.library || s.benches_dir) && s.crate_name != "lint" {
        check_env_reads(ctx, &mut out);
        check_env_names(ctx, &mut out);
    }
    if s.output_affecting && s.library {
        check_hash_iteration(ctx, &mut out);
        check_wall_clock(ctx, &mut out);
    }
    if s.library && s.crate_name != "bench" {
        check_panic_policy(ctx, &mut out);
    }
    out
}

/// HL003: every `unsafe` token must carry a SAFETY proof — a trailing
/// `// SAFETY: …` on the same line, or a contiguous comment block
/// immediately above (attributes may intervene; blank lines may not).
fn check_unsafe_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let scanned = ctx.scanned;
    let mut seen_lines = std::collections::BTreeSet::new();
    for t in &scanned.toks {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        if !seen_lines.insert(t.line) {
            continue; // one check per line is enough
        }
        if scanned.comment_text_on(t.line).contains("SAFETY") {
            continue;
        }
        let mut l = t.line.saturating_sub(1);
        let mut ok = false;
        while l >= 1 {
            if scanned.is_comment_only(l) {
                if scanned.comment_text_on(l).contains("SAFETY") {
                    ok = true;
                    break;
                }
                l -= 1;
                continue;
            }
            if scanned.is_attr_line(l) {
                l -= 1;
                continue;
            }
            break; // code or blank line: the proof is not "immediately" above
        }
        if !ok {
            out.push(ctx.diag(
                t.line,
                t.col,
                Rule::Hl003,
                "`unsafe` without an immediately preceding `// SAFETY:` comment stating the proof obligation".into(),
            ));
        }
    }
}

/// HL004: `env::var` outside the registry gateway.
fn check_env_reads(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.scanned.toks;
    for i in 0..toks.len() {
        if is_ident(toks, i, "env")
            && is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && (is_ident(toks, i + 3, "var") || is_ident(toks, i + 3, "var_os"))
        {
            let t = &toks[i];
            if ctx.in_test(t.line) {
                continue;
            }
            out.push(ctx.diag(
                t.line,
                t.col,
                Rule::Hl004,
                "environment read bypasses `hep_core::config::env_registry::read` — knobs must be registered and read through the registry".into(),
            ));
        }
    }
}

/// HL005: a `HEP_*` name in a string literal that the registry does not
/// know about — either a typo or an undocumented knob.
fn check_env_names(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in &ctx.scanned.toks {
        if t.kind != TokKind::Str || ctx.in_test(t.line) {
            continue;
        }
        for name in hep_names_in(&t.text) {
            if !(ctx.is_registered_knob)(&name) {
                out.push(ctx.diag(
                    t.line,
                    t.col,
                    Rule::Hl005,
                    format!("`{name}` is not in the env registry — register it in hep_ds::env_registry::KNOBS or fix the name"),
                ));
            }
        }
    }
}

/// Extracts maximal `HEP_[A-Z0-9_]+` runs from a string.
pub fn hep_names_in(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = s.get(i..).and_then(|t| t.find("HEP_")) {
        let start = i + rel;
        // A run starting mid-identifier (e.g. `XHEP_`) is not a knob name.
        let standalone = start == 0
            || !bytes.get(start - 1).is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        let mut end = start + 4;
        while bytes
            .get(end)
            .is_some_and(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
        {
            end += 1;
        }
        if standalone && end > start + 4 {
            if let Some(name) = s.get(start..end) {
                out.push(name.trim_end_matches('_').to_string());
            }
        }
        i = end;
    }
    out
}

/// HL001: iteration over a hash-ordered container in output-affecting
/// code. Lexical: tracks identifiers bound to `HashMap`/`HashSet`/
/// `FxHashMap`/`FxHashSet` and flags order-observing methods and `for`
/// loops over them.
fn check_hash_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.scanned.toks;
    let hashy = hashy_idents(toks);
    let mut flag = |t: &Tok, what: &str| {
        if !ctx.in_test(t.line) {
            out.push(ctx.diag(
                t.line,
                t.col,
                Rule::Hl001,
                format!(
                    "{what} iterates a hash-ordered container in output-affecting code — collect and sort, use a BTreeMap, or waive with a proof that order cannot leak"
                ),
            ));
        }
    };
    for i in 0..toks.len() {
        // `recv.method(` where recv is hashy and method observes order.
        if is_punct(toks, i, '.') {
            if let Some(m) = ident_text(toks, i + 1) {
                if ITER_METHODS.contains(&m) && is_punct(toks, i + 2, '(') {
                    if let Some(recv) = ident_text(toks, i.wrapping_sub(1)) {
                        if hashy.contains(recv) {
                            flag(&toks[i + 1], &format!("`{recv}.{m}()`"));
                        }
                    }
                }
            }
        }
        // `for pat in [&][mut] recv {` — direct IntoIterator on the map.
        if is_ident(toks, i, "in") {
            let mut j = i + 1;
            if is_punct(toks, j, '&') {
                j += 1;
            }
            if is_ident(toks, j, "mut") {
                j += 1;
            }
            if let Some(recv) = ident_text(toks, j) {
                if hashy.contains(recv) && is_punct(toks, j + 1, '{') {
                    flag(&toks[j], &format!("`for … in {recv}`"));
                }
            }
        }
    }
}

/// HL002: wall-clock reads in output-affecting code. Timing must never
/// steer the partition assignment; measurement-only sites carry waivers.
fn check_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.scanned.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        let instant_now = is_ident(toks, i, "Instant")
            && is_punct(toks, i + 1, ':')
            && is_punct(toks, i + 2, ':')
            && is_ident(toks, i + 3, "now");
        let system_time = is_ident(toks, i, "SystemTime");
        if instant_now || system_time {
            let what = if system_time { "`SystemTime`" } else { "`Instant::now`" };
            out.push(ctx.diag(
                t.line,
                t.col,
                Rule::Hl002,
                format!("{what} in output-affecting code — wall-clock values must not steer partitioning; waive measurement-only sites"),
            ));
        }
    }
}

/// HL007: panic policy. Library code must not `unwrap()`, `expect(…)` or
/// `panic!` without a waiver stating the invariant that makes the panic
/// unreachable (or why aborting is the right response).
fn check_panic_policy(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.scanned.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        let hit = if is_punct(toks, i, '.')
            && is_ident(toks, i + 1, "unwrap")
            && is_punct(toks, i + 2, '(')
            && is_punct(toks, i + 3, ')')
        {
            Some((&toks[i + 1], "`.unwrap()`"))
        } else if is_punct(toks, i, '.')
            && is_ident(toks, i + 1, "expect")
            && is_punct(toks, i + 2, '(')
        {
            Some((&toks[i + 1], "`.expect(…)`"))
        } else if t.kind == TokKind::Ident && t.text == "panic" && is_punct(toks, i + 1, '!') {
            Some((t, "`panic!`"))
        } else {
            None
        };
        if let Some((at, what)) = hit {
            out.push(ctx.diag(
                at.line,
                at.col,
                Rule::Hl007,
                format!("{what} in library code — return an error, use a total helper, or waive with the invariant that rules the panic out"),
            ));
        }
    }
}

/// Applies waivers to raw diagnostics: a diagnostic is suppressed when a
/// well-formed waiver covering its line lists its rule. HL010 cannot be
/// waived.
pub fn apply_waivers(diags: Vec<Diagnostic>, waivers: &[Waiver]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            d.rule == Rule::Hl010
                || !waivers.iter().any(|w| w.rules.contains(&d.rule) && w.lines.contains(&d.line))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn ctx_for<'a>(
        scope: &'a FileScope,
        scanned: &'a Scanned,
        test_lines: &'a [bool],
        reg: &'a dyn Fn(&str) -> bool,
    ) -> FileCtx<'a> {
        FileCtx { scope, scanned, test_lines, is_registered_knob: reg }
    }

    #[test]
    fn classify_paths() {
        let s = FileScope::classify("crates/core/src/hep.rs");
        assert!(s.output_affecting && s.library && !s.tests_dir && !s.compat);
        assert_eq!(s.crate_name, "core");
        let b = FileScope::classify("crates/bench/benches/table4_processing.rs");
        assert!(b.benches_dir && !b.library);
        let t = FileScope::classify("tests/env_matrix.rs");
        assert_eq!(t.crate_name, "hep");
        assert!(t.tests_dir);
        let c = FileScope::classify("crates/compat/criterion/src/lib.rs");
        assert!(c.compat);
        assert!(!FileScope::classify("crates/par/src/lib.rs").output_affecting);
    }

    #[test]
    fn hep_name_extraction() {
        assert_eq!(
            hep_names_in("set HEP_THREADS=4 and HEP_KERNEL"),
            vec!["HEP_THREADS", "HEP_KERNEL"]
        );
        assert!(hep_names_in("XHEP_THREADS").is_empty(), "mid-identifier run");
        assert!(hep_names_in("HEP_ alone").is_empty(), "bare prefix");
        assert_eq!(hep_names_in("HEP_THREADS_"), vec!["HEP_THREADS"], "trailing _ trimmed");
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn x() {}\n}\nfn tail() {}\n";
        let t = test_region_lines(&scan(src));
        assert!(!t[1] && t[2] && t[3] && t[4] && t[5] && !t[6]);
        let not = test_region_lines(&scan("#[cfg(not(test))]\nfn a() {}\n"));
        assert!(!not[1] && !not[2]);
    }

    #[test]
    fn waiver_parsing_and_malformed_forms() {
        let s = scan("// hep-lint: allow(HL007) -- index is in range by construction\nlet x = v.get(0).unwrap();\n");
        let (w, d) = parse_waivers(&s);
        assert!(d.is_empty());
        assert_eq!(w.len(), 1);
        assert!(w[0].lines.contains(&2), "covers the next code line");

        let (_, d) = parse_waivers(&scan("// hep-lint: allow(HL007)\nlet x = 1;\n"));
        assert_eq!(d.len(), 1, "missing reason: {d:?}");
        let (_, d) = parse_waivers(&scan("// hep-lint: allow(HL942) -- nope\n"));
        assert_eq!(d.len(), 1, "unknown rule");
        let (_, d) = parse_waivers(&scan("// hep-lint: allowed(HL001) -- nope\n"));
        assert_eq!(d.len(), 1, "bad verb");
        // Prose mentioning the tool name is not a waiver attempt.
        let (w, d) = parse_waivers(&scan("// see hep-lint: it allows waivers\n"));
        assert!(w.is_empty() && d.is_empty());
    }

    #[test]
    fn unsafe_needs_adjacent_safety() {
        let reg = |_: &str| true;
        let scope = FileScope::classify("crates/ds/src/kernels.rs");
        let src = "\
// SAFETY: caller checked AVX2\n#[inline]\nunsafe fn a() {}\n\nunsafe fn b() {}\n\nlet x = unsafe { y() }; // SAFETY: bounds hold\n";
        let scanned = scan(src);
        let t = test_region_lines(&scanned);
        let diags = check_file(&ctx_for(&scope, &scanned, &t, &reg));
        let hl3: Vec<u32> =
            diags.iter().filter(|d| d.rule == Rule::Hl003).map(|d| d.line).collect();
        assert_eq!(hl3, vec![5], "only the bare `unsafe fn b` is flagged: {diags:?}");
    }

    #[test]
    fn hash_iteration_detection() {
        let reg = |_: &str| true;
        let scope = FileScope::classify("crates/core/src/x.rs");
        let src = "\
fn f() {\n    let mut m: FxHashMap<u32, u32> = FxHashMap::default();\n    for (k, v) in &m {\n        use_it(k, v);\n    }\n    let total: u32 = m.values().sum();\n    let sorted: Vec<_> = m.keys().collect();\n    m.insert(1, 2);\n    let v = vec![1];\n    for x in &v {\n        use_it(x, x);\n    }\n}\n";
        let scanned = scan(src);
        let t = test_region_lines(&scanned);
        let diags = check_file(&ctx_for(&scope, &scanned, &t, &reg));
        let hl1: Vec<u32> =
            diags.iter().filter(|d| d.rule == Rule::Hl001).map(|d| d.line).collect();
        assert_eq!(hl1, vec![3, 6, 7], "{diags:?}");
    }

    #[test]
    fn panic_policy_spares_unwrap_or_variants() {
        let reg = |_: &str| true;
        let scope = FileScope::classify("crates/graph/src/x.rs");
        let src = "fn f(v: &[u32]) -> u32 {\n    let a = v.first().copied().unwrap_or(0);\n    let b = v.first().unwrap_or_else(|| &1);\n    v.get(1).copied().unwrap()\n}\n";
        let scanned = scan(src);
        let t = test_region_lines(&scanned);
        let diags = check_file(&ctx_for(&scope, &scanned, &t, &reg));
        let hl7: Vec<u32> =
            diags.iter().filter(|d| d.rule == Rule::Hl007).map(|d| d.line).collect();
        assert_eq!(hl7, vec![4], "{diags:?}");
    }

    #[test]
    fn waivers_suppress_only_their_rule_and_line() {
        let reg = |_: &str| true;
        let scope = FileScope::classify("crates/core/src/x.rs");
        let src = "\
fn f() {\n    // hep-lint: allow(HL007) -- heap is non-empty: pushed above\n    let a = q.pop().unwrap();\n    let b = q.pop().unwrap();\n}\n";
        let scanned = scan(src);
        let t = test_region_lines(&scanned);
        let (waivers, wd) = parse_waivers(&scanned);
        assert!(wd.is_empty());
        let diags = apply_waivers(check_file(&ctx_for(&scope, &scanned, &t, &reg)), &waivers);
        let hl7: Vec<u32> =
            diags.iter().filter(|d| d.rule == Rule::Hl007).map(|d| d.line).collect();
        assert_eq!(hl7, vec![4], "line 3 waived, line 4 not: {diags:?}");
    }

    #[test]
    fn env_rules_fire_outside_registry() {
        let reg = |n: &str| n == "HEP_THREADS";
        let scope = FileScope::classify("crates/par/src/lib.rs");
        let src = "fn f() -> Option<String> {\n    std::env::var(\"HEP_THREADS\").ok()\n}\nfn g() {\n    let _ = \"HEP_TYPO_KNOB\";\n}\n";
        let scanned = scan(src);
        let t = test_region_lines(&scanned);
        let diags = check_file(&ctx_for(&scope, &scanned, &t, &reg));
        assert!(diags.iter().any(|d| d.rule == Rule::Hl004 && d.line == 2), "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == Rule::Hl005 && d.line == 5), "{diags:?}");
        assert!(!diags.iter().any(|d| d.rule == Rule::Hl005 && d.line == 2));
    }
}
