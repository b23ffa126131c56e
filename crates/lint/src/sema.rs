//! Pass 2 of the semantic analyzer: flow-aware rules over the
//! [`crate::model`] call graph.
//!
//! A bounded fixpoint computes one `Summary` per function — may-panic
//! (direct or via a callee), taint-out (returns an untrusted decoder/env
//! value), and param-in sinks (an unguarded index, narrowing cast or
//! allocation fed by a parameter) — then a final emission pass walks each
//! body once more to report HL011/HL012 with call-path context, plus the
//! purely lexical HL013 (parallel-determinism hazards) and HL014
//! (swallowed `Result`s). The analysis is deliberately asymmetric:
//! taint *loses* information at struct fields and unresolved calls
//! (under-approximation, fewer false positives) while guard detection is
//! generous — any lexical comparison, `min`/`clamp`/`%`, or a
//! `len`/`is_empty` mention on the receiver counts (documented in
//! DESIGN.md §8).

use crate::diag::{Diagnostic, Rule};
use crate::model::{find_calls, CallSite, FnId, Model};
use crate::rules::{FileScope, Waiver};
use crate::scanner::{Scanned, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Everything pass 2 needs, borrowed from the engine.
pub struct SemaInput<'a> {
    /// All scanned files, index-aligned with the workspace file list.
    pub scans: &'a [(FileScope, Scanned)],
    /// Per-file test-region line maps.
    pub test_lines: &'a [Vec<bool>],
    /// Per-file parsed waivers (HL007 waivers carry impossibility proofs,
    /// so waived panic sites are not HL011 sources).
    pub waivers: &'a [Vec<Waiver>],
    /// The pass-1 model.
    pub model: &'a Model,
}

/// Why a function may panic.
#[derive(Clone, Debug, PartialEq)]
enum PanicSrc {
    /// An unwaived `unwrap`/`expect`/`panic!` in this body.
    Direct {
        /// What the site is (`` `.unwrap()` `` etc.).
        what: String,
    },
    /// The first callee (in token order) whose summary may panic.
    Via(FnId),
}

/// A sink site recorded in a summary, with the downward call path.
#[derive(Clone, Debug, PartialEq)]
struct Sink {
    file: usize,
    line: u32,
    col: u32,
    what: String,
    /// Display names of intermediate callees, outermost first.
    via: Vec<String>,
}

/// Per-function dataflow summary.
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    panic: Option<PanicSrc>,
    /// Returns a value derived from an untrusted source (bit width).
    returns_untrusted: Option<u8>,
    /// Param index → first unguarded slice-index sink it reaches.
    param_index_sinks: BTreeMap<usize, Sink>,
    /// Param index → first untrusted-sensitive sink (narrowing cast,
    /// `with_capacity`, `vec![…; n]`) it reaches.
    param_untrusted_sinks: BTreeMap<usize, Sink>,
}

/// Lexical taint of one binding.
#[derive(Clone, Debug, Default, PartialEq)]
struct Taint {
    /// Untrusted source width in bits, if any.
    untrusted: Option<u8>,
    /// Bitmask of the enclosing function's params this value derives from.
    params: u64,
}

impl Taint {
    fn is_clean(&self) -> bool {
        self.untrusted.is_none() && self.params == 0
    }
    fn union(&mut self, other: &Taint) {
        self.untrusted = self.untrusted.max(other.untrusted);
        self.params |= other.params;
    }
}

/// Functions recognized as untrusted-data sources by name (so fixtures
/// work without cross-file resolution): little-endian decoders and the
/// env-registry gateway.
const SOURCES: &[(&str, u8)] = &[("u32_le_at", 32), ("u64_le_at", 64)];

/// Calls that make an expression "checked": total accessors, fallible
/// conversions and saturating/bounding arithmetic.
const SANITIZERS: &[&str] = &[
    "try_from",
    "try_into",
    "try_u32_le_at",
    "try_u64_le_at",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "checked_rem",
    "checked_shl",
    "checked_shr",
    "checked_pow",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "parse",
    "min",
    "clamp",
    "get",
    "get_mut",
];

/// `hep_par` entry points whose closures must be order-insensitive.
const PAR_ENTRIES: &[&str] =
    &["par_map", "par_for_each", "par_for_each_init", "par_reduce", "par_chunks", "par_chunks_mut"];

/// Hash-keyed collection mutators (capturing one of these in a parallel
/// closure makes insertion order thread-schedule-dependent).
const HASH_MUTATORS: &[&str] =
    &["insert", "remove", "entry", "extend", "retain", "clear", "drain", "get_mut"];

/// Non-commutative atomic read-modify-write methods.
const ATOMIC_RMW: &[&str] = &["swap", "compare_exchange", "compare_exchange_weak", "fetch_update"];

/// `std` methods whose `Result` is silently droppable via `let _ =` but
/// must not be in library code. Curated: names specific enough that a
/// bare name match is meaningful.
const STD_MUST_USE: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "sync_all",
    "sync_data",
    "write_all",
    "flush",
    "send",
    "recv",
    "try_send",
    "try_recv",
    "set_permissions",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    "set_len",
    "try_into",
];

/// Integer width in bits of a primitive type name.
fn width_of(name: &str) -> Option<u8> {
    Some(match name {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        "u64" | "i64" | "usize" | "isize" => 64,
        "u128" | "i128" => 128,
        _ => return None,
    })
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

/// Index just past the close of a balanced region whose opener sits at `i`.
fn close_of(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].kind {
            TokKind::Punct(c) if c == open => depth += 1,
            TokKind::Punct(c) if c == close => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Whether file `fi` has an HL007 waiver covering `line` — those sites
/// carry impossibility proofs and are not HL011 panic sources.
fn hl007_waived(inp: &SemaInput<'_>, fi: usize, line: u32) -> bool {
    inp.waivers.get(fi).is_some_and(|ws| {
        ws.iter().any(|w| w.rules.contains(&Rule::Hl007) && w.lines.contains(&line))
    })
}

/// Whether a token region contains a checked/total call or a `%`.
fn region_sanitized(toks: &[Tok], start: usize, end: usize) -> bool {
    for i in start..end.min(toks.len()) {
        match &toks[i].kind {
            TokKind::Punct('%') => return true,
            TokKind::Ident
                if SANITIZERS.contains(&toks[i].text.as_str()) && is_punct(toks, i + 1, '(') =>
            {
                return true;
            }
            TokKind::Ident
                if (toks[i].text == "len" || toks[i].text == "is_empty")
                    && is_punct(toks, i + 1, '(') =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// The untrusted width of a source call found in a region, if any.
fn region_source(toks: &[Tok], start: usize, end: usize) -> Option<u8> {
    let mut w = None;
    for i in start..end.min(toks.len()) {
        if toks[i].kind != TokKind::Ident || !is_punct(toks, i + 1, '(') {
            continue;
        }
        let name = toks[i].text.as_str();
        if let Some((_, sw)) = SOURCES.iter().find(|(n, _)| *n == name) {
            w = w.max(Some(*sw));
        }
        // `env_registry::read(…)` / `env_registry::knob(…)`: external input.
        if (name == "read" || name == "knob")
            && is_punct(toks, i.wrapping_sub(1), ':')
            && is_punct(toks, i.wrapping_sub(2), ':')
            && is_ident(toks, i.wrapping_sub(3), "env_registry")
        {
            w = w.max(Some(64));
        }
    }
    w
}

/// Runs the semantic rules and returns raw (pre-waiver) diagnostics.
pub fn check_semantic(inp: &SemaInput<'_>) -> Vec<Diagnostic> {
    let model = inp.model;
    let n = model.fns.len();

    // Per-function call sites, extracted once.
    let calls: Vec<Vec<CallSite>> = model
        .fns
        .iter()
        .map(|f| find_calls(&inp.scans[f.file].1.toks, f.body, f.file, &inp.scans[f.file].0, model))
        .collect();

    // Bounded fixpoint over the summaries. Summaries only grow (panic
    // flips None→Some, sink maps gain entries), so convergence is
    // guaranteed; the cap is a safety net against resolution cycles.
    let mut summaries: Vec<Summary> = vec![Summary::default(); n];
    for _round in 0..64 {
        let mut changed = false;
        for f in 0..n {
            let (s, _) = analyze_fn(inp, f, &calls[f], &summaries);
            if s != summaries[f] {
                summaries[f] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final emission pass: local + interprocedural HL012 sinks.
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32, u32, &'static str)> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic| {
        if seen.insert((d.file.clone(), d.line, d.col, d.rule.id())) {
            out.push(d);
        }
    };
    for (f, fcalls) in calls.iter().enumerate().take(n) {
        let (_, diags) = analyze_fn(inp, f, fcalls, &summaries);
        for d in diags {
            push(&mut out, d);
        }
    }

    // HL011 from the converged summaries, anchored per design: part A at
    // the public fn declaration, part B at the index site.
    for (fid, f) in model.fns.iter().enumerate() {
        let scope = &inp.scans[f.file].0;
        if !f.is_pub || !scope.library || scope.crate_name == "bench" {
            continue;
        }
        let sum = &summaries[fid];
        if let Some(PanicSrc::Via(_)) = sum.panic {
            let (chain, what) = panic_chain(model, &summaries, fid);
            push(
                &mut out,
                Diagnostic {
                    file: scope.path.clone(),
                    line: f.line,
                    col: f.col,
                    rule: Rule::Hl011,
                    msg: format!(
                        "public fn `{}` can reach {what} via `{chain}` — make the call path total, or waive the root site with its invariant",
                        f.display()
                    ),
                },
            );
        }
        for (p, sink) in &sum.param_index_sinks {
            let pname = f.params.get(*p).map(|p| p.name.clone()).unwrap_or_default();
            let via = if sink.via.is_empty() {
                String::new()
            } else {
                format!(" (via `{}`)", sink.via.join(" → "))
            };
            push(
                &mut out,
                Diagnostic {
                    file: inp.scans[sink.file].0.path.clone(),
                    line: sink.line,
                    col: sink.col,
                    rule: Rule::Hl011,
                    msg: format!(
                        "index {} is fed by parameter `{pname}` of public fn `{}`{via} with no visible bounds guard — guard it, use `get`, or waive with the range invariant",
                        sink.what,
                        f.display()
                    ),
                },
            );
        }
    }

    // Purely lexical rules.
    for (fi, (scope, scanned)) in inp.scans.iter().enumerate() {
        if !scope.library || scope.compat {
            continue;
        }
        check_par_closures(inp, fi, scope, scanned, &mut out);
        check_swallowed_results(inp, fi, scope, scanned, &mut out);
    }

    out
}

/// Reconstructs the call chain from a public fn to the direct panic site.
fn panic_chain(model: &Model, summaries: &[Summary], start: FnId) -> (String, String) {
    let mut names = Vec::new();
    let mut cur = start;
    let mut what = "a panic".to_string();
    let mut visited = BTreeSet::new();
    for _ in 0..8 {
        if !visited.insert(cur) {
            break;
        }
        match &summaries[cur].panic {
            Some(PanicSrc::Via(g)) => {
                names.push(model.fns[*g].display());
                cur = *g;
            }
            Some(PanicSrc::Direct { what: w }) => {
                what = w.clone();
                break;
            }
            None => break,
        }
    }
    (names.join(" → "), what)
}

/// One linear, lexical dataflow walk over a function body. Returns the
/// summary and any locally anchored diagnostics (only the final pass
/// keeps the diagnostics).
fn analyze_fn(
    inp: &SemaInput<'_>,
    fid: FnId,
    calls: &[CallSite],
    summaries: &[Summary],
) -> (Summary, Vec<Diagnostic>) {
    let f = &inp.model.fns[fid];
    // hep-lint: allow(HL011) -- FnItem.file is minted by the model builder as an index into the same scans slice
    let (scope, scanned) = &inp.scans[f.file];
    let toks = &scanned.toks;
    let (b0, b1) = f.body;
    let mut sum = Summary::default();
    let mut diags = Vec::new();

    // Receivers whose length is observed anywhere in this body.
    let mut len_aware: BTreeSet<&str> = BTreeSet::new();
    for i in b0..b1 {
        if is_punct(toks, i, '.')
            && (is_ident(toks, i + 1, "len") || is_ident(toks, i + 1, "is_empty"))
        {
            if let Some(r) = ident_text(toks, i.wrapping_sub(1)) {
                len_aware.insert(r);
            }
        }
    }
    let call_at: BTreeMap<usize, &CallSite> = calls.iter().map(|c| (c.tok, c)).collect();

    // Bindings: parameters seed the param-derivation bits.
    let mut env: BTreeMap<String, Taint> = BTreeMap::new();
    for (i, p) in f.params.iter().enumerate().take(64) {
        if !p.name.is_empty() {
            env.insert(p.name.clone(), Taint { untrusted: None, params: 1u64 << i });
        }
    }

    // Taint of a region: union over tracked idents + recognized sources +
    // resolved calls that return untrusted data. A sanitizer in the
    // region cleans everything (flow-insensitive, documented).
    let region_taint = |env: &BTreeMap<String, Taint>, start: usize, end: usize| -> Taint {
        let mut t = Taint::default();
        for k in start..end.min(toks.len()) {
            if let Some(id) = ident_text(toks, k) {
                if let Some(e) = env.get(id) {
                    t.union(e);
                }
                if let Some(c) = call_at.get(&k) {
                    if let Some(g) = c.target {
                        t.untrusted = t.untrusted.max(summaries[g].returns_untrusted);
                    }
                }
            }
        }
        t.untrusted = t.untrusted.max(region_source(toks, start, end));
        if region_sanitized(toks, start, end) {
            return Taint::default();
        }
        t
    };

    // End of the statement starting after `from`: `;` at depth 0, or a
    // top-level `{` (if/while/else-less let), whichever comes first.
    let stmt_end = |from: usize| -> usize {
        let mut d = 0i32;
        let mut k = from;
        while k < b1 {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
                TokKind::Punct(';') if d <= 0 => return k,
                TokKind::Punct('{') if d <= 0 => return k,
                _ => {}
            }
            k += 1;
        }
        b1
    };

    let mut brace = 1i32;
    let mut tail_start = b0 + 1;
    let mut i = b0 + 1;
    while i + 1 < b1 {
        let tok = &toks[i];
        match tok.kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Punct(';') if brace == 1 => tail_start = i + 1,
            TokKind::Punct('[') => {
                // Slice-index sink: `recv[expr]` with a tracked, unguarded
                // expression. A keyword before `[` is a slice pattern
                // (`let [a, b] = …`) or similar, not an index receiver.
                if let Some(recv) = ident_text(toks, i.wrapping_sub(1)).filter(|r| {
                    !matches!(*r, "let" | "in" | "return" | "else" | "box" | "mut" | "ref")
                }) {
                    let end = close_of(toks, i, '[', ']') - 1;
                    let guarded = len_aware.contains(recv) || region_sanitized(toks, i + 1, end);
                    if !guarded {
                        for k in i + 1..end {
                            let Some(id) = ident_text(toks, k) else { continue };
                            let Some(e) = env.get(id) else { continue };
                            if let Some(w) = e.untrusted {
                                diags.push(Diagnostic {
                                    file: scope.path.clone(),
                                    line: toks[k].line,
                                    col: toks[k].col,
                                    rule: Rule::Hl012,
                                    msg: format!(
                                        "untrusted {w}-bit value `{id}` indexes `{recv}` in `{}` without a bounds check — compare against `{recv}.len()` or use `get`",
                                        f.display()
                                    ),
                                });
                            }
                            for p in 0..f.params.len().min(64) {
                                if e.params & (1u64 << p) != 0 {
                                    sum.param_index_sinks.entry(p).or_insert_with(|| Sink {
                                        file: f.file,
                                        line: toks[k].line,
                                        col: toks[k].col,
                                        what: format!("`{recv}[{id}]` in `{}`", f.display()),
                                        via: Vec::new(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            TokKind::Ident => {
                let text = tok.text.as_str();
                match text {
                    "let" => {
                        // Pattern idents = lowercase-start idents before the
                        // `=`; a `:` switches to type position until `=`.
                        let mut j = i + 1;
                        let mut names: Vec<String> = Vec::new();
                        let mut in_ty = false;
                        let mut d = 0i32;
                        while j < b1 {
                            match toks[j].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                                TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
                                TokKind::Punct(':') if d == 0 => in_ty = true,
                                TokKind::Punct('=') if d <= 0 && !is_punct(toks, j + 1, '=') => {
                                    break
                                }
                                TokKind::Punct(';') | TokKind::Punct('{') if d <= 0 => break,
                                TokKind::Ident if !in_ty => {
                                    let t = toks[j].text.as_str();
                                    if t.starts_with(|c: char| c.is_ascii_lowercase())
                                        && !matches!(t, "mut" | "ref" | "box")
                                    {
                                        names.push(t.to_string());
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        if j < b1 && is_punct(toks, j, '=') {
                            let end = stmt_end(j + 1);
                            let t = region_taint(&env, j + 1, end);
                            for nm in names {
                                env.insert(nm, t.clone());
                            }
                        }
                    }
                    "as" => {
                        // Narrowing cast of an untrusted value.
                        if let (Some(op), Some(target)) =
                            (ident_text(toks, i.wrapping_sub(1)), ident_text(toks, i + 1))
                        {
                            if let (Some(e), Some(tw)) = (env.get(op), width_of(target)) {
                                if let Some(w) = e.untrusted {
                                    if tw < w {
                                        diags.push(Diagnostic {
                                            file: scope.path.clone(),
                                            line: toks[i - 1].line,
                                            col: toks[i - 1].col,
                                            rule: Rule::Hl012,
                                            msg: format!(
                                                "untrusted {w}-bit value `{op}` narrowed to `{target}` with `as` in `{}` — use `try_into`/a checked helper so truncation is an error",
                                                f.display()
                                            ),
                                        });
                                    }
                                }
                                let e = e.clone();
                                if e.params != 0 && width_of(target).is_some_and(|tw| tw < 64) {
                                    for p in 0..f.params.len().min(64) {
                                        if e.params & (1u64 << p) != 0 {
                                            sum.param_untrusted_sinks.entry(p).or_insert_with(
                                                || Sink {
                                                    file: f.file,
                                                    line: toks[i - 1].line,
                                                    col: toks[i - 1].col,
                                                    what: format!(
                                                        "an `as {target}` narrowing in `{}`",
                                                        f.display()
                                                    ),
                                                    via: Vec::new(),
                                                },
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                    "with_capacity" if is_punct(toks, i + 1, '(') => {
                        let end = close_of(toks, i + 1, '(', ')') - 1;
                        capacity_sink(
                            inp,
                            f,
                            &env,
                            toks,
                            i + 2,
                            end,
                            "with_capacity",
                            &mut sum,
                            &mut diags,
                        );
                    }
                    "vec" if is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '[') => {
                        // `vec![elem; len]`: the length expression.
                        let close = close_of(toks, i + 2, '[', ']') - 1;
                        let mut d = 0i32;
                        let mut semi = None;
                        for (k, t) in toks.iter().enumerate().take(close).skip(i + 3) {
                            match t.kind {
                                TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                                TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
                                TokKind::Punct(';') if d == 0 => {
                                    semi = Some(k);
                                    break;
                                }
                                _ => {}
                            }
                        }
                        if let Some(s) = semi {
                            capacity_sink(
                                inp,
                                f,
                                &env,
                                toks,
                                s + 1,
                                close,
                                "vec![…; n]",
                                &mut sum,
                                &mut diags,
                            );
                        }
                    }
                    "return" => {
                        let end = stmt_end(i + 1);
                        sum.returns_untrusted =
                            sum.returns_untrusted.max(region_taint(&env, i + 1, end).untrusted);
                    }
                    "unwrap" | "expect"
                        if is_punct(toks, i.wrapping_sub(1), '.') && is_punct(toks, i + 1, '(') =>
                    {
                        if sum.panic.is_none() && !hl007_waived(inp, f.file, tok.line) {
                            let what =
                                if text == "unwrap" { "`.unwrap()`" } else { "`.expect(…)`" };
                            sum.panic = Some(PanicSrc::Direct { what: what.into() });
                        }
                    }
                    "panic" if is_punct(toks, i + 1, '!') => {
                        if sum.panic.is_none() && !hl007_waived(inp, f.file, tok.line) {
                            sum.panic = Some(PanicSrc::Direct { what: "`panic!`".into() });
                        }
                    }
                    _ => {
                        // Plain re-assignment at statement start rebinds
                        // the taint; compound assignment unions it in.
                        let stmt_head = i == b0 + 1
                            || is_punct(toks, i - 1, ';')
                            || is_punct(toks, i - 1, '{')
                            || is_punct(toks, i - 1, '}');
                        if stmt_head && is_punct(toks, i + 1, '=') && !is_punct(toks, i + 2, '=') {
                            let end = stmt_end(i + 2);
                            let t = region_taint(&env, i + 2, end);
                            env.insert(text.to_string(), t);
                        } else if stmt_head
                            && toks.get(i + 1).is_some_and(|t| {
                                matches!(
                                    t.kind,
                                    TokKind::Punct('+')
                                        | TokKind::Punct('-')
                                        | TokKind::Punct('*')
                                        | TokKind::Punct('|')
                                        | TokKind::Punct('&')
                                        | TokKind::Punct('^')
                                )
                            })
                            && is_punct(toks, i + 2, '=')
                        {
                            let end = stmt_end(i + 3);
                            let mut t = region_taint(&env, i + 3, end);
                            if let Some(e) = env.get(text) {
                                t.union(e);
                            }
                            env.insert(text.to_string(), t);
                        }
                        // Comparison observation sanitizes a binding.
                        if env.contains_key(text) && compared_here(toks, i) {
                            env.remove(text);
                        }
                        // Call: propagate through the callee summary.
                        if let Some(c) = call_at.get(&i) {
                            process_call(
                                inp,
                                f,
                                c,
                                &env,
                                summaries,
                                &region_taint,
                                &mut sum,
                                &mut diags,
                            );
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Tail expression: taints the return value when the fn returns one.
    if !f.ret.is_empty() && f.ret != "( )" {
        sum.returns_untrusted =
            sum.returns_untrusted.max(region_taint(&env, tail_start, b1 - 1).untrusted);
    }
    (sum, diags)
}

/// Whether the ident at `i` is an operand of a lexical comparison
/// (including `assert!`-style macro bodies). Shifts (`<<`, `>>`), arrows
/// (`->`, `=>`) and turbofish (`::<`) do not count.
fn compared_here(toks: &[Tok], i: usize) -> bool {
    let p = |off: isize, c: char| {
        let j = i as isize + off;
        j >= 0 && is_punct(toks, j as usize, c)
    };
    // ident < …   ident > …   ident == …   ident != …
    if p(1, '<') && !p(2, '<') && !p(-1, ':') {
        return true;
    }
    if p(1, '>') && !p(2, '>') {
        return true;
    }
    if p(1, '=') && p(2, '=') {
        return true;
    }
    if p(1, '!') && p(2, '=') {
        return true;
    }
    // … < ident   … > ident   … <= / >= / == / != ident
    if p(-1, '<') && !p(-2, '<') && !p(-2, ':') {
        return true;
    }
    if p(-1, '>') && !p(-2, '>') && !p(-2, '-') && !p(-2, '=') && !p(-2, ':') {
        return true;
    }
    if p(-1, '=') && (p(-2, '<') || p(-2, '>') || p(-2, '=') || p(-2, '!')) {
        return true;
    }
    false
}

/// Records/reports a capacity-style sink (`with_capacity`, `vec![…; n]`).
#[allow(clippy::too_many_arguments)] // internal plumbing, two call sites
fn capacity_sink(
    inp: &SemaInput<'_>,
    f: &crate::model::FnItem,
    env: &BTreeMap<String, Taint>,
    toks: &[Tok],
    start: usize,
    end: usize,
    what: &str,
    sum: &mut Summary,
    diags: &mut Vec<Diagnostic>,
) {
    if region_sanitized(toks, start, end) {
        return;
    }
    let scope = &inp.scans[f.file].0;
    for k in start..end.min(toks.len()) {
        let Some(id) = ident_text(toks, k) else { continue };
        let Some(e) = env.get(id) else { continue };
        if let Some(w) = e.untrusted {
            diags.push(Diagnostic {
                file: scope.path.clone(),
                line: toks[k].line,
                col: toks[k].col,
                rule: Rule::Hl012,
                msg: format!(
                    "untrusted {w}-bit value `{id}` sizes `{what}` in `{}` — validate it against the actual input length first",
                    f.display()
                ),
            });
        }
        for p in 0..f.params.len().min(64) {
            if e.params & (1u64 << p) != 0 {
                sum.param_untrusted_sinks.entry(p).or_insert_with(|| Sink {
                    file: f.file,
                    line: toks[k].line,
                    col: toks[k].col,
                    what: format!("`{what}` in `{}`", f.display()),
                    via: Vec::new(),
                });
            }
        }
    }
}

/// Propagates taint through one call site: inherits callee sinks for
/// param-derived args, reports callee sinks for untrusted args, and
/// inherits may-panic.
/// Taint of a token region under an environment (a closure over the body
/// walk's locals, passed down so the call handler shares its view).
type RegionTaint<'e> = dyn Fn(&BTreeMap<String, Taint>, usize, usize) -> Taint + 'e;

#[allow(clippy::too_many_arguments)] // internal plumbing, one call site
fn process_call(
    inp: &SemaInput<'_>,
    f: &crate::model::FnItem,
    c: &CallSite,
    env: &BTreeMap<String, Taint>,
    summaries: &[Summary],
    region_taint: &RegionTaint<'_>,
    sum: &mut Summary,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(g) = c.target else { return };
    let gs = &summaries[g];
    let gf = &inp.model.fns[g];
    if gs.panic.is_some() && sum.panic.is_none() {
        sum.panic = Some(PanicSrc::Via(g));
    }
    for (pos, (a0, a1)) in c.args.iter().enumerate() {
        if pos >= gf.params.len() {
            break;
        }
        let t = region_taint(env, *a0, *a1);
        if t.is_clean() {
            continue;
        }
        if let Some(w) = t.untrusted {
            for map in [&gs.param_index_sinks, &gs.param_untrusted_sinks] {
                if let Some(sink) = map.get(&pos) {
                    let via = if sink.via.is_empty() {
                        String::new()
                    } else {
                        format!(" (via `{}`)", sink.via.join(" → "))
                    };
                    diags.push(Diagnostic {
                        file: inp.scans[sink.file].0.path.clone(),
                        line: sink.line,
                        col: sink.col,
                        rule: Rule::Hl012,
                        msg: format!(
                            "untrusted {w}-bit value from `{}` flows into parameter `{}` of `{}`{via}, reaching {} unchecked — sanitize before the call or make the callee total",
                            f.display(),
                            gf.params[pos].name,
                            gf.display(),
                            sink.what
                        ),
                    });
                }
            }
        }
        if t.params != 0 {
            for (src, dst) in [
                (&gs.param_index_sinks, &mut sum.param_index_sinks),
                (&gs.param_untrusted_sinks, &mut sum.param_untrusted_sinks),
            ] {
                if let Some(sink) = src.get(&pos) {
                    for p in 0..f.params.len().min(64) {
                        if t.params & (1u64 << p) != 0 {
                            dst.entry(p).or_insert_with(|| {
                                let mut via = vec![gf.display()];
                                via.extend(sink.via.iter().take(5).cloned());
                                Sink {
                                    file: sink.file,
                                    line: sink.line,
                                    col: sink.col,
                                    what: sink.what.clone(),
                                    via,
                                }
                            });
                        }
                    }
                }
            }
        }
    }
}

/// HL013: determinism hazards in closures passed to `hep_par` entry
/// points.
fn check_par_closures(
    inp: &SemaInput<'_>,
    fi: usize,
    scope: &FileScope,
    scanned: &Scanned,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &scanned.toks;
    let in_test = |line: u32| {
        scope.tests_dir || inp.test_lines[fi].get(line as usize).copied().unwrap_or(false)
    };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !PAR_ENTRIES.contains(&toks[i].text.as_str()) {
            continue;
        }
        let entry = toks[i].text.clone();
        // Skip an optional turbofish, then require the call paren.
        let mut j = i + 1;
        if is_punct(toks, j, ':') && is_punct(toks, j + 1, ':') && is_punct(toks, j + 2, '<') {
            j = close_of(toks, j + 2, '<', '>');
        }
        if !is_punct(toks, j, '(') || in_test(toks[i].line) {
            continue;
        }
        let close = close_of(toks, j, '(', ')') - 1;
        // Float/hash knowledge is scoped to the enclosing item — from the
        // last `fn` keyword before the entry call through the call's
        // closing paren — so a `x: f64` param in one function does not
        // poison an identically named integer in the next. A lexical
        // approximation of scoping, biased toward fewer false positives.
        let fn_start = (0..i).rev().find(|&k| is_ident(toks, k, "fn")).unwrap_or(0);
        let item = &toks[fn_start..(close + 1).min(toks.len())];
        let hashy = crate::rules::hashy_idents(item);
        let floaty = floaty_idents(item);
        // Locate top-level closures: `|params| body` (or `move |…|`).
        let mut d = 0i32;
        let mut closures: Vec<(usize, usize, usize)> = Vec::new(); // (params0, params1, body_end)
        let mut k = j + 1;
        while k < close {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                TokKind::Punct('|') if d == 0 => {
                    let prev_ok = k == j + 1
                        || is_punct(toks, k - 1, '(')
                        || is_punct(toks, k - 1, ',')
                        || is_ident(toks, k - 1, "move");
                    if prev_ok {
                        // Params run to the matching `|` (or `||`).
                        let pend = if is_punct(toks, k + 1, '|') {
                            k + 1
                        } else {
                            let mut m = k + 1;
                            let mut pd = 0i32;
                            while m < close {
                                match toks[m].kind {
                                    TokKind::Punct('(')
                                    | TokKind::Punct('[')
                                    | TokKind::Punct('<') => pd += 1,
                                    TokKind::Punct(')')
                                    | TokKind::Punct(']')
                                    | TokKind::Punct('>') => pd -= 1,
                                    TokKind::Punct('|') if pd <= 0 => break,
                                    _ => {}
                                }
                                m += 1;
                            }
                            m
                        };
                        // Body runs to the next top-level `,` or the close.
                        let mut m = pend + 1;
                        let mut bd = 0i32;
                        while m < close {
                            match toks[m].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                    bd += 1
                                }
                                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                    bd -= 1
                                }
                                TokKind::Punct(',') if bd <= 0 => break,
                                _ => {}
                            }
                            m += 1;
                        }
                        closures.push((k + 1, pend, m));
                        k = m;
                        continue;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        for (ci, &(p0, p1, bend)) in closures.iter().enumerate() {
            let body = (p1 + 1, bend);
            // Closure params and closure-local lets are not captures.
            let mut locals: BTreeSet<String> = BTreeSet::new();
            let mut closure_floaty: BTreeSet<String> = BTreeSet::new();
            let mut m = p0;
            while m < p1 {
                if let Some(nm) = ident_text(toks, m) {
                    if nm != "mut" && nm != "ref" && !is_punct(toks, m.wrapping_sub(1), ':') {
                        locals.insert(nm.to_string());
                        if is_punct(toks, m + 1, ':')
                            && (is_ident(toks, m + 2, "f32") || is_ident(toks, m + 2, "f64"))
                        {
                            closure_floaty.insert(nm.to_string());
                        }
                    }
                }
                m += 1;
            }
            for m in body.0..body.1 {
                if is_ident(toks, m, "let") {
                    if let Some(nm) = ident_text(toks, m + 1) {
                        if nm == "mut" {
                            if let Some(nm2) = ident_text(toks, m + 2) {
                                locals.insert(nm2.to_string());
                            }
                        } else {
                            locals.insert(nm.to_string());
                        }
                    }
                }
            }
            let is_floaty = |m: usize| -> bool {
                toks.get(m).is_some_and(|t| {
                    t.is_float()
                        || (t.kind == TokKind::Ident
                            && (floaty.contains(&t.text) || closure_floaty.contains(&t.text)))
                })
            };
            // Hazard 1: non-associative float folding — only the fold
            // closure (the last one) of `par_reduce` accumulates across
            // items, so only it is order-sensitive.
            if entry == "par_reduce" && ci + 1 == closures.len() {
                for m in body.0..body.1 {
                    let op = matches!(
                        toks[m].kind,
                        TokKind::Punct('+')
                            | TokKind::Punct('-')
                            | TokKind::Punct('*')
                            | TokKind::Punct('/')
                    );
                    // `->` is an arrow, not a subtraction.
                    if !op || (toks[m].kind == TokKind::Punct('-') && is_punct(toks, m + 1, '>')) {
                        continue;
                    }
                    let binary = m > 0
                        && (toks[m - 1].kind == TokKind::Num
                            || toks[m - 1].kind == TokKind::Ident
                            || is_punct(toks, m - 1, ')'));
                    if binary && (is_floaty(m.wrapping_sub(1)) || is_floaty(m + 1)) {
                        out.push(Diagnostic {
                            file: scope.path.clone(),
                            line: toks[m].line,
                            col: toks[m].col,
                            rule: Rule::Hl013,
                            msg: format!(
                                "float arithmetic in the fold closure of `{entry}` — float addition is not associative, so the result depends on chunking; fold integers (fixed-point) or reduce sequentially"
                            ),
                        });
                        break;
                    }
                }
            }
            // Hazard 2: mutating a captured hash-keyed collection.
            for m in body.0..body.1 {
                let Some(nm) = ident_text(toks, m) else { continue };
                if hashy.contains(nm)
                    && !locals.contains(nm)
                    && is_punct(toks, m + 1, '.')
                    && ident_text(toks, m + 2).is_some_and(|x| HASH_MUTATORS.contains(&x))
                    && is_punct(toks, m + 3, '(')
                {
                    out.push(Diagnostic {
                        file: scope.path.clone(),
                        line: toks[m].line,
                        col: toks[m].col,
                        rule: Rule::Hl013,
                        msg: format!(
                            "closure passed to `{entry}` mutates captured hash-keyed collection `{nm}` — per-thread accumulation order becomes schedule-dependent; accumulate per-chunk and merge in index order"
                        ),
                    });
                }
            }
            // Hazard 3: non-commutative atomic RMW.
            for m in body.0..body.1 {
                if is_punct(toks, m, '.')
                    && ident_text(toks, m + 1).is_some_and(|x| ATOMIC_RMW.contains(&x))
                    && is_punct(toks, m + 2, '(')
                {
                    out.push(Diagnostic {
                        file: scope.path.clone(),
                        line: toks[m + 1].line,
                        col: toks[m + 1].col,
                        rule: Rule::Hl013,
                        msg: format!(
                            "non-commutative atomic `{}` in a closure passed to `{entry}` — the winner depends on thread interleaving; use a commutative RMW (fetch_add/fetch_min) or merge deterministically after the join",
                            toks[m + 1].text
                        ),
                    });
                }
            }
        }
    }
}

/// Lexical binding tracker for float-typed identifiers (mirrors
/// `hashy_idents`): `let x = 1.0`, `let x: f64 = …`, `name: f32` fields
/// and params.
fn floaty_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut floaty = BTreeSet::new();
    for i in 0..toks.len() {
        if is_ident(toks, i, "let") {
            let mut j = i + 1;
            if is_ident(toks, j, "mut") {
                j += 1;
            }
            if let Some(name) = ident_text(toks, j) {
                for t in toks.iter().take((j + 24).min(toks.len())).skip(j + 1) {
                    match t.kind {
                        TokKind::Punct(';') => break,
                        TokKind::Num if t.is_float() => {
                            floaty.insert(name.to_string());
                            break;
                        }
                        TokKind::Ident if t.text == "f32" || t.text == "f64" => {
                            floaty.insert(name.to_string());
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        if toks[i].kind == TokKind::Ident
            && is_punct(toks, i + 1, ':')
            && !is_punct(toks, i + 2, ':')
            && (is_ident(toks, i + 2, "f32") || is_ident(toks, i + 2, "f64"))
        {
            floaty.insert(toks[i].text.clone());
        }
    }
    floaty
}

/// HL014: `let _ =` discarding a `Result`/`#[must_use]` value in library
/// code. Macros (`let _ = write!(…)`) are not calls and stay silent.
fn check_swallowed_results(
    inp: &SemaInput<'_>,
    fi: usize,
    scope: &FileScope,
    scanned: &Scanned,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &scanned.toks;
    let in_test = |line: u32| {
        scope.tests_dir || inp.test_lines[fi].get(line as usize).copied().unwrap_or(false)
    };
    for i in 0..toks.len() {
        if !is_ident(toks, i, "let")
            || !toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident && t.text == "_")
            || !is_punct(toks, i + 2, '=')
            || in_test(toks[i].line)
        {
            continue;
        }
        // Find the last top-level call in the RHS.
        let mut d = 0i32;
        let mut k = i + 3;
        let mut last: Option<(usize, bool)> = None; // (name tok, is_method)
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                TokKind::Punct(';') if d <= 0 => break,
                TokKind::Ident if d == 0 => {
                    let mut j = k + 1;
                    if is_punct(toks, j, ':')
                        && is_punct(toks, j + 1, ':')
                        && is_punct(toks, j + 2, '<')
                    {
                        j = close_of(toks, j + 2, '<', '>');
                    }
                    if is_punct(toks, j, '(') && !is_punct(toks, k + 1, '!') {
                        last = Some((k, is_punct(toks, k.wrapping_sub(1), '.')));
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let Some((name_tok, method)) = last else { continue };
        let name = toks[name_tok].text.clone();
        let (flagged, why) = if method && STD_MUST_USE.contains(&name.as_str()) {
            (true, "a `Result`".to_string())
        } else {
            let mut path = vec![name.clone()];
            if !method {
                let mut k2 = name_tok;
                while k2 >= 3
                    && is_punct(toks, k2 - 1, ':')
                    && is_punct(toks, k2 - 2, ':')
                    && toks[k2 - 3].kind == TokKind::Ident
                {
                    path.insert(0, toks[k2 - 3].text.clone());
                    k2 -= 3;
                }
            }
            match inp.model.resolve(fi, scope, &path, method) {
                Some(g) => {
                    let gf = &inp.model.fns[g];
                    if gf.must_use {
                        (true, "a `#[must_use]` value".to_string())
                    } else if gf.ret.split_whitespace().any(|t| t == "Result") {
                        (true, format!("a `Result` from `{}`", gf.display()))
                    } else {
                        (false, String::new())
                    }
                }
                None => (false, String::new()),
            }
        };
        if flagged {
            out.push(Diagnostic {
                file: scope.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                rule: Rule::Hl014,
                msg: format!(
                    "`let _ =` discards {why} returned by `{name}` — handle or propagate it, or waive with why dropping it is sound"
                ),
            });
        }
    }
}
