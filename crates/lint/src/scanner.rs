//! A comment-, string- and char-literal-aware Rust token scanner.
//!
//! `hep-lint` runs in an offline build container, so it cannot use `syn`;
//! instead the rules work over this hand-rolled lexer. It produces exactly
//! what the rules need and no more: identifier / punctuation / literal
//! tokens with `line:col` positions, the comment stream (for `SAFETY:`
//! proofs and waivers), and per-line structure (code / attribute /
//! comment-only) for the "immediately preceded by" checks. Known limits —
//! no macro expansion, no type resolution, no name resolution — are
//! documented in DESIGN.md §8.

/// What a token is. Punctuation is one character per token (`::` is two
/// `:` tokens), which keeps sequence matching trivial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct(char),
    /// String literal (plain/raw/byte); `text` is the inner content.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal; `text` holds the literal's source spelling.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One code token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Identifier name (raw `r#name` identifiers lex as their bare
    /// `name`), string-literal content, or numeric literal spelling;
    /// empty for punctuation (the character lives in the kind) and
    /// lifetimes.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

/// One comment (line or block) with its starting position.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Full comment text, including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based column the comment starts at.
    pub col: u32,
    /// 1-based line the comment ends on (equals `line` for line comments).
    pub end_line: u32,
}

/// Scan result: tokens, comments, and per-line structure flags.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// `has_code[line]` (1-based; index 0 unused): the line holds at
    /// least one code token.
    pub has_code: Vec<bool>,
    /// `has_comment[line]`: the line is inside or starts a comment.
    pub has_comment: Vec<bool>,
    /// `attr_start[line]`: the line's first code token is `#` (an
    /// attribute line).
    pub attr_start: Vec<bool>,
    /// Total line count.
    pub n_lines: u32,
}

impl Scanned {
    /// A line containing comments (or nothing) but no code.
    pub fn is_comment_only(&self, line: u32) -> bool {
        let l = line as usize;
        l < self.has_code.len() && !self.has_code[l] && self.has_comment[l]
    }

    /// A line whose code is (the start of) an attribute.
    pub fn is_attr_line(&self, line: u32) -> bool {
        let l = line as usize;
        l < self.attr_start.len() && self.attr_start[l]
    }

    /// All comment text blocks that start on `line`, concatenated.
    pub fn comment_text_on(&self, line: u32) -> String {
        let mut out = String::new();
        for c in &self.comments {
            if c.line <= line && line <= c.end_line {
                out.push_str(&c.text);
                out.push('\n');
            }
        }
        out
    }
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. The scanner never fails: malformed input (an
/// unterminated string, say) simply ends the current token at EOF, which
/// is the right behavior for a linter that must keep scanning the rest of
/// the workspace.
pub fn scan(src: &str) -> Scanned {
    let n_lines = src.lines().count().max(1) as u32;
    let mut out = Scanned {
        has_code: vec![false; n_lines as usize + 2],
        has_comment: vec![false; n_lines as usize + 2],
        attr_start: vec![false; n_lines as usize + 2],
        n_lines,
        ..Scanned::default()
    };
    let mut cur = Cursor { chars: src.chars().collect(), i: 0, line: 1, col: 1 };

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        // Line comment.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            mark(&mut out.has_comment, line, line);
            out.comments.push(Comment { text, line, col, end_line: line });
            continue;
        }
        // Block comment (nested).
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(c) = cur.peek(0) {
                if c == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push_str("/*");
                    cur.bump();
                    cur.bump();
                } else if c == '*' && cur.peek(1) == Some('/') {
                    depth -= 1;
                    text.push_str("*/");
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(c);
                    cur.bump();
                }
            }
            let end_line = cur.line;
            mark(&mut out.has_comment, line, end_line);
            out.comments.push(Comment { text, line, col, end_line });
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Identifier — or a raw/byte string prefix.
        if is_ident_start(c) {
            let mut name = String::new();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    name.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            let next = cur.peek(0);
            let raw_like = matches!(name.as_str(), "r" | "b" | "br" | "rb");
            if raw_like && (next == Some('"') || next == Some('#')) {
                if let Some(content) = lex_maybe_raw_string(&mut cur, &name) {
                    push_tok(&mut out, TokKind::Str, content, line, col);
                    continue;
                }
                // `r#ident` raw identifier: one Ident token carrying the
                // bare name, not `r` + `#` + `ident` (which would confuse
                // the attribute detector and the item parser).
                if name == "r" && next == Some('#') && cur.peek(1).is_some_and(is_ident_start) {
                    cur.bump(); // '#'
                    let mut raw_name = String::new();
                    while let Some(c) = cur.peek(0) {
                        if is_ident_continue(c) {
                            raw_name.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    push_tok(&mut out, TokKind::Ident, raw_name, line, col);
                    continue;
                }
            }
            push_tok(&mut out, TokKind::Ident, name, line, col);
            continue;
        }
        // Plain (or byte-prefixed, handled above) string literal.
        if c == '"' {
            cur.bump();
            let mut content = String::new();
            while let Some(c) = cur.peek(0) {
                if c == '\\' {
                    content.push(c);
                    cur.bump();
                    if let Some(e) = cur.bump() {
                        content.push(e);
                    }
                    continue;
                }
                if c == '"' {
                    cur.bump();
                    break;
                }
                content.push(c);
                cur.bump();
            }
            push_tok(&mut out, TokKind::Str, content, line, col);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let one = cur.peek(1);
            let two = cur.peek(2);
            // `'a` / `'static` / `'_` are lifetimes; `'a'` / `'\n'` are
            // char literals. An ident-start char followed by anything but
            // a closing quote means lifetime.
            let lifetime = match (one, two) {
                (Some(a), Some(b)) => is_ident_start(a) && b != '\'',
                (Some(a), None) => is_ident_start(a),
                _ => false,
            };
            if lifetime {
                cur.bump(); // '
                while let Some(c) = cur.peek(0) {
                    if is_ident_continue(c) {
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push_tok(&mut out, TokKind::Lifetime, String::new(), line, col);
            } else {
                cur.bump(); // '
                            // Consume one (possibly escaped) char and the closing '.
                if cur.peek(0) == Some('\\') {
                    cur.bump();
                    cur.bump();
                } else {
                    cur.bump();
                }
                if cur.peek(0) == Some('\'') {
                    cur.bump();
                }
                push_tok(&mut out, TokKind::Char, String::new(), line, col);
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut prev = ' ';
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                let take = is_ident_continue(c)
                    || (c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()))
                    || ((c == '+' || c == '-') && (prev == 'e' || prev == 'E'));
                if take {
                    prev = c;
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            push_tok(&mut out, TokKind::Num, text, line, col);
            continue;
        }
        // Punctuation: one char per token.
        cur.bump();
        push_tok(&mut out, TokKind::Punct(c), String::new(), line, col);
    }
    out
}

fn mark(v: &mut [bool], from: u32, to: u32) {
    for l in from..=to {
        if let Some(slot) = v.get_mut(l as usize) {
            *slot = true;
        }
    }
}

fn push_tok(out: &mut Scanned, kind: TokKind, text: String, line: u32, col: u32) {
    if let Some(slot) = out.has_code.get_mut(line as usize) {
        if !*slot && kind == TokKind::Punct('#') {
            if let Some(a) = out.attr_start.get_mut(line as usize) {
                *a = true;
            }
        }
        *slot = true;
    }
    out.toks.push(Tok { kind, text, line, col });
}

/// Lexes a raw / byte / raw-byte string after its prefix identifier was
/// consumed. Returns `None` when it turns out not to be a string start
/// (e.g. `r#enum` raw identifiers), leaving the cursor untouched then is
/// impossible with this simple cursor — so this is only called when the
/// lookahead already confirmed `"` or `#`, and `r#ident` is recognized and
/// rejected by checking the char after the hashes.
fn lex_maybe_raw_string(cur: &mut Cursor, prefix: &str) -> Option<String> {
    let raw = prefix.contains('r');
    if !raw {
        // b"..." — plain string body with escapes.
        if cur.peek(0) != Some('"') {
            return None;
        }
        cur.bump();
        let mut content = String::new();
        while let Some(c) = cur.peek(0) {
            if c == '\\' {
                content.push(c);
                cur.bump();
                if let Some(e) = cur.bump() {
                    content.push(e);
                }
                continue;
            }
            if c == '"' {
                cur.bump();
                break;
            }
            content.push(c);
            cur.bump();
        }
        return Some(content);
    }
    // r / br: count hashes, then require a quote (else: raw identifier).
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        return None;
    }
    for _ in 0..=hashes {
        cur.bump(); // hashes + opening quote
    }
    let mut content = String::new();
    'outer: while let Some(c) = cur.peek(0) {
        if c == '"' {
            for h in 0..hashes {
                if cur.peek(1 + h) != Some('#') {
                    content.push(c);
                    cur.bump();
                    continue 'outer;
                }
            }
            for _ in 0..=hashes {
                cur.bump(); // closing quote + hashes
            }
            break;
        }
        content.push(c);
        cur.bump();
    }
    Some(content)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(s: &Scanned) -> Vec<&str> {
        s.toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let s = scan("let x = \"unsafe HashMap\"; // unsafe here\n/* panic!() */ let y = 1;");
        let ids = idents(&s);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let s = scan(
            r####"let a = r#"has "quotes" and unsafe"#; let c = '"'; let l: &'static str = b"x";"####,
        );
        assert!(idents(&s).contains(&"str"), "code after the lifetime still lexes");
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 1);
        let strs: Vec<&str> =
            s.toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
        assert_eq!(strs, vec!["has \"quotes\" and unsafe", "x"]);
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn positions_are_one_based() {
        let s = scan("fn main() {\n    panic!(\"boom\");\n}\n");
        let panic_tok = s.toks.iter().find(|t| t.text == "panic").map(|t| (t.line, t.col));
        assert_eq!(panic_tok, Some((2, 5)));
        assert!(s.has_code[2]);
        assert_eq!(s.n_lines, 3);
    }

    #[test]
    fn attr_and_comment_line_flags() {
        let s = scan("// SAFETY: fine\n#[inline]\nunsafe fn f() {}\n");
        assert!(s.is_comment_only(1));
        assert!(s.is_attr_line(2));
        assert!(!s.is_comment_only(3) && s.has_code[3]);
        assert!(s.comment_text_on(1).contains("SAFETY"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let s = scan("for i in 0..10 { let f = 1.5e-3; let h = 0xff; }");
        let dots = s.toks.iter().filter(|t| t.kind == TokKind::Punct('.')).count();
        assert_eq!(dots, 2, "range dots survive");
        assert!(idents(&s).contains(&"in"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(idents(&s), vec!["let", "x"]);
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn raw_identifiers_lex_as_one_token() {
        let s = scan("fn r#match(r#type: u32) -> u32 { r#type }");
        assert_eq!(idents(&s), vec!["fn", "match", "type", "u32", "u32", "type"]);
        // No stray `#` puncts from the raw prefix, and the line is not an
        // attribute line.
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Punct('#')).count(), 0);
        assert!(!s.is_attr_line(1));
        // `r` alone, and `r` followed by non-ident, still lex normally.
        let plain = scan("let r = 1; let x = r # 2;");
        assert!(idents(&plain).contains(&"r"));
    }

    #[test]
    fn raw_strings_still_win_over_raw_identifiers() {
        let s = scan(r####"let a = r#"raw"#; let b = r#fn;"####);
        let strs: Vec<&str> =
            s.toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
        assert_eq!(strs, vec!["raw"]);
        assert!(idents(&s).contains(&"fn"), "r#fn lexes as ident `fn`: {:?}", idents(&s));
    }

    #[test]
    fn turbofish_lexes_cleanly() {
        let s = scan("let v = xs.iter().collect::<Vec<u32>>(); f::<'a, u8>(0u8);");
        // `::<` is `:` `:` `<` — three puncts, no mis-lexed char literal
        // from the `'a` lifetime inside the turbofish.
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 0);
        assert_eq!(s.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 1);
        let colons = s.toks.iter().filter(|t| t.kind == TokKind::Punct(':')).count();
        assert_eq!(colons, 4);
        assert!(idents(&s).contains(&"collect"));
        assert!(idents(&s).contains(&"f"));
    }
}
