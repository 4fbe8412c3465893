//! Lexical pass: strips comments and literal contents from Rust source so
//! the rule checks in [`crate::rules`] never match text inside a string,
//! char literal, or comment — while extracting `// lint:` pragma comments.
//!
//! The scanner is deliberately not a full Rust lexer. It understands
//! exactly the token classes that can embed rule-pattern lookalikes:
//!
//! * line comments (`//`, `///`, `//!`) — removed; a comment whose body
//!   starts with `lint:` is captured as a pragma for that line;
//! * block comments (`/* .. */`, nested) — replaced by a single space;
//! * string literals (`"…"`, `b"…"`, raw `r"…"` / `r#"…"#` at any hash
//!   depth) — content replaced by `_`, except that *empty* strings stay
//!   empty so the `E1` check can still recognise `.expect("")`;
//! * char / byte-char literals (`'x'`, `'\n'`, `b'x'`) — content replaced,
//!   with lifetimes (`'a`, `'_`) left untouched.
//!
//! Everything else passes through verbatim, preserving line structure:
//! cleaned line `i` corresponds exactly to source line `i`.

/// One source line after cleaning.
#[derive(Debug, Clone)]
pub struct CleanLine {
    /// The line with comments and literal bodies removed.
    pub code: String,
    /// Body of a `// lint:` comment on this line (text after `lint:`).
    pub pragma: Option<String>,
}

/// True for characters that can form a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans `source` into cleaned lines (see module docs).
pub fn clean(source: &str) -> Vec<CleanLine> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<CleanLine> = Vec::new();
    let mut code = String::new();
    let mut pragma: Option<String> = None;
    let mut i = 0usize;

    // Pushes the finished line and resets the per-line accumulators.
    macro_rules! end_line {
        () => {
            lines.push(CleanLine { code: std::mem::take(&mut code), pragma: pragma.take() });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                end_line!();
                i += 1;
            }
            '/' if next == Some('/') => {
                // Line comment: swallow to end of line, harvesting pragmas.
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let body: String = chars[start..j].iter().collect();
                // Doc comments add extra `/` or `!` markers; strip them so
                // `/// lint:` and `//! lint:` are still recognised.
                let trimmed = body.trim_start_matches(['/', '!']).trim_start();
                if let Some(rest) = trimmed.strip_prefix("lint:") {
                    pragma = Some(rest.trim().to_string());
                }
                i = j;
            }
            '/' if next == Some('*') => {
                // Block comment, possibly nested and multi-line.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        end_line!();
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                // The replacement space stands in for the comment on the
                // current line. An unterminated comment runs to EOF; if
                // the source's last character is a newline, that line was
                // already pushed, and the space would fabricate an extra
                // line the source does not have.
                if depth == 0 || chars.last() != Some(&'\n') {
                    code.push(' ');
                }
                i = j;
            }
            '"' => {
                i = consume_string(&chars, i, &mut code, &mut lines, &mut pragma);
            }
            'r' | 'b' if !prev_is_ident(&chars, i) => {
                // Possible raw/byte literal prefix: r"", r#""#, b"", br"", b''.
                if let Some(adv) =
                    try_prefixed_literal(&chars, i, &mut code, &mut lines, &mut pragma)
                {
                    i = adv;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime.
                if let Some(adv) = try_char_literal(&chars, i) {
                    code.push_str("'_'");
                    i = adv;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    // A source that does not end in a newline still has a final line —
    // even when everything on it was stripped (e.g. a trailing `// …`
    // comment), the line itself exists and must be represented.
    if !code.is_empty() || pragma.is_some() || lines.is_empty() || chars.last() != Some(&'\n') {
        end_line!();
    }
    lines
}

/// True when `chars[idx]` is directly preceded by an identifier char
/// (meaning a leading `r`/`b` is part of a name, not a literal prefix).
fn prev_is_ident(chars: &[char], idx: usize) -> bool {
    idx > 0 && is_ident_char(chars[idx - 1])
}

/// Consumes an ordinary (escaped) string literal starting at the opening
/// quote `chars[i]`. Emits `""` for empty strings, `"_"` otherwise, and
/// keeps multi-line strings aligned by ending cleaned lines at embedded
/// newlines. Returns the index just past the closing quote.
fn consume_string(
    chars: &[char],
    i: usize,
    code: &mut String,
    lines: &mut Vec<CleanLine>,
    pragma: &mut Option<String>,
) -> usize {
    let mut j = i + 1;
    let mut empty = true;
    let mut terminated = false;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                empty = false;
                // A backslash escapes exactly one character — but when
                // that character is a newline (the string-continuation
                // escape), the *source* still advances a line, and the
                // cleaned lines must advance with it or every line
                // number after the literal drifts.
                if chars.get(j + 1) == Some(&'\n') {
                    lines.push(CleanLine { code: std::mem::take(code), pragma: pragma.take() });
                }
                j += 2;
            }
            '"' => {
                j += 1;
                terminated = true;
                break;
            }
            '\n' => {
                empty = false;
                lines.push(CleanLine { code: std::mem::take(code), pragma: pragma.take() });
                j += 1;
            }
            _ => {
                empty = false;
                j += 1;
            }
        }
    }
    // An unterminated literal runs to EOF; if the source's final char is
    // a newline, that line was already pushed above, and the mask would
    // fabricate an extra line the source does not have.
    if terminated || chars.last() != Some(&'\n') {
        code.push_str(if empty { "\"\"" } else { "\"_\"" });
    }
    j
}

/// Handles `r"…"`, `r#"…"#…`, `b"…"`, `br"…"`, `b'…'` starting at the
/// `r`/`b` prefix. Returns the index past the literal, or `None` when the
/// prefix is not actually introducing a literal.
fn try_prefixed_literal(
    chars: &[char],
    i: usize,
    code: &mut String,
    lines: &mut Vec<CleanLine>,
    pragma: &mut Option<String>,
) -> Option<usize> {
    let mut j = i;
    let mut raw = false;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'r') {
            raw = true;
            j += 1;
        }
    } else {
        // chars[i] == 'r'
        raw = true;
        j += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) != Some(&'"') {
            return None;
        }
        j += 1; // past the opening quote
        let mut empty = true;
        let mut terminated = false;
        loop {
            match chars.get(j) {
                None => break,
                Some('\n') => {
                    empty = false;
                    lines.push(CleanLine { code: std::mem::take(code), pragma: pragma.take() });
                    j += 1;
                }
                Some('"') => {
                    // Closing candidate: must be followed by `hashes` #s.
                    let mut k = j + 1;
                    let mut seen = 0usize;
                    while seen < hashes && chars.get(k) == Some(&'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        j = k;
                        terminated = true;
                        break;
                    }
                    empty = false;
                    j += 1;
                }
                Some(_) => {
                    empty = false;
                    j += 1;
                }
            }
        }
        // Same EOF guard as `consume_string`: no mask for an
        // unterminated literal whose last source char was a newline.
        if terminated || chars.last() != Some(&'\n') {
            code.push_str(if empty { "\"\"" } else { "\"_\"" });
        }
        return Some(j);
    }
    // Non-raw byte literal: b"…" or b'…'.
    match chars.get(j) {
        Some('"') => Some(consume_string(chars, j, code, lines, pragma)),
        Some('\'') => {
            let adv = try_char_literal(chars, j)?;
            code.push_str("'_'");
            Some(adv)
        }
        _ => None,
    }
}

/// Distinguishes a char literal from a lifetime at an opening `'`.
/// Returns the index past the closing quote for a literal, `None` for a
/// lifetime.
fn try_char_literal(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: scan to the closing quote (handles '\n', '\u{..}').
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1)
        }
        // A raw newline cannot sit inside a real char literal; matching
        // one here would swallow the line break and desync every line
        // number after it.
        Some(&c) if c != '\n' && chars.get(i + 2) == Some(&'\'') => Some(i + 3),
        _ => None, // lifetime ('a, '_) or stray quote
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        clean(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let out = codes("let x = 1; // HashMap.iter()\nlet y = /* .keys() */ 2;");
        assert_eq!(out, vec!["let x = 1; ", "let y =   2;"]);
    }

    #[test]
    fn nested_block_comments_and_multiline() {
        let out = codes("a /* outer /* inner */ still */ b\nc");
        assert_eq!(out, vec!["a   b", "c"]);
    }

    #[test]
    fn string_bodies_are_masked_but_emptiness_is_kept() {
        let out = codes(r#"m.expect(""); n.expect("HashMap.iter()");"#);
        assert_eq!(out, vec![r#"m.expect(""); n.expect("_");"#]);
    }

    #[test]
    fn raw_strings_at_hash_depths() {
        let out = codes(r##"let s = r#"Instant::now()"#; t"##);
        assert_eq!(out, vec![r#"let s = "_"; t"#]);
        let out = codes(r#"let s = r"thread_rng()"; u"#);
        assert_eq!(out, vec![r#"let s = "_"; u"#]);
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let out = codes("let c = '{'; fn f<'a>(x: &'a str) {} let q = '\\n';");
        assert_eq!(out, vec!["let c = '_'; fn f<'a>(x: &'a str) {} let q = '_';"]);
    }

    #[test]
    fn unterminated_block_comment_keeps_line_count() {
        // An unterminated `/*` runs to EOF; its replacement space must
        // not mint a line the source does not have (found by the
        // mask_props property tests).
        assert_eq!(codes("/* open\n").len(), 1);
        assert_eq!(codes("x(); /* open\ny").len(), 2);
    }

    #[test]
    fn unterminated_string_keeps_line_count() {
        // Same phantom-line hazard as the block comment, for string
        // literals: the `"_"` mask must not mint a line past a trailing
        // newline when the literal never closes (found by the
        // mask_props property tests).
        assert_eq!(codes("\"abc\n").len(), 1);
        assert_eq!(codes("x(); \"abc\ny").len(), 2);
        assert_eq!(codes("r#\"abc\n").len(), 1);
        assert_eq!(codes("x(); r#\"abc\ny\"#").len(), 2);
    }

    #[test]
    fn trailing_comment_line_without_newline_is_kept() {
        // A final line holding only a comment cleans to empty code, but
        // the line still exists in the source and must be represented
        // (found by the mask_props property tests).
        assert_eq!(codes("\n//").len(), 2);
        assert_eq!(codes("x\n// tail comment").len(), 2);
        assert_eq!(codes("//").len(), 1);
    }

    #[test]
    fn quote_newline_quote_is_not_a_char_literal() {
        // `'` + newline + `'` must never match as a char literal — the
        // line break would be swallowed and every later line number
        // would drift (found by the mask_props property tests).
        let out = codes("let a = x;'\n'let b = y;");
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn multiline_string_preserves_line_count() {
        let out = codes("let s = \"first\nsecond\"; done");
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], "\"_\"; done");
    }

    #[test]
    fn pragma_comments_are_captured() {
        let scanned = clean("if f.load(o) {} // lint: allow(C1) monotonic latch\nplain();");
        assert_eq!(scanned[0].pragma.as_deref(), Some("allow(C1) monotonic latch"));
        assert!(scanned[1].pragma.is_none());
        // Pragma text inside a *string* is not a pragma.
        let scanned = clean(r#"let s = "// lint: allow(C1) fake";"#);
        assert!(scanned[0].pragma.is_none());
    }

    #[test]
    fn string_continuation_escape_keeps_lines_aligned() {
        // `\` before a newline is Rust's string-continuation escape; the
        // cleaned output must still advance a line there, or every rule
        // after the literal reports shifted line numbers.
        let out = codes("let s = \"a\\\nb\"; after\nInstant::now()");
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[2], "Instant::now()");
        // Escaped quote right after a continuation still masks properly.
        let out = codes("let s = \"x\\\n\\\"y\"; z\ntail");
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[2], "tail");
    }

    #[test]
    fn raw_string_with_fewer_hashes_inside() {
        // A `"#` inside an `r##"…"##` literal is content, not a close.
        let out = codes("let s = r##\"quote \"# still inside\"##; done");
        assert_eq!(out, vec!["let s = \"_\"; done"]);
    }

    #[test]
    fn byte_literals() {
        let out = codes(r#"let b = b"bytes"; let c = b'x'; let r = br"raw";"#);
        assert_eq!(out, vec![r#"let b = "_"; let c = '_'; let r = "_";"#]);
    }
}
