//! Symbol layer: a lightweight recursive-descent item pass over the
//! masked token stream (see [`crate::scanner`]) that extracts the facts
//! the workspace-level passes in [`crate::passes`] consume:
//!
//! * **functions** — name, definition line, body line range, return-type
//!   text, `#[cfg(test)]` context;
//! * **call sites** — `name(`, `path::name(`, and `.method(` call
//!   occurrences inside each function, with the set of lock guards held
//!   at the site;
//! * **taint sources** — wall-clock reads, unseeded RNG construction,
//!   environment reads, thread-id reads (rule family R);
//! * **lock events** — `let`-bound Mutex/RwLock guard acquisitions and
//!   the held-then-acquired pairs they create (rule C2);
//! * **telemetry emissions** — the literal names registered via
//!   `counter("…")`, `gauge("…")` and `span("…")`
//!   (rule family S).
//!
//! Like the line rules, this is a heuristic token pass, not a type
//! checker: calls are recorded by bare name (the call graph resolves by
//! name, over-approximating method dispatch), and lock names are the
//! receiver chain text (`self.counters`, `shard`). The passes that
//! consume these facts are written to tolerate the over-approximation.

use crate::scanner::{self, is_ident_char};

/// What a forbidden determinism source reads (rule family R).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `Instant::now` / `SystemTime::now` / `UNIX_EPOCH` (R1 when
    /// laundered through telemetry; clippy's `disallowed_methods` reports
    /// the direct read).
    Clock,
    /// `thread_rng` / `from_entropy` / `OsRng` / `rand::random` (R2 when
    /// laundered; the vendored `rand` defines none of them, so a direct
    /// call does not compile).
    Rng,
    /// `env::var` / `env::vars` / `env::var_os` (R3).
    Env,
    /// `thread::current()` / `ThreadId` (R4).
    ThreadId,
}

/// One call occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (last path segment / method name).
    pub callee: String,
    /// 1-based source line.
    pub line: usize,
    /// Lock names held (let-bound guards in scope) at the call.
    pub held: Vec<String>,
}

/// A held-then-acquired lock pair observed directly inside one function.
#[derive(Debug, Clone)]
pub struct LockPair {
    /// Lock held when the second acquisition happened.
    pub held: String,
    /// Line the held guard was acquired on.
    pub held_line: usize,
    /// The lock acquired while `held` was held.
    pub acquired: String,
    /// Line of the inner acquisition.
    pub line: usize,
}

/// What kind of telemetry instrument an emission registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitKind {
    Counter,
    Gauge,
    Span,
}

/// One telemetry name registration with a literal name argument.
#[derive(Debug, Clone)]
pub struct Emission {
    pub kind: EmitKind,
    pub name: String,
    /// 1-based source line.
    pub line: usize,
    /// Inside a `#[cfg(test)]` block (excluded from the schema pass).
    pub in_test: bool,
}

/// One function item extracted from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body line range (line of the opening `{` ..= line of the `}`).
    pub body: (usize, usize),
    /// Defined under `#[cfg(test)]`.
    pub in_test: bool,
    /// Return-type text after `->` (empty when the fn returns `()`).
    pub ret: String,
    /// Calls made from the body.
    pub calls: Vec<CallSite>,
    /// Forbidden determinism sources read directly in the body.
    pub taints: Vec<(TaintKind, usize)>,
    /// Lock names acquired directly in the body.
    pub locks: Vec<String>,
    /// Held-then-acquired pairs observed in the body.
    pub lock_pairs: Vec<LockPair>,
}

impl FnItem {
    /// True when the function's return-type text mentions a primitive
    /// numeric type or `Duration` — the shapes a laundered clock/RNG
    /// read escapes through (rules R1/R2).
    pub fn returns_numeric(&self) -> bool {
        const NUMERIC: &[&str] = &[
            "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
            "f32", "f64", "Duration",
        ];
        NUMERIC.iter().any(|t| contains_token(&self.ret, t))
    }
}

/// Everything the symbol pass extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    pub fns: Vec<FnItem>,
    pub emissions: Vec<Emission>,
}

/// Wall-clock read patterns.
const CLOCK_READS: &[&str] = &["Instant::now", "SystemTime::now", "UNIX_EPOCH"];
/// Unseeded randomness patterns.
const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "OsRng", "rand::random"];
/// Environment-read patterns (R3): `env::var`, `env::vars`, `env::var_os`.
const ENV_READS: &[&str] = &["env::var", "env::vars", "env::var_os"];
/// Thread-identity patterns (R4).
const THREAD_READS: &[&str] = &["thread::current", "ThreadId"];
/// Lock-acquisition methods (C2). `.read()`/`.write()` are also I/O
/// method names; the concurrency pass only runs over the exec/obs scope,
/// where every such receiver is a `Mutex`/`RwLock`.
const LOCK_METHODS: &[&str] = &[".lock()", ".read()", ".write()"];
/// Telemetry registration calls and their instrument kinds.
const EMIT_CALLS: &[(&str, EmitKind)] =
    &[("counter", EmitKind::Counter), ("gauge", EmitKind::Gauge), ("span", EmitKind::Span)];
/// Identifiers that look like calls but are control flow or bindings.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "move", "ref", "else",
    "let", "mut", "pub", "use", "impl", "where", "unsafe", "dyn", "box", "await", "break",
    "continue", "crate", "super", "true", "false", "struct", "enum", "union", "trait", "type",
    "mod", "static", "const", "yield",
];

/// A brace scope, classified from the statement head that opened it.
#[derive(Debug)]
struct Block {
    cfg_test: bool,
    /// Index into `fns` when this block is a function body.
    fn_idx: Option<usize>,
}

/// Extracts the file's symbols from its source. `raw_lines` supplies the
/// unmasked text the emission names are read back from.
pub fn extract(source: &str) -> FileSymbols {
    let lines = scanner::clean(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = FileSymbols::default();

    let mut blocks: Vec<Block> = Vec::new();
    // Statement head since the last `{`, `}` or `;`, with the source
    // line each appended character came from (so the `fn` keyword's
    // line is recoverable when the body opens).
    let mut head = String::new();
    let mut head_lines: Vec<usize> = Vec::new();
    // Innermost open function bodies (indices into `out.fns`).
    let mut fn_stack: Vec<usize> = Vec::new();
    // Active let-bound lock guards per open function: (lock name,
    // acquisition line, block depth at acquisition).
    let mut guards: Vec<(String, usize, usize)> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let in_test = blocks.iter().any(|b| b.cfg_test);

        // --- line-level facts, attributed to the innermost open fn.
        // A single-line body (`fn f() -> u64 { read() }`) attributes
        // correctly because the brace walk below runs per character and
        // the facts here only need the owning fn, which we resolve after
        // the walk for lines that both open and use a body. To keep one
        // forward pass, the walk runs first on this line, remembering
        // the innermost fn *seen open at any point during the line*.
        let mut line_fn: Option<usize> = fn_stack.last().copied();

        // Brace walk (may open/close fn bodies mid-line).
        for c in code.chars() {
            match c {
                '{' => {
                    let cfg_test = head.contains("#[cfg(test)]")
                        || head.contains("#[cfg(all(test")
                        || blocks.iter().any(|b| b.cfg_test);
                    let fn_idx =
                        parse_fn_head(&head, &head_lines, lineno).map(|(name, fl, ret)| {
                            out.fns.push(FnItem {
                                name,
                                line: fl,
                                body: (lineno, lineno),
                                in_test: cfg_test,
                                ret,
                                calls: Vec::new(),
                                taints: Vec::new(),
                                locks: Vec::new(),
                                lock_pairs: Vec::new(),
                            });
                            out.fns.len() - 1
                        });
                    if let Some(i) = fn_idx {
                        fn_stack.push(i);
                        line_fn = Some(i);
                    }
                    blocks.push(Block { cfg_test, fn_idx });
                    head.clear();
                    head_lines.clear();
                }
                '}' => {
                    if let Some(b) = blocks.pop() {
                        if let Some(i) = b.fn_idx {
                            out.fns[i].body.1 = lineno;
                            fn_stack.pop();
                        }
                    }
                    head.clear();
                    head_lines.clear();
                    let depth = blocks.len();
                    guards.retain(|&(_, _, d)| d <= depth);
                }
                ';' => {
                    head.clear();
                    head_lines.clear();
                }
                _ => {
                    head.push(c);
                    head_lines.push(lineno);
                    if head.len() > 512 {
                        let cut = head.len() - 256;
                        head.drain(..cut);
                        head_lines.drain(..cut);
                    }
                }
            }
        }

        // --- emissions (any code, fn or not; kind + literal name).
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        for &(call, kind) in EMIT_CALLS {
            if call_literal_positions(code, call).next().is_none() {
                continue;
            }
            for pos in call_literal_positions(raw, call) {
                let start = pos + call.len() + 2;
                if let Some(len) = raw[start..].find('"') {
                    out.emissions.push(Emission {
                        kind,
                        name: raw[start..start + len].to_string(),
                        line: lineno,
                        in_test,
                    });
                }
            }
        }

        let Some(fi) = line_fn else { continue };

        // --- taint sources.
        for (pats, kind) in [
            (CLOCK_READS, TaintKind::Clock),
            (UNSEEDED_RNG, TaintKind::Rng),
            (ENV_READS, TaintKind::Env),
            (THREAD_READS, TaintKind::ThreadId),
        ] {
            if pats.iter().any(|p| contains_path_token(code, p)) {
                out.fns[fi].taints.push((kind, lineno));
            }
        }

        // --- lock acquisitions (before calls, so a call on the same
        // line after the acquisition sees the guard held — good enough
        // for a line-granular heuristic).
        let depth = blocks.len();
        let let_bound = contains_token(code, "let");
        for m in LOCK_METHODS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(m) {
                let pos = from + rel;
                from = pos + m.len();
                let Some(name) = receiver_chain(&code[..pos]) else { continue };
                out.fns[fi].locks.push(name.clone());
                for (held, held_line, _) in &guards {
                    if held != &name {
                        out.fns[fi].lock_pairs.push(LockPair {
                            held: held.clone(),
                            held_line: *held_line,
                            acquired: name.clone(),
                            line: lineno,
                        });
                    }
                }
                if let_bound {
                    guards.push((name, lineno, depth));
                }
            }
        }

        // --- calls (with held-lock context).
        let held: Vec<String> = {
            let mut h: Vec<String> = guards.iter().map(|(n, _, _)| n.clone()).collect();
            h.dedup();
            h
        };
        for callee in call_names(code) {
            out.fns[fi].calls.push(CallSite { callee, line: lineno, held: held.clone() });
        }
    }

    // Close any fn left open by a truncated file.
    for i in fn_stack {
        out.fns[i].body.1 = lines.len();
    }
    out
}

/// Parses a statement head that opens a `{` as a function item:
/// `[attrs] [pub…] fn name[<…>](…) [-> Ret] [where …]`. Returns
/// `(name, line_of_fn_token, return_type_text)`.
fn parse_fn_head(
    head: &str,
    head_lines: &[usize],
    fallback: usize,
) -> Option<(String, usize, String)> {
    let pos = token_positions(head, "fn").last()?;
    let fn_line = head_lines.get(pos).copied().unwrap_or(fallback);
    let rest = head[pos + 2..].trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return None;
    }
    // Return type: text after the last `->` (closures in default args
    // are out of scope for this heuristic), stopping at `where`.
    let mut ret = String::new();
    if let Some(arrow) = head[pos..].rfind("->") {
        let tail = &head[pos + arrow + 2..];
        let tail = match token_positions(tail, "where").next() {
            Some(w) => &tail[..w],
            None => tail,
        };
        ret = tail.trim().to_string();
    }
    Some((name, fn_line, ret))
}

/// Bare callee names of call expressions on the line: an identifier
/// immediately followed by `(`, excluding keywords, `fn` definitions,
/// and numeric tokens. Methods and path calls contribute their last
/// segment.
fn call_names(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        if chars.get(i) != Some(&'(') {
            continue;
        }
        let name: String = chars[start..i].iter().collect();
        if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        let before = &code[..byte_offset(code, start)];
        if token_positions(before.trim_end(), "fn")
            .last()
            .is_some_and(|p| before.trim_end()[p + 2..].trim().is_empty())
        {
            continue;
        }
        out.push(name);
    }
    out
}

/// Byte offset of char index `ci` in `s`.
fn byte_offset(s: &str, ci: usize) -> usize {
    s.char_indices().nth(ci).map(|(b, _)| b).unwrap_or(s.len())
}

/// The receiver chain ending at the given prefix (e.g. `self.counters`,
/// `q.a`, `shard`). A chain ending in `)` (a call result) yields `None`
/// — a freshly returned guard has no stable name to order against.
fn receiver_chain(before: &str) -> Option<String> {
    let mut chars: Vec<char> = Vec::new();
    for c in before.chars().rev() {
        if is_ident_char(c) || c == '.' {
            chars.push(c);
        } else {
            break;
        }
    }
    let chain: String = chars.into_iter().rev().collect();
    let chain = chain.trim_matches('.').to_string();
    if chain.is_empty() || chain.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(chain)
}

/// True when `needle` occurs in `hay` at identifier-token boundaries.
fn contains_token(hay: &str, needle: &str) -> bool {
    token_positions(hay, needle).next().is_some()
}

/// Like [`contains_token`] but treats `:` as part of the needle's left
/// boundary check only (so `std::env::var` matches the `env::var`
/// pattern while `renv::var` does not).
fn contains_path_token(hay: &str, needle: &str) -> bool {
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        let pos = from + rel;
        from = pos + needle.len();
        let before_ok = pos == 0 || !is_ident_char(hay[..pos].chars().next_back().unwrap_or(' '));
        let after_ok = hay[pos + needle.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Byte positions of token-boundary occurrences of `needle` in `hay`.
fn token_positions<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(rel) = hay[from..].find(needle) {
            let pos = from + rel;
            from = pos + needle.len();
            let before_ok =
                pos == 0 || !is_ident_char(hay[..pos].chars().next_back().unwrap_or(' '));
            let after_ok =
                hay[pos + needle.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
            if before_ok && after_ok {
                return Some(pos);
            }
        }
        None
    })
}

/// Byte positions where token `call` is immediately followed by `("`.
fn call_literal_positions<'a>(hay: &'a str, call: &'a str) -> impl Iterator<Item = usize> + 'a {
    token_positions(hay, call).filter(move |&pos| hay[pos + call.len()..].starts_with("(\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fn_items_with_ranges_and_returns() {
        let src =
            "pub fn alpha(x: u64) -> u64 {\n    beta(x)\n}\n\nfn beta(x: u64) -> u64 {\n    x\n}\n";
        let syms = extract(src);
        assert_eq!(syms.fns.len(), 2);
        assert_eq!(syms.fns[0].name, "alpha");
        assert_eq!(syms.fns[0].line, 1);
        assert_eq!(syms.fns[0].body, (1, 3));
        assert!(syms.fns[0].returns_numeric());
        assert_eq!(syms.fns[0].calls.len(), 1);
        assert_eq!(syms.fns[0].calls[0].callee, "beta");
        assert_eq!(syms.fns[1].name, "beta");
        assert_eq!(syms.fns[1].body, (5, 7));
    }

    #[test]
    fn multiline_signatures_and_attributes_resolve_the_fn_line() {
        let src = "#[inline]\npub fn gamma(\n    a: usize,\n) -> f64 {\n    0.0\n}\n";
        let syms = extract(src);
        assert_eq!(syms.fns.len(), 1);
        assert_eq!(syms.fns[0].name, "gamma");
        assert_eq!(syms.fns[0].line, 2, "fn keyword sits on line 2");
        assert!(syms.fns[0].returns_numeric());
    }

    #[test]
    fn taints_and_test_context() {
        let src = "pub fn t() -> u64 {\n    std::env::var(\"X\").ok();\n    std::thread::current();\n    0\n}\n#[cfg(test)]\nmod tests {\n    fn u() { let _ = std::env::var(\"Y\"); }\n}\n";
        let syms = extract(src);
        assert_eq!(syms.fns[0].taints, vec![(TaintKind::Env, 2), (TaintKind::ThreadId, 3)]);
        assert!(!syms.fns[0].in_test);
        assert!(syms.fns[1].in_test, "{:?}", syms.fns[1]);
    }

    #[test]
    fn lock_pairs_and_held_calls() {
        let src = "fn f(q: &Q) {\n    let ga = q.a.lock().expect(\"a\");\n    let gb = q.b.lock().expect(\"b\");\n    publish(q);\n}\n";
        let syms = extract(src);
        let f = &syms.fns[0];
        assert_eq!(f.locks, vec!["q.a".to_string(), "q.b".to_string()]);
        assert_eq!(f.lock_pairs.len(), 1);
        assert_eq!(
            (f.lock_pairs[0].held.as_str(), f.lock_pairs[0].acquired.as_str()),
            ("q.a", "q.b")
        );
        let publish = f.calls.iter().find(|c| c.callee == "publish").expect("publish call");
        assert_eq!(publish.held, vec!["q.a".to_string(), "q.b".to_string()]);
    }

    #[test]
    fn guards_expire_with_their_block() {
        let src = "fn f(q: &Q) {\n    {\n        let ga = q.a.lock().expect(\"a\");\n        drop(ga);\n    }\n    let gb = q.b.lock().expect(\"b\");\n}\n";
        let syms = extract(src);
        assert!(syms.fns[0].lock_pairs.is_empty(), "{:?}", syms.fns[0].lock_pairs);
    }

    #[test]
    fn temporary_guards_do_not_hold() {
        let src = "fn f(s: &S) {\n    s.table.lock().expect(\"t\").clear();\n    let g = s.other.lock().expect(\"o\");\n    drop(g);\n}\n";
        let syms = extract(src);
        assert!(syms.fns[0].lock_pairs.is_empty(), "{:?}", syms.fns[0].lock_pairs);
    }

    #[test]
    fn emissions_with_kind_and_test_flag() {
        let src = "fn f(t: &T) {\n    t.metrics.counter(\"exec.cells\").inc();\n    let _s = span(\"suggest\");\n}\n#[cfg(test)]\nmod tests {\n    fn g(t: &T) { t.metrics.gauge(\"unit.depth\").set(1); }\n}\n";
        let syms = extract(src);
        assert_eq!(syms.emissions.len(), 3);
        assert_eq!(syms.emissions[0].kind, EmitKind::Counter);
        assert_eq!(syms.emissions[0].name, "exec.cells");
        assert!(!syms.emissions[0].in_test);
        assert_eq!(syms.emissions[1].kind, EmitKind::Span);
        assert!(syms.emissions[2].in_test);
    }

    #[test]
    fn single_line_bodies_attribute_to_the_new_fn() {
        let src = "pub fn jitter() -> u64 { rand::thread_rng().gen() }\n";
        let syms = extract(src);
        assert_eq!(syms.fns.len(), 1);
        assert_eq!(syms.fns[0].taints, vec![(TaintKind::Rng, 1)]);
        assert_eq!(syms.fns[0].body, (1, 1));
    }
}
