//! The rule engine: a brace-aware, scope-tracking pass over cleaned
//! source lines (see [`crate::scanner`]) enforcing the repo's determinism
//! and hygiene invariants.
//!
//! | rule | invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | D1   | no iteration over `HashMap`/`HashSet` (unordered) outside the   |
//! |      | telemetry crates — use `BTreeMap`/sort, or prove order with a   |
//! |      | `// lint: sorted` pragma                                         |
//! | D2   | no wall-clock reads (`Instant::now`, `SystemTime::now`,          |
//! |      | `UNIX_EPOCH`) outside `dbtune-obs`/`dbtune-trace`                |
//! | D3   | no unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`,   |
//! |      | `rand::random`) anywhere                                         |
//! | F1   | no `partial_cmp(..).unwrap()/.expect(..)` (NaN panic hazard —    |
//! |      | use `dbtune_linalg::ord`), and no float-literal `==`/`!=`        |
//! |      | against non-zero literals in optimizer/ml code                   |
//! | E1   | no `.unwrap()` / `.expect("")` in library code (bench binaries   |
//! |      | and `#[cfg(test)]` modules exempt)                               |
//! | E2   | no `catch_unwind` outside the executor's containment layer       |
//! |      | (`core/src/exec.rs`, `dbsim/src/fault.rs`; tests exempt) — ad    |
//! |      | hoc panic swallowing hides bugs and can strand shared state      |
//! | E3   | no `Box::leak` / `mem::forget` outside `crates/obs` (tests       |
//! |      | exempt) — leaked bytes sit in the memory profiler's live/peak    |
//! |      | books forever and skew every span's attribution                  |
//! | M1   | metric/span name literals (`.counter("…")`, `span("…")`, …)     |
//! |      | must be lowercase dotted snake (`[a-z0-9_.]+`) so journal keys,  |
//! |      | diff whitelists, and diag session labels stay grep-stable        |
//! | C1   | `Ordering::Relaxed` load used as a branch guard in the           |
//! |      | executor/obs concurrency scope — relaxed loads carry no          |
//! |      | happens-before edge, so data published by another thread may     |
//! |      | not be visible yet (the memprof latch gets a documented pragma)  |
//! | P1   | pragma is malformed (bad grammar, no reason)                     |
//! | P2   | pragma suppresses nothing — stale suppressions must be removed   |
//! | P3   | pragma's `allow(…)` names a rule id no rule defines              |
//!
//! The workspace-level passes in [`crate::passes`] add three more
//! families over the call graph ([`crate::graph`]): **R** (determinism
//! taint reachable from results paths: R1 clock laundering, R2 RNG
//! laundering, R3 env reads, R4 thread-id, R5 unordered iteration of a
//! returned hash collection), **C2** (inconsistent lock-acquisition
//! order across the call graph), and **S** (telemetry schema drift
//! between code, `docs/observability.md`, and the `dbtune-trace::diff`
//! policy table: S1 undocumented emitter, S2 documented-but-dead name,
//! S3 policy entry with no emitter).
//!
//! The scanner is a heuristic token pass, not a type checker: it tracks
//! identifiers *textually bound* to hash collections (let bindings with
//! scope depth, struct fields file-wide) and flags iteration calls on
//! them. Inference through function boundaries or multi-line `collect()`
//! chains is out of scope — the pragma grammar is the escape hatch in
//! both directions.

use crate::pragma::{self, Pragma};
use crate::report::{Finding, PragmaRecord};
use crate::scanner::{self, is_ident_char};

/// Every rule id the engine can emit (and `allow(..)` can name).
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "D3", "F1", "E1", "E2", "E3", "M1", "R1", "R2", "R3", "R4", "R5", "C1", "C2", "S1",
    "S2", "S3", "P1", "P2", "P3",
];

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/obs` / `crates/trace`: D1 and D2 do not apply (telemetry
    /// owns the wall clock, and its maps never feed deterministic output).
    pub telemetry: bool,
    /// `crates/bench/src/bin`: driver binaries, exempt from E1.
    pub bench_bin: bool,
    /// Optimizer/ML code (`crates/ml`, `core/src/optimizer`,
    /// `core/src/importance`): F1's float-literal equality check applies.
    pub float_eq_scope: bool,
    /// The sanctioned panic-containment layer (`core/src/exec.rs`,
    /// `dbsim/src/fault.rs`): E2 does not apply. Everywhere else,
    /// `catch_unwind` must go through `exec::run_grid_contained`.
    pub panic_scope: bool,
    /// `crates/obs` alone (narrower than `telemetry`, which also covers
    /// `crates/trace`): E3 does not apply — the allocator-accounting
    /// layer may deliberately pin its own state for `'static` access.
    pub obs_crate: bool,
    /// The cross-thread machinery (`core/src/exec.rs` and `crates/obs`):
    /// the concurrency hygiene rules C1/C2 apply here.
    pub conc_scope: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let r = rel.trim_start_matches("./");
    FileClass {
        telemetry: r.starts_with("crates/obs/") || r.starts_with("crates/trace/"),
        bench_bin: r.starts_with("crates/bench/src/bin/"),
        float_eq_scope: r.starts_with("crates/ml/src")
            || r.starts_with("crates/core/src/optimizer")
            || r.starts_with("crates/core/src/importance"),
        panic_scope: r == "crates/core/src/exec.rs" || r == "crates/dbsim/src/fault.rs",
        obs_crate: r.starts_with("crates/obs/"),
        conc_scope: r == "crates/core/src/exec.rs" || r.starts_with("crates/obs/"),
    }
}

/// A brace scope, classified from the statement head that opened it.
#[derive(Debug)]
struct Block {
    /// Opened under a `#[cfg(test)]` attribute (test-only code).
    cfg_test: bool,
    /// A `struct`/`enum`/`union` body — `name: HashMap<..>` lines inside
    /// declare fields, which stay visible for the whole file.
    struct_like: bool,
}

/// Iteration methods with nondeterministic order on hash collections.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
    ".union(",
    ".intersection(",
    ".difference(",
];

/// Wall-clock read patterns (D2).
const CLOCK_READS: &[&str] = &["Instant::now(", "SystemTime::now(", "UNIX_EPOCH"];

/// Unseeded randomness patterns (D3).
const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "OsRng", "rand::random"];

/// Allocation-leaking calls (E3). Path-qualified so `MyBox::leak` or a
/// local `forget()` never match; `std::mem::forget` still does (the char
/// before `mem` is `:`, a token boundary).
const LEAK_CALLS: &[&str] = &["Box::leak", "mem::forget"];

/// Telemetry registration calls whose literal name argument M1 validates.
const METRIC_CALLS: &[&str] = &["counter", "gauge", "histogram", "span", "span_record"];

/// Scans one file's source and resolves its pragmas locally. `path` is
/// recorded in findings verbatim. The workspace walker uses
/// [`scan_file_raw`] + [`resolve_suppressions`] instead, so pragmas can
/// also suppress the graph-level R/C/S findings merged in between.
pub fn scan_source(
    path: &str,
    class: FileClass,
    source: &str,
) -> (Vec<Finding>, Vec<PragmaRecord>) {
    let (raw, pragmas) = scan_file_raw(path, class, source);
    resolve_suppressions(path, raw, pragmas)
}

/// Runs the line rules over one file, returning unsuppressed findings
/// plus the parsed pragmas (suppression is resolved separately).
pub fn scan_file_raw(path: &str, class: FileClass, source: &str) -> (Vec<Finding>, Vec<Pragma>) {
    let lines = scanner::clean(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut an = Analyzer {
        blocks: Vec::new(),
        head: String::new(),
        scoped: Vec::new(),
        fields: Vec::new(),
    };
    let mut raw: Vec<Finding> = Vec::new();
    let mut pragmas: Vec<Pragma> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if let Some(body) = &line.pragma {
            pragmas.push(pragma::parse(lineno, body, code.trim().is_empty()));
        }
        let in_test = an.blocks.iter().any(|b| b.cfg_test);
        let struct_ctx = an.blocks.last().is_some_and(|b| b.struct_like);
        let depth = an.blocks.len();

        an.register_hash_bindings(code, struct_ctx, depth);

        let mut push = |rule: &str, msg: String| {
            raw.push(Finding {
                path: path.to_string(),
                line: lineno,
                rule: rule.to_string(),
                message: msg,
            });
        };

        // D1 — iteration over hash collections.
        if !class.telemetry {
            for name in an.hash_iteration_receivers(code) {
                push(
                    "D1",
                    format!(
                        "iteration over hash collection `{name}` has nondeterministic order — \
                         use BTreeMap/BTreeSet, sort first, or annotate `// lint: sorted <why>`"
                    ),
                );
            }
        }

        // D2 — ambient wall-clock reads.
        if !class.telemetry {
            for pat in CLOCK_READS {
                if contains_token(code, pat.trim_end_matches('(')) {
                    push(
                        "D2",
                        format!(
                            "wall-clock read `{}` outside dbtune-obs/dbtune-trace can leak \
                             nondeterminism into results — route timing through telemetry, or \
                             annotate `// lint: allow(D2) <why it never reaches results>`",
                            pat.trim_end_matches('(')
                        ),
                    );
                    break;
                }
            }
        }

        // D3 — unseeded randomness (applies everywhere, tests included).
        for pat in UNSEEDED_RNG {
            if contains_token(code, pat) {
                push(
                    "D3",
                    format!(
                        "`{pat}` draws from ambient entropy — derive every RNG from an \
                         explicit seed (e.g. StdRng::seed_from_u64 / exec::cell_seed)"
                    ),
                );
                break;
            }
        }

        // F1 — NaN-panicking float comparison.
        if partial_cmp_unwrapped(&lines, idx) {
            push(
                "F1",
                "`partial_cmp(..)` immediately unwrapped panics on NaN — use the total-order \
                 helpers in dbtune_linalg::ord (cmp_f64 / cmp_score / cmp_score_desc)"
                    .to_string(),
            );
        }
        if class.float_eq_scope && !in_test {
            if let Some(lit) = nonzero_float_eq(code) {
                push(
                    "F1",
                    format!(
                        "bare float equality against `{lit}` is rounding/NaN-hazardous in \
                         optimizer/ml code — compare with an epsilon or restructure"
                    ),
                );
            }
        }

        // E1 — panicking shortcuts in library code.
        if !class.bench_bin && !in_test {
            if code.contains(".unwrap()") {
                push(
                    "E1",
                    "`.unwrap()` in library code loses failure context — use \
                     `.expect(\"<context>\")` or propagate a Result"
                        .to_string(),
                );
            }
            if code.contains(".expect(\"\")") {
                push("E1", "`.expect(\"\")` carries no context — write a real message".to_string());
            }
        }

        // E2 — ad hoc panic containment outside the executor.
        if !class.panic_scope && !in_test && contains_token(code, "catch_unwind") {
            push(
                "E2",
                "`catch_unwind` outside the executor's containment layer swallows panics the \
                 grid contract is supposed to surface (and can strand shared state mid-update) — \
                 route the fallible cell through exec::run_grid_contained, or annotate \
                 `// lint: allow(E2) <why containment is sound here>`"
                    .to_string(),
            );
        }

        // E3 — leaked allocations outside the accounting layer.
        if !class.obs_crate && !in_test {
            for pat in LEAK_CALLS {
                if contains_token(code, pat) {
                    push(
                        "E3",
                        format!(
                            "`{pat}` leaks the allocation past the memory profiler's books — \
                             live/peak bytes stay inflated forever and the owning span's \
                             attribution is wrong. Keep the value owned (OnceLock/Arc), or \
                             annotate `// lint: allow(E3) <why the leak is bounded>`"
                        ),
                    );
                    break;
                }
            }
        }

        // C1 — relaxed atomic load guarding a branch in the cross-thread
        // machinery. A relaxed load may observe the flag before the data
        // it advertises is visible; publication guards need Acquire (and
        // the store side Release). The memprof latch is the sanctioned
        // exception, carried on documented pragmas.
        if class.conc_scope
            && !in_test
            && code.contains(".load(Ordering::Relaxed)")
            && (contains_token(code, "if") || contains_token(code, "while"))
        {
            push(
                "C1",
                "`Ordering::Relaxed` load used as a branch guard — relaxed loads carry no \
                 happens-before edge, so data published by the storing thread may not be \
                 visible yet. Use `Ordering::Acquire` (paired with a Release store), or \
                 annotate `// lint: allow(C1) <why relaxed is sound here>`"
                    .to_string(),
            );
        }

        // M1 — metric/span name literals. The scanner masks string
        // bodies, so the names are read back from the raw source line at
        // call sites the cleaned line confirms are real code.
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        for name in metric_name_literals(code, raw_line) {
            if !is_metric_slug(&name) {
                push(
                    "M1",
                    format!(
                        "telemetry name `{name}` is not a lowercase dotted slug ([a-z0-9_.]+) — \
                         journal keys, baseline-diff whitelists, and diag session labels all \
                         match on these strings verbatim"
                    ),
                );
            }
        }

        an.advance_blocks(code);
    }

    (raw, pragmas)
}

/// Applies pragma suppressions to one file's findings and emits the
/// P1/P2/P3 pragma diagnostics. `raw` may include graph-level R/C/S
/// findings the workspace passes attributed to this file.
pub fn resolve_suppressions(
    path: &str,
    raw: Vec<Finding>,
    mut pragmas: Vec<Pragma>,
) -> (Vec<Finding>, Vec<PragmaRecord>) {
    let mut used = vec![false; pragmas.len()];
    let mut findings: Vec<Finding> = Vec::new();

    for f in raw {
        let mut suppressed = false;
        for (i, p) in pragmas.iter().enumerate() {
            if p.malformed.is_some() || !p.covers(&f.rule) {
                continue;
            }
            // Trailing pragma covers its own line; standalone covers next.
            let applies =
                (p.line == f.line && !p.standalone) || (p.standalone && p.line + 1 == f.line);
            if applies {
                used[i] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    for (i, p) in pragmas.iter().enumerate() {
        if let Some(why) = &p.malformed {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P1".to_string(),
                message: format!("malformed lint pragma: {why}"),
            });
            continue;
        }
        if !p.unknown.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P3".to_string(),
                message: format!(
                    "allow() names unknown rule id(s) {:?}; known rules are {:?}",
                    p.unknown, RULE_IDS
                ),
            });
        }
        // Stale check: only pragmas whose *known* rules all suppressed
        // nothing. An unknown-id pragma already carries the P3 above.
        if !used[i] && p.unknown.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P2".to_string(),
                message: "lint pragma suppresses nothing — remove it or move it onto the \
                          offending line"
                    .to_string(),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    let records = pragmas
        .drain(..)
        .zip(used)
        .map(|(p, u)| PragmaRecord {
            path: path.to_string(),
            line: p.line,
            rules: p.rules,
            justification: p.justification,
            used: u,
        })
        .collect();
    (findings, records)
}

struct Analyzer {
    blocks: Vec<Block>,
    /// Statement head: text since the last `{`, `}` or `;`, used to
    /// classify the next opened block.
    head: String,
    /// Let-bound hash collections: (name, scope depth at declaration).
    scoped: Vec<(String, usize)>,
    /// Struct/enum fields of hash type — visible file-wide via `self.x`
    /// or `obj.x`.
    fields: Vec<String>,
}

impl Analyzer {
    /// Registers identifiers bound to `HashMap`/`HashSet` on this line.
    fn register_hash_bindings(&mut self, code: &str, struct_ctx: bool, depth: usize) {
        for pos in token_positions(code, "HashMap").chain(token_positions(code, "HashSet")) {
            let before = &code[..pos];
            // `let [mut] name` anywhere earlier on the line (covers
            // `let m = HashMap::new()` and `let m: HashMap<..> = ..`).
            if let Some(name) = let_binding_name(before) {
                self.scoped.push((name, depth));
                continue;
            }
            // `name: HashMap<..>` — a field in struct context, otherwise a
            // parameter/struct-literal binding tracked as scoped.
            if let Some(name) = annotated_name(before) {
                if struct_ctx {
                    if !self.fields.contains(&name) {
                        self.fields.push(name);
                    }
                } else {
                    self.scoped.push((name, depth));
                }
            }
        }
    }

    /// Names of tracked hash collections this line iterates over.
    fn hash_iteration_receivers(&self, code: &str) -> Vec<String> {
        let mut hits: Vec<String> = Vec::new();
        let mut record = |name: String| {
            let known = self.fields.contains(&name) || self.scoped.iter().any(|(n, _)| n == &name);
            if known && !hits.contains(&name) {
                hits.push(name);
            }
        };
        for m in ITER_METHODS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(m) {
                let pos = from + rel;
                if let Some(name) = receiver_last_segment(&code[..pos]) {
                    record(name);
                }
                from = pos + m.len();
            }
        }
        // `for x in [&[mut]] name {` — direct iteration of the collection.
        let mut from = 0;
        while let Some(rel) = code[from..].find("for ") {
            let pos = from + rel;
            from = pos + 4;
            if pos > 0 && is_ident_char(code[..pos].chars().next_back().unwrap_or(' ')) {
                continue;
            }
            let Some(in_rel) = code[from..].find(" in ") else { continue };
            let expr = code[from + in_rel + 4..].trim_start();
            let expr = expr.trim_start_matches("&mut ").trim_start_matches(['&', '*']);
            let chain_len = expr
                .char_indices()
                .take_while(|&(_, c)| is_ident_char(c) || c == '.')
                .map(|(i, c)| i + c.len_utf8())
                .last()
                .unwrap_or(0);
            let (chain, rest) = expr.split_at(chain_len);
            if !rest.trim_start().is_empty() && !rest.trim_start().starts_with('{') {
                continue; // method call / longer expression: handled above
            }
            if let Some(name) = chain.rsplit('.').next().filter(|s| !s.is_empty()) {
                record(name.to_string());
            }
        }
        hits
    }

    /// Feeds a cleaned line through the brace tracker.
    fn advance_blocks(&mut self, code: &str) {
        for c in code.chars() {
            match c {
                '{' => {
                    let cfg_test =
                        self.head.contains("#[cfg(test)]") || self.head.contains("#[cfg(all(test");
                    let struct_like = contains_token(&self.head, "struct")
                        || contains_token(&self.head, "enum")
                        || contains_token(&self.head, "union");
                    self.blocks.push(Block { cfg_test, struct_like });
                    self.head.clear();
                }
                '}' => {
                    self.blocks.pop();
                    self.head.clear();
                    let depth = self.blocks.len();
                    self.scoped.retain(|&(_, d)| d <= depth);
                }
                ';' => self.head.clear(),
                _ => {
                    self.head.push(c);
                    if self.head.len() > 512 {
                        // Bound the head; block keywords sit near the `{`.
                        let cut = self.head.len() - 256;
                        self.head.drain(..cut);
                    }
                }
            }
        }
    }
}

/// True when `needle` occurs in `hay` as a standalone token (not embedded
/// in a longer identifier/path segment).
fn contains_token(hay: &str, needle: &str) -> bool {
    token_positions(hay, needle).next().is_some()
}

/// Byte positions of token-boundary occurrences of `needle`.
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

/// Extracts the binding name from the last `let [mut] name` before the
/// pattern occurrence, if any.
fn let_binding_name(before: &str) -> Option<String> {
    let pos = token_positions(before, "let").last()?;
    let mut rest = before[pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// Extracts `name` from a trailing `name: [&[mut]] [std::collections::]`
/// annotation immediately before the pattern occurrence.
fn annotated_name(before: &str) -> Option<String> {
    let mut s = before.trim_end();
    for prefix in ["std::collections::", "collections::"] {
        s = s.strip_suffix(prefix).unwrap_or(s).trim_end();
    }
    s = s.strip_suffix("&mut").unwrap_or(s);
    s = s.strip_suffix('&').unwrap_or(s).trim_end();
    // A lone `:` (not `::`) separates the name from the type.
    let s2 = s.strip_suffix(':')?;
    if s2.ends_with(':') {
        return None;
    }
    let s2 = s2.trim_end();
    let name: String = s2
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The final `.`-chain segment of the receiver expression ending at the
/// given prefix (e.g. `self.by_name` → `by_name`, `sa` → `sa`).
fn receiver_last_segment(before: &str) -> Option<String> {
    let mut chars: Vec<char> = Vec::new();
    for c in before.chars().rev() {
        if is_ident_char(c) || c == '.' {
            chars.push(c);
        } else {
            break;
        }
    }
    let chain: String = chars.into_iter().rev().collect();
    let last = chain.rsplit('.').next().filter(|s| !s.is_empty())?;
    if last.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None; // tuple index or numeric literal, not a name
    }
    Some(last.to_string())
}

/// True when line `idx` contains a `partial_cmp(..)` whose call chain
/// continues (possibly on the next two lines) with `.unwrap()` or
/// `.expect(`.
fn partial_cmp_unwrapped(lines: &[scanner::CleanLine], idx: usize) -> bool {
    let code = lines[idx].code.as_str();
    let Some(pos) = code.find("partial_cmp") else { return false };
    // Join a small lookahead window so multi-line chains resolve.
    let mut joined = String::from(&code[pos..]);
    for l in lines.iter().skip(idx + 1).take(2) {
        joined.push('\n');
        joined.push_str(&l.code);
    }
    let bytes: Vec<char> = joined.chars().collect();
    let mut i = "partial_cmp".len();
    while i < bytes.len() && bytes[i].is_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&'(') {
        return false;
    }
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let tail: String = bytes[i..].iter().collect();
    let tail = tail.trim_start();
    tail.starts_with(".unwrap()") || tail.starts_with(".expect(")
}

/// Returns the offending literal when the line compares floats with
/// `==`/`!=` against a non-zero float literal.
fn nonzero_float_eq(code: &str) -> Option<String> {
    for op in ["==", "!="] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(op) {
            let pos = from + rel;
            from = pos + op.len();
            // Skip `<=`, `>=`, `=>`-adjacent matches for `==`.
            if op == "==" {
                let prev = code[..pos].chars().next_back();
                if matches!(prev, Some('<' | '>' | '=' | '!')) {
                    continue;
                }
            }
            let right = code[pos + op.len()..].trim_start();
            if let Some(lit) = leading_float_literal(right) {
                if literal_is_nonzero(&lit) {
                    return Some(lit);
                }
            }
            if let Some(lit) = trailing_float_literal(code[..pos].trim_end()) {
                if literal_is_nonzero(&lit) {
                    return Some(lit);
                }
            }
        }
    }
    None
}

/// A float literal (must contain `.`) at the start of `s`.
fn leading_float_literal(s: &str) -> Option<String> {
    let s = s.strip_prefix('-').map(|r| r.trim_start()).unwrap_or(s);
    let lit: String =
        s.chars().take_while(|&c| c.is_ascii_digit() || c == '.' || c == '_').collect();
    (lit.contains('.') && lit.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(lit)
}

/// A float literal (must contain `.`) at the end of `s`.
fn trailing_float_literal(s: &str) -> Option<String> {
    let rev: String =
        s.chars().rev().take_while(|&c| c.is_ascii_digit() || c == '.' || c == '_').collect();
    let lit: String = rev.chars().rev().collect();
    let prev = s[..s.len() - lit.len()].chars().next_back();
    if prev.is_some_and(is_ident_char) {
        return None;
    }
    (lit.contains('.') && lit.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(lit)
}

/// Zero comparisons (`== 0.0`) are the idiomatic guard against division
/// by zero and stay legal; anything else is flagged.
fn literal_is_nonzero(lit: &str) -> bool {
    lit.replace('_', "").parse::<f64>().map(|v| v != 0.0).unwrap_or(false)
}

/// Byte positions in `hay` where token `call` is immediately followed by
/// `("` — a telemetry registration passing a literal name.
fn call_literal_positions<'a>(hay: &'a str, call: &'a str) -> impl Iterator<Item = usize> + 'a {
    token_positions(hay, call).filter(move |&pos| hay[pos + call.len()..].starts_with("(\""))
}

/// The string literals passed as name arguments to telemetry calls on
/// this line. `code` (the cleaned line) gates the check — occurrences
/// that lived only in comments or strings were cleaned away — and `raw`
/// (the original line) supplies the literal text the scanner masked.
fn metric_name_literals(code: &str, raw: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for call in METRIC_CALLS {
        if call_literal_positions(code, call).next().is_none() {
            continue;
        }
        for pos in call_literal_positions(raw, call) {
            let start = pos + call.len() + 2;
            if let Some(len) = raw[start..].find('"') {
                names.push(raw[start..start + len].to_string());
            }
        }
    }
    names
}

/// M1's alphabet: lowercase dotted snake, the shape every journal key,
/// diff whitelist, and diag session label in the repo greps for.
fn is_metric_slug(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<(usize, String)> {
        let (fs, _) = scan_source(path, classify(path), src);
        fs.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn d1_flags_iteration_on_let_binding() {
        let src =
            "fn f() {\n    let m = HashMap::new();\n    for (k, v) in &m {}\n    m.keys();\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(3, "D1".into()), (4, "D1".into())]);
    }

    #[test]
    fn d1_tracks_fields_through_self() {
        let src = "struct S {\n    by_name: HashMap<String, usize>,\n}\nimpl S {\n    fn g(&self) { self.by_name.iter(); }\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(5, "D1".into())]);
    }

    #[test]
    fn d1_scope_ends_with_block() {
        let src = "fn a() {\n    let m = HashSet::new();\n}\nfn b(m: &[u32]) {\n    m.iter();\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_string_literal_mentions_are_ignored() {
        let src = "fn f() {\n    let s = \"HashMap .iter() for x in m\";\n    s.len();\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_sorted_pragma_suppresses_and_is_recorded() {
        let src = "fn f() {\n    let m = HashMap::new();\n    for k in m.keys() {} // lint: sorted keys collected+sorted below\n}\n";
        let (fs, ps) = scan_source("crates/core/src/x.rs", classify("crates/core/src/x.rs"), src);
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(ps.len(), 1);
        assert!(ps[0].used);
        assert_eq!(ps[0].justification, "keys collected+sorted below");
    }

    #[test]
    fn d2_exempts_telemetry_crates() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(1, "D2".into())]);
        assert!(findings("crates/obs/src/x.rs", src).is_empty());
        assert!(findings("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_applies_even_in_tests_and_telemetry() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = rand::thread_rng(); }\n}\n";
        assert_eq!(findings("crates/obs/src/x.rs", src), vec![(3, "D3".into())]);
    }

    #[test]
    fn f1_partial_cmp_unwrap_same_and_next_line() {
        let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    xs.sort_by(|a, b| a.partial_cmp(b)\n        .expect(\"NaN\"));\n}\n";
        // Line 2 also trips E1 (`.unwrap()` in library code).
        assert_eq!(
            findings("crates/core/src/x.rs", src),
            vec![(2, "E1".into()), (2, "F1".into()), (3, "F1".into())]
        );
    }

    #[test]
    fn f1_float_eq_only_in_optimizer_ml_scope() {
        let src = "fn f(x: f64) -> bool { x == 2.0 }\n";
        assert_eq!(findings("crates/ml/src/x.rs", src), vec![(1, "F1".into())]);
        assert!(findings("crates/dbsim/src/x.rs", src).is_empty());
        // Zero guards stay legal.
        assert!(findings("crates/ml/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }\n").is_empty());
    }

    #[test]
    fn e1_unwrap_rules() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(1, "E1".into())]);
        // Bench binaries are exempt.
        assert!(findings("crates/bench/src/bin/fig1.rs", src).is_empty());
        // Test modules are exempt.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(findings("crates/core/src/x.rs", test_src).is_empty());
        // Empty expect messages are not.
        let empty = "fn f(x: Option<u32>) { x.expect(\"\"); }\n";
        assert_eq!(findings("crates/core/src/x.rs", empty), vec![(1, "E1".into())]);
        // A non-empty expect passes.
        assert!(findings("crates/core/src/x.rs", "fn f(x: Option<u32>) { x.expect(\"ctx\"); }\n")
            .is_empty());
    }

    #[test]
    fn e2_catch_unwind_only_in_the_containment_layer() {
        let src = "fn f() { let r = std::panic::catch_unwind(|| 1); }\n";
        assert_eq!(findings("crates/core/src/tuner.rs", src), vec![(1, "E2".into())]);
        assert_eq!(findings("crates/bench/src/bin/fig1.rs", src), vec![(1, "E2".into())]);
        // The sanctioned containment layer is exempt.
        assert!(findings("crates/core/src/exec.rs", src).is_empty());
        assert!(findings("crates/dbsim/src/fault.rs", src).is_empty());
        // Tests may assert panics.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { std::panic::catch_unwind(|| 1); }\n}\n";
        assert!(findings("crates/core/src/tuner.rs", test_src).is_empty());
        // The pragma escape hatch works like any other rule's.
        let allowed =
            "fn f() { let r = std::panic::catch_unwind(|| 1); // lint: allow(E2) ffi boundary\n}\n";
        assert!(findings("crates/core/src/tuner.rs", allowed).is_empty());
    }

    #[test]
    fn e3_leaks_forbidden_outside_obs() {
        let src = "fn f(v: Vec<u32>) -> &'static [u32] { Box::leak(v.into_boxed_slice()) }\n";
        assert_eq!(findings("crates/core/src/tuner.rs", src), vec![(1, "E3".into())]);
        let forget = "fn g(v: Vec<u32>) { std::mem::forget(v); }\n";
        assert_eq!(findings("crates/ml/src/x.rs", forget), vec![(1, "E3".into())]);
        // The accounting layer itself is exempt — but its sibling
        // telemetry crate `crates/trace` is not.
        assert!(findings("crates/obs/src/memprof.rs", src).is_empty());
        assert_eq!(findings("crates/trace/src/x.rs", src), vec![(1, "E3".into())]);
        // Tests may leak to fabricate 'static fixtures.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { Box::leak(Box::new(1u32)); }\n}\n";
        assert!(findings("crates/core/src/tuner.rs", test_src).is_empty());
        // Lookalike identifiers and other `leak`/`forget` paths stay silent.
        let lookalike = "fn h() { MyBox::leak(); my_mem::forget(); forget(); }\n";
        assert!(findings("crates/core/src/x.rs", lookalike).is_empty());
        // The pragma escape hatch works like any other rule's.
        let allowed = "fn f(s: String) -> &'static str { Box::leak(s.into_boxed_str()) \
                       // lint: allow(E3) interned once at startup\n}\n";
        assert!(findings("crates/core/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn m1_flags_non_slug_telemetry_names() {
        let src = "fn f(t: &Telemetry) {\n    t.metrics.counter(\"exec.cache.hits\").inc();\n    t.metrics.counter(\"Exec.CacheHits\").inc();\n    let _s = span(\"suggest phase\");\n    t.span_record(\"gp-extend\", 5);\n}\n";
        assert_eq!(
            findings("crates/core/src/x.rs", src),
            vec![(3, "M1".into()), (4, "M1".into()), (5, "M1".into())]
        );
    }

    #[test]
    fn m1_ignores_comments_dynamic_names_and_unrelated_calls() {
        // A commented-out call, a non-literal name, and a lookalike
        // identifier must all stay silent.
        let src = "fn f(t: &Telemetry, name: &str) {\n    // t.metrics.counter(\"Old Name\").inc();\n    t.metrics.counter(name).inc();\n    my_span(\"Not A Telemetry Call\");\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn m1_applies_in_tests_and_telemetry_crates_and_takes_pragmas() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(t: &Telemetry) { t.metrics.gauge(\"Queue Depth\").set(1); }\n}\n";
        assert_eq!(findings("crates/obs/src/x.rs", src), vec![(3, "M1".into())]);
        let allowed = "fn f(t: &Telemetry) {\n    t.metrics.histogram(\"legacy-latency\"); // lint: allow(M1) legacy dashboard key\n}\n";
        assert!(findings("crates/core/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn c1_relaxed_guard_in_conc_scope() {
        let src = "fn f() {\n    if READY.load(Ordering::Relaxed) { publish(); }\n}\n";
        assert_eq!(findings("crates/core/src/exec.rs", src), vec![(2, "C1".into())]);
        assert_eq!(findings("crates/obs/src/x.rs", src), vec![(2, "C1".into())]);
        // Outside the cross-thread machinery the line rule stays silent.
        assert!(findings("crates/core/src/tuner.rs", src).is_empty());
        // A plain relaxed load (counter read, no branch) is fine.
        let plain = "fn g(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert!(findings("crates/core/src/exec.rs", plain).is_empty());
        // An Acquire guard is the fix.
        let acq = "fn h() { if READY.load(Ordering::Acquire) { publish(); } }\n";
        assert!(findings("crates/core/src/exec.rs", acq).is_empty());
        // Tests are exempt; the pragma escape hatch works.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { while F.load(Ordering::Relaxed) {} }\n}\n";
        assert!(findings("crates/obs/src/x.rs", test_src).is_empty());
        let allowed = "fn f() {\n    if L.load(Ordering::Relaxed) { t(); } // lint: allow(C1) latch is monotonic\n}\n";
        assert!(findings("crates/obs/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn pragma_diagnostics_p3_unknown_rule() {
        let src = "fn f() {\n    let y = 1; // lint: allow(Z9) not a rule\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P3".into())]);
        // Mixed list: the known id still suppresses, the unknown still
        // surfaces — no P2 piggybacks on the same pragma.
        let mixed =
            "fn f(x: Option<u32>) {\n    x.unwrap(); // lint: allow(E1, Z9) demo mixed\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", mixed), vec![(2, "P3".into())]);
    }

    #[test]
    fn pragma_diagnostics_p1_p2() {
        // Malformed (no justification) → P1; unused → P2.
        let src = "fn f(x: Option<u32>) {\n    x.expect(\"ok\"); // lint: allow(E1)\n    let y = 1; // lint: allow(D2) no clock on this line\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P1".into()), (3, "P2".into())]);
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let src = "fn f(x: Option<u32>) {\n    // lint: allow(E1) demo of standalone placement\n    x.unwrap();\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_braces_keep_scopes_separate() {
        let src = "fn f() {\n    {\n        let m = HashMap::new();\n        { m.keys(); }\n    }\n    {\n        let m = vec![1];\n        m.iter();\n    }\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(4, "D1".into())]);
    }
}
