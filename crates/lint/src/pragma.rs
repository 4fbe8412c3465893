//! The `// lint:` pragma grammar (see `docs/static-analysis.md`).
//!
//! One form, requiring a non-empty justification so every suppression in
//! the tree documents *why* the flagged pattern is safe:
//!
//! ```text
//! // lint: allow(C1) monotonic one-way latch; a stale read skips one count
//! // lint: allow(S1, S2) <justification>
//! ```
//!
//! A trailing pragma suppresses matching findings on its own line; a
//! pragma on a line of its own suppresses matching findings on the next
//! line. The justification may optionally be set off with `--` or `—`.

use crate::rules::RULE_IDS;

/// A parsed (or rejected) pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based source line the pragma comment sits on.
    pub line: usize,
    /// Rule ids this pragma suppresses (empty when malformed).
    pub rules: Vec<String>,
    /// Rule ids named in `allow(…)` that no rule defines. These become
    /// P3 findings (not grammar errors): the pragma stays well-formed
    /// and its *known* rules still suppress.
    pub unknown: Vec<String>,
    /// The required free-text justification.
    pub justification: String,
    /// Why the pragma failed to parse, if it did.
    pub malformed: Option<String>,
    /// True when the pragma's line holds no code (applies to next line).
    pub standalone: bool,
}

impl Pragma {
    /// True when this pragma suppresses `rule`.
    pub fn covers(&self, rule: &str) -> bool {
        self.rules.iter().any(|r| r == rule)
    }
}

/// Parses the text after `lint:`. `standalone` reflects whether the host
/// line carried code besides the comment.
pub fn parse(line: usize, body: &str, standalone: bool) -> Pragma {
    let body = body.trim();
    let make = |rules: Vec<String>, unknown: Vec<String>, rest: &str, malformed: Option<String>| {
        let justification = rest.trim().trim_start_matches(['-', '—']).trim().to_string();
        let malformed = malformed.or_else(|| {
            if justification.is_empty() {
                Some("missing justification — every suppression must say why it is safe".into())
            } else {
                None
            }
        });
        Pragma { line, rules, unknown, justification, malformed, standalone }
    };

    if let Some(rest) = body.strip_prefix("allow") {
        let rest = rest.trim_start();
        if let Some(inner_start) = rest.strip_prefix('(') {
            if let Some(close) = inner_start.find(')') {
                let (inner, tail) = inner_start.split_at(close);
                let listed: Vec<String> = inner
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let malformed =
                    if listed.is_empty() { Some("allow() lists no rules".into()) } else { None };
                let (rules, unknown): (Vec<String>, Vec<String>) =
                    listed.into_iter().partition(|r| RULE_IDS.contains(&r.as_str()));
                return make(rules, unknown, &tail[1..], malformed);
            }
        }
        return make(
            Vec::new(),
            Vec::new(),
            "",
            Some("allow must be followed by (RULE[, RULE…])".into()),
        );
    }
    make(
        Vec::new(),
        Vec::new(),
        "",
        Some(format!("unrecognised pragma `lint: {body}`; expected `allow(...)`")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_with_justification() {
        let p = parse(3, "allow(C1) -- the latch is monotonic", false);
        assert!(p.malformed.is_none());
        assert!(p.covers("C1") && !p.covers("C2"));
        assert_eq!(p.justification, "the latch is monotonic");
    }

    #[test]
    fn multi_rule_allow() {
        let p = parse(1, "allow(F1, E1) fixture exercising both", false);
        assert!(p.covers("F1") && p.covers("E1"));
    }

    #[test]
    fn missing_justification_is_malformed() {
        assert!(parse(1, "allow(C1)", false).malformed.is_some());
    }

    #[test]
    fn unknown_rule_is_reported_not_malformed() {
        // Unknown ids surface as P3 findings downstream; the pragma
        // itself stays well-formed and its known ids still suppress.
        let p = parse(1, "allow(D9) whatever", false);
        assert!(p.malformed.is_none(), "{:?}", p.malformed);
        assert_eq!(p.unknown, vec!["D9".to_string()]);
        assert!(p.rules.is_empty());
        let p = parse(1, "allow(F1, Z9) mixed list", false);
        assert!(p.malformed.is_none());
        assert!(p.covers("F1"));
        assert_eq!(p.unknown, vec!["Z9".to_string()]);
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(parse(1, "suppress-all please", false).malformed.is_some());
        assert!(parse(1, "allow C1 no parens", false).malformed.is_some());
        // The retired `sorted` sugar (D1 moved to clippy.toml) no longer parses.
        assert!(parse(1, "sorted keys re-sorted below", false).malformed.is_some());
    }
}
