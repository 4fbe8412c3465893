//! Property tests for the scanner's masking contract (see the
//! `dbtune_lint::scanner` module docs): cleaning never changes the line
//! structure — cleaned line `i` corresponds exactly to source line `i`,
//! which every finding's line number depends on — and comment/literal
//! bodies never leak into the cleaned code the rules match against.

use dbtune_lint::scanner;
use proptest::prelude::*;
use proptest::strategy::Map;

/// The sentinel planted inside literal/comment bodies. Chosen so it can
/// never occur in the surrounding generated code.
const SENTINEL: &str = "ZqZleak";

/// Random strings over an explicit alphabet (the vendored proptest has
/// no regex strategies). Targeting the scanner's own token alphabet
/// beats uniform unicode here anyway.
fn text(
    alphabet: &'static str,
    size: std::ops::Range<usize>,
) -> Map<proptest::collection::VecStrategy<std::ops::Range<usize>>, impl Fn(Vec<usize>) -> String> {
    let chars: Vec<char> = alphabet.chars().collect();
    let n = chars.len();
    proptest::collection::vec(0usize..n, size)
        .prop_map(move |idxs| idxs.into_iter().map(|i| chars[i]).collect())
}

/// Every character class the scanner treats specially, plus plain code:
/// quote kinds, escapes, comment openers/closers, raw-string prefixes
/// and hashes, and newlines. Random soup over this alphabet reliably
/// produces unterminated literals, nested comments, and stray escapes.
const HOSTILE: &str = "abrZ_ \n\"'\\/*#(){};.:0";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The line-count contract over hostile input (unterminated
    /// literals, stray backslashes, half-open comments): the cleaned
    /// vector has exactly one entry per source line, with a single
    /// empty line for empty input. Every finding's line number rests on
    /// this invariant.
    #[test]
    fn line_count_matches_source(src in text(HOSTILE, 0..200)) {
        let cleaned = scanner::clean(&src);
        prop_assert_eq!(cleaned.len(), src.lines().count().max(1), "source: {:?}", src);
    }

    /// String-literal bodies are masked: the sentinel planted inside a
    /// `"…"` literal never reaches cleaned code, and the literal itself
    /// collapses to the `"_"` marker the rules key on.
    #[test]
    fn string_bodies_never_leak(body in text("abc ().:", 0..30)) {
        let src = format!("fn f() {{ let s = \"{SENTINEL}{body}\"; s.len(); }}\n");
        let cleaned = scanner::clean(&src);
        prop_assert!(cleaned.iter().all(|l| !l.code.contains(SENTINEL)), "{:?}", cleaned);
        prop_assert!(cleaned[0].code.contains("\"_\""), "{:?}", cleaned);
    }

    /// Raw-string bodies (which may embed bare quotes) are masked the
    /// same way, and interior newlines keep the line alignment.
    #[test]
    fn raw_string_bodies_never_leak(
        body in text("abc \"", 0..24),
        split in 0usize..24,
    ) {
        // Optionally break the body across a line to exercise the
        // multi-line raw-string path. (The alphabet has no `#`, so the
        // literal cannot close early.)
        let mut body = format!("{SENTINEL}{body}");
        let split = split.min(body.len());
        body.insert(split, '\n');
        let src = format!("let s = r#\"{body}\"#;\ntail();\n");
        let cleaned = scanner::clean(&src);
        prop_assert_eq!(cleaned.len(), src.lines().count(), "source: {:?}", src);
        prop_assert!(cleaned.iter().all(|l| !l.code.contains(SENTINEL)), "{:?}", cleaned);
        // The code after the literal survives on its own line.
        prop_assert!(cleaned.last().is_some_and(|l| l.code.contains("tail()")), "{:?}", cleaned);
    }

    /// Line-comment bodies vanish from cleaned code entirely — even
    /// when they contain quotes or comment openers of their own.
    #[test]
    fn line_comment_bodies_never_leak(body in text("abc ().:\"'/*", 0..30)) {
        let src = format!("let x = 1; // {SENTINEL}{body}\nnext();\n");
        let cleaned = scanner::clean(&src);
        prop_assert_eq!(cleaned.len(), 2);
        prop_assert!(cleaned.iter().all(|l| !l.code.contains(SENTINEL)), "{:?}", cleaned);
        prop_assert!(cleaned[0].code.contains("let x = 1;"));
    }

    /// Block comments — including ones spanning lines — are removed
    /// without disturbing the surrounding code or the line count.
    #[test]
    fn block_comment_bodies_never_leak(
        body in text("abc .:", 0..20),
        lines in 0usize..3,
    ) {
        let filler = "\n".repeat(lines);
        let src = format!("before(); /* {SENTINEL}{body}{filler} */ after();\n");
        let cleaned = scanner::clean(&src);
        prop_assert_eq!(cleaned.len(), src.lines().count(), "source: {:?}", src);
        prop_assert!(cleaned.iter().all(|l| !l.code.contains(SENTINEL)), "{:?}", cleaned);
        prop_assert!(cleaned[0].code.contains("before();"));
        prop_assert!(cleaned.last().is_some_and(|l| l.code.contains("after();")), "{:?}", cleaned);
    }

    /// Code made only of plain tokens (no literals, no comments) passes
    /// through verbatim — masking is the identity off the token classes
    /// it exists for.
    #[test]
    fn plain_code_round_trips_verbatim(
        lines in proptest::collection::vec(text("abcz_09 ();=+.{}", 0..40), 1..8),
    ) {
        let src = lines.join("\n");
        let cleaned = scanner::clean(&src);
        // `str::lines` drops a trailing empty line, and so does the
        // scanner — compare against the source's own line view.
        prop_assert_eq!(cleaned.len(), src.lines().count().max(1));
        for (raw, clean) in src.lines().zip(&cleaned) {
            prop_assert_eq!(raw, &clean.code);
        }
    }

    /// `// lint:` comments are captured as pragmas with their body
    /// intact, while still being stripped from the cleaned code.
    #[test]
    fn pragmas_round_trip(just in text("abcdef ", 1..20)) {
        let src = format!("let y = 2; // lint: allow(D2) {just}\n");
        let cleaned = scanner::clean(&src);
        let pragma = cleaned[0].pragma.as_deref().expect("pragma captured");
        prop_assert!(pragma.contains("allow(D2)"), "{pragma:?}");
        prop_assert!(pragma.contains(just.trim_end()), "{pragma:?}");
        prop_assert!(!cleaned[0].code.contains("lint:"), "{:?}", &cleaned[0].code);
    }
}
