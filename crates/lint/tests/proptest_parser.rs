//! Property tests for the lint engine's lexer and item parser.
//!
//! Two robustness layers:
//!
//! 1. **Never panic, on anything.** The analyzer runs over every file in
//!    the workspace walk, including malformed or exotic input; random
//!    character soup (heavy on quotes, comment markers and delimiters —
//!    the lexer's hard cases) and randomly truncated real-looking source
//!    must never panic the lexer, the parser, or the full rule pass.
//!
//! 2. **Recover the structure we generated.** Random well-formed item
//!    trees (fns nested in impls/mods, cfg gates, attributes, string and
//!    comment decoys) are generated together with their expected shape,
//!    and the parser must recover exactly the fn names, owners and gates
//!    we planted.

use lcf_lint::lex::{tokenize, Tok};
use lcf_lint::parse::parse;
use lcf_lint::{lint_source, RuleSet};
use proptest::prelude::*;

/// Characters weighted toward the lexer's tricky cases: string/char
/// delimiters, raw-string hashes, comment markers, braces, and a few
/// ident/keyword letters.
const SOUP: &[char] = &[
    '"', '\'', '#', 'r', 'b', '/', '*', '{', '}', '(', ')', '[', ']', ';', ',', ':', '<', '>', '-',
    '!', '\\', '\n', ' ', 'f', 'n', 'a', '_', '0', '9', 'i', 'm', 'p', 'l',
];

fn soup_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect()
}

/// A deterministic "real-looking" source corpus to truncate at arbitrary
/// byte boundaries (truncation is how half-written files reach the lint).
const CORPUS: &str = r##"//! Module docs with `code` and "quotes".
#![forbid(unsafe_code)]
use std::time::Duration; // lint:allow(wall-clock): not actually a clock
#[cfg(feature = "extra")]
pub mod probes;
pub struct S<'a> { x: &'a [u8; 4] }
impl<'a, F: FnMut() -> u32> Iterator for S<'a> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> { None }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let s = b"bytes"; let r = r#"raw " string"#; panic!("{s:?} {r}"); }
}
fn live(n: usize) -> usize {
    let c = 'x'; let esc = '\''; let _ = c == esc;
    'outer: loop { if n > 1 { break 'outer; } }
    n + 1
}
"##;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Layer 1a: character soup never panics anything.
    #[test]
    fn soup_never_panics(picks in proptest::collection::vec(0usize..64, 0..160)) {
        let src = soup_string(&picks);
        let (toks, _comments) = tokenize(&src);
        let _parsed = parse(&toks);
        let _findings = lint_source("soup.rs", &src, &RuleSet::all());
    }

    /// Layer 1b: truncating real-looking source at any char boundary never
    /// panics, and the surviving prefix still lexes into sane tokens.
    #[test]
    fn truncation_never_panics(cut in 0usize..2048) {
        let chars: Vec<char> = CORPUS.chars().collect();
        let src: String = chars[..cut.min(chars.len())].iter().collect();
        let (toks, _) = tokenize(&src);
        let _parsed = parse(&toks);
        let _findings = lint_source("cut.rs", &src, &RuleSet::all());
        // Line numbers never exceed the physical line count.
        let lines = src.lines().count().max(1);
        prop_assert!(toks.iter().all(|t| t.line >= 1 && t.line <= lines));
    }

    /// Layer 2: a generated item tree is recovered exactly — names,
    /// owners, and cfg gates.
    #[test]
    fn generated_items_are_recovered(
        shape in proptest::collection::vec((0usize..4, 0usize..3, 0usize..2), 1..12),
    ) {
        // Each entry plants one fn: `(container, gate, decoy)` where
        // container 0 = free fn, 1 = impl fn, 2 = trait default fn,
        // 3 = fn inside an inline mod; gate 0 = none, 1 = cfg(test),
        // 2 = cfg(feature = "extra"), which is not a test gate; decoy 1
        // sprinkles a comment and a string mentioning `fn fake()` that
        // must NOT be recovered.
        let mut src = String::new();
        let mut expected: Vec<(String, Option<String>, bool)> = Vec::new();
        for (k, &(container, gate, decoy)) in shape.iter().enumerate() {
            let name = format!("f{k}");
            let attr = match gate {
                1 => "#[cfg(test)]\n",
                2 => "#[cfg(feature = \"extra\")]\n",
                _ => "",
            };
            if decoy == 1 {
                src.push_str("// decoy: fn fake() { panic!() }\n");
                src.push_str("const DECOY: &str = \"fn fake2() {\";\n");
            }
            let (snippet, owner) = match container {
                1 => (
                    format!("impl Own{k} {{ {attr}fn {name}(&self) -> usize {{ {k} }} }}\n"),
                    Some(format!("Own{k}")),
                ),
                2 => (
                    format!("trait Tr{k} {{ {attr}fn {name}(&self) -> usize {{ {k} }} }}\n"),
                    None,
                ),
                3 => (
                    format!("{attr}mod m{k} {{ fn {name}() -> usize {{ {k} }} }}\n"),
                    None,
                ),
                _ => (format!("{attr}fn {name}() -> usize {{ {k} }}\n"), None),
            };
            src.push_str(&snippet);
            // For container 3 the gate sits on the mod and is inherited.
            expected.push((name, owner, gate == 1));
        }
        let (toks, _) = tokenize(&src);
        let parsed = parse(&toks);
        let got: Vec<(String, Option<String>, bool)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone(), f.gates.test))
            .collect();
        prop_assert_eq!(got, expected, "source was:\n{}", src);
    }

    /// Idents planted outside strings/comments always surface as tokens;
    /// idents planted inside them never do.
    #[test]
    fn ident_visibility_respects_literals(k in 0usize..1000) {
        let live = format!("live_{k}");
        let dead = format!("dead_{k}");
        let src = format!(
            "// {dead} in a comment\n/* {dead} in a block */\nconst S: &str = \"{dead}\";\nfn {live}() {{}}\n"
        );
        let (toks, _) = tokenize(&src);
        let has = |name: &str| toks.iter().any(|t| matches!(&t.tok, Tok::Ident(i) if i == name));
        prop_assert!(has(&live));
        prop_assert!(!has(&dead));
        // ... but the string content is preserved as a Str token.
        prop_assert!(toks.iter().any(|t| matches!(&t.tok, Tok::Str(s) if s == &dead)));
    }
}
