//! A lightweight Rust *item* parser on top of [`crate::lex`].
//!
//! Recovers just enough structure for the semantic lint rules — no
//! expression trees, no type resolution:
//!
//! * every `fn` item with its name, signature line, body token span, and
//!   the impl type that owns it (`impl Foo { fn bar }` → owner `Foo`);
//! * the module tree's *test gates*: whether each item is (transitively)
//!   behind `#[cfg(test)]`/`#[test]`, including statement-level gates
//!   inside fn bodies;
//! * out-of-line `mod name;` declarations with their cfg gates, so a
//!   crate-level caller can propagate a gate from `lib.rs` onto the
//!   child file;
//! * token spans of test-gated regions, which the token-scanning rules
//!   skip.
//!
//! The parser is resilient by construction: it walks the token stream with
//! balanced-delimiter tracking and treats anything it does not recognize
//! as opaque tokens, so malformed or exotic input degrades to "no
//! structure recovered" rather than a panic.

use crate::lex::{Spanned, Tok};

/// Inherited cfg gates at some point in the item tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gates {
    /// Behind `#[test]` or a `test` cfg: skipped by every content rule.
    pub test: bool,
}

impl Gates {
    fn union(self, other: Gates) -> Gates {
        Gates {
            test: self.test || other.test,
        }
    }
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The self type of the enclosing `impl` block, if any (last path
    /// segment: `impl Traffic for FastBernoulli` → `FastBernoulli`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace (or of the trailing `;`
    /// for bodiless trait declarations).
    pub end_line: usize,
    /// Token index range `[open, close]` of the `{ ... }` body; `None`
    /// for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Effective cfg gates (own attributes unioned with every ancestor's).
    pub gates: Gates,
}

/// An out-of-line `mod name;` declaration.
#[derive(Clone, Debug)]
pub struct ModDecl {
    /// The module name (child file `name.rs` or `name/mod.rs`).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Effective cfg gates on the declaration.
    pub gates: Gates,
}

/// The recovered structure of one source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Out-of-line module declarations.
    pub mod_decls: Vec<ModDecl>,
    /// Token index spans (inclusive) of test-gated regions.
    pub test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Whether the token at `idx` lies inside a test-gated region.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= idx && idx <= b)
    }
}

/// Parses the token stream of one file.
pub fn parse(toks: &[Spanned]) -> ParsedFile {
    let mut p = Parser {
        toks,
        out: ParsedFile::default(),
    };
    p.region(0, Gates::default(), None);
    p.out
}

/// One parsed attribute: its content tokens (between `[` and `]`).
struct Attr {
    toks: Vec<Tok>,
}

impl Attr {
    fn first_ident(&self) -> Option<&str> {
        self.toks.iter().find_map(|t| match t {
            Tok::Ident(i) => Some(i.as_str()),
            _ => None,
        })
    }

    fn contains_ident(&self, name: &str) -> bool {
        self.toks
            .iter()
            .any(|t| matches!(t, Tok::Ident(i) if i == name))
    }

    /// `#[test]`, or a `cfg(...)` that names `test` positively.
    /// `cfg_attr(test, ...)` only *adds an attribute* under test and must
    /// not gate the item out of linting; `cfg(not(test))` code is live in
    /// production and must stay linted.
    fn is_test_gate(&self) -> bool {
        match self.first_ident() {
            Some("test") => true,
            Some("cfg") => self.contains_ident("test") && !self.contains_ident("not"),
            _ => false,
        }
    }

    fn gates(&self) -> Gates {
        Gates {
            test: self.is_test_gate(),
        }
    }
}

struct Parser<'t> {
    toks: &'t [Spanned],
    out: ParsedFile,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i).map(|s| &s.tok)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i) == Some(&Tok::Punct(c))
    }

    fn line(&self, i: usize) -> usize {
        self.toks
            .get(i.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(1)
    }

    /// Records gate spans introduced *here* (not inherited — the outer
    /// item's span already covers inherited gates).
    fn record_gate_spans(&mut self, own: Gates, inherited: Gates, span: (usize, usize)) {
        if own.test && !inherited.test {
            self.out.test_spans.push(span);
        }
    }

    /// Parses one `#[...]` / `#![...]` attribute starting at the `#`.
    /// Returns `(attr, inner, next_index)`.
    fn attr(&self, i: usize) -> (Attr, bool, usize) {
        let mut j = i + 1;
        let inner = self.is_punct(j, '!');
        if inner {
            j += 1;
        }
        // Caller guarantees `[` here; defensive anyway.
        if !self.is_punct(j, '[') {
            return (Attr { toks: Vec::new() }, inner, i + 1);
        }
        j += 1;
        let mut depth = 1usize;
        let mut toks = Vec::new();
        while j < self.toks.len() && depth > 0 {
            match &self.toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            toks.push(self.toks[j].tok.clone());
            j += 1;
        }
        (Attr { toks }, inner, j)
    }

    /// Walks the contents of one brace-delimited region starting at `i`
    /// (just past the `{`, or 0 at the top level), recording items.
    /// Returns the index of the matching close brace (or `toks.len()`).
    fn region(&mut self, mut i: usize, gates: Gates, owner: Option<&str>) -> usize {
        let n = self.toks.len();
        let mut attrs: Vec<Attr> = Vec::new();
        let mut attr_start = 0usize;
        // () / [] nesting: `;` and `,` only end an attribute's target at
        // depth 0 (think `[u8; 4]` or `foo(a, b)`).
        let mut paren = 0usize;
        while i < n {
            match &self.toks[i].tok {
                Tok::Punct('#')
                    if self.is_punct(i + 1, '[')
                        || (self.is_punct(i + 1, '!') && self.is_punct(i + 2, '[')) =>
                {
                    let (attr, inner, j) = self.attr(i);
                    if !inner {
                        if attrs.is_empty() {
                            attr_start = i;
                        }
                        attrs.push(attr);
                    }
                    i = j;
                }
                Tok::Punct('(') | Tok::Punct('[') => {
                    paren += 1;
                    i += 1;
                }
                Tok::Punct(')') | Tok::Punct(']') => {
                    paren = paren.saturating_sub(1);
                    i += 1;
                }
                Tok::Punct('{') => {
                    let own = attrs
                        .iter()
                        .fold(Gates::default(), |g, a| g.union(a.gates()));
                    let close = self.region(i + 1, gates.union(own), owner);
                    let start = if attrs.is_empty() { i } else { attr_start };
                    self.record_gate_spans(own, gates, (start, close));
                    attrs.clear();
                    i = close + 1;
                }
                Tok::Punct('}') => return i,
                Tok::Punct(';') | Tok::Punct(',') if paren == 0 => {
                    if !attrs.is_empty() {
                        let own = attrs
                            .iter()
                            .fold(Gates::default(), |g, a| g.union(a.gates()));
                        self.record_gate_spans(own, gates, (attr_start, i));
                        attrs.clear();
                    }
                    i += 1;
                }
                Tok::Ident(id) if id == "fn" && matches!(self.tok(i + 1), Some(Tok::Ident(_))) => {
                    let own = attrs
                        .iter()
                        .fold(Gates::default(), |g, a| g.union(a.gates()));
                    let start = if attrs.is_empty() { i } else { attr_start };
                    attrs.clear();
                    i = self.fn_item(i, start, gates, own, owner);
                }
                Tok::Ident(id) if id == "mod" && matches!(self.tok(i + 1), Some(Tok::Ident(_))) => {
                    let own = attrs
                        .iter()
                        .fold(Gates::default(), |g, a| g.union(a.gates()));
                    let start = if attrs.is_empty() { i } else { attr_start };
                    attrs.clear();
                    i = self.mod_item(i, start, gates, own);
                }
                Tok::Ident(id) if id == "impl" => {
                    let own = attrs
                        .iter()
                        .fold(Gates::default(), |g, a| g.union(a.gates()));
                    let start = if attrs.is_empty() { i } else { attr_start };
                    attrs.clear();
                    i = self.impl_item(i, start, gates, own);
                }
                Tok::Ident(id)
                    if id == "trait" && matches!(self.tok(i + 1), Some(Tok::Ident(_))) =>
                {
                    let own = attrs
                        .iter()
                        .fold(Gates::default(), |g, a| g.union(a.gates()));
                    let start = if attrs.is_empty() { i } else { attr_start };
                    attrs.clear();
                    i = self.header_block(i + 1, start, gates, own, None);
                }
                _ => i += 1,
            }
        }
        n
    }

    /// Parses a `fn` item starting at the `fn` keyword. `span_start` is
    /// where the item's attributes began (for gate spans).
    fn fn_item(
        &mut self,
        i: usize,
        span_start: usize,
        inherited: Gates,
        own: Gates,
        owner: Option<&str>,
    ) -> usize {
        let n = self.toks.len();
        let name = match self.tok(i + 1) {
            Some(Tok::Ident(id)) => id.clone(),
            _ => return i + 1,
        };
        let line = self.line(i);
        let gates = inherited.union(own);
        // Scan the signature for the body `{` or a terminating `;`,
        // ignoring both inside () / [] groups (`[u8; 4]`, parameters).
        let mut j = i + 2;
        let mut depth = 0usize;
        let mut body: Option<(usize, usize)> = None;
        let mut end = n.saturating_sub(1);
        while j < n {
            match &self.toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => {
                    let close = self.region(j + 1, gates, owner);
                    body = Some((j, close));
                    end = close;
                    break;
                }
                Tok::Punct(';') if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        self.record_gate_spans(own, inherited, (span_start, end));
        self.out.fns.push(FnItem {
            name,
            owner: owner.map(str::to_string),
            line,
            end_line: self.line(end),
            body,
            gates,
        });
        end + 1
    }

    /// Parses a `mod` item starting at the `mod` keyword: either an
    /// out-of-line declaration (`mod name;`) or an inline block.
    fn mod_item(&mut self, i: usize, span_start: usize, inherited: Gates, own: Gates) -> usize {
        let name = match self.tok(i + 1) {
            Some(Tok::Ident(id)) => id.clone(),
            _ => return i + 1,
        };
        let line = self.line(i);
        let gates = inherited.union(own);
        if self.is_punct(i + 2, ';') {
            self.record_gate_spans(own, inherited, (span_start, i + 2));
            self.out.mod_decls.push(ModDecl { name, line, gates });
            return i + 3;
        }
        if self.is_punct(i + 2, '{') {
            let close = self.region(i + 3, gates, None);
            self.record_gate_spans(own, inherited, (span_start, close));
            return close + 1;
        }
        i + 2
    }

    /// Parses an `impl` block starting at the `impl` keyword, resolving
    /// the self type (the ident after `for` if present, else the first
    /// path ident after the generics) as the owner for contained fns.
    fn impl_item(&mut self, i: usize, span_start: usize, inherited: Gates, own: Gates) -> usize {
        let n = self.toks.len();
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut prev_dash = false;
        let mut owner: Option<String> = None;
        let mut in_where = false;
        while j < n {
            match &self.toks[j].tok {
                Tok::Punct('<') => angle += 1,
                // `->` in a generic bound (`Fn() -> u32`) is not a
                // closing angle bracket.
                Tok::Punct('>') if !prev_dash => angle -= 1,
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Punct(';') if angle <= 0 => return j + 1, // `impl Foo;` — malformed, bail
                Tok::Ident(id) if angle <= 0 => match id.as_str() {
                    "for" => owner = None,
                    "where" => in_where = true,
                    _ if !in_where => owner = Some(id.clone()),
                    _ => {}
                },
                _ => {}
            }
            prev_dash = self.toks[j].tok == Tok::Punct('-');
            j += 1;
        }
        if j >= n {
            return n;
        }
        let gates = inherited.union(own);
        let close = self.region(j + 1, gates, owner.as_deref());
        self.record_gate_spans(own, inherited, (span_start, close));
        close + 1
    }

    /// Parses a header followed by a block (used for `trait` items): scans
    /// angle-aware to the opening `{`, then recurses.
    fn header_block(
        &mut self,
        mut j: usize,
        span_start: usize,
        inherited: Gates,
        own: Gates,
        owner: Option<&str>,
    ) -> usize {
        let n = self.toks.len();
        let mut angle = 0i32;
        let mut prev_dash = false;
        while j < n {
            match &self.toks[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !prev_dash => angle -= 1,
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Punct(';') if angle <= 0 => return j + 1,
                _ => {}
            }
            prev_dash = self.toks[j].tok == Tok::Punct('-');
            j += 1;
        }
        if j >= n {
            return n;
        }
        let gates = inherited.union(own);
        let close = self.region(j + 1, gates, owner);
        self.record_gate_spans(own, inherited, (span_start, close));
        close + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&tokenize(src).0)
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not found in {:?}", p.fns))
    }

    #[test]
    fn plain_fn_has_body_span() {
        let p = parse_src("fn f(x: usize) -> usize { x + 1 }\n");
        let f = fn_named(&p, "f");
        assert!(f.body.is_some());
        assert_eq!(f.owner, None);
        assert!(!f.gates.test);
    }

    #[test]
    fn trait_decl_fn_has_no_body() {
        let p = parse_src("trait S { fn schedule_into(&mut self, out: &mut M); }\n");
        assert!(fn_named(&p, "schedule_into").body.is_none());
    }

    #[test]
    fn impl_owner_resolved_plain_and_for() {
        let p = parse_src(
            "impl DestPattern { fn sample(&self) {} }\n\
             impl Traffic for FastBernoulli { fn arrival(&mut self) {} }\n\
             impl<S: Scheduler + ?Sized> Scheduler for Box<S> { fn schedule_into(&mut self) {} }\n",
        );
        assert_eq!(fn_named(&p, "sample").owner.as_deref(), Some("DestPattern"));
        assert_eq!(
            fn_named(&p, "arrival").owner.as_deref(),
            Some("FastBernoulli")
        );
        assert_eq!(fn_named(&p, "schedule_into").owner.as_deref(), Some("Box"));
    }

    #[test]
    fn impl_with_arrow_in_generics() {
        let p = parse_src("impl<F: FnMut() -> u32> Sampler<F> { fn draw(&mut self) {} }\n");
        assert_eq!(fn_named(&p, "draw").owner.as_deref(), Some("Sampler"));
    }

    #[test]
    fn impl_where_clause_does_not_steal_owner() {
        let p = parse_src("impl<T> Wrap<T> where T: Clone { fn get(&self) {} }\n");
        assert_eq!(fn_named(&p, "get").owner.as_deref(), Some("Wrap"));
    }

    #[test]
    fn cfg_test_mod_gates_children() {
        let p = parse_src(
            "#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\nfn live() {}\n",
        );
        assert!(fn_named(&p, "helper").gates.test);
        assert!(fn_named(&p, "t").gates.test);
        assert!(!fn_named(&p, "live").gates.test);
    }

    #[test]
    fn cfg_attr_is_not_a_test_gate() {
        let p = parse_src("#[cfg_attr(test, allow(dead_code))]\nfn live() {}\n");
        assert!(!fn_named(&p, "live").gates.test);
        assert!(p.test_spans.is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let p = parse_src("#[cfg(not(test))]\nfn live() {}\n");
        assert!(!fn_named(&p, "live").gates.test);
    }

    #[test]
    fn mod_decls_carry_gates() {
        let src = "#[cfg(test)]\nmod tests;\npub mod traits;\n";
        let p = parse_src(src);
        assert_eq!(p.mod_decls.len(), 2);
        assert!(p.mod_decls[0].gates.test);
        assert_eq!(p.mod_decls[0].name, "tests");
        assert!(!p.mod_decls[1].gates.test);
    }

    #[test]
    fn array_semicolons_do_not_end_fn_signatures() {
        let p = parse_src("fn f(x: [u8; 4]) -> [u32; BLOCK_WORDS] { g() }\n");
        assert!(fn_named(&p, "f").body.is_some());
    }

    #[test]
    fn nested_fns_and_closures_are_recovered() {
        let src = "fn outer() {\n  #[inline(always)]\n  fn inner(x: u32) -> u32 { x }\n  let c = |v: u32| { inner(v) };\n}\n";
        let p = parse_src(src);
        assert!(p.fns.iter().any(|f| f.name == "inner"));
        assert!(p.fns.iter().any(|f| f.name == "outer"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse_src("type F = fn(u32) -> bool;\nfn real() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn match_arms_with_struct_patterns_do_not_derail() {
        let src = "fn f(s: S) -> usize {\n  match s {\n    S::On { dst } => dst,\n    S::Off => 0,\n  }\n}\nfn g() {}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert!(fn_named(&p, "f").body.is_some());
    }

    #[test]
    fn const_generic_impl_headers() {
        let p =
            parse_src("impl<const ROUNDS: u32> ChaChaRng<ROUNDS> { fn next_u32(&mut self) {} }\n");
        assert_eq!(fn_named(&p, "next_u32").owner.as_deref(), Some("ChaChaRng"));
    }

    #[test]
    fn multi_segment_paths_in_bodies_are_opaque() {
        let p = parse_src("fn f() { let x = std::collections::BTreeMap::new(); }\n");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn end_line_tracks_the_close_brace() {
        let p = parse_src("fn f() {\n  g();\n  h();\n}\n");
        let f = fn_named(&p, "f");
        assert_eq!(f.line, 1);
        assert_eq!(f.end_line, 4);
    }

    #[test]
    fn unbalanced_input_terminates() {
        for src in [
            "fn f() {",
            "impl Foo {",
            "fn f(",
            "}}}",
            "#[cfg(test)",
            "mod m",
            "fn",
            "impl",
        ] {
            let _ = parse_src(src);
        }
    }
}
