//! # lcf-lint — repo-specific static analysis
//!
//! A dependency-free static analyzer for the workspace's own determinism
//! and robustness rules — the properties `rustc` and `clippy` cannot know
//! about because they are contracts of *this* codebase:
//!
//! | rule | meaning | scope |
//! |---|---|---|
//! | `hash-collections` | no `HashMap`/`HashSet` (iteration order is unspecified; simulation results must be bit-identical) | core, sim, fabric, clint, telemetry, hw, bench |
//! | `wall-clock` | no `SystemTime`/`Instant` (simulated time is slot-based; wall clocks break reproducibility) | core, sim, fabric, clint, telemetry, hw |
//! | `no-panic` | no `unwrap()`/`expect()`/`panic!` in non-test library code | core, sim, telemetry, fabric, clint, hw |
//! | `truncating-cast` | no `as u8`/`u16`/`u32`/`i8`/`i16`/`i32` casts (port indices are `usize`; narrowing must be `try_from`) | core, sim, fabric |
//! | `forbid-unsafe` | `#![forbid(unsafe_code)]` present in every crate root (`src/lib.rs` / `src/main.rs` / `src/bin/*.rs`) | whole workspace |
//! | `hot-path-alloc` | no `Matching::new`, `vec![...]` or `with_capacity` inside per-slot hot functions (`schedule_into`, `schedule_weighted_into`, `step`, `step_window`) **or any same-crate fn they call** — buffers are sized at construction and reused | core, sim |
//! | `rng-stream` | no branch-dependent RNG draw (a draw reachable under only one arm of `if`/`match`, in a `while`/`loop`, or inside a lazy combinator closure) unless the enclosing fn documents its draw-count contract with `lint:allow(rng-stream): ...` | sim traffic, rng |
//!
//! The analysis is structure-aware but still hand-rolled and
//! dependency-free: the [`lex`] module tokenizes (comments, raw strings,
//! lifetimes, numeric suffixes all handled), and the [`parse`] module
//! recovers the item tree — `fn`/`impl` spans with owners, test
//! `#[cfg(...)]` gates, out-of-line `mod` declarations — plus
//! enough call structure for a one-level intra-crate call graph. Items
//! gated behind a `test` cfg (`#[cfg(test)]` modules, `#[test]`
//! functions) are skipped by every content rule; `cfg_attr(test, ...)`
//! and `cfg(not(test))` do **not** gate (that code is live in
//! production).
//!
//! ## Why `rng-stream` exists
//!
//! The golden traces and `replicate_seed` coupling freeze exact
//! keystreams: every traffic generator documents how many RNG words it
//! consumes per slot, and replicated runs rely on that count being
//! data-independent. A draw that executes under only one branch makes
//! the stream position depend on earlier outcomes, silently decoupling
//! paired runs. Generators that *intentionally* draw variable counts
//! (rejection sampling, gate-then-destination) must say so:
//!
//! ```text
//! // lint:allow(rng-stream): draws 1 gate word per slot + 1 dest word per arrival
//! fn arrival(&mut self, rng: &mut SimRng) -> Option<usize> { ... }
//! ```
//!
//! For `rng-stream` the tag is *fn-scoped*: placed within two lines above
//! the `fn` (or anywhere inside it), it covers the whole body, because the
//! draw-count contract is a property of the function, not of one line.
//!
//! ## Allowlist tag
//!
//! Every other finding is suppressed line-wise with an inline
//! justification comment:
//!
//! ```text
//! // lint:allow(no-panic): grant ⊆ request is checked above, so the queue is non-empty
//! .expect("scheduler granted an empty queue");
//! ```
//!
//! The tag names the rule and *must* carry a non-empty justification after
//! the colon; it applies to its own line and the following line (so it works
//! both trailing and on the line above). A tag without a justification is
//! itself reported as a `bad-allow-tag` finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod parse;

use lex::{Comment, Tok};
use parse::{FnItem, ParsedFile};
use std::collections::BTreeSet;
use std::fmt;

/// Rule identifiers, used in findings and in `lint:allow(...)` tags.
pub mod rules {
    /// `HashMap`/`HashSet` in deterministic code.
    pub const HASH_COLLECTIONS: &str = "hash-collections";
    /// `SystemTime`/`Instant` in simulation logic.
    pub const WALL_CLOCK: &str = "wall-clock";
    /// `unwrap()`/`expect()`/`panic!` in non-test library code.
    pub const NO_PANIC: &str = "no-panic";
    /// Truncating `as` casts on integer values.
    pub const TRUNCATING_CAST: &str = "truncating-cast";
    /// Missing `#![forbid(unsafe_code)]` in a crate root.
    pub const FORBID_UNSAFE: &str = "forbid-unsafe";
    /// Heap allocation inside a per-slot hot function or its callees.
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    /// Branch-dependent RNG draw without a documented draw-count contract.
    pub const RNG_STREAM: &str = "rng-stream";
    /// Malformed `lint:allow` tag (unknown rule or empty justification).
    pub const BAD_ALLOW_TAG: &str = "bad-allow-tag";

    /// Every content rule a `lint:allow` tag may name.
    pub const ALL: [&str; 7] = [
        HASH_COLLECTIONS,
        WALL_CLOCK,
        NO_PANIC,
        TRUNCATING_CAST,
        FORBID_UNSAFE,
        HOT_PATH_ALLOC,
        RNG_STREAM,
    ];
}

/// Which rules to run on one file. Built per-file by the CLI from the path
/// (different crates have different contracts); [`RuleSet::all`] enables
/// everything (used for explicit file arguments and the self-test fixture).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// Enforce the `hash-collections` rule.
    pub hash_collections: bool,
    /// Enforce the `wall-clock` rule.
    pub wall_clock: bool,
    /// Enforce the `no-panic` rule.
    pub no_panic: bool,
    /// Enforce the `truncating-cast` rule.
    pub truncating_cast: bool,
    /// Require `#![forbid(unsafe_code)]` (crate roots only).
    pub forbid_unsafe: bool,
    /// Enforce the `hot-path-alloc` rule (this file's hot fns are roots,
    /// and its fns are candidate callees for same-group roots).
    pub hot_path_alloc: bool,
    /// Enforce the `rng-stream` rule.
    pub rng_stream: bool,
}

impl RuleSet {
    /// All rules on.
    pub fn all() -> Self {
        RuleSet {
            hash_collections: true,
            wall_clock: true,
            no_panic: true,
            truncating_cast: true,
            forbid_unsafe: true,
            hot_path_alloc: true,
            rng_stream: true,
        }
    }

    /// True if no rule is enabled (the file can be skipped).
    pub fn is_empty(&self) -> bool {
        !(self.hash_collections
            || self.wall_clock
            || self.no_panic
            || self.truncating_cast
            || self.forbid_unsafe
            || self.hot_path_alloc
            || self.rng_stream)
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path label of the offending file (as given to [`lint_source`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`rules`]).
    pub rule: &'static str,
    /// Short description of what was matched.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// A parsed `lint:allow(rule): justification` tag.
struct AllowTag {
    rule: String,
    justified: bool,
    line: usize,
}

/// Extracts every `lint:allow(...)` tag from the comments.
fn allow_tags(comments: &[Comment]) -> Vec<AllowTag> {
    let mut tags = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let justified = after
                .strip_prefix(':')
                .is_some_and(|j| !j.trim_start_matches(['/', '*']).trim().is_empty());
            tags.push(AllowTag {
                rule,
                justified,
                line: c.line,
            });
            rest = after;
        }
    }
    tags
}

/// Integer types an `as` cast may silently truncate a port index into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Function names whose bodies are per-slot hot paths under the
/// `hot-path-alloc` rule: the primary scheduling methods, the switch
/// models' slot step, and the serve engine's windowed stepping loop.
const HOT_FNS: [&str; 4] = [
    "schedule_into",
    "schedule_weighted_into",
    "step",
    "step_window",
];

/// Method names whose body draws count as RNG draws under `rng-stream`.
/// `next` covers the bulk samplers' generic word source (`FnMut() -> u32`);
/// the scoped files use no iterator by that name.
const DRAW_FNS: [&str; 9] = [
    "next_u32",
    "next_u64",
    "fill_bytes",
    "gen_bool",
    "gen_range",
    "gen",
    "sample",
    "random",
    "next",
];

/// Combinators whose argument closure runs conditionally: a draw inside
/// `cond.then(|| rng.next_u32())` is branch-dependent exactly like a draw
/// inside an `if` arm.
const LAZY_COMBINATORS: [&str; 8] = [
    "then",
    "then_some",
    "map_or",
    "map_or_else",
    "unwrap_or_else",
    "or_else",
    "filter",
    "get_or_insert_with",
];

/// One lexed + parsed source file, ready for linting. Parsing once and
/// linting per-crate lets the `hot-path-alloc` rule follow calls across
/// files of the same crate.
pub struct SourceFile {
    /// Path label used in findings.
    pub label: String,
    toks: Vec<lex::Spanned>,
    parsed: ParsedFile,
    tags: Vec<AllowTag>,
}

impl SourceFile {
    /// Lexes and parses `source`, labeling future findings with `label`.
    pub fn parse(label: &str, source: &str) -> Self {
        let (toks, comments) = lex::tokenize(source);
        let parsed = parse::parse(&toks);
        let tags = allow_tags(&comments);
        SourceFile {
            label: label.to_string(),
            toks,
            parsed,
            tags,
        }
    }

    /// The file's out-of-line `mod name;` declarations with their cfg
    /// gates — the binary uses these to skip a child file whose parent
    /// declares it behind `#[cfg(test)]`.
    pub fn mod_decls(&self) -> &[parse::ModDecl] {
        &self.parsed.mod_decls
    }

    /// Line-scoped allowlist check: a justified tag on the same or the
    /// preceding line.
    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.tags
            .iter()
            .any(|t| t.justified && t.rule == rule && (t.line == line || t.line + 1 == line))
    }

    /// Fn-scoped allowlist check for `rng-stream`: a justified tag
    /// anywhere inside the fn covers the whole body, and a tag up to two
    /// lines above the `fn` (room for doc/attr lines) covers it if this
    /// fn is the *first* one after the tag — so adjacent one-line fns
    /// don't inherit each other's contracts.
    fn fn_allowed(&self, rule: &str, f: &FnItem) -> bool {
        self.tags.iter().any(|t| {
            if !t.justified || t.rule != rule {
                return false;
            }
            if t.line >= f.line && t.line <= f.end_line {
                return true;
            }
            t.line < f.line
                && f.line - t.line <= 2
                && !self
                    .parsed
                    .fns
                    .iter()
                    .any(|g| g.line > t.line && g.line < f.line)
        })
    }

    /// Body spans of fns nested strictly inside `outer` (scanned on their
    /// own; skipped when scanning the outer body).
    fn nested_fn_spans(&self, outer: (usize, usize)) -> Vec<(usize, usize)> {
        self.parsed
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(a, b)| a > outer.0 && b < outer.1)
            .collect()
    }
}

/// Lints one file's source text under `rules`, labeling findings with
/// `path_label`. Convenience wrapper over [`lint_files`] for a single
/// file; the call-graph rule then only sees that file's own fns.
pub fn lint_source(path_label: &str, source: &str, rules: &RuleSet) -> Vec<Finding> {
    lint_files(&[(SourceFile::parse(path_label, source), *rules)])
}

/// Lints a group of files (typically one crate). Per-file rules run on
/// each file; the call-graph `hot-path-alloc` pass then runs across the
/// whole group, so a helper extracted into a sibling module is still
/// reachable from its hot caller.
pub fn lint_files(files: &[(SourceFile, RuleSet)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (sf, rules) in files {
        file_pass(sf, rules, &mut findings);
    }
    hot_path_pass(files, &mut findings);
    findings
}

/// All per-file rules: tag validation, forbid-unsafe, the flat content
/// scan (hash/wall-clock/no-panic/cast), and the per-fn
/// rng-stream scan.
fn file_pass(sf: &SourceFile, rules: &RuleSet, findings: &mut Vec<Finding>) {
    // Malformed tags are findings themselves — a silent bad tag would
    // suppress nothing while looking like it does. Only checked where some
    // content rule applies: files outside every content scope (like this
    // crate's own docs) may mention tags illustratively.
    let content_rules = rules.hash_collections
        || rules.wall_clock
        || rules.no_panic
        || rules.truncating_cast
        || rules.hot_path_alloc
        || rules.rng_stream;
    if content_rules {
        for t in &sf.tags {
            if !rules::ALL.contains(&t.rule.as_str()) || !t.justified {
                findings.push(Finding {
                    file: sf.label.clone(),
                    line: t.line,
                    rule: rules::BAD_ALLOW_TAG,
                    excerpt: if t.justified {
                        format!("unknown rule `{}` in lint:allow tag", t.rule)
                    } else {
                        format!("lint:allow({}) tag lacks a justification", t.rule)
                    },
                });
            }
        }
    }

    if rules.forbid_unsafe {
        let want: Vec<Tok> = [
            Tok::Punct('#'),
            Tok::Punct('!'),
            Tok::Punct('['),
            Tok::Ident("forbid".into()),
            Tok::Punct('('),
            Tok::Ident("unsafe_code".into()),
            Tok::Punct(')'),
            Tok::Punct(']'),
        ]
        .into();
        let present = sf
            .toks
            .windows(want.len())
            .any(|w| w.iter().map(|s| &s.tok).eq(want.iter()));
        if !present && !sf.allowed(rules::FORBID_UNSAFE, 1) {
            findings.push(Finding {
                file: sf.label.clone(),
                line: 1,
                rule: rules::FORBID_UNSAFE,
                excerpt: "crate root lacks #![forbid(unsafe_code)]".to_string(),
            });
        }
    }

    // Flat content scan with test-gated spans skipped.
    for (idx, s) in sf.toks.iter().enumerate() {
        if sf.parsed.in_test(idx) {
            continue;
        }
        let line = s.line;
        let next = sf.toks.get(idx + 1).map(|s| &s.tok);
        let mut push = |rule: &'static str, excerpt: String| {
            if !sf.allowed(rule, line) {
                findings.push(Finding {
                    file: sf.label.clone(),
                    line,
                    rule,
                    excerpt,
                });
            }
        };
        if let Tok::Ident(id) = &s.tok {
            match id.as_str() {
                "HashMap" | "HashSet" if rules.hash_collections => {
                    push(rules::HASH_COLLECTIONS, format!("use of {id}"));
                }
                "SystemTime" | "Instant" if rules.wall_clock => {
                    push(rules::WALL_CLOCK, format!("use of {id}"));
                }
                "unwrap" | "expect" if rules.no_panic && next == Some(&Tok::Punct('(')) => {
                    push(rules::NO_PANIC, format!("call to {id}()"));
                }
                "panic" if rules.no_panic && next == Some(&Tok::Punct('!')) => {
                    push(rules::NO_PANIC, "panic! invocation".to_string());
                }
                "as" if rules.truncating_cast => {
                    if let Some(Tok::Ident(ty)) = next {
                        if NARROW_INTS.contains(&ty.as_str()) {
                            push(rules::TRUNCATING_CAST, format!("truncating cast `as {ty}`"));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    if rules.rng_stream {
        rng_stream_pass(sf, findings);
    }
}

/// The `rng-stream` rule: for every non-test fn, walk the body tracking
/// which scopes are conditional (opened by `if`/`else`/`match`/`while`/
/// `loop`, or a lazy combinator's argument list) and flag any RNG draw at
/// conditional depth > 0. `for` bodies are deliberately *not* conditional:
/// iterating a data-independent range and drawing once per element is the
/// documented bulk pattern. Draws in an `if` condition or `match`
/// scrutinee execute unconditionally and are correctly not flagged.
fn rng_stream_pass(sf: &SourceFile, findings: &mut Vec<Finding>) {
    for f in &sf.parsed.fns {
        if f.gates.test {
            continue;
        }
        let Some(body) = f.body else { continue };
        if sf.fn_allowed(rules::RNG_STREAM, f) {
            continue;
        }
        let nested = sf.nested_fn_spans(body);
        let mut brace_cond: Vec<bool> = Vec::new();
        let mut paren_cond: Vec<bool> = Vec::new();
        let mut cond_level = 0usize;
        let mut pending_cond = false;
        let mut pending_comb = false;
        let mut idx = body.0 + 1;
        while idx < body.1 {
            if let Some(&(_, b)) = nested.iter().find(|&&(a, _)| a == idx) {
                idx = b + 1;
                continue;
            }
            let line = sf.toks[idx].line;
            let next = sf.toks.get(idx + 1).map(|s| &s.tok);
            let prev_is_fn = idx > 0 && matches!(&sf.toks[idx - 1].tok, Tok::Ident(p) if p == "fn");
            match &sf.toks[idx].tok {
                Tok::Ident(id)
                    if matches!(id.as_str(), "if" | "else" | "match" | "while" | "loop") =>
                {
                    pending_cond = true;
                }
                Tok::Ident(id)
                    if DRAW_FNS.contains(&id.as_str())
                        && next == Some(&Tok::Punct('('))
                        && !prev_is_fn
                        && cond_level > 0
                        && !sf.allowed(rules::RNG_STREAM, line) =>
                {
                    findings.push(Finding {
                        file: sf.label.clone(),
                        line,
                        rule: rules::RNG_STREAM,
                        excerpt: format!(
                            "branch-dependent RNG draw `{id}` in `{}` — document the \
                             draw-count contract with lint:allow(rng-stream): ...",
                            f.name
                        ),
                    });
                }
                Tok::Ident(id)
                    if LAZY_COMBINATORS.contains(&id.as_str())
                        && next == Some(&Tok::Punct('(')) =>
                {
                    pending_comb = true;
                }
                Tok::Punct('{') => {
                    brace_cond.push(pending_cond);
                    if pending_cond {
                        cond_level += 1;
                    }
                    pending_cond = false;
                }
                Tok::Punct('}') => {
                    let was_cond = brace_cond.pop() == Some(true);
                    if was_cond {
                        cond_level = cond_level.saturating_sub(1);
                    }
                }
                Tok::Punct('(') => {
                    paren_cond.push(pending_comb);
                    if pending_comb {
                        cond_level += 1;
                    }
                    pending_comb = false;
                }
                Tok::Punct(')') => {
                    let was_comb = paren_cond.pop() == Some(true);
                    if was_comb {
                        cond_level = cond_level.saturating_sub(1);
                    }
                }
                _ => {}
            }
            idx += 1;
        }
    }
}

/// The call-graph `hot-path-alloc` pass: every fn named in [`HOT_FNS`]
/// (with a body, not test-gated, in a file where the rule is enabled) is
/// a root. Its own body is scanned for allocation patterns, and every
/// same-group fn it calls — `helper(...)`, `self.helper(...)` or
/// `Type::helper(...)` — is scanned one level deep, closing the "extract
/// a helper, hide the allocation" loophole. Callees that are themselves
/// hot fns are skipped (they are roots in their own right).
fn hot_path_pass(files: &[(SourceFile, RuleSet)], findings: &mut Vec<Finding>) {
    let enabled: Vec<&SourceFile> = files
        .iter()
        .filter(|(_, r)| r.hot_path_alloc)
        .map(|(sf, _)| sf)
        .collect();
    if enabled.is_empty() {
        return;
    }
    // (file label, line) pairs already reported, so a helper shared by two
    // hot callers (or called twice) is flagged once.
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for root_sf in &enabled {
        for root in &root_sf.parsed.fns {
            if !HOT_FNS.contains(&root.name.as_str()) || root.gates.test {
                continue;
            }
            let Some(body) = root.body else { continue };
            alloc_scan(root_sf, body, None, &mut seen, findings);
            for (qual, cname) in callees(root_sf, body) {
                if HOT_FNS.contains(&cname.as_str()) {
                    continue;
                }
                // `Self::helper(...)` resolves to the root's own impl type.
                let qual = match qual.as_deref() {
                    Some("Self") => root.owner.clone(),
                    _ => qual,
                };
                for callee_sf in &enabled {
                    for g in &callee_sf.parsed.fns {
                        if g.name != cname || g.gates.test {
                            continue;
                        }
                        if let Some(q) = &qual {
                            if g.owner.as_deref() != Some(q.as_str()) {
                                continue;
                            }
                        }
                        let Some(gbody) = g.body else { continue };
                        alloc_scan(
                            callee_sf,
                            gbody,
                            Some((&g.name, &root.name)),
                            &mut seen,
                            findings,
                        );
                    }
                }
            }
        }
    }
}

/// Collects `(qualifier, name)` call targets from a body: an ident
/// followed by `(` that is not a definition (`fn name(`), with
/// `Type::name(` captured as qualified.
fn callees(sf: &SourceFile, body: (usize, usize)) -> Vec<(Option<String>, String)> {
    let nested = sf.nested_fn_spans(body);
    let mut out = Vec::new();
    let mut idx = body.0 + 1;
    while idx < body.1 {
        if let Some(&(_, b)) = nested.iter().find(|&&(a, _)| a == idx) {
            idx = b + 1;
            continue;
        }
        if let Tok::Ident(name) = &sf.toks[idx].tok {
            let next_is_paren = sf.toks.get(idx + 1).map(|s| &s.tok) == Some(&Tok::Punct('('));
            let prev_is_fn = idx > 0 && matches!(&sf.toks[idx - 1].tok, Tok::Ident(p) if p == "fn");
            if next_is_paren && !prev_is_fn {
                let qual = if idx >= 3
                    && sf.toks[idx - 1].tok == Tok::Punct(':')
                    && sf.toks[idx - 2].tok == Tok::Punct(':')
                {
                    match &sf.toks[idx - 3].tok {
                        Tok::Ident(owner) => Some(owner.clone()),
                        _ => None,
                    }
                } else {
                    None
                };
                out.push((qual, name.clone()));
            }
        }
        idx += 1;
    }
    out
}

/// Scans one fn body for the allocation patterns (`Matching::new`,
/// `vec![...]`, `with_capacity`). `ctx` is `Some((callee, root))` when the
/// body is a callee reached from a hot root, which changes the excerpt to
/// name the call chain.
fn alloc_scan(
    sf: &SourceFile,
    body: (usize, usize),
    ctx: Option<(&str, &str)>,
    seen: &mut BTreeSet<(String, usize)>,
    findings: &mut Vec<Finding>,
) {
    let nested = sf.nested_fn_spans(body);
    let mut idx = body.0 + 1;
    while idx < body.1 {
        if let Some(&(_, b)) = nested.iter().find(|&&(a, _)| a == idx) {
            idx = b + 1;
            continue;
        }
        let line = sf.toks[idx].line;
        let next = sf.toks.get(idx + 1).map(|s| &s.tok);
        let pattern: Option<&str> = match &sf.toks[idx].tok {
            Tok::Ident(id) if id == "Matching" => {
                let m_new = sf.toks.get(idx + 1).map(|s| &s.tok) == Some(&Tok::Punct(':'))
                    && sf.toks.get(idx + 2).map(|s| &s.tok) == Some(&Tok::Punct(':'))
                    && matches!(sf.toks.get(idx + 3).map(|s| &s.tok),
                        Some(Tok::Ident(m)) if m == "new");
                m_new.then_some("Matching::new")
            }
            Tok::Ident(id) if id == "vec" && next == Some(&Tok::Punct('!')) => {
                Some("vec! allocation")
            }
            Tok::Ident(id) if id == "with_capacity" => Some("with_capacity allocation"),
            _ => None,
        };
        if let Some(pat) = pattern {
            if !sf.allowed(rules::HOT_PATH_ALLOC, line) && seen.insert((sf.label.clone(), line)) {
                let excerpt = match ctx {
                    None => format!("{pat} in a hot function"),
                    Some((callee, root)) => {
                        format!("{pat} in `{callee}` called from hot `{root}`")
                    }
                };
                findings.push(Finding {
                    file: sf.label.clone(),
                    line,
                    rule: rules::HOT_PATH_ALLOC,
                    excerpt,
                });
            }
        }
        idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_all(src: &str) -> Vec<Finding> {
        lint_source("t.rs", src, &RuleSet::all())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const PREAMBLE: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn clean_source_passes() {
        let src = format!("{PREAMBLE}pub fn f(x: usize) -> usize {{ x + 1 }}\n");
        assert!(lint_all(&src).is_empty());
    }

    #[test]
    fn hash_collections_flagged() {
        let src = format!("{PREAMBLE}use std::collections::HashMap;\n");
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::HASH_COLLECTIONS]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn words_in_comments_and_strings_ignored() {
        let src = format!(
            "{PREAMBLE}// HashMap unwrap() panic! Instant as u8\n\
             /* nested /* HashSet */ still comment */\n\
             const S: &str = \"HashMap unwrap() as u16\";\n\
             const R: &str = r#\"Instant \" panic!\"#;\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn no_panic_catches_calls_but_not_lookalikes() {
        let src = format!(
            "{PREAMBLE}fn f(o: Option<u64>) -> u64 {{\n\
             o.unwrap_or(3); o.expect_none_hypothetical; o.unwrap()\n\
             }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::NO_PANIC]);
        assert!(f[0].excerpt.contains("unwrap()"));
    }

    #[test]
    fn panic_macro_flagged() {
        let src = format!("{PREAMBLE}fn f() {{ panic!(\"boom\") }}\n");
        assert_eq!(rules_of(&lint_all(&src)), [rules::NO_PANIC]);
    }

    #[test]
    fn truncating_cast_flagged_narrow_only() {
        let src = format!(
            "{PREAMBLE}fn f(x: usize) {{ let _ = x as u32; let _ = x as u64; let _ = x as f64; }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::TRUNCATING_CAST]);
        assert!(f[0].excerpt.contains("as u32"));
    }

    #[test]
    fn numeric_suffixes_are_not_casts() {
        let src = format!("{PREAMBLE}const X: u32 = 0u32; const Y: u8 = 7u8;\n");
        assert!(lint_all(&src).is_empty());
    }

    #[test]
    fn wall_clock_flagged() {
        let src = format!("{PREAMBLE}use std::time::Instant;\n");
        assert_eq!(rules_of(&lint_all(&src)), [rules::WALL_CLOCK]);
    }

    #[test]
    fn missing_forbid_unsafe_flagged() {
        let f = lint_all("pub fn f() {}\n");
        assert_eq!(rules_of(&f), [rules::FORBID_UNSAFE]);
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = format!(
            "{PREAMBLE}#[cfg(test)]\nmod tests {{\n  #[test]\n  fn t() {{ Some(1).unwrap(); panic!(); }}\n}}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn test_fn_with_extra_attrs_skipped() {
        let src = format!(
            "{PREAMBLE}#[test]\n#[should_panic(expected = \"x\")]\nfn t() {{ Some(1).unwrap() }}\n\
             fn live() {{ Some(1).unwrap(); }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::NO_PANIC]);
        assert_eq!(f[0].line, 5, "only the non-test fn fires");
    }

    #[test]
    fn cfg_attr_test_does_not_gate() {
        // `cfg_attr(test, ...)` only adds an attribute under test; the item
        // itself is live in production and must stay linted. The old
        // line-scanner got this wrong.
        let src = format!(
            "{PREAMBLE}#[cfg_attr(test, allow(dead_code))]\nfn live() {{ Some(1).unwrap(); }}\n"
        );
        assert_eq!(rules_of(&lint_all(&src)), [rules::NO_PANIC]);
    }

    #[test]
    fn allow_tag_suppresses_same_and_next_line() {
        let trailing = format!(
            "{PREAMBLE}fn f() {{ Some(1).unwrap(); }} // lint:allow(no-panic): invariant documented here\n"
        );
        assert!(lint_all(&trailing).is_empty());
        let above = format!(
            "{PREAMBLE}// lint:allow(truncating-cast): ids fit in u8 by construction\nfn f(x: usize) -> u8 {{ x as u8 }}\n"
        );
        assert!(lint_all(&above).is_empty());
    }

    #[test]
    fn allow_tag_does_not_leak_past_next_line() {
        let src = format!(
            "{PREAMBLE}// lint:allow(no-panic): only covers the next line\nfn f() {{}}\nfn g() {{ Some(1).unwrap(); }}\n"
        );
        assert_eq!(rules_of(&lint_all(&src)), [rules::NO_PANIC]);
    }

    #[test]
    fn unjustified_or_unknown_allow_tags_are_findings() {
        let src = format!("{PREAMBLE}// lint:allow(no-panic):\nfn f() {{}}\n");
        assert_eq!(rules_of(&lint_all(&src)), [rules::BAD_ALLOW_TAG]);
        let src = format!("{PREAMBLE}// lint:allow(made-up-rule): because\nfn f() {{}}\n");
        assert_eq!(rules_of(&lint_all(&src)), [rules::BAD_ALLOW_TAG]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = format!(
            "{PREAMBLE}fn f<'a>(x: &'a [usize]) -> impl Iterator<Item = usize> + 'a {{\n\
             x.iter().map(|v| *v as u32 as usize)\n}}\n"
        );
        // The cast after the lifetimes must still be seen.
        assert_eq!(rules_of(&lint_all(&src)), [rules::TRUNCATING_CAST]);
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let src = format!(
            "{PREAMBLE}fn f(c: char) -> bool {{ c == '\\'' || c == '(' || c == 'x' }}\n\
             fn g() {{ Some(1).unwrap(); }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::NO_PANIC]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn scoped_rulesets_only_fire_enabled_rules() {
        let src = "use std::collections::HashMap;\nfn f() { Some(1).unwrap(); }\n";
        let only_hash = RuleSet {
            hash_collections: true,
            ..RuleSet::default()
        };
        let f = lint_source("t.rs", src, &only_hash);
        assert_eq!(rules_of(&f), [rules::HASH_COLLECTIONS]);
    }

    #[test]
    fn byte_and_raw_literals_skipped() {
        let src = format!(
            "{PREAMBLE}const A: &[u8] = b\"HashMap\";\nconst B: u8 = b'H';\nconst C: &str = r\"unwrap()\";\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    // ---- hot-path-alloc ----

    #[test]
    fn hot_path_alloc_flags_allocation_in_hot_fns() {
        let src = format!(
            "{PREAMBLE}fn schedule_into(&mut self, r: &R, out: &mut Matching) {{\n\
             let m = Matching::new(8);\n\
             let v = vec![0; 8];\n\
             let w = Vec::with_capacity(8);\n\
             }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(
            rules_of(&f),
            [
                rules::HOT_PATH_ALLOC,
                rules::HOT_PATH_ALLOC,
                rules::HOT_PATH_ALLOC
            ]
        );
        assert_eq!(f[0].line, 3);
        assert!(f[0].excerpt.contains("Matching::new"));
        assert!(f[1].excerpt.contains("vec!"));
        assert!(f[2].excerpt.contains("with_capacity"));
    }

    #[test]
    fn hot_path_alloc_covers_step_and_weighted_into() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ let v = vec![1]; }}\n\
             fn schedule_weighted_into(&mut self) {{ let m = Matching::new(4); }}\n"
        );
        assert_eq!(
            rules_of(&lint_all(&src)),
            [rules::HOT_PATH_ALLOC, rules::HOT_PATH_ALLOC]
        );
    }

    #[test]
    fn hot_path_alloc_covers_step_window() {
        let src =
            format!("{PREAMBLE}fn step_window(&mut self, n: u64) {{ let v = vec![0; 8]; }}\n");
        assert_eq!(rules_of(&lint_all(&src)), [rules::HOT_PATH_ALLOC]);
        // The serve engine's windowed loop is a root, so its same-crate
        // callees are scanned one level deep too.
        let src2 = format!(
            "{PREAMBLE}fn step_window(&mut self, n: u64) {{ self.sample(); }}\n\
             fn sample(&mut self) {{ let h = Vec::with_capacity(64); }}\n"
        );
        let f = lint_all(&src2);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
        assert!(
            f[0].excerpt
                .contains("`sample` called from hot `step_window`"),
            "{}",
            f[0].excerpt
        );
    }

    #[test]
    fn hot_path_alloc_ignores_cold_fns_and_trait_decls() {
        let src = format!(
            "{PREAMBLE}trait S {{ fn schedule_into(&mut self, out: &mut Matching); }}\n\
             fn new(n: usize) -> Vec<usize> {{ Vec::with_capacity(n) }}\n\
             fn schedule(&mut self) -> Matching {{ Matching::new(8) }}\n\
             fn after_the_decl() {{ let v = vec![0]; }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn hot_path_alloc_scope_ends_with_the_body() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ if x {{ f(); }} }}\n\
             fn cold() {{ let v = vec![0]; }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn hot_path_alloc_allow_tag_works() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{\n\
             // lint:allow(hot-path-alloc): one-time lazy growth, amortized to zero\n\
             let v = vec![0; 8];\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn hot_path_alloc_follows_bare_calls_one_level() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ self.refill(); }}\n\
             fn refill(&mut self) {{ self.buf = vec![0; self.n]; }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
        assert!(
            f[0].excerpt.contains("`refill` called from hot `step`"),
            "{}",
            f[0].excerpt
        );
    }

    #[test]
    fn hot_path_alloc_follows_qualified_calls_with_owner_match() {
        let src = format!(
            "{PREAMBLE}impl A {{ fn grow(&mut self) {{ let v = Vec::with_capacity(9); }} }}\n\
             impl B {{ fn grow(&mut self) {{ let x = 1; }} }}\n\
             fn step(&mut self) {{ B::grow(); }}\n"
        );
        // Only B::grow is called; A::grow's allocation must not fire.
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
        let src2 = format!(
            "{PREAMBLE}impl A {{ fn grow(&mut self) {{ let v = Vec::with_capacity(9); }} }}\n\
             fn step(&mut self) {{ A::grow(); }}\n"
        );
        let f = lint_all(&src2);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
        assert!(f[0].excerpt.contains("`grow` called from hot `step`"));
    }

    #[test]
    fn hot_path_alloc_cross_file_same_group() {
        let hot = SourceFile::parse(
            "a.rs",
            "#![forbid(unsafe_code)]\nfn schedule_into(&mut self) { helper(); }\n",
        );
        let cold = SourceFile::parse(
            "b.rs",
            "#![forbid(unsafe_code)]\nfn helper() { let v = vec![0; 4]; }\n",
        );
        let f = lint_files(&[(hot, RuleSet::all()), (cold, RuleSet::all())]);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
        assert_eq!(f[0].file, "b.rs");
        assert!(f[0]
            .excerpt
            .contains("`helper` called from hot `schedule_into`"));
    }

    #[test]
    fn hot_path_alloc_uncalled_helper_not_flagged() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ self.tick(); }}\n\
             fn tick(&mut self) {{}}\n\
             fn resize(&mut self) {{ let v = vec![0; 4]; }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn hot_path_alloc_callee_tag_suppresses() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ self.spill(); }}\n\
             fn spill(&mut self) {{\n\
             // lint:allow(hot-path-alloc): cold error path, runs at most once per run\n\
             let v = vec![0; 4];\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn hot_path_alloc_shared_helper_reported_once() {
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ self.grow(); }}\n\
             fn schedule_into(&mut self) {{ self.grow(); }}\n\
             fn grow(&mut self) {{ let v = vec![0; 4]; }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
    }

    #[test]
    fn hot_path_alloc_skips_hot_callees_as_callees() {
        // `step` calling `schedule_into` must not double-report: the callee
        // is a root itself.
        let src = format!(
            "{PREAMBLE}fn step(&mut self) {{ self.schedule_into(); }}\n\
             fn schedule_into(&mut self) {{ let v = vec![0; 4]; }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::HOT_PATH_ALLOC]);
        assert!(f[0].excerpt.contains("in a hot function"));
    }

    // ---- rng-stream ----

    #[test]
    fn rng_stream_flags_draw_in_if_arm() {
        let src = format!(
            "{PREAMBLE}fn arrival(&mut self, rng: &mut SimRng) -> Option<usize> {{\n\
             if self.active {{ Some(rng.gen_range(0..self.n)) }} else {{ None }}\n\
             }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::RNG_STREAM]);
        assert!(f[0].excerpt.contains("gen_range"));
        assert!(f[0].excerpt.contains("`arrival`"));
    }

    #[test]
    fn rng_stream_flags_draw_in_match_arm() {
        let src = format!(
            "{PREAMBLE}fn sample(&mut self, rng: &mut SimRng) -> usize {{\n\
             match self.mode {{ Mode::U => rng.gen_range(0..4), Mode::C => 0 }}\n\
             }}\n"
        );
        assert_eq!(rules_of(&lint_all(&src)), [rules::RNG_STREAM]);
    }

    #[test]
    fn rng_stream_flags_draw_in_lazy_combinator() {
        let src = format!(
            "{PREAMBLE}fn arrival(&mut self, rng: &mut SimRng) -> Option<usize> {{\n\
             self.gate(rng).then(|| self.dest.sample(rng))\n\
             }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::RNG_STREAM]);
        assert!(f[0].excerpt.contains("sample"));
    }

    #[test]
    fn rng_stream_flags_draw_in_rejection_loop() {
        let src = format!(
            "{PREAMBLE}fn draw(&self, rng: &mut R) -> u32 {{\n\
             loop {{ let x = rng.next_u32(); if x < self.zone {{ return x; }} }}\n\
             }}\n"
        );
        assert_eq!(rules_of(&lint_all(&src)), [rules::RNG_STREAM]);
    }

    #[test]
    fn rng_stream_unconditional_draws_pass() {
        let src = format!(
            "{PREAMBLE}fn sample(&mut self, rng: &mut SimRng) -> usize {{\n\
             let raw = rng.next_u32();\n\
             let d = rng.gen_range(0..self.n);\n\
             d + raw as usize\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn rng_stream_condition_and_scrutinee_draws_pass() {
        // A draw *in* the condition or scrutinee executes unconditionally.
        let src = format!(
            "{PREAMBLE}fn arrival(&mut self, rng: &mut SimRng) -> usize {{\n\
             if rng.gen_bool(self.p) {{ self.hits += 1; }}\n\
             match rng.gen_range(0..4) {{ 0 => 1, _ => 2 }}\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn rng_stream_for_loop_draws_pass() {
        // One draw per element of a data-independent range is the
        // documented bulk pattern, not a branch dependence.
        let src = format!(
            "{PREAMBLE}fn fill(&mut self, rng: &mut SimRng, out: &mut [u32]) {{\n\
             for slot in out.iter_mut() {{ *slot = rng.next_u32(); }}\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn rng_stream_fn_level_tag_covers_whole_body() {
        let src = format!(
            "{PREAMBLE}// lint:allow(rng-stream): draws 1 gate word + 1 dest word per arrival\n\
             fn arrival(&mut self, rng: &mut SimRng) -> Option<usize> {{\n\
             if self.gate(rng) {{ Some(rng.gen_range(0..self.n)) }} else {{ None }}\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn rng_stream_tag_on_one_fn_does_not_cover_the_next() {
        let src = format!(
            "{PREAMBLE}// lint:allow(rng-stream): draws 0 or 1 dest words per slot\n\
             fn a(&mut self, rng: &mut R) {{ if x {{ rng.gen_range(0..2); }} }}\n\
             fn b(&mut self, rng: &mut R) {{ if x {{ rng.gen_range(0..2); }} }}\n"
        );
        let f = lint_all(&src);
        assert_eq!(rules_of(&f), [rules::RNG_STREAM]);
        assert!(f[0].excerpt.contains("`b`"));
    }

    #[test]
    fn rng_stream_test_fns_are_skipped() {
        let src = format!(
            "{PREAMBLE}#[cfg(test)]\nmod tests {{\n\
             fn t(rng: &mut R) {{ if x {{ rng.gen_range(0..2); }} }}\n\
             }}\n"
        );
        assert!(lint_all(&src).is_empty(), "{:?}", lint_all(&src));
    }

    #[test]
    fn finding_display_is_grep_friendly() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: rules::NO_PANIC,
            excerpt: "call to unwrap()".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: [no-panic] call to unwrap()"
        );
    }
}
