//! The `lcf-lint` binary: walks the workspace and enforces the repo's
//! determinism and robustness rules (see the `lcf_lint` crate docs).
//!
//! Usage:
//!
//! ```text
//! cargo run -p lcf-lint                    # lint the whole workspace (scoped rules)
//! cargo run -p lcf-lint -- FILE...         # lint specific files with ALL rules
//! cargo run -p lcf-lint -- --format github # emit ::error annotations for CI
//! cargo run -p lcf-lint -- --self-test
//! ```
//!
//! Exits non-zero iff any finding is reported (or the self-test fails).
//!
//! Workspace mode parses every file first, then lints **per crate**, so
//! the call-graph `hot-path-alloc` rule can follow `schedule_into` →
//! helper calls across sibling modules. Parent-file `mod` declarations
//! are honored: a module declared behind `#[cfg(test)]` is skipped
//! entirely.

#![forbid(unsafe_code)]

use lcf_lint::{lint_files, lint_source, rules, Finding, RuleSet, SourceFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seeded-violation fixture, embedded so `--self-test` needs no path
/// guessing. At least one violation per rule family, plus correctly
/// tagged/gated constructs that must NOT fire.
const SELF_TEST_FIXTURE: &str = include_str!("../fixtures/seeded.rs");

/// Findings the seeded fixture must produce, all rules together.
const SELF_TEST_FINDINGS: usize = 12;

/// Directories never linted: build output, VCS metadata, and test-only
/// trees (tests/, benches/, examples/, fixtures/ — the rules target
/// library and binary code).
const SKIP_DIRS: [&str; 6] = ["target", ".git", "fixtures", "tests", "benches", "examples"];

/// Output format for findings.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// `file:line: [rule] excerpt` lines.
    Plain,
    /// GitHub Actions `::error file=...,line=...` annotations, so findings
    /// surface inline on PRs.
    Github,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Plain;
    let mut files: Vec<String> = Vec::new();
    let mut self_test_mode = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self-test" => self_test_mode = true,
            "--format" => match it.next().as_deref() {
                Some("github") => format = Format::Github,
                Some("plain") => format = Format::Plain,
                other => {
                    eprintln!("lcf-lint: unknown format {other:?} (expected github|plain)");
                    std::process::exit(2);
                }
            },
            _ => files.push(a),
        }
    }
    let code = if self_test_mode {
        self_test()
    } else if files.is_empty() {
        lint_workspace(format)
    } else {
        lint_file_args(&files, format)
    };
    std::process::exit(code);
}

/// Lints the whole workspace with path-scoped rules. Returns the exit code.
fn lint_workspace(format: Format) -> i32 {
    let root = workspace_root();
    let mut paths = Vec::new();
    collect_rs_files(&root, &mut paths);
    paths.sort();

    // Parse every in-scope file up front.
    let mut findings = Vec::new();
    let mut parsed: Vec<(SourceFile, RuleSet)> = Vec::new();
    for path in &paths {
        let label = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string()
            .replace('\\', "/");
        let ruleset = scope_for(&label);
        if ruleset.is_empty() {
            continue;
        }
        match std::fs::read_to_string(path) {
            Ok(src) => parsed.push((SourceFile::parse(&label, &src), ruleset)),
            Err(e) => findings.push(Finding {
                file: label,
                line: 0,
                rule: "io-error",
                excerpt: e.to_string(),
            }),
        }
    }

    // Honor test gates on parent-file `mod` declarations: a child file
    // whose declaration is test-gated is test-only code and skipped
    // entirely.
    let mut test_gated: Vec<String> = Vec::new();
    for (sf, _) in &parsed {
        let dir = match sf.label.rsplit_once('/') {
            Some((d, name)) => {
                // `foo.rs` declares children in `foo/`; `lib.rs`, `main.rs`
                // and `mod.rs` declare children in their own directory.
                if matches!(name, "lib.rs" | "main.rs" | "mod.rs") {
                    d.to_string()
                } else {
                    format!("{d}/{}", name.trim_end_matches(".rs"))
                }
            }
            None => String::new(),
        };
        for m in sf.mod_decls() {
            for child in [
                format!("{dir}/{}.rs", m.name),
                format!("{dir}/{}/mod.rs", m.name),
            ] {
                if m.gates.test {
                    test_gated.push(child);
                }
            }
        }
    }
    parsed.retain(|(sf, _)| !test_gated.contains(&sf.label));

    // Lint per crate so the call-graph pass sees each crate whole.
    let mut groups: BTreeMap<String, Vec<(SourceFile, RuleSet)>> = BTreeMap::new();
    for (sf, ruleset) in parsed {
        groups
            .entry(crate_key(&sf.label))
            .or_default()
            .push((sf, ruleset));
    }
    let mut checked = 0usize;
    for group in groups.values() {
        checked += group.len();
        findings.extend(lint_files(group));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report(checked, &findings, format)
}

/// The crate a workspace-relative path belongs to (its top two path
/// components), the grouping unit for the call-graph pass.
fn crate_key(label: &str) -> String {
    let mut parts = label.split('/');
    match (parts.next(), parts.next()) {
        (Some(a), Some(b)) if b.contains('.') => a.to_string(),
        (Some(a), Some(b)) => format!("{a}/{b}"),
        (Some(a), None) => a.to_string(),
        _ => String::new(),
    }
}

/// Lints explicitly named files with every rule enabled.
fn lint_file_args(paths: &[String], format: Format) -> i32 {
    let mut findings = Vec::new();
    for p in paths {
        match std::fs::read_to_string(p) {
            Ok(src) => findings.extend(lint_source(p, &src, &RuleSet::all())),
            Err(e) => findings.push(Finding {
                file: p.clone(),
                line: 0,
                rule: "io-error",
                excerpt: e.to_string(),
            }),
        }
    }
    report(paths.len(), &findings, format)
}

/// Prints findings (if any) and the summary line; returns the exit code.
fn report(checked: usize, findings: &[Finding], format: Format) -> i32 {
    for f in findings {
        match format {
            Format::Plain => println!("{f}"),
            Format::Github => println!(
                "::error file={},line={},title=lcf-lint {}::{}",
                f.file, f.line, f.rule, f.excerpt
            ),
        }
    }
    if findings.is_empty() {
        println!("lcf-lint: {checked} files checked, no findings");
        0
    } else {
        println!(
            "lcf-lint: {} finding(s) in {checked} checked files",
            findings.len()
        );
        1
    }
}

/// Verifies the analyzer against the embedded seeded fixture: every rule
/// family must fire at least once, the call-graph rule must report the
/// helper reached *from* a hot fn, `rng-stream` must fire exactly once
/// (proving the tagged negative case is honored), the allowlisted
/// violations must not fire, and the total must match
/// [`SELF_TEST_FINDINGS`].
fn self_test() -> i32 {
    let findings = lint_source("fixtures/seeded.rs", SELF_TEST_FIXTURE, &RuleSet::all());
    let mut failures = Vec::new();
    for rule in rules::ALL {
        if !findings.iter().any(|f| f.rule == rule) {
            failures.push(format!("rule `{rule}` did not fire on the seeded fixture"));
        }
    }
    if findings.iter().any(|f| f.excerpt.contains("as u16")) {
        failures.push("allowlisted `as u16` cast fired despite its lint:allow tag".to_string());
    }
    if findings.iter().any(|f| f.rule == rules::BAD_ALLOW_TAG) {
        failures.push("fixture's allow tags were rejected as malformed".to_string());
    }
    if !findings
        .iter()
        .any(|f| f.rule == rules::HOT_PATH_ALLOC && f.excerpt.contains("called from hot"))
    {
        failures.push(
            "call-graph hot-path-alloc did not reach the helper hidden behind a call".to_string(),
        );
    }
    // Exactly one rng-stream finding: the seeded violation fires, the
    // tagged fn does not.
    let rng = findings
        .iter()
        .filter(|f| f.rule == rules::RNG_STREAM)
        .count();
    if rng != 1 {
        failures.push(format!(
            "rule `{}` fired {rng} times on the fixture (expected exactly 1: \
             the seeded violation, with the tagged case suppressed)",
            rules::RNG_STREAM
        ));
    }
    if findings.len() != SELF_TEST_FINDINGS {
        failures.push(format!(
            "the fixture produced {} findings (expected {SELF_TEST_FINDINGS})",
            findings.len()
        ));
    }
    if failures.is_empty() {
        println!(
            "lcf-lint self-test: ok ({} findings, all {} rules fired, tags honored)",
            findings.len(),
            rules::ALL.len()
        );
        0
    } else {
        for f in &failures {
            println!("lcf-lint self-test FAILED: {f}");
        }
        for f in &findings {
            println!("  (fixture finding: {f})");
        }
        1
    }
}

/// Maps a workspace-relative path to the rules that govern it.
///
/// * `forbid-unsafe` — every crate root (`src/lib.rs` / `src/main.rs` /
///   `src/bin/*.rs`) across `crates/`, `compat/` and the root package.
/// * `hash-collections` — everything deterministic plus the bench/cli
///   harnesses (report ordering must be stable too): core, sim, fabric,
///   clint, telemetry, hw, bench, cli, rng. (The lint crate itself is
///   exempt: its docs and tests quote rule words illustratively.)
/// * `wall-clock` — deterministic simulation code: core, sim, fabric,
///   clint, telemetry, hw, and the bench harness (bench re-measures live
///   in `bench_guard` and carries scoped tags for it; the compat shims
///   are exempt because `criterion` legitimately measures wall-clock
///   time).
/// * `no-panic` — library code of core, sim, telemetry, fabric, clint
///   and hw.
/// * `truncating-cast` — core, sim and fabric, where narrow casts could
///   silently truncate port indices. (clint and hw pack protocol/RTL
///   fields into fixed-width wire formats and are exempt.)
/// * `hot-path-alloc` — core and sim, where `schedule_into` /
///   `schedule_weighted_into` / `step` and everything they call is the
///   per-slot hot path.
/// * `rng-stream` — the RNG crate and the sim traffic generators, which
///   own the frozen keystream contracts.
fn scope_for(label: &str) -> RuleSet {
    let l = label.replace('\\', "/");
    let in_any = |prefixes: &[&str]| prefixes.iter().any(|p| l.starts_with(p));
    let is_crate_root = l.ends_with("src/lib.rs")
        || l.ends_with("src/main.rs")
        || (l.contains("/src/bin/") && l.ends_with(".rs"));
    let deterministic = in_any(&[
        "crates/core/",
        "crates/sim/",
        "crates/fabric/",
        "crates/clint/",
        "crates/telemetry/",
        "crates/hw/",
    ]);
    // The lint crate itself is out of content scope: its docs and tests
    // quote rule words and allow tags illustratively.
    let hash_scope = deterministic || in_any(&["crates/bench/", "crates/cli/", "crates/rng/"]);
    let wall_scope = deterministic || l.starts_with("crates/bench/");
    let no_panic_scope = in_any(&[
        "crates/core/",
        "crates/sim/",
        "crates/telemetry/",
        "crates/fabric/",
        "crates/clint/",
        "crates/hw/",
    ]);
    let cast_scope = in_any(&["crates/core/", "crates/sim/", "crates/fabric/"]);
    let hot_scope = in_any(&["crates/core/", "crates/sim/"]);
    let rng_stream_scope = l.starts_with("crates/rng/") || l == "crates/sim/src/traffic.rs";
    RuleSet {
        hash_collections: hash_scope,
        wall_clock: wall_scope,
        no_panic: no_panic_scope,
        truncating_cast: cast_scope,
        forbid_unsafe: is_crate_root,
        hot_path_alloc: hot_scope,
        rng_stream: rng_stream_scope,
    }
}

/// Finds the workspace root: the manifest dir of this crate is
/// `<root>/crates/lint`, and a run from elsewhere falls back to walking up
/// from the current directory to the first `Cargo.toml` with `[workspace]`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(root) = manifest.parent().and_then(Path::parent) {
        if root.join("Cargo.toml").is_file() {
            return root.to_path_buf();
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let is_ws = std::fs::read_to_string(&manifest)
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false);
            if is_ws {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scope_for;

    /// The reference tier lives on the hot path: `mwm.rs` must sit inside
    /// the `hot-path-alloc` (and the other core-crate) rule scopes, so its
    /// `schedule_weighted_into` is held to the same no-allocation contract
    /// as every production scheduler.
    #[test]
    fn mwm_module_is_in_hot_path_scope() {
        let rules = scope_for("crates/core/src/mwm.rs");
        assert!(rules.hot_path_alloc);
        assert!(rules.no_panic);
        assert!(rules.truncating_cast);
        assert!(rules.hash_collections);
        assert!(rules.wall_clock);
    }

    /// The oracle suite rides along in `crates/core/` path scope (the
    /// hot-path pass itself exempts `#[test]`-gated fns), while the EXT-20
    /// bench bin is outside hot scope but must still forbid `unsafe`.
    #[test]
    fn oracle_tests_and_bench_bins_scope_correctly() {
        assert!(scope_for("crates/core/tests/mwm_oracle.rs").hot_path_alloc);
        let bench = scope_for("crates/bench/src/bin/mwm_rank.rs");
        assert!(!bench.hot_path_alloc);
        assert!(bench.forbid_unsafe, "bins still must forbid unsafe");
    }
}
