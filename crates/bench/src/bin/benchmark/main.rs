//! The switch benchmark: six workloads through the public `lcf-sim` API,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! separate traced run. See README.md in this directory.
//!
//! ```text
//! benchmark --seed <u64> [--workload <name>] [--seconds <s>] [--quick]
//!           [--trace [0|1]] [--trace-out <spans.jsonl|->] [--out <result.json>]
//! benchmark --agree <a.json[,a2.json…]> <b.json[,b2.json…]> [--bench-json <path>]
//! ```
//!
//! Without `--workload`, every workload runs in a fresh child process of
//! this binary, so allocator state and peak RSS are per workload. The last
//! line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace-out -` prints
//! the spans to standard output; that is how children hand theirs back.

#![forbid(unsafe_code)]

mod agree;
mod checks;
mod json;
mod run;
mod summary;
mod trace;
mod workloads;

use json::{num, obj, string, Value};
use run::{Outcome, RunOpts};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 8.0;
/// Longest `--seconds` accepted: with set-up and checks on top, one
/// workload run stays under 30 s.
const MAX_SECONDS: f64 = 20.0;
/// Prefix of the line a workload run prints its full result on.
const RESULT_PREFIX: &str = "workload-result ";

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    quick: bool,
    trace: bool,
    /// JSONL span file, or `-` for standard output.
    trace_out: Option<String>,
    out: Option<String>,
    agree: Option<(String, String)>,
    bench_json: String,
}

const USAGE: &str =
    "usage: benchmark [--seed <u64>] [--workload <name>] [--seconds <s>] [--quick] \
[--trace [0|1]] [--trace-out <spans.jsonl|->] [--out <result.json>]\n       \
benchmark --agree <a.json[,...]> <b.json[,...]> [--bench-json <path>]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: false,
        trace_out: None,
        out: None,
        agree: None,
        bench_json: "BENCHMARK.json".to_string(),
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workload" => {
                let name = value("--workload")?;
                if workloads::by_name(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds {s} outside (0, {MAX_SECONDS}]"));
                }
                args.seconds = s;
            }
            "--quick" => args.quick = true,
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--out" => args.out = Some(value("--out")?),
            "--bench-json" => args.bench_json = value("--bench-json")?,
            "--agree" => {
                let a = value("--agree")?;
                let b = value("--agree")?;
                args.agree = Some((a, b));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The `--out` file: run parameters plus one result object per workload.
fn result_file(args: &Args, results: Vec<(String, Value)>) -> Value {
    obj([
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", num(nproc() as f64)),
        ("profile", string(profile())),
        ("workloads", Value::Obj(results)),
    ])
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Writes JSONL spans to `path`, or to standard output when it is `-`.
fn write_spans(path: &str, spans: &[String]) -> Result<(), String> {
    let mut text = spans.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    if path == "-" {
        let mut stdout = std::io::stdout().lock();
        return stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("standard output: {e}"));
    }
    write_file(path, &text)
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_json()
}

fn print_outcome(w: &Workload, out: &Outcome) {
    println!("{}: {}", w.name, w.describe());
    for m in &out.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>16.6} ratio ({} of {} windows)",
        "failed_frac",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    for line in &out.info {
        println!("  {line}");
    }
    for c in &out.checks {
        println!(
            "  check {:<24} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

/// Runs one workload in this process.
fn run_one(args: &Args, w: &Workload) -> ExitCode {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        trace: args.trace,
        keep_spans: args.trace && args.trace_out.is_some(),
    };
    let Ok(out) = std::panic::catch_unwind(|| run::run(w, &opts)) else {
        println!("{}: panicked; every window counts as failed", w.name);
        println!("{}", contract_line(false, 1, 1, Vec::new()));
        return ExitCode::FAILURE;
    };
    print_outcome(w, &out);
    let value = out.to_value(w);
    println!("{RESULT_PREFIX}{}", value.to_json());
    let mut ok = out.correct();
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_spans(path, &out.spans) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    if let Some(path) = &args.out {
        let file = result_file(args, vec![(w.name.to_string(), value.clone())]);
        if let Err(e) = write_file(path, &(file.to_json() + "\n")) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    let metrics = value.get("metrics").map_or(&[][..], Value::members);
    println!(
        "{}",
        contract_line(ok, out.attempted, out.failed, metrics.to_vec())
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    println!(
        "benchmark: seed {} | {} s per workload{} | {} | nproc {} | {} build",
        args.seed,
        args.seconds,
        if args.quick {
            " (quick: lengths / 20)"
        } else {
            ""
        },
        if args.trace { "traced" } else { "untraced" },
        nproc(),
        profile()
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    for w in workloads::all() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if args.trace_out.is_some() {
            cmd.args(["--trace-out", "-"]);
        }
        let output = cmd.stderr(Stdio::inherit()).output();
        let stdout = output
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        let mut result = None;
        for line in stdout.lines() {
            if let Some(text) = line.strip_prefix(RESULT_PREFIX) {
                result = json::parse(text).ok();
            } else if line.starts_with(run::SPAN_START) {
                spans.push(line.to_string());
            } else if !line.starts_with("{\"correct\"") {
                println!("{line}");
            }
        }
        let exited_ok = output.as_ref().is_ok_and(|o| o.status.success());
        match result {
            Some(value) => {
                let count = |k: &str| value.get(k).and_then(Value::as_f64).unwrap_or(1.0) as u64;
                attempted += count("attempted");
                failed += count("failed");
                for (name, m) in value.get("metrics").map_or(&[][..], Value::members) {
                    metrics.push((format!("{}.{name}", w.name), m.clone()));
                }
                results.push((w.name.to_string(), value));
            }
            None => {
                println!(
                    "{}: no result (child exit: {:?})",
                    w.name,
                    output.map(|o| o.status)
                );
                attempted += 1;
                failed += 1;
            }
        }
        correct &= exited_ok;
    }
    correct &= failed == 0;

    println!(
        "summary (seed {}, nproc {}, {} build):",
        args.seed,
        nproc(),
        profile()
    );
    for (name, value) in &results {
        let mut cells = Vec::new();
        for (metric, m) in value.get("metrics").map_or(&[][..], Value::members) {
            // A traced run's summary shows only the slot size and the
            // schedule's share of it; the full list is printed above.
            if args.trace && !matches!(metric.as_str(), "slot.traced_ns" | "schedule.share") {
                continue;
            }
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            cells.push(format!("{metric} {v:.4} {unit}"));
        }
        let frac = value
            .get("failed_frac")
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        println!("  {name:<9} {} | failed_frac {frac}", cells.join(" | "));
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_file(path, &(result_file(args, results).to_json() + "\n")) {
            eprintln!("benchmark: {e}");
            correct = false;
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_spans(path, &spans) {
            eprintln!("benchmark: {e}");
            correct = false;
        }
    }
    println!(
        "{}",
        contract_line(correct, attempted.max(1), failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_agree(bench_json: &str, a: &str, b: &str) -> Result<bool, String> {
    let bench = read_json(bench_json)?;
    let set = |list: &str| -> Result<Vec<Value>, String> {
        list.split(',')
            .filter(|p| !p.is_empty())
            .map(read_json)
            .collect()
    };
    let (a, b) = (set(a)?, set(b)?);
    println!("A: {} file(s), B: {} file(s)", a.len(), b.len());
    let rows = agree::compare(&bench, &a, &b)?;
    agree::print(&rows);
    Ok(!rows.is_empty() && rows.iter().all(|r| r.ok))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.agree {
        return match run_agree(&args.bench_json, a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(w) => run_one(&args, &w),
            None => ExitCode::from(2),
        },
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "dist32",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("dist32"), 7, 3.0, false)
        );
        assert!(args(&["--trace", "--seed", "2"]).unwrap().trace);
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "21"]).is_err());
        assert!(args(&["--trace-append"]).is_err());
        assert!(args(&["--shard", "4"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program produces, with the same reasons and units; a quick run of
    /// each mode is also a smoke test with `failed_frac` 0.
    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let bench = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let w = workloads::by_name("paper16").unwrap();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let listed: Vec<(String, String)> = bench
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let opts = RunOpts {
                seed: 1,
                seconds: 0.2,
                quick: true,
                trace,
                keep_spans: trace,
            };
            let out = run::run(&w, &opts);
            let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
            assert!(out.correct(), "{failed:?}");
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, listed, "{key}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(trace, !out.spans.is_empty());
            assert!(out.spans.iter().all(|s| s.starts_with(run::SPAN_START)));
        }
    }
}
