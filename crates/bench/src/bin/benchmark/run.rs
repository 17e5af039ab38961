//! Running one workload: the untraced end-to-end measurement, or the
//! traced run that splits the slot loop into layers.

#![forbid(unsafe_code)]

use crate::checks::{self, Check, Digest, DIGEST_WINDOWS, SCALAR_PREFIX_SLOTS};
use crate::json::{num, obj, string, Value};
use crate::summary::{self, median, percentile, sorted, Clock};
use crate::trace::{self, Fingerprint, LayerTrace, LoopCopy, LAYERS};
use crate::workloads::{self, Engine, Session, Workload, OCCUPANCY_RANGE, SERVE_DRAIN_DEADLINE};
use lcf_core::bitkern::Backend;
use lcf_sim::config::SimConfig;
use lcf_sim::runner::replicate_seed;
use lcf_sim::serve::{merge_window_reports, serve_with, ServeConfig, ServeOutcome};
use lcf_sim::session::WindowReport;
use lcf_sim::traffic::Silence;

/// `--quick` divides every length (warm-up, window, seconds, window
/// minimum, scalar prefix) by this.
pub const QUICK_FACTOR: u64 = 20;
/// Measured windows every run reaches, whatever `--seconds` says, so the
/// p95 window has at least 10 samples beyond it.
const MIN_WINDOWS: u64 = 200;
/// Segments of an untraced run. Each builds and warms a fresh switch (one
/// `setup_s` sample; `setup_s` is their median) and then measures windows
/// for its share of `--seconds`. Spreading the set-ups over the run keeps
/// one busy stretch of a shared host from setting `setup_s` alone.
const SEGMENTS: u64 = 5;
/// `slots_per_s` reads the window wall times at this percentile. Host
/// contention only ever slows a window down, so a low percentile tracks
/// the loop's own cost more steadily than the median does: across 10
/// seeds on a shared 2-vCPU host, the quartile spread was 2.6–8.0% against
/// 2.0–13.9% for the batch workloads, and 14.9% against 18.1% for `serve2`.
const RATE_PERCENTILE: f64 = 10.0;
/// One call of [`step_windows`] stops adding windows after this long, so a
/// run stays inside 180 s on a slow machine.
const HARD_STOP_SECS: f64 = 20.0;
/// Windows per `--seconds` of the `serve2` run (whose window count must be
/// fixed before it starts); about 30 windows of 2 x 10,000 slots take a
/// second on a 2-core machine.
const SERVE_WINDOWS_PER_SEC: f64 = 25.0;
/// The traced reference and its copy step at least an untraced run's
/// window minimum divided by this (40 windows), which keeps a traced run
/// under 30 s at n=256.
const TRACE_LENGTH_DIVISOR: u64 = 5;
/// Shares of `--seconds` given to the phases of a traced run.
const TRACE_REFERENCE_SHARE: f64 = 0.25;
const TRACE_SERVE_SHARE: f64 = 0.3;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
    /// Keep raw spans for `--trace-out`.
    pub keep_spans: bool,
}

impl RunOpts {
    fn min_windows(&self) -> u64 {
        if self.quick {
            MIN_WINDOWS / QUICK_FACTOR
        } else {
            MIN_WINDOWS
        }
    }

    fn check_digest(&self) -> bool {
        self.seed == 1 && !self.quick
    }
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    pub digest: Option<Digest>,
    /// Human-readable detail lines.
    pub info: Vec<String>,
    /// Raw spans as JSONL lines (traced runs with `keep_spans`).
    pub spans: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// A failed run-level check fails every window of the run.
    fn settle(mut self) -> Outcome {
        self.attempted = self.attempted.max(1);
        if self.checks.iter().any(|c| !c.ok) {
            self.failed = self.attempted;
        }
        self.failed = self.failed.min(self.attempted);
        self
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object written to `--out` files and read by `--agree`.
    pub fn to_value(&self, w: &Workload) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", num(m.value)), ("unit", string(m.unit))]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj([
                    ("name", string(c.name)),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", string(c.detail.clone())),
                ])
            })
            .collect();
        obj([
            ("config", string(w.describe())),
            ("why", string(w.why)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("failed_frac", num(self.failed_frac())),
            ("metrics", Value::Obj(metrics)),
            ("checks", Value::Arr(checks)),
            ("digest", self.digest.map_or(Value::Null, Digest::to_value)),
        ])
    }
}

/// Runs one workload in this process.
pub fn run(w: &Workload, o: &RunOpts) -> Outcome {
    let w = if o.quick {
        w.clone().scaled(QUICK_FACTOR)
    } else {
        w.clone()
    };
    let o = RunOpts {
        seconds: if o.quick {
            o.seconds / QUICK_FACTOR as f64
        } else {
            o.seconds
        },
        ..o.clone()
    };
    let mut out = Outcome::default();
    match (o.trace, w.engine) {
        (false, Engine::Batch) => batch(&w, &o, &mut out),
        (false, Engine::Serve { .. }) => serve(&w, &o, &mut out),
        (true, _) => traced(&w, &o, &mut out),
    }
    let prefix = if o.quick {
        SCALAR_PREFIX_SLOTS / QUICK_FACTOR
    } else {
        SCALAR_PREFIX_SLOTS
    };
    out.checks.push(checks::scalar_prefix(&w, o.seed, prefix));
    out.settle()
}

/// What a run of measured windows saw.
#[derive(Default)]
struct WindowLog {
    secs: Vec<f64>,
    attempted: u64,
    failed: u64,
    slots: u64,
    delivered: u64,
    digest: Option<Digest>,
}

/// Steps `window`-slot windows until `budget` seconds have passed and at
/// least `min_windows` ran, checking every window. The log's digest is
/// taken from the first session that reaches [`DIGEST_WINDOWS`].
fn step_windows(s: &mut Session, window: u64, budget: f64, min_windows: u64, log: &mut WindowLog) {
    let clock = Clock::start();
    let mut backlog = s.buffered_packets();
    let mut stepped = 0;
    while (stepped < min_windows || clock.secs() < budget) && clock.secs() < HARD_STOP_SECS {
        let t0 = clock.ns();
        let report = s.step_window(window);
        log.secs.push((clock.ns() - t0) as f64 * 1e-9);
        stepped += 1;
        log.attempted += 1;
        if !checks::window_ok(&report, backlog) {
            log.failed += 1;
        }
        backlog = report.backlog;
        log.slots += report.slots;
        log.delivered += report.delivered;
        if stepped == DIGEST_WINDOWS && log.digest.is_none() {
            log.digest = Some(Digest::of(s.stats()));
        }
    }
}

/// A session warmed up and measuring, as every batch run starts.
fn warmed_session(cfg: &SimConfig) -> Session {
    let mut s = workloads::session(cfg);
    s.step_window(cfg.warmup_slots);
    s.begin_measurement();
    s
}

/// Counts the log's windows into the outcome and checks throughput over
/// `ports` ports and, when `digest` is set, the seed-1 digest.
fn window_checks(
    w: &Workload,
    o: &RunOpts,
    log: &WindowLog,
    ports: usize,
    digest: bool,
    out: &mut Outcome,
) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.checks
        .push(checks::throughput(log.delivered, log.slots, ports, w.load));
    if digest {
        out.digest = log.digest;
        if o.check_digest() {
            out.checks.push(checks::digest_matches(w.name, log.digest));
        }
    }
}

fn window_info(log: &WindowLog, out: &mut Outcome) {
    let ms: Vec<f64> = log.secs.iter().map(|s| s * 1e3).collect();
    let ms = sorted(&ms);
    let tail = summary::tail(&ms).map_or("no tail".to_string(), |t| {
        format!("{} = {:.3} ms", t, t.value)
    });
    out.info.push(format!(
        "windows {} (p{RATE_PERCENTILE} {:.3} ms, median {:.3} ms, {tail}), failed {}",
        log.attempted,
        percentile(&ms, RATE_PERCENTILE),
        median(&ms),
        log.failed
    ));
}

/// The three end-to-end metrics of an untraced run.
fn end_to_end(out: &mut Outcome, slots_per_window: f64, log: &WindowLog, setups: &[f64]) {
    let secs = sorted(&log.secs);
    let rate = slots_per_window / percentile(&secs, RATE_PERCENTILE);
    out.metric("slots_per_s", "slots/s", rate);
    out.metric("setup_s", "s", median(&sorted(setups)));
    out.metric(
        "peak_rss_mb",
        "MiB",
        summary::peak_rss_mib().unwrap_or(f64::NAN),
    );
    window_info(log, out);
}

fn batch(w: &Workload, o: &RunOpts, out: &mut Outcome) {
    let cfg = w.config(o.seed, Backend::Bitset);
    let mut setups = Vec::new();
    let mut log = WindowLog::default();
    for _ in 0..SEGMENTS {
        let clock = Clock::start();
        let mut s = warmed_session(&cfg);
        setups.push(clock.secs());
        step_windows(
            &mut s,
            w.window,
            o.seconds / SEGMENTS as f64,
            o.min_windows().div_ceil(SEGMENTS),
            &mut log,
        );
    }
    end_to_end(out, w.window as f64, &log, &setups);
    window_checks(w, o, &log, w.n, true, out);
}

fn serve_config(w: &Workload, seed: u64, windows: u64) -> ServeConfig {
    ServeConfig {
        shards: w.shards(),
        window_slots: w.window,
        windows,
        drain_deadline_slots: SERVE_DRAIN_DEADLINE,
        occupancy_range: OCCUPANCY_RANGE,
        ..ServeConfig::new(w.config(seed, Backend::Bitset))
    }
}

/// One `serve_with` call, timed from the call to each snapshot emit.
struct TimedServe {
    setup_s: f64,
    /// Seconds between consecutive snapshot emits.
    intervals: Vec<f64>,
    outcome: ServeOutcome,
}

fn timed_serve(cfg: &ServeConfig) -> TimedServe {
    let clock = Clock::start();
    let mut emits = Vec::new();
    let outcome = serve_with(cfg, |line| {
        if line.starts_with("{\"window\"") {
            emits.push(clock.secs());
        }
    })
    .expect("benchmark serve configs are valid");
    TimedServe {
        setup_s: emits.first().copied().unwrap_or(f64::NAN),
        intervals: emits.windows(2).map(|p| p[1] - p[0]).collect(),
        outcome,
    }
}

/// Backlog of each shard right after warm-up, rebuilt from the shard's
/// config (the serve snapshots report backlog only at window ends).
fn warmup_backlog(w: &Workload, seed: u64) -> usize {
    (0..w.shards())
        .map(|i| {
            let cfg = w.config(replicate_seed(seed, i), Backend::Bitset);
            warmed_session(&cfg).buffered_packets()
        })
        .sum()
}

/// Checks every merged window of a serve outcome (conservation, zero
/// drops) plus the drain, given the shards' summed backlog after warm-up,
/// and adds the windows to `log` (its digest comes from the first serve).
fn serve_window_log(w: &Workload, backlog0: usize, run: &TimedServe, log: &mut WindowLog) -> Check {
    let mut backlog = backlog0;
    let (mut windows, mut shard_slots) = (0, 0);
    let mut digest = Digest {
        generated: 0,
        delivered: 0,
        dropped: 0,
        latency_samples: 0,
        latency_sum: 0,
    };
    let mut latency_sum = 0.0;
    for merged in &run.outcome.merged {
        let report = WindowReport {
            start_slot: 0,
            slots: merged.counter("serve.slots"),
            generated: merged.counter("serve.generated"),
            delivered: merged.counter("serve.delivered"),
            dropped: merged.counter("serve.dropped"),
            latency_samples: merged.counter("serve.latency_samples"),
            mean_latency: merged.gauge("serve.mean_latency").unwrap_or(0.0),
            backlog: (0..w.shards())
                .map(|i| {
                    merged
                        .gauge(&format!("serve.shard.{i}.backlog"))
                        .unwrap_or(0.0) as usize
                })
                .sum(),
            mean_backlog: 0.0,
            occupancy: None,
        };
        windows += 1;
        log.attempted += 1;
        if !checks::window_ok(&report, backlog) {
            log.failed += 1;
        }
        backlog = report.backlog;
        shard_slots += report.slots;
        log.delivered += report.delivered;
        if windows <= DIGEST_WINDOWS {
            digest.generated += report.generated;
            digest.delivered += report.delivered;
            digest.dropped += report.dropped;
            digest.latency_samples += report.latency_samples;
            latency_sum += report.mean_latency * report.latency_samples as f64;
            if windows == DIGEST_WINDOWS && log.digest.is_none() {
                digest.latency_sum = latency_sum.round() as u64;
                log.digest = Some(digest);
            }
        }
    }
    // `serve.slots` sums shard slots; throughput is taken per shard port.
    log.slots += shard_slots / w.shards() as u64;
    let drained: u64 = run.outcome.drain_reports.iter().map(|d| d.delivered).sum();
    let balanced = drained as usize == backlog;
    Check::new(
        "drain",
        run.outcome.drained && balanced,
        format!(
            "drained={} and drain delivered {drained} of {backlog} buffered",
            run.outcome.drained
        ),
    )
}

fn serve(w: &Workload, o: &RunOpts, out: &mut Outcome) {
    // Each segment is one `serve_with` call. It keeps every window's
    // snapshot, so its memory grows with the window count: the count
    // depends on `--seconds` only, never on how fast this machine happens
    // to be. One window more than a segment's minimum gives the minimum
    // number of intervals between emits.
    let windows = ((o.seconds * SERVE_WINDOWS_PER_SEC / SEGMENTS as f64).round() as u64)
        .max(o.min_windows().div_ceil(SEGMENTS) + 1);
    let cfg = serve_config(w, o.seed, windows);
    let backlog0 = warmup_backlog(w, o.seed);
    let (mut log, mut setups, mut drain) = (WindowLog::default(), Vec::new(), None);
    for _ in 0..SEGMENTS {
        let run = timed_serve(&cfg);
        setups.push(run.setup_s);
        log.secs.extend_from_slice(&run.intervals);
        let check = serve_window_log(w, backlog0, &run, &mut log);
        // Report the first failed drain, or else the last one.
        if drain.as_ref().is_none_or(|c: &Check| c.ok) {
            drain = Some(check);
        }
    }
    end_to_end(out, (w.shards() as u64 * w.window) as f64, &log, &setups);
    window_checks(w, o, &log, w.n * w.shards(), true, out);
    out.checks.extend(drain);
}

fn traced(w: &Workload, o: &RunOpts, out: &mut Outcome) {
    // Layer phase: an untraced reference session and the traced copy of
    // the loop step the same slots; for serve2 this is shard 0's switch.
    let cfg = w.config(o.seed, Backend::Bitset);
    let mut reference = warmed_session(&cfg);
    let mut copy = LoopCopy::new(&cfg);
    copy.run(w.warmup);
    copy.begin_measurement();

    let mut log = WindowLog::default();
    step_windows(
        &mut reference,
        w.window,
        o.seconds * TRACE_REFERENCE_SHARE,
        o.min_windows() / TRACE_LENGTH_DIVISOR,
        &mut log,
    );
    let mut lt = LayerTrace::default();
    trace::run_traced(
        &mut copy,
        log.attempted,
        w.window,
        &|| reference.buffered_packets(),
        &mut lt,
    );
    window_info(&log, out);
    window_checks(w, o, &log, w.n, w.engine == Engine::Batch, out);
    let same = Fingerprint::of(copy.stats(), copy.backlog())
        == Fingerprint::of(reference.stats(), reference.buffered_packets());
    out.checks.push(Check::new(
        "traced_equals_untraced",
        same,
        format!("{} slots", lt.slots),
    ));
    let children: u64 = lt.layer_ns.iter().sum();
    let accounted = (children + lt.unattributed_ns) as f64;
    out.checks.push(Check::new(
        "spans_sum",
        (accounted - lt.slot_ns as f64).abs() <= 0.01 * lt.slot_ns as f64,
        format!(
            "layers + unattributed = {accounted} ns of {} ns",
            lt.slot_ns
        ),
    ));
    let untraced_window_ns = median(&sorted(&log.secs)) * 1e9;
    layer_metrics(w, &lt, &log, untraced_window_ns, out);
    if o.keep_spans {
        layer_spans(w, &lt, out);
    }

    let ns_per_slot = untraced_window_ns / w.window as f64;
    serve_phase(w, o, ns_per_slot, out);
}

fn layer_metrics(
    w: &Workload,
    lt: &LayerTrace,
    log: &WindowLog,
    untraced_window_ns: f64,
    out: &mut Outcome,
) {
    let slots = lt.slots.max(1) as f64;
    let per_slot = |k: usize| lt.layer_ns[k] as f64 / slots;
    let layer = |name: &str| LAYERS.iter().position(|l| *l == name).expect("known layer");
    let schedule = sorted(&lt.schedule_ns);
    out.metric("schedule.ns_per_slot", "ns", per_slot(layer("schedule")));
    out.metric("schedule.ns_p50", "ns", median(&schedule));
    out.metric("schedule.ns_p95", "ns", percentile(&schedule, 95.0));
    out.metric(
        "schedule.share",
        "ratio",
        lt.layer_ns[layer("schedule")] as f64 / lt.slot_ns.max(1) as f64,
    );
    out.metric(
        "schedule.grant_ratio",
        "ratio",
        lt.grants as f64 / lt.requesting_inputs.max(1) as f64,
    );
    out.metric("request.ns_per_slot", "ns", per_slot(layer("request")));
    out.metric(
        "request.bits_per_slot",
        "count",
        lt.request_bits as f64 / slots,
    );
    out.metric(
        "queues.spill_ns_per_slot",
        "ns",
        per_slot(layer("queues.spill")),
    );
    out.metric(
        "queues.spilled_per_slot",
        "count",
        lt.spilled as f64 / slots,
    );
    out.metric("queues.pq_ns_per_slot", "ns", per_slot(layer("queues.pq")));
    out.metric("queues.backlog_mean", "packets", lt.backlog_sum / slots);
    out.metric("traffic.ns_per_slot", "ns", per_slot(layer("traffic")));
    out.metric(
        "traffic.arrivals_per_slot",
        "count",
        lt.arrivals as f64 / slots,
    );
    out.metric("transfer.ns_per_slot", "ns", per_slot(layer("transfer")));
    out.metric("stats.ns_per_slot", "ns", per_slot(layer("stats")));
    out.metric("slot.traced_ns", "ns", lt.slot_ns as f64 / slots);
    out.metric(
        "slot.unattributed_ns",
        "ns",
        lt.unattributed_ns as f64 / slots,
    );
    out.metric(
        "trace.overhead_frac",
        "ratio",
        median(&sorted(&lt.window_ns)) / untraced_window_ns - 1.0,
    );
    out.metric(
        "session.occupancy_ns_per_call",
        "ns",
        median(&sorted(&lt.occupancy_ns)),
    );
    let window_ms: Vec<f64> = log.secs.iter().map(|s| s * 1e3).collect();
    out.metric(
        "session.window_ms_p95",
        "ms",
        percentile(&sorted(&window_ms), 95.0),
    );
    out.metric("session.windows", "count", log.attempted as f64);

    out.info
        .push(format!("traced {} slots of {}:", lt.slots, w.name));
    for (k, name) in LAYERS.iter().enumerate() {
        out.info.push(format!(
            "  {name:<13} {:>10.1} ns/slot {:>6.1}%",
            per_slot(k),
            100.0 * lt.layer_ns[k] as f64 / lt.slot_ns.max(1) as f64
        ));
    }
    out.info.push(format!(
        "  {:<13} {:>10.1} ns/slot {:>6.1}%",
        "unattributed",
        lt.unattributed_ns as f64 / slots,
        100.0 * lt.unattributed_ns as f64 / lt.slot_ns.max(1) as f64
    ));
}

/// Every JSONL span line starts with this, and no other output line does.
pub const SPAN_START: &str = "{\"workload\":";

fn span_line(
    workload: &str,
    slot: u64,
    span: &str,
    parent: Option<&str>,
    start: u64,
    end: u64,
) -> String {
    obj([
        ("workload", string(workload)),
        ("slot", num(slot as f64)),
        ("span", string(span)),
        ("parent", parent.map_or(Value::Null, string)),
        ("start_ns", num(start as f64)),
        ("end_ns", num(end as f64)),
    ])
    .to_json()
}

fn layer_spans(w: &Workload, lt: &LayerTrace, out: &mut Outcome) {
    for raw in &lt.raw {
        let t = raw.t;
        out.spans.push(span_line(
            w.name,
            raw.slot,
            "slot",
            None,
            t[0],
            t[LAYERS.len() + 1],
        ));
        for (k, name) in LAYERS.iter().enumerate() {
            out.spans.push(span_line(
                w.name,
                raw.slot,
                name,
                Some("slot"),
                t[k],
                t[k + 1],
            ));
        }
    }
}

/// The serve view of the workload: the real `serve_with` (one shard for
/// batch workloads) against a sequential re-run of its shards on this
/// thread with every window's `step_window`, merge and JSON timed.
fn serve_phase(w: &Workload, o: &RunOpts, ns_per_slot: f64, out: &mut Outcome) {
    let shards = w.shards();
    let per_window = w.window as f64 * ns_per_slot * 1e-9 * (1.0 + 1.2 * shards as f64);
    let windows = ((o.seconds * TRACE_SERVE_SHARE / per_window).ceil() as u64)
        .clamp((o.min_windows() / 10).max(3), 5_000);
    let cfg = serve_config(w, o.seed, windows);
    let real = timed_serve(&cfg);

    let mut sessions: Vec<Session> = (0..shards)
        .map(|i| {
            let shard_cfg = SimConfig {
                seed: replicate_seed(o.seed, i),
                ..cfg.base.clone()
            };
            let mut s = workloads::session(&shard_cfg);
            s.sample_occupancy(OCCUPANCY_RANGE);
            s.step_window(w.warmup);
            s.begin_measurement();
            s
        })
        .collect();
    let backlog0 = sessions.iter().map(Session::buffered_packets).sum();
    let mut log = WindowLog::default();
    let drain = serve_window_log(w, backlog0, &real, &mut log);
    // Counts the serve windows; a sequential merge that differs fails its
    // window again below (`settle` caps `failed` at `attempted`).
    window_checks(w, o, &log, w.n * shards, w.engine != Engine::Batch, out);
    out.checks.push(drain);

    let clock = Clock::start();
    let (mut step_ns, mut merge_ns, mut mismatched) = (0u64, 0u64, 0u64);
    for (window, expected) in real.outcome.merged.iter().enumerate() {
        let w0 = clock.ns();
        let mut reports = Vec::with_capacity(shards);
        let mut spans = Vec::new();
        for (i, s) in sessions.iter_mut().enumerate() {
            let t0 = clock.ns();
            reports.push((i, s.step_window(w.window)));
            let t1 = clock.ns();
            step_ns += t1 - t0;
            spans.push((format!("serve.shard.{i}.step_window"), t0, t1));
        }
        let t0 = clock.ns();
        let merged = merge_window_reports(&reports);
        let t1 = clock.ns();
        let json = merged.to_json();
        let t2 = clock.ns();
        merge_ns += t2 - t0;
        if json != expected.to_json() {
            mismatched += 1;
            out.failed += 1;
        }
        if o.keep_spans && window < trace::RAW_SLOTS {
            let slot = reports[0].1.start_slot;
            spans.push(("serve.merge".to_string(), t0, t1));
            spans.push(("serve.to_json".to_string(), t1, t2));
            out.spans
                .push(span_line(w.name, slot, "serve.window", None, w0, t2));
            for (name, a, b) in spans {
                out.spans
                    .push(span_line(w.name, slot, &name, Some("serve.window"), a, b));
            }
        }
    }
    out.checks.push(Check::new(
        "serve_merge_equal",
        mismatched == 0,
        format!("{mismatched} of {windows} sequential merges differ from ServeOutcome.merged"),
    ));
    let drains: Vec<_> = sessions
        .iter_mut()
        .map(|s| s.drain(Box::new(Silence::new(w.n)), SERVE_DRAIN_DEADLINE))
        .collect();
    out.checks.push(Check::new(
        "serve_drain",
        real.outcome.drained && drains == real.outcome.drain_reports,
        format!(
            "drained={}, sequential drains {} the real ones",
            real.outcome.drained,
            if drains == real.outcome.drain_reports {
                "equal"
            } else {
                "differ from"
            }
        ),
    ));

    let shard_slots = (windows * w.window * shards as u64).max(1) as f64;
    let shard_ns_per_slot = step_ns as f64 / shard_slots;
    let real_slots_per_s = (shards as u64 * w.window) as f64 / median(&sorted(&real.intervals));
    let snapshot_bytes = real
        .outcome
        .snapshots
        .iter()
        .map(String::len)
        .sum::<usize>() as f64
        / real.outcome.snapshots.len().max(1) as f64;
    out.metric("serve.shard_ns_per_slot", "ns", shard_ns_per_slot);
    out.metric(
        "serve.merge_us_per_window",
        "us",
        merge_ns as f64 / 1e3 / windows.max(1) as f64,
    );
    out.metric("serve.snapshot_bytes", "bytes", snapshot_bytes);
    out.metric(
        "serve.parallel_efficiency",
        "ratio",
        real_slots_per_s / (shards as f64 * 1e9 / shard_ns_per_slot),
    );
    out.metric(
        "serve.drain_slots",
        "slots",
        drains
            .iter()
            .map(|d| d.end_slot - d.start_slot)
            .max()
            .unwrap_or(0) as f64,
    );
    out.info.push(format!(
        "serve view: {shards} shard(s) x {windows} windows, real {real_slots_per_s:.0} slots/s"
    ));
}
