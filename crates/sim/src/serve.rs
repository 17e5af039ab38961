//! Long-lived sharded serve engine: windowed drive sessions, merged shard
//! telemetry, online reconfiguration.
//!
//! Batch entry points ([`run_sim`](crate::runner::run_sim) and friends) run
//! a simulation to completion and exit. `serve` instead keeps `shards`
//! independent [`DriveSession`]s alive — one per worker of the executor
//! that sweeps and replications run on, seeds decorrelated with
//! [`replicate_seed`](crate::runner::replicate_seed) — and collects their
//! **measurement windows** over one zero-capacity channel per shard:
//!
//! ```text
//!   shard 0   warmup ─ window 0 ─┐ window 1 ─┐ … ─ drain
//!   shard 1   warmup ─ window 0 ─┤ window 1 ─┤ … ─ drain
//!   shard 2   warmup ─ window 0 ─┤ window 1 ─┤ … ─ drain
//!                                ▼           ▼
//!   coordinator            merge window 0  merge window 1 …
//! ```
//!
//! A shard's hand-over of window `w` completes only when the coordinator
//! takes it, so no shard runs more than one window ahead of the merge —
//! backpressure, not a barrier. The coordinator reads the channels **in
//! shard order** and merges each window into one `MetricsRegistry`
//! snapshot ([`merge_window_reports`]), emitted as a JSON line. Every shard
//! is deterministic under its derived seed and the read order is fixed, so
//! the emitted telemetry is byte-identical across runs regardless of how
//! the OS interleaves the worker threads (pinned by
//! `tests/serve_session.rs`).
//!
//! **Faults.** The executor catches a shard's panic, and the shard's closed
//! channel stops the coordinator at that window. The coordinator then
//! closes every channel: each surviving shard's next hand-over is refused
//! and it goes straight to its drain. [`serve_with`] emits the completed
//! snapshots, one `{"shard_failed":{"shard":…,"window":…,"message":…}}`
//! line per failed shard, then the survivors' drain line, and returns
//! `Err`. Where each survivor stops follows from the read order alone, so
//! a failed run's output is as deterministic as a clean one's.
//!
//! Between windows the engine applies a [`ControlScript`] — identical on
//! every shard — for **online reconfiguration**:
//!
//! ```text
//!   # control-script grammar (one command per line, '#' comments)
//!   at <window> scheduler <name>     # swap the boolean scheduler
//!   at <window> backend <scalar|bitset>
//!   at <window> load <fraction>      # rebuild the traffic generator
//!   at <window> drain                # stop measuring, go straight to drain
//! ```
//!
//! A command `at w` runs *before* window `w` is stepped. Shutdown is always
//! a **graceful drain**: arrivals stop ([`Silence`]) and each shard steps
//! until `buffered_packets() == 0` or the drain deadline, producing a final
//! merged [`DrainReport`] line.

use crate::config::{ModelKind, SimConfig};
use crate::runner::{
    build_model, build_scheduler, build_traffic, parallel_indexed, replicate_seed, SimRng,
};
use crate::session::{DrainReport, DriveSession, WindowReport};
use crate::traffic::Silence;
use lcf_core::bitkern::Backend;
use lcf_core::registry::SchedulerKind;
use lcf_telemetry::{json::Value, MetricsRegistry};
use rand::SeedableRng;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Mutex, PoisonError};

/// One reconfiguration action of a [`ControlScript`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlCommand {
    /// Swap the boolean scheduler engine (seeded exactly like a
    /// construction-time scheduler of the shard's config).
    Scheduler(SchedulerKind),
    /// Rebuild the current scheduler on the other matching-kernel backend.
    Backend(Backend),
    /// Replace the traffic generator with one at this offered load.
    Load(f64),
    /// End the measurement phase now; go straight to the graceful drain.
    Drain,
}

/// A parsed control script: `(window, command)` pairs sorted by window
/// (file order preserved within a window).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlScript {
    commands: Vec<(u64, ControlCommand)>,
}

impl ControlScript {
    /// An empty script (no reconfiguration; measure all windows, then
    /// drain).
    pub fn empty() -> Self {
        ControlScript::default()
    }

    /// Parses the script grammar shown in the [module docs](self): one
    /// `at <window> <command>` per line, blank lines and `#` comments
    /// ignored. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut commands = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("control script line {}: {}", idx + 1, msg);
            let mut tokens = line.split_whitespace();
            if tokens.next() != Some("at") {
                return Err(err(format!(
                    "expected 'at <window> <command>', got '{line}'"
                )));
            }
            let window = tokens
                .next()
                .ok_or_else(|| err("missing window number after 'at'".to_string()))?
                .parse::<u64>()
                .map_err(|e| err(format!("bad window number: {e}")))?;
            let verb = tokens
                .next()
                .ok_or_else(|| err("missing command after window number".to_string()))?;
            let arg = tokens.next();
            if tokens.next().is_some() {
                return Err(err(format!("trailing tokens after '{verb}' command")));
            }
            let command = match (verb, arg) {
                ("drain", None) => ControlCommand::Drain,
                ("drain", Some(_)) => return Err(err("'drain' takes no argument".to_string())),
                ("scheduler", Some(name)) => match ModelKind::from_name(name) {
                    Some(ModelKind::Scheduler(kind)) => ControlCommand::Scheduler(kind),
                    _ => return Err(err(format!("unknown scheduler '{name}'"))),
                },
                ("backend", Some(name)) => match Backend::from_name(name) {
                    Some(backend) => ControlCommand::Backend(backend),
                    None => {
                        return Err(err(format!(
                            "unknown backend '{name}' (want scalar|bitset)"
                        )))
                    }
                },
                ("load", Some(value)) => ControlCommand::Load(
                    value
                        .parse::<f64>()
                        .map_err(|e| err(format!("bad load: {e}")))?,
                ),
                (verb, None) => return Err(err(format!("'{verb}' needs an argument"))),
                (verb, _) => return Err(err(format!("unknown command '{verb}'"))),
            };
            commands.push((window, command));
        }
        commands.sort_by_key(|(window, _)| *window);
        Ok(ControlScript { commands })
    }

    /// The commands scheduled to run before window `window`, in file order.
    pub fn commands_at(&self, window: u64) -> impl Iterator<Item = &ControlCommand> {
        self.commands
            .iter()
            .filter(move |(w, _)| *w == window)
            .map(|(_, c)| c)
    }

    /// All `(window, command)` pairs, sorted by window.
    pub fn commands(&self) -> &[(u64, ControlCommand)] {
        &self.commands
    }

    /// True if the script contains no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}

/// Configuration of a [`serve`] run: the per-shard simulation parameters
/// plus the serve-layer knobs (shard count, window geometry, drain
/// deadline, control script).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-shard simulation parameters. `seed` is the *base* seed — shard
    /// `i` runs under [`replicate_seed`]`(base.seed, i)`, so shard 0
    /// reproduces a plain `run_sim(base)` stream exactly. `warmup_slots` is
    /// honored before the first window; `measure_slots` is ignored (the
    /// measurement length is `windows * window_slots`).
    pub base: SimConfig,
    /// Number of independent shards (worker threads).
    pub shards: usize,
    /// Slots per measurement window.
    pub window_slots: u64,
    /// Number of measurement windows (snapshots) before shutdown.
    pub windows: u64,
    /// Maximum slots the graceful drain may take per shard.
    pub drain_deadline_slots: u64,
    /// Bucket range of the per-slot backlog occupancy histograms.
    pub occupancy_range: usize,
    /// Reconfiguration commands applied between windows.
    pub script: ControlScript,
}

impl ServeConfig {
    /// A serve configuration with the default serve-layer knobs: 4 shards,
    /// 8 windows of 5 000 slots, a 50 000-slot drain deadline, occupancy
    /// range 4 096 and an empty control script.
    pub fn new(base: SimConfig) -> Self {
        ServeConfig {
            base,
            shards: 4,
            window_slots: 5_000,
            windows: 8,
            drain_deadline_slots: 50_000,
            occupancy_range: 4_096,
            script: ControlScript::empty(),
        }
    }

    /// Validates the serve-layer knobs, the base config, and — command by
    /// command — the control script, so the worker threads can treat every
    /// reconfiguration as infallible.
    pub fn validate(&self) -> Result<(), String> {
        // `base.measure_slots` is unused in serve mode (the measurement
        // length is windows * window_slots), so validate with the
        // effective value rather than rejecting e.g. `measure_slots: 0`.
        let probe = SimConfig {
            measure_slots: self.windows.saturating_mul(self.window_slots).max(1),
            ..self.base.clone()
        };
        probe.validate()?;
        if self.shards == 0 {
            return Err("serve needs at least one shard".to_string());
        }
        if self.windows == 0 {
            return Err("serve needs at least one measurement window".to_string());
        }
        if self.window_slots == 0 {
            return Err("window_slots must be positive".to_string());
        }
        if self.occupancy_range == 0 {
            return Err("occupancy_range must be positive".to_string());
        }
        for (window, command) in self.script.commands() {
            if *window >= self.windows {
                return Err(format!(
                    "control script schedules a command at window {window}, but only {} windows run",
                    self.windows
                ));
            }
            match command {
                ControlCommand::Scheduler(_) | ControlCommand::Backend(_)
                    if !matches!(self.base.model, ModelKind::Scheduler(base)
                        if !base.wants_fifo_queues()) =>
                {
                    return Err(format!(
                        "scheduler/backend swaps need a VOQ scheduler model, not '{}'",
                        self.base.model.name()
                    ));
                }
                ControlCommand::Scheduler(kind) if kind.wants_fifo_queues() => {
                    return Err(
                        "cannot swap to 'fifo': it needs single-FIFO input queues".to_string()
                    );
                }
                ControlCommand::Load(load) => {
                    let load_probe = SimConfig {
                        load: *load,
                        ..probe.clone()
                    };
                    load_probe
                        .validate()
                        .map_err(|e| format!("control script load {load}: {e}"))?;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// What a completed [`serve`] run produced.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Measurement windows actually stepped (fewer than configured when the
    /// script issued an early `drain`).
    pub windows_run: u64,
    /// One merged JSON snapshot line per window, in window order.
    pub snapshots: Vec<String>,
    /// The same per-window merged registries in structured form (what each
    /// snapshot line renders), for programmatic consumers like the
    /// `queue_evolution` bench.
    pub merged: Vec<MetricsRegistry>,
    /// Per-shard drain reports, in shard order.
    pub drain_reports: Vec<DrainReport>,
    /// True if every shard reached `buffered_packets() == 0` before its
    /// drain deadline.
    pub drained: bool,
    /// The final merged drain report as a JSON line.
    pub drain_json: String,
}

/// Merges one window's per-shard reports into a single registry snapshot.
///
/// The reports are sorted by shard id before merging, so the result is a
/// pure function of the *set* of `(shard, report)` pairs — any thread
/// interleaving (input permutation) produces the same registry, and the
/// JSON export is key-sorted on top. Counters (`serve.generated`, …) sum
/// across shards; per-shard gauges are namespaced (`serve.shard.3.backlog`)
/// so last-writer-wins never collides; occupancy histograms merge
/// sample-exactly into `serve.occupancy`.
pub fn merge_window_reports(reports: &[(usize, WindowReport)]) -> MetricsRegistry {
    let mut ordered: Vec<&(usize, WindowReport)> = reports.iter().collect();
    ordered.sort_by_key(|(shard, _)| *shard);
    let mut merged = MetricsRegistry::new();
    let mut latency_weighted = 0.0;
    let mut latency_samples = 0u64;
    for (shard, report) in ordered {
        let mut snapshot = MetricsRegistry::new();
        snapshot.counter_add("serve.generated", report.generated);
        snapshot.counter_add("serve.delivered", report.delivered);
        snapshot.counter_add("serve.dropped", report.dropped);
        snapshot.counter_add("serve.latency_samples", report.latency_samples);
        snapshot.counter_add("serve.slots", report.slots);
        snapshot.gauge_set(
            format!("serve.shard.{shard}.backlog"),
            report.backlog as f64,
        );
        snapshot.gauge_set(
            format!("serve.shard.{shard}.mean_latency"),
            report.mean_latency,
        );
        snapshot.gauge_set(
            format!("serve.shard.{shard}.mean_backlog"),
            report.mean_backlog,
        );
        if let Some(hist) = &report.occupancy {
            snapshot
                .histogram_merge("serve.occupancy", hist)
                // lint:allow(no-panic): every shard samples with the one configured occupancy range
                .expect("occupancy ranges match across shards");
        }
        let mismatched = merged.merge(&snapshot);
        debug_assert!(mismatched.is_empty());
        latency_weighted += report.mean_latency * report.latency_samples as f64;
        latency_samples += report.latency_samples;
    }
    if latency_samples > 0 {
        merged.gauge_set(
            "serve.mean_latency",
            latency_weighted / latency_samples as f64,
        );
    }
    merged
}

fn snapshot_line(window: u64, reports: &[(usize, WindowReport)]) -> (String, MetricsRegistry) {
    let merged = merge_window_reports(reports);
    let slot = reports
        .iter()
        .map(|(_, r)| r.start_slot + r.slots)
        .max()
        .unwrap_or(0);
    let line = format!(
        "{{\"window\":{window},\"slot\":{slot},\"shards\":{},\"metrics\":{}}}",
        reports.len(),
        merged.to_json()
    );
    (line, merged)
}

fn drain_line(drains: &[(usize, DrainReport)]) -> String {
    let shards: Vec<Value> = drains
        .iter()
        .map(|(shard, r)| {
            Value::Obj(vec![
                ("shard".into(), Value::U64(*shard as u64)),
                ("start_slot".into(), Value::U64(r.start_slot)),
                ("end_slot".into(), Value::U64(r.end_slot)),
                ("drained".into(), Value::Bool(r.drained)),
                ("remaining".into(), Value::U64(r.remaining_packets as u64)),
                ("delivered".into(), Value::U64(r.delivered)),
            ])
        })
        .collect();
    // With every shard failed, nothing drained.
    let drained = !drains.is_empty() && drains.iter().all(|(_, r)| r.drained);
    let remaining: u64 = drains.iter().map(|(_, r)| r.remaining_packets as u64).sum();
    let delivered: u64 = drains.iter().map(|(_, r)| r.delivered).sum();
    let end_slot = drains.iter().map(|(_, r)| r.end_slot).max().unwrap_or(0);
    Value::Obj(vec![(
        "drain".into(),
        Value::Obj(vec![
            ("drained".into(), Value::Bool(drained)),
            ("remaining".into(), Value::U64(remaining)),
            ("delivered".into(), Value::U64(delivered)),
            ("end_slot".into(), Value::U64(end_slot)),
            ("shards".into(), Value::Seq(shards)),
        ]),
    )])
    .to_json()
}

fn failure_line(shard: usize, window: u64, message: &str) -> String {
    Value::Obj(vec![(
        "shard_failed".into(),
        Value::Obj(vec![
            ("shard".into(), Value::U64(shard as u64)),
            ("window".into(), Value::U64(window)),
            ("message".into(), Value::Str(message.to_string())),
        ]),
    )])
    .to_json()
}

/// One shard's whole life: build, warm up, measure windows (applying
/// script commands between windows and handing each report to the
/// coordinator), drain. A refused hand-over means the coordinator stopped
/// at a failed sibling, so the shard drains at once. Every step is
/// deterministic under the shard seed, and every fallible reconfiguration
/// was pre-validated by [`ServeConfig::validate`].
fn run_shard(cfg: &ServeConfig, shard: usize, tx: SyncSender<WindowReport>) -> DrainReport {
    let mut live_cfg = SimConfig {
        seed: replicate_seed(cfg.base.seed, shard),
        ..cfg.base.clone()
    };
    let (model, _backend) = build_model(&live_cfg);
    let traffic = build_traffic(&live_cfg);
    let rng = SimRng::seed_from_u64(live_cfg.seed);
    let mut session = DriveSession::new(model, traffic, rng, live_cfg.max_latency_bucket);
    session.sample_occupancy(cfg.occupancy_range);
    session.step_window(live_cfg.warmup_slots);
    session.begin_measurement();

    'measure: for window in 0..cfg.windows {
        for command in cfg.script.commands_at(window) {
            match command {
                ControlCommand::Drain => break 'measure,
                ControlCommand::Scheduler(kind) => {
                    live_cfg.model = ModelKind::Scheduler(*kind);
                    let (scheduler, _) = build_scheduler(&live_cfg, *kind);
                    session
                        .model_mut()
                        .swap_scheduler(scheduler)
                        // lint:allow(no-panic): ServeConfig::validate pre-checked every swap target
                        .expect("validated scheduler swap failed");
                }
                ControlCommand::Backend(backend) => {
                    live_cfg.backend = *backend;
                    let kind = match live_cfg.model {
                        ModelKind::Scheduler(kind) => kind,
                        // lint:allow(no-panic): ServeConfig::validate rejects backend swaps on non-scheduler models
                        ModelKind::Weighted(_) | ModelKind::OutputBuffered => {
                            unreachable!("validated backend swap")
                        }
                    };
                    let (scheduler, _) = build_scheduler(&live_cfg, kind);
                    session
                        .model_mut()
                        .swap_scheduler(scheduler)
                        // lint:allow(no-panic): ServeConfig::validate pre-checked every swap target
                        .expect("validated scheduler swap failed");
                }
                ControlCommand::Load(load) => {
                    live_cfg.load = *load;
                    session.set_traffic(build_traffic(&live_cfg));
                }
            }
        }
        if tx.send(session.step_window(cfg.window_slots)).is_err() {
            break;
        }
    }

    let quiet: Box<dyn crate::traffic::Traffic> = Box::new(Silence::new(live_cfg.n));
    session.drain(quiet, cfg.drain_deadline_slots)
}

/// Runs the serve engine, calling `emit` with each merged JSON line (one
/// per window, then the final drain line) as soon as it is complete.
///
/// Returns the collected [`ServeOutcome`]. `Err` for a configuration error
/// (nothing emitted), or after a shard failed: then the completed windows'
/// lines, one `shard_failed` line per failed shard (in shard order) and the
/// surviving shards' drain line have been emitted, and the error names
/// each failed shard, its window and its panic message.
pub fn serve_with(cfg: &ServeConfig, mut emit: impl FnMut(&str)) -> Result<ServeOutcome, String> {
    cfg.validate()?;
    // Zero capacity: a hand-over completes only when the coordinator takes
    // it. Each shard takes its sender, so a shard that ends, panicking or
    // not, closes its channel.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..cfg.shards)
        .map(|_| {
            let (tx, rx) = mpsc::sync_channel::<WindowReport>(0);
            (Mutex::new(Some(tx)), rx)
        })
        .unzip();
    let mut snapshots = Vec::new();
    let mut merged_registries = Vec::new();
    // Shards whose window was taken before the coordinator stopped.
    let mut handed_over = 0;

    let outcomes = std::thread::scope(|scope| {
        let pool = scope.spawn(|| {
            parallel_indexed(cfg.shards, cfg.shards, |shard| {
                let tx = senders[shard]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    // lint:allow(no-panic): the executor runs each shard index exactly once
                    .expect("one sender per shard");
                run_shard(cfg, shard, tx)
            })
        });
        'windows: for window in 0..cfg.windows {
            let mut reports = Vec::with_capacity(cfg.shards);
            for (shard, rx) in receivers.iter().enumerate() {
                match rx.recv() {
                    Ok(report) => reports.push((shard, report)),
                    // Closed: a scripted drain, or the shard failed.
                    Err(_) => {
                        handed_over = reports.len();
                        break 'windows;
                    }
                }
            }
            let (line, merged) = snapshot_line(window, &reports);
            emit(&line);
            snapshots.push(line);
            merged_registries.push(merged);
        }
        // Refuse every further hand-over, so the survivors drain.
        drop(receivers);
        pool.join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    });

    let mut drains = Vec::new();
    let mut failures = Vec::new();
    for (shard, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(report) => drains.push((shard, report)),
            Err(e) => {
                // The first window this shard did not hand over.
                let window = snapshots.len() as u64 + u64::from(shard < handed_over);
                emit(&failure_line(shard, window, &e.message));
                failures.push(format!(
                    "shard {shard} failed in window {window}: {}",
                    e.message
                ));
            }
        }
    }
    let drain_json = drain_line(&drains);
    emit(&drain_json);
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let drained = drains.iter().all(|(_, r)| r.drained);
    Ok(ServeOutcome {
        windows_run: snapshots.len() as u64,
        snapshots,
        merged: merged_registries,
        drain_reports: drains.into_iter().map(|(_, r)| r).collect(),
        drained,
        drain_json,
    })
}

/// [`serve_with`] without a streaming sink: runs the engine and returns
/// the collected outcome.
pub fn serve(cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    serve_with(cfg, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrafficKind;

    fn quick_serve_cfg() -> ServeConfig {
        let base = SimConfig {
            model: ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
            n: 4,
            load: 0.6,
            warmup_slots: 200,
            measure_slots: 0,
            traffic: TrafficKind::Bernoulli,
            seed: 0xB0B,
            max_latency_bucket: 256,
            ..SimConfig::paper_default()
        };
        ServeConfig {
            shards: 2,
            window_slots: 300,
            windows: 3,
            drain_deadline_slots: 5_000,
            occupancy_range: 512,
            ..ServeConfig::new(base)
        }
    }

    #[test]
    fn script_parses_grammar_and_reports_line_errors() {
        let script = ControlScript::parse(
            "# swap mid-run\nat 2 scheduler islip\n\nat 1 load 0.3 # lighter\nat 3 backend scalar\nat 4 drain\n",
        )
        .unwrap();
        assert_eq!(script.commands().len(), 4);
        assert_eq!(
            script.commands()[0],
            (1, ControlCommand::Load(0.3)),
            "sorted by window"
        );
        assert_eq!(
            script.commands_at(2).collect::<Vec<_>>(),
            vec![&ControlCommand::Scheduler(SchedulerKind::Islip)]
        );
        assert!(ControlScript::parse("at x scheduler islip")
            .unwrap_err()
            .contains("line 1"));
        assert!(ControlScript::parse("at 1 scheduler nope")
            .unwrap_err()
            .contains("unknown scheduler"));
        assert!(ControlScript::parse("go 1 drain")
            .unwrap_err()
            .contains("expected 'at"));
        assert!(ControlScript::parse("at 1 drain now")
            .unwrap_err()
            .contains("takes no argument"));
    }

    #[test]
    fn validate_rejects_bad_scripts() {
        let mut cfg = quick_serve_cfg();
        cfg.script = ControlScript::parse("at 9 drain").unwrap();
        assert!(cfg.validate().unwrap_err().contains("window 9"));
        cfg.script = ControlScript::parse("at 1 scheduler fifo").unwrap();
        assert!(cfg.validate().unwrap_err().contains("fifo"));
        cfg.script = ControlScript::parse("at 1 load 7.0").unwrap();
        assert!(cfg.validate().is_err());
        cfg.script = ControlScript::parse("at 1 scheduler islip").unwrap();
        cfg.base.model = ModelKind::OutputBuffered;
        assert!(cfg.validate().unwrap_err().contains("VOQ scheduler"));
        cfg.base.model = ModelKind::Weighted(lcf_core::registry::WeightedKind::Lqf);
        assert!(cfg.validate().unwrap_err().contains("VOQ scheduler"));
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let report = |shard: usize| WindowReport {
            start_slot: 200,
            slots: 300,
            generated: 100 + shard as u64,
            delivered: 90 + shard as u64,
            dropped: 0,
            latency_samples: 50,
            mean_latency: 2.0 + shard as f64,
            backlog: shard,
            mean_backlog: shard as f64,
            occupancy: None,
        };
        let forward = vec![(0, report(0)), (1, report(1)), (2, report(2))];
        let shuffled = vec![(2, report(2)), (0, report(0)), (1, report(1))];
        assert_eq!(
            merge_window_reports(&forward).to_json(),
            merge_window_reports(&shuffled).to_json()
        );
        let merged = merge_window_reports(&forward);
        assert_eq!(merged.counter("serve.generated"), 303);
        assert_eq!(merged.gauge("serve.shard.2.backlog"), Some(2.0));
    }

    #[test]
    fn serve_runs_and_drains() {
        let cfg = quick_serve_cfg();
        let outcome = serve(&cfg).unwrap();
        assert_eq!(outcome.windows_run, 3);
        assert_eq!(outcome.snapshots.len(), 3);
        assert_eq!(outcome.drain_reports.len(), 2);
        assert!(outcome.drained, "light load must drain inside the deadline");
        assert!(outcome.snapshots[0].starts_with("{\"window\":0,"));
        assert!(outcome.drain_json.contains("\"drained\":true"));
    }
}
