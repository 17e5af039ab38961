//! Serve/session contracts: windowed stepping is observationally identical
//! to the one-shot drive protocol, shard merging is order-independent, the
//! sharded serve engine is byte-deterministic across runs, reconfiguration
//! is deterministic, and graceful drains terminate.

use lcf_core::bitkern::Backend;
use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_core::traits::Scheduler as _;
use lcf_sim::config::{ModelKind, SimConfig, TrafficKind};
use lcf_sim::model::{drive, DriveOptions, SwitchModel};
use lcf_sim::serve::{merge_window_reports, serve, serve_with, ControlScript, ServeConfig};
use lcf_sim::session::{DriveSession, WindowReport};
use lcf_sim::stats::{Histogram, SimStats};
use lcf_sim::switch::{IqSwitch, QueueMode, WeightSource};
use lcf_sim::traffic::{Bernoulli, DestPattern, Silence, Traffic};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4;
const BUCKET: usize = 512;
const WARMUP: u64 = 400;
const MEASURE: u64 = 2_000;

/// One (model, traffic, rng) triple, constructed identically every call so
/// two builds evolve bit-identically under the same stepping schedule.
fn build(kind: SchedulerKind, backend: Backend, seed: u64) -> (IqSwitch, Bernoulli, StdRng) {
    let (scheduler, _) = kind.build_with_backend(N, 4, seed ^ 0x5EED, backend);
    (
        IqSwitch::new(N, scheduler, QueueMode::Voq { cap: 64 }, 200),
        Bernoulli::new(N, 0.7, DestPattern::Uniform),
        StdRng::seed_from_u64(seed),
    )
}

fn assert_stats_eq(a: &SimStats, b: &SimStats) {
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.dropped(), b.dropped());
    assert_eq!(a.latency_samples(), b.latency_samples());
    assert_eq!(a.mean_latency(), b.mean_latency(), "bit-equal Welford mean");
    assert_eq!(a.latency_quantile(0.5), b.latency_quantile(0.5));
    assert_eq!(a.latency_quantile(0.99), b.latency_quantile(0.99));
}

/// The tentpole equivalence: repeated `step_window(w)` calls — any chunking
/// — reproduce the one-shot `drive()` protocol exactly, on both kernel
/// backends.
#[test]
fn windowed_stepping_matches_one_shot_drive() {
    for backend in [Backend::Scalar, Backend::Bitset] {
        let (mut model, mut traffic, mut rng) = build(SchedulerKind::LcfCentralRr, backend, 42);
        let opts = DriveOptions::new(WARMUP, MEASURE, BUCKET);
        let oneshot = drive(&mut model, &mut traffic, &mut rng, &opts);

        for window in [1u64, 7, 250, MEASURE] {
            let (model, traffic, rng) = build(SchedulerKind::LcfCentralRr, backend, 42);
            let mut session = DriveSession::new(model, traffic, rng, BUCKET);
            session.step_window(WARMUP);
            session.begin_measurement();
            let mut left = MEASURE;
            while left > 0 {
                let step = window.min(left);
                let report = session.step_window(step);
                assert_eq!(report.slots, step);
                left -= step;
            }
            let windowed = session.into_stats();
            assert_stats_eq(&oneshot, &windowed);
        }
    }
}

/// Same equivalence with telemetry enabled: the decision trace and metrics
/// registry are byte-identical whether the measurement ran as one window or
/// many.
#[test]
fn windowed_stepping_matches_one_shot_trace() {
    let (mut model, mut traffic, mut rng) = build(SchedulerKind::LcfCentralRr, Backend::Bitset, 7);
    let opts = DriveOptions::new(WARMUP, MEASURE, BUCKET).traced(0);
    let oneshot_stats = drive(&mut model, &mut traffic, &mut rng, &opts);
    let oneshot = model.take_telemetry().expect("telemetry was enabled");

    let (model, traffic, rng) = build(SchedulerKind::LcfCentralRr, Backend::Bitset, 7);
    let mut session = DriveSession::new(model, traffic, rng, BUCKET);
    session.step_window(WARMUP);
    session.enable_telemetry(0);
    session.begin_measurement();
    for _ in 0..MEASURE / 100 {
        session.step_window(100);
    }
    let windowed = session
        .model_mut()
        .take_telemetry()
        .expect("telemetry was enabled");
    let windowed_stats = session.into_stats();

    assert_stats_eq(&oneshot_stats, &windowed_stats);
    assert_eq!(oneshot.trace.to_jsonl(), windowed.trace.to_jsonl());
    assert_eq!(oneshot.metrics.to_json(), windowed.metrics.to_json());
}

/// Occupancy sampling is a pure observer: a sampling session and a
/// non-sampling session evolve identically, and the per-window histogram
/// accounts for exactly one sample per slot.
#[test]
fn occupancy_sampling_does_not_perturb_the_run() {
    let (model, traffic, rng) = build(SchedulerKind::Islip, Backend::Bitset, 11);
    let mut plain = DriveSession::new(model, traffic, rng, BUCKET);
    let (model, traffic, rng) = build(SchedulerKind::Islip, Backend::Bitset, 11);
    let mut sampling = DriveSession::new(model, traffic, rng, BUCKET);
    sampling.sample_occupancy(1 << 12);

    for _ in 0..4 {
        let a = plain.step_window(500);
        let b = sampling.step_window(500);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.backlog, b.backlog);
        assert!(a.occupancy.is_none());
        let hist = b.occupancy.expect("sampler was enabled");
        assert_eq!(hist.count() + hist.overflow(), 500, "one sample per slot");
        assert!(b.mean_backlog >= 0.0);
    }
}

/// Shard-merge determinism under forced orderings: every permutation of the
/// per-shard reports — the worst thread interleaving the coordinator could
/// observe — merges to the same registry JSON, occupancy histograms
/// included.
#[test]
fn shard_merge_is_thread_order_independent() {
    let report = |shard: usize| {
        let mut hist = Histogram::new(64);
        for v in 0..(shard as u64 + 3) {
            hist.add(v);
        }
        WindowReport {
            start_slot: 400,
            slots: 500,
            generated: 1_000 + shard as u64,
            delivered: 990 - shard as u64,
            dropped: shard as u64,
            latency_samples: 900,
            mean_latency: 1.5 * (shard + 1) as f64,
            backlog: 10 * shard,
            mean_backlog: 2.0 * shard as f64,
            occupancy: Some(hist),
        }
    };
    let reports: Vec<(usize, WindowReport)> = (0..3).map(|s| (s, report(s))).collect();
    let reference = merge_window_reports(&reports).to_json();
    let permutations: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for perm in permutations {
        let shuffled: Vec<(usize, WindowReport)> =
            perm.iter().map(|&i| reports[i].clone()).collect();
        assert_eq!(merge_window_reports(&shuffled).to_json(), reference);
    }
    let merged = merge_window_reports(&reports);
    assert_eq!(merged.counter("serve.generated"), 3_003);
    assert_eq!(
        merged.histogram("serve.occupancy").map(|h| h.count()),
        Some(3 + 4 + 5),
        "occupancy merges sample-exactly"
    );
}

fn quick_serve_cfg(script: ControlScript) -> ServeConfig {
    let base = SimConfig {
        model: ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        n: N,
        load: 0.6,
        warmup_slots: 200,
        measure_slots: 0,
        traffic: TrafficKind::Bernoulli,
        seed: 0xD1CE,
        max_latency_bucket: BUCKET,
        ..SimConfig::paper_default()
    };
    ServeConfig {
        shards: 3,
        window_slots: 300,
        windows: 4,
        drain_deadline_slots: 20_000,
        occupancy_range: 1 << 12,
        script,
        ..ServeConfig::new(base)
    }
}

/// The full engine — worker threads, barrier, coordinator — emits
/// byte-identical merged snapshots on every run, whatever the OS makes of
/// the thread schedule.
#[test]
fn serve_output_is_byte_deterministic_across_runs() {
    let cfg = quick_serve_cfg(ControlScript::empty());
    let first = serve(&cfg).expect("serve runs");
    for _ in 0..3 {
        let again = serve(&cfg).expect("serve runs");
        assert_eq!(first.snapshots, again.snapshots);
        assert_eq!(first.drain_json, again.drain_json);
    }
    assert_eq!(first.windows_run, 4);
    assert!(first.drained, "light load drains inside the deadline");
}

/// A serve run whose shards all schedule with the registry's `panic_probe`
/// (it panics on the first non-empty request matrix) at `load`.
fn probe_serve_cfg(n: usize, load: f64, shards: usize, seed: u64) -> ServeConfig {
    let base = SimConfig {
        model: ModelKind::Scheduler(SchedulerKind::FaultProbe),
        n,
        load,
        warmup_slots: 1,
        seed,
        ..SimConfig::paper_default()
    };
    ServeConfig {
        shards,
        window_slots: 100,
        windows: 20,
        ..ServeConfig::new(base)
    }
}

/// Runs `serve_with` on a helper thread and returns every emitted line
/// plus the result. A hang fails the test at the timeout instead of
/// stalling the suite.
fn serve_lines(cfg: &ServeConfig) -> (Vec<String>, Result<u64, String>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let cfg = cfg.clone();
    std::thread::spawn(move || {
        let mut lines = Vec::new();
        let result = serve_with(&cfg, |line| lines.push(line.to_string()));
        let _ = tx.send((lines, result.map(|outcome| outcome.windows_run)));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(run) => run,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("serve_with hung"),
        Err(e) => panic!("serve_with panicked instead of reporting: {e}"),
    }
}

fn count_prefixed(lines: &[String], prefix: &str) -> usize {
    lines.iter().filter(|l| l.starts_with(prefix)).count()
}

/// One shard panics (its first arrival) while its sibling runs on: the run
/// ends with the completed windows, one `shard_failed` line, the
/// survivor's drain line and `Err` — never a hang — and says the same
/// thing on every run.
#[test]
fn a_panicking_shard_ends_the_run_with_a_report() {
    let cfg = probe_serve_cfg(2, 0.002, 2, 2);
    let (lines, result) = serve_lines(&cfg);
    let err = result.expect_err("a failed shard fails the run");
    assert!(
        err.contains("shard 0") && err.contains("window 1") && err.contains("panic_probe"),
        "the error names the shard, its window and the panic: {err}"
    );
    assert_eq!(count_prefixed(&lines, "{\"window\":"), 1, "{lines:?}");
    assert_eq!(count_prefixed(&lines, "{\"shard_failed\":"), 1, "{lines:?}");
    assert!(lines[1].contains("\"shard\":0") && lines[1].contains("\"window\":1"));
    let drain = lines.last().expect("lines were emitted");
    assert!(
        drain.starts_with("{\"drain\":"),
        "drain line last: {lines:?}"
    );
    assert!(
        drain.contains("\"shard\":1"),
        "the survivor drains: {drain}"
    );
    let (again, again_result) = serve_lines(&cfg);
    assert_eq!(lines, again, "a failed run is byte-deterministic too");
    assert_eq!(Err(err), again_result);
}

/// Every shard panics during warm-up: one `shard_failed` line per shard, in
/// shard order, then an empty drain line — not a propagated panic.
#[test]
fn every_shard_failing_is_reported_per_shard() {
    let cfg = probe_serve_cfg(4, 0.9, 3, 7);
    let (lines, result) = serve_lines(&cfg);
    assert!(result.is_err());
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (shard, line) in lines[..3].iter().enumerate() {
        assert!(
            line.starts_with(&format!(
                "{{\"shard_failed\":{{\"shard\":{shard},\"window\":0,"
            )),
            "{line}"
        );
        assert!(line.contains("deliberate scheduler fault"), "{line}");
    }
    assert!(
        lines[3].starts_with("{\"drain\":{\"drained\":false,"),
        "no survivor, nothing drained: {lines:?}"
    );
    let (again, _) = serve_lines(&cfg);
    assert_eq!(lines, again);
}

/// Online reconfiguration — scheduler swap, backend swap, load change, then
/// a scripted early drain — is deterministic and actually takes effect.
#[test]
fn scripted_reconfiguration_is_deterministic_and_effective() {
    let script = ControlScript::parse(
        "at 1 scheduler islip\nat 1 load 0.3\nat 2 backend scalar\nat 3 drain\n",
    )
    .expect("valid script");
    let cfg = quick_serve_cfg(script);
    let a = serve(&cfg).expect("serve runs");
    let b = serve(&cfg).expect("serve runs");
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.drain_json, b.drain_json);
    assert_eq!(
        a.windows_run, 3,
        "the 'at 3 drain' command ends measurement"
    );
    assert!(a.drained);
    assert!(!a.drain_json.is_empty());

    let unscripted = serve(&quick_serve_cfg(ControlScript::empty())).expect("serve runs");
    assert_ne!(
        a.snapshots[1], unscripted.snapshots[1],
        "the window-1 swap must change the merged snapshot"
    );
    assert_eq!(
        a.snapshots[0], unscripted.snapshots[0],
        "windows before the first command are untouched"
    );
}

/// The scheduler-swap surface itself: port-count mismatches and weighted
/// engines are rejected, a valid swap installs the new scheduler.
#[test]
fn swap_scheduler_validates_and_installs() {
    let (mut switch, _, _) = build(SchedulerKind::LcfCentralRr, Backend::Bitset, 3);
    let (wrong_ports, _) = SchedulerKind::Islip.build_with_backend(N * 2, 4, 0, Backend::Bitset);
    let err = switch
        .swap_scheduler(wrong_ports)
        .err()
        .expect("port mismatch must be rejected");
    assert!(err.contains("port count"), "{err}");

    let (islip, _) = SchedulerKind::Islip.build_with_backend(N, 4, 0, Backend::Bitset);
    let old = switch.swap_scheduler(islip).expect("valid swap");
    assert_eq!(old.name(), "lcf_central_rr");
    assert_eq!(SwitchModel::scheduler_name(&switch), "islip");

    let weighted = WeightedKind::Lqf.build(N);
    let mut weighted_switch =
        IqSwitch::new_weighted(N, weighted, WeightSource::QueueLength, 64, 200);
    let (other, _) = SchedulerKind::Pim.build_with_backend(N, 4, 0, Backend::Bitset);
    let err = weighted_switch
        .swap_scheduler(other)
        .err()
        .expect("weighted engines must reject swaps");
    assert!(err.contains("weighted"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Graceful drains terminate: after arrivals stop, every buffered
    /// packet is eventually delivered and the books balance.
    #[test]
    fn drain_terminates_and_conserves_packets(
        kind in proptest::sample::select(SchedulerKind::VOQ_PRACTICAL.to_vec()),
        load in 0.05f64..=0.95,
        seed in any::<u64>(),
    ) {
        let (scheduler, _) = kind.build_with_backend(N, 4, seed ^ 0x5EED, Backend::Bitset);
        let model = IqSwitch::new(N, scheduler, QueueMode::Voq { cap: 64 }, 200);
        let traffic: Box<dyn Traffic> = Box::new(Bernoulli::new(N, load, DestPattern::Uniform));
        let rng = StdRng::seed_from_u64(seed);
        let mut session = DriveSession::new(model, traffic, rng, BUCKET);
        session.step_window(500);
        let report = session.drain(Box::new(Silence::new(N)), 50_000);
        prop_assert!(report.drained, "drain must finish before the deadline");
        prop_assert_eq!(report.remaining_packets, 0);
        prop_assert_eq!(session.buffered_packets(), 0);
        let stats = session.stats();
        prop_assert_eq!(stats.generated, stats.delivered + stats.dropped());
    }
}
