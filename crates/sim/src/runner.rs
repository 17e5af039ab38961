//! Experiment driver: warm-up, measurement and parallel load sweeps.

use crate::config::{ModelKind, SimConfig, TrafficKind};
use crate::model::{drive, DriveOptions, SwitchModel};
use crate::outbuf::ObSwitch;
use crate::stats::SimStats;
use crate::switch::{IqSwitch, QueueMode, WeightSource};
use crate::traffic::{Bernoulli, FastBernoulli, FastBursty, OnOffBursty, Traffic};
use lcf_core::registry::{BackendChoice, SchedulerKind, WeightedKind};
use rand::SeedableRng;

/// The simulation RNG, pinned by name: ChaCha with 8 rounds, seeded via
/// SplitMix64 key expansion ([`lcf_rng::ChaChaRng::from_u64_seed`]). The
/// algorithm is frozen by golden-output tests in `lcf-rng`, so a
/// [`SimReport::seed`] reproduces a run bit-identically across releases and
/// platforms. (`rand::rngs::StdRng` is an alias for this same type in the
/// in-tree `rand`, but naming the concrete generator here is the contract.)
pub type SimRng = lcf_rng::ChaCha8Rng;

/// Results of one simulation run.
///
/// `PartialEq` is part of the telemetry contract: the equivalence test
/// compares a traced and an untraced run of the same config field for
/// field, so observability provably never changes a result.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Fig. 12 legend name of the model simulated.
    pub model: String,
    /// Offered load the run was configured with.
    pub load: f64,
    /// Number of switch ports.
    pub n: usize,
    /// Slots in the measurement window.
    pub slots: u64,
    /// Packets generated during measurement.
    pub generated: u64,
    /// Packets delivered during measurement.
    pub delivered: u64,
    /// Packets dropped (PQ and inner queues) during measurement.
    pub dropped: u64,
    /// Mean queueing delay in slots (packets generated during measurement).
    pub mean_latency_slots: f64,
    /// Standard deviation of the queueing delay.
    pub latency_std_dev: f64,
    /// Median queueing delay.
    pub p50_latency: u64,
    /// 99th-percentile queueing delay.
    pub p99_latency: u64,
    /// Delivered throughput as a fraction of aggregate link capacity.
    pub throughput: f64,
    /// Jain fairness index over per-input deliveries.
    pub jain_index: f64,
    /// Seed the run used.
    pub seed: u64,
    /// Human-readable description of the matching-kernel backend that
    /// actually ran (from [`lcf_core::registry::BackendChoice`]).
    /// `"n/a (no scheduler)"` for the output-buffered model.
    pub backend: String,
}

impl SimReport {
    /// Mean queueing delay in slots.
    pub fn mean_latency(&self) -> f64 {
        self.mean_latency_slots
    }

    /// Loss rate over generated packets.
    pub fn loss_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.dropped as f64 / self.generated as f64
        }
    }
}

/// Builds the [`SwitchModel`] plus the backend description for the report.
/// In checked debug builds the scheduler is wrapped in a
/// [`CheckedScheduler`](lcf_core::check::CheckedScheduler) that validates
/// every matching in the slot loop (and shadows bitset kernels with their
/// scalar twin); release builds run the bare scheduler.
pub(crate) fn build_model(cfg: &SimConfig) -> (Box<dyn SwitchModel>, String) {
    match cfg.model {
        ModelKind::OutputBuffered => (
            Box::new(ObSwitch::new(cfg.n, cfg.pq_cap, cfg.outbuf_cap)),
            "n/a (no scheduler)".to_string(),
        ),
        ModelKind::Scheduler(kind) => {
            let (scheduler, choice) = build_scheduler(cfg, kind);
            let mode = if kind == SchedulerKind::Fifo {
                QueueMode::SingleFifo { cap: cfg.voq_cap }
            } else {
                QueueMode::Voq { cap: cfg.voq_cap }
            };
            (
                Box::new(IqSwitch::new(cfg.n, scheduler, mode, cfg.pq_cap)),
                choice,
            )
        }
    }
}

/// Builds the boolean scheduler for `kind` exactly the way [`build_model`]
/// does (same `seed ^ 0x5EED` derivation, same checked-build gating) — the
/// serve layer uses this for online scheduler swaps, so a swapped-in
/// scheduler is indistinguishable from one built at construction.
pub(crate) fn build_scheduler(
    cfg: &SimConfig,
    kind: SchedulerKind,
) -> (Box<dyn lcf_core::traits::Scheduler + Send>, String) {
    let (iterations, seed) = (cfg.iterations_for_model(), cfg.seed ^ 0x5EED);
    #[cfg(all(feature = "check-invariants", debug_assertions))]
    let (scheduler, choice) = kind.build_checked(cfg.n, iterations, seed, cfg.backend);
    #[cfg(not(all(feature = "check-invariants", debug_assertions)))]
    let (scheduler, choice) = kind.build_with_backend(cfg.n, iterations, seed, cfg.backend);
    (scheduler, choice.to_string())
}

pub(crate) fn build_traffic(cfg: &SimConfig) -> Box<dyn Traffic> {
    match &cfg.traffic {
        TrafficKind::Bernoulli => Box::new(Bernoulli::new(cfg.n, cfg.load, cfg.pattern.clone())),
        TrafficKind::Bursty { mean_burst } => Box::new(OnOffBursty::new(
            cfg.n,
            cfg.load,
            *mean_burst,
            cfg.pattern.clone(),
        )),
        TrafficKind::FastBernoulli => {
            Box::new(FastBernoulli::new(cfg.n, cfg.load, cfg.pattern.clone()))
        }
        TrafficKind::FastBursty { mean_burst } => Box::new(FastBursty::new(
            cfg.n,
            cfg.load,
            *mean_burst,
            cfg.pattern.clone(),
        )),
    }
}

/// Runs one simulation: `warmup_slots` to fill the queues, then
/// `measure_slots` with statistics collection.
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    let (report, _) = run_sim_with_stats(cfg);
    report
}

/// Like [`run_sim`] but also returns the raw [`SimStats`] collector (needed
/// by the fairness experiment, which inspects per-pair service counts).
pub fn run_sim_with_stats(cfg: &SimConfig) -> (SimReport, SimStats) {
    // lint:allow(no-panic): documented precondition (# Panics above); try_sweep contains it
    cfg.validate().expect("invalid simulation config");
    let (mut model, backend) = build_model(cfg);
    let mut traffic = build_traffic(cfg);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let opts = DriveOptions::new(cfg.warmup_slots, cfg.measure_slots, cfg.max_latency_bucket);
    let stats = drive(model.as_mut(), traffic.as_mut(), &mut rng, &opts);
    let report = make_report(cfg.model.name(), cfg, &stats, backend);
    (report, stats)
}

/// Builds the weighted-path switch for `kind`: queue-length or
/// head-of-line-age weights per [`WeightedKind::age_weighted`], with the
/// scheduler wrapped in a
/// [`CheckedWeightedScheduler`](lcf_core::check::CheckedWeightedScheduler)
/// in checked debug builds (validity + weight-bound oracle per slot).
fn build_weighted_switch(cfg: &SimConfig, kind: WeightedKind) -> IqSwitch {
    #[cfg(all(feature = "check-invariants", debug_assertions))]
    let scheduler = kind.build_checked(cfg.n);
    #[cfg(not(all(feature = "check-invariants", debug_assertions)))]
    let scheduler = kind.build(cfg.n);
    let source = if kind.age_weighted() {
        WeightSource::HolAge
    } else {
        WeightSource::QueueLength
    };
    IqSwitch::new_weighted(cfg.n, scheduler, source, cfg.voq_cap, cfg.pq_cap)
}

/// Runs one simulation of a *weighted* scheduler. The configuration's
/// `model` field is ignored — the scheduler comes from `kind` (the
/// weighted schedulers live outside the Fig. 12 [`ModelKind`] lineup);
/// every other parameter (ports, load, traffic, seeds, queue capacities)
/// has identical semantics to [`run_sim`].
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_sim_weighted(cfg: &SimConfig, kind: WeightedKind) -> SimReport {
    // lint:allow(no-panic): documented precondition (# Panics above)
    cfg.validate().expect("invalid simulation config");
    let mut switch = build_weighted_switch(cfg, kind);
    let mut traffic = build_traffic(cfg);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let opts = DriveOptions::new(cfg.warmup_slots, cfg.measure_slots, cfg.max_latency_bucket);
    let stats = drive(&mut switch, traffic.as_mut(), &mut rng, &opts);
    make_report(
        kind.name(),
        cfg,
        &stats,
        BackendChoice::NoKernel.to_string(),
    )
}

fn make_report(model: &str, cfg: &SimConfig, stats: &SimStats, backend: String) -> SimReport {
    SimReport {
        model: model.to_string(),
        load: cfg.load,
        n: cfg.n,
        slots: cfg.measure_slots,
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped(),
        mean_latency_slots: stats.mean_latency(),
        latency_std_dev: stats.latency_std_dev(),
        p50_latency: stats.latency_quantile(0.5),
        p99_latency: stats.latency_quantile(0.99),
        throughput: stats.delivered as f64 / (cfg.measure_slots as f64 * cfg.n as f64),
        jain_index: stats.service().jain_index(),
        seed: cfg.seed,
        backend,
    }
}

/// Like [`run_sim`], but collects telemetry over the **measurement window**:
/// scheduler decision events and slot-loop metrics go into a
/// [`SwitchTelemetry`] capped at `trace_capacity` events (0 = unbounded).
///
/// Tracing is enabled only after warm-up, so the trace describes exactly
/// the slots the report's statistics do. The report itself is identical to
/// the untraced one — telemetry is read-only by contract (see
/// `tests/telemetry_equiv.rs`).
///
/// The output-buffered model has no scheduler to trace; it returns its
/// report with an empty telemetry object.
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_sim_traced(
    cfg: &SimConfig,
    trace_capacity: usize,
) -> (SimReport, Box<crate::switch::SwitchTelemetry>) {
    // lint:allow(no-panic): documented precondition (# Panics above)
    cfg.validate().expect("invalid simulation config");
    let (mut model, backend) = build_model(cfg);
    let mut traffic = build_traffic(cfg);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let opts = DriveOptions::new(cfg.warmup_slots, cfg.measure_slots, cfg.max_latency_bucket)
        .traced(trace_capacity);
    let stats = drive(model.as_mut(), traffic.as_mut(), &mut rng, &opts);
    let telemetry = model.take_telemetry().unwrap_or_default();
    (
        make_report(cfg.model.name(), cfg, &stats, backend),
        telemetry,
    )
}

/// A simulation in a [`try_sweep`] batch that panicked instead of producing
/// a report.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Index of the failing configuration in the input slice.
    pub index: usize,
    /// Panic payload rendered as text (`String`/`&str` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config #{} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SweepError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs many simulations in parallel (one OS thread per hardware thread;
/// each simulation is single-threaded and deterministic). Results come back
/// in input order.
///
/// A panic in one configuration is contained to that configuration: the
/// remaining simulations still run to completion, and the failure comes back
/// as `Err(SweepError)` in that slot.
pub fn try_sweep(configs: &[SimConfig]) -> Vec<Result<SimReport, SweepError>> {
    parallel_indexed(configs.len(), |idx| run_sim(&configs[idx]))
}

/// Runs `f(0..count)` across a scoped thread pool, containing panics per
/// index; results come back in index order.
fn parallel_indexed<T, F>(count: usize, f: F) -> Vec<Result<T, SweepError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(count.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<Result<T, SweepError>>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                // AssertUnwindSafe: the closure only reads shared immutable
                // state and builds all mutable state fresh per run, so no
                // broken invariant can leak out.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx)))
                    .map_err(|payload| SweepError {
                        index: idx,
                        message: panic_message(payload),
                    });
                // A poisoned slot only means a sibling worker panicked while
                // holding this uncontended lock — the data is still ours.
                *results[idx]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(outcome);
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| {
                    Err(SweepError {
                        index,
                        message: "worker recorded no outcome".to_string(),
                    })
                })
        })
        .collect()
}

/// Like [`try_sweep`], but every configuration runs traced: each slot keeps
/// its report **and** its [`SwitchTelemetry`](crate::switch::SwitchTelemetry),
/// and the batch comes back with one merged
/// [`MetricsRegistry`](lcf_telemetry::MetricsRegistry): slot-loop counters
/// summed, same-shape histograms merged, and per-config progress recorded
/// under `sweep.*` keys (`sweep.configs_ok`, `sweep.configs_failed`,
/// `sweep.config.<i>.{load,throughput,mean_latency}`).
///
/// Same-name histograms from configs with *different* port counts cannot be
/// merged (their value ranges differ); those keep the first run's shape and
/// the conflict count is surfaced as `sweep.histogram_range_mismatches`.
#[allow(clippy::type_complexity)]
pub fn try_sweep_traced(
    configs: &[SimConfig],
    trace_capacity: usize,
) -> (
    Vec<Result<(SimReport, Box<crate::switch::SwitchTelemetry>), SweepError>>,
    lcf_telemetry::MetricsRegistry,
) {
    let outcomes = parallel_indexed(configs.len(), |idx| {
        run_sim_traced(&configs[idx], trace_capacity)
    });
    let mut merged = lcf_telemetry::MetricsRegistry::new();
    for (idx, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok((report, telemetry)) => {
                merged.counter_inc("sweep.configs_ok");
                merged.gauge_set(format!("sweep.config.{idx}.load"), report.load);
                merged.gauge_set(format!("sweep.config.{idx}.throughput"), report.throughput);
                merged.gauge_set(
                    format!("sweep.config.{idx}.mean_latency"),
                    report.mean_latency_slots,
                );
                let mismatched = merged.merge(&telemetry.metrics);
                merged.counter_add("sweep.histogram_range_mismatches", mismatched.len() as u64);
            }
            Err(_) => merged.counter_inc("sweep.configs_failed"),
        }
    }
    (outcomes, merged)
}

/// Like [`try_sweep`], but panics *after the whole batch finishes* if any
/// configuration failed. Callers that can tolerate partial results should
/// use [`try_sweep`] directly.
pub fn sweep(configs: &[SimConfig]) -> Vec<SimReport> {
    let mut reports = Vec::with_capacity(configs.len());
    let mut errors = Vec::new();
    for outcome in try_sweep(configs) {
        match outcome {
            Ok(report) => reports.push(report),
            Err(e) => errors.push(e.to_string()),
        }
    }
    assert!(
        errors.is_empty(),
        "sweep: {} of {} configs panicked: {}",
        errors.len(),
        configs.len(),
        errors.join("; ")
    );
    reports
}

/// Two-sided 95% Student-t critical values for 1..=30 degrees of freedom;
/// beyond that the normal approximation (1.96) is within 0.9%.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t95(df: usize) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T95[df - 1],
        _ => 1.96,
    }
}

/// Sample mean with a 95% confidence interval across replications.
#[derive(Clone, Debug, PartialEq)]
pub struct MeanCi {
    /// Sample mean across replications.
    pub mean: f64,
    /// Sample standard deviation (n−1 divisor) across replications.
    pub std_dev: f64,
    /// 95% confidence half-width `t₀.₀₂₅,R₋₁ · s / √R`. Infinite for a
    /// single replication (one sample pins no interval).
    pub half_width: f64,
}

impl MeanCi {
    fn from_samples(samples: &[f64]) -> MeanCi {
        let mut w = crate::stats::Welford::new();
        for &x in samples {
            w.add(x);
        }
        let r = samples.len();
        let half_width = if r < 2 {
            f64::INFINITY
        } else {
            t95(r - 1) * w.std_dev() / (r as f64).sqrt()
        };
        MeanCi {
            mean: w.mean(),
            std_dev: w.std_dev(),
            half_width,
        }
    }

    /// Lower edge of the 95% interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the 95% interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the two 95% intervals overlap — the coarse statistical
    /// equivalence check used by the fast-vs-legacy generator tests.
    pub fn overlaps(&self, other: &MeanCi) -> bool {
        self.lo() <= other.hi() && other.lo() <= self.hi()
    }
}

/// Aggregate of `R` independent replications of one configuration
/// (same parameters, per-replicate seeds derived from the base seed).
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedReport {
    /// Fig. 12 legend name of the model simulated.
    pub model: String,
    /// Offered load of every replication.
    pub load: f64,
    /// Number of switch ports.
    pub n: usize,
    /// Number of independent replications run.
    pub replications: usize,
    /// Measurement slots per replication.
    pub slots_per_replication: u64,
    /// Base seed the per-replicate seeds were derived from.
    pub base_seed: u64,
    /// Mean queueing delay in slots.
    pub mean_latency: MeanCi,
    /// 99th-percentile queueing delay (mean of per-replicate p99s).
    pub p99_latency: MeanCi,
    /// Delivered throughput as a fraction of aggregate link capacity.
    pub throughput: MeanCi,
    /// Time-average packets resident in the switch, via Little's law
    /// (`L = λ·W` with λ the delivered rate in packets/slot).
    pub mean_queue_len: MeanCi,
    /// Fraction of generated packets dropped.
    pub loss_rate: MeanCi,
    /// The per-replicate reports, in replicate order (replicate 0 uses the
    /// base seed itself, so it reproduces `run_sim(cfg)` exactly).
    pub reports: Vec<SimReport>,
}

/// Seed for replicate `index` of a base seed: the golden-ratio Weyl step
/// keeps the raw seeds distinct (odd multiplier ⇒ injective mod 2⁶⁴), and
/// [`SimRng`]'s SplitMix64 key expansion decorrelates the streams.
/// Replicate 0 is the base seed itself.
pub fn replicate_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `replications` independent copies of `cfg` — identical parameters,
/// per-replicate seeds from [`replicate_seed`] — across the same scoped
/// thread pool as [`try_sweep`], and merges them into mean / 95% CI
/// estimates. Deterministic given `(cfg.seed, replications)`: growing `R`
/// appends replicates without changing earlier ones.
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`], if
/// `replications == 0`, or if any replicate panics.
pub fn run_replicated(cfg: &SimConfig, replications: usize) -> ReplicatedReport {
    run_replicated_with(cfg, replications, cfg.model.name(), &run_sim)
}

/// [`run_replicated`] for the weighted schedulers: `R` independent copies
/// of [`run_sim_weighted`] merged into mean / 95% CI estimates, with the
/// same per-replicate seed derivation and determinism contract. The
/// configuration's `model` field is ignored (the scheduler comes from
/// `kind`).
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`], if
/// `replications == 0`, or if any replicate panics.
pub fn run_replicated_weighted(
    cfg: &SimConfig,
    kind: WeightedKind,
    replications: usize,
) -> ReplicatedReport {
    run_replicated_with(cfg, replications, kind.name(), &|rep_cfg| {
        run_sim_weighted(rep_cfg, kind)
    })
}

/// Shared replication engine: runs `replications` copies of `cfg` through
/// `run` (seeds from [`replicate_seed`]) on the scoped thread pool and
/// aggregates the reports under `model`.
fn run_replicated_with(
    cfg: &SimConfig,
    replications: usize,
    model: &str,
    run: &(dyn Fn(&SimConfig) -> SimReport + Sync),
) -> ReplicatedReport {
    // lint:allow(no-panic): documented preconditions (# Panics on the public wrappers)
    assert!(replications > 0, "replications must be positive");
    // lint:allow(no-panic): documented precondition (# Panics on the public wrappers)
    cfg.validate().expect("invalid simulation config");
    let reports: Vec<SimReport> = parallel_indexed(replications, |idx| {
        let rep_cfg = SimConfig {
            seed: replicate_seed(cfg.seed, idx),
            ..cfg.clone()
        };
        run(&rep_cfg)
    })
    .into_iter()
    // lint:allow(no-panic): a panicking replicate is unrecoverable (# Panics on the public wrappers)
    .map(|outcome| outcome.unwrap_or_else(|e| panic!("replication panicked: {e}")))
    .collect();

    let metric = |f: &dyn Fn(&SimReport) -> f64| {
        MeanCi::from_samples(&reports.iter().map(f).collect::<Vec<f64>>())
    };
    ReplicatedReport {
        model: model.to_string(),
        load: cfg.load,
        n: cfg.n,
        replications,
        slots_per_replication: cfg.measure_slots,
        base_seed: cfg.seed,
        mean_latency: metric(&|r| r.mean_latency_slots),
        p99_latency: metric(&|r| r.p99_latency as f64),
        throughput: metric(&|r| r.throughput),
        mean_queue_len: metric(&|r| r.delivered as f64 / r.slots as f64 * r.mean_latency_slots),
        loss_rate: metric(&|r| r.loss_rate()),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::DestPattern;

    fn quick_cfg(model: ModelKind, load: f64) -> SimConfig {
        SimConfig {
            model,
            load,
            n: 8,
            warmup_slots: 2_000,
            measure_slots: 10_000,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn run_sim_produces_sane_report() {
        let cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.6);
        let r = run_sim(&cfg);
        assert_eq!(r.model, "lcf_central");
        assert_eq!(r.n, 8);
        assert!(r.generated > 0);
        assert!(r.delivered > 0);
        assert!(r.throughput > 0.5 && r.throughput < 0.7);
        assert!(r.mean_latency() > 0.0);
        assert!(r.p99_latency >= r.p50_latency);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::Pim), 0.7);
        let a = run_sim(&cfg);
        let b = run_sim(&cfg);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mean_latency_slots, b.mean_latency_slots);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::Pim), 0.7);
        let a = run_sim(&cfg);
        cfg.seed += 1;
        let b = run_sim(&cfg);
        assert_ne!(
            (a.delivered, a.mean_latency_slots),
            (b.delivered, b.mean_latency_slots)
        );
    }

    #[test]
    fn outbuf_beats_fifo_at_high_load() {
        let ob = run_sim(&quick_cfg(ModelKind::OutputBuffered, 0.9));
        let fifo = run_sim(&quick_cfg(ModelKind::Scheduler(SchedulerKind::Fifo), 0.9));
        assert!(
            ob.mean_latency() < fifo.mean_latency(),
            "outbuf {} vs fifo {}",
            ob.mean_latency(),
            fifo.mean_latency()
        );
        assert!(ob.throughput > fifo.throughput);
    }

    #[test]
    fn sweep_preserves_order_and_parallelizes() {
        let configs: Vec<SimConfig> = [0.2, 0.5, 0.8]
            .iter()
            .map(|&load| quick_cfg(ModelKind::Scheduler(SchedulerKind::Islip), load))
            .collect();
        let reports = sweep(&configs);
        assert_eq!(reports.len(), 3);
        for (cfg, rep) in configs.iter().zip(&reports) {
            assert_eq!(cfg.load, rep.load);
        }
        // Latency grows with load.
        assert!(reports[0].mean_latency() <= reports[2].mean_latency());
    }

    #[test]
    fn try_sweep_isolates_panicking_configs() {
        let good = quick_cfg(ModelKind::Scheduler(SchedulerKind::Islip), 0.3);
        let mut bad = quick_cfg(ModelKind::Scheduler(SchedulerKind::Islip), 0.3);
        bad.load = 2.0; // fails SimConfig::validate → panics inside run_sim
        let outcomes = try_sweep(&[good.clone(), bad, good]);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok());
        assert!(
            outcomes[2].is_ok(),
            "siblings of a panicking config must run"
        );
        let err = outcomes[1].as_ref().expect_err("bad config must fail");
        assert_eq!(err.index, 1);
        assert!(
            err.message.contains("invalid simulation config"),
            "unexpected panic message: {}",
            err.message
        );
    }

    #[test]
    fn golden_determinism_contract() {
        // Freezes the whole seed → ChaCha8 stream → traffic → scheduler →
        // stats pipeline (see [`SimRng`]). If these exact counts change, the
        // reproducibility contract broke: a published `SimReport::seed` no
        // longer regenerates its run. Fix the regression — do not re-bless
        // the numbers — unless the release notes declare a stream break.
        let cfg = SimConfig {
            model: ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
            n: 8,
            load: 0.7,
            warmup_slots: 500,
            measure_slots: 4_000,
            seed: 0xD5EED,
            ..SimConfig::paper_default()
        };
        let r = run_sim(&cfg);
        assert_eq!(
            (r.generated, r.delivered, r.dropped),
            (22_289, 22_291, 0),
            "golden counts"
        );
        assert_eq!((r.p50_latency, r.p99_latency), (0, 11), "golden latencies");

        // And the RNG-consuming scheduler path (PIM draws from its own
        // ChaCha8 stream seeded with `seed ^ 0x5EED`).
        let pim = run_sim(&SimConfig {
            model: ModelKind::Scheduler(SchedulerKind::Pim),
            ..cfg
        });
        assert_eq!(
            (pim.generated, pim.delivered, pim.p99_latency),
            (22_289, 22_288, 13),
            "golden PIM counts"
        );
    }

    #[test]
    fn kernel_backends_produce_identical_reports() {
        use lcf_core::bitkern::Backend;
        for kind in [
            SchedulerKind::LcfCentral,
            SchedulerKind::LcfCentralRr,
            SchedulerKind::Pim,
            SchedulerKind::Islip,
            SchedulerKind::Wavefront,
        ] {
            let mut cfg = quick_cfg(ModelKind::Scheduler(kind), 0.8);
            cfg.measure_slots = 5_000;
            cfg.backend = Backend::Scalar;
            let a = run_sim(&cfg);
            cfg.backend = Backend::Bitset;
            let b = run_sim(&cfg);
            assert_eq!(
                (a.generated, a.delivered, a.dropped),
                (b.generated, b.delivered, b.dropped),
                "{kind}: backends diverged on counts"
            );
            assert_eq!(
                (a.mean_latency_slots, a.p50_latency, a.p99_latency),
                (b.mean_latency_slots, b.p50_latency, b.p99_latency),
                "{kind}: backends diverged on latency"
            );
            assert_eq!(a.jain_index, b.jain_index, "{kind}: fairness diverged");
        }
    }

    #[test]
    fn report_surfaces_backend_choice() {
        use lcf_core::bitkern::Backend;
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentralRr), 0.3);
        cfg.measure_slots = 500;
        cfg.warmup_slots = 100;
        assert_eq!(run_sim(&cfg).backend, "bitset");
        cfg.backend = Backend::Scalar;
        assert_eq!(run_sim(&cfg).backend, "scalar");
        // Past the word width the multi-word kernels keep serving the
        // bitset request — no scalar fallback, silent or otherwise.
        cfg.backend = Backend::Bitset;
        cfg.n = 70;
        let r = run_sim(&cfg);
        assert_eq!(r.backend, "bitset", "n = 70 must stay bit-parallel");
        // Schedulers without a kernel and outbuf report their own story.
        cfg.n = 8;
        cfg.model = ModelKind::Scheduler(SchedulerKind::MaxSize);
        assert!(run_sim(&cfg).backend.contains("no word-parallel kernel"));
        cfg.model = ModelKind::OutputBuffered;
        assert!(run_sim(&cfg).backend.contains("no scheduler"));
    }

    #[test]
    fn bursty_traffic_runs() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentralRr), 0.5);
        cfg.traffic = TrafficKind::Bursty { mean_burst: 8.0 };
        cfg.pattern = DestPattern::Uniform;
        let r = run_sim(&cfg);
        assert!(r.delivered > 0);
        // Bursts should hurt latency relative to Bernoulli at equal load.
        let bernoulli = run_sim(&quick_cfg(
            ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
            0.5,
        ));
        assert!(r.mean_latency() > bernoulli.mean_latency());
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_config_panics() {
        let mut cfg = quick_cfg(ModelKind::OutputBuffered, 0.5);
        cfg.load = 2.0;
        let _ = run_sim(&cfg);
    }

    #[test]
    fn fast_traffic_kinds_run() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.6);
        cfg.traffic = TrafficKind::FastBernoulli;
        let r = run_sim(&cfg);
        assert!(r.throughput > 0.5 && r.throughput < 0.7, "{}", r.throughput);

        cfg.traffic = TrafficKind::FastBursty { mean_burst: 8.0 };
        let bursty = run_sim(&cfg);
        assert!(bursty.delivered > 0);
        assert!(
            bursty.mean_latency() > r.mean_latency(),
            "bursts must hurt latency at equal load"
        );
    }

    #[test]
    fn replicate_seeds_are_distinct_and_anchored() {
        let base = 0xABCD_EF01;
        assert_eq!(replicate_seed(base, 0), base, "replicate 0 is the base run");
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| replicate_seed(base, i)).collect();
        assert_eq!(seeds.len(), 64, "per-replicate seeds must not collide");
    }

    #[test]
    fn run_replicated_is_deterministic_and_anchored() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.7);
        cfg.measure_slots = 5_000;
        cfg.traffic = TrafficKind::FastBernoulli;
        let a = run_replicated(&cfg, 4);
        let b = run_replicated(&cfg, 4);
        assert_eq!(a, b, "same (seed, R) must reproduce bit-identically");
        assert_eq!(a.replications, 4);
        assert_eq!(a.reports.len(), 4);
        assert_eq!(
            a.reports[0],
            run_sim(&cfg),
            "replicate 0 runs the base seed"
        );
        // Growing R appends replicates without disturbing earlier ones.
        let c = run_replicated(&cfg, 6);
        assert_eq!(&c.reports[..4], &a.reports[..]);
    }

    #[test]
    fn replication_cis_shrink_with_r() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::Islip), 0.8);
        cfg.measure_slots = 4_000;
        cfg.warmup_slots = 1_000;
        cfg.traffic = TrafficKind::FastBernoulli;
        let single = run_replicated(&cfg, 1);
        assert!(
            single.mean_latency.half_width.is_infinite(),
            "one sample pins no interval"
        );
        let small = run_replicated(&cfg, 4);
        let large = run_replicated(&cfg, 24);
        assert!(
            large.mean_latency.half_width < small.mean_latency.half_width,
            "CI must shrink: R=4 ±{} vs R=24 ±{}",
            small.mean_latency.half_width,
            large.mean_latency.half_width
        );
        assert!(large.mean_latency.half_width.is_finite());
        assert!(large.mean_latency.half_width > 0.0);
        // The interval brackets the point estimate.
        assert!(large.mean_latency.lo() < large.mean_latency.mean);
        assert!(large.mean_latency.hi() > large.mean_latency.mean);
    }

    #[test]
    fn fast_bernoulli_statistically_equivalent_to_legacy() {
        // The satellite contract: at n = 16 the fast generator's delay and
        // throughput estimates agree with the legacy generator's within
        // replication confidence intervals — same process, different RNG
        // stream.
        let cfg = SimConfig {
            model: ModelKind::Scheduler(SchedulerKind::LcfCentral),
            load: 0.7,
            warmup_slots: 1_000,
            measure_slots: 8_000,
            ..SimConfig::paper_default()
        };
        assert_eq!(cfg.n, 16);
        let legacy = run_replicated(&cfg, 6);
        let fast = run_replicated(
            &SimConfig {
                traffic: TrafficKind::FastBernoulli,
                ..cfg
            },
            6,
        );
        assert!(
            legacy.mean_latency.overlaps(&fast.mean_latency),
            "latency CIs disjoint: legacy {:?} vs fast {:?}",
            legacy.mean_latency,
            fast.mean_latency
        );
        assert!(
            legacy.throughput.overlaps(&fast.throughput),
            "throughput CIs disjoint: legacy {:?} vs fast {:?}",
            legacy.throughput,
            fast.throughput
        );
        // Both estimate the configured offered load (stable regime, no loss).
        for rep in [&legacy, &fast] {
            assert!(
                (rep.throughput.mean - 0.7).abs() < 0.01,
                "throughput {} off offered load",
                rep.throughput.mean
            );
            assert_eq!(rep.loss_rate.mean, 0.0);
        }
    }

    #[test]
    fn run_sim_weighted_covers_every_kind() {
        // The weighted path drives every registry kind through the full
        // slot loop — in debug builds this also exercises the
        // CheckedWeightedScheduler (validity + weight-bound oracle) and
        // the slot-loop weighted invariant check on every slot.
        for kind in WeightedKind::ALL {
            let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.7);
            cfg.measure_slots = 2_000;
            cfg.warmup_slots = 500;
            let r = run_sim_weighted(&cfg, kind);
            assert_eq!(r.model, kind.name());
            assert_eq!(r.n, 8);
            assert!(r.delivered > 0, "{kind}");
            assert!(r.throughput > 0.6, "{kind}: throughput {}", r.throughput);
            assert!(r.backend.contains("no word-parallel kernel"));
        }
    }

    #[test]
    fn run_sim_weighted_is_deterministic() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.8);
        cfg.measure_slots = 2_000;
        let a = run_sim_weighted(&cfg, WeightedKind::Mwm);
        let b = run_sim_weighted(&cfg, WeightedKind::Mwm);
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        cfg.seed += 1;
        let c = run_sim_weighted(&cfg, WeightedKind::Mwm);
        assert_ne!(
            (a.delivered, a.mean_latency_slots),
            (c.delivered, c.mean_latency_slots)
        );
    }

    #[test]
    fn run_replicated_weighted_is_deterministic_and_anchored() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.7);
        cfg.measure_slots = 1_500;
        cfg.warmup_slots = 300;
        cfg.traffic = TrafficKind::FastBernoulli;
        let a = run_replicated_weighted(&cfg, WeightedKind::NwGreedy, 3);
        let b = run_replicated_weighted(&cfg, WeightedKind::NwGreedy, 3);
        assert_eq!(a, b, "same (seed, R) must reproduce bit-identically");
        assert_eq!(a.model, "nwgreedy");
        assert_eq!(
            a.reports[0],
            run_sim_weighted(&cfg, WeightedKind::NwGreedy),
            "replicate 0 runs the base seed"
        );
        // Growing R appends replicates without disturbing earlier ones.
        let c = run_replicated_weighted(&cfg, WeightedKind::NwGreedy, 5);
        assert_eq!(&c.reports[..3], &a.reports[..]);
    }

    #[test]
    fn little_law_queue_length_is_consistent() {
        let mut cfg = quick_cfg(ModelKind::Scheduler(SchedulerKind::LcfCentral), 0.9);
        cfg.traffic = TrafficKind::FastBernoulli;
        let rep = run_replicated(&cfg, 3);
        // L = λ·W with λ ≈ n·load packets/slot switch-wide.
        let expected = cfg.n as f64 * cfg.load * rep.mean_latency.mean;
        assert!(
            (rep.mean_queue_len.mean - expected).abs() / expected.max(1.0) < 0.1,
            "queue length {} vs Little's-law {}",
            rep.mean_queue_len.mean,
            expected
        );
    }
}
