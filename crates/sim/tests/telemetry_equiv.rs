//! The telemetry layer is **read-only**: enabling it must never change a
//! simulation result.
//!
//! These tests run the same configuration traced and untraced and compare
//! the [`SimReport`]s field for field (`SimReport: PartialEq` exists for
//! exactly this), across scalar and bitset kernel backends and across every
//! scheduler family that has a tracing hook. Traced schedulers run the
//! kernel they were configured with, so this holds by construction; the
//! tests keep it that way.

use lcf_core::bitkern::Backend;
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::runner::{run_sim, run_sim_traced, try_sweep, try_sweep_traced};

fn cfg(kind: SchedulerKind, backend: Backend) -> SimConfig {
    SimConfig {
        model: ModelKind::Scheduler(kind),
        n: 8,
        load: 0.8,
        warmup_slots: 500,
        measure_slots: 3_000,
        seed: 0xBEEF,
        backend,
        ..SimConfig::paper_default()
    }
}

#[test]
fn traced_and_untraced_reports_are_identical() {
    for kind in [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDist,
        SchedulerKind::Islip,
        SchedulerKind::Pim,
        SchedulerKind::Fifo,
    ] {
        for backend in [Backend::Scalar, Backend::Bitset] {
            let c = cfg(kind, backend);
            let untraced = run_sim(&c);
            let (traced, telemetry) = run_sim_traced(&c, 0);
            assert_eq!(
                untraced, traced,
                "{kind} on {backend:?}: tracing changed the report"
            );
            // And the run was actually observed, not skipped.
            assert_eq!(telemetry.metrics.counter("sim.slots"), c.measure_slots);
            assert_eq!(telemetry.metrics.counter("sim.delivered"), traced.delivered);
            assert_eq!(telemetry.metrics.counter("sim.generated"), traced.generated);
        }
    }
}

#[test]
fn traced_sweep_matches_untraced_sweep() {
    let configs: Vec<SimConfig> = [0.3, 0.6, 0.9]
        .iter()
        .map(|&load| SimConfig {
            load,
            ..cfg(SchedulerKind::LcfCentralRr, Backend::Bitset)
        })
        .collect();
    let plain: Vec<_> = try_sweep(&configs)
        .into_iter()
        .map(|r| r.expect("sweep config failed"))
        .collect();
    let (traced, metrics) = try_sweep_traced(&configs, 64);
    let traced: Vec<_> = traced
        .into_iter()
        .map(|r| r.expect("traced sweep config failed").0)
        .collect();
    assert_eq!(plain, traced, "tracing changed a sweep result");

    // The merged registry tells the batch's story: per-config progress
    // gauges plus counters summed across all three runs.
    assert_eq!(metrics.counter("sweep.configs_ok"), 3);
    assert_eq!(metrics.counter("sweep.configs_failed"), 0);
    let total_delivered: u64 = traced.iter().map(|r| r.delivered).sum();
    assert_eq!(metrics.counter("sim.delivered"), total_delivered);
    for (idx, report) in traced.iter().enumerate() {
        assert_eq!(
            metrics.gauge(&format!("sweep.config.{idx}.throughput")),
            Some(report.throughput)
        );
    }
    // Same n across configs, so the matching-size histograms merged clean.
    assert_eq!(metrics.counter("sweep.histogram_range_mismatches"), 0);
    let hist = metrics
        .histogram("sim.matching_size")
        .expect("merged histogram");
    assert_eq!(hist.count() + hist.overflow(), 3 * configs[0].measure_slots);
}

#[test]
fn traced_run_is_deterministic() {
    let c = cfg(SchedulerKind::LcfCentralRr, Backend::Bitset);
    let (a, ta) = run_sim_traced(&c, 0);
    let (b, tb) = run_sim_traced(&c, 0);
    assert_eq!(a, b);
    assert_eq!(
        ta.trace.to_jsonl(),
        tb.trace.to_jsonl(),
        "traces must be bit-deterministic"
    );
    assert_eq!(ta.metrics.to_json(), tb.metrics.to_json());
}

/// The strongest form of the read-only contract: a traced and an untraced
/// switch, fed the same arrivals, must compute **the same matching every
/// slot** — not just the same aggregate report. (Tracing switches the
/// scheduler to its scalar kernel; the kernels are bit-identical by
/// contract, and this test holds the whole slot loop to it.)
#[test]
fn tracing_does_not_change_slot_schedules() {
    use lcf_sim::stats::SimStats;
    use lcf_sim::switch::{CrossbarSwitch, QueueMode};
    use lcf_sim::traffic::{Bernoulli, DestPattern};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 8;
    let mk = || {
        let (sched, _) = SchedulerKind::LcfCentralRr.build_with_backend(n, 4, 11, Backend::Bitset);
        CrossbarSwitch::new(n, sched, QueueMode::Voq { cap: 256 }, 1000)
    };
    let mut plain = mk();
    let mut traced = mk();
    traced.enable_telemetry(0);
    let mut t1 = Bernoulli::new(n, 0.85, DestPattern::Uniform);
    let mut t2 = Bernoulli::new(n, 0.85, DestPattern::Uniform);
    let mut r1 = StdRng::seed_from_u64(3);
    let mut r2 = StdRng::seed_from_u64(3);
    let mut s1 = SimStats::new(n, 0, 4096);
    let mut s2 = SimStats::new(n, 0, 4096);
    for slot in 0..2_000 {
        let a: Vec<_> = plain
            .step(slot, &mut t1, &mut r1, &mut s1)
            .pairs()
            .collect();
        let b: Vec<_> = traced
            .step(slot, &mut t2, &mut r2, &mut s2)
            .pairs()
            .collect();
        assert_eq!(a, b, "slot {slot}: tracing changed the schedule");
    }
}

/// CIOQ runs under the shared `drive()` loop: tracing must not change the
/// run, the slot-loop metrics must cover exactly the measurement window, and
/// every relayed scheduler event must be re-stamped into that window (the
/// scheduler itself stamps slot 0 — it has no time base). One-packet PQs
/// and VOQs make the input stage drop, so the trace must carry `drop_pq`
/// events and the arrival counters must match the statistics.
#[test]
fn cioq_traced_run_matches_untraced_and_stamps_slots() {
    use lcf_sim::model::{drive, DriveOptions};
    use lcf_sim::switch::IqSwitch;
    use lcf_sim::traffic::{Bernoulli, DestPattern};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 8;
    let (warmup, measure) = (200u64, 1_000u64);
    let mk = || {
        IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, 4, 11),
            2,
            2,
            1,
            1,
            256,
        )
    };
    let run = |sw: &mut IqSwitch, traced: bool| {
        let mut traffic = Bernoulli::new(n, 0.8, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        let mut opts = DriveOptions::new(warmup, measure, 4096);
        if traced {
            opts = opts.traced(0);
        }
        drive(sw, &mut traffic, &mut rng, &opts)
    };

    let mut plain = mk();
    let mut traced_sw = mk();
    let a = run(&mut plain, false);
    let b = run(&mut traced_sw, true);
    assert_eq!(a.generated, b.generated, "tracing changed CIOQ arrivals");
    assert_eq!(a.dropped_pq, b.dropped_pq, "tracing changed CIOQ drops");
    assert_eq!(a.delivered, b.delivered, "tracing changed CIOQ deliveries");
    assert_eq!(
        a.mean_latency(),
        b.mean_latency(),
        "tracing changed CIOQ latency"
    );
    assert_eq!(a.latency_histogram(), b.latency_histogram());
    assert_eq!(plain.buffered_packets(), traced_sw.buffered_packets());
    assert!(b.dropped_pq > 0, "the one-packet PQs must drop");

    let telemetry = traced_sw.take_telemetry().expect("telemetry was enabled");
    assert_eq!(telemetry.metrics.counter("sim.slots"), measure);
    assert_eq!(telemetry.metrics.counter("sim.delivered"), b.delivered);
    assert_eq!(telemetry.metrics.counter("sim.generated"), b.generated);
    assert_eq!(telemetry.metrics.counter("sim.dropped_pq"), b.dropped_pq);
    let jsonl = telemetry.trace.to_jsonl();
    let drop_events = jsonl.lines().filter(|l| l.contains("\"drop_pq\"")).count() as u64;
    assert_eq!(drop_events, b.dropped_pq, "one drop_pq event per PQ drop");
    assert!(
        jsonl.lines().count() as u64 > drop_events,
        "CIOQ scheduler decisions must be traced"
    );
    for line in jsonl.lines() {
        let rest = line.strip_prefix("{\"slot\":").expect("envelope");
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let slot: u64 = digits.parse().expect("slot number");
        assert!(
            (warmup..warmup + measure).contains(&slot),
            "event stamped outside the measurement window: {line}"
        );
    }
}

#[test]
fn output_buffered_model_reports_empty_telemetry() {
    let c = SimConfig {
        model: ModelKind::OutputBuffered,
        n: 8,
        load: 0.5,
        warmup_slots: 100,
        measure_slots: 500,
        ..SimConfig::paper_default()
    };
    let untraced = run_sim(&c);
    let (traced, telemetry) = run_sim_traced(&c, 0);
    assert_eq!(untraced, traced);
    assert!(telemetry.trace.is_empty());
    assert!(telemetry.metrics.is_empty());
}
