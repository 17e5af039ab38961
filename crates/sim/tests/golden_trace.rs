//! Golden-trace snapshot: the decision trace of a pinned-seed n = 4
//! central-LCF run must be **byte-identical** to the committed fixture —
//! the same contract the `lcf-rng` golden tests pin for the raw random
//! stream, lifted to the full telemetry pipeline (traffic → slot loop →
//! scheduler decisions → JSON-Lines export).
//!
//! If this test fails, the reproducibility contract broke: a published
//! trace no longer regenerates from its seed. Fix the regression — do not
//! re-bless the fixture — unless the release notes declare a trace-format
//! or stream break. To re-bless deliberately:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lcf-sim --test golden_trace
//! ```

use lcf_core::registry::SchedulerKind;
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::runner::run_sim_traced;

const FIXTURE: &str = include_str!("fixtures/golden_trace_n4.jsonl");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace_n4.jsonl"
);

fn golden_cfg() -> SimConfig {
    SimConfig {
        model: ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        n: 4,
        load: 0.85,
        warmup_slots: 8,
        measure_slots: 24,
        seed: 0x601D,
        ..SimConfig::paper_default()
    }
}

fn run_trace() -> String {
    let (_, telemetry) = run_sim_traced(&golden_cfg(), 0);
    assert_eq!(
        telemetry.trace.evicted(),
        0,
        "fixture must be the whole run"
    );
    telemetry.trace.to_jsonl()
}

#[test]
fn golden_trace_matches_fixture_twice() {
    let first = run_trace();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE_PATH, &first).expect("write fixture");
        eprintln!("re-blessed {FIXTURE_PATH}");
    }

    // Twice in a row from fresh state: the trace is a pure function of the
    // seed, not of allocator or scheduler-object history.
    let second = run_trace();
    assert_eq!(
        first, second,
        "same seed, same process: trace must not drift"
    );

    if std::env::var("UPDATE_GOLDEN").is_err() {
        assert_eq!(
            first, FIXTURE,
            "trace diverged from the committed golden fixture"
        );
    }
}

/// The fixture freezes the *legacy* Bernoulli stream: `paper_default()`
/// (which `golden_cfg` inherits its traffic kind from) must keep the legacy
/// generator, or the byte-identity check above would silently start testing
/// a different process.
#[test]
fn golden_cfg_pins_the_legacy_generator() {
    let cfg = golden_cfg();
    assert_eq!(cfg.traffic, lcf_sim::config::TrafficKind::Bernoulli);
    assert!(!cfg.traffic.is_fast());
}

#[test]
fn golden_trace_is_wellformed_jsonl() {
    // Every fixture line is one JSON object with the mandatory envelope
    // keys in canonical order. (A full JSON parser is overkill — the
    // writer is first-party and tested; this guards the envelope shape.)
    assert!(!FIXTURE.is_empty());
    for line in FIXTURE.lines() {
        assert!(line.starts_with("{\"slot\":"), "bad envelope: {line}");
        assert!(line.contains("\"kind\":"), "missing kind: {line}");
        assert!(line.ends_with('}'), "truncated line: {line}");
    }
    // The pinned run exercises the interesting decision kinds.
    for kind in ["\"kind\":\"grant\"", "\"reason\":\"rr_position\""] {
        assert!(FIXTURE.contains(kind), "fixture never exercises {kind}");
    }
}

/// Scheduler events are recorded with slot 0 (schedulers have no time base)
/// and re-stamped by the switch model's step. If the re-stamping were ever
/// lost, every event would carry a slot below the warm-up boundary — so pin
/// that each fixture line lands inside the measurement window.
#[test]
fn golden_trace_slots_are_restamped_into_measurement_window() {
    let cfg = golden_cfg();
    let window = cfg.warmup_slots..cfg.warmup_slots + cfg.measure_slots;
    for line in FIXTURE.lines() {
        let rest = line
            .strip_prefix("{\"slot\":")
            .expect("envelope starts with slot");
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let slot: u64 = digits.parse().expect("slot number");
        assert!(
            window.contains(&slot),
            "event stamped outside the measurement window ({window:?}): {line}"
        );
    }
}
