//! Correctness checks. A window that fails one counts toward `failed`; a
//! run-level check that fails marks every window of the run as failed.

#![forbid(unsafe_code)]

use crate::json::{self, num, obj, Value};
use crate::trace::Fingerprint;
use crate::workloads::{self, Workload};
use lcf_core::bitkern::Backend;
use lcf_sim::session::WindowReport;
use lcf_sim::stats::SimStats;

/// Windows whose cumulative statistics form the output digest.
pub const DIGEST_WINDOWS: u64 = 20;

/// Slots of the scalar-backend prefix rerun (before `--quick` scaling).
pub const SCALAR_PREFIX_SLOTS: u64 = 2_000;

/// Expected seed-1 digests, one object per workload.
const EXPECTED_SEED1: &str = include_str!("expected_seed1.json");

/// The outcome of one named run-level check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Packet conservation over one window: Δgenerated = Δdelivered +
/// Δdropped + Δbacklog, where `backlog_before` is the backlog at the
/// window's start.
pub fn conserves(report: &WindowReport, backlog_before: usize) -> bool {
    let backlog_delta = report.backlog as i128 - backlog_before as i128;
    i128::from(report.generated)
        == i128::from(report.delivered) + i128::from(report.dropped) + backlog_delta
}

/// A window passes when it conserves packets and drops none.
pub fn window_ok(report: &WindowReport, backlog_before: usize) -> bool {
    conserves(report, backlog_before) && report.dropped == 0
}

/// Delivered throughput must be within 1% of the offered load.
pub fn throughput(delivered: u64, slots: u64, n: usize, load: f64) -> Check {
    let carried = delivered as f64 / (slots as f64 * n as f64);
    let ok = slots > 0 && (carried - load).abs() <= 0.01 * load;
    Check::new(
        "throughput",
        ok,
        format!("carried {carried:.5} vs offered {load} over {slots} slots"),
    )
}

/// The run's output digest: what the measured slots produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub generated: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub latency_samples: u64,
    pub latency_sum: u64,
}

impl Digest {
    pub fn of(stats: &SimStats) -> Digest {
        let samples = stats.latency_samples();
        Digest {
            generated: stats.generated,
            delivered: stats.delivered,
            dropped: stats.dropped(),
            latency_samples: samples,
            latency_sum: (stats.mean_latency() * samples as f64).round() as u64,
        }
    }

    pub fn to_value(self) -> Value {
        obj([
            ("generated", num(self.generated as f64)),
            ("delivered", num(self.delivered as f64)),
            ("dropped", num(self.dropped as f64)),
            ("latency_samples", num(self.latency_samples as f64)),
            ("latency_sum", num(self.latency_sum as f64)),
        ])
    }

    fn from_value(v: &Value) -> Option<Digest> {
        let field = |k: &str| v.get(k).and_then(Value::as_f64).map(|x| x as u64);
        Some(Digest {
            generated: field("generated")?,
            delivered: field("delivered")?,
            dropped: field("dropped")?,
            latency_samples: field("latency_samples")?,
            latency_sum: field("latency_sum")?,
        })
    }
}

/// Compares a seed-1 digest with the committed one.
pub fn digest_matches(workload: &str, got: Option<Digest>) -> Check {
    let expected = json::parse(EXPECTED_SEED1)
        .ok()
        .and_then(|v| v.get(workload).and_then(Digest::from_value));
    match (got, expected) {
        (Some(g), Some(e)) if g == e => Check::new("digest", true, "seed 1 matches"),
        (Some(g), Some(e)) => Check::new(
            "digest",
            false,
            format!("seed 1 digest {g:?} differs from expected {e:?}"),
        ),
        (None, _) => Check::new(
            "digest",
            false,
            format!("run ended before {DIGEST_WINDOWS} windows"),
        ),
        (Some(g), None) => Check::new(
            "digest",
            false,
            format!(
                "no expected digest for {workload}; got {}",
                g.to_value().to_json()
            ),
        ),
    }
}

/// Reruns the first `slots` slots on the scalar reference kernel; it must
/// match the bitset kernel exactly. Kernel-less schedulers skip the check.
pub fn scalar_prefix(w: &Workload, seed: u64, slots: u64) -> Check {
    if !w.kind.has_kernel() {
        return Check::new("scalar_prefix", true, "no kernel: skipped");
    }
    let run = |backend| {
        let mut s = workloads::session(&w.config(seed, backend));
        s.step_window(slots);
        Fingerprint::of(s.stats(), s.buffered_packets())
    };
    let (bitset, scalar) = (run(Backend::Bitset), run(Backend::Scalar));
    Check::new(
        "scalar_prefix",
        bitset == scalar,
        format!(
            "{slots} slots, bitset {} scalar",
            if bitset == scalar { "==" } else { "!=" }
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(generated: u64, delivered: u64, dropped: u64, backlog: usize) -> WindowReport {
        WindowReport {
            start_slot: 0,
            slots: 100,
            generated,
            delivered,
            dropped,
            latency_samples: 0,
            mean_latency: 0.0,
            backlog,
            mean_backlog: 0.0,
            occupancy: None,
        }
    }

    #[test]
    fn conservation_flags_a_doctored_window() {
        // 100 generated, 90 delivered, backlog 50 -> 60.
        assert!(conserves(&report(100, 90, 0, 60), 50));
        assert!(window_ok(&report(100, 90, 0, 60), 50));
        // One packet vanished.
        assert!(!conserves(&report(100, 89, 0, 60), 50));
        // One packet appeared from nowhere.
        assert!(!conserves(&report(100, 90, 0, 61), 50));
        // Conserved, but a drop fails the window.
        assert!(conserves(&report(100, 89, 1, 60), 50));
        assert!(!window_ok(&report(100, 89, 1, 60), 50));
        // A shrinking backlog is fine.
        assert!(conserves(&report(10, 30, 0, 30), 50));
    }

    #[test]
    fn throughput_is_within_one_percent() {
        assert!(throughput(9_900, 1_000, 10, 0.99).ok);
        assert!(!throughput(9_700, 1_000, 10, 0.99).ok);
        assert!(!throughput(0, 0, 10, 0.5).ok);
    }

    #[test]
    fn every_workload_has_a_seed1_digest() {
        for w in workloads::all() {
            let v = json::parse(EXPECTED_SEED1).unwrap();
            assert!(
                v.get(w.name).and_then(Digest::from_value).is_some(),
                "{}",
                w.name
            );
        }
    }
}
