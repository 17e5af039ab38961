//! Resumable drive sessions: the windowed slot loop under every runner.
//!
//! A [`DriveSession`] owns a switch model, a traffic generator, an RNG and
//! the in-flight statistics of a run, and advances them one bounded
//! *window* at a time ([`DriveSession::step_window`]). The one-shot
//! [`drive`](crate::model::drive) protocol is a thin wrapper — warm-up
//! window, fresh measurement collector, measurement window — so batch runs
//! and long-lived [`serve`](crate::serve) shards share **the same stepping
//! loop** (the only one left in the workspace):
//!
//! ```text
//!   drive(model, traffic, rng, opts)        lcf serve shard i
//!   ────────────────────────────────        ─────────────────────────
//!   session.step_window(warmup)             session.step_window(W)  ┐
//!   session.begin_measurement()             hand over to the merge  │ × k
//!   session.step_window(measure)            reconfigure             ┘
//!   session.into_stats()                    session.drain(quiet, D)
//! ```
//!
//! Windowing is *observationally* transparent: stepping `k` windows of `w`
//! slots produces bit-identical model/RNG/stats evolution to one window of
//! `k·w` slots (pinned by `tests/serve_session.rs`). Window *reports* are
//! deltas over the cumulative collector, so cross-window packets (generated
//! in window 3, delivered in window 5) are never lost or double counted.

use crate::model::SwitchModel;
use crate::stats::{Histogram, SimStats};
use crate::traffic::Traffic;
use rand::rngs::StdRng;
use std::borrow::BorrowMut;

/// Per-slot total-backlog sampler, enabled by
/// [`DriveSession::sample_occupancy`]. The histogram buckets are total
/// buffered packets (PQs + VOQs/FIFOs) observed at the *end* of each slot;
/// the running sum gives the window's time-average backlog.
struct OccupancySampler {
    range: usize,
    hist: Histogram,
    sum: u64,
}

/// What one [`DriveSession::step_window`] call observed: counter deltas
/// over the window, the window-local latency mean, and the backlog at the
/// window boundary.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// First slot of the window.
    pub start_slot: u64,
    /// Number of slots stepped.
    pub slots: u64,
    /// Packets generated during the window.
    pub generated: u64,
    /// Packets delivered during the window.
    pub delivered: u64,
    /// Packets dropped during the window.
    pub dropped: u64,
    /// Latency samples recorded during the window (delivered packets that
    /// were generated inside the measurement phase).
    pub latency_samples: u64,
    /// Mean queueing delay of this window's latency samples (0 if none).
    pub mean_latency: f64,
    /// Packets buffered anywhere in the model at the end of the window.
    pub backlog: usize,
    /// Time-average backlog over the window's slots (0 when occupancy
    /// sampling is off or the window is empty).
    pub mean_backlog: f64,
    /// Per-slot backlog histogram for this window, if
    /// [`DriveSession::sample_occupancy`] was enabled.
    pub occupancy: Option<Histogram>,
}

/// Result of [`DriveSession::drain`]: arrivals stopped, the model stepped
/// until empty or the deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Slot the drain started at.
    pub start_slot: u64,
    /// Slot the drain stopped at (buffer empty or deadline hit).
    pub end_slot: u64,
    /// Whether the model reached `buffered_packets() == 0`.
    pub drained: bool,
    /// Packets still buffered when the drain stopped.
    pub remaining_packets: usize,
    /// Packets delivered during the drain.
    pub delivered: u64,
}

/// A resumable simulation: model + traffic + RNG + in-flight statistics,
/// advanced window by window.
///
/// The type is generic so both ownership shapes work with zero glue:
///
/// * **Borrowed** (the [`drive`](crate::model::drive) wrapper):
///   `DriveSession<&mut dyn SwitchModel, &mut dyn Traffic, &mut StdRng>`.
/// * **Owned** (a [`serve`](crate::serve) shard):
///   `DriveSession<Box<dyn SwitchModel>, Box<dyn Traffic>, StdRng>`.
pub struct DriveSession<M: SwitchModel, T: Traffic, R: BorrowMut<StdRng>> {
    model: M,
    traffic: T,
    rng: R,
    stats: SimStats,
    next_slot: u64,
    max_latency_bucket: usize,
    occupancy: Option<OccupancySampler>,
}

impl<M: SwitchModel, T: Traffic, R: BorrowMut<StdRng>> DriveSession<M, T, R> {
    /// Starts a session at slot 0 with a warm-up statistics collector
    /// (`measure_start = 0`, exactly like the historical warm-up phase).
    /// Call [`begin_measurement`](DriveSession::begin_measurement) when the
    /// queues have reached steady state.
    pub fn new(model: M, traffic: T, rng: R, max_latency_bucket: usize) -> Self {
        let n = model.num_ports();
        DriveSession {
            model,
            traffic,
            rng,
            stats: SimStats::new(n, 0, max_latency_bucket),
            next_slot: 0,
            max_latency_bucket,
            occupancy: None,
        }
    }

    /// The next slot this session will step.
    pub fn slot(&self) -> u64 {
        self.next_slot
    }

    /// Number of ports of the underlying model.
    pub fn num_ports(&self) -> usize {
        self.model.num_ports()
    }

    /// Name of the scheduler currently driving the model.
    pub fn scheduler_name(&self) -> &'static str {
        self.model.scheduler_name()
    }

    /// Packets currently buffered anywhere in the model.
    pub fn buffered_packets(&self) -> usize {
        self.model.buffered_packets()
    }

    /// The underlying model (e.g. for telemetry collection).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The statistics collected since the last
    /// [`begin_measurement`](DriveSession::begin_measurement) (or since the
    /// session started).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Consumes the session, returning the statistics collector.
    pub fn into_stats(self) -> SimStats {
        self.stats
    }

    /// Replaces the traffic generator between windows (online load change);
    /// returns the previous generator. The RNG stream is shared session
    /// state and keeps advancing from where it is.
    pub fn set_traffic(&mut self, traffic: T) -> T {
        std::mem::replace(&mut self.traffic, traffic)
    }

    /// Starts per-slot backlog sampling: every stepped slot records
    /// `buffered_packets()` into a histogram of bucket range `range`, reset
    /// at each window boundary (the samples come back in the
    /// [`WindowReport`]).
    pub fn sample_occupancy(&mut self, range: usize) {
        self.occupancy = Some(OccupancySampler {
            range,
            hist: Histogram::new(range),
            sum: 0,
        });
    }

    /// Discards the warm-up statistics and installs a fresh collector
    /// anchored at the current slot: from here on, latency samples only
    /// come from packets generated at or after this boundary. Returns the
    /// collector accumulated so far.
    pub fn begin_measurement(&mut self) -> SimStats {
        let fresh = SimStats::new(
            self.model.num_ports(),
            self.next_slot,
            self.max_latency_bucket,
        );
        std::mem::replace(&mut self.stats, fresh)
    }

    /// Enables telemetry on the model with a trace buffer of
    /// `trace_capacity` events (0 = unbounded).
    pub fn enable_telemetry(&mut self, trace_capacity: usize) {
        self.model.enable_telemetry(trace_capacity);
    }

    /// Advances the session by `n_slots` slots — THE stepping loop: every
    /// runner entry point, test harness and serve shard funnels through
    /// here. Returns the window's delta report.
    ///
    /// Hot-path memory contract: no per-slot allocation (the occupancy
    /// branch is hoisted out of the slot loop; the per-window report is
    /// built once after it).
    pub fn step_window(&mut self, n_slots: u64) -> WindowReport {
        let start = self.next_slot;
        let end = start + n_slots;
        let generated0 = self.stats.generated;
        let delivered0 = self.stats.delivered;
        let dropped0 = self.stats.dropped();
        let samples0 = self.stats.latency_samples();
        let latency_sum0 = self.stats.mean_latency() * samples0 as f64;

        // The sampler is taken out of the session for the duration of the
        // loop, so the per-slot body has no `Option` probe at all (per-slot
        // branch contract) and the borrow checker still allows `step_one`.
        let mut sampler = self.occupancy.take();
        if let Some(s) = sampler.as_mut() {
            for slot in start..end {
                self.step_one(slot);
                let backlog = self.model.buffered_packets() as u64;
                s.hist.add(backlog);
                s.sum += backlog;
            }
        } else {
            for slot in start..end {
                self.step_one(slot);
            }
        }
        self.occupancy = sampler;
        self.next_slot = end;

        let samples1 = self.stats.latency_samples();
        let window_samples = samples1 - samples0;
        let mean_latency = if window_samples == 0 {
            0.0
        } else {
            (self.stats.mean_latency() * samples1 as f64 - latency_sum0) / window_samples as f64
        };
        let (occupancy, mean_backlog) = match self.occupancy.as_mut() {
            Some(s) if n_slots > 0 => {
                let hist = std::mem::replace(&mut s.hist, Histogram::new(s.range));
                let mean = s.sum as f64 / n_slots as f64;
                s.sum = 0;
                (Some(hist), mean)
            }
            _ => (None, 0.0),
        };
        WindowReport {
            start_slot: start,
            slots: n_slots,
            generated: self.stats.generated - generated0,
            delivered: self.stats.delivered - delivered0,
            dropped: self.stats.dropped() - dropped0,
            latency_samples: window_samples,
            mean_latency,
            backlog: self.model.buffered_packets(),
            mean_backlog,
            occupancy,
        }
    }

    /// One slot of the model.
    fn step_one(&mut self, slot: u64) {
        self.model.step(
            slot,
            &mut self.traffic,
            self.rng.borrow_mut(),
            &mut self.stats,
        );
    }

    /// Graceful drain: swaps in `quiet` (a generator that produces no
    /// arrivals, e.g. [`Silence`](crate::traffic::Silence)) and steps one
    /// slot at a time until the model is empty or `deadline_slots` have
    /// elapsed.
    pub fn drain(&mut self, quiet: T, deadline_slots: u64) -> DrainReport {
        self.set_traffic(quiet);
        let start = self.next_slot;
        let delivered0 = self.stats.delivered;
        let deadline = start + deadline_slots;
        while self.model.buffered_packets() > 0 && self.next_slot < deadline {
            self.step_window(1);
        }
        let remaining = self.model.buffered_packets();
        DrainReport {
            start_slot: start,
            end_slot: self.next_slot,
            drained: remaining == 0,
            remaining_packets: remaining,
            delivered: self.stats.delivered - delivered0,
        }
    }
}
