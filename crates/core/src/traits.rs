//! The scheduler interface.

use crate::matching::Matching;
use crate::request::RequestMatrix;

/// A switch scheduler: computes a conflict-free matching for one time slot.
///
/// Schedulers are stateful — round-robin pointers, diagonals and RNGs evolve
/// from slot to slot — which is why
/// [`schedule_into`](Scheduler::schedule_into) takes `&mut self`. Every
/// implementation guarantees:
///
/// * the produced matching [`is_valid_for`](Matching::is_valid_for) the
///   request matrix (only requested pairs are connected, no conflicts), and
/// * `requests.n() == self.num_ports()` is required (checked with an assert).
///
/// # Hot-path memory contract
///
/// `schedule_into` is the primary entry point and must not allocate: the
/// caller owns the output buffer (reused slot after slot), and per-call
/// scratch lives in the scheduler as workhorse state sized at construction.
/// The buffer may arrive *dirty* — implementations [`Matching::reset`] it
/// before granting, so stale pairs from the previous slot can never leak
/// into the new schedule. The repo-specific `hot-path-alloc` lint rule
/// enforces the no-allocation side mechanically. [`schedule`] is a
/// convenience shim for tests and one-shot callers; it allocates a fresh
/// buffer per call and delegates.
///
/// [`schedule`]: Scheduler::schedule
pub trait Scheduler {
    /// Short identifier matching the names used in the paper's Fig. 12
    /// legend (`lcf_central`, `pim`, `islip`, …).
    fn name(&self) -> &'static str;

    /// Number of switch ports this scheduler instance was built for.
    fn num_ports(&self) -> usize;

    /// Computes the matching for the next time slot into `out` (resetting
    /// it first — the buffer may be dirty) and advances internal
    /// round-robin state. This is the allocation-free primary method; see
    /// the trait-level hot-path memory contract.
    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching);

    /// Computes the matching for the next time slot and advances internal
    /// round-robin state. Convenience shim over
    /// [`schedule_into`](Scheduler::schedule_into): allocates a fresh
    /// output buffer per call, so keep it out of per-slot loops.
    fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
        let mut out = Matching::new(self.num_ports());
        self.schedule_into(requests, &mut out);
        out
    }

    /// Resets all internal state (pointers, RNG is *not* reseeded).
    fn reset(&mut self) {}

    /// Enables or disables per-decision tracing. While tracing, a scheduler
    /// records *why* each grant happened; the records are collected with
    /// [`drain_events`](Scheduler::drain_events). Default: ignored —
    /// schedulers without instrumentation trace nothing.
    ///
    /// Tracing never changes the schedule: instrumented schedulers run the
    /// kernel they were configured with and record from its output.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains the decision events recorded since the last drain into
    /// `sink`. Events are stamped with slot 0 — the switch model re-stamps
    /// them with the current slot before they enter the trace. Default: no
    /// events.
    fn drain_events(&mut self, _sink: &mut dyn FnMut(lcf_telemetry::Event)) {}
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        (**self).schedule_into(requests, out)
    }

    fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
        (**self).schedule(requests)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn set_tracing(&mut self, enabled: bool) {
        (**self).set_tracing(enabled)
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        (**self).drain_events(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcf::CentralLcf;

    #[test]
    fn boxed_scheduler_delegates() {
        let mut boxed: Box<dyn Scheduler> = Box::new(CentralLcf::with_round_robin(4));
        assert_eq!(boxed.num_ports(), 4);
        assert_eq!(boxed.name(), "lcf_central_rr");
        let requests = RequestMatrix::from_pairs(4, [(0, 0)]);
        let m = boxed.schedule(&requests);
        assert_eq!(m.size(), 1);
        boxed.reset();
    }

    #[test]
    fn boxed_schedule_into_resets_a_dirty_buffer() {
        let mut boxed: Box<dyn Scheduler> = Box::new(CentralLcf::with_round_robin(4));
        let requests = RequestMatrix::from_pairs(4, [(1, 2)]);
        // Dirty buffer of the wrong size with a stale pair.
        let mut out = Matching::from_pairs(3, [(0, 0)]);
        boxed.schedule_into(&requests, &mut out);
        assert_eq!(out.n(), 4);
        assert_eq!(out.pairs().collect::<Vec<_>>(), vec![(1, 2)]);
    }
}
