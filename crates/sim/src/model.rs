//! The [`SwitchModel`] trait and the shared [`drive`] slot loop.
//!
//! Every switch architecture in this crate advances one time slot at a
//! time under the same warm-up/measure protocol, and the models only
//! implement [`SwitchModel::step`]. There are two: the switch of Fig. 11
//! ([`IqSwitch`] / [`CrossbarSwitch`]), whose one input stage feeds either
//! the direct fabric or the buffered CIOQ fabric with speedup and
//! pipelining ([`IqSwitch::new_cioq`]), and the output-buffered reference
//! ([`ObSwitch`]).
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!                 │  drive(model, traffic, rng)   │
//!                 │  warm-up ──► measure ──► stats│
//!                 └──────┬────────────────────────┘
//!                        │ step()
//!            ┌───────────┴──────────────────┐
//!            ▼                              ▼
//!     IqSwitch (CrossbarSwitch)          ObSwitch
//!     input stage: PQ → VOQ / FIFO       no scheduler
//!     fabric: direct │ buffered
//!                      (speedup s,
//!                       pipeline L)
//! ```
//!
//! Telemetry stays inside the model: a model with a scheduler drains its
//! decision events right after scheduling, under the same per-slot
//! telemetry probe as its other events, and re-stamps them with its slot
//! clock. An untraced slot therefore makes no telemetry call at all.
//!
//! [`IqSwitch`]: crate::switch::IqSwitch
//! [`IqSwitch::new_cioq`]: crate::switch::IqSwitch::new_cioq
//! [`CrossbarSwitch`]: crate::switch::CrossbarSwitch
//! [`ObSwitch`]: crate::outbuf::ObSwitch

use crate::outbuf::ObSwitch;
use crate::stats::SimStats;
use crate::switch::{IqSwitch, SwitchTelemetry};
use crate::traffic::Traffic;
use rand::rngs::StdRng;

/// A slot-stepped switch architecture the shared [`drive`] loop can run.
///
/// The contract mirrors the scheduler hot-path memory contract
/// ([`Scheduler::schedule_into`](lcf_core::traits::Scheduler::schedule_into)):
/// [`step`](SwitchModel::step) must not allocate per slot — all queues,
/// request matrices and matching buffers are sized at construction and
/// reused. The repo's `hot-path-alloc` lint checks `step` bodies
/// mechanically.
pub trait SwitchModel {
    /// Number of ports.
    fn num_ports(&self) -> usize;

    /// Name of the scheduler driving the model (Fig. 12 legend name), or a
    /// fixed description for scheduler-less architectures.
    fn scheduler_name(&self) -> &'static str;

    /// Advances the model by one slot: arrivals, buffering, scheduling (if
    /// any) and output-link service, recording into `stats`.
    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    );

    /// Total packets currently buffered anywhere in the model.
    fn buffered_packets(&self) -> usize;

    /// Starts recording telemetry into a trace buffer of `trace_capacity`
    /// events (0 = unbounded). Default: ignored — models without telemetry
    /// record nothing.
    fn enable_telemetry(&mut self, _trace_capacity: usize) {}

    /// Stops recording and hands back the collected telemetry (None if
    /// telemetry was never enabled or the model has none).
    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        None
    }

    /// Replaces the scheduler driving the model (online reconfiguration
    /// between serve windows). Queue contents are preserved; the queueing
    /// discipline is fixed at construction. Default: unsupported.
    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        let _ = scheduler;
        Err(format!(
            "{} does not support scheduler swap",
            self.scheduler_name()
        ))
    }
}

/// Forwarding impl so a borrowed model (`&mut dyn SwitchModel`) can sit in
/// a [`DriveSession`](crate::session::DriveSession) exactly like an owned
/// one.
impl<M: SwitchModel + ?Sized> SwitchModel for &mut M {
    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }

    fn scheduler_name(&self) -> &'static str {
        (**self).scheduler_name()
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        (**self).step(slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        (**self).buffered_packets()
    }

    fn enable_telemetry(&mut self, trace_capacity: usize) {
        (**self).enable_telemetry(trace_capacity);
    }

    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        (**self).take_telemetry()
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        (**self).swap_scheduler(scheduler)
    }
}

/// Forwarding impl so an owned boxed model (`Box<dyn SwitchModel>`) can sit
/// in a [`DriveSession`](crate::session::DriveSession) (serve shards own
/// their models).
impl<M: SwitchModel + ?Sized> SwitchModel for Box<M> {
    fn num_ports(&self) -> usize {
        (**self).num_ports()
    }

    fn scheduler_name(&self) -> &'static str {
        (**self).scheduler_name()
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        (**self).step(slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        (**self).buffered_packets()
    }

    fn enable_telemetry(&mut self, trace_capacity: usize) {
        (**self).enable_telemetry(trace_capacity);
    }

    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        (**self).take_telemetry()
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        (**self).swap_scheduler(scheduler)
    }
}

/// Parameters of one [`drive`] run.
#[derive(Clone, Debug)]
pub struct DriveOptions {
    /// Slots run with a throwaway stats collector so queues reach steady
    /// state before measurement.
    pub warmup_slots: u64,
    /// Slots in the measurement window.
    pub measure_slots: u64,
    /// Upper bound of the latency histogram in slots.
    pub max_latency_bucket: usize,
    /// `Some(cap)` enables telemetry for the measurement window with a trace
    /// buffer of `cap` events (0 = unbounded).
    pub trace_capacity: Option<usize>,
}

impl DriveOptions {
    /// Untraced run: `warmup_slots` warm-up, `measure_slots` measured.
    pub fn new(warmup_slots: u64, measure_slots: u64, max_latency_bucket: usize) -> Self {
        DriveOptions {
            warmup_slots,
            measure_slots,
            max_latency_bucket,
            trace_capacity: None,
        }
    }

    /// Enables telemetry over the measurement window (builder style).
    pub fn traced(mut self, trace_capacity: usize) -> Self {
        self.trace_capacity = Some(trace_capacity);
        self
    }
}

/// The single warm-up/measure slot loop shared by every switch model and
/// every runner entry point (`run_sim`, `run_sim_with_stats`,
/// `run_sim_traced`, tests and benches).
///
/// Protocol:
///
/// 1. **Warm-up** — `warmup_slots` steps against a throwaway stats
///    collector, so the measurement below starts from steady-state queues.
/// 2. **Telemetry on** (traced runs only) — enabled *after* warm-up, so the
///    trace describes exactly the slots the returned statistics do.
/// 3. **Measure** — `measure_slots` steps into a fresh [`SimStats`] whose
///    latency samples only come from packets generated inside the window.
///
/// Collect the trace of a traced run afterwards with
/// [`SwitchModel::take_telemetry`].
///
/// Returns the measurement-window statistics.
pub fn drive(
    model: &mut dyn SwitchModel,
    traffic: &mut dyn Traffic,
    rng: &mut StdRng,
    opts: &DriveOptions,
) -> SimStats {
    let mut session =
        crate::session::DriveSession::new(model, traffic, rng, opts.max_latency_bucket);
    session.step_window(opts.warmup_slots);
    if let Some(cap) = opts.trace_capacity {
        session.enable_telemetry(cap);
    }
    session.begin_measurement();
    session.step_window(opts.measure_slots);
    session.into_stats()
}

impl SwitchModel for IqSwitch {
    fn num_ports(&self) -> usize {
        self.n()
    }

    fn scheduler_name(&self) -> &'static str {
        IqSwitch::scheduler_name(self)
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        IqSwitch::step(self, slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        IqSwitch::buffered_packets(self)
    }

    fn enable_telemetry(&mut self, trace_capacity: usize) {
        IqSwitch::enable_telemetry(self, trace_capacity);
    }

    fn take_telemetry(&mut self) -> Option<Box<SwitchTelemetry>> {
        IqSwitch::take_telemetry(self)
    }

    fn swap_scheduler(
        &mut self,
        scheduler: Box<dyn lcf_core::traits::Scheduler + Send>,
    ) -> Result<(), String> {
        IqSwitch::swap_scheduler(self, scheduler).map(|_| ())
    }
}

impl SwitchModel for ObSwitch {
    fn num_ports(&self) -> usize {
        self.n()
    }

    fn scheduler_name(&self) -> &'static str {
        "n/a (no scheduler)"
    }

    fn step(
        &mut self,
        slot: u64,
        traffic: &mut dyn Traffic,
        rng: &mut StdRng,
        stats: &mut SimStats,
    ) {
        ObSwitch::step(self, slot, traffic, rng, stats);
    }

    fn buffered_packets(&self) -> usize {
        ObSwitch::buffered_packets(self)
    }

    // Telemetry hooks keep their no-op defaults: the output-buffered model
    // has no scheduler to trace, and its traced runs report empty telemetry
    // by contract (see tests/telemetry_equiv.rs).
}
