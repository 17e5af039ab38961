//! # lcf-sim — slot-based input-queued switch simulator
//!
//! Implements the simulation model of the paper's Fig. 11: packet generators
//! (`PG`) feed per-input packet queues (`PQ`), which spill into virtual
//! output queues (`VOQ`); a [scheduler](lcf_core::traits::Scheduler) connects
//! inputs to outputs through a non-blocking fabric once per time slot.
//!
//! Two switch models are built, both behind the [`model::SwitchModel`]
//! trait:
//!
//! * [`switch::IqSwitch`] (alias [`switch::CrossbarSwitch`]): one input
//!   stage — PQs spilling into VOQs, used by all VOQ schedulers
//!   (`lcf_central`, `pim`, `islip`, …), or into a single FIFO per input,
//!   the `fifo` baseline exhibiting head-of-line blocking — in front of a
//!   fabric stage. The fabric is either direct (matched packets leave in
//!   the same slot) or buffered ([`cioq`]: combined input/output queueing
//!   with fabric speedup and pipelined scheduling),
//! * [`outbuf::ObSwitch`] — the output-buffered reference (`outbuf`).
//!
//! One windowed slot loop, [`session::DriveSession`], runs them all: the
//! one-shot [`model::drive`] protocol is a thin warm-up + measurement
//! wrapper over it, the [`runner`] module adds config handling and parallel
//! load sweeps (one simulation per thread; each simulation is
//! single-threaded and fully deterministic under its seed), and the
//! [`serve`] module keeps sharded sessions alive across measurement
//! windows with merged telemetry and online reconfiguration.
//!
//! ```
//! use lcf_sim::prelude::*;
//!
//! let cfg = SimConfig {
//!     model: ModelKind::Scheduler(SchedulerKind::LcfCentral),
//!     load: 0.5,
//!     warmup_slots: 1_000,
//!     measure_slots: 5_000,
//!     ..SimConfig::paper_default()
//! };
//! let report = run_sim(&cfg);
//! assert!(report.mean_latency() < 5.0); // light load, tiny delay
//! assert!(report.delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cioq;
pub mod config;
pub mod model;
pub mod outbuf;
pub mod packet;
pub mod queues;
pub mod runner;
pub mod serve;
pub mod session;
pub mod stats;
pub mod switch;
pub mod traffic;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::{ModelKind, SimConfig};
    pub use crate::model::{drive, DriveOptions, SwitchModel};
    pub use crate::outbuf::ObSwitch;
    pub use crate::packet::Packet;
    pub use crate::runner::{run_sim, sweep, SimReport};
    pub use crate::serve::{serve, ControlScript, ServeConfig, ServeOutcome};
    pub use crate::session::{DrainReport, DriveSession, WindowReport};
    pub use crate::stats::SimStats;
    pub use crate::switch::{CrossbarSwitch, IqSwitch, QueueMode};
    pub use crate::traffic::{DestPattern, Silence, Traffic};
    pub use lcf_core::prelude::*;
}
