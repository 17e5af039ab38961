//! # lcf-telemetry — deterministic observability primitives
//!
//! The paper's argument is built from *per-slot decisions* — who had the
//! fewest choices, who held the round-robin position, how a tie broke — so
//! this crate provides the plumbing to record those decisions without
//! compromising the repo's reproducibility contract:
//!
//! * [`clock::SlotClock`] — a slot/cycle time base. Simulation telemetry is
//!   stamped with slot counts, never wall clocks (`lcf-lint` forbids
//!   `SystemTime`/`Instant` in deterministic code, and this crate honors the
//!   same rule).
//! * [`metrics::MetricsRegistry`] — counters, gauges and mergeable
//!   [`hist::Histogram`]s keyed by names, exported as deterministic JSON
//!   (keys sorted, insertion-independent).
//! * [`trace::TraceBuffer`] — a bounded ring buffer of [`trace::Event`]s
//!   with JSON-Lines export. Under a fixed seed the exported bytes are
//!   identical run over run, which is what makes traces *testable* (golden
//!   fixtures, equivalence checks) rather than merely printable.
//!
//! The crate is dependency-free; JSON is written by the in-tree
//! [`json::Value`] writer. Everything here is plain data — no global state,
//! no I/O — so instrumented code stays easy to reason about, and an
//! untraced consumer pays for nothing but its `Option` check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod trace;

pub use clock::SlotClock;
pub use hist::{CdfPoint, Histogram, Quantile};
pub use json::Value;
pub use metrics::MetricsRegistry;
pub use trace::{Event, TraceBuffer};
