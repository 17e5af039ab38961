//! The Least Choice First schedulers — the paper's contribution.
//!
//! Both variants implement the same idea: requesters with *fewer* outstanding
//! requests have *fewer* choices, so they are matched first; requesters with
//! many choices can still be accommodated afterwards. This greedy order
//! empirically maximizes matching size (Sec. 3 of the paper).
//!
//! * [`CentralLcf`] — the sequential algorithm of Fig. 2, `O(n)` time with
//!   global knowledge. Intended for narrow switches.
//! * [`DistributedLcf`] — the iterative request/grant/accept algorithm of
//!   Sec. 5, `O(log² n)` expected iterations (measured in EXT-2) with
//!   per-port knowledge only. Intended for wide switches.
//!
//! Each comes in a *pure* flavor (maximum throughput, no starvation
//! protection) and a *round-robin* flavor (`*_rr` in the paper's plots) that
//! pre-grants one rotating matrix position per cycle, giving a hard bandwidth
//! lower bound of `b/n²` per requester/resource pair.

mod central;
mod distributed;

pub use crate::telemetry::IterationTrace;
pub use central::{CentralLcf, RrPolicy};
pub use distributed::DistributedLcf;
