//! # lcf-core — switch schedulers for input-queued crossbars
//!
//! This crate implements the **Least Choice First (LCF)** scheduling method of
//! Gura & Eberle (IPPS 2002) together with the baseline schedulers the paper
//! evaluates against. A scheduler solves one instance of the *switch
//! scheduling problem*: given an `n × n` boolean request matrix `R` (row `i`,
//! column `j` set iff input port `i` has at least one packet queued for output
//! port `j`), produce a conflict-free bipartite matching between input and
//! output ports for the next time slot.
//!
//! ## Schedulers
//!
//! | Type | Paper name | Idea |
//! |---|---|---|
//! | [`CentralLcf`](lcf::CentralLcf) | `lcf_central` / `lcf_central_rr` | schedule outputs sequentially, grant the requester with the *fewest* outstanding requests |
//! | [`DistributedLcf`](lcf::DistributedLcf) | `lcf_dist` / `lcf_dist_rr` | PIM-style iterative request/grant/accept prioritized by request/grant counts |
//! | [`Pim`](pim::Pim) | `pim` | random iterative matching (Anderson et al.) |
//! | [`Islip`](islip::Islip) | `islip` | rotating-pointer iterative matching (McKeown) |
//! | [`Wavefront`](wavefront::Wavefront) | `wfront` | wrapped wavefront arbiter (Tamir & Chi) |
//! | [`FifoRr`](fifo_rr::FifoRr) | `fifo` | single FIFO per input, round-robin conflict resolution |
//! | [`MaxSizeMatcher`](maxsize::MaxSizeMatcher) | `maxsize` | Hopcroft–Karp maximum-size matching (reference upper bound) |
//! | [`MaxWeightMatcher`](mwm::MaxWeightMatcher) | `mwm` | Hungarian exact maximum-weight matching (reference optimum) |
//! | [`NodeWeightedGreedy`](mwm::NodeWeightedGreedy) | `nwgreedy` | node-weighted greedy MWM approximation (Gupta/Sanghavi/Shroff) |
//! | [`GreedyWeight`](weighted::GreedyWeight) | `lqf` / `ocf` | edge-greedy weighted matching (½-approximation of MWM) |
//!
//! ## Quick example
//!
//! ```
//! use lcf_core::prelude::*;
//!
//! // The 4x4 request pattern of Fig. 3 in the paper.
//! let requests = RequestMatrix::from_pairs(4, [
//!     (0, 1), (0, 2),
//!     (1, 0), (1, 2), (1, 3),
//!     (2, 0), (2, 2), (2, 3),
//!     (3, 1),
//! ]);
//! let mut sched = CentralLcf::with_round_robin(4);
//! sched.advance_pointer(); // start from the Fig. 3 round-robin diagonal
//! let matching = sched.schedule(&requests);
//! assert!(matching.is_valid_for(&requests));
//! assert_eq!(matching.size(), 4); // LCF finds the full matching here
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bitkern;
pub mod bitmat;
#[cfg(feature = "check-invariants")]
pub mod check;
pub mod fifo_rr;
pub mod islip;
pub mod lcf;
pub mod matching;
pub mod maxsize;
pub mod multicast;
pub mod mwm;
pub mod pim;
pub mod registry;
pub mod request;
pub mod telemetry;
pub mod traits;
pub mod wavefront;
pub mod weighted;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::bitkern::Backend;
    pub use crate::bitmat::BitMatrix;
    #[cfg(feature = "check-invariants")]
    pub use crate::check::{CheckedScheduler, ScheduleChecker};
    pub use crate::fifo_rr::FifoRr;
    pub use crate::islip::Islip;
    pub use crate::lcf::{CentralLcf, DistributedLcf};
    pub use crate::matching::Matching;
    pub use crate::maxsize::MaxSizeMatcher;
    pub use crate::multicast::{FanoutSplit, McastGrant, McastPolicy};
    pub use crate::mwm::{MaxWeightMatcher, NodeWeightedGreedy};
    pub use crate::pim::Pim;
    pub use crate::registry::{BackendChoice, SchedulerKind, WeightedKind};
    pub use crate::request::RequestMatrix;
    pub use crate::traits::Scheduler;
    pub use crate::wavefront::Wavefront;
    pub use crate::weighted::{GreedyWeight, WeightGuarantee, WeightMatrix, WeightedScheduler};
}
