//! Machine-checked schedule invariants — the `ScheduleChecker`.
//!
//! The paper's central claims are structural: every slot produces a
//! conflict-free matching, grants are a subset of requests, the greedy
//! schedulers produce *maximal* matchings, and the rotating round-robin
//! position gives Central LCF its hard `b/n²` bandwidth floor. This module
//! turns those claims into executable checks that run on every matching a
//! scheduler emits:
//!
//! * [`check_matching`] — permutation validity (no input or output matched
//!   twice, sizes agree) and grant ⊆ request,
//! * [`check_maximal`] — no augmenting single edge exists (an unmatched
//!   input still requesting an unmatched output),
//! * [`check_central_precedence`] — the Fig. 2 round-robin precedence rules
//!   of [`CentralLcf`](crate::lcf::CentralLcf), replayed from the request
//!   matrix, the pre-advance `(I, J)` pointer and the produced matching,
//! * [`CheckedScheduler`] — a wrapper that validates every matching at the
//!   [`Matching`] seam and optionally runs a scalar *shadow* scheduler to
//!   assert bit-identical scalar-vs-bitset agreement slot by slot.
//!
//! The module is compiled behind the `check-invariants` feature (a default
//! feature of `lcf-core`). The simulator wires [`CheckedScheduler`] into its
//! slot loop in debug builds only, so release throughput is unaffected while
//! every `cargo test` run double-checks each scheduling decision.

use crate::lcf::RrPolicy;
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::traits::Scheduler;
use crate::weighted::{matching_weight, WeightGuarantee, WeightMatrix, WeightedScheduler};

/// A violated schedule invariant, with the witnessing ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The matching and the request matrix disagree on the port count.
    SizeMismatch {
        /// Port count of the matching.
        matching_n: usize,
        /// Port count of the request matrix.
        requests_n: usize,
    },
    /// The two direction maps of the matching disagree — some port is
    /// matched twice (never reachable through [`Matching::connect`]).
    Conflict,
    /// The matching connects a pair nobody requested.
    Ungranted {
        /// Input of the unrequested connection.
        input: usize,
        /// Output of the unrequested connection.
        output: usize,
    },
    /// An augmenting single edge exists: `input` is unmatched, requests
    /// `output`, and `output` is unmatched too.
    NotMaximal {
        /// The unmatched requesting input.
        input: usize,
        /// The unmatched requested output.
        output: usize,
    },
    /// A round-robin precedence rule of Central LCF was not honored.
    RrPrecedence {
        /// The fairness policy whose rule was violated.
        policy: RrPolicy,
        /// The input that should have been favored.
        input: usize,
        /// The output the favored input should have won.
        output: usize,
        /// What the matching actually gave that input.
        got: Option<usize>,
    },
    /// Scalar and bitset kernels produced different matchings for the same
    /// request matrix (they are required to be bit-identical).
    BackendDivergence {
        /// Name of the diverging scheduler.
        scheduler: &'static str,
    },
    /// A weighted matching connected a pair whose weight is zero — the
    /// weighted analogue of [`Violation::Ungranted`].
    ZeroWeightGrant {
        /// Input of the zero-weight connection.
        input: usize,
        /// Output of the zero-weight connection.
        output: usize,
    },
    /// A weighted scheduler's matching fell short of the weight bound its
    /// [`WeightGuarantee`] promises relative to the Hungarian optimum.
    WeightBound {
        /// Total weight the scheduler achieved.
        achieved: u128,
        /// Exact maximum-weight matching value for the same matrix.
        optimal: u128,
        /// The promise that was broken.
        guarantee: WeightGuarantee,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::SizeMismatch {
                matching_n,
                requests_n,
            } => write!(
                f,
                "matching is over {matching_n} ports but requests over {requests_n}"
            ),
            Violation::Conflict => write!(f, "matching is not conflict-free"),
            Violation::Ungranted { input, output } => write!(
                f,
                "matching connects ({input}, {output}) which was never requested"
            ),
            Violation::NotMaximal { input, output } => write!(
                f,
                "augmenting edge exists: unmatched input {input} requests unmatched output {output}"
            ),
            Violation::RrPrecedence {
                policy,
                input,
                output,
                got,
            } => write!(
                f,
                "{policy:?} precedence: input {input} should have won output {output}, got {got:?}"
            ),
            Violation::BackendDivergence { scheduler } => {
                write!(f, "{scheduler}: scalar and bitset kernels diverged")
            }
            Violation::ZeroWeightGrant { input, output } => write!(
                f,
                "matching connects ({input}, {output}) whose weight is zero"
            ),
            Violation::WeightBound {
                achieved,
                optimal,
                guarantee,
            } => write!(
                f,
                "weight bound broken: achieved {achieved} vs optimal {optimal} under {guarantee:?}"
            ),
        }
    }
}

/// Checks permutation validity and grant ⊆ request.
///
/// Passes iff the matching is over the same port count as `requests`, is
/// conflict-free (no input or output appears twice across both direction
/// maps), and only connects requested pairs.
pub fn check_matching(requests: &RequestMatrix, matching: &Matching) -> Result<(), Violation> {
    if matching.n() != requests.n() {
        return Err(Violation::SizeMismatch {
            matching_n: matching.n(),
            requests_n: requests.n(),
        });
    }
    if !matching.is_conflict_free() {
        return Err(Violation::Conflict);
    }
    for (i, j) in matching.pairs() {
        if !requests.get(i, j) {
            return Err(Violation::Ungranted {
                input: i,
                output: j,
            });
        }
    }
    Ok(())
}

/// Checks maximality: no unmatched input may still request an unmatched
/// output (the "no augmenting single edge" condition). Returns the witness
/// edge on failure.
pub fn check_maximal(requests: &RequestMatrix, matching: &Matching) -> Result<(), Violation> {
    for i in 0..matching.n() {
        if matching.input_matched(i) {
            continue;
        }
        for j in requests.row_ones(i) {
            if !matching.output_matched(j) {
                return Err(Violation::NotMaximal {
                    input: i,
                    output: j,
                });
            }
        }
    }
    Ok(())
}

/// Checks the weighted analogue of [`check_matching`] + [`check_maximal`]:
/// permutation validity, grant ⊆ positive-weight request, and maximality
/// over the positive-weight pattern. Maximality is unconditional here
/// because every weighted scheduler in the repo (edge-greedy, node-weighted
/// greedy, Hungarian) produces maximal matchings — with non-negative
/// weights, a non-maximal matching is always improvable by the uncovered
/// positive edge.
///
/// Allocation-free, so the simulator's slot loop can run it per slot.
pub fn check_weighted_matching(
    weights: &WeightMatrix,
    matching: &Matching,
) -> Result<(), Violation> {
    let n = weights.n();
    if matching.n() != n {
        return Err(Violation::SizeMismatch {
            matching_n: matching.n(),
            requests_n: n,
        });
    }
    if !matching.is_conflict_free() {
        return Err(Violation::Conflict);
    }
    for (i, j) in matching.pairs() {
        if weights.get(i, j) == 0 {
            return Err(Violation::ZeroWeightGrant {
                input: i,
                output: j,
            });
        }
    }
    for i in 0..n {
        if matching.input_matched(i) {
            continue;
        }
        for j in 0..n {
            if weights.get(i, j) > 0 && !matching.output_matched(j) {
                return Err(Violation::NotMaximal {
                    input: i,
                    output: j,
                });
            }
        }
    }
    Ok(())
}

/// A [`WeightedScheduler`] wrapper that validates every matching with
/// [`check_weighted_matching`] and holds the scheduler to its
/// [`WeightGuarantee`] against a Hungarian oracle
/// ([`MaxWeightMatcher`](crate::mwm::MaxWeightMatcher)): `Exact` matchings
/// must equal the optimum's weight, `HalfOfOptimal` must reach at least
/// half of it, and `Heuristic` skips the oracle (validity checks only).
///
/// Violations are programming errors, so `schedule_weighted` panics with
/// the [`Violation`] in the message — the same contract as
/// [`CheckedScheduler`]. Built by
/// [`WeightedKind::build_checked`](crate::registry::WeightedKind::build_checked);
/// the simulator's weighted path uses that constructor in debug builds.
pub struct CheckedWeightedScheduler {
    inner: Box<dyn WeightedScheduler + Send>,
    guarantee: WeightGuarantee,
    // Constructor-sized oracle: its scratch is reused across slots, so the
    // per-slot check honors the hot-path memory contract.
    oracle: crate::mwm::MaxWeightMatcher,
}

impl CheckedWeightedScheduler {
    /// Wraps `inner`, enforcing `guarantee` on every matching.
    pub fn new(inner: Box<dyn WeightedScheduler + Send>, guarantee: WeightGuarantee) -> Self {
        let oracle = crate::mwm::MaxWeightMatcher::new(inner.num_ports());
        CheckedWeightedScheduler {
            inner,
            guarantee,
            oracle,
        }
    }
}

impl WeightedScheduler for CheckedWeightedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }

    fn schedule_weighted_into(&mut self, weights: &WeightMatrix, out: &mut Matching) {
        self.inner.schedule_weighted_into(weights, out);
        if let Err(v) = check_weighted_matching(weights, out) {
            // lint:allow(no-panic): the checker's purpose is to abort on a broken scheduler invariant
            panic!("{}: weighted invariant violated: {v}", self.inner.name());
        }
        let bound_holds = |achieved: u128, optimal: u128| match self.guarantee {
            WeightGuarantee::Exact => achieved == optimal,
            WeightGuarantee::HalfOfOptimal => 2 * achieved >= optimal,
            WeightGuarantee::Heuristic => true,
        };
        if self.guarantee != WeightGuarantee::Heuristic {
            let achieved = matching_weight(weights, out);
            let optimal = self.oracle.max_matching_weight(weights);
            if !bound_holds(achieved, optimal) {
                let v = Violation::WeightBound {
                    achieved,
                    optimal,
                    guarantee: self.guarantee,
                };
                // lint:allow(no-panic): a broken approximation bound is a correctness bug, not a recoverable state
                panic!("{}: {v}", self.inner.name());
            }
        }
    }
}

/// Checks the round-robin precedence rules of
/// [`CentralLcf`](crate::lcf::CentralLcf) by replaying the Fig. 2 schedule
/// order from the *pre-advance* pointer offsets `(i_off, j_off)`.
///
/// The replay relies only on facts derivable from the inputs and the
/// produced matching: resources are scheduled in the order `res = 0..n`
/// (resource `(res + j_off) % n`), so the step at which each granted output
/// was scheduled is known, and a requester's row is intact at step `res` iff
/// its grant (if any) happened at step `≥ res`. The checkable rules per
/// policy:
///
/// * `Diagonal` — at every step whose diagonal requester still has its row
///   intact and requests the step's resource, that requester must win it.
/// * `SinglePosition` — if `[I, J]` is requested, input `I` must win `J`
///   (position `[I, J]` is examined at step 0, when nothing is withdrawn).
/// * `Row` — input `I` must win the first resource (in schedule order) that
///   it requests.
/// * `Column` — resource `J` must go to its first requester in the rotating
///   order starting at `I`, regardless of request counts.
/// * `PriorityDiagonal` — the pre-pass grants every requested diagonal
///   position whose input and output are still free, before anything else.
/// * `None` — no fairness rule; nothing to check.
pub fn check_central_precedence(
    policy: RrPolicy,
    i_off: usize,
    j_off: usize,
    requests: &RequestMatrix,
    matching: &Matching,
) -> Result<(), Violation> {
    let n = requests.n();
    // Step (in the Fig. 2 resource loop) at which output `o` was scheduled.
    let step_of = |o: usize| (o + n - j_off) % n;
    let require = |input: usize, output: usize| -> Result<(), Violation> {
        if matching.output_for(input) == Some(output) {
            Ok(())
        } else {
            Err(Violation::RrPrecedence {
                policy,
                input,
                output,
                got: matching.output_for(input),
            })
        }
    };

    match policy {
        RrPolicy::None => Ok(()),
        RrPolicy::Diagonal => {
            for res in 0..n {
                let resource = (res + j_off) % n;
                let diag = (i_off + res) % n;
                if !requests.get(diag, resource) {
                    continue;
                }
                // The diagonal requester's row was withdrawn before this
                // step iff it won an earlier-scheduled resource.
                let granted_earlier = matching.output_for(diag).is_some_and(|o| step_of(o) < res);
                if granted_earlier {
                    continue;
                }
                require(diag, resource)?;
            }
            Ok(())
        }
        RrPolicy::SinglePosition => {
            if requests.get(i_off, j_off) {
                require(i_off, j_off)?;
            }
            Ok(())
        }
        RrPolicy::Row => {
            for res in 0..n {
                let resource = (res + j_off) % n;
                if requests.get(i_off, resource) {
                    // First requested resource in schedule order: the
                    // favored row must win exactly this one.
                    return require(i_off, resource);
                }
            }
            Ok(())
        }
        RrPolicy::Column => {
            let winner = crate::arbiter::select_rotating(n, i_off, |req| requests.get(req, j_off));
            if let Some(w) = winner {
                require(w, j_off)?;
            }
            Ok(())
        }
        RrPolicy::PriorityDiagonal => {
            let mut in_used = vec![false; n];
            let mut out_used = vec![false; n];
            for res in 0..n {
                let di = (i_off + res) % n;
                let dj = (j_off + res) % n;
                if requests.get(di, dj) && !in_used[di] && !out_used[dj] {
                    require(di, dj)?;
                    in_used[di] = true;
                    out_used[dj] = true;
                }
            }
            Ok(())
        }
    }
}

/// Declarative checker for one scheduler's matchings.
///
/// Construct once per scheduler, then [`check`](ScheduleChecker::check)
/// every matching the scheduler emits. Maximality is opt-in because the
/// single-iteration iterative schedulers legitimately produce non-maximal
/// matchings.
///
/// ```
/// use lcf_core::check::ScheduleChecker;
/// use lcf_core::prelude::*;
///
/// let requests = RequestMatrix::from_pairs(4, [(0, 1), (2, 3)]);
/// let mut sched = CentralLcf::with_round_robin(4);
/// let m = sched.schedule(&requests);
/// ScheduleChecker::new().require_maximal(true).check(&requests, &m).unwrap();
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleChecker {
    maximal: bool,
}

impl ScheduleChecker {
    /// A checker that validates permutation validity and grant ⊆ request.
    pub fn new() -> Self {
        ScheduleChecker { maximal: false }
    }

    /// Additionally require maximality (builder style).
    pub fn require_maximal(mut self, yes: bool) -> Self {
        self.maximal = yes;
        self
    }

    /// Runs all configured checks against one scheduling decision.
    pub fn check(&self, requests: &RequestMatrix, matching: &Matching) -> Result<(), Violation> {
        check_matching(requests, matching)?;
        if self.maximal {
            check_maximal(requests, matching)?;
        }
        Ok(())
    }
}

/// A [`Scheduler`] wrapper that checks every matching at the [`Matching`]
/// seam, and optionally replays each request matrix through a *shadow*
/// scheduler (the scalar twin of a bitset-backed primary) to assert that
/// both kernels stay bit-identical slot after slot.
///
/// Violations are programming errors in a scheduler kernel, not runtime
/// conditions a caller could handle, so `schedule` panics with the
/// [`Violation`] rendered into the message. Built by
/// [`SchedulerKind::build_checked`](crate::registry::SchedulerKind::build_checked);
/// the simulator uses that constructor in debug builds.
pub struct CheckedScheduler {
    inner: Box<dyn Scheduler + Send>,
    shadow: Option<Box<dyn Scheduler + Send>>,
    checker: ScheduleChecker,
    // Reused output buffer for the shadow's matching, so the divergence
    // check honors the hot-path memory contract too.
    twin: Matching,
}

impl CheckedScheduler {
    /// Wraps `inner`, validating every matching with `checker`.
    pub fn new(inner: Box<dyn Scheduler + Send>, checker: ScheduleChecker) -> Self {
        let twin = Matching::new(inner.num_ports());
        CheckedScheduler {
            inner,
            shadow: None,
            checker,
            twin,
        }
    }

    /// Adds a shadow scheduler whose matchings must be identical to the
    /// primary's on every slot (builder style). The shadow must be the same
    /// algorithm over a different kernel backend, built with the same seed.
    pub fn with_shadow(mut self, shadow: Box<dyn Scheduler + Send>) -> Self {
        assert_eq!(
            shadow.num_ports(),
            self.inner.num_ports(),
            "shadow port count mismatch"
        );
        self.shadow = Some(shadow);
        self
    }
}

impl Scheduler for CheckedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_ports(&self) -> usize {
        self.inner.num_ports()
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        self.inner.schedule_into(requests, out);
        if let Err(v) = self.checker.check(requests, out) {
            // lint:allow(no-panic): the checker's purpose is to abort on a broken scheduler invariant
            panic!("{}: schedule invariant violated: {v}", self.inner.name());
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.schedule_into(requests, &mut self.twin);
            if self.twin != *out {
                let v = Violation::BackendDivergence {
                    scheduler: self.inner.name(),
                };
                // lint:allow(no-panic): kernel divergence is a correctness bug, not a recoverable state
                panic!("{v}: primary {out:?} vs shadow {:?}", self.twin);
            }
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        if let Some(shadow) = &mut self.shadow {
            shadow.reset();
        }
    }

    // Tracing applies to the primary only: the shadow's job is divergence
    // detection, and tracing never changes a schedule.
    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.inner.drain_events(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcf::CentralLcf;

    fn requests() -> RequestMatrix {
        RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1), (2, 3)])
    }

    #[test]
    fn valid_matching_passes() {
        let m = Matching::from_pairs(4, [(0, 0), (1, 1), (2, 3)]);
        assert_eq!(check_matching(&requests(), &m), Ok(()));
        assert_eq!(check_maximal(&requests(), &m), Ok(()));
    }

    #[test]
    fn ungranted_pair_is_caught() {
        let m = Matching::from_pairs(4, [(3, 2)]);
        assert_eq!(
            check_matching(&requests(), &m),
            Err(Violation::Ungranted {
                input: 3,
                output: 2
            })
        );
    }

    #[test]
    fn size_mismatch_is_caught() {
        let m = Matching::new(3);
        assert!(matches!(
            check_matching(&requests(), &m),
            Err(Violation::SizeMismatch { .. })
        ));
    }

    #[test]
    fn augmenting_edge_is_caught() {
        // Input 2 could still reach free output 3.
        let m = Matching::from_pairs(4, [(0, 0), (1, 1)]);
        assert_eq!(
            check_maximal(&requests(), &m),
            Err(Violation::NotMaximal {
                input: 2,
                output: 3
            })
        );
    }

    #[test]
    fn checker_builder_combines_rules() {
        let m = Matching::from_pairs(4, [(0, 0), (1, 1)]);
        assert!(ScheduleChecker::new().check(&requests(), &m).is_ok());
        assert!(ScheduleChecker::new()
            .require_maximal(true)
            .check(&requests(), &m)
            .is_err());
    }

    #[test]
    fn diagonal_precedence_violation_is_caught() {
        // I = 1, J = 0: requester 1 requests resource 0 with its row intact
        // at step 0, so (1, 0) must be granted. Granting (0, 0) instead is a
        // precedence violation.
        let r = requests();
        let bad = Matching::from_pairs(4, [(0, 0), (1, 1)]);
        let err = check_central_precedence(RrPolicy::Diagonal, 1, 0, &r, &bad);
        assert_eq!(
            err,
            Err(Violation::RrPrecedence {
                policy: RrPolicy::Diagonal,
                input: 1,
                output: 0,
                got: Some(1),
            })
        );
        let good = Matching::from_pairs(4, [(1, 0), (2, 3)]);
        assert_eq!(
            check_central_precedence(RrPolicy::Diagonal, 1, 0, &r, &good),
            Ok(())
        );
    }

    #[test]
    fn diagonal_precedence_accepts_earlier_withdrawal() {
        // I = 0, J = 0 over requests where input 1 requests both 0 and 1.
        // If input 1 won resource 0 at step 0, its row is withdrawn at step
        // 1 and the diagonal position (1, 1) imposes nothing.
        let r = RequestMatrix::from_pairs(4, [(1, 0), (1, 1)]);
        let m = Matching::from_pairs(4, [(1, 0)]);
        assert_eq!(
            check_central_precedence(RrPolicy::Diagonal, 1, 0, &r, &m),
            Ok(())
        );
    }

    #[test]
    fn real_scheduler_satisfies_its_own_precedence() {
        for policy in [
            RrPolicy::None,
            RrPolicy::SinglePosition,
            RrPolicy::Row,
            RrPolicy::Column,
            RrPolicy::Diagonal,
            RrPolicy::PriorityDiagonal,
        ] {
            let mut sched = CentralLcf::with_policy(4, policy);
            for _ in 0..20 {
                let (i, j) = sched.pointer();
                let m = sched.schedule(&requests());
                assert_eq!(
                    check_central_precedence(policy, i, j, &requests(), &m),
                    Ok(()),
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn checked_scheduler_delegates_and_passes() {
        let inner = Box::new(CentralLcf::with_round_robin(4));
        let mut checked =
            CheckedScheduler::new(inner, ScheduleChecker::new().require_maximal(true))
                .with_shadow(Box::new(CentralLcf::with_round_robin(4)));
        assert_eq!(checked.name(), "lcf_central_rr");
        assert_eq!(checked.num_ports(), 4);
        for _ in 0..10 {
            let m = checked.schedule(&requests());
            assert!(m.is_valid_for(&requests()));
        }
        checked.reset();
    }

    #[test]
    #[should_panic(expected = "scalar and bitset kernels diverged")]
    fn checked_scheduler_catches_shadow_divergence() {
        // A desynchronized shadow (pointer advanced once) diverges on the
        // Fig. 3 matrix.
        let inner = Box::new(CentralLcf::with_round_robin(4));
        let mut shadow = CentralLcf::with_round_robin(4);
        shadow.advance_pointer();
        let mut checked =
            CheckedScheduler::new(inner, ScheduleChecker::new()).with_shadow(Box::new(shadow));
        let r = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1)]);
        let _ = checked.schedule(&r);
    }

    #[test]
    fn violation_messages_render() {
        let v = Violation::Ungranted {
            input: 1,
            output: 2,
        };
        assert!(v.to_string().contains("(1, 2)"));
        let v = Violation::BackendDivergence { scheduler: "pim" };
        assert!(v.to_string().contains("pim"));
        let v = Violation::ZeroWeightGrant {
            input: 0,
            output: 3,
        };
        assert!(v.to_string().contains("(0, 3)"));
        let v = Violation::WeightBound {
            achieved: 10,
            optimal: 18,
            guarantee: WeightGuarantee::Exact,
        };
        assert!(v.to_string().contains("10"));
        assert!(v.to_string().contains("18"));
    }

    fn weights() -> WeightMatrix {
        WeightMatrix::from_triples(4, [(0, 0, 5), (1, 0, 2), (1, 1, 9), (2, 3, 1)])
    }

    #[test]
    fn weighted_valid_matching_passes() {
        let m = Matching::from_pairs(4, [(0, 0), (1, 1), (2, 3)]);
        assert_eq!(check_weighted_matching(&weights(), &m), Ok(()));
    }

    #[test]
    fn weighted_zero_weight_grant_is_caught() {
        let m = Matching::from_pairs(4, [(3, 2)]);
        assert_eq!(
            check_weighted_matching(&weights(), &m),
            Err(Violation::ZeroWeightGrant {
                input: 3,
                output: 2
            })
        );
    }

    #[test]
    fn weighted_non_maximal_is_caught() {
        // Input 2 could still reach free output 3 with positive weight.
        let m = Matching::from_pairs(4, [(0, 0), (1, 1)]);
        assert_eq!(
            check_weighted_matching(&weights(), &m),
            Err(Violation::NotMaximal {
                input: 2,
                output: 3
            })
        );
    }

    #[test]
    fn weighted_size_mismatch_is_caught() {
        let m = Matching::new(3);
        assert!(matches!(
            check_weighted_matching(&weights(), &m),
            Err(Violation::SizeMismatch { .. })
        ));
    }

    #[test]
    fn checked_weighted_scheduler_passes_honest_schedulers() {
        use crate::registry::WeightedKind;
        for kind in WeightedKind::ALL {
            let mut s = CheckedWeightedScheduler::new(kind.build(4), kind.guarantee());
            assert_eq!(s.num_ports(), 4);
            for _ in 0..10 {
                let m = s.schedule_weighted(&weights());
                assert!(m.is_valid_for(&weights().to_requests()), "{kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight bound broken")]
    fn checked_weighted_scheduler_catches_false_exactness_claim() {
        // Greedy takes the 10 edge and strands 9 + 9 = 18; claiming Exact
        // for it must abort on the trap matrix.
        use crate::weighted::GreedyWeight;
        let w = WeightMatrix::from_triples(2, [(0, 0, 10), (1, 0, 9), (0, 1, 9)]);
        let mut s = CheckedWeightedScheduler::new(
            Box::new(GreedyWeight::new(2, "lqf")),
            WeightGuarantee::Exact,
        );
        let _ = s.schedule_weighted(&w);
    }

    #[test]
    #[should_panic(expected = "weighted invariant violated")]
    fn checked_weighted_scheduler_catches_zero_weight_grants() {
        /// A broken scheduler that grants the full diagonal regardless of
        /// the weights.
        struct DiagonalAlways {
            n: usize,
        }
        impl WeightedScheduler for DiagonalAlways {
            fn name(&self) -> &'static str {
                "diag_always"
            }
            fn num_ports(&self) -> usize {
                self.n
            }
            fn schedule_weighted_into(&mut self, _w: &WeightMatrix, out: &mut Matching) {
                out.reset(self.n);
                for i in 0..self.n {
                    out.connect(i, i);
                }
            }
        }
        let mut s = CheckedWeightedScheduler::new(
            Box::new(DiagonalAlways { n: 4 }),
            WeightGuarantee::Heuristic,
        );
        // (3, 3) has weight zero here, so the grant must be rejected.
        let _ = s.schedule_weighted(&weights());
    }
}
