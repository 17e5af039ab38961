//! Decision-trace records emitted by the schedulers.
//!
//! The paper's central argument is *why* each grant happens — the
//! round-robin position takes precedence, then the requester with the
//! fewest outstanding requests, then the rotating tie-break chain. This
//! module gives those reasons a concrete, testable shape:
//!
//! * [`GrantDecision`] / [`GrantReason`] — one record per output granted by
//!   the sequential central scheduler ([`CentralLcf`]), including the
//!   losing requesters and their outstanding-request counts. They are
//!   derived after the kernel by a replay of Fig. 2 over its output, so a
//!   traced scheduler runs the same kernel as an untraced one.
//! * [`IterationStep`] — the request/grant/accept sets of one iteration of
//!   an iterative scheduler (distributed LCF, PIM, iSLIP), carried on
//!   [`IterationTrace`], which every iterative kernel feeds.
//!
//! Both convert to [`lcf_telemetry::Event`]s (stamped with slot 0 — the
//! switch model re-stamps events with the real slot when it drains them),
//! so the same records power the golden-trace fixtures, the Fig. 3
//! worked-example test and the `trace` CLI subcommand.
//!
//! Instrumentation is always compiled; tracing is off unless a caller
//! turns it on with [`Scheduler::set_tracing`](crate::traits::Scheduler::set_tracing).
//!
//! [`CentralLcf`]: crate::lcf::CentralLcf

use crate::lcf::RrPolicy;
use crate::matching::Matching;
use crate::request::RequestMatrix;
use lcf_telemetry::{Event, Value};

/// Why the central LCF scheduler granted an output to a requester.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantReason {
    /// The rotating round-robin position held a request: it wins outright,
    /// before any count is compared (Fig. 2 step 1; also the
    /// `SinglePosition` and `Row` policy fast paths).
    RrPosition,
    /// The position was granted in the `PriorityDiagonal` pre-pass, before
    /// any non-diagonal position was considered.
    PriorityDiagonal,
    /// A `Column`-policy grant: the rotating priority chain picked the
    /// winner, ignoring request counts.
    ColumnChain,
    /// The winner was the only requester of this output.
    OnlyChoice,
    /// The winner had strictly the fewest outstanding requests (NRQ) among
    /// the output's requesters — the least-choice-first rule proper.
    MinCount,
    /// Two or more requesters shared the minimum count; the rotating
    /// priority chain starting at the diagonal requester broke the tie.
    TieBreak,
}

impl GrantReason {
    /// The stable string used in trace events and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            GrantReason::RrPosition => "rr_position",
            GrantReason::PriorityDiagonal => "priority_diagonal",
            GrantReason::ColumnChain => "column_chain",
            GrantReason::OnlyChoice => "only_choice",
            GrantReason::MinCount => "min_count",
            GrantReason::TieBreak => "tie_break",
        }
    }
}

/// One output-port grant decision of the central LCF scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantDecision {
    /// The output port (resource) being scheduled.
    pub resource: usize,
    /// The input port (requester) that won the grant.
    pub winner: usize,
    /// The winner's outstanding-request count at decision time.
    pub winner_nrq: usize,
    /// Why the winner won.
    pub reason: GrantReason,
    /// The requesters that lost this output, with their outstanding-request
    /// counts at decision time.
    pub losers: Vec<(usize, usize)>,
}

impl GrantDecision {
    /// The decision as a trace event (kind `grant`, slot 0 — the caller
    /// re-stamps the slot).
    pub fn to_event(&self) -> Event {
        let losers: Vec<Value> = self
            .losers
            .iter()
            .map(|&(req, nrq)| Value::Seq(vec![Value::U64(req as u64), Value::U64(nrq as u64)]))
            .collect();
        Event::new(0, "grant")
            .field("output", self.resource)
            .field("input", self.winner)
            .field("reason", self.reason.as_str())
            .field("nrq", self.winner_nrq)
            .field("losers", Value::Seq(losers))
    }
}

/// The request/grant/accept sets of one iteration of an iterative
/// scheduler (distributed LCF, PIM or iSLIP), as `(input, output)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterationStep {
    /// Requests sent this iteration: every (unmatched input, unmatched
    /// output) pair still backed by a queued packet.
    pub requests: Vec<(usize, usize)>,
    /// Grants offered this iteration (one per granting output).
    pub grants: Vec<(usize, usize)>,
    /// Grants accepted this iteration — the new matches.
    pub accepts: Vec<(usize, usize)>,
}

impl IterationStep {
    /// The step as a trace event (kind `iteration`, slot 0 — the caller
    /// re-stamps the slot). `iter` is the 0-based iteration index.
    pub fn to_event(&self, iter: usize) -> Event {
        fn pairs(set: &[(usize, usize)]) -> Value {
            Value::Seq(
                set.iter()
                    .map(|&(i, j)| Value::Seq(vec![Value::U64(i as u64), Value::U64(j as u64)]))
                    .collect(),
            )
        }
        Event::new(0, "iteration")
            .field("iter", iter)
            .field("requests", pairs(&self.requests))
            .field("grants", pairs(&self.grants))
            .field("accepts", pairs(&self.accepts))
    }
}

/// Derives the [`GrantDecision`]s of one central LCF schedule into `out`,
/// in output-scheduling order, by replaying Fig. 2 over its inputs and its
/// result: the fairness `policy`, the *pre-advance* pointer `(i_off,
/// j_off)`, the `requests` and the `matching` the kernel produced.
///
/// The winner of each scheduled output is read from `matching`, so the
/// replay never re-runs the minimum search; it only rebuilds the state the
/// decision was made in. Resources are scheduled in the order `res = 0..n`
/// (resource `(res + j_off) % n`), and each grant withdraws the winner's
/// row and decrements the counts of the resource's other requesters —
/// exactly the bookkeeping of the scalar kernel — so every decision sees
/// the request matrix and NRQ counts of its own step. `work` and `nrq` are
/// scratch (`nrq.len() >= n`), overwritten. This is the same replay idea as
/// `check::check_central_precedence`.
pub(crate) fn replay_central(
    policy: RrPolicy,
    (i_off, j_off): (usize, usize),
    requests: &RequestMatrix,
    matching: &Matching,
    work: &mut RequestMatrix,
    nrq: &mut [usize],
    out: &mut Vec<GrantDecision>,
) {
    let n = requests.n();
    out.clear();
    work.copy_from(requests);
    for (req, count) in nrq[..n].iter_mut().enumerate() {
        *count = work.nrq(req);
    }
    // The PriorityDiagonal pre-pass grants every requested diagonal
    // position: the positions are pairwise disjoint, so no earlier pre-pass
    // grant can block one.
    let pre_pass = policy == RrPolicy::PriorityDiagonal;
    if pre_pass {
        for res in 0..n {
            let (di, dj) = ((i_off + res) % n, (j_off + res) % n);
            if requests.get(di, dj) {
                decide(work, nrq, out, dj, di, GrantReason::PriorityDiagonal);
            }
        }
    }

    for res in 0..n {
        let resource = (res + j_off) % n;
        let diag_req = (i_off + res) % n;
        if pre_pass && requests.get(diag_req, resource) {
            continue; // decided in the pre-pass
        }
        let Some(winner) = matching.input_for(resource) else {
            continue; // no live requester at this step
        };
        let fast_path = match policy {
            RrPolicy::Diagonal => work.get(diag_req, resource),
            RrPolicy::SinglePosition => res == 0 && work.get(i_off, resource),
            RrPolicy::Row => work.get(i_off, resource),
            RrPolicy::Column => res == 0,
            RrPolicy::None | RrPolicy::PriorityDiagonal => false,
        };
        let reason = if fast_path {
            if policy == RrPolicy::Column {
                GrantReason::ColumnChain
            } else {
                GrantReason::RrPosition
            }
        } else {
            let mut rivals = work
                .col_ones(resource)
                .filter(|&req| req != winner)
                .peekable();
            if rivals.peek().is_none() {
                GrantReason::OnlyChoice
            } else if rivals.any(|req| nrq[req] <= nrq[winner]) {
                GrantReason::TieBreak
            } else {
                GrantReason::MinCount
            }
        };
        decide(work, nrq, out, resource, winner, reason);
    }
}

/// Records one grant decision against the current state of the replay,
/// then applies the grant: the winner's row is withdrawn and the resource's
/// other requesters lose one outstanding request each.
fn decide(
    work: &mut RequestMatrix,
    nrq: &mut [usize],
    out: &mut Vec<GrantDecision>,
    resource: usize,
    winner: usize,
    reason: GrantReason,
) {
    debug_assert!(
        work.get(winner, resource),
        "winner must be a live requester"
    );
    out.push(GrantDecision {
        resource,
        winner,
        winner_nrq: nrq[winner],
        reason,
        losers: work
            .col_ones(resource)
            .filter(|&req| req != winner)
            .map(|req| (req, nrq[req]))
            .collect(),
    });
    work.clear_requester(winner);
    nrq[winner] = 0;
    for req in work.col_ones(resource) {
        nrq[req] -= 1;
    }
}

/// Per-cycle record of an iterative scheduler (distributed LCF, PIM or
/// iSLIP): the convergence counts, always, and — while tracing — the
/// round-robin pre-grant and the full request/grant/accept sets of every
/// iteration.
///
/// Every kernel of every iterative scheduler feeds the same calls
/// ([`begin_iteration`](IterationTrace::begin_iteration),
/// [`grant`](IterationTrace::grant), [`accept`](IterationTrace::accept),
/// [`end_iteration`](IterationTrace::end_iteration)) in the same order —
/// grants by ascending output, accepts by ascending input — so a traced
/// word-parallel run records exactly what a traced scalar run does.
///
/// Used by EXT-2 (iterations needed vs `n`), which measures the paper's
/// `O(log² n)` expected iterations for distributed LCF (Sec. 5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterationTrace {
    /// Number of *new* matches made in each executed iteration.
    pub new_matches: Vec<usize>,
    /// The 1-based iteration after which no further matches were possible
    /// (the algorithm had converged), if it converged within the budget.
    pub converged_after: Option<usize>,
    /// The round-robin pre-grant of this cycle, if the scheduler made one
    /// (only populated while tracing).
    pub pre_grant: Option<(usize, usize)>,
    /// Full request/grant/accept sets per iteration (only populated while
    /// tracing — see [`Scheduler::set_tracing`](crate::traits::Scheduler::set_tracing)).
    pub steps: Vec<IterationStep>,
    tracing: bool,
}

impl IterationTrace {
    /// Total matches made across all iterations (excluding a round-robin
    /// pre-grant).
    pub fn total_matches(&self) -> usize {
        self.new_matches.iter().sum()
    }

    /// Turns step recording on or off.
    pub(crate) fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.pre_grant = None;
            self.steps.clear();
        }
    }

    /// Resets the record for a new scheduling cycle.
    pub(crate) fn begin_cycle(&mut self) {
        self.new_matches.clear();
        self.converged_after = None;
        self.pre_grant = None;
        self.steps.clear();
    }

    /// Records the cycle's round-robin pre-grant (while tracing).
    pub(crate) fn pre_grant(&mut self, input: usize, output: usize) {
        if self.tracing {
            self.pre_grant = Some((input, output));
        }
    }

    /// Opens an iteration's step (while tracing) with its request set:
    /// every (unmatched input, unmatched output) pair still requested.
    pub(crate) fn begin_iteration(&mut self, requests: &RequestMatrix, matching: &Matching) {
        if !self.tracing {
            return;
        }
        let mut step = IterationStep::default();
        for i in 0..requests.n() {
            if matching.input_matched(i) {
                continue;
            }
            for j in requests.row_ones(i) {
                if !matching.output_matched(j) {
                    step.requests.push((i, j));
                }
            }
        }
        self.steps.push(step);
    }

    /// Records output `output` granting input `input` in the open step.
    #[inline]
    pub(crate) fn grant(&mut self, input: usize, output: usize) {
        if self.tracing {
            if let Some(step) = self.steps.last_mut() {
                step.grants.push((input, output));
            }
        }
    }

    /// Records input `input` accepting output `output` in the open step.
    #[inline]
    pub(crate) fn accept(&mut self, input: usize, output: usize) {
        if self.tracing {
            if let Some(step) = self.steps.last_mut() {
                step.accepts.push((input, output));
            }
        }
    }

    /// Closes 0-based iteration `iter` with its count of new matches; a
    /// zero count marks convergence.
    pub(crate) fn end_iteration(&mut self, iter: usize, new_matches: usize) {
        self.new_matches.push(new_matches);
        if new_matches == 0 {
            self.converged_after = Some(iter + 1);
        }
    }

    /// Emits the trace as events (a `pre_grant` event, then one `iteration`
    /// event per recorded step), stamped with slot 0.
    pub(crate) fn drain_into(&mut self, sink: &mut dyn FnMut(Event)) {
        if let Some((i, j)) = self.pre_grant.take() {
            sink(
                Event::new(0, "pre_grant")
                    .field("input", i)
                    .field("output", j),
            );
        }
        for (iter, step) in self.steps.drain(..).enumerate() {
            sink(step.to_event(iter));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_event_shape() {
        let d = GrantDecision {
            resource: 1,
            winner: 3,
            winner_nrq: 1,
            reason: GrantReason::MinCount,
            losers: vec![(0, 2)],
        };
        assert_eq!(
            d.to_event().to_json(),
            r#"{"slot":0,"kind":"grant","output":1,"input":3,"reason":"min_count","nrq":1,"losers":[[0,2]]}"#
        );
    }

    #[test]
    fn iteration_event_shape() {
        let s = IterationStep {
            requests: vec![(0, 2), (1, 0)],
            grants: vec![(0, 2)],
            accepts: vec![(0, 2)],
        };
        assert_eq!(
            s.to_event(0).to_json(),
            r#"{"slot":0,"kind":"iteration","iter":0,"requests":[[0,2],[1,0]],"grants":[[0,2]],"accepts":[[0,2]]}"#
        );
    }

    #[test]
    fn reason_strings_are_distinct() {
        let all = [
            GrantReason::RrPosition,
            GrantReason::PriorityDiagonal,
            GrantReason::ColumnChain,
            GrantReason::OnlyChoice,
            GrantReason::MinCount,
            GrantReason::TieBreak,
        ];
        let mut names: Vec<&str> = all.iter().map(|r| r.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
