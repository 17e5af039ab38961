//! The distributed LCF scheduler — the iterative algorithm of Sec. 5.

use crate::arbiter::{min_rotating, DiagonalPointer};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::telemetry::IterationTrace;
use crate::traits::Scheduler;

/// The distributed Least Choice First scheduler (paper Sec. 5).
///
/// Like PIM, each scheduling cycle runs a fixed number of three-step
/// iterations over the *unmatched* ports only:
///
/// * **Request** — each unmatched initiator sends a request to every
///   unmatched target it has a packet for, tagged with NRQ, the number of
///   requests it is sending.
/// * **Grant** — each unmatched target receiving requests grants the one
///   with the *lowest* NRQ (fewest choices first); ties fall to a rotating
///   round-robin chain. The grant is tagged with NGT, the number of requests
///   the target received.
/// * **Accept** — each unmatched initiator receiving grants accepts the one
///   with the *lowest* NGT; ties again fall to a rotating chain.
///
/// Unlike PIM's coin flips, the count-based priorities concentrate grants on
/// the ports with the least choice, which is what lets the distributed LCF
/// scheduler out-match PIM at equal iteration budgets.
///
/// The round-robin flavor (`lcf_dist_rr`) additionally pre-grants a single
/// rotating matrix position before the iterations start, which restores a
/// hard fairness bound at a small cost in matching size.
#[derive(Clone, Debug)]
pub struct DistributedLcf {
    n: usize,
    iterations: usize,
    round_robin: bool,
    pointer: DiagonalPointer,
    /// Per-target tie-break offset over requesters. Initialized staggered
    /// (target `j` starts at requester `j`) and rotated by one every cycle —
    /// the software analogue of the hardware's rotating PRIO shift registers.
    /// The stagger keeps equal-priority targets from all granting the same
    /// requester (which would serialize the iterations on symmetric loads).
    grant_tb: Vec<usize>,
    /// Per-initiator tie-break offset over targets, same scheme.
    accept_tb: Vec<usize>,
    // Scratch buffers reused across slots.
    nrq: Vec<usize>,
    ngt: Vec<usize>,
    grant_of_target: Vec<Option<usize>>,
    trace: IterationTrace,
}

impl DistributedLcf {
    /// Pure distributed LCF (`lcf_dist`), `iterations` per cycle (the paper's
    /// Fig. 12 uses 4).
    pub fn pure(n: usize, iterations: usize) -> Self {
        Self::build(n, iterations, false)
    }

    /// Distributed LCF with a single rotating round-robin position per cycle
    /// (`lcf_dist_rr`).
    pub fn with_round_robin(n: usize, iterations: usize) -> Self {
        Self::build(n, iterations, true)
    }

    fn build(n: usize, iterations: usize, round_robin: bool) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        assert!(iterations > 0, "at least one iteration required");
        DistributedLcf {
            n,
            iterations,
            round_robin,
            pointer: DiagonalPointer::new(n),
            grant_tb: (0..n).collect(),
            accept_tb: (0..n).collect(),
            nrq: vec![0; n],
            ngt: vec![0; n],
            grant_of_target: vec![None; n],
            trace: IterationTrace::default(),
        }
    }

    /// The configured iteration budget.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the round-robin pre-grant is enabled.
    pub fn round_robin_enabled(&self) -> bool {
        self.round_robin
    }

    /// Current `(I, J)` round-robin offsets.
    pub fn pointer(&self) -> (usize, usize) {
        (self.pointer.i, self.pointer.j)
    }

    /// Convergence record of the most recent `schedule` call.
    pub fn last_trace(&self) -> &IterationTrace {
        &self.trace
    }
}

impl Scheduler for DistributedLcf {
    fn name(&self) -> &'static str {
        if self.round_robin {
            "lcf_dist_rr"
        } else {
            "lcf_dist"
        }
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        let n = self.n;
        let (i_off, j_off) = (self.pointer.i, self.pointer.j);
        out.reset(n);
        let matching = out;
        self.trace.begin_cycle();

        // Round-robin position: one matrix element per cycle is scheduled
        // before regular LCF iterations take place (Sec. 5).
        if self.round_robin && requests.get(i_off, j_off) {
            matching.connect(i_off, j_off);
            self.trace.pre_grant(i_off, j_off);
        }

        for iter in 0..self.iterations {
            // --- Request step -------------------------------------------
            // NRQ counts only requests an unmatched initiator can still act
            // on, i.e. those aimed at unmatched targets (matched targets
            // ignore incoming requests, so they represent no choice).
            for i in 0..n {
                self.nrq[i] = if matching.input_matched(i) {
                    0
                } else {
                    requests
                        .row_ones(i)
                        .filter(|&j| !matching.output_matched(j))
                        .count()
                };
            }
            self.trace.begin_iteration(requests, matching);

            // --- Grant step ----------------------------------------------
            for j in 0..n {
                self.grant_of_target[j] = None;
                self.ngt[j] = 0;
                if matching.output_matched(j) {
                    continue;
                }
                self.ngt[j] = requests
                    .col_ones(j)
                    .filter(|&i| !matching.input_matched(i))
                    .count();
                if self.ngt[j] == 0 {
                    continue;
                }
                // Lowest NRQ wins; ties broken by this target's rotating
                // priority chain.
                self.grant_of_target[j] = min_rotating(n, self.grant_tb[j], |i| {
                    (!matching.input_matched(i) && requests.get(i, j)).then_some(self.nrq[i])
                });
                if let Some(i) = self.grant_of_target[j] {
                    self.trace.grant(i, j);
                }
            }

            // --- Accept step ----------------------------------------------
            let mut new_matches = 0;
            for i in 0..n {
                if matching.input_matched(i) {
                    continue;
                }
                // Lowest NGT wins; ties broken by this initiator's rotating
                // priority chain.
                let accepted = min_rotating(n, self.accept_tb[i], |j| {
                    (self.grant_of_target[j] == Some(i)).then_some(self.ngt[j])
                });
                if let Some(j) = accepted {
                    matching.connect(i, j);
                    new_matches += 1;
                    self.trace.accept(i, j);
                }
            }

            self.trace.end_iteration(iter, new_matches);
            if new_matches == 0 {
                break;
            }
        }

        self.pointer.advance();
        for tb in self.grant_tb.iter_mut().chain(self.accept_tb.iter_mut()) {
            *tb = (*tb + 1) % n;
        }
    }

    fn reset(&mut self) {
        self.pointer = DiagonalPointer::new(self.n);
        self.grant_tb = (0..self.n).collect();
        self.accept_tb = (0..self.n).collect();
        self.trace.begin_cycle();
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.trace.drain_into(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4×4 example of Fig. 9: NRQ column reads 1, 3, 3, 2 and NGT column
    /// reads 1, 2, 3, 3 for iteration 0.
    fn figure9_requests() -> RequestMatrix {
        RequestMatrix::from_pairs(
            4,
            [
                (0, 2), // I0: {T2}             NRQ 1
                (1, 0),
                (1, 2),
                (1, 3), // I1: {T0, T2, T3}     NRQ 3
                (2, 1),
                (2, 2),
                (2, 3), // I2: {T1, T2, T3}     NRQ 3
                (3, 1),
                (3, 3), // I3: {T1, T3}         NRQ 2
            ],
        )
    }

    #[test]
    fn figure9_nrq_and_ngt_columns() {
        let r = figure9_requests();
        assert_eq!(
            (0..4).map(|i| r.nrq(i)).collect::<Vec<_>>(),
            vec![1, 3, 3, 2]
        );
        assert_eq!(
            (0..4).map(|j| r.ngt(j)).collect::<Vec<_>>(),
            vec![1, 2, 3, 3]
        );
    }

    #[test]
    fn paper_figure9_trace() {
        // Two iterations suffice for the full matching, exactly as in Fig. 9:
        // iteration 0 matches (I0,T2) [T2 grants I0, its lowest-NRQ request],
        // (I1,T0), and (I3,T1) [I3 holds grants from T1 (NGT 2) and T3
        // (NGT 3) and accepts T1]; iteration 1 matches the leftover (I2,T3).
        let mut sched = DistributedLcf::pure(4, 2);
        let m = sched.schedule(&figure9_requests());
        assert_eq!(m.output_for(0), Some(2));
        assert_eq!(m.output_for(1), Some(0));
        assert_eq!(m.output_for(3), Some(1));
        assert_eq!(m.output_for(2), Some(3));
        assert_eq!(m.size(), 4);
        assert_eq!(sched.last_trace().new_matches, vec![3, 1]);
    }

    #[test]
    fn single_iteration_stops_early() {
        let mut sched = DistributedLcf::pure(4, 1);
        let m = sched.schedule(&figure9_requests());
        assert_eq!(m.size(), 3, "iteration 0 of Fig. 9 makes three matches");
        assert!(!m.output_matched(3));
    }

    #[test]
    fn converges_and_reports_it() {
        let mut sched = DistributedLcf::pure(4, 8);
        let m = sched.schedule(&figure9_requests());
        assert_eq!(m.size(), 4);
        // Iterations: 3 matches, 1 match, then a 0-match probe -> converged.
        assert_eq!(sched.last_trace().converged_after, Some(3));
        assert_eq!(sched.last_trace().total_matches(), 4);
    }

    #[test]
    fn empty_requests() {
        let mut sched = DistributedLcf::with_round_robin(6, 4);
        let m = sched.schedule(&RequestMatrix::new(6));
        assert_eq!(m.size(), 0);
        assert_eq!(sched.last_trace().converged_after, Some(1));
    }

    #[test]
    fn full_requests_saturate() {
        let mut sched = DistributedLcf::pure(8, 4);
        for _ in 0..10 {
            let m = sched.schedule(&RequestMatrix::full(8));
            assert_eq!(m.size(), 8);
        }
    }

    #[test]
    fn round_robin_position_pre_granted() {
        // Requester 1 has huge NRQ; pure LCF would give T0 to requester 0.
        // With (I,J) = (1,0) as the round-robin position, I1 must get T0.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]);
        let mut sched = DistributedLcf::with_round_robin(4, 4);
        // Advance pointer to (1, 0).
        sched.pointer.advance();
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(1), Some(0));
        assert_eq!(
            m.output_for(0),
            None,
            "I0's only request was pre-granted away"
        );
    }

    #[test]
    fn matchings_valid_and_maximal_with_enough_iterations() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xD157);
        for &rr in &[false, true] {
            let mut sched = DistributedLcf::build(16, 16, rr); // n iterations => maximal
            for _ in 0..100 {
                let requests = RequestMatrix::random(16, 0.25, &mut rng);
                let m = sched.schedule(&requests);
                assert!(m.is_valid_for(&requests));
                assert!(
                    m.is_maximal_for(&requests),
                    "with an n-iteration budget the iterative matcher is maximal"
                );
            }
        }
    }

    #[test]
    fn grant_goes_to_lowest_nrq() {
        // T0 requested by I0 (NRQ 2) and I1 (NRQ 1): I1 must win the grant.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (0, 1), (1, 0)]);
        let mut sched = DistributedLcf::pure(4, 4);
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(1), Some(0));
        assert_eq!(m.output_for(0), Some(1));
    }

    #[test]
    fn accept_goes_to_lowest_ngt() {
        // I0 requests T0 and T1. T0 is also requested by I1 and I2 (NGT 3),
        // T1 only by I0 (NGT 1). All three of I0's competitors have higher
        // NRQ, so I0 receives both grants and must accept T1 (lower NGT).
        let requests = RequestMatrix::from_pairs(
            4,
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 2),
                (2, 3),
            ],
        );
        let mut sched = DistributedLcf::pure(4, 1);
        let m = sched.schedule(&requests);
        assert_eq!(m.output_for(0), Some(1), "lower-NGT grant must be accepted");
    }

    #[test]
    fn reset_clears_pointer() {
        let mut sched = DistributedLcf::with_round_robin(4, 4);
        sched.schedule(&RequestMatrix::new(4));
        assert_ne!(sched.pointer(), (0, 0));
        sched.reset();
        assert_eq!(sched.pointer(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = DistributedLcf::pure(4, 0);
    }
}
