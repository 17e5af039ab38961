//! The distributed LCF scheduler — the iterative algorithm of Sec. 5.

use crate::arbiter::{min_rotating, DiagonalPointer};
use crate::bitkern::{self, Backend, GrantAccept, RequestGrantAccept};
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
    backend: Backend,
    pointer: DiagonalPointer,
    /// Tie-break rotation: port `k`'s rotating chain (target `k` over
    /// requesters in the grant step, initiator `k` over targets in the
    /// accept step) starts at `(k + rotation) mod n`. Advanced by one every
    /// cycle — the software analogue of the hardware's rotating PRIO shift
    /// registers. The stagger by `k` keeps equal-priority targets from all
    /// granting the same requester (which would serialize the iterations on
    /// symmetric loads).
    rotation: usize,
    // Scalar scratch, reused across slots.
    nrq: Vec<usize>,
    ngt: Vec<usize>,
    grant_of_target: Vec<Option<usize>>,
    // Word-parallel scratch (bitset backend): the shared live-port masks, a
    // flat `n × words_for(n)` grant row per input (all zero between calls:
    // an accept clears the row it read) and `planes_for(n)` bit-planes each
    // for NRQ (over requesters) and NGT (over targets). The row and column
    // masks are the request matrix's own, borrowed per call.
    rga: RequestGrantAccept,
    grant_rows: Vec<u64>,
    nrq_planes: Vec<u64>,
    ngt_planes: Vec<u64>,
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
        let w = bitkern::words_for(n);
        let planes = bitkern::planes_for(n);
        DistributedLcf {
            n,
            iterations,
            round_robin,
            backend: Backend::default(),
            pointer: DiagonalPointer::new(n),
            rotation: 0,
            nrq: vec![0; n],
            ngt: vec![0; n],
            grant_of_target: vec![None; n],
            rga: RequestGrantAccept::new(n),
            grant_rows: vec![0; n * w],
            nrq_planes: vec![0; planes * w],
            ngt_planes: vec![0; planes * w],
            trace: IterationTrace::default(),
        }
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends produce bit-identical schedules; see [`Backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
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

/// Start of port `k`'s rotating tie-break chain at tie-break rotation
/// `rotation` (both below `n`): `(k + rotation) mod n`.
#[inline]
fn tie_break_start(k: usize, rotation: usize, n: usize) -> usize {
    let s = k + rotation;
    if s >= n {
        s - n
    } else {
        s
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
        self.trace.begin_cycle();

        // Round-robin position: one matrix element per cycle is scheduled
        // before regular LCF iterations take place (Sec. 5); each kernel
        // matches it if it is a request.
        let pre_grant = self.round_robin.then_some((self.pointer.i, self.pointer.j));
        if self.backend.word_parallel() {
            self.schedule_bitset(requests, pre_grant, out);
        } else {
            self.schedule_scalar(requests, pre_grant, out);
        }

        self.pointer.advance();
        self.rotation = (self.rotation + 1) % self.n;
    }

    fn reset(&mut self) {
        self.pointer = DiagonalPointer::new(self.n);
        self.rotation = 0;
        self.trace.begin_cycle();
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.trace.drain_into(sink);
    }
}

impl DistributedLcf {
    /// The scalar reference kernel: per-bit request probes and one rotating
    /// minimum scan per port per step.
    fn schedule_scalar(
        &mut self,
        requests: &RequestMatrix,
        pre_grant: Option<(usize, usize)>,
        matching: &mut Matching,
    ) {
        let n = self.n;
        matching.reset(n);
        if let Some((i, j)) = pre_grant.filter(|&(i, j)| requests.get(i, j)) {
            matching.connect(i, j);
            self.trace.pre_grant(i, j);
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
                self.grant_of_target[j] =
                    min_rotating(n, tie_break_start(j, self.rotation, n), |i| {
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
                let accepted = min_rotating(n, tie_break_start(i, self.rotation, n), |j| {
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
    }

    /// The word-parallel kernel: the shared live-port iteration
    /// (`bitkern::RequestGrantAccept`) with least-choice picks over
    /// bit-sliced NRQ and NGT counts ([`LcfPicks`]). The skeleton visits
    /// the ports the scalar scan does not skip, in the same order, so
    /// grants, accepts and trace calls are identical, one for one, to
    /// [`DistributedLcf::schedule_scalar`].
    fn schedule_bitset(
        &mut self,
        requests: &RequestMatrix,
        pre_grant: Option<(usize, usize)>,
        out: &mut Matching,
    ) {
        let mut picks = LcfPicks {
            n: self.n,
            w: bitkern::words_for(self.n),
            rotation: self.rotation,
            rows: requests.bits().all_words(),
            grant_rows: &mut self.grant_rows,
            nrq_planes: &mut self.nrq_planes,
            ngt_planes: &mut self.ngt_planes,
            nrq_top: 0,
            ngt_any: 0,
        };
        let trace = &mut self.trace;
        self.rga
            .run(&mut picks, requests, pre_grant, self.iterations, out, trace);
    }
}

/// Distributed LCF's least-choice picks: NRQ planes over requesters, NGT
/// planes over targets, each narrowed by [`bitkern::min_plane_rotating`]
/// (only the planes below the largest live count are read). The methods
/// are forced inline into the skeleton and take the word count from the
/// slices it passes, so it folds to the skeleton's literal width: left to
/// the inliner, the n = 32 call ran ~20 % slower.
struct LcfPicks<'a> {
    n: usize,
    /// Words per grant row, for the accept step, which gets no slice.
    w: usize,
    rotation: usize,
    rows: &'a [u64],
    grant_rows: &'a mut [u64],
    nrq_planes: &'a mut [u64],
    ngt_planes: &'a mut [u64],
    /// Planes that hold this iteration's largest NRQ.
    nrq_top: usize,
    /// OR of this iteration's NGTs: the same bit length as the largest.
    ngt_any: usize,
}

impl GrantAccept for LcfPicks<'_> {
    /// Request step: each unmatched input's NRQ, `popcount(row & live_out)`,
    /// goes into the NRQ planes; the NGT planes are cleared for the grants.
    #[inline(always)]
    fn begin(&mut self, unmatched_in: &[u64], live_out: &[u64]) {
        let w = live_out.len();
        self.nrq_planes.fill(0);
        self.ngt_planes.fill(0);
        self.ngt_any = 0;
        let mut nrq_any = 0usize; // OR of all counts: same bit length as the max
        for (wi, &word) in unmatched_in.iter().enumerate() {
            let mut ins = word;
            while ins != 0 {
                let i = wi * bitkern::WORD_BITS + ins.trailing_zeros() as usize;
                ins &= ins - 1;
                let nrq: usize = self.rows[i * w..(i + 1) * w]
                    .iter()
                    .zip(live_out)
                    .map(|(r, o)| (r & o).count_ones() as usize)
                    .sum();
                nrq_any |= nrq;
                bitkern::plane_scatter(self.nrq_planes, w, i, nrq);
            }
        }
        self.nrq_top = bitkern::planes_for(nrq_any);
    }

    /// The lowest-NRQ candidate, ties to the output's rotating chain; the
    /// output's NGT (its candidate count) goes into the NGT planes.
    #[inline(always)]
    fn grant(&mut self, output: usize, cand: &mut [u64]) -> Option<usize> {
        let w = cand.len();
        let ngt = bitkern::popcount(cand);
        self.ngt_any |= ngt;
        bitkern::plane_scatter(self.ngt_planes, w, output, ngt);
        let i = bitkern::min_plane_rotating(
            cand,
            self.n,
            tie_break_start(output, self.rotation, self.n),
            self.nrq_planes,
            self.nrq_top,
        )?;
        bitkern::set_bit(&mut self.grant_rows[i * w..(i + 1) * w], output);
        Some(i)
    }

    /// The lowest-NGT grant, ties to the input's rotating chain; the grant
    /// row is cleared.
    #[inline(always)]
    fn accept(&mut self, input: usize, _first: bool) -> Option<usize> {
        let w = self.w;
        let grants = &mut self.grant_rows[input * w..(input + 1) * w];
        let j = bitkern::min_plane_rotating(
            grants,
            self.n,
            tie_break_start(input, self.rotation, self.n),
            self.ngt_planes,
            bitkern::planes_for(self.ngt_any),
        );
        grants.fill(0);
        j
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
    fn tie_break_rotates_every_cycle_and_reset_restores_it() {
        // I0 and I1 both request only T0 (NRQ 1 each): the tie falls to
        // T0's chain, which starts at requester (0 + rotation) mod 2.
        let requests = RequestMatrix::from_pairs(2, [(0, 0), (1, 0)]);
        for backend in [Backend::Scalar, Backend::Bitset] {
            let mut sched = DistributedLcf::pure(2, 1).with_backend(backend);
            let winners: Vec<_> = (0..4)
                .map(|_| sched.schedule(&requests).input_for(0))
                .collect();
            assert_eq!(winners, [Some(0), Some(1), Some(0), Some(1)], "{backend}");
            sched.schedule(&requests);
            sched.reset();
            assert_eq!(sched.schedule(&requests).input_for(0), Some(0), "{backend}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = DistributedLcf::pure(4, 0);
    }

    /// The bitset kernel against the scalar reference, traced: the same
    /// matchings, the same `IterationTrace` (pre-grant, per-iteration
    /// request/grant/accept sets, convergence) and the same drained events,
    /// slot after slot, across word boundaries, both flavours and three
    /// iteration budgets.
    #[test]
    fn bitset_kernel_matches_scalar_event_for_event() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let drained = |s: &mut DistributedLcf| {
            let mut lines = Vec::new();
            s.drain_events(&mut |e| lines.push(e.to_json()));
            lines
        };
        for n in [1, 2, 4, 7, 16, 32, 63, 64, 65, 130, 256] {
            let slots = if n <= 64 { 12 } else { 4 };
            for rr in [false, true] {
                for budget in [1, 4, 16] {
                    let mut rng = StdRng::seed_from_u64(0xD157 ^ n as u64);
                    let mut scalar =
                        DistributedLcf::build(n, budget, rr).with_backend(Backend::Scalar);
                    let mut bitset =
                        DistributedLcf::build(n, budget, rr).with_backend(Backend::Bitset);
                    scalar.set_tracing(true);
                    bitset.set_tracing(true);
                    for slot in 0..slots {
                        let density = (slot % 5) as f64 / 4.0;
                        let requests = RequestMatrix::random(n, density, &mut rng);
                        let label = format!("n={n} rr={rr} budget={budget} slot={slot}");
                        let a = scalar.schedule(&requests);
                        let b = bitset.schedule(&requests);
                        assert_eq!(a, b, "{label}: matchings differ");
                        assert_eq!(
                            scalar.last_trace(),
                            bitset.last_trace(),
                            "{label}: traces differ"
                        );
                        assert_eq!(
                            drained(&mut scalar),
                            drained(&mut bitset),
                            "{label}: events differ"
                        );
                    }
                }
            }
        }
    }
}
