//! iSLIP — iterative round-robin matching with slip (McKeown).
//!
//! Replaces PIM's coin flips with rotating grant/accept pointers. The
//! pointer-update rule — pointers move only when a grant is accepted *in the
//! first iteration* — is what de-synchronizes the grant pointers ("slip")
//! and gives 100% throughput under uniform traffic.

use crate::arbiter::RoundRobinPointer;
use crate::bitkern::{self, Backend, GrantAccept, RequestGrantAccept};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::telemetry::IterationTrace;
use crate::traits::Scheduler;

/// The iSLIP scheduler.
///
/// ```
/// use lcf_core::prelude::*;
///
/// let mut islip = Islip::new(4, 1);
/// // Both inputs want output 0: the grant pointer rotates the winner.
/// let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0)]);
/// let first = islip.schedule(&requests).input_for(0).unwrap();
/// let second = islip.schedule(&requests).input_for(0).unwrap();
/// assert_ne!(first, second);
/// ```
///
/// State: one grant pointer per output and one accept pointer per input.
/// Per iteration:
///
/// 1. **Grant** — each unmatched output grants the requesting unmatched
///    input closest at-or-after its grant pointer.
/// 2. **Accept** — each unmatched input accepts the granting output closest
///    at-or-after its accept pointer.
/// 3. **Pointer update** — only for matches made in the *first* iteration:
///    the output's grant pointer moves one past the accepted input and the
///    input's accept pointer one past the accepted output.
#[derive(Clone, Debug)]
pub struct Islip {
    n: usize,
    iterations: usize,
    backend: Backend,
    grant_ptr: Vec<RoundRobinPointer>,
    accept_ptr: Vec<RoundRobinPointer>,
    // Scratch, reused across slots.
    grant_of_target: Vec<Option<usize>>,
    // Word-parallel scratch (bitset backend): the shared live-port masks,
    // and per input the smallest rotational distance from its accept
    // pointer to a granting output (`usize::MAX` between calls).
    rga: RequestGrantAccept,
    accept_dist: Vec<usize>,
    trace: IterationTrace,
}

impl Islip {
    /// Creates an iSLIP scheduler with the given iteration budget.
    ///
    /// The canonical deployment uses a single iteration; the paper's
    /// iterative baselines use four. Both are supported.
    pub fn new(n: usize, iterations: usize) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        assert!(iterations > 0, "at least one iteration required");
        Islip {
            n,
            iterations,
            backend: Backend::default(),
            grant_ptr: vec![RoundRobinPointer::new(n); n],
            accept_ptr: vec![RoundRobinPointer::new(n); n],
            grant_of_target: vec![None; n],
            rga: RequestGrantAccept::new(n),
            accept_dist: vec![usize::MAX; n],
            trace: IterationTrace::default(),
        }
    }

    /// Convergence record of the most recent `schedule` call (same shape as
    /// [`DistributedLcf::last_trace`](crate::lcf::DistributedLcf::last_trace)).
    pub fn last_trace(&self) -> &IterationTrace {
        &self.trace
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends produce bit-identical schedules; see [`Backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured kernel backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured iteration budget.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Current grant pointer position of output `j` (for tests/diagnostics).
    pub fn grant_pointer(&self, j: usize) -> usize {
        self.grant_ptr[j].pos()
    }

    /// Current accept pointer position of input `i`.
    pub fn accept_pointer(&self, i: usize) -> usize {
        self.accept_ptr[i].pos()
    }
}

impl Scheduler for Islip {
    fn name(&self) -> &'static str {
        "islip"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        self.trace.begin_cycle();
        if self.backend.word_parallel() {
            self.schedule_bitset(requests, out);
        } else {
            self.schedule_scalar(requests, out);
        }
    }

    fn reset(&mut self) {
        for p in &mut self.grant_ptr {
            *p = RoundRobinPointer::new(self.n);
        }
        for p in &mut self.accept_ptr {
            *p = RoundRobinPointer::new(self.n);
        }
        self.trace.begin_cycle();
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.trace.drain_into(sink);
    }
}

impl Islip {
    /// The scalar reference kernel: one rotating scan per port per step.
    fn schedule_scalar(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        out.reset(n);
        let matching = out;

        for iter in 0..self.iterations {
            self.trace.begin_iteration(requests, matching);
            // Grant step.
            for j in 0..n {
                self.grant_of_target[j] = None;
                if matching.output_matched(j) {
                    continue;
                }
                self.grant_of_target[j] =
                    self.grant_ptr[j].select(|i| !matching.input_matched(i) && requests.get(i, j));
                if let Some(i) = self.grant_of_target[j] {
                    self.trace.grant(i, j);
                }
            }

            // Accept step.
            let mut new_matches = 0;
            for i in 0..n {
                if matching.input_matched(i) {
                    continue;
                }
                let accepted = self.accept_ptr[i].select(|j| self.grant_of_target[j] == Some(i));
                if let Some(j) = accepted {
                    matching.connect(i, j);
                    new_matches += 1;
                    self.trace.accept(i, j);
                    // Pointers slip only on first-iteration accepts; this is
                    // the rule that prevents starvation (McKeown, Sec. III).
                    if iter == 0 {
                        self.grant_ptr[j].advance_past(i);
                        self.accept_ptr[i].advance_past(j);
                    }
                }
            }
            self.trace.end_iteration(iter, new_matches);
            if new_matches == 0 {
                break;
            }
        }
    }

    /// The word-parallel kernel: the shared live-port iteration
    /// (`bitkern::RequestGrantAccept`) with iSLIP's pointer picks. A grant
    /// is a [`bitkern::rotating_first`] over the output's unmatched
    /// requesters; an accept keeps, per granted input, only the smallest
    /// rotational distance from its accept pointer, so no grant matrix is
    /// stored or cleared. Produces grant-for-grant identical matchings (and
    /// identical pointer updates) to [`Islip::schedule_scalar`].
    fn schedule_bitset(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let mut picks = IslipPicks {
            n: self.n,
            grant_ptr: &mut self.grant_ptr,
            accept_ptr: &mut self.accept_ptr,
            accept_dist: &mut self.accept_dist,
        };
        let trace = &mut self.trace;
        self.rga
            .run(&mut picks, requests, None, self.iterations, out, trace);
    }
}

/// iSLIP's grant and accept picks over its pointers.
struct IslipPicks<'a> {
    n: usize,
    grant_ptr: &'a mut [RoundRobinPointer],
    accept_ptr: &'a mut [RoundRobinPointer],
    accept_dist: &'a mut [usize],
}

impl GrantAccept for IslipPicks<'_> {
    /// The first candidate at or after the output's grant pointer. The
    /// grant's distance `(output - accept_ptr[i]) mod n` is folded into the
    /// input's smallest so far, which is the grant its accept would pick.
    fn grant(&mut self, output: usize, cand: &mut [u64]) -> Option<usize> {
        let i = bitkern::rotating_first(cand, self.n, self.grant_ptr[output].pos())?;
        let start = self.accept_ptr[i].pos();
        let dist = if output >= start {
            output - start
        } else {
            output + self.n - start
        };
        self.accept_dist[i] = self.accept_dist[i].min(dist);
        Some(i)
    }

    /// The granting output closest at or after the accept pointer; the
    /// pointers slip past the pair only on a first-iteration accept.
    fn accept(&mut self, input: usize, first: bool) -> Option<usize> {
        let dist = std::mem::replace(&mut self.accept_dist[input], usize::MAX);
        if dist >= self.n {
            return None;
        }
        let j = self.accept_ptr[input].pos() + dist;
        let j = if j >= self.n { j - self.n } else { j };
        if first {
            self.grant_ptr[j].advance_past(input);
            self.accept_ptr[input].advance_past(j);
        }
        Some(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_requests() {
        let mut s = Islip::new(4, 1);
        assert_eq!(s.schedule(&RequestMatrix::new(4)).size(), 0);
    }

    #[test]
    fn single_request_granted_and_pointers_move() {
        let mut s = Islip::new(4, 1);
        let requests = RequestMatrix::from_pairs(4, [(1, 2)]);
        let m = s.schedule(&requests);
        assert_eq!(m.output_for(1), Some(2));
        assert_eq!(s.grant_pointer(2), 2, "grant pointer moves past input 1");
        assert_eq!(s.accept_pointer(1), 3, "accept pointer moves past output 2");
    }

    #[test]
    fn pointers_do_not_move_without_accept() {
        let mut s = Islip::new(4, 1);
        s.schedule(&RequestMatrix::new(4));
        for j in 0..4 {
            assert_eq!(s.grant_pointer(j), 0);
        }
    }

    #[test]
    fn desynchronization_on_full_matrix() {
        // Classic iSLIP behaviour: under persistent full load the grant
        // pointers de-synchronize and the switch reaches a perfect matching
        // every slot after a short transient (at most n slots).
        let n = 8;
        let mut s = Islip::new(n, 1);
        let requests = RequestMatrix::full(n);
        let mut last_sizes = Vec::new();
        for _ in 0..3 * n {
            last_sizes.push(s.schedule(&requests).size());
        }
        assert!(
            last_sizes[2 * n..].iter().all(|&sz| sz == n),
            "pointers failed to desynchronize: {last_sizes:?}"
        );
    }

    #[test]
    fn round_robin_fairness_on_contended_output() {
        // Three inputs fight for output 0; over 3k slots each must win ~k.
        let n = 4;
        let mut s = Islip::new(n, 1);
        let requests = RequestMatrix::from_pairs(n, [(0, 0), (1, 0), (2, 0)]);
        let mut wins = [0usize; 4];
        for _ in 0..30 {
            let m = s.schedule(&requests);
            if let Some(i) = m.input_for(0) {
                wins[i] += 1;
            }
        }
        assert_eq!(wins, [10, 10, 10, 0]);
    }

    #[test]
    fn matchings_always_valid() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = Islip::new(16, 4);
        for _ in 0..200 {
            let requests = RequestMatrix::random(16, 0.3, &mut rng);
            let m = s.schedule(&requests);
            assert!(m.is_valid_for(&requests));
        }
    }

    #[test]
    fn maximal_with_n_iterations() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = Islip::new(12, 12);
        for _ in 0..100 {
            let requests = RequestMatrix::random(12, 0.4, &mut rng);
            let m = s.schedule(&requests);
            assert!(m.is_maximal_for(&requests));
        }
    }

    #[test]
    fn reset_restores_pointers() {
        let mut s = Islip::new(4, 1);
        s.schedule(&RequestMatrix::full(4));
        s.reset();
        for j in 0..4 {
            assert_eq!(s.grant_pointer(j), 0);
            assert_eq!(s.accept_pointer(j), 0);
        }
    }

    /// Word-boundary pointers, a skipped output and an input granted from
    /// two words, on both backends. Setup pairs (each its own row and
    /// column, all accepted in iteration 0) leave grant pointers at 63, 64,
    /// 127 and 255 and accept pointers at 63, 64, 127 and 255.
    #[test]
    fn word_boundary_pointers_and_live_ports_at_n256() {
        let n = 256;
        let setup = RequestMatrix::from_pairs(
            n,
            [
                (62, 10),
                (63, 11),
                (126, 12),
                (254, 13),
                (6, 62),
                (5, 63),
                (7, 126),
                (8, 254),
            ],
        );
        let requests = RequestMatrix::from_pairs(
            n,
            [
                // Grant pointers 63, 64, 127, 255: at-or-after, across a
                // word boundary, and wrapping past n.
                (0, 10),
                (63, 10),
                (200, 10),
                (63, 11),
                (65, 11),
                (126, 12),
                (3, 12),
                (0, 13),
                (255, 13),
                // Input 5 (accept pointer 64) is granted by outputs 20, 30
                // and 50 in word 0 and 140 in word 2: distances 212, 222,
                // 242 and 76, so it accepts 140.
                (5, 20),
                (5, 140),
                (5, 30),
                (8, 30),
                (5, 50),
                (100, 50),
                // Input 8 (accept pointer 255) accepts 255 over 0; input 7
                // (accept pointer 127) accepts 128 over 126.
                (8, 255),
                (8, 0),
                (7, 126),
                (7, 128),
            ],
        );
        let mut runs = Vec::new();
        for backend in [Backend::Scalar, Backend::Bitset] {
            let mut s = Islip::new(n, 4).with_backend(backend);
            s.schedule(&setup);
            for (j, p) in [(10, 63), (11, 64), (12, 127), (13, 255)] {
                assert_eq!(s.grant_pointer(j), p, "{backend}: grant pointer {j}");
            }
            for (i, p) in [(6, 63), (5, 64), (7, 127), (8, 255)] {
                assert_eq!(s.accept_pointer(i), p, "{backend}: accept pointer {i}");
            }
            s.set_tracing(true);
            let m = s.schedule(&requests);
            let steps = s.last_trace().steps.clone();
            let first: Vec<_> = steps[0].accepts.clone();
            assert_eq!(
                first,
                vec![
                    (3, 12),
                    (5, 140),
                    (7, 128),
                    (8, 255),
                    (63, 10),
                    (65, 11),
                    (255, 13)
                ],
                "{backend}"
            );
            // Output 30 was granted to input 5 in iteration 0; both its
            // requesters (5 and 8) are matched then, so iteration 1 skips
            // it. Output 50 grants its other requester, input 100.
            assert_eq!(steps[1].grants, vec![(100, 50)], "{backend}");
            assert_eq!(steps[1].accepts, vec![(100, 50)], "{backend}");
            assert_eq!(steps.len(), 3, "{backend}: iteration 2 finds nothing");
            // First-iteration accepts slip both pointers (wrapping at n);
            // the iteration-1 match moves neither.
            for (j, p) in [(12, 4), (140, 6), (128, 8), (255, 9), (13, 0), (50, 0)] {
                assert_eq!(s.grant_pointer(j), p, "{backend}: grant pointer {j}");
            }
            for (i, p) in [(5, 141), (7, 129), (8, 0), (255, 14), (100, 0)] {
                assert_eq!(s.accept_pointer(i), p, "{backend}: accept pointer {i}");
            }
            let pointers: Vec<_> = (0..n)
                .map(|p| (s.grant_pointer(p), s.accept_pointer(p)))
                .collect();
            runs.push((m, steps, pointers));
        }
        assert_eq!(runs[0], runs[1], "backends diverged");
    }
}
