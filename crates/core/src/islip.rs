//! iSLIP — iterative round-robin matching with slip (McKeown).
//!
//! Replaces PIM's coin flips with rotating grant/accept pointers. The
//! pointer-update rule — pointers move only when a grant is accepted *in the
//! first iteration* — is what de-synchronizes the grant pointers ("slip")
//! and gives 100% throughput under uniform traffic.

use crate::arbiter::RoundRobinPointer;
use crate::bitkern::{self, Backend};
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
    // Word-parallel scratch (bitset backend): flat `n × words_for(n)`
    // grant masks plus three single-mask scratch buffers. The column masks
    // are the request matrix's kept transpose, borrowed per call.
    grant_mask: Vec<u64>,
    unmatched_in: Vec<u64>,
    unmatched_out: Vec<u64>,
    cand: Vec<u64>,
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
        let w = bitkern::words_for(n);
        Islip {
            n,
            iterations,
            backend: Backend::default(),
            grant_ptr: vec![RoundRobinPointer::new(n); n],
            accept_ptr: vec![RoundRobinPointer::new(n); n],
            grant_of_target: vec![None; n],
            grant_mask: vec![0; n * w],
            unmatched_in: vec![0; w],
            unmatched_out: vec![0; w],
            cand: vec![0; w],
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

    /// The word-parallel kernel: candidate filtering is a word-wise `AND`
    /// of the request matrix's kept column mask against the
    /// unmatched-inputs mask, and each pointer
    /// scan is a word-walk [`bitkern::rotating_first`] over the
    /// `words_for(n)`-word mask. Produces grant-for-grant identical
    /// matchings (and identical pointer updates) to
    /// [`Islip::schedule_scalar`].
    fn schedule_bitset(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        let w = bitkern::words_for(n);
        out.reset(n);
        let matching = out;
        let cols = requests.cols().all_words();
        bitkern::mask_fill(&mut self.unmatched_in, n);
        bitkern::mask_fill(&mut self.unmatched_out, n);

        for iter in 0..self.iterations {
            self.trace.begin_iteration(requests, matching);
            // Grant step: each unmatched output offers its grant to the
            // first requesting unmatched input at or after its pointer.
            // Walking word copies of the unmatched-outputs mask visits the
            // outputs in the same ascending order as the scalar loop.
            self.grant_mask.fill(0);
            for wi in 0..w {
                let mut outs = self.unmatched_out[wi];
                while outs != 0 {
                    let j = wi * bitkern::WORD_BITS + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    for (k, c) in self.cand.iter_mut().enumerate() {
                        *c = cols[j * w + k] & self.unmatched_in[k];
                    }
                    if let Some(i) = bitkern::rotating_first(&self.cand, n, self.grant_ptr[j].pos())
                    {
                        bitkern::set_bit(&mut self.grant_mask[i * w..(i + 1) * w], j);
                        self.trace.grant(i, j);
                    }
                }
            }

            // Accept step: each input holding grants accepts the first at
            // or after its pointer. The per-word snapshot (`ins`) is not
            // invalidated by clearing bits of `unmatched_in`: an input is
            // cleared only when it accepts, and each input accepts at most
            // once per iteration.
            let mut new_matches = 0;
            for wi in 0..w {
                let mut ins = self.unmatched_in[wi];
                while ins != 0 {
                    let i = wi * bitkern::WORD_BITS + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    if let Some(j) = bitkern::rotating_first(
                        &self.grant_mask[i * w..(i + 1) * w],
                        n,
                        self.accept_ptr[i].pos(),
                    ) {
                        matching.connect(i, j);
                        bitkern::clear_bit(&mut self.unmatched_in, i);
                        bitkern::clear_bit(&mut self.unmatched_out, j);
                        new_matches += 1;
                        self.trace.accept(i, j);
                        if iter == 0 {
                            self.grant_ptr[j].advance_past(i);
                            self.accept_ptr[i].advance_past(j);
                        }
                    }
                }
            }
            self.trace.end_iteration(iter, new_matches);
            if new_matches == 0 {
                break;
            }
        }
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
}
