//! PIM — Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker).
//!
//! The baseline the distributed LCF scheduler is derived from: the same
//! request/grant/accept iteration structure, but grants and accepts are
//! chosen *uniformly at random* instead of by least-choice priority.

use crate::bitkern::{self, Backend};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::telemetry::IterationTrace;
use crate::traits::Scheduler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Parallel Iterative Matcher.
///
/// Each iteration:
/// 1. every unmatched input requests all unmatched outputs it has cells for;
/// 2. every unmatched output grants one request uniformly at random;
/// 3. every unmatched input accepts one grant uniformly at random.
///
/// Converges to a maximal matching in `O(log n)` iterations with high
/// probability; the paper (and ours) runs it with a fixed budget of 4.
#[derive(Clone, Debug)]
pub struct Pim {
    n: usize,
    iterations: usize,
    backend: Backend,
    rng: StdRng,
    seed: u64,
    // Scratch, reused across slots.
    grant_of_target: Vec<Option<usize>>,
    candidates: Vec<usize>,
    trace: IterationTrace,
    // Word-parallel scratch (bitset backend): flat `n × words_for(n)`
    // grant masks plus per-port candidate and unmatched scratch masks. The
    // column masks are the request matrix's kept transpose, borrowed per
    // call.
    grant_mask: Vec<u64>,
    unmatched_in: Vec<u64>,
    unmatched_out: Vec<u64>,
    cand: Vec<u64>,
}

impl Pim {
    /// Creates a PIM scheduler with the given iteration budget and RNG seed.
    pub fn new(n: usize, iterations: usize, seed: u64) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        assert!(iterations > 0, "at least one iteration required");
        let w = bitkern::words_for(n);
        Pim {
            n,
            iterations,
            backend: Backend::default(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            grant_of_target: vec![None; n],
            candidates: Vec::with_capacity(n),
            trace: IterationTrace::default(),
            grant_mask: vec![0; n * w],
            unmatched_in: vec![0; w],
            unmatched_out: vec![0; w],
            cand: vec![0; w],
        }
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends consume the RNG identically and produce bit-identical
    /// matchings; see [`Backend`].
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

    /// Convergence record of the most recent `schedule` call (same shape
    /// as [`DistributedLcf::last_trace`](crate::lcf::DistributedLcf::last_trace)).
    pub fn last_trace(&self) -> &IterationTrace {
        &self.trace
    }
}

impl Scheduler for Pim {
    fn name(&self) -> &'static str {
        "pim"
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
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(lcf_telemetry::Event)) {
        self.trace.drain_into(sink);
    }
}

impl Pim {
    /// The scalar reference kernel: candidate lists gathered per port.
    fn schedule_scalar(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        out.reset(n);
        let matching = out;

        for iter in 0..self.iterations {
            self.trace.begin_iteration(requests, matching);
            // Grant: each unmatched output picks uniformly among the
            // unmatched inputs requesting it.
            for j in 0..n {
                self.grant_of_target[j] = None;
                if matching.output_matched(j) {
                    continue;
                }
                self.candidates.clear();
                self.candidates
                    .extend(requests.col_ones(j).filter(|&i| !matching.input_matched(i)));
                if !self.candidates.is_empty() {
                    let pick = self.rng.gen_range(0..self.candidates.len());
                    self.grant_of_target[j] = Some(self.candidates[pick]);
                    self.trace.grant(self.candidates[pick], j);
                }
            }

            // Accept: each input holding grants picks uniformly among them.
            let mut new_matches = 0;
            for i in 0..n {
                if matching.input_matched(i) {
                    continue;
                }
                self.candidates.clear();
                self.candidates
                    .extend((0..n).filter(|&j| self.grant_of_target[j] == Some(i)));
                if !self.candidates.is_empty() {
                    let pick = self.rng.gen_range(0..self.candidates.len());
                    let j = self.candidates[pick];
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

    /// The word-parallel kernel: the uniform pick over a candidate list
    /// becomes a popcount plus a k-th-set-bit select on the multi-word
    /// candidate mask. The ports are visited in the same ascending order
    /// with the same `gen_range` bounds as the scalar kernel, so the RNG
    /// stream is consumed identically and the matchings are bit-identical
    /// to [`Pim::schedule_scalar`].
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
            // Grant: each unmatched output picks uniformly among the
            // unmatched inputs requesting it (k-th set bit of the mask,
            // ascending — the mask order matches the scalar candidate list).
            // Word-copy walking visits outputs in ascending order.
            self.grant_mask.fill(0);
            for wi in 0..w {
                let mut outs = self.unmatched_out[wi];
                while outs != 0 {
                    let j = wi * bitkern::WORD_BITS + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    for (k, c) in self.cand.iter_mut().enumerate() {
                        *c = cols[j * w + k] & self.unmatched_in[k];
                    }
                    let count = bitkern::popcount(&self.cand);
                    if count > 0 {
                        let pick = self.rng.gen_range(0..count);
                        let i = bitkern::kth_set_bit(&self.cand, pick);
                        bitkern::set_bit(&mut self.grant_mask[i * w..(i + 1) * w], j);
                        self.trace.grant(i, j);
                    }
                }
            }

            // Accept: each input holding grants picks uniformly among them.
            // The per-word snapshot stays valid: inputs are cleared from
            // `unmatched_in` only when they accept, at most once each.
            let mut new_matches = 0;
            for wi in 0..w {
                let mut ins = self.unmatched_in[wi];
                while ins != 0 {
                    let i = wi * bitkern::WORD_BITS + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    let grants = &self.grant_mask[i * w..(i + 1) * w];
                    let count = bitkern::popcount(grants);
                    if count > 0 {
                        let pick = self.rng.gen_range(0..count);
                        let j = bitkern::kth_set_bit(grants, pick);
                        matching.connect(i, j);
                        bitkern::clear_bit(&mut self.unmatched_in, i);
                        bitkern::clear_bit(&mut self.unmatched_out, j);
                        new_matches += 1;
                        self.trace.accept(i, j);
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
        let mut pim = Pim::new(4, 4, 1);
        assert_eq!(pim.schedule(&RequestMatrix::new(4)).size(), 0);
    }

    #[test]
    fn single_request_granted() {
        let mut pim = Pim::new(4, 4, 1);
        let requests = RequestMatrix::from_pairs(4, [(1, 2)]);
        let m = pim.schedule(&requests);
        assert_eq!(m.output_for(1), Some(2));
    }

    #[test]
    fn full_requests_saturate() {
        // With n iterations PIM reaches a maximal matching; on the full
        // matrix a maximal matching is perfect.
        let mut pim = Pim::new(8, 8, 42);
        for _ in 0..20 {
            assert_eq!(pim.schedule(&RequestMatrix::full(8)).size(), 8);
        }
    }

    #[test]
    fn matchings_always_valid() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(99);
        let mut pim = Pim::new(16, 4, 7);
        for _ in 0..200 {
            let requests = RequestMatrix::random(16, 0.3, &mut rng);
            let m = pim.schedule(&requests);
            assert!(m.is_valid_for(&requests));
        }
    }

    #[test]
    fn maximal_with_n_iterations() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut pim = Pim::new(12, 12, 5);
        for _ in 0..100 {
            let requests = RequestMatrix::random(12, 0.4, &mut rng);
            let m = pim.schedule(&requests);
            assert!(m.is_maximal_for(&requests));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let requests = RequestMatrix::full(8);
        let mut a = Pim::new(8, 4, 1234);
        let mut b = Pim::new(8, 4, 1234);
        for _ in 0..10 {
            assert_eq!(
                a.schedule(&requests).pairs().collect::<Vec<_>>(),
                b.schedule(&requests).pairs().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reset_reseeds() {
        let requests = RequestMatrix::full(8);
        let mut pim = Pim::new(8, 4, 77);
        let first: Vec<_> = pim.schedule(&requests).pairs().collect();
        pim.schedule(&requests);
        pim.reset();
        let again: Vec<_> = pim.schedule(&requests).pairs().collect();
        assert_eq!(first, again);
    }

    #[test]
    fn randomness_varies_across_slots() {
        // On the full matrix PIM should not produce the same permutation
        // every slot (that's the whole point of the coin flips).
        let requests = RequestMatrix::full(8);
        let mut pim = Pim::new(8, 4, 2);
        let first: Vec<_> = pim.schedule(&requests).pairs().collect();
        let distinct =
            (0..20).any(|_| pim.schedule(&requests).pairs().collect::<Vec<_>>() != first);
        assert!(
            distinct,
            "20 identical PIM matchings in a row is implausible"
        );
    }
}
