//! PIM — Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker).
//!
//! The baseline the distributed LCF scheduler is derived from: the same
//! request/grant/accept iteration structure, but grants and accepts are
//! chosen *uniformly at random* instead of by least-choice priority.

use crate::bitkern::{self, Backend, GrantAccept, RequestGrantAccept};
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
    // Word-parallel scratch (bitset backend): the shared live-port masks
    // and a flat `n × words_for(n)` grant row per input, all zero between
    // calls (an accept clears the row it read).
    rga: RequestGrantAccept,
    grant_rows: Vec<u64>,
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
            rga: RequestGrantAccept::new(n),
            grant_rows: vec![0; n * w],
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

    /// The word-parallel kernel: the shared live-port iteration
    /// (`bitkern::RequestGrantAccept`) with PIM's uniform picks, each a
    /// popcount plus a k-th-set-bit select on a multi-word mask. The
    /// iteration skips exactly the ports whose candidate set is empty, where
    /// the scalar kernel draws nothing either, and keeps the ascending port
    /// order and the `gen_range` bounds, so the RNG stream is consumed
    /// identically and the matchings are bit-identical to
    /// [`Pim::schedule_scalar`].
    fn schedule_bitset(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let mut picks = PimPicks {
            w: bitkern::words_for(self.n),
            rng: &mut self.rng,
            grant_rows: &mut self.grant_rows,
        };
        let trace = &mut self.trace;
        self.rga
            .run(&mut picks, requests, None, self.iterations, out, trace);
    }
}

/// PIM's uniform grant and accept picks.
struct PimPicks<'a> {
    w: usize,
    rng: &'a mut StdRng,
    grant_rows: &'a mut [u64],
}

impl GrantAccept for PimPicks<'_> {
    /// A uniform pick among the candidates (ascending mask order matches
    /// the scalar candidate list); the grant is recorded in the input's
    /// grant row.
    fn grant(&mut self, output: usize, cand: &mut [u64]) -> Option<usize> {
        let count = bitkern::popcount(cand);
        if count == 0 {
            return None;
        }
        let i = bitkern::kth_set_bit(cand, self.rng.gen_range(0..count));
        bitkern::set_bit(&mut self.grant_rows[i * self.w..(i + 1) * self.w], output);
        Some(i)
    }

    /// A uniform pick among the input's grants; the grant row is cleared.
    fn accept(&mut self, input: usize, _first: bool) -> Option<usize> {
        let grants = &mut self.grant_rows[input * self.w..(input + 1) * self.w];
        let count = bitkern::popcount(grants);
        if count == 0 {
            return None;
        }
        let j = bitkern::kth_set_bit(grants, self.rng.gen_range(0..count));
        grants.fill(0);
        Some(j)
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

    /// Across word boundaries the bitset kernel draws the same RNG stream
    /// as the scalar one, and every grant row it set is cleared by the
    /// accept that read it.
    #[test]
    fn bitset_matches_scalar_and_clears_grant_rows() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(130);
        for n in [65, 130, 256] {
            let mut scalar = Pim::new(n, 4, 9).with_backend(Backend::Scalar);
            let mut bitset = Pim::new(n, 4, 9).with_backend(Backend::Bitset);
            for density in [0.024, 0.3, 0.9] {
                let requests = RequestMatrix::random(n, density, &mut rng);
                assert_eq!(
                    bitset.schedule(&requests),
                    scalar.schedule(&requests),
                    "n={n} density={density}"
                );
                assert!(
                    bitset.grant_rows.iter().all(|&w| w == 0),
                    "n={n} density={density}: a grant row was left set"
                );
            }
        }
    }
}
