//! Differential tests of the word-parallel matching kernels: for every
//! scheduler that has a bitset fast path, the `Backend::Bitset` and
//! `Backend::Scalar` implementations must produce *bit-identical* schedules
//! — same matchings, same pointer/RNG state evolution — on any request
//! sequence, at any port count. Port counts within one word are covered by
//! the proptests; the multi-word path (n > 64) by the deterministic
//! `large_n_*` tests below, which sweep n ∈ {65, 128, 192, 256} across word
//! boundaries, on fresh matrices and on one matrix edited in place from
//! slot to slot the way the switch edits its own.

use lcf_core::bitkern::Backend;
use lcf_core::islip::Islip;
use lcf_core::lcf::{CentralLcf, DistributedLcf, RrPolicy};
use lcf_core::matching::Matching;
use lcf_core::pim::Pim;
use lcf_core::registry::SchedulerKind;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use lcf_core::wavefront::Wavefront;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL_POLICIES: [RrPolicy; 6] = [
    RrPolicy::None,
    RrPolicy::SinglePosition,
    RrPolicy::Row,
    RrPolicy::Column,
    RrPolicy::Diagonal,
    RrPolicy::PriorityDiagonal,
];

/// A sequence of request matrices drawn from a seeded RNG; the schedulers
/// are stateful (pointers, RNG streams), so equivalence must hold across
/// consecutive slots, not just on a single matrix.
fn matrix_sequence(n: usize, seed: u64, slots: usize, density: f64) -> Vec<RequestMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..slots)
        .map(|_| RequestMatrix::random(n, density, &mut rng))
        .collect()
}

/// A distributed LCF scheduler of either flavour on the given backend.
fn distributed(
    n: usize,
    iterations: usize,
    round_robin: bool,
    backend: Backend,
) -> Box<dyn Scheduler + Send> {
    let sched = if round_robin {
        DistributedLcf::with_round_robin(n, iterations)
    } else {
        DistributedLcf::pure(n, iterations)
    };
    Box::new(sched.with_backend(backend))
}

/// Runs the same slot sequence through a scalar and a bitset instance of one
/// scheduler and asserts grant-for-grant identical matchings.
fn assert_equivalent(
    mut scalar: Box<dyn Scheduler + Send>,
    mut bitset: Box<dyn Scheduler + Send>,
    matrices: &[RequestMatrix],
    label: &str,
) {
    for (slot, requests) in matrices.iter().enumerate() {
        let a: Vec<_> = scalar.schedule(requests).pairs().collect();
        let b: Vec<_> = bitset.schedule(requests).pairs().collect();
        assert_eq!(a, b, "{label} diverged at slot {slot}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CentralLcf: every fairness policy, any n in the word, any density.
    #[test]
    fn central_lcf_bitset_matches_scalar(
        n in 1usize..=64,
        seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let matrices = matrix_sequence(n, seed, 4, density);
        for policy in ALL_POLICIES {
            assert_equivalent(
                Box::new(CentralLcf::with_policy(n, policy).with_backend(Backend::Scalar)),
                Box::new(CentralLcf::with_policy(n, policy).with_backend(Backend::Bitset)),
                &matrices,
                &format!("lcf_central policy {policy:?} n={n}"),
            );
        }
    }

    /// iSLIP: pointer updates feed back into later slots, so any divergence
    /// compounds — run enough slots to expose it.
    #[test]
    fn islip_bitset_matches_scalar(
        n in 1usize..=64,
        iterations in 1usize..=4,
        seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let matrices = matrix_sequence(n, seed, 6, density);
        assert_equivalent(
            Box::new(Islip::new(n, iterations).with_backend(Backend::Scalar)),
            Box::new(Islip::new(n, iterations).with_backend(Backend::Bitset)),
            &matrices,
            &format!("islip n={n} iters={iterations}"),
        );
    }

    /// PIM: both kernels must consume the RNG stream identically (same
    /// ascending port order, same `gen_range` bounds), so a shared seed
    /// keeps them aligned across slots.
    #[test]
    fn pim_bitset_matches_scalar(
        n in 1usize..=64,
        iterations in 1usize..=4,
        seed in any::<u64>(),
        pim_seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let matrices = matrix_sequence(n, seed, 6, density);
        assert_equivalent(
            Box::new(Pim::new(n, iterations, pim_seed).with_backend(Backend::Scalar)),
            Box::new(Pim::new(n, iterations, pim_seed).with_backend(Backend::Bitset)),
            &matrices,
            &format!("pim n={n} iters={iterations}"),
        );
    }

    /// Distributed LCF, both flavours: the round-robin pointer and the
    /// tie-break rotation carry state across slots, and the iteration
    /// budget decides how far the bit-plane narrowing is exercised (one
    /// iteration, the paper's four, and enough to converge).
    #[test]
    fn distributed_lcf_bitset_matches_scalar(
        n in 1usize..=64,
        seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let matrices = matrix_sequence(n, seed, 6, density);
        for iterations in [1, 4, n] {
            for round_robin in [false, true] {
                let build = |backend| distributed(n, iterations, round_robin, backend);
                assert_equivalent(
                    build(Backend::Scalar),
                    build(Backend::Bitset),
                    &matrices,
                    &format!("lcf_dist rr={round_robin} n={n} iters={iterations}"),
                );
            }
        }
    }

    /// Wavefront: the rotating starting diagonal is the only state.
    #[test]
    fn wavefront_bitset_matches_scalar(
        n in 1usize..=64,
        seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        // More slots than ports would be ideal, but n + 2 covers a full
        // offset rotation for small n and stays cheap for n = 64.
        let matrices = matrix_sequence(n, seed, (n + 2).min(8), density);
        assert_equivalent(
            Box::new(Wavefront::new(n).with_backend(Backend::Scalar)),
            Box::new(Wavefront::new(n).with_backend(Backend::Bitset)),
            &matrices,
            &format!("wfront n={n}"),
        );
    }

    /// The registry's backend plumbing: `build_with_backend` must hand the
    /// chosen backend to every scheduler that supports one, and the two
    /// backends must agree through the trait-object interface too.
    #[test]
    fn registry_backends_agree(
        seed in any::<u64>(),
        sched_seed in any::<u64>(),
        density in 0.0f64..=1.0,
    ) {
        let n = 16;
        let matrices = matrix_sequence(n, seed, 4, density);
        for kind in [
            SchedulerKind::LcfCentral,
            SchedulerKind::LcfCentralRr,
            SchedulerKind::LcfDist,
            SchedulerKind::LcfDistRr,
            SchedulerKind::Pim,
            SchedulerKind::Islip,
            SchedulerKind::Wavefront,
        ] {
            assert_equivalent(
                kind.build_with_backend(n, 4, sched_seed, Backend::Scalar).0,
                kind.build_with_backend(n, 4, sched_seed, Backend::Bitset).0,
                &matrices,
                kind.name(),
            );
        }
    }
}

/// Past the word width the bitset backend stays word-parallel (no scalar
/// fallback) and still agrees with the scalar reference.
#[test]
fn bitset_backend_stays_word_parallel_above_word_width() {
    let n = 80;
    assert!(Backend::Bitset.word_parallel());
    let mut rng = StdRng::seed_from_u64(9);
    let requests = RequestMatrix::random(n, 0.3, &mut rng);
    let mut a = CentralLcf::pure(n).with_backend(Backend::Scalar);
    let mut b = CentralLcf::pure(n).with_backend(Backend::Bitset);
    assert_eq!(
        a.schedule(&requests).pairs().collect::<Vec<_>>(),
        b.schedule(&requests).pairs().collect::<Vec<_>>()
    );
}

/// Multi-word port counts for the deterministic large-n sweeps: one bit over
/// a word boundary, exactly two words, a three-word interior count, and
/// exactly four words.
const LARGE_NS: [usize; 4] = [65, 128, 192, 256];

/// Densities bracketing sparse and contended request matrices, plus the
/// ~2.4% measured on the n = 256, load 0.9 switch (`wide256`).
const LARGE_DENSITIES: [f64; 3] = [0.024, 0.25, 0.75];

/// Like `assert_equivalent`, but drives the allocation-free `schedule_into`
/// entry point with output buffers that are deliberately dirty before the
/// first slot and reused (still dirty) across slots — the kernels must
/// reset them fully, not rely on zeroed state.
fn assert_equivalent_into(
    scalar: &mut dyn Scheduler,
    bitset: &mut dyn Scheduler,
    n: usize,
    matrices: &[RequestMatrix],
    label: &str,
) {
    let mut out_a = Matching::new(n);
    let mut out_b = Matching::new(n);
    for i in 0..n {
        out_a.connect(i, (i + 1) % n);
        out_b.connect(i, n - 1 - i);
    }
    for (slot, requests) in matrices.iter().enumerate() {
        scalar.schedule_into(requests, &mut out_a);
        bitset.schedule_into(requests, &mut out_b);
        let a: Vec<_> = out_a.pairs().collect();
        let b: Vec<_> = out_b.pairs().collect();
        assert_eq!(a, b, "{label} diverged at slot {slot}");
    }
}

/// CentralLcf above the word width: every fairness policy, multi-word masks.
#[test]
fn large_n_central_lcf_bitset_matches_scalar() {
    for n in LARGE_NS {
        for density in LARGE_DENSITIES {
            let matrices = matrix_sequence(n, 0xC0FFEE ^ n as u64, 3, density);
            for policy in ALL_POLICIES {
                assert_equivalent_into(
                    &mut CentralLcf::with_policy(n, policy).with_backend(Backend::Scalar),
                    &mut CentralLcf::with_policy(n, policy).with_backend(Backend::Bitset),
                    n,
                    &matrices,
                    &format!("lcf_central policy {policy:?} n={n} d={density}"),
                );
            }
        }
    }
}

/// iSLIP above the word width: pointer feedback across slots.
#[test]
fn large_n_islip_bitset_matches_scalar() {
    for n in LARGE_NS {
        for density in LARGE_DENSITIES {
            let matrices = matrix_sequence(n, 0xBEEF ^ n as u64, 4, density);
            assert_equivalent_into(
                &mut Islip::new(n, 4).with_backend(Backend::Scalar),
                &mut Islip::new(n, 4).with_backend(Backend::Bitset),
                n,
                &matrices,
                &format!("islip n={n} d={density}"),
            );
        }
    }
}

/// PIM above the word width: the RNG stream must stay aligned across the
/// multi-word popcount/k-th-bit selection.
#[test]
fn large_n_pim_bitset_matches_scalar() {
    for n in LARGE_NS {
        for density in LARGE_DENSITIES {
            let matrices = matrix_sequence(n, 0xD00D ^ n as u64, 4, density);
            assert_equivalent_into(
                &mut Pim::new(n, 4, 42).with_backend(Backend::Scalar),
                &mut Pim::new(n, 4, 42).with_backend(Backend::Bitset),
                n,
                &matrices,
                &format!("pim n={n} d={density}"),
            );
        }
    }
}

/// Distributed LCF above the word width, both flavours: multi-word
/// candidate masks and bit-planes.
#[test]
fn large_n_distributed_lcf_bitset_matches_scalar() {
    for n in LARGE_NS {
        for density in LARGE_DENSITIES {
            let matrices = matrix_sequence(n, 0xD157 ^ n as u64, 3, density);
            for round_robin in [false, true] {
                assert_equivalent_into(
                    distributed(n, 4, round_robin, Backend::Scalar).as_mut(),
                    distributed(n, 4, round_robin, Backend::Bitset).as_mut(),
                    n,
                    &matrices,
                    &format!("lcf_dist rr={round_robin} n={n} d={density}"),
                );
            }
        }
    }
}

/// Wavefront above the word width: rotating offset over multi-word diagonals.
#[test]
fn large_n_wavefront_bitset_matches_scalar() {
    for n in LARGE_NS {
        for density in LARGE_DENSITIES {
            let matrices = matrix_sequence(n, 0xFACE ^ n as u64, 4, density);
            assert_equivalent_into(
                &mut Wavefront::new(n).with_backend(Backend::Scalar),
                &mut Wavefront::new(n).with_backend(Backend::Bitset),
                n,
                &matrices,
                &format!("wfront n={n} d={density}"),
            );
        }
    }
}

/// The registry surface above the word width: bitset requests must be
/// honored (`AsRequested`, never a fallback) and agree with scalar through
/// the trait-object interface.
#[test]
fn large_n_registry_backends_agree_and_report_as_requested() {
    use lcf_core::registry::BackendChoice;
    for n in LARGE_NS {
        let matrices = matrix_sequence(n, 0xABBA ^ n as u64, 3, 0.5);
        for kind in [
            SchedulerKind::LcfCentral,
            SchedulerKind::LcfCentralRr,
            SchedulerKind::LcfDist,
            SchedulerKind::LcfDistRr,
            SchedulerKind::Pim,
            SchedulerKind::Islip,
            SchedulerKind::Wavefront,
        ] {
            let (mut scalar, _) = kind.build_with_backend(n, 4, 7, Backend::Scalar);
            let (mut bitset, choice) = kind.build_with_backend(n, 4, 7, Backend::Bitset);
            assert_eq!(
                choice,
                BackendChoice::AsRequested(Backend::Bitset),
                "{kind} must run bit-parallel at n = {n}"
            );
            assert_equivalent_into(
                scalar.as_mut(),
                bitset.as_mut(),
                n,
                &matrices,
                &format!("{kind} n={n}"),
            );
        }
    }
}

/// Every bitset kernel against its scalar reference on *one* request
/// matrix edited in place between slots, as the switch edits its own at VOQ
/// transitions: granted requests drain away (their VOQ empties) and random
/// requests appear or vanish, so the kept columns and counts are exercised
/// through long runs of small edits rather than rebuilt from scratch. More
/// than `n` consecutive slots run at n = 65, so the central pointer's `J`
/// advances as well as its `I`.
#[test]
fn large_n_evolving_matrix_kernels_match_scalar() {
    type Make = Box<dyn Fn(usize, Backend) -> Box<dyn Scheduler + Send>>;
    let mut kernels: Vec<(String, Make)> = ALL_POLICIES
        .iter()
        .map(|&policy| {
            let make: Make =
                Box::new(move |n, b| Box::new(CentralLcf::with_policy(n, policy).with_backend(b)));
            (format!("lcf_central {policy:?}"), make)
        })
        .collect();
    kernels.push((
        "islip".into(),
        Box::new(|n, b| Box::new(Islip::new(n, 4).with_backend(b))),
    ));
    kernels.push((
        "pim".into(),
        Box::new(|n, b| Box::new(Pim::new(n, 4, 42).with_backend(b))),
    ));
    kernels.push((
        "lcf_dist".into(),
        Box::new(|n, b| distributed(n, 4, false, b)),
    ));
    kernels.push((
        "lcf_dist_rr".into(),
        Box::new(|n, b| distributed(n, 4, true, b)),
    ));
    kernels.push((
        "wfront".into(),
        Box::new(|n, b| Box::new(Wavefront::new(n).with_backend(b))),
    ));

    for (n, slots) in [(65, 2 * 65 + 3), (256, 24)] {
        for density in LARGE_DENSITIES {
            for (name, make) in &kernels {
                let mut scalar = make(n, Backend::Scalar);
                let mut bitset = make(n, Backend::Bitset);
                let mut rng = StdRng::seed_from_u64(0xE70 ^ n as u64);
                let mut requests = RequestMatrix::random(n, density, &mut rng);
                let (mut out_a, mut out_b) = (Matching::new(n), Matching::new(n));
                for slot in 0..slots {
                    scalar.schedule_into(&requests, &mut out_a);
                    bitset.schedule_into(&requests, &mut out_b);
                    let a: Vec<_> = out_a.pairs().collect();
                    assert_eq!(
                        a,
                        out_b.pairs().collect::<Vec<_>>(),
                        "{name} n={n} d={density} diverged at slot {slot}"
                    );
                    // Served requests drain with probability 1/2; then
                    // random positions are redrawn at the target density.
                    for (i, j) in a {
                        if rng.gen_bool(0.5) {
                            requests.set(i, j, false);
                        }
                    }
                    for _ in 0..2 * n {
                        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        requests.set(i, j, rng.gen_bool(density));
                    }
                }
            }
        }
    }
}
