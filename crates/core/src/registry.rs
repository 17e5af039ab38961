//! Name-based scheduler construction for experiment harnesses.

use crate::bitkern::Backend;
use crate::fifo_rr::FifoRr;
use crate::islip::Islip;
use crate::lcf::{CentralLcf, DistributedLcf};
use crate::maxsize::MaxSizeMatcher;
use crate::mwm::{MaxWeightMatcher, NodeWeightedGreedy};
use crate::pim::Pim;
use crate::traits::Scheduler;
use crate::wavefront::Wavefront;
use crate::weighted::{GreedyWeight, WeightGuarantee, WeightedScheduler};

/// The schedulers evaluated in the paper's Fig. 12, plus the reference
/// matchers (maximum-size, and maximum-weight under unit weights).
/// (`outbuf` is a switch architecture, not a scheduler, and lives in
/// `lcf-sim`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SchedulerKind {
    Fifo,
    LcfCentral,
    LcfCentralRr,
    LcfDist,
    LcfDistRr,
    Pim,
    Islip,
    Wavefront,
    MaxSize,
    MaxWeight,
    /// Test-only probe that panics on every `schedule` call. Excluded from
    /// [`SchedulerKind::ALL`]; exists so fault-isolation paths (`try_sweep`
    /// panic containment) can be exercised through the public registry.
    FaultProbe,
}

/// How the registry resolved a requested kernel [`Backend`] for a concrete
/// scheduler and port count. Returned by
/// [`SchedulerKind::build_with_backend`] so callers can see exactly which
/// kernel will run instead of guessing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// The scheduler runs the backend the caller asked for.
    AsRequested(Backend),
    /// The scheduler has no word-parallel kernel at all; the backend request
    /// is ignored and the scalar implementation always runs.
    NoKernel,
}

impl BackendChoice {
    /// The backend that will actually execute.
    pub fn effective(self) -> Backend {
        match self {
            BackendChoice::AsRequested(b) => b,
            BackendChoice::NoKernel => Backend::Scalar,
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::AsRequested(b) => f.write_str(b.name()),
            BackendChoice::NoKernel => f.write_str("scalar (no word-parallel kernel)"),
        }
    }
}

/// The deliberately faulty scheduler behind [`SchedulerKind::FaultProbe`].
struct FaultProbe {
    n: usize,
}

impl Scheduler for FaultProbe {
    fn name(&self) -> &'static str {
        "panic_probe"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(
        &mut self,
        _requests: &crate::request::RequestMatrix,
        _out: &mut crate::matching::Matching,
    ) {
        // lint:allow(no-panic): this probe exists to panic, so fault isolation can be tested
        panic!("panic_probe: deliberate scheduler fault");
    }
}

impl SchedulerKind {
    /// All kinds, in the order the paper's Fig. 12 legend lists them
    /// (best-documented first), with the reference matchers last.
    pub const ALL: [SchedulerKind; 10] = [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDistRr,
        SchedulerKind::LcfDist,
        SchedulerKind::Pim,
        SchedulerKind::Islip,
        SchedulerKind::Wavefront,
        SchedulerKind::Fifo,
        SchedulerKind::MaxSize,
        SchedulerKind::MaxWeight,
    ];

    /// The seven VOQ-based practical schedulers of Fig. 12 (excludes `fifo`,
    /// which needs the single-FIFO queue model, and the reference matcher).
    pub const VOQ_PRACTICAL: [SchedulerKind; 7] = [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDistRr,
        SchedulerKind::LcfDist,
        SchedulerKind::Pim,
        SchedulerKind::Islip,
        SchedulerKind::Wavefront,
    ];

    /// The paper's name for this scheduler (Fig. 12 legend).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::LcfCentral => "lcf_central",
            SchedulerKind::LcfCentralRr => "lcf_central_rr",
            SchedulerKind::LcfDist => "lcf_dist",
            SchedulerKind::LcfDistRr => "lcf_dist_rr",
            SchedulerKind::Pim => "pim",
            SchedulerKind::Islip => "islip",
            SchedulerKind::Wavefront => "wfront",
            SchedulerKind::MaxSize => "maxsize",
            SchedulerKind::MaxWeight => "mwm",
            SchedulerKind::FaultProbe => "panic_probe",
        }
    }

    /// Parses a paper name back into a kind. The test-only `panic_probe` is
    /// addressable by name even though it is not part of
    /// [`SchedulerKind::ALL`].
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        if name == "panic_probe" {
            return Some(SchedulerKind::FaultProbe);
        }
        SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for the iterative schedulers whose `iterations` parameter the
    /// paper pins to 4 in the Fig. 12 experiment.
    pub fn is_iterative(self) -> bool {
        matches!(
            self,
            SchedulerKind::LcfDist
                | SchedulerKind::LcfDistRr
                | SchedulerKind::Pim
                | SchedulerKind::Islip
        )
    }

    /// True if the scheduler expects single-FIFO (head-of-line only) inputs.
    pub fn wants_fifo_queues(self) -> bool {
        self == SchedulerKind::Fifo
    }

    /// True for schedulers that have a word-parallel (bitset) kernel in
    /// addition to the scalar reference kernel.
    pub fn has_kernel(self) -> bool {
        matches!(
            self,
            SchedulerKind::LcfCentral
                | SchedulerKind::LcfCentralRr
                | SchedulerKind::LcfDist
                | SchedulerKind::LcfDistRr
                | SchedulerKind::Pim
                | SchedulerKind::Islip
                | SchedulerKind::Wavefront
        )
    }

    /// True if every matching this scheduler produces is guaranteed maximal
    /// (no augmenting single edge). The greedy central schedulers and the
    /// wavefront arbiter sweep all positions each slot; the iterative
    /// schedulers stop after a finite iteration budget and may leave an
    /// augmenting edge behind. `fifo` is maximal under its own precondition
    /// of at most one request per input (head-of-line requests only).
    pub fn guarantees_maximal(self) -> bool {
        matches!(
            self,
            SchedulerKind::Fifo
                | SchedulerKind::LcfCentral
                | SchedulerKind::LcfCentralRr
                | SchedulerKind::Wavefront
                | SchedulerKind::MaxSize
                | SchedulerKind::MaxWeight
        )
    }

    /// Resolves a requested backend for this scheduler at port count `n`
    /// without building anything. The multi-word kernels serve every port
    /// count, so schedulers with a kernel always honor the request; only
    /// kernel-less schedulers report [`BackendChoice::NoKernel`].
    pub fn resolve_backend(self, _n: usize, requested: Backend) -> BackendChoice {
        if !self.has_kernel() {
            BackendChoice::NoKernel
        } else {
            BackendChoice::AsRequested(requested)
        }
    }

    /// Builds a scheduler instance with the default (word-parallel) kernel
    /// backend.
    ///
    /// * `iterations` — budget for the iterative schedulers (ignored by the
    ///   others).
    /// * `seed` — RNG seed (used by PIM only).
    pub fn build(self, n: usize, iterations: usize, seed: u64) -> Box<dyn Scheduler + Send> {
        self.build_with_backend(n, iterations, seed, Backend::default())
            .0
    }

    /// Like [`SchedulerKind::build`], but selects the matching-kernel
    /// [`Backend`] for the schedulers that have a word-parallel fast path
    /// (`lcf_central*`, `lcf_dist*`, `islip`, `pim`, `wfront`). The scalar
    /// backend is the reference implementation; both produce bit-identical
    /// matchings, so this is a performance dial and a differential-testing
    /// hook, never a semantic switch. Schedulers without a bitset kernel
    /// ignore the choice.
    ///
    /// Returns the scheduler together with the [`BackendChoice`] that was
    /// actually applied, so callers can assert which kernel runs instead of
    /// guessing.
    pub fn build_with_backend(
        self,
        n: usize,
        iterations: usize,
        seed: u64,
        backend: Backend,
    ) -> (Box<dyn Scheduler + Send>, BackendChoice) {
        let sched: Box<dyn Scheduler + Send> = match self {
            SchedulerKind::Fifo => Box::new(FifoRr::new(n)),
            SchedulerKind::LcfCentral => Box::new(CentralLcf::pure(n).with_backend(backend)),
            SchedulerKind::LcfCentralRr => {
                Box::new(CentralLcf::with_round_robin(n).with_backend(backend))
            }
            SchedulerKind::LcfDist => {
                Box::new(DistributedLcf::pure(n, iterations).with_backend(backend))
            }
            SchedulerKind::LcfDistRr => {
                Box::new(DistributedLcf::with_round_robin(n, iterations).with_backend(backend))
            }
            SchedulerKind::Pim => Box::new(Pim::new(n, iterations, seed).with_backend(backend)),
            SchedulerKind::Islip => Box::new(Islip::new(n, iterations).with_backend(backend)),
            SchedulerKind::Wavefront => Box::new(Wavefront::new(n).with_backend(backend)),
            SchedulerKind::MaxSize => Box::new(MaxSizeMatcher::new(n)),
            SchedulerKind::MaxWeight => Box::new(MaxWeightMatcher::new(n)),
            SchedulerKind::FaultProbe => Box::new(FaultProbe { n }),
        };
        (sched, self.resolve_backend(n, backend))
    }

    /// Like [`SchedulerKind::build_with_backend`], but wraps the scheduler
    /// in a [`CheckedScheduler`](crate::check::CheckedScheduler) that
    /// validates every matching (permutation validity, grant ⊆ request,
    /// maximality where [`SchedulerKind::guarantees_maximal`]) and — when
    /// the effective backend is the bitset kernel — replays every request
    /// matrix through a scalar twin built from the same seed, asserting
    /// bit-identical agreement. The simulator uses this in debug builds.
    #[cfg(feature = "check-invariants")]
    pub fn build_checked(
        self,
        n: usize,
        iterations: usize,
        seed: u64,
        backend: Backend,
    ) -> (Box<dyn Scheduler + Send>, BackendChoice) {
        use crate::check::{CheckedScheduler, ScheduleChecker};

        let (primary, choice) = self.build_with_backend(n, iterations, seed, backend);
        let checker = ScheduleChecker::new().require_maximal(self.guarantees_maximal());
        let mut checked = CheckedScheduler::new(primary, checker);
        if choice.effective() == Backend::Bitset {
            let (twin, _) = self.build_with_backend(n, iterations, seed, Backend::Scalar);
            checked = checked.with_shadow(twin);
        }
        (Box::new(checked), choice)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The weighted-scheduler registry: name-based construction for the
/// schedulers that consume a [`WeightMatrix`](crate::weighted::WeightMatrix)
/// instead of a boolean request pattern. These sit outside the Fig. 12
/// lineup (the paper's schedulers are all pattern-only) but complete the
/// taxonomy: the practical weighted heuristics (`lqf`, `ocf`, `nwgreedy`)
/// and the exact reference (`mwm`) the heuristics are measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeightedKind {
    /// Longest queue first: edge-greedy over queue-length weights.
    Lqf,
    /// Oldest cell first: edge-greedy over head-of-line cell ages.
    Ocf,
    /// Exact maximum-weight matching over queue lengths (Hungarian).
    Mwm,
    /// Node-weighted greedy (Gupta/Sanghavi/Shroff) over queue lengths.
    NwGreedy,
}

impl WeightedKind {
    /// All weighted kinds, heuristics first, reference last.
    pub const ALL: [WeightedKind; 4] = [
        WeightedKind::Lqf,
        WeightedKind::Ocf,
        WeightedKind::NwGreedy,
        WeightedKind::Mwm,
    ];

    /// The experiment-output name of this scheduler.
    pub fn name(self) -> &'static str {
        match self {
            WeightedKind::Lqf => "lqf",
            WeightedKind::Ocf => "ocf",
            WeightedKind::Mwm => "mwm",
            WeightedKind::NwGreedy => "nwgreedy",
        }
    }

    /// Parses a name back into a kind.
    pub fn from_name(name: &str) -> Option<WeightedKind> {
        WeightedKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True if the scheduler's weights are head-of-line cell ages rather
    /// than queue lengths (the simulator picks its `WeightSource` from
    /// this).
    pub fn age_weighted(self) -> bool {
        self == WeightedKind::Ocf
    }

    /// The weight bound this scheduler promises relative to the exact
    /// maximum-weight matching (enforced slot by slot by
    /// [`build_checked`](WeightedKind::build_checked)).
    pub fn guarantee(self) -> WeightGuarantee {
        match self {
            WeightedKind::Mwm => WeightGuarantee::Exact,
            WeightedKind::Lqf | WeightedKind::Ocf => WeightGuarantee::HalfOfOptimal,
            WeightedKind::NwGreedy => WeightGuarantee::Heuristic,
        }
    }

    /// Builds a weighted scheduler instance. None of the weighted
    /// schedulers has a word-parallel kernel, so there is no backend
    /// parameter; the registry's [`BackendChoice`] story for them is
    /// uniformly [`BackendChoice::NoKernel`].
    pub fn build(self, n: usize) -> Box<dyn WeightedScheduler + Send> {
        match self {
            WeightedKind::Lqf => Box::new(GreedyWeight::new(n, "lqf")),
            WeightedKind::Ocf => Box::new(GreedyWeight::new(n, "ocf")),
            WeightedKind::Mwm => Box::new(MaxWeightMatcher::new(n)),
            WeightedKind::NwGreedy => Box::new(NodeWeightedGreedy::new(n)),
        }
    }

    /// Like [`WeightedKind::build`], but wraps the scheduler in a
    /// [`CheckedWeightedScheduler`](crate::check::CheckedWeightedScheduler)
    /// that validates every matching (permutation validity, grant ⊆
    /// positive-weight request, maximality) and holds the scheduler to its
    /// [`WeightedKind::guarantee`] against a Hungarian oracle. The
    /// simulator's weighted path uses this in debug builds.
    #[cfg(feature = "check-invariants")]
    pub fn build_checked(self, n: usize) -> Box<dyn WeightedScheduler + Send> {
        Box::new(crate::check::CheckedWeightedScheduler::new(
            self.build(n),
            self.guarantee(),
        ))
    }
}

impl std::fmt::Display for WeightedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestMatrix;

    #[test]
    fn names_roundtrip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_name("outbuf"), None);
    }

    #[test]
    fn build_produces_matching_scheduler() {
        for kind in SchedulerKind::ALL {
            let mut s = kind.build(8, 4, 1);
            assert_eq!(s.num_ports(), 8);
            assert_eq!(s.name(), kind.name());
            // Single-request matrices satisfy even the FIFO precondition.
            let requests = RequestMatrix::from_pairs(8, [(3, 5)]);
            let m = s.schedule(&requests);
            assert_eq!(
                m.output_for(3),
                Some(5),
                "{kind} must grant the only request"
            );
        }
    }

    #[test]
    fn iterative_flags() {
        assert!(SchedulerKind::Pim.is_iterative());
        assert!(SchedulerKind::LcfDist.is_iterative());
        assert!(!SchedulerKind::LcfCentral.is_iterative());
        assert!(!SchedulerKind::Wavefront.is_iterative());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", SchedulerKind::LcfCentralRr), "lcf_central_rr");
    }

    #[test]
    fn backend_choice_honors_request_at_any_port_count() {
        let kind = SchedulerKind::LcfCentralRr;
        for n in [8, 64, 100, 256, 1024] {
            assert_eq!(
                kind.resolve_backend(n, Backend::Bitset),
                BackendChoice::AsRequested(Backend::Bitset),
                "multi-word kernels must serve n = {n}"
            );
            assert_eq!(
                kind.resolve_backend(n, Backend::Scalar),
                BackendChoice::AsRequested(Backend::Scalar)
            );
        }
        // Schedulers without a kernel ignore the request entirely.
        assert_eq!(
            SchedulerKind::MaxSize.resolve_backend(8, Backend::Bitset),
            BackendChoice::NoKernel
        );
    }

    #[test]
    fn build_with_backend_returns_the_resolved_choice() {
        let (s, choice) = SchedulerKind::Islip.build_with_backend(100, 4, 1, Backend::Bitset);
        assert_eq!(s.num_ports(), 100);
        assert_eq!(choice, BackendChoice::AsRequested(Backend::Bitset));
        for kind in [
            SchedulerKind::LcfCentral,
            SchedulerKind::LcfDist,
            SchedulerKind::LcfDistRr,
            SchedulerKind::Islip,
            SchedulerKind::Pim,
            SchedulerKind::Wavefront,
        ] {
            let (_, choice) = kind.build_with_backend(256, 4, 1, Backend::Bitset);
            assert_eq!(
                choice,
                BackendChoice::AsRequested(Backend::Bitset),
                "{kind} must run the bitset kernel at n = 256"
            );
        }
    }

    #[test]
    fn panic_probe_is_hidden_but_addressable() {
        assert!(!SchedulerKind::ALL.contains(&SchedulerKind::FaultProbe));
        assert_eq!(
            SchedulerKind::from_name("panic_probe"),
            Some(SchedulerKind::FaultProbe)
        );
        assert_eq!(SchedulerKind::FaultProbe.name(), "panic_probe");
        let (s, choice) = SchedulerKind::FaultProbe.build_with_backend(4, 1, 0, Backend::default());
        assert_eq!(s.num_ports(), 4);
        assert_eq!(choice, BackendChoice::NoKernel);
    }

    #[test]
    #[should_panic(expected = "deliberate scheduler fault")]
    fn panic_probe_panics_on_schedule() {
        let mut s = SchedulerKind::FaultProbe.build(4, 1, 0);
        let _ = s.schedule(&RequestMatrix::full(4));
    }

    #[cfg(feature = "check-invariants")]
    #[test]
    fn build_checked_validates_and_shadows() {
        for kind in SchedulerKind::ALL {
            let (mut s, _) = kind.build_checked(8, 4, 1, Backend::default());
            let requests = RequestMatrix::from_pairs(8, [(3, 5)]);
            let m = s.schedule(&requests);
            assert_eq!(m.output_for(3), Some(5), "{kind}");
        }
    }

    #[test]
    fn weighted_names_roundtrip() {
        for kind in WeightedKind::ALL {
            assert_eq!(WeightedKind::from_name(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(WeightedKind::from_name("lcf_central"), None);
    }

    #[test]
    fn weighted_build_produces_matching_scheduler() {
        use crate::weighted::WeightMatrix;
        for kind in WeightedKind::ALL {
            let mut s = kind.build(8);
            assert_eq!(s.num_ports(), 8);
            assert_eq!(s.name(), kind.name());
            let w = WeightMatrix::from_triples(8, [(3, 5, 7)]);
            let m = s.schedule_weighted(&w);
            assert_eq!(
                m.output_for(3),
                Some(5),
                "{kind} must grant the only request"
            );
        }
    }

    #[test]
    fn weighted_guarantees_and_flags() {
        use crate::weighted::WeightGuarantee;
        assert_eq!(WeightedKind::Mwm.guarantee(), WeightGuarantee::Exact);
        assert_eq!(
            WeightedKind::Lqf.guarantee(),
            WeightGuarantee::HalfOfOptimal
        );
        assert_eq!(
            WeightedKind::Ocf.guarantee(),
            WeightGuarantee::HalfOfOptimal
        );
        assert_eq!(
            WeightedKind::NwGreedy.guarantee(),
            WeightGuarantee::Heuristic
        );
        assert!(WeightedKind::Ocf.age_weighted());
        assert!(!WeightedKind::Lqf.age_weighted());
        assert!(!WeightedKind::Mwm.age_weighted());
    }

    #[test]
    fn mwm_kind_is_registered_like_the_other_reference() {
        assert!(SchedulerKind::ALL.contains(&SchedulerKind::MaxWeight));
        assert_eq!(
            SchedulerKind::from_name("mwm"),
            Some(SchedulerKind::MaxWeight)
        );
        assert!(SchedulerKind::MaxWeight.guarantees_maximal());
        assert!(!SchedulerKind::MaxWeight.has_kernel());
        assert!(!SchedulerKind::MaxWeight.is_iterative());
        assert_eq!(
            SchedulerKind::MaxWeight.resolve_backend(8, Backend::Bitset),
            BackendChoice::NoKernel
        );
    }

    #[cfg(feature = "check-invariants")]
    #[test]
    fn weighted_build_checked_validates() {
        use crate::weighted::WeightMatrix;
        for kind in WeightedKind::ALL {
            let mut s = kind.build_checked(8);
            assert_eq!(s.name(), kind.name());
            let w = WeightMatrix::from_triples(8, [(3, 5, 7), (2, 5, 3), (2, 1, 1)]);
            let m = s.schedule_weighted(&w);
            assert_eq!(m.output_for(3), Some(5), "{kind}");
            assert_eq!(m.output_for(2), Some(1), "{kind}");
        }
    }
}
