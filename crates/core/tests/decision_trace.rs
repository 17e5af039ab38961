//! The paper's worked example (Fig. 3), verified *by decision reasons*.
//!
//! The central-LCF tests elsewhere pin down who gets matched to whom; these
//! tests pin down **why** — the precedence the paper describes in Sec. 4:
//! the rotating round-robin position wins outright, otherwise the requester
//! with the fewest outstanding requests, with ties broken by the rotating
//! priority chain starting at the diagonal requester.

use lcf_core::bitkern::Backend;
use lcf_core::lcf::RrPolicy;
use lcf_core::prelude::*;
use lcf_core::telemetry::GrantReason;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The 4×4 request pattern of Fig. 3 (I = 1, J = 0 after one advance).
fn figure3_requests() -> RequestMatrix {
    RequestMatrix::from_pairs(
        4,
        [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 2),
            (1, 3),
            (2, 0),
            (2, 2),
            (2, 3),
            (3, 1),
        ],
    )
}

fn traced_figure3() -> CentralLcf {
    let mut sched = CentralLcf::with_round_robin(4);
    sched.advance_pointer(); // Fig. 3 starts from I = 1, J = 0
    sched.set_tracing(true);
    sched
}

#[test]
fn figure3_grant_reasons_follow_the_paper() {
    let mut sched = traced_figure3();
    let m = sched.schedule(&figure3_requests());
    assert_eq!(m.size(), 4);

    let d = sched.last_decisions();
    assert_eq!(d.len(), 4, "one decision per scheduled output");

    // T0 -> I1: the round-robin position [I1, T0] wins outright, even
    // though I2 also requests T0. Precedence, not counts.
    assert_eq!((d[0].resource, d[0].winner), (0, 1));
    assert_eq!(d[0].reason, GrantReason::RrPosition);
    assert_eq!(d[0].winner_nrq, 3, "the RR winner had MORE choices (3)");
    assert_eq!(d[0].losers, vec![(2, 3)]);

    // T1 -> I3: least choice first. I3's single outstanding request beats
    // I0's two.
    assert_eq!((d[1].resource, d[1].winner), (1, 3));
    assert_eq!(d[1].reason, GrantReason::MinCount);
    assert_eq!(d[1].winner_nrq, 1);
    assert_eq!(d[1].losers, vec![(0, 2)]);

    // T2 -> I0: I0 is down to one outstanding request (T1 was taken by
    // I3), beating I2's two.
    assert_eq!((d[2].resource, d[2].winner), (2, 0));
    assert_eq!(d[2].reason, GrantReason::MinCount);
    assert_eq!(d[2].winner_nrq, 1);
    assert_eq!(d[2].losers, vec![(2, 2)]);

    // T3 -> I2: the only requester left.
    assert_eq!((d[3].resource, d[3].winner), (3, 2));
    assert_eq!(d[3].reason, GrantReason::OnlyChoice);
    assert!(d[3].losers.is_empty());
}

#[test]
fn tie_is_broken_by_rotating_chain_and_reported_as_such() {
    // Pure LCF, pointer at origin: I0 and I1 both have two outstanding
    // requests and both want T0. The chain starts at the diagonal requester
    // (I0), so I0 wins — and the decision must say the win was a tie-break,
    // not a count win.
    let requests = RequestMatrix::from_pairs(4, [(0, 0), (0, 1), (1, 0), (1, 2)]);
    let mut sched = CentralLcf::pure(4);
    sched.set_tracing(true);
    let m = sched.schedule(&requests);
    assert_eq!(m.output_for(0), Some(0));
    let d = sched.last_decisions();
    assert_eq!((d[0].resource, d[0].winner), (0, 0));
    assert_eq!(d[0].reason, GrantReason::TieBreak);
    assert_eq!(d[0].losers, vec![(1, 2)]);
}

#[test]
fn priority_diagonal_pre_pass_is_reported() {
    let mut sched = CentralLcf::with_policy(4, RrPolicy::PriorityDiagonal);
    sched.set_tracing(true);
    let m = sched.schedule(&RequestMatrix::full(4));
    assert_eq!(m.size(), 4);
    let d = sched.last_decisions();
    assert!(
        d.iter().all(|d| d.reason == GrantReason::PriorityDiagonal),
        "full matrix: the whole diagonal is granted in the pre-pass"
    );
}

const ALL_POLICIES: [RrPolicy; 6] = [
    RrPolicy::None,
    RrPolicy::SinglePosition,
    RrPolicy::Row,
    RrPolicy::Column,
    RrPolicy::Diagonal,
    RrPolicy::PriorityDiagonal,
];

/// Central LCF under every policy, plus iSLIP, PIM and both distributed
/// LCF flavours: every scheduler with both a word-parallel kernel and
/// decision tracing.
fn lineup(n: usize, backend: Backend, traced: bool) -> Vec<Box<dyn Scheduler + Send>> {
    let mut all: Vec<Box<dyn Scheduler + Send>> = ALL_POLICIES
        .iter()
        .map(|&p| {
            Box::new(CentralLcf::with_policy(n, p).with_backend(backend))
                as Box<dyn Scheduler + Send>
        })
        .collect();
    all.push(Box::new(Islip::new(n, 4).with_backend(backend)));
    all.push(Box::new(Pim::new(n, 4, 0x5EED).with_backend(backend)));
    all.push(Box::new(DistributedLcf::pure(n, 4).with_backend(backend)));
    all.push(Box::new(
        DistributedLcf::with_round_robin(n, 4).with_backend(backend),
    ));
    for s in &mut all {
        s.set_tracing(traced);
    }
    all
}

fn drained(s: &mut dyn Scheduler) -> Vec<String> {
    let mut lines = Vec::new();
    s.drain_events(&mut |e| lines.push(e.to_json()));
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing runs the configured kernel: a traced bitset run records the
    /// same decisions as a traced scalar run, and schedules exactly what an
    /// untraced run does — below, at and across the 64-port word boundary,
    /// and at four words (n = 256). Density 0.024 is the request density
    /// of the n = 256 benchmark switches, where most ports run out of live
    /// partners before the iterations do.
    #[test]
    fn traced_bitset_matches_traced_scalar_and_untraced(
        n in proptest::sample::select(vec![4usize, 16, 65, 256]),
        seed in any::<u64>(),
        density in prop_oneof![Just(0.024f64), 0.0f64..=1.0],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bitset = lineup(n, Backend::Bitset, true);
        let mut scalar = lineup(n, Backend::Scalar, true);
        let mut plain = lineup(n, Backend::Bitset, false);
        for slot in 0..4 {
            let requests = RequestMatrix::random(n, density, &mut rng);
            for ((b, s), p) in bitset.iter_mut().zip(&mut scalar).zip(&mut plain) {
                let m = b.schedule(&requests);
                let label = format!("{} n={n} slot {slot}", b.name());
                assert_eq!(m, p.schedule(&requests), "{label}: tracing changed the matching");
                assert_eq!(m, s.schedule(&requests), "{label}: kernels diverged");
                assert_eq!(drained(b.as_mut()), drained(s.as_mut()), "{label}: events differ");
            }
        }
    }
}

#[test]
fn drained_events_match_decisions_and_clear() {
    let mut sched = traced_figure3();
    sched.schedule(&figure3_requests());
    let mut lines = Vec::new();
    sched.drain_events(&mut |e| lines.push(e.to_json()));
    assert_eq!(lines.len(), 4);
    assert_eq!(
        lines[0],
        r#"{"slot":0,"kind":"grant","output":0,"input":1,"reason":"rr_position","nrq":3,"losers":[[2,3]]}"#
    );
    // Draining empties the buffer.
    let mut again = 0;
    sched.drain_events(&mut |_| again += 1);
    assert_eq!(again, 0);
}

#[test]
fn iterative_steps_reconstruct_figure9() {
    // Fig. 9 (distributed LCF): iteration 0 matches (I0,T2), (I1,T0),
    // (I3,T1); iteration 1 matches (I2,T3). The traced step sets must tell
    // exactly that story.
    let requests = RequestMatrix::from_pairs(
        4,
        [
            (0, 2),
            (1, 0),
            (1, 2),
            (1, 3),
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 3),
        ],
    );
    let mut sched = DistributedLcf::pure(4, 2);
    sched.set_tracing(true);
    let m = sched.schedule(&requests);
    assert_eq!(m.size(), 4);
    let steps = &sched.last_trace().steps;
    assert_eq!(steps.len(), 2);
    assert_eq!(steps[0].requests.len(), 9, "all nine requests go out first");
    assert_eq!(steps[0].accepts, vec![(0, 2), (1, 0), (3, 1)]);
    assert_eq!(steps[1].accepts, vec![(2, 3)]);
    // Iteration 1 only involves the leftover ports.
    assert!(steps[1].requests.iter().all(|&(i, _)| i == 2));
}

#[test]
fn untraced_schedulers_record_nothing() {
    let mut sched = CentralLcf::with_round_robin(4);
    sched.schedule(&figure3_requests());
    assert!(sched.last_decisions().is_empty());
    let mut events = 0;
    sched.drain_events(&mut |_| events += 1);
    assert_eq!(events, 0);
}
