//! Property tests for the CIOQ switch: conservation and pipelining
//! invariants must hold for arbitrary speedups, pipeline depths and loads.

use lcf_core::registry::SchedulerKind;
use lcf_sim::stats::SimStats;
use lcf_sim::switch::IqSwitch;
use lcf_sim::traffic::{Bernoulli, DestPattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(
    kind: SchedulerKind,
    speedup: usize,
    depth: usize,
    load: f64,
    slots: u64,
    seed: u64,
) -> (SimStats, IqSwitch) {
    let n = 8;
    let mut sw = IqSwitch::new_cioq(n, kind.build(n, 4, seed), speedup, depth, 100, 32, 32);
    let mut traffic = Bernoulli::new(n, load, DestPattern::Uniform);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = SimStats::new(n, 0, 1024);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    (stats, sw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation holds for any (scheduler, speedup, depth, load, seed).
    #[test]
    fn cioq_conserves_packets(
        kind in proptest::sample::select(SchedulerKind::VOQ_PRACTICAL.to_vec()),
        speedup in 1usize..4,
        depth in 0usize..6,
        load in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (stats, sw) = run(kind, speedup, depth, load, 1_500, seed);
        let accounted = stats.delivered + stats.dropped() + sw.buffered_packets() as u64;
        prop_assert_eq!(stats.generated, accounted);
    }

    /// With in-flight grant accounting, pipelining never wastes grants on
    /// drained VOQs (only full output buffers can waste one).
    #[test]
    fn pipelining_never_stales_grants_below_saturation(
        depth in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Load 0.6 with 32-deep output buffers: buffers never fill, so any
        // wasted grant would indicate an accounting bug.
        let (_, sw) = run(SchedulerKind::LcfCentralRr, 1, depth, 0.6, 2_000, seed);
        prop_assert_eq!(sw.wasted_grants(), 0);
    }

    /// Output links never exceed capacity: delivered <= slots * n.
    #[test]
    fn output_capacity_respected(
        speedup in 1usize..4,
        load in 0.5f64..=1.0,
        seed in any::<u64>(),
    ) {
        let slots = 1_000u64;
        let (stats, _) = run(SchedulerKind::Islip, speedup, 0, load, slots, seed);
        prop_assert!(stats.delivered <= slots * 8, "speedup must not inflate link rate");
    }
}
