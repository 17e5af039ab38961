//! Per-flow FIFO ordering and conservation across every switch model.
//!
//! A correct switch delivers packets of the same (input, output) flow in
//! generation order. With a probe flow generating exactly one packet per
//! slot, the k-th delivery on that flow must carry `generated_at == k − 1`;
//! the [`FlowOrderChecker`] verifies that reconstruction.

use lcf_core::registry::SchedulerKind;
use lcf_core::weighted::GreedyWeight;
use lcf_sim::outbuf::ObSwitch;
use lcf_sim::packet::Packet;
use lcf_sim::stats::{FlowOrderChecker, SimStats};
use lcf_sim::switch::{IqSwitch, QueueMode, WeightSource};
use lcf_sim::traffic::{Bernoulli, DestPattern, OnOffBursty, Traffic};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input 0 sends one packet per slot to output 0; other inputs offer
/// Bernoulli background noise.
struct ProbeFlow {
    n: usize,
    background: Bernoulli,
}

impl Traffic for ProbeFlow {
    fn n(&self) -> usize {
        self.n
    }

    fn arrival(&mut self, slot: u64, input: usize, rng: &mut StdRng) -> Option<usize> {
        if input == 0 {
            Some(0)
        } else {
            self.background.arrival(slot, input, rng)
        }
    }
}

#[test]
fn single_flow_is_fifo_through_every_scheduler() {
    let n = 4;
    let slots = 3_000u64;
    let schedulers = [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDistRr,
        SchedulerKind::Pim,
        SchedulerKind::Islip,
        SchedulerKind::Wavefront,
    ];
    for kind in schedulers {
        let mut sw = IqSwitch::new(n, kind.build(n, 4, 7), QueueMode::Voq { cap: 256 }, 1000);
        let mut traffic = ProbeFlow {
            n,
            background: Bernoulli::new(n, 0.6, DestPattern::Uniform),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = SimStats::new(n, 0, 4096);
        let mut checker = FlowOrderChecker::new(n);
        let mut seen = 0u64;
        let mut next_gen = 0u64;
        for slot in 0..slots {
            sw.step(slot, &mut traffic, &mut rng, &mut stats);
            // FIFO VOQs mean the k-th delivery on the probe flow carries
            // the k-th generated packet; replay that into the checker.
            while seen < stats.service().get(0, 0) {
                assert!(
                    checker.check(&Packet::new(0, 0, next_gen)),
                    "{}: flow (0,0) reordered",
                    kind.name()
                );
                next_gen += 1;
                seen += 1;
            }
        }
        assert_eq!(checker.violations(), 0);
        assert!(
            seen > slots / 2,
            "{}: probe flow starved ({seen})",
            kind.name()
        );
    }
}

fn assert_conserves(generated: u64, delivered: u64, dropped: u64, buffered: usize, tag: &str) {
    assert_eq!(
        generated,
        delivered + dropped + buffered as u64,
        "conservation violated in {tag}"
    );
}

#[test]
fn bursty_traffic_conserves_in_every_model() {
    let n = 8;
    let slots = 4_000u64;
    let mk_traffic = || OnOffBursty::new(n, 0.7, 12.0, DestPattern::Uniform);

    // Boolean-scheduler IQ switch.
    let mut sw = IqSwitch::new(
        n,
        SchedulerKind::LcfCentralRr.build(n, 4, 5),
        QueueMode::Voq { cap: 128 },
        500,
    );
    let mut traffic = mk_traffic();
    let mut rng = StdRng::seed_from_u64(5);
    let mut stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    assert_conserves(
        stats.generated,
        stats.delivered,
        stats.dropped(),
        sw.buffered_packets(),
        "iq",
    );

    // Weighted (LQF) IQ switch.
    let mut sw = IqSwitch::new_weighted(
        n,
        Box::new(GreedyWeight::new(n, "lqf")),
        WeightSource::QueueLength,
        128,
        500,
    );
    let mut traffic = mk_traffic();
    let mut rng = StdRng::seed_from_u64(5);
    let mut stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    assert_conserves(
        stats.generated,
        stats.delivered,
        stats.dropped(),
        sw.buffered_packets(),
        "lqf",
    );

    // CIOQ with speedup and pipeline depth.
    let mut sw = IqSwitch::new_cioq(
        n,
        SchedulerKind::LcfCentralRr.build(n, 4, 5),
        2,
        1,
        500,
        128,
        128,
    );
    let mut traffic = mk_traffic();
    let mut rng = StdRng::seed_from_u64(5);
    let mut stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    assert_conserves(
        stats.generated,
        stats.delivered,
        stats.dropped(),
        sw.buffered_packets(),
        "cioq",
    );

    // Output-buffered reference.
    let mut sw = ObSwitch::new(n, 500, 128);
    let mut traffic = mk_traffic();
    let mut rng = StdRng::seed_from_u64(5);
    let mut stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    assert_conserves(
        stats.generated,
        stats.delivered,
        stats.dropped(),
        sw.buffered_packets(),
        "outbuf",
    );
}
