//! Integration tests for the extension subsystems: weighted schedulers in
//! the full switch model, and the CIOQ speedup/pipelining switch.

use lcf_switch::prelude::*;
use lcf_switch::sim::stats::SimStats;
use lcf_switch::sim::switch::WeightSource;
use lcf_switch::sim::traffic::Bernoulli;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn drive_iq(mut sw: IqSwitch, load: f64, slots: u64, seed: u64) -> (SimStats, IqSwitch) {
    let n = sw.n();
    let mut traffic = Bernoulli::new(n, load, DestPattern::Uniform);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        sw.step(slot, &mut traffic, &mut rng, &mut stats);
    }
    (stats, sw)
}

#[test]
fn lqf_switch_sustains_high_uniform_load() {
    let n = 16;
    let sw = IqSwitch::new_weighted(
        n,
        Box::new(GreedyWeight::new(n, "lqf")),
        WeightSource::QueueLength,
        256,
        1000,
    );
    let (stats, sw) = drive_iq(sw, 0.95, 20_000, 3);
    let throughput = stats.delivered as f64 / (20_000.0 * n as f64);
    assert!(throughput > 0.9, "LQF throughput {throughput}");
    let accounted = stats.delivered + stats.dropped() + sw.buffered_packets() as u64;
    assert_eq!(stats.generated, accounted);
}

#[test]
fn ocf_bounds_the_tail_better_than_pure_lcf() {
    let n = 16;
    let slots = 60_000;
    let ocf = IqSwitch::new_weighted(
        n,
        Box::new(GreedyWeight::new(n, "ocf")),
        WeightSource::HolAge,
        256,
        1000,
    );
    let (ocf_stats, _) = drive_iq(ocf, 0.95, slots, 4);
    let lcf = IqSwitch::new(
        n,
        SchedulerKind::LcfCentral.build(n, 4, 4),
        lcf_switch::sim::switch::QueueMode::Voq { cap: 256 },
        1000,
    );
    let (lcf_stats, _) = drive_iq(lcf, 0.95, slots, 4);
    // Oldest-cell-first is tail-optimal by construction; LCF wins the mean.
    assert!(
        ocf_stats.latency_quantile(0.999) < lcf_stats.latency_quantile(0.999),
        "OCF p99.9 {} vs LCF p99.9 {}",
        ocf_stats.latency_quantile(0.999),
        lcf_stats.latency_quantile(0.999)
    );
    assert!(
        lcf_stats.mean_latency() < ocf_stats.mean_latency(),
        "LCF mean {} vs OCF mean {}",
        lcf_stats.mean_latency(),
        ocf_stats.mean_latency()
    );
}

#[test]
fn mwm_switch_sustains_high_uniform_load() {
    let n = 16;
    let sw = IqSwitch::new_weighted(
        n,
        Box::new(MaxWeightMatcher::new(n)),
        WeightSource::QueueLength,
        256,
        1000,
    );
    let (stats, sw) = drive_iq(sw, 0.95, 20_000, 3);
    let throughput = stats.delivered as f64 / (20_000.0 * n as f64);
    assert!(throughput > 0.9, "MWM throughput {throughput}");
    let accounted = stats.delivered + stats.dropped() + sw.buffered_packets() as u64;
    assert_eq!(stats.generated, accounted);
}

#[test]
fn nwgreedy_tracks_the_reference_tier_closely() {
    let n = 16;
    let slots = 20_000;
    let greedy = IqSwitch::new_weighted(
        n,
        Box::new(NodeWeightedGreedy::new(n)),
        WeightSource::QueueLength,
        256,
        1000,
    );
    let (greedy_stats, _) = drive_iq(greedy, 0.9, slots, 11);
    let mwm = IqSwitch::new_weighted(
        n,
        Box::new(MaxWeightMatcher::new(n)),
        WeightSource::QueueLength,
        256,
        1000,
    );
    let (mwm_stats, _) = drive_iq(mwm, 0.9, slots, 11);
    let gt = greedy_stats.delivered as f64 / (slots as f64 * n as f64);
    let mt = mwm_stats.delivered as f64 / (slots as f64 * n as f64);
    assert!(gt > 0.85, "nwgreedy throughput {gt}");
    // The O(n log n) heuristic must stay within a few percent of the O(n³)
    // exact matcher on uniform traffic — the point of shipping it at all.
    assert!(
        gt > mt - 0.03,
        "nwgreedy throughput {gt} falls too far below MWM's {mt}"
    );
}

#[test]
fn weighted_runner_is_reachable_from_the_facade() {
    let mut cfg = lcf_switch::sim::config::SimConfig::paper_default();
    cfg.n = 8;
    cfg.warmup_slots = 200;
    cfg.measure_slots = 2_000;
    for kind in WeightedKind::ALL {
        let report = lcf_switch::sim::runner::run_sim_weighted(&cfg, kind);
        assert_eq!(report.model, kind.name());
        assert!(report.throughput > 0.0, "{kind}: no packets delivered");
    }
}

#[test]
fn cioq_speedup_two_emulates_output_queueing() {
    let n = 16;
    let slots = 30_000u64;
    let run_cioq = |speedup: usize| {
        let mut sw = IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, 4, 9),
            speedup,
            0,
            1000,
            256,
            256,
        );
        let mut traffic = Bernoulli::new(n, 0.95, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(9);
        let mut stats = SimStats::new(n, 0, 4096);
        for slot in 0..slots {
            sw.step(slot, &mut traffic, &mut rng, &mut stats);
        }
        stats
    };
    let s1 = run_cioq(1);
    let s2 = run_cioq(2);
    assert!(
        s2.mean_latency() < s1.mean_latency() * 0.8,
        "speedup 2 must cut delay substantially ({} vs {})",
        s2.mean_latency(),
        s1.mean_latency()
    );

    // Reference: the output-buffered switch with identical arrivals.
    let mut ob = ObSwitch::new(n, 1000, 256);
    let mut traffic = Bernoulli::new(n, 0.95, DestPattern::Uniform);
    let mut rng = StdRng::seed_from_u64(9);
    let mut ob_stats = SimStats::new(n, 0, 4096);
    for slot in 0..slots {
        ob.step(slot, &mut traffic, &mut rng, &mut ob_stats);
    }
    let gap = (s2.mean_latency() - ob_stats.mean_latency()).abs();
    assert!(
        gap < 0.05,
        "speedup-2 CIOQ must sit on the outbuf curve (gap {gap})"
    );
}

#[test]
fn pipelined_scheduling_costs_exactly_its_depth() {
    let n = 8;
    let slots = 30_000u64;
    let run_depth = |depth: usize| {
        let mut sw = IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, 4, 5),
            1,
            depth,
            1000,
            256,
            256,
        );
        let mut traffic = Bernoulli::new(n, 0.5, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        let mut stats = SimStats::new(n, 0, 4096);
        for slot in 0..slots {
            sw.step(slot, &mut traffic, &mut rng, &mut stats);
        }
        (stats.mean_latency(), sw.wasted_grants())
    };
    let (d0, w0) = run_depth(0);
    let (d3, w3) = run_depth(3);
    assert_eq!(w0, 0);
    assert_eq!(w3, 0, "in-flight accounting must prevent stale grants");
    let added = d3 - d0;
    assert!(
        (2.7..3.3).contains(&added),
        "3 pipeline stages must add ~3 slots of delay, added {added}"
    );
}
