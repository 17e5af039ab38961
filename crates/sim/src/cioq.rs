//! The buffered fabric stage of the switch: fabric speedup, pipelined
//! scheduling and output buffers (combined input/output queueing, CIOQ).
//!
//! Two knobs the paper's introduction motivates but does not evaluate:
//!
//! * **Speedup** — Sec. 1 notes throughput must be traded against latency
//!   and cost. A fabric running `s` times faster than the links can move
//!   `s` matchings per slot from the VOQs into (necessary) output buffers;
//!   classic theory says a speedup of 2 lets an input-queued switch emulate
//!   output queueing. EXT-10 measures where LCF lands on that curve.
//! * **Scheduling latency** — Sec. 1: "By pipelining the scheduler and
//!   overlapping scheduling and packet forwarding, packet throughput is
//!   optimized. Note that these techniques do not reduce latency." A
//!   pipeline depth of `L` slots means the matching applied in slot `t` was
//!   computed from the VOQ state of slot `t − L`. EXT-11 measures that cost.
//!
//! The input stage (PQs, spill, request matrix, scheduling seam) is the
//! one [`IqSwitch`](crate::switch::IqSwitch) runs for every fabric;
//! [`IqSwitch::new_cioq`](crate::switch::IqSwitch::new_cioq) builds the
//! switch with this stage behind it. At `s = 1, L = 0` it moves the same
//! packets in the same slots as the direct fabric.
//!
//! **Request invariant.** A VOQ's packets that are granted but not yet
//! pulled through the fabric are *in flight*: the scheduler issued those
//! grants, so it does not request them again. The switch keeps request
//! bit `(i, j)` set exactly when `len_for(i, j) > in_flight(i, j)`, at four
//! transitions:
//!
//! 1. a spill push sets the bit (the input stage's rule; `in_flight ≤ len`
//!    before the push);
//! 2. a grant that brings `in_flight` up to `len` clears it;
//! 3. a wasted grant — its output buffer is full — sets it again;
//! 4. an applied grant pops the packet and leaves it unchanged.

use crate::queues::{BoundedFifo, VoqSet};
use crate::stats::SimStats;
use crate::switch::{schedule_pass, SwitchTelemetry};
use lcf_core::matching::Matching;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use std::collections::VecDeque;

/// VOQs → fabric at speedup `s` through an `L`-slot matching pipeline →
/// output buffers → link.
pub(crate) struct BufferedFabric {
    speedup: usize,
    sched_latency: usize,
    outputs: Vec<BoundedFifo>,
    /// Matchings in flight through the scheduling pipeline; front is the
    /// next to apply. Holds `sched_latency` entries between steps.
    pipeline: VecDeque<Vec<Matching>>,
    /// Per-(input, output) count of packets granted but not yet pulled
    /// through the fabric (row-major, `n × n`).
    in_flight: Vec<usize>,
    /// Grants that found their output buffer full.
    wasted_grants: u64,
    /// Recycled matching buffers (hot-path memory contract: the slot loop
    /// reuses these instead of allocating per pass). Sized at construction
    /// to cover the whole pipeline.
    free: Vec<Matching>,
    /// Recycled per-slot batch vectors for the pipeline.
    free_batches: Vec<Vec<Matching>>,
}

impl BufferedFabric {
    pub(crate) fn new(n: usize, speedup: usize, sched_latency: usize, outbuf_cap: usize) -> Self {
        assert!(speedup >= 1, "speedup must be at least 1");
        BufferedFabric {
            speedup,
            sched_latency,
            outputs: (0..n).map(|_| BoundedFifo::new(outbuf_cap)).collect(),
            pipeline: VecDeque::new(),
            in_flight: vec![0; n * n],
            wasted_grants: 0,
            // The pipeline holds at most `sched_latency + 1` batches of
            // `speedup` matchings; pre-size the pools so steady state never
            // allocates.
            free: (0..(sched_latency + 1) * speedup)
                .map(|_| Matching::new(n))
                .collect(),
            free_batches: (0..sched_latency + 2)
                .map(|_| Vec::with_capacity(speedup))
                .collect(),
        }
    }

    pub(crate) fn wasted_grants(&self) -> u64 {
        self.wasted_grants
    }

    /// One slot of the fabric: `s` scheduling passes into the pipeline, the
    /// batch leaving the pipeline into the output buffers, then one packet
    /// per output link. `last` ends up holding the last pass's matching.
    /// Returns the packets delivered on the links.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        scheduler: &mut (dyn Scheduler + Send),
        requests: &mut RequestMatrix,
        voqs: &mut [VoqSet],
        last: &mut Matching,
        slot: u64,
        stats: &mut SimStats,
        mut tel: Option<&mut SwitchTelemetry>,
    ) -> usize {
        let n = voqs.len();
        let mut batch = self.free_batches.pop().unwrap_or_default();
        for _ in 0..self.speedup {
            // lint:allow(hot-path-alloc): free is pre-sized to (sched_latency+1)*speedup at construction and recycled every slot, so this fallback is unreachable
            let mut m = self.free.pop().unwrap_or_else(|| Matching::new(n));
            schedule_pass(scheduler, requests, &mut m, tel.as_deref_mut());
            last.clear();
            for (i, j) in m.pairs() {
                last.connect(i, j);
                let k = i * n + j;
                self.in_flight[k] += 1;
                if self.in_flight[k] == voqs[i].len_for(j) {
                    requests.set(i, j, false);
                }
            }
            batch.push(m);
        }
        self.pipeline.push_back(batch);

        // Apply the batch leaving the pipeline (none while it fills).
        if self.pipeline.len() > self.sched_latency {
            if let Some(mut ready) = self.pipeline.pop_front() {
                for m in &ready {
                    for (i, j) in m.pairs() {
                        self.in_flight[i * n + j] -= 1;
                        if self.outputs[j].is_full() {
                            self.wasted_grants += 1;
                            requests.set(i, j, true);
                            continue;
                        }
                        let p = voqs[i]
                            .pop_for(j)
                            // lint:allow(no-panic): a grant is issued only while len > in_flight, so the packet is queued
                            .expect("in-flight accounting keeps granted packets queued");
                        let pushed = self.outputs[j].push(p);
                        debug_assert!(pushed, "fullness checked above");
                    }
                }
                // Return the buffers to the pools for the next slot.
                self.free.append(&mut ready);
                self.free_batches.push(ready);
            }
        }

        // Output links: one packet per output per slot.
        let mut delivered = 0;
        for out in &mut self.outputs {
            if let Some(p) = out.pop() {
                stats.on_delivered(&p, slot);
                delivered += 1;
            }
        }
        delivered
    }

    /// Whether input `i` requests output `j`: VOQ `(i, j)` holds a packet
    /// that is not in flight.
    #[cfg(any(test, all(feature = "check-invariants", debug_assertions)))]
    pub(crate) fn requests(&self, voqs: &[VoqSet], i: usize, j: usize) -> bool {
        voqs[i].len_for(j) > self.in_flight[i * voqs.len() + j]
    }

    /// Packets in the output buffers.
    #[cfg(any(test, all(feature = "check-invariants", debug_assertions)))]
    pub(crate) fn buffered(&self) -> usize {
        self.outputs.iter().map(BoundedFifo::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{drive, DriveOptions};
    use crate::stats::{FlowOrderChecker, SimStats};
    use crate::switch::{IqSwitch, QueueMode};
    use crate::traffic::{Bernoulli, DestPattern};
    use lcf_core::registry::SchedulerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk(speedup: usize, latency: usize) -> IqSwitch {
        let n = 8;
        IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, 4, 1),
            speedup,
            latency,
            1000,
            256,
            256,
        )
    }

    fn run(sw: &mut IqSwitch, load: f64, slots: u64, seed: u64) -> SimStats {
        let n = sw.n();
        let mut traffic = Bernoulli::new(n, load, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(seed);
        drive(
            sw,
            &mut traffic,
            &mut rng,
            &DriveOptions::new(0, slots, 4096),
        )
    }

    /// A collector that also logs every delivered packet.
    fn logged_stats(n: usize) -> SimStats {
        let mut stats = SimStats::new(n, 0, 4096);
        stats.deliveries = Some(Vec::new());
        stats
    }

    #[test]
    fn conservation_with_speedup_and_latency() {
        for (s, l) in [(1, 0), (2, 0), (1, 3), (2, 2), (4, 1)] {
            let mut sw = mk(s, l);
            let stats = run(&mut sw, 0.9, 3_000, 42);
            let accounted = stats.delivered + stats.dropped() + sw.buffered_packets() as u64;
            assert_eq!(stats.generated, accounted, "speedup {s} latency {l}");
        }
    }

    /// The direct fabric is the buffered one at `s = 1, L = 0`: driven with
    /// the same seeds, both switches agree on every counter, the backlog,
    /// the latency histogram and every per-pair service count after every
    /// slot. The configs cover PQ drops (tiny PQ and VOQ caps) and a
    /// multi-word request matrix (n = 70).
    #[test]
    fn speedup_one_zero_latency_equals_iq_packet_for_packet() {
        let kinds = [
            SchedulerKind::LcfCentral,
            SchedulerKind::LcfCentralRr,
            SchedulerKind::LcfDistRr,
            SchedulerKind::Islip,
            SchedulerKind::Pim,
            SchedulerKind::Wavefront,
        ];
        // (n, load, voq_cap, pq_cap)
        let configs = [
            (8, 0.7, 256, 1000),
            (16, 0.95, 8, 16),
            (32, 0.99, 2, 4),
            (70, 0.9, 4, 8),
        ];
        let slots = 2_000u64;
        let mut pq_drops = 0;
        for (n, load, voq_cap, pq_cap) in configs {
            for kind in kinds {
                let tag = format!("{} n={n} load={load}", kind.name());
                let mut iq = IqSwitch::new(
                    n,
                    kind.build(n, 4, 3),
                    QueueMode::Voq { cap: voq_cap },
                    pq_cap,
                );
                let mut cioq = IqSwitch::new_cioq(n, kind.build(n, 4, 3), 1, 0, pq_cap, voq_cap, 4);
                let mut traffic = [0, 1].map(|_| Bernoulli::new(n, load, DestPattern::Uniform));
                let mut rng = [0, 1].map(|_| StdRng::seed_from_u64(n as u64));
                let mut stats = [0, 1].map(|_| logged_stats(n));
                for slot in 0..slots {
                    iq.step(slot, &mut traffic[0], &mut rng[0], &mut stats[0]);
                    cioq.step(slot, &mut traffic[1], &mut rng[1], &mut stats[1]);
                    let [a, b] = &stats;
                    assert_eq!(a.generated, b.generated, "{tag} slot {slot}");
                    assert_eq!(a.delivered, b.delivered, "{tag} slot {slot}");
                    assert_eq!(a.dropped_pq, b.dropped_pq, "{tag} slot {slot}");
                    assert_eq!(a.dropped_queue, b.dropped_queue, "{tag} slot {slot}");
                    assert_eq!(
                        iq.buffered_packets(),
                        cioq.buffered_packets(),
                        "{tag} slot {slot}"
                    );
                    assert_eq!(
                        a.latency_histogram(),
                        b.latency_histogram(),
                        "{tag} slot {slot}"
                    );
                    for i in 0..n {
                        for j in 0..n {
                            assert_eq!(
                                a.service().get(i, j),
                                b.service().get(i, j),
                                "{tag} slot {slot} pair ({i}, {j})"
                            );
                        }
                    }
                }
                // The same packets leave in the same slots; only the order
                // within a slot differs (input order vs output order).
                let by_packet = |s: &SimStats| {
                    let mut d = s.deliveries.clone().unwrap_or_default();
                    d.sort_by_key(|(p, at)| (*at, p.src, p.dst, p.generated_at));
                    d
                };
                assert_eq!(by_packet(&stats[0]), by_packet(&stats[1]), "{tag}");
                assert_eq!(cioq.wasted_grants(), 0, "{tag}");
                pq_drops += stats[0].dropped_pq;
            }
        }
        assert!(pq_drops > 0, "no config dropped at the PQ");
    }

    /// Speedup 2 into one-cell output buffers at load 0.95: a pass's grant
    /// often finds its output buffer already filled by the slot's other
    /// pass. Such a grant is wasted, and its packet stays queued and is
    /// requested again. Nothing is lost or reordered, and the request
    /// invariant holds after every slot.
    #[test]
    fn wasted_grants_requeue_the_request() {
        let n = 8;
        let mut sw = IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, 4, 17),
            2,
            0,
            1000,
            256,
            1,
        );
        let mut traffic = Bernoulli::new(n, 0.95, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(17);
        let mut stats = logged_stats(n);
        for slot in 0..5_000 {
            sw.step(slot, &mut traffic, &mut rng, &mut stats);
            sw.check_requests();
        }
        assert!(sw.wasted_grants() > 0, "no grant found a full buffer");
        let mut order = FlowOrderChecker::new(n);
        for (p, _) in stats.deliveries.iter().flatten() {
            order.check(p);
        }
        assert_eq!(order.violations(), 0);
        let accounted = stats.delivered + stats.dropped() + sw.buffered_packets() as u64;
        assert_eq!(stats.generated, accounted);
    }

    #[test]
    fn speedup_reduces_latency_at_high_load() {
        let mut s1 = mk(1, 0);
        let mut s2 = mk(2, 0);
        let lat1 = run(&mut s1, 0.95, 30_000, 9).mean_latency();
        let lat2 = run(&mut s2, 0.95, 30_000, 9).mean_latency();
        assert!(
            lat2 < lat1,
            "speedup 2 must beat speedup 1 at load 0.95 ({lat2} vs {lat1})"
        );
    }

    #[test]
    fn pipeline_latency_adds_delay_but_keeps_throughput() {
        let mut l0 = mk(1, 0);
        let mut l4 = mk(1, 4);
        let st0 = run(&mut l0, 0.6, 20_000, 11);
        let st4 = run(&mut l4, 0.6, 20_000, 11);
        // "these techniques do not reduce latency": depth adds ~4 slots.
        assert!(st4.mean_latency() > st0.mean_latency() + 3.0);
        // But throughput is preserved (pipelining overlaps work).
        let thr = |st: &SimStats| st.delivered as f64;
        assert!((thr(&st4) / thr(&st0) - 1.0).abs() < 0.02);
    }

    #[test]
    fn stale_grants_are_counted_not_fatal() {
        // With deep pipelining and bursty drain patterns some grants go
        // stale; the switch must absorb them.
        let mut sw = mk(2, 6);
        let stats = run(&mut sw, 0.8, 10_000, 13);
        assert!(stats.delivered > 0);
        // wasted_grants is a counter, not an error: just ensure accounting
        // held (conservation is checked in the dedicated test).
        let _ = sw.wasted_grants();
    }

    #[test]
    #[should_panic(expected = "speedup must be at least 1")]
    fn zero_speedup_panics() {
        let _ = mk(0, 0);
    }
}
