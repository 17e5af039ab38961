//! The traced copy of the slot loop.
//!
//! `LoopCopy` rebuilds the VOQ path of `IqSwitch::step` from public calls
//! only, so each layer boundary can be timed from outside the simulator:
//!
//! ```text
//!   slot ─┬─ traffic       Traffic::arrivals_into
//!         ├─ queues.pq     BoundedFifo::push, SimStats::on_generated / on_drop_pq
//!         ├─ queues.spill  BoundedFifo::head / pop, VoqSet::has_room_for / push
//!         ├─ request       RequestMatrix::set_row_words
//!         ├─ schedule      Scheduler::schedule_into
//!         ├─ transfer      VoqSet::pop_for into a reused buffer
//!         └─ stats         SimStats::on_delivered
//! ```
//!
//! The copy mirrors `IqSwitch::step` as of this commit. It is only useful
//! while it stays equal to the real loop, so every traced run compares its
//! `SimStats` with an untraced `DriveSession` over the same slots, and the
//! unit tests do the same for every workload's scheduler and generator.

#![forbid(unsafe_code)]

use crate::summary::Clock;
use crate::workloads;
use lcf_core::matching::Matching;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use lcf_sim::config::SimConfig;
use lcf_sim::packet::Packet;
use lcf_sim::queues::{BoundedFifo, VoqSet};
use lcf_sim::runner::SimRng;
use lcf_sim::stats::SimStats;
use lcf_sim::traffic::Traffic;
use rand::SeedableRng;

/// Child spans of every `slot` span, in slot order.
pub const LAYERS: [&str; 7] = [
    "traffic",
    "queues.pq",
    "queues.spill",
    "request",
    "schedule",
    "transfer",
    "stats",
];
const SCHEDULE: usize = 4;

/// Slots whose raw spans are kept for `--trace-out`.
pub const RAW_SLOTS: usize = 2_000;

/// The occupancy probe (`IqSwitch::buffered_packets`) runs every this many
/// traced slots.
pub const OCCUPANCY_EVERY: u64 = 64;

/// Receives the 8 layer boundaries of a slot (start of `traffic` … end of
/// `stats`). The untraced instance compiles to nothing.
trait Probe {
    fn mark(&mut self, boundary: usize);
}

struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn mark(&mut self, _boundary: usize) {}
}

struct Marks<'a> {
    clock: &'a Clock,
    t: [u64; LAYERS.len() + 1],
}

impl Probe for Marks<'_> {
    #[inline(always)]
    fn mark(&mut self, boundary: usize) {
        self.t[boundary] = self.clock.ns();
    }
}

/// Work one slot did.
#[derive(Clone, Copy, Default)]
struct SlotWork {
    arrivals: u64,
    spilled: u64,
    grants: u64,
}

/// The VOQ path of `IqSwitch::step`, rebuilt from public calls.
pub struct LoopCopy {
    n: usize,
    scheduler: Box<dyn Scheduler + Send>,
    traffic: Box<dyn Traffic>,
    rng: SimRng,
    pqs: Vec<BoundedFifo>,
    voqs: Vec<VoqSet>,
    requests: RequestMatrix,
    matching: Matching,
    arrivals: Vec<Option<usize>>,
    transferred: Vec<Packet>,
    stats: SimStats,
    max_latency_bucket: usize,
    slot: u64,
}

impl LoopCopy {
    /// Builds the copy exactly as `workloads::session` builds the real
    /// switch: same scheduler, generator and RNG seed.
    pub fn new(cfg: &SimConfig) -> LoopCopy {
        let n = cfg.n;
        LoopCopy {
            n,
            scheduler: workloads::scheduler(cfg),
            traffic: workloads::traffic(cfg),
            rng: SimRng::seed_from_u64(cfg.seed),
            pqs: (0..n).map(|_| BoundedFifo::new(cfg.pq_cap)).collect(),
            voqs: (0..n).map(|_| VoqSet::new(n, cfg.voq_cap)).collect(),
            requests: RequestMatrix::new(n),
            matching: Matching::new(n),
            arrivals: vec![None; n],
            transferred: Vec::with_capacity(n),
            stats: SimStats::new(n, 0, cfg.max_latency_bucket),
            max_latency_bucket: cfg.max_latency_bucket,
            slot: 0,
        }
    }

    /// Fresh statistics anchored at the current slot, like
    /// `DriveSession::begin_measurement`.
    pub fn begin_measurement(&mut self) {
        self.stats = SimStats::new(self.n, self.slot, self.max_latency_bucket);
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Packets buffered in PQs and VOQs.
    pub fn backlog(&self) -> usize {
        let pq: usize = self.pqs.iter().map(BoundedFifo::len).sum();
        let voq: usize = self.voqs.iter().map(VoqSet::total_len).sum();
        pq + voq
    }

    /// Steps `slots` slots without timing anything.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step(&mut NoProbe);
        }
    }

    #[inline(always)]
    fn step<P: Probe>(&mut self, probe: &mut P) -> SlotWork {
        let slot = self.slot;
        let mut work = SlotWork::default();

        probe.mark(0);
        self.traffic
            .arrivals_into(slot, &mut self.rng, &mut self.arrivals);
        probe.mark(1);
        for (input, dst) in self.arrivals.iter().enumerate() {
            let Some(dst) = *dst else { continue };
            work.arrivals += 1;
            self.stats.on_generated();
            if !self.pqs[input].push(Packet::new(input, dst, slot)) {
                self.stats.on_drop_pq();
            }
        }
        probe.mark(2);
        for (pq, set) in self.pqs.iter_mut().zip(self.voqs.iter_mut()) {
            while let Some(head) = pq.head() {
                if !set.has_room_for(head.dst_idx()) {
                    break;
                }
                let Some(p) = pq.pop() else { break };
                let pushed = set.push(p);
                debug_assert!(pushed, "room was checked before the pop");
                work.spilled += 1;
            }
        }
        probe.mark(3);
        for (i, set) in self.voqs.iter().enumerate() {
            self.requests.set_row_words(i, set.occupancy_words());
        }
        probe.mark(4);
        self.scheduler
            .schedule_into(&self.requests, &mut self.matching);
        probe.mark(5);
        self.transferred.clear();
        for (i, j) in self.matching.pairs() {
            let p = self.voqs[i]
                .pop_for(j)
                .expect("scheduler granted an empty queue");
            self.transferred.push(p);
        }
        probe.mark(6);
        for p in &self.transferred {
            self.stats.on_delivered(p, slot);
        }
        probe.mark(7);

        work.grants = self.transferred.len() as u64;
        self.slot += 1;
        work
    }
}

/// One slot's raw span boundaries (ns since the trace clock started):
/// `t[0..8]` are the layer boundaries, `t[8]` the end of the slot span.
pub struct RawSlot {
    pub slot: u64,
    pub t: [u64; LAYERS.len() + 2],
}

/// Everything the traced run aggregates, over every traced slot.
#[derive(Default)]
pub struct LayerTrace {
    pub slots: u64,
    /// Summed duration of each child span.
    pub layer_ns: [u64; LAYERS.len()],
    /// Summed duration of the parent `slot` spans.
    pub slot_ns: u64,
    /// Summed self time of the `slot` spans (bookkeeping after `stats`).
    pub unattributed_ns: u64,
    /// Per-slot `schedule` span durations.
    pub schedule_ns: Vec<f64>,
    pub arrivals: u64,
    pub spilled: u64,
    pub grants: u64,
    pub request_bits: u64,
    pub requesting_inputs: u64,
    pub backlog_sum: f64,
    /// Traced window wall times, occupancy probes excluded.
    pub window_ns: Vec<f64>,
    /// Durations of the occupancy probe calls.
    pub occupancy_ns: Vec<f64>,
    pub raw: Vec<RawSlot>,
}

/// Runs `windows` windows of `window` slots of the copy with every layer
/// timed. Every [`OCCUPANCY_EVERY`]th slot, `occupancy` (the real
/// `IqSwitch::buffered_packets`) is timed outside the slot span.
pub fn run_traced(
    copy: &mut LoopCopy,
    windows: u64,
    window: u64,
    occupancy: &dyn Fn() -> usize,
    trace: &mut LayerTrace,
) {
    let clock = Clock::start();
    let backlog0 = copy.backlog() as f64;
    let gen0 = copy.stats.generated;
    let done0 = copy.stats.delivered + copy.stats.dropped();
    let mut marks = Marks {
        clock: &clock,
        t: [0; LAYERS.len() + 1],
    };
    for _ in 0..windows {
        let w0 = clock.ns();
        let mut probe_ns = 0;
        for _ in 0..window {
            let slot = copy.slot;
            let work = copy.step(&mut marks);
            let t = marks.t;
            for (k, total) in trace.layer_ns.iter_mut().enumerate() {
                *total += t[k + 1] - t[k];
            }
            trace
                .schedule_ns
                .push((t[SCHEDULE + 1] - t[SCHEDULE]) as f64);
            trace.arrivals += work.arrivals;
            trace.spilled += work.spilled;
            trace.grants += work.grants;
            let bits = copy.requests.bits();
            for i in 0..copy.n {
                let row = bits.row_count(i) as u64;
                trace.request_bits += row;
                trace.requesting_inputs += u64::from(row > 0);
            }
            let done = copy.stats.delivered + copy.stats.dropped();
            trace.backlog_sum +=
                backlog0 + (copy.stats.generated - gen0) as f64 - (done - done0) as f64;
            let end = clock.ns();
            trace.unattributed_ns += end - t[LAYERS.len()];
            trace.slot_ns += end - t[0];
            trace.slots += 1;
            if trace.raw.len() < RAW_SLOTS {
                let mut raw = [0; LAYERS.len() + 2];
                raw[..=LAYERS.len()].copy_from_slice(&t);
                raw[LAYERS.len() + 1] = end;
                trace.raw.push(RawSlot { slot, t: raw });
            }
            if slot.is_multiple_of(OCCUPANCY_EVERY) {
                let p0 = clock.ns();
                std::hint::black_box(occupancy());
                let probe = clock.ns() - p0;
                trace.occupancy_ns.push(probe as f64);
                probe_ns += probe;
            }
        }
        trace.window_ns.push((clock.ns() - w0 - probe_ns) as f64);
    }
}

/// The parts of a `SimStats` that must match exactly between two runs of
/// the same slots.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub generated: u64,
    pub delivered: u64,
    pub dropped_pq: u64,
    pub dropped_queue: u64,
    pub latency_samples: u64,
    pub mean_latency_bits: u64,
    pub latency_std_bits: u64,
    pub per_input: Vec<u64>,
    pub backlog: usize,
}

impl Fingerprint {
    pub fn of(stats: &SimStats, backlog: usize) -> Fingerprint {
        Fingerprint {
            generated: stats.generated,
            delivered: stats.delivered,
            dropped_pq: stats.dropped_pq,
            dropped_queue: stats.dropped_queue,
            latency_samples: stats.latency_samples(),
            mean_latency_bits: stats.mean_latency().to_bits(),
            latency_std_bits: stats.latency_std_dev().to_bits(),
            per_input: stats.service().per_input(),
            backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{all, session};
    use lcf_core::bitkern::Backend;

    /// The traced copy of the loop reproduces the real `DriveSession`
    /// (warm-up collector, then a measured collector) over 2,000 slots for
    /// every workload's scheduler and generator, at small port counts.
    #[test]
    fn loop_copy_matches_drive_session() {
        for w in all() {
            for n in [4, 8] {
                let cfg = SimConfig {
                    n,
                    ..w.config(11, Backend::Bitset)
                };
                let mut real = session(&cfg);
                let mut copy = LoopCopy::new(&cfg);
                real.step_window(500);
                copy.run(500);
                real.begin_measurement();
                copy.begin_measurement();
                real.step_window(1_500);
                let mut trace = LayerTrace::default();
                run_traced(&mut copy, 3, 500, &|| real.buffered_packets(), &mut trace);
                assert_eq!(
                    Fingerprint::of(copy.stats(), copy.backlog()),
                    Fingerprint::of(real.stats(), real.buffered_packets()),
                    "{} at n={n}",
                    w.name
                );
                assert!(copy.stats().delivered > 0);
                assert_eq!(trace.slots, 1_500);
                assert_eq!(trace.raw.len(), 1_500);
                let probes = (500u64..2_000)
                    .filter(|s| s.is_multiple_of(OCCUPANCY_EVERY))
                    .count();
                assert_eq!(trace.occupancy_ns.len(), probes);
                let children: u64 = trace.layer_ns.iter().sum();
                assert_eq!(children + trace.unattributed_ns, trace.slot_ns);
            }
        }
    }
}
