//! End-to-end simulation of both Clint channels (EXT-7).
//!
//! Models the segregated architecture of Fig. 4: per-host bulk VOQs feeding
//! the scheduled bulk channel through send buffers, and a per-host quick
//! queue feeding the best-effort quick channel (losers of a collision
//! retransmit). Configuration packets are encoded to their wire format and
//! can be corrupted in flight, exercising the CRC path.

use crate::packets::ConfigPacket;
use crate::pipeline::BulkPipeline;
use crate::quick::QuickChannel;
use lcf_telemetry::{Event, MetricsRegistry, SlotClock, TraceBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Telemetry collected by a traced Clint run: per-slot bulk pipeline
/// events (schedule/transfer/acknowledge stage progress), quick-channel
/// collision events and CRC/reservation counters, all stamped from the
/// simulation's slot clock.
#[derive(Debug, Default)]
pub struct ClintTelemetry {
    /// Event trace (ring buffer; oldest evicted when full).
    pub trace: TraceBuffer,
    /// Counters and per-slot distributions.
    pub metrics: MetricsRegistry,
    /// The time base the events are stamped from.
    pub clock: SlotClock,
}

/// Configuration of a Clint simulation.
#[derive(Clone, Debug)]
pub struct ClintConfig {
    /// Number of hosts (≤ 16).
    pub n: usize,
    /// Per-host probability of generating a bulk packet per slot.
    pub bulk_load: f64,
    /// Per-host probability of generating a quick packet per slot.
    pub quick_load: f64,
    /// Probability that a config packet is corrupted in flight (bit flip,
    /// caught by the CRC).
    pub cfg_error_rate: f64,
    /// Probability that a grant packet is corrupted in flight. A host that
    /// cannot decode its grant does not transmit; the reserved fabric slot
    /// goes idle and the packet is rescheduled from the next config.
    pub gnt_error_rate: f64,
    /// Simulated slots.
    pub slots: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClintConfig {
    fn default() -> Self {
        ClintConfig {
            n: crate::CLINT_PORTS,
            bulk_load: 0.6,
            quick_load: 0.1,
            cfg_error_rate: 0.0,
            gnt_error_rate: 0.0,
            slots: 10_000,
            seed: 0xC11A7,
        }
    }
}

/// Aggregate results of a Clint simulation.
///
/// `PartialEq` backs the telemetry contract: a traced and an untraced run
/// of the same config must produce identical reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClintReport {
    /// Bulk packets generated / delivered.
    pub bulk_generated: u64,
    /// Bulk packets delivered (transfer stage completed).
    pub bulk_delivered: u64,
    /// Mean bulk latency in slots (generation → transfer).
    pub bulk_mean_latency: f64,
    /// Quick packets generated.
    pub quick_generated: u64,
    /// Quick packets delivered.
    pub quick_delivered: u64,
    /// Collision drops on the quick channel (each triggers a retransmit).
    pub quick_collisions: u64,
    /// Mean quick latency in slots (generation → successful transmission).
    pub quick_mean_latency: f64,
    /// Config packets lost to CRC errors.
    pub cfg_crc_errors: u64,
    /// Grant packets lost to CRC errors (the host misses its grant).
    pub gnt_crc_errors: u64,
    /// Scheduled fabric slots that went idle because the grant was lost.
    pub wasted_reservations: u64,
    /// Acknowledgment packets received by initiators.
    pub acks_received: u64,
}

struct Host {
    /// Bulk VOQs: generation slots of queued packets, per target.
    voqs: Vec<VecDeque<u64>>,
    /// Send buffer: packet popped on grant, transmitted next slot.
    send_buffer: Option<(usize, u64)>,
    /// Quick queue: (destination, generation slot).
    quick: VecDeque<(usize, u64)>,
}

/// The simulation driver.
pub struct ClintSim {
    cfg: ClintConfig,
    pipeline: BulkPipeline,
    quick: QuickChannel,
    hosts: Vec<Host>,
    rng: StdRng,
    slot: u64,
    report: ClintReport,
    bulk_latency_sum: f64,
    quick_latency_sum: f64,
    /// Transfers that actually carried a packet last slot (their acks
    /// arrive this slot).
    last_flew: Vec<(usize, usize)>,
    telemetry: Option<Box<ClintTelemetry>>,
}

impl ClintSim {
    /// Creates a simulation.
    pub fn new(cfg: ClintConfig) -> Self {
        assert!(cfg.n > 0 && cfg.n <= 16, "Clint supports up to 16 hosts");
        assert!((0.0..=1.0).contains(&cfg.bulk_load), "bulk load in [0,1]");
        assert!((0.0..=1.0).contains(&cfg.quick_load), "quick load in [0,1]");
        assert!(
            (0.0..=1.0).contains(&cfg.cfg_error_rate),
            "error rate in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.gnt_error_rate) && cfg.gnt_error_rate < 1.0,
            "grant error rate in [0,1) — total loss never transmits"
        );
        let n = cfg.n;
        ClintSim {
            pipeline: BulkPipeline::new(n),
            quick: QuickChannel::new(n),
            hosts: (0..n)
                .map(|_| Host {
                    voqs: (0..n).map(|_| VecDeque::new()).collect(),
                    send_buffer: None,
                    quick: VecDeque::new(),
                })
                .collect(),
            rng: StdRng::seed_from_u64(cfg.seed),
            slot: 0,
            report: ClintReport::default(),
            bulk_latency_sum: 0.0,
            quick_latency_sum: 0.0,
            last_flew: Vec::new(),
            telemetry: None,
            cfg,
        }
    }

    /// Runs the configured number of slots and returns the report.
    pub fn run(mut self) -> ClintReport {
        for _ in 0..self.cfg.slots {
            self.step();
        }
        self.finalize()
    }

    /// Like [`run`](ClintSim::run), but records telemetry into a trace
    /// buffer of `trace_capacity` events (0 = unbounded). The report is
    /// identical to the untraced one — telemetry is read-only.
    pub fn run_traced(mut self, trace_capacity: usize) -> (ClintReport, Box<ClintTelemetry>) {
        self.telemetry = Some(Box::new(ClintTelemetry {
            trace: TraceBuffer::new(trace_capacity),
            metrics: MetricsRegistry::new(),
            clock: SlotClock::new(),
        }));
        for _ in 0..self.cfg.slots {
            self.step();
        }
        let telemetry = self.telemetry.take().unwrap_or_default();
        (self.finalize(), telemetry)
    }

    fn finalize(mut self) -> ClintReport {
        if self.report.bulk_delivered > 0 {
            self.report.bulk_mean_latency =
                self.bulk_latency_sum / self.report.bulk_delivered as f64;
        }
        if self.report.quick_delivered > 0 {
            self.report.quick_mean_latency =
                self.quick_latency_sum / self.report.quick_delivered as f64;
        }
        self.report
    }

    fn step(&mut self) {
        let n = self.cfg.n;
        let slot = self.slot;
        // Counters are derived at the end of the slot by diffing the report
        // against this snapshot — one instrumentation point instead of one
        // per increment site, and provably consistent with the report.
        let report_before = if let Some(t) = self.telemetry.as_deref_mut() {
            t.clock.seek(slot);
            Some(self.report.clone())
        } else {
            None
        };

        // Arrivals.
        for i in 0..n {
            if self.rng.gen_bool(self.cfg.bulk_load) {
                let dst = self.rng.gen_range(0..n);
                self.hosts[i].voqs[dst].push_back(slot);
                self.report.bulk_generated += 1;
            }
            if self.rng.gen_bool(self.cfg.quick_load) {
                let dst = self.rng.gen_range(0..n);
                self.hosts[i].quick.push_back((dst, slot));
                self.report.quick_generated += 1;
            }
        }

        // Bulk channel: hosts encode config packets; the wire may corrupt
        // them (CRC catches it and the scheduler sees nothing from that
        // host this cycle).
        let configs: Vec<Option<ConfigPacket>> = (0..n)
            .map(|i| {
                let mut req = 0u16;
                for j in 0..n {
                    if !self.hosts[i].voqs[j].is_empty() {
                        req |= 1 << j;
                    }
                }
                let pkt = ConfigPacket {
                    req,
                    ben: 0xFFFF,
                    qen: 0xFFFF,
                    ..Default::default()
                };
                let mut wire = pkt.encode();
                if self.cfg.cfg_error_rate > 0.0 && self.rng.gen_bool(self.cfg.cfg_error_rate) {
                    let byte = self.rng.gen_range(0..wire.len());
                    let bit = self.rng.gen_range(0..8u32);
                    wire[byte] ^= 1u8 << bit;
                }
                match ConfigPacket::decode(&wire) {
                    Ok(decoded) => Some(decoded),
                    Err(_) => {
                        self.report.cfg_crc_errors += 1;
                        None
                    }
                }
            })
            .collect();

        let events = self.pipeline.step(&configs);

        // One event per slot tells the 3-stage story: grants issued by this
        // slot's schedule stage, transfers flying for last slot's schedule,
        // acks returning for the slot before that.
        if let Some(t) = self.telemetry.as_deref_mut() {
            let granted = events.grants.iter().filter(|g| g.gnt_val).count();
            t.trace.push(
                Event::new(t.clock.slot(), "bulk_pipeline")
                    .field("schedule_grants", granted)
                    .field("transfers", events.transfers.len())
                    .field("acks", events.acks.len()),
            );
            t.metrics.histogram_record(
                "clint.transfers_per_slot",
                n + 1,
                events.transfers.len() as u64,
            );
        }

        // Transfers scheduled last slot complete now: deliver from the send
        // buffers (Fig. 4's SendBuffers). A host whose grant was lost never
        // loaded its buffer; that reserved slot goes idle.
        let mut flew: Vec<(usize, usize)> = Vec::new();
        for &(i, j) in &events.transfers {
            match self.hosts[i].send_buffer.take() {
                Some((dst, gen)) => {
                    debug_assert_eq!(dst, j, "send buffer target mismatch");
                    self.report.bulk_delivered += 1;
                    self.bulk_latency_sum += (slot - gen) as f64;
                    flew.push((i, j));
                }
                None => self.report.wasted_reservations += 1,
            }
        }

        // Grants for this slot's schedule travel back over the quick
        // channel and may be corrupted; an undecodable grant means the host
        // does not transmit (its packet stays queued and is re-requested).
        for g in &events.grants {
            if g.gnt_val {
                let mut wire = g.encode();
                if self.cfg.gnt_error_rate > 0.0 && self.rng.gen_bool(self.cfg.gnt_error_rate) {
                    let byte = self.rng.gen_range(0..wire.len());
                    wire[byte] ^= 1u8 << self.rng.gen_range(0..8u32);
                }
                let Ok(g) = crate::packets::GrantPacket::decode(&wire) else {
                    self.report.gnt_crc_errors += 1;
                    continue;
                };
                let i = g.node_id as usize;
                let j = g.gnt as usize;
                let gen = self.hosts[i].voqs[j]
                    .pop_front()
                    // lint:allow(no-panic): grants are only issued against VOQs reported non-empty this slot
                    .expect("grant for an empty VOQ");
                debug_assert!(self.hosts[i].send_buffer.is_none());
                self.hosts[i].send_buffer = Some((j, gen));
            }
        }

        // Targets only acknowledge packets that actually arrived.
        self.report.acks_received += events
            .acks
            .iter()
            .filter(|&&(j, i)| self.last_flew.contains(&(i, j)))
            .count() as u64;
        self.last_flew = flew;

        // Quick channel: heads of the quick queues race; losers retransmit.
        let sends: Vec<Option<usize>> = self
            .hosts
            .iter()
            .map(|h| h.quick.front().map(|&(dst, _)| dst))
            .collect();
        let outcome = self.quick.transmit(&sends);
        for &(i, _dst) in &outcome.forwarded {
            // lint:allow(no-panic): transmit() forwards only heads it was handed from these queues
            let (_, gen) = self.hosts[i].quick.pop_front().expect("forwarded head");
            self.report.quick_delivered += 1;
            self.quick_latency_sum += (slot - gen) as f64;
        }
        self.report.quick_collisions += outcome.dropped.len() as u64;
        if let Some(t) = self.telemetry.as_deref_mut() {
            for &(src, dst) in &outcome.dropped {
                t.trace.push(
                    Event::new(t.clock.slot(), "quick_collision")
                        .field("src", src)
                        .field("dst", dst),
                );
            }
        }

        if let Some(before) = report_before {
            // lint:allow(no-panic): report_before is Some only while telemetry is
            let t = self.telemetry.as_deref_mut().expect("telemetry enabled");
            let r = &self.report;
            t.metrics.counter_add(
                "clint.bulk_generated",
                r.bulk_generated - before.bulk_generated,
            );
            t.metrics.counter_add(
                "clint.bulk_delivered",
                r.bulk_delivered - before.bulk_delivered,
            );
            t.metrics.counter_add(
                "clint.quick_generated",
                r.quick_generated - before.quick_generated,
            );
            t.metrics.counter_add(
                "clint.quick_delivered",
                r.quick_delivered - before.quick_delivered,
            );
            t.metrics.counter_add(
                "clint.quick_collisions",
                r.quick_collisions - before.quick_collisions,
            );
            t.metrics.counter_add(
                "clint.cfg_crc_errors",
                r.cfg_crc_errors - before.cfg_crc_errors,
            );
            t.metrics.counter_add(
                "clint.gnt_crc_errors",
                r.gnt_crc_errors - before.gnt_crc_errors,
            );
            t.metrics.counter_add(
                "clint.wasted_reservations",
                r.wasted_reservations - before.wasted_reservations,
            );
            t.metrics.counter_inc("clint.slots");
        }

        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_delivers_most_traffic() {
        let report = ClintSim::new(ClintConfig {
            n: 8,
            bulk_load: 0.3,
            quick_load: 0.1,
            slots: 5_000,
            ..Default::default()
        })
        .run();
        assert!(report.bulk_generated > 0);
        // Everything except in-flight tail is delivered.
        assert!(report.bulk_delivered as f64 > report.bulk_generated as f64 * 0.98);
        assert!(report.quick_delivered as f64 > report.quick_generated as f64 * 0.98);
        assert_eq!(report.cfg_crc_errors, 0);
    }

    #[test]
    fn bulk_has_pipeline_latency_quick_does_not() {
        // At very light load the quick channel forwards immediately
        // (0 slots) while every bulk packet pays the schedule->transfer
        // pipeline (>= 1 slot).
        let report = ClintSim::new(ClintConfig {
            n: 8,
            bulk_load: 0.05,
            quick_load: 0.05,
            slots: 20_000,
            ..Default::default()
        })
        .run();
        assert!(
            report.bulk_mean_latency >= 1.0,
            "bulk {}",
            report.bulk_mean_latency
        );
        assert!(
            report.quick_mean_latency < report.bulk_mean_latency,
            "quick {} vs bulk {}",
            report.quick_mean_latency,
            report.bulk_mean_latency
        );
    }

    #[test]
    fn quick_channel_collides_under_load() {
        let report = ClintSim::new(ClintConfig {
            n: 8,
            bulk_load: 0.0,
            quick_load: 0.8,
            slots: 5_000,
            ..Default::default()
        })
        .run();
        assert!(report.quick_collisions > 0, "high quick load must collide");
        // Retransmission means nothing is lost, only delayed: deliveries
        // track generation minus what is still queued.
        assert!(report.quick_delivered <= report.quick_generated);
    }

    #[test]
    fn crc_errors_are_detected_and_survivable() {
        let report = ClintSim::new(ClintConfig {
            n: 8,
            bulk_load: 0.4,
            quick_load: 0.0,
            cfg_error_rate: 0.05,
            slots: 10_000,
            ..Default::default()
        })
        .run();
        assert!(report.cfg_crc_errors > 0, "5% corruption must trip the CRC");
        // Corrupted configs delay but never corrupt the schedule: deliveries
        // continue and every transfer is acknowledged two slots later.
        assert!(report.bulk_delivered > 0);
        assert!(report.acks_received <= report.bulk_delivered);
        assert!(report.acks_received as f64 > report.bulk_delivered as f64 * 0.99);
    }

    #[test]
    fn acks_match_transfers() {
        let report = ClintSim::new(ClintConfig {
            n: 4,
            bulk_load: 0.5,
            quick_load: 0.0,
            slots: 2_000,
            ..Default::default()
        })
        .run();
        // Acks lag transfers by one slot, so they can differ by at most the
        // in-flight window.
        let diff = report.bulk_delivered - report.acks_received;
        assert!(diff <= 4, "ack deficit {diff}");
    }

    #[test]
    fn grant_loss_wastes_reservations_but_loses_no_packets() {
        let report = ClintSim::new(ClintConfig {
            n: 8,
            bulk_load: 0.4,
            quick_load: 0.0,
            gnt_error_rate: 0.1,
            slots: 10_000,
            ..Default::default()
        })
        .run();
        assert!(report.gnt_crc_errors > 0, "10% grant corruption must bite");
        assert!(
            report.wasted_reservations > 0,
            "a lost grant leaves its fabric slot idle"
        );
        // The packet stays queued and is rescheduled: deliveries still track
        // generation closely over a long run.
        assert!(report.bulk_delivered as f64 > report.bulk_generated as f64 * 0.98);
        // Only packets that actually flew are acknowledged.
        assert!(report.acks_received <= report.bulk_delivered);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ClintConfig {
            n: 8,
            slots: 3_000,
            ..Default::default()
        };
        let a = ClintSim::new(cfg.clone()).run();
        let b = ClintSim::new(cfg).run();
        assert_eq!(a.bulk_delivered, b.bulk_delivered);
        assert_eq!(a.quick_collisions, b.quick_collisions);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_the_story() {
        let cfg = ClintConfig {
            n: 8,
            bulk_load: 0.4,
            quick_load: 0.6,
            cfg_error_rate: 0.02,
            slots: 2_000,
            ..Default::default()
        };
        let plain = ClintSim::new(cfg.clone()).run();
        let (traced, t) = ClintSim::new(cfg.clone()).run_traced(0);
        assert_eq!(plain, traced, "tracing changed the Clint report");

        // The counters retell the report.
        assert_eq!(t.metrics.counter("clint.slots"), cfg.slots);
        assert_eq!(
            t.metrics.counter("clint.bulk_delivered"),
            traced.bulk_delivered
        );
        assert_eq!(
            t.metrics.counter("clint.quick_collisions"),
            traced.quick_collisions
        );
        assert_eq!(
            t.metrics.counter("clint.cfg_crc_errors"),
            traced.cfg_crc_errors
        );

        // The trace tells the per-slot story: one pipeline event per slot,
        // one collision event per drop.
        let pipeline_events = t.trace.iter().filter(|e| e.kind == "bulk_pipeline").count();
        assert_eq!(pipeline_events as u64, cfg.slots);
        let collisions = t
            .trace
            .iter()
            .filter(|e| e.kind == "quick_collision")
            .count();
        assert_eq!(collisions as u64, traced.quick_collisions);

        // And the transfer distribution covers every slot without overflow.
        let hist = t
            .metrics
            .histogram("clint.transfers_per_slot")
            .expect("histogram");
        assert_eq!(hist.count(), cfg.slots);
        assert_eq!(hist.overflow(), 0);
    }

    #[test]
    #[should_panic(expected = "up to 16 hosts")]
    fn oversized_cluster_panics() {
        let _ = ClintSim::new(ClintConfig {
            n: 20,
            ..Default::default()
        });
    }
}
