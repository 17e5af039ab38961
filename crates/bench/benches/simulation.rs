//! Criterion bench: end-to-end simulator slot rate.
//!
//! Two groups:
//!
//! * `sim_slots` — model comparison at the paper's default configuration
//!   (n = 16, load 0.8), covering the Fig. 12 architectures.
//! * `sim_scaling` — the hot-loop scaling matrix: slots/sec for
//!   n ∈ {16, 32, 64, 128} × {lcf_central_rr, islip} × loads {0.5, 0.95}.
//!   The committed throughput record that CI guards against is the
//!   scheduler-kernel baseline `results/BENCH_schedulers.json` (see the
//!   `bench_guard` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::outbuf::ObSwitch;
use lcf_sim::stats::SimStats;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOTS_PER_ITER: u64 = 1_000;

fn bench_sim_models(c: &mut Criterion) {
    let cfg = SimConfig::paper_default();
    let n = cfg.n;
    let mut group = c.benchmark_group("sim_slots");
    group.throughput(Throughput::Elements(SLOTS_PER_ITER));

    for model in [
        ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        ModelKind::Scheduler(SchedulerKind::LcfDistRr),
        ModelKind::Scheduler(SchedulerKind::Islip),
        ModelKind::Scheduler(SchedulerKind::Fifo),
        ModelKind::OutputBuffered,
    ] {
        group.bench_function(BenchmarkId::new("load0.8", model.name()), |b| {
            let mut traffic = Bernoulli::new(n, 0.8, DestPattern::Uniform);
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = SimStats::new(n, 0, cfg.max_latency_bucket);
            let mut slot = 0u64;
            match model {
                ModelKind::OutputBuffered => {
                    let mut sw = ObSwitch::new(n, cfg.pq_cap, cfg.outbuf_cap);
                    b.iter(|| {
                        for _ in 0..SLOTS_PER_ITER {
                            sw.step(slot, &mut traffic, &mut rng, &mut stats);
                            slot += 1;
                        }
                        std::hint::black_box(stats.delivered)
                    });
                }
                ModelKind::Scheduler(kind) => {
                    let mode = if kind.wants_fifo_queues() {
                        QueueMode::SingleFifo { cap: cfg.voq_cap }
                    } else {
                        QueueMode::Voq { cap: cfg.voq_cap }
                    };
                    let mut sw = IqSwitch::new(n, kind.build(n, 4, 2), mode, cfg.pq_cap);
                    b.iter(|| {
                        for _ in 0..SLOTS_PER_ITER {
                            sw.step(slot, &mut traffic, &mut rng, &mut stats);
                            slot += 1;
                        }
                        std::hint::black_box(stats.delivered)
                    });
                }
                ModelKind::Weighted(_) => unreachable!("the lineup above has no weighted model"),
            }
        });
    }
    group.finish();
}

fn bench_sim_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scaling");
    group.throughput(Throughput::Elements(SLOTS_PER_ITER));

    for kind in [SchedulerKind::LcfCentralRr, SchedulerKind::Islip] {
        for n in [16usize, 32, 64, 128] {
            for load in [0.5f64, 0.95] {
                group.bench_function(
                    BenchmarkId::new(kind.name(), format!("n{n}/load{load}")),
                    |b| {
                        let mut sw = IqSwitch::new(
                            n,
                            kind.build(n, 4, 2),
                            QueueMode::Voq { cap: 256 },
                            1_000,
                        );
                        let mut traffic = Bernoulli::new(n, load, DestPattern::Uniform);
                        let mut rng = StdRng::seed_from_u64(1);
                        let mut stats = SimStats::new(n, 0, 4096);
                        let mut slot = 0u64;
                        b.iter(|| {
                            for _ in 0..SLOTS_PER_ITER {
                                sw.step(slot, &mut traffic, &mut rng, &mut stats);
                                slot += 1;
                            }
                            std::hint::black_box(stats.delivered)
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sim_models, bench_sim_scaling);
criterion_main!(benches);
