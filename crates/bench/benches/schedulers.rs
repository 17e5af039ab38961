//! Criterion bench: cost of one scheduling decision, per scheduler, at the
//! paper's n = 16 across request densities (EXT-5), plus the word-parallel
//! kernel comparison (scalar vs bitset backend) across port counts, plus
//! the `sim_heavy` end-to-end heavy-traffic slot loop (load 0.99, n = 32)
//! comparing the fast path against the legacy paths.
//!
//! Regenerate the committed baseline with
//! `CRITERION_JSON=$PWD/results/BENCH_schedulers.json cargo bench --bench schedulers`
//! from the workspace root (absolute path: bench binaries run with the
//! package dir as cwd).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcf_core::bitkern::Backend;
use lcf_core::matching::Matching;
use lcf_core::registry::SchedulerKind;
use lcf_core::request::RequestMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_schedulers(c: &mut Criterion) {
    let n = 16;
    let mut group = c.benchmark_group("schedule_n16");
    for kind in SchedulerKind::ALL {
        for density in [0.25, 0.75] {
            let mut rng = StdRng::seed_from_u64(7);
            // A pool of request matrices so the scheduler sees variety; the
            // FIFO scheduler needs <=1 request per row.
            let pool: Vec<RequestMatrix> = (0..64)
                .map(|_| {
                    if kind.wants_fifo_queues() {
                        use rand::Rng;
                        let mut pairs: Vec<(usize, usize)> = Vec::new();
                        for i in 0..n {
                            if rng.gen_bool(density) {
                                pairs.push((i, rng.gen_range(0..n)));
                            }
                        }
                        RequestMatrix::from_pairs(n, pairs)
                    } else {
                        RequestMatrix::random(n, density, &mut rng)
                    }
                })
                .collect();
            let mut sched = kind.build(n, 4, 11);
            // The hot path is allocation-free: one Matching reused across
            // every decision, exactly as the simulator's slot loop does it.
            let mut out = Matching::new(n);
            let mut idx = 0usize;
            group.bench_with_input(
                BenchmarkId::new(kind.name(), format!("d{density}")),
                &pool,
                |b, pool| {
                    b.iter(|| {
                        sched.schedule_into(&pool[idx % pool.len()], &mut out);
                        idx += 1;
                        std::hint::black_box(out.size())
                    })
                },
            );
        }
    }
    group.finish();
}

/// Scalar vs word-parallel kernels for every scheduler that has both, at
/// n = 8..256 (multi-word masks above 64) and density 0.5. The bitset
/// kernels are the production default; the scalar reference is what the
/// paper's Fig. 2 pseudocode transliterates to.
///
/// A sparse point, density 0.024 at n = 128 and 256 (ids ending
/// `/d0.024`), covers `islip`, `pim` and `lcf_central_rr`: it is the request
/// density of the n = 256 benchmark switches (`wide256`, `islip256`), where
/// most ports run out of live partners within the first iterations.
fn bench_kernels(c: &mut Criterion) {
    let kinds = [
        SchedulerKind::LcfCentral,
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDist,
        SchedulerKind::LcfDistRr,
        SchedulerKind::Pim,
        SchedulerKind::Islip,
        SchedulerKind::Wavefront,
    ];
    for backend in [Backend::Scalar, Backend::Bitset] {
        let mut group = c.benchmark_group(format!("kernel_{backend}"));
        for kind in kinds {
            let mut points = [8usize, 16, 32, 64, 128, 256].map(|n| (n, 0.5)).to_vec();
            if matches!(
                kind,
                SchedulerKind::Islip | SchedulerKind::Pim | SchedulerKind::LcfCentralRr
            ) {
                points.extend([(128, 0.024), (256, 0.024)]);
            }
            for (n, density) in points {
                let param = if density == 0.5 {
                    n.to_string()
                } else {
                    format!("{n}/d{density}")
                };
                let mut rng = StdRng::seed_from_u64(7);
                let pool: Vec<RequestMatrix> = (0..64)
                    .map(|_| RequestMatrix::random(n, density, &mut rng))
                    .collect();
                let mut sched = kind.build_with_backend(n, 4, 11, backend).0;
                let mut out = Matching::new(n);
                let mut idx = 0usize;
                group.bench_with_input(BenchmarkId::new(kind.name(), param), &pool, |b, pool| {
                    b.iter(|| {
                        sched.schedule_into(&pool[idx % pool.len()], &mut out);
                        idx += 1;
                        std::hint::black_box(out.size())
                    })
                });
            }
        }
        group.finish();
    }
}

/// The heavy-traffic slot loop: `lcf_central` at n = 32, load 0.99,
/// full simulator pipeline (traffic → PQ → VOQ spill → schedule →
/// delivery → stats). Three variants, measured in the same run so the
/// committed ratios are machine-independent:
///
/// * `reference` — scalar matching kernel + legacy per-pair generator,
///   the paper-transliteration path every optimization is accounted
///   against;
/// * `legacy` — word-parallel kernel + legacy generator (the pre-fast-path
///   production default);
/// * `fast` — word-parallel kernel + batched word-granularity generator,
///   the heavy-traffic fast path.
///
/// `bench_guard` asserts from the committed baseline that `fast` is at
/// least 3x the `reference` slot rate and never slower than `legacy`.
fn bench_sim_heavy(c: &mut Criterion) {
    use lcf_sim::stats::SimStats;
    use lcf_sim::switch::{IqSwitch, QueueMode};
    use lcf_sim::traffic::{Bernoulli, DestPattern, FastBernoulli, Traffic};

    const SLOTS_PER_ITER: u64 = 1_000;
    let n = 32usize;
    let load = 0.99;
    let mut group = c.benchmark_group("sim_heavy");
    group.throughput(Throughput::Elements(SLOTS_PER_ITER));

    for variant in ["reference", "legacy", "fast"] {
        let backend = if variant == "reference" {
            Backend::Scalar
        } else {
            Backend::Bitset
        };
        group.bench_function(BenchmarkId::new("lcf_central_n32_load0.99", variant), |b| {
            let sched = SchedulerKind::LcfCentral
                .build_with_backend(n, 4, 2, backend)
                .0;
            let mut sw = IqSwitch::new(n, sched, QueueMode::Voq { cap: 256 }, 1_000);
            let mut traffic: Box<dyn Traffic> = if variant == "fast" {
                Box::new(FastBernoulli::new(n, load, DestPattern::Uniform))
            } else {
                Box::new(Bernoulli::new(n, load, DestPattern::Uniform))
            };
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = SimStats::new(n, 0, 4096);
            let mut slot = 0u64;
            b.iter(|| {
                for _ in 0..SLOTS_PER_ITER {
                    sw.step(slot, traffic.as_mut(), &mut rng, &mut stats);
                    slot += 1;
                }
                std::hint::black_box(stats.delivered)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_kernels, bench_sim_heavy);
criterion_main!(benches);
