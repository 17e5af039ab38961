//! Criterion bench: scheduling cost vs port count (EXT-5).
//!
//! Software analogue of the paper's Sec. 6.2 "Speed" comparison: the
//! central scheduler's work grows like n² (n sequential resources, each an
//! O(n) scan) while the distributed scheduler does a fixed number of
//! iterations of O(n²) message work — and the Hopcroft–Karp reference shows
//! what a maximum-size matcher costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcf_core::bitkern::Backend;
use lcf_core::matching::Matching;
use lcf_core::registry::{BackendChoice, SchedulerKind};
use lcf_core::request::RequestMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_vs_n");
    let kinds = [
        SchedulerKind::LcfCentralRr,
        SchedulerKind::LcfDistRr,
        SchedulerKind::Islip,
        SchedulerKind::Wavefront,
        SchedulerKind::MaxSize,
    ];
    for n in [8usize, 16, 32, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(3);
        let pool: Vec<RequestMatrix> = (0..16)
            .map(|_| RequestMatrix::random(n, 0.5, &mut rng))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        for kind in kinds {
            let (mut sched, choice) = kind.build_with_backend(n, 4, 5, Backend::default());
            // Readers take this group as kernel scaling data, so every
            // scheduler with a word-parallel kernel must run it.
            if kind.has_kernel() {
                assert_eq!(
                    choice,
                    BackendChoice::AsRequested(Backend::Bitset),
                    "{} at n = {n}: schedule_vs_n must measure the bitset kernel",
                    kind.name()
                );
            }
            let mut out = Matching::new(n);
            let mut idx = 0usize;
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &pool, |b, pool| {
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

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
