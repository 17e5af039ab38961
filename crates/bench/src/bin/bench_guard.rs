//! `bench_guard` — asserts that the untraced central LCF scheduler is still
//! in the same performance class as the committed baseline
//! (`results/BENCH_schedulers.json`), and that the heavy-traffic fast path
//! keeps its committed speedup over the legacy paths.
//!
//! Tracing is off unless asked for. A perf regression here would mean the
//! always-compiled instrumentation leaked work (or allocation) into the hot
//! scheduling path. This guard is
//! deliberately coarse — CI machines are noisy, so the tolerance is a
//! multiple of the baseline, not a percentage — but it catches the failure
//! mode that matters: an accidental order-of-magnitude slowdown.
//!
//! The `sim_heavy` checks work differently: the committed baseline records
//! all three heavy-traffic variants (`reference`, `legacy`, `fast`) from
//! the *same* criterion run, so their ratios are machine-independent. The
//! guard asserts the committed ratios (fast >= 3x reference slot rate,
//! fast never slower than legacy) and then re-measures the fast-vs-reference
//! ratio live with a cruder timer and a wider margin.
//!
//! The kernel checks work the same way, for the distributed LCF kernel
//! (`kernel_scalar/lcf_dist_rr/32` against `kernel_bitset/lcf_dist_rr/32`)
//! and for sparse iSLIP (`kernel_*/islip/256/d0.024`): both medians come
//! from one criterion run, so their ratio must clear a committed floor,
//! and a live re-measurement must clear a wider one.
//!
//! ```text
//! cargo run --release -p lcf-bench --bin bench_guard
//! ```
//!
//! Exits non-zero iff any measured median exceeds `TOLERANCE x` baseline or
//! any `sim_heavy` or kernel ratio check fails.

#![forbid(unsafe_code)]

use lcf_core::bitkern::Backend;
use lcf_core::matching::Matching;
use lcf_core::registry::SchedulerKind;
use lcf_core::request::RequestMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
// lint:allow(wall-clock): bench_guard's whole purpose is live wall-clock re-measure
use std::time::Instant;

/// Allowed slack over the committed baseline median. The baseline was
/// recorded under criterion on an idle machine; this guard runs a cruder
/// timer on whatever CI hands us (observed ~3-4x on slow shared VMs), so
/// anything under 8x is "same class" — the target failure mode is an
/// accidental order-of-magnitude slowdown, not percent-level drift.
const TOLERANCE: f64 = 8.0;

/// Calls per timing sample: ~1 ms for central LCF at n = 16, ~0.15 s for
/// the scalar distributed LCF kernel at n = 32.
const CALLS_PER_SAMPLE: usize = 2_000;

/// Timing samples per measurement; the median of these is compared.
const SAMPLES: usize = 21;

fn main() {
    let baseline_path = baseline_path();
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_guard: cannot read {}: {e}", baseline_path.display());
            eprintln!(
                "bench_guard: regenerate the baseline from the workspace root with:\n  \
                 CRITERION_JSON=$PWD/results/BENCH_schedulers.json \
                 cargo bench -p lcf-bench --bench schedulers"
            );
            std::process::exit(2);
        }
    };

    let mut failures = 0usize;
    for density in [0.25, 0.75] {
        let id = format!("schedule_n16/lcf_central/d{density}");
        let Some(baseline_ns) = ns_median_for(&baseline, &id) else {
            eprintln!("bench_guard: baseline entry `{id}` not found in BENCH_schedulers.json");
            failures += 1;
            continue;
        };
        let measured_ns = measure_schedule(
            SchedulerKind::LcfCentral,
            16,
            density,
            Backend::default(),
            CALLS_PER_SAMPLE,
        );
        let limit = baseline_ns * TOLERANCE;
        let verdict = if measured_ns <= limit { "ok" } else { "FAIL" };
        println!(
            "bench_guard: {id}  baseline {baseline_ns:8.1} ns  measured {measured_ns:8.1} ns  \
             limit {limit:8.1} ns  {verdict}"
        );
        if measured_ns > limit {
            failures += 1;
        }
    }

    failures += check_sim_heavy(&baseline);
    failures += check_kernel_ratio(&baseline, &DIST_KERNEL);
    failures += check_kernel_ratio(&baseline, &ISLIP_SPARSE_KERNEL);

    if failures > 0 {
        eprintln!("bench_guard: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("bench_guard: all checks passed (tolerance {TOLERANCE}x)");
}

/// Committed fast-vs-reference speedup floor: the baseline was recorded
/// with all three variants in one criterion run, so this ratio is a
/// property of the code, not of the machine that recorded it.
const HEAVY_RATIO_BASELINE: f64 = 3.0;

/// Live re-measurement floor for the same ratio; wider because the guard's
/// crude timer runs on noisy CI machines. A fast path that has collapsed
/// to parity with the scalar reference fails this even on a bad VM.
const HEAVY_RATIO_LIVE: f64 = 2.0;

/// Heavy-traffic slot loop guards (the `sim_heavy` criterion group):
/// baseline ratio checks plus a live fast-vs-reference re-measurement.
fn check_sim_heavy(baseline: &str) -> usize {
    let id = |variant: &str| format!("sim_heavy/lcf_central_n32_load0.99/{variant}");
    let mut entries = [0.0f64; 3];
    for (slot, variant) in entries.iter_mut().zip(["reference", "legacy", "fast"]) {
        match ns_median_for(baseline, &id(variant)) {
            Some(ns) => *slot = ns,
            None => {
                eprintln!(
                    "bench_guard: baseline entry `{}` not found in BENCH_schedulers.json",
                    id(variant)
                );
                return 1;
            }
        }
    }
    let [reference_ns, legacy_ns, fast_ns] = entries;
    let mut failures = 0usize;

    let committed_ratio = reference_ns / fast_ns;
    let verdict = if committed_ratio >= HEAVY_RATIO_BASELINE {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy committed fast speedup {committed_ratio:.2}x over reference \
         (floor {HEAVY_RATIO_BASELINE}x)  {verdict}"
    );

    let verdict = if fast_ns <= legacy_ns {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy committed fast {fast_ns:.0} ns <= legacy {legacy_ns:.0} ns \
         per iter  {verdict}"
    );

    let (live_reference, live_fast, live_ratio) = measure_heavy_ratio();
    let verdict = if live_ratio >= HEAVY_RATIO_LIVE {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: sim_heavy live reference {live_reference:8.1} ns/slot  fast \
         {live_fast:8.1} ns/slot  ratio {live_ratio:.2}x (floor {HEAVY_RATIO_LIVE}x)  {verdict}"
    );
    failures
}

/// The heavy-traffic slot loop (`lcf_central`, n = 32, load 0.99) of the
/// `sim_heavy` criterion group, timed with the guard's cruder timer.
struct HeavyLoop {
    sw: lcf_sim::switch::IqSwitch,
    traffic: Box<dyn lcf_sim::traffic::Traffic>,
    rng: StdRng,
    stats: lcf_sim::stats::SimStats,
    slot: u64,
}

impl HeavyLoop {
    /// Builds the loop and warms it up to the load-0.99 steady state.
    fn new(backend: Backend, fast_traffic: bool) -> Self {
        use lcf_sim::switch::{IqSwitch, QueueMode};
        use lcf_sim::traffic::{Bernoulli, DestPattern, FastBernoulli};

        let n = 32usize;
        let sched = SchedulerKind::LcfCentral
            .build_with_backend(n, 4, 2, backend)
            .0;
        let mut heavy = HeavyLoop {
            sw: IqSwitch::new(n, sched, QueueMode::Voq { cap: 256 }, 1_000),
            traffic: if fast_traffic {
                Box::new(FastBernoulli::new(n, 0.99, DestPattern::Uniform))
            } else {
                Box::new(Bernoulli::new(n, 0.99, DestPattern::Uniform))
            },
            rng: StdRng::seed_from_u64(1),
            stats: lcf_sim::stats::SimStats::new(n, 0, 4096),
            slot: 0,
        };
        heavy.sample();
        heavy
    }

    /// Steps one sample of slots; returns its ns per slot.
    fn sample(&mut self) -> f64 {
        const SLOTS_PER_SAMPLE: u64 = 2_000;
        // lint:allow(wall-clock): timing the hot slot loop is the measurement
        let start = Instant::now();
        for _ in 0..SLOTS_PER_SAMPLE {
            let traffic = self.traffic.as_mut();
            self.sw
                .step(self.slot, traffic, &mut self.rng, &mut self.stats);
            self.slot += 1;
        }
        start.elapsed().as_nanos() as f64 / SLOTS_PER_SAMPLE as f64
    }
}

/// Live heavy slot timing: `(reference ns, fast ns, reference ÷ fast)`.
/// The two loops' samples alternate, so host drift lands on both sides of
/// a pair. The ratio is the median of the per-pair ratios; the times are
/// each side's median.
fn measure_heavy_ratio() -> (f64, f64, f64) {
    const HEAVY_PAIRS: usize = 7;
    let mut reference = HeavyLoop::new(Backend::Scalar, false);
    let mut fast = HeavyLoop::new(Backend::Bitset, true);
    let pairs: Vec<(f64, f64)> = (0..HEAVY_PAIRS)
        .map(|_| (reference.sample(), fast.sample()))
        .collect();
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (
        median(pairs.iter().map(|p| p.0).collect()),
        median(pairs.iter().map(|p| p.1).collect()),
        median(pairs.iter().map(|p| p.0 / p.1).collect()),
    )
}

/// A scalar-vs-bitset kernel speedup guard on one `kernel_*` criterion
/// point. Both committed medians come from one criterion run, so their
/// ratio is machine-independent and must clear `committed_floor`; a live
/// re-measurement must clear the wider `live_floor`, so a bitset kernel
/// that has fallen back to per-bit probes (or to visiting dead ports)
/// fails even on a noisy machine.
struct KernelRatio {
    kind: SchedulerKind,
    n: usize,
    density: f64,
    /// The criterion parameter: `n`, plus `/d<density>` off density 0.5.
    param: &'static str,
    committed_floor: f64,
    live_floor: f64,
    /// Calls per live timing sample.
    calls: usize,
}

/// Distributed LCF (`lcf_dist_rr`, n = 32, density 0.5).
const DIST_KERNEL: KernelRatio = KernelRatio {
    kind: SchedulerKind::LcfDistRr,
    n: 32,
    density: 0.5,
    param: "32",
    committed_floor: 10.0,
    live_floor: 5.0,
    calls: CALLS_PER_SAMPLE,
};

/// iSLIP at n = 256, density 0.024 (the `islip256` benchmark switch's
/// request density), where the live-port kernel skips outputs with no
/// unmatched requester and inputs with no grant. The committed ratio was
/// 29.5x when the floor was set; the floor is about half of it. The
/// scalar kernel takes ~0.45 ms a call, hence the short live samples.
const ISLIP_SPARSE_KERNEL: KernelRatio = KernelRatio {
    kind: SchedulerKind::Islip,
    n: 256,
    density: 0.024,
    param: "256/d0.024",
    committed_floor: 15.0,
    live_floor: 7.5,
    calls: 100,
};

/// Checks one [`KernelRatio`]: the committed ratio, then a live
/// re-measurement.
fn check_kernel_ratio(baseline: &str, guard: &KernelRatio) -> usize {
    let name = format!("{}/{}", guard.kind.name(), guard.param);
    let id = |backend: Backend| format!("kernel_{backend}/{name}");
    let mut entries = [0.0f64; 2];
    for (slot, backend) in entries.iter_mut().zip([Backend::Scalar, Backend::Bitset]) {
        match ns_median_for(baseline, &id(backend)) {
            Some(ns) => *slot = ns,
            None => {
                eprintln!(
                    "bench_guard: baseline entry `{}` not found in BENCH_schedulers.json",
                    id(backend)
                );
                return 1;
            }
        }
    }
    let [scalar_ns, bitset_ns] = entries;
    let mut failures = 0usize;

    let committed_ratio = scalar_ns / bitset_ns;
    let floor = guard.committed_floor;
    let verdict = if committed_ratio >= floor {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: {name} committed bitset speedup {committed_ratio:.2}x over scalar \
         (floor {floor}x)  {verdict}"
    );

    let live = |backend| measure_schedule(guard.kind, guard.n, guard.density, backend, guard.calls);
    let live_scalar = live(Backend::Scalar);
    let live_bitset = live(Backend::Bitset);
    let live_ratio = live_scalar / live_bitset;
    let floor = guard.live_floor;
    let verdict = if live_ratio >= floor {
        "ok"
    } else {
        failures += 1;
        "FAIL"
    };
    println!(
        "bench_guard: {name} live scalar {live_scalar:8.1} ns  bitset \
         {live_bitset:8.1} ns  ratio {live_ratio:.2}x (floor {floor}x)  {verdict}"
    );
    failures
}

/// Median ns per `schedule_into` call of `kind` at port count `n` on the
/// given backend, mirroring the pool setup of the `schedule_n16` and
/// `kernel_*` criterion groups (64 random matrices at `density`, 4
/// iterations), timed in samples of `calls` calls.
fn measure_schedule(
    kind: SchedulerKind,
    n: usize,
    density: f64,
    backend: Backend,
    calls: usize,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let pool: Vec<RequestMatrix> = (0..64)
        .map(|_| RequestMatrix::random(n, density, &mut rng))
        .collect();
    let mut sched = kind.build_with_backend(n, 4, 11, backend).0;
    let mut out = Matching::new(n);
    let mut idx = 0usize;
    let mut run = || {
        for _ in 0..calls {
            sched.schedule_into(&pool[idx % pool.len()], &mut out);
            std::hint::black_box(out.size());
            idx += 1;
        }
    };

    // Warm caches and branch predictors before sampling.
    run();
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            // lint:allow(wall-clock): timing the scheduler calls is the measurement
            let start = Instant::now();
            run();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Extracts `ns_median` for the result entry with the given id from the
/// criterion JSON export. Hand-rolled to keep the bench crate
/// dependency-free: finds the quoted id, then the next `"ns_median"` key
/// within that entry. Tolerates arbitrary whitespace after colons.
fn ns_median_for(json: &str, id: &str) -> Option<f64> {
    let id_quoted = format!("\"{id}\"");
    let at = json.find(&id_quoted)?;
    let rest = &json[at + id_quoted.len()..];
    // Entries are flat objects, so the matching median precedes the next id.
    let entry_end = rest.find("\"id\"").unwrap_or(rest.len());
    let entry = &rest[..entry_end];
    let m = entry.find("\"ns_median\"")?;
    let after_key = &entry[m + "\"ns_median\"".len()..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let num = after_colon
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect::<String>();
    num.parse().ok()
}

/// `results/BENCH_schedulers.json` relative to the workspace root (the
/// manifest dir of this crate is `<root>/crates/bench`).
fn baseline_path() -> std::path::PathBuf {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|root| root.join("results/BENCH_schedulers.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("results/BENCH_schedulers.json"))
}
