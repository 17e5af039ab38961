//! EXT-20 — ranking LCF between iSLIP and the maximum-weight optimum.
//!
//! The reference tier (exact Hungarian MWM, plus the `nwgreedy`
//! node-weighted heuristic) gives the repo an upper anchor: how much delay
//! and throughput is left on the table by the practical schedulers? This
//! experiment ranks `islip`, `lcf_central_rr`, `lqf`, `nwgreedy` and `mwm`
//! on mean/p99 delay and throughput under uniform, diagonal (nonuniform)
//! and hotspot load, with `run_replicated` 95% confidence intervals so an
//! ordering claim is only made when the intervals separate. Every
//! contender is one `ModelKind` — boolean schedulers as
//! `ModelKind::Scheduler`, the weighted tier as `ModelKind::Weighted` — run
//! through the one simulation runner.
//!
//! The interesting row is hotspot: the hot output runs near critical
//! utilization, and queue-length weights steer service toward the backlog
//! that size-based matchings (LCF, iSLIP) are blind to.
//!
//! Usage: `cargo run --release -p lcf-bench --bin mwm_rank [--quick] [--seed N]`
//!
//! `--quick` shrinks the horizon and replication count (CI runs it this
//! way); the committed `results/mwm_rank.csv` comes from the full run.

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, write_csv};
use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_sim::config::{ModelKind, SimConfig};
use lcf_sim::runner::run_replicated;
use lcf_sim::traffic::DestPattern;

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0x33D0);
    let (warmup, measure, replications) = if quick {
        (5_000u64, 20_000u64, 3usize)
    } else {
        (50_000u64, 200_000u64, 8usize)
    };

    let contenders = [
        ModelKind::Scheduler(SchedulerKind::Islip),
        ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
        ModelKind::Weighted(WeightedKind::Lqf),
        ModelKind::Weighted(WeightedKind::NwGreedy),
        ModelKind::Weighted(WeightedKind::Mwm),
    ];
    let scenarios: [(&str, DestPattern, f64); 3] = [
        ("uniform", DestPattern::Uniform, 0.95),
        ("diagonal", DestPattern::Diagonal, 0.90),
        // Hot output offered 16 × 0.85 × 0.07 ≈ 0.95 pkt/slot: near
        // critical but stable, so delay (not loss) does the ranking.
        (
            "hotspot",
            DestPattern::Hotspot {
                hot: 0,
                fraction: 0.07,
            },
            0.85,
        ),
    ];

    eprintln!(
        "mwm_rank: n=16, {replications} replications x {measure} slots (warmup {warmup}), \
         seed={seed}{}",
        if quick { " (quick mode)" } else { "" }
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for contender in contenders {
        let mut row = vec![contender.name().to_string()];
        for (scenario, pattern, load) in &scenarios {
            let cfg = SimConfig {
                model: contender,
                load: *load,
                pattern: pattern.clone(),
                warmup_slots: warmup,
                measure_slots: measure,
                seed,
                // The hotspot rows run saturated on the hot port; delay
                // tails overflow paper_default's 4096 bucket cap.
                max_latency_bucket: 65_536,
                ..SimConfig::paper_default()
            };
            let rep = run_replicated(&cfg, replications);
            row.push(format!(
                "{:.1}±{:.1} / {:.4}",
                rep.mean_latency.mean, rep.mean_latency.half_width, rep.throughput.mean
            ));
            csv_rows.push(vec![
                contender.name().to_string(),
                scenario.to_string(),
                format!("{load}"),
                f2(rep.mean_latency.mean),
                f2(rep.mean_latency.half_width),
                f2(rep.p99_latency.mean),
                f2(rep.p99_latency.half_width),
                format!("{:.5}", rep.throughput.mean),
                format!("{:.5}", rep.throughput.half_width),
                format!("{:.5}", rep.loss_rate.mean),
                format!("{replications}"),
                format!("{measure}"),
            ]);
            eprintln!(
                "  {} {scenario}@{load}: {:.2} ± {:.2} slots, thpt {:.4}",
                contender.name(),
                rep.mean_latency.mean,
                rep.mean_latency.half_width,
                rep.throughput.mean
            );
        }
        rows.push(row);
    }

    let mut headers = vec!["scheduler".to_string()];
    headers.extend(scenarios.iter().map(|(s, _, l)| format!("{s}@{l}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\nEXT-20 — mean delay [slots] ± 95% CI / throughput: LCF vs iSLIP vs MWM");
    println!("{}", ascii_table(&header_refs, &rows));
    println!(
        "(mwm is the O(n^3) reference optimum on queue-length weights; the gap\n \
         between lcf_central_rr and mwm is the price of size-only matching)"
    );

    let dir = cli::results_dir();
    let path = dir.join("mwm_rank.csv");
    write_csv(
        &path,
        &[
            "scheduler",
            "scenario",
            "load",
            "mean_delay",
            "mean_delay_ci",
            "p99",
            "p99_ci",
            "throughput",
            "throughput_ci",
            "loss_rate",
            "replications",
            "slots",
        ],
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote {}", path.display());
}
