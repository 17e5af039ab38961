//! EXT-11 — scheduler pipelining: throughput is preserved, latency is not.
//!
//! Sec. 1 of the paper: "Timing requirements can be relaxed with the help
//! of pipelining techniques. By pipelining the scheduler and overlapping
//! scheduling and packet forwarding, packet throughput is optimized. Note
//! that these techniques do not reduce latency and that the scheduling
//! latency adds to the overall switch forwarding latency." This experiment
//! quantifies both halves of that sentence.
//!
//! Usage: `cargo run --release -p lcf-bench --bin pipeline_latency [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, f3, write_csv};
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::SimConfig;
use lcf_sim::model::{drive, DriveOptions};
use lcf_sim::switch::IqSwitch;
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xEB);
    let mut cfg = SimConfig::paper_default();
    cfg.seed = seed;
    let (warmup, measure) = if quick {
        (5_000, 20_000)
    } else {
        (30_000, 120_000)
    };
    let depths = [0usize, 1, 2, 4, 8];
    let load = 0.85;

    eprintln!("pipeline_latency: 16-port CIOQ, lcf_central_rr, load {load}, seed={seed}");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &depth in &depths {
        let n = cfg.n;
        let mut sw = IqSwitch::new_cioq(
            n,
            SchedulerKind::LcfCentralRr.build(n, cfg.iterations, seed),
            1,
            depth,
            cfg.pq_cap,
            cfg.voq_cap,
            cfg.outbuf_cap,
        );
        let mut traffic = Bernoulli::new(n, load, DestPattern::Uniform);
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = DriveOptions::new(warmup, measure, cfg.max_latency_bucket);
        let stats = drive(&mut sw, &mut traffic, &mut rng, &opts);
        let throughput = stats.delivered as f64 / (measure as f64 * n as f64);
        rows.push(vec![
            depth.to_string(),
            f2(stats.mean_latency()),
            f3(throughput),
            sw.wasted_grants().to_string(),
        ]);
        csv_rows.push(vec![
            depth.to_string(),
            format!("{}", stats.mean_latency()),
            format!("{throughput}"),
            sw.wasted_grants().to_string(),
        ]);
    }

    println!("\nEXT-11 — scheduling pipeline depth at load {load}");
    println!(
        "{}",
        ascii_table(
            &[
                "pipeline depth [slots]",
                "mean delay",
                "throughput",
                "stale grants"
            ],
            &rows
        )
    );
    println!("(each slot of scheduler pipeline adds ~a slot of delay; throughput\n holds because scheduling overlaps forwarding — the paper's Sec. 1 point)");

    let dir = cli::results_dir();
    let path = dir.join("pipeline_latency.csv");
    write_csv(
        &path,
        &["depth", "latency_slots", "throughput", "stale_grants"],
        &csv_rows,
    )
    .expect("write csv");
    eprintln!("wrote {}", path.display());
}
