//! EXT-10 — fabric speedup: how much faster must the fabric run for an
//! input-queued LCF switch to emulate output queueing?
//!
//! Classic theory says speedup 2 suffices for any maximal matcher; this
//! experiment measures where the LCF scheduler actually lands on that
//! curve at the paper's 16-port configuration.
//!
//! Usage: `cargo run --release -p lcf-bench --bin speedup [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, write_csv};
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::SimConfig;
use lcf_sim::model::{drive, DriveOptions, SwitchModel};
use lcf_sim::outbuf::ObSwitch;
use lcf_sim::switch::IqSwitch;
use lcf_sim::traffic::{Bernoulli, DestPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean delay of one `drive` run (the config's warm-up and measurement
/// windows) of `sw` under uniform Bernoulli traffic at `load`.
fn mean_latency(sw: &mut dyn SwitchModel, cfg: &SimConfig, load: f64) -> f64 {
    let mut traffic = Bernoulli::new(cfg.n, load, DestPattern::Uniform);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let opts = DriveOptions::new(cfg.warmup_slots, cfg.measure_slots, cfg.max_latency_bucket);
    drive(sw, &mut traffic, &mut rng, &opts).mean_latency()
}

fn run_cioq(cfg: &SimConfig, speedup: usize, load: f64) -> f64 {
    let n = cfg.n;
    let mut sw = IqSwitch::new_cioq(
        n,
        SchedulerKind::LcfCentralRr.build(n, cfg.iterations, cfg.seed),
        speedup,
        0,
        cfg.pq_cap,
        cfg.voq_cap,
        cfg.outbuf_cap,
    );
    mean_latency(&mut sw, cfg, load)
}

fn run_outbuf(cfg: &SimConfig, load: f64) -> f64 {
    let mut sw = ObSwitch::new(cfg.n, cfg.pq_cap, cfg.outbuf_cap);
    mean_latency(&mut sw, cfg, load)
}

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xEA);
    let mut cfg = SimConfig::paper_default();
    cfg.seed = seed;
    if quick {
        cfg.warmup_slots = 5_000;
        cfg.measure_slots = 20_000;
    } else {
        cfg.warmup_slots = 30_000;
        cfg.measure_slots = 120_000;
    }
    let loads = [0.6, 0.8, 0.9, 0.95, 0.99];
    let speedups = [1usize, 2, 3];

    eprintln!("speedup: 16-port CIOQ, lcf_central_rr, seed={seed}");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &s in &speedups {
        let mut row = vec![format!("cioq s={s}")];
        for &load in &loads {
            let lat = run_cioq(&cfg, s, load);
            row.push(f2(lat));
            csv_rows.push(vec![format!("{s}"), format!("{load}"), format!("{lat}")]);
        }
        rows.push(row);
    }
    let mut ob_row = vec!["outbuf".to_string()];
    for &load in &loads {
        let lat = run_outbuf(&cfg, load);
        ob_row.push(f2(lat));
        csv_rows.push(vec!["outbuf".into(), format!("{load}"), format!("{lat}")]);
    }
    rows.push(ob_row);

    let mut headers = vec!["model".to_string()];
    headers.extend(loads.iter().map(|l| format!("{l}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("\nEXT-10 — mean delay [slots] vs fabric speedup (LCF, CIOQ)");
    println!("{}", ascii_table(&header_refs, &rows));
    println!("(speedup 2 should pull the LCF switch onto the outbuf curve)");

    let dir = cli::results_dir();
    let path = dir.join("speedup.csv");
    write_csv(&path, &["speedup", "load", "latency_slots"], &csv_rows).expect("write csv");
    eprintln!("wrote {}", path.display());
}
