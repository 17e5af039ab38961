//! EXT-2 — convergence of the iterative schedulers.
//!
//! The paper claims `O(log² n)` expected iterations for distributed LCF
//! (Sec. 5); EXPERIMENTS.md EXT-2 compares. Two measurements:
//!
//! 1. iterations until convergence of `lcf_dist` and `pim` on dense random
//!    requests, as a function of `n` (beside PIM's `log₂ n + 4/3` bound);
//! 2. matching-size ratio achieved by `lcf_dist` and `pim` under a fixed
//!    iteration budget (why the paper picks 4 iterations).
//!
//! Usage: `cargo run --release -p lcf-bench --bin iterations [--quick]`

#![forbid(unsafe_code)]

use lcf_bench::cli;
use lcf_bench::table::{ascii_table, f2, f3, write_csv};
use lcf_core::lcf::DistributedLcf;
use lcf_core::maxsize::MaxSizeMatcher;
use lcf_core::pim::Pim;
use lcf_core::request::RequestMatrix;
use lcf_core::traits::Scheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = cli::quick_mode();
    let seed = cli::seed_arg().unwrap_or(0xE2);
    let trials = if quick { 100 } else { 1_000 };
    let density = 0.5;

    // --- Part 1: iterations to convergence vs n --------------------------
    println!(
        "EXT-2a — iterations to convergence, lcf_dist vs pim (density {density}, {trials} trials)"
    );
    let ns = [4usize, 8, 16, 32, 64, 128];
    let mut rows = Vec::new();
    let mut csv1 = Vec::new();
    for &n in &ns {
        // Budget n => both schedulers always converge within the budget.
        let mut lcf = DistributedLcf::pure(n, n);
        let mut pim = Pim::new(n, n, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut lcf_sum, mut lcf_max) = (0usize, 0usize);
        let (mut pim_sum, mut pim_max) = (0usize, 0usize);
        for _ in 0..trials {
            let requests = RequestMatrix::random(n, density, &mut rng);
            // converged_after includes the empty probe iteration; the last
            // productive iteration is one earlier.
            let productive = |trace: &lcf_core::lcf::IterationTrace| {
                trace.converged_after.map(|c| c - 1).unwrap_or(n).max(1)
            };
            lcf.schedule(&requests);
            let iters = productive(lcf.last_trace());
            lcf_sum += iters;
            lcf_max = lcf_max.max(iters);
            pim.schedule(&requests);
            let iters = productive(pim.last_trace());
            pim_sum += iters;
            pim_max = pim_max.max(iters);
        }
        let lcf_mean = lcf_sum as f64 / trials as f64;
        let pim_mean = pim_sum as f64 / trials as f64;
        let log2n = (n as f64).log2();
        // The PIM paper's bound: E[iterations] <= log2 n + 4/3.
        let pim_bound = log2n + 4.0 / 3.0;
        rows.push(vec![
            n.to_string(),
            f2(lcf_mean),
            lcf_max.to_string(),
            f2(pim_mean),
            pim_max.to_string(),
            f2(pim_bound),
        ]);
        csv1.push(vec![
            n.to_string(),
            format!("{lcf_mean}"),
            lcf_max.to_string(),
            format!("{pim_mean}"),
            pim_max.to_string(),
        ]);
    }
    println!(
        "{}",
        ascii_table(
            &[
                "n",
                "lcf_dist mean",
                "lcf max",
                "pim mean",
                "pim max",
                "log2n + 4/3"
            ],
            &rows
        )
    );
    println!("(PIM respects its E[iters] <= log2 n + 4/3 bound; the LCF priorities\n trade slower worst-case convergence for near-maximum matchings, see EXT-2b)");

    // --- Part 2: matching quality vs iteration budget --------------------
    println!("EXT-2b — matching-size ratio vs iteration budget (n = 16)");
    let budgets = [1usize, 2, 3, 4, 6, 8];
    let n = 16;
    let mut oracle = MaxSizeMatcher::new(n);
    let mut rows2 = Vec::new();
    let mut csv2 = Vec::new();
    for name in ["lcf_dist", "pim"] {
        let mut row = vec![name.to_string()];
        for &budget in &budgets {
            let mut sched: Box<dyn Scheduler> = match name {
                "lcf_dist" => Box::new(DistributedLcf::pure(n, budget)),
                _ => Box::new(Pim::new(n, budget, seed)),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ratio_sum = 0.0;
            let mut counted = 0u32;
            for _ in 0..trials {
                let requests = RequestMatrix::random(n, density, &mut rng);
                let max = oracle.max_matching_size(&requests);
                if max == 0 {
                    continue;
                }
                ratio_sum += sched.schedule(&requests).size() as f64 / max as f64;
                counted += 1;
            }
            let mean = ratio_sum / counted as f64;
            row.push(f3(mean));
            csv2.push(vec![
                name.to_string(),
                budget.to_string(),
                format!("{mean}"),
            ]);
        }
        rows2.push(row);
    }
    let mut headers = vec!["scheduler".to_string()];
    headers.extend(budgets.iter().map(|b| format!("i={b}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", ascii_table(&header_refs, &rows2));
    println!(
        "(the paper's \"small number of iterations is normally sufficient\": 4 is near-saturated)"
    );

    let dir = cli::results_dir();
    write_csv(
        &dir.join("iterations_convergence.csv"),
        &["n", "mean_iters", "max_iters"],
        &csv1,
    )
    .expect("write csv");
    write_csv(
        &dir.join("iterations_quality.csv"),
        &["scheduler", "budget", "ratio"],
        &csv2,
    )
    .expect("write csv");
    eprintln!("wrote {}/iterations_*.csv", dir.display());
}
