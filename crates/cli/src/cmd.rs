//! The `lcf` subcommand implementations. Each returns its output as a
//! string so the whole surface is unit-testable.

use crate::args::{parse_requests, Args};
use lcf_core::registry::{SchedulerKind, WeightedKind};
use lcf_core::request::RequestMatrix;
use lcf_fabric::clos::ClosNetwork;
use lcf_fabric::cost::optimal_clos;
use lcf_hw::comm;
use lcf_hw::gates::GateModel;
use lcf_hw::timing::TimingModel;
use lcf_sim::config::{ModelKind, SimConfig, TrafficKind};
use lcf_sim::runner::{run_sim, SimReport};
use lcf_sim::traffic::DestPattern;
use std::fmt::Write as _;

/// `lcf help`.
pub fn help() -> String {
    "lcf — Least Choice First switch-scheduling toolkit\n\
     \n\
     USAGE: lcf <command> [--options]\n\
     \n\
     COMMANDS\n\
     \x20 schedule   compute one matching for a request matrix\n\
     \x20            --requests \"0:1,2;1:0,2,3\" [--n 4] [--scheduler lcf_central_rr]\n\
     \x20            [--iterations 4] [--seed 0] [--cycles 1]\n\
     \x20 simulate   run the Fig. 11 switch model and report delay/throughput\n\
     \x20            --scheduler <name|outbuf> --load 0.8 [--ports 16]\n\
     \x20            [--slots 100000] [--warmup 20000] [--seed N]\n\
     \x20            [--pattern uniform|nonself|diagonal|hotspot:PORT:FRAC]\n\
     \x20            [--bursty MEAN_BURST] [--fast] [--backend bitset|scalar]\n\
     \x20            [--trace out.jsonl] [--metrics out.json] [--trace-cap N]\n\
     \x20 sweep      simulate many (scheduler, load) points\n\
     \x20            --loads 0.5,0.8,0.9 [--schedulers all|a,b,c] [...simulate opts]\n\
     \x20            [--replications R] [--trace out.jsonl] [--metrics out.json]\n\
     \n\
     \x20 --fast selects the word-granularity traffic kernels (same arrival\n\
     \x20 process, different RNG stream, ~4x less RNG work); --replications R\n\
     \x20 averages R independent seeds per point and reports 95% CIs.\n\
     \x20 trace      replay one seed and pretty-print scheduler decisions\n\
     \x20            [--scheduler lcf_central_rr] [--ports 4] [--load 0.85]\n\
     \x20            [--slots 12] [--seed N]\n\
     \x20 serve      long-lived sharded engine: windowed sessions, merged\n\
     \x20            telemetry snapshots, online reconfiguration, drain\n\
     \x20            [--shards 4] [--window-slots 5000] [--snapshots 8]\n\
     \x20            [--control script.txt] [--drain-deadline 50000]\n\
     \x20            [--occupancy-range 4096] [...simulate opts]\n\
     \x20            control script: 'at <window> scheduler <name>',\n\
     \x20            'at <window> backend <scalar|bitset>', 'at <window>\n\
     \x20            load <frac>', 'at <window> drain' ('#' comments)\n\
     \x20 hw         hardware cost summary [--ports 16] [--clock-mhz 66]\n\
     \x20 fabric     crossbar vs Clos dimensioning --ports 64\n\
     \x20 clint      simulate the Clint interconnect\n\
     \x20            [--bulk-load 0.6] [--quick-load 0.1] [--slots 20000]\n\
     \x20            [--error-rate 0.0] [--hosts 16] [--seed N]\n\
     \x20 reliable   reliable bulk transfers over lossy links\n\
     \x20            [--loss 0.1] [--load 0.3] [--timeout 16] [--slots 20000]\n\
     \n\
     Scheduler names: lcf_central lcf_central_rr lcf_dist lcf_dist_rr pim\n\
     islip wfront fifo maxsize mwm (plus `outbuf` for simulate/sweep, and\n\
     the weighted schedulers `lqf` `ocf` `nwgreedy` `mwm` for simulate —\n\
     there `mwm` runs queue-length-weighted; in schedule/sweep it is the\n\
     unit-weight reference matcher).\n"
        .to_string()
}

/// The options [`sim_config`] reads, shared by `simulate`, `sweep` and
/// `serve`.
const SIM_OPTS: &[&str] = &[
    "ports",
    "load",
    "pattern",
    "bursty",
    "fast",
    "iterations",
    "islip-iterations",
    "warmup",
    "slots",
    "seed",
    "pq",
    "voq",
    "outbuf",
    "backend",
];

/// The telemetry export options of `simulate` and `sweep`.
const TELEMETRY_OPTS: &[&str] = &["trace", "metrics", "trace-cap"];

/// True if the invocation asked for telemetry output.
fn wants_telemetry(args: &Args) -> bool {
    args.get("trace").is_some() || args.get("metrics").is_some()
}

/// Writes `--trace` / `--metrics` outputs and appends a summary of what
/// went where to `out`.
fn export_telemetry(
    args: &Args,
    trace: &lcf_telemetry::TraceBuffer,
    metrics: &lcf_telemetry::MetricsRegistry,
    out: &mut String,
) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "trace          {} events -> {} ({} evicted)",
            trace.len(),
            path,
            trace.evicted()
        )
        .unwrap();
    }
    if let Some(path) = args.get("metrics") {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "metrics        {} entries -> {}", metrics.len(), path).unwrap();
    }
    Ok(())
}

fn parse_pattern(args: &Args, n: usize) -> Result<DestPattern, String> {
    match args.get("pattern") {
        None => Ok(DestPattern::Uniform),
        Some("uniform") => Ok(DestPattern::Uniform),
        Some("nonself") => Ok(DestPattern::UniformNonSelf),
        Some("diagonal") => Ok(DestPattern::Diagonal),
        Some(spec) if spec.starts_with("hotspot:") => {
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() != 3 {
                return Err("hotspot pattern is hotspot:PORT:FRACTION".into());
            }
            let hot: usize = parts[1].parse().map_err(|_| "bad hotspot port")?;
            let fraction: f64 = parts[2].parse().map_err(|_| "bad hotspot fraction")?;
            if hot >= n {
                return Err(format!("hotspot port {hot} out of range"));
            }
            Ok(DestPattern::Hotspot { hot, fraction })
        }
        Some(other) => Err(format!("unknown pattern `{other}`")),
    }
}

fn sim_config(args: &Args, model: ModelKind) -> Result<SimConfig, String> {
    let n = args.get_parsed("ports", 16usize)?;
    let cfg = SimConfig {
        model,
        n,
        load: args.get_parsed("load", 0.8f64)?,
        pattern: parse_pattern(args, n)?,
        traffic: match (args.get("bursty"), args.flag("fast")) {
            (Some(_), false) => TrafficKind::Bursty {
                mean_burst: args.get_parsed("bursty", 16.0f64)?,
            },
            (Some(_), true) => TrafficKind::FastBursty {
                mean_burst: args.get_parsed("bursty", 16.0f64)?,
            },
            (None, true) => TrafficKind::FastBernoulli,
            (None, false) => TrafficKind::Bernoulli,
        },
        iterations: args.get_parsed("iterations", 4usize)?,
        islip_iterations: args.get_parsed("islip-iterations", 4usize)?,
        warmup_slots: args.get_parsed("warmup", 20_000u64)?,
        measure_slots: args.get_parsed("slots", 100_000u64)?,
        seed: args.get_parsed("seed", 0x1C_F2002u64)?,
        pq_cap: args.get_parsed("pq", 1000usize)?,
        voq_cap: args.get_parsed("voq", 256usize)?,
        outbuf_cap: args.get_parsed("outbuf", 256usize)?,
        max_latency_bucket: 4096,
        backend: match args.get("backend") {
            None => lcf_core::bitkern::Backend::default(),
            Some(name) => lcf_core::bitkern::Backend::from_name(name)
                .ok_or_else(|| format!("unknown backend `{name}` (want scalar|bitset)"))?,
        },
    };
    cfg.validate()?;
    Ok(cfg)
}

fn report_block(r: &SimReport) -> String {
    format!(
        "model          {}\n\
         load           {}\n\
         ports          {}\n\
         measured slots {}\n\
         generated      {}\n\
         delivered      {}\n\
         dropped        {}\n\
         throughput     {:.4}\n\
         mean delay     {:.3} slots\n\
         delay stddev   {:.3}\n\
         p50 / p99      {} / {} slots\n\
         jain index     {:.4}\n\
         seed           {}\n\
         backend        {}\n",
        r.model,
        r.load,
        r.n,
        r.slots,
        r.generated,
        r.delivered,
        r.dropped,
        r.throughput,
        r.mean_latency(),
        r.latency_std_dev,
        r.p50_latency,
        r.p99_latency,
        r.jain_index,
        r.seed,
        r.backend
    )
}

/// `lcf schedule`.
pub fn schedule(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "schedule",
        &[&["n", "requests", "scheduler", "iterations", "seed", "cycles"]],
    )?;
    let n: usize = args.get_parsed("n", 4usize)?;
    let spec = args.require("requests")?;
    let pairs = parse_requests(n, spec)?;
    let requests = RequestMatrix::from_pairs(n, pairs);
    let name = args.get("scheduler").unwrap_or("lcf_central_rr");
    let kind =
        SchedulerKind::from_name(name).ok_or_else(|| format!("unknown scheduler `{name}`"))?;
    let iterations = args.get_parsed("iterations", 4usize)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let cycles = args.get_parsed("cycles", 1usize)?;

    let mut sched = kind.build(n, iterations, seed);
    let mut out = String::new();
    writeln!(out, "request matrix ({n}x{n}), scheduler {name}:").unwrap();
    for i in 0..n {
        let row: String = (0..n)
            .map(|j| if requests.get(i, j) { '1' } else { '.' })
            .collect();
        writeln!(out, "  I{i:<2} {row}  (NRQ {})", requests.nrq(i)).unwrap();
    }
    for cycle in 0..cycles {
        let m = sched.schedule(&requests);
        writeln!(out, "cycle {cycle}: {} connections", m.size()).unwrap();
        for (i, j) in m.pairs() {
            writeln!(out, "  I{i} -> T{j}").unwrap();
        }
    }
    Ok(out)
}

/// `lcf simulate`.
pub fn simulate(args: &Args) -> Result<String, String> {
    args.reject_unknown("simulate", &[&["scheduler"], SIM_OPTS, TELEMETRY_OPTS])?;
    let name = args.get("scheduler").unwrap_or("lcf_central_rr");
    // `mwm` is both a weighted kind and a boolean registry kind —
    // `simulate` prefers the weighted (queue-length MWM) reading, which is
    // the meaningful simulation; the unit-weight reference stays reachable
    // via `sweep`.
    let model = WeightedKind::from_name(name)
        .map(ModelKind::Weighted)
        .or_else(|| ModelKind::from_name(name))
        .ok_or_else(|| format!("unknown scheduler/model `{name}`"))?;
    let cfg = sim_config(args, model)?;
    if wants_telemetry(args) {
        if let ModelKind::Weighted(_) = model {
            return Err("weighted schedulers record no decision traces; \
                 drop --trace/--metrics"
                .into());
        }
        let cap = args.get_parsed("trace-cap", 0usize)?;
        let (report, telemetry) = lcf_sim::runner::run_sim_traced(&cfg, cap);
        let mut out = report_block(&report);
        export_telemetry(args, &telemetry.trace, &telemetry.metrics, &mut out)?;
        return Ok(out);
    }
    let report = run_sim(&cfg);
    Ok(report_block(&report))
}

/// `lcf serve`: the long-lived sharded engine. One JSON snapshot line per
/// measurement window (merged across shards, byte-deterministic), the
/// final drain line, then a human summary.
pub fn serve(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "serve",
        &[
            &[
                "scheduler",
                "control",
                "shards",
                "window-slots",
                "snapshots",
                "drain-deadline",
                "occupancy-range",
            ],
            SIM_OPTS,
        ],
    )?;
    let name = args.get("scheduler").unwrap_or("lcf_central_rr");
    let model =
        ModelKind::from_name(name).ok_or_else(|| format!("unknown scheduler/model `{name}`"))?;
    let base = sim_config(args, model)?;
    let script = match args.get("control") {
        None => lcf_sim::serve::ControlScript::empty(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            lcf_sim::serve::ControlScript::parse(&text)?
        }
    };
    let defaults = lcf_sim::serve::ServeConfig::new(base);
    let cfg = lcf_sim::serve::ServeConfig {
        shards: args.get_parsed("shards", defaults.shards)?,
        window_slots: args.get_parsed("window-slots", defaults.window_slots)?,
        windows: args.get_parsed("snapshots", defaults.windows)?,
        drain_deadline_slots: args.get_parsed("drain-deadline", defaults.drain_deadline_slots)?,
        occupancy_range: args.get_parsed("occupancy-range", defaults.occupancy_range)?,
        script,
        ..defaults
    };
    let outcome = lcf_sim::serve::serve(&cfg)?;
    let mut out = String::new();
    for line in &outcome.snapshots {
        writeln!(out, "{line}").unwrap();
    }
    writeln!(out, "{}", outcome.drain_json).unwrap();
    writeln!(
        out,
        "serve          {} shards x {} windows x {} slots; drained={}",
        cfg.shards, outcome.windows_run, cfg.window_slots, outcome.drained
    )
    .unwrap();
    Ok(out)
}

/// `lcf sweep`.
pub fn sweep(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "sweep",
        &[
            &["loads", "schedulers", "replications"],
            SIM_OPTS,
            TELEMETRY_OPTS,
        ],
    )?;
    let loads = args
        .get_list::<f64>("loads")?
        .unwrap_or_else(|| vec![0.5, 0.8, 0.9, 0.95]);
    let models: Vec<ModelKind> = match args.get("schedulers") {
        None | Some("all") => ModelKind::figure12_lineup(),
        Some(list) => list
            .split(',')
            .map(|name| {
                ModelKind::from_name(name.trim())
                    .ok_or_else(|| format!("unknown scheduler `{name}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut configs = Vec::new();
    for model in &models {
        for &load in &loads {
            let mut cfg = sim_config(args, *model)?;
            cfg.load = load;
            cfg.validate()?;
            configs.push(cfg);
        }
    }
    let replications = args.get_parsed("replications", 1usize)?;
    if replications == 0 {
        return Err("--replications must be positive".into());
    }
    if replications > 1 {
        if wants_telemetry(args) {
            return Err("--replications does not combine with --trace/--metrics".into());
        }
        let reps: Vec<lcf_sim::runner::ReplicatedReport> = configs
            .iter()
            .map(|cfg| lcf_sim::runner::run_replicated(cfg, replications))
            .collect();
        return Ok(replicated_table(&models, &loads, &reps, replications));
    }
    if wants_telemetry(args) {
        return sweep_traced(args, &models, &loads, &configs);
    }
    let reports = lcf_sim::runner::sweep(&configs);
    Ok(sweep_table(&models, &loads, &reports))
}

fn replicated_table(
    models: &[ModelKind],
    loads: &[f64],
    reps: &[lcf_sim::runner::ReplicatedReport],
    replications: usize,
) -> String {
    let mut out = String::new();
    write!(out, "{:<16}", "model").unwrap();
    for load in loads {
        write!(out, " {load:>15}").unwrap();
    }
    out.push('\n');
    for (mi, model) in models.iter().enumerate() {
        write!(out, "{:<16}", model.name()).unwrap();
        for li in 0..loads.len() {
            let r = &reps[mi * loads.len() + li];
            write!(
                out,
                " {:>8.2}±{:<6.2}",
                r.mean_latency.mean, r.mean_latency.half_width
            )
            .unwrap();
        }
        out.push('\n');
    }
    writeln!(
        out,
        "(mean queueing delay in slots ± 95% CI, {replications} replications per point)"
    )
    .unwrap();
    out
}

fn sweep_table(models: &[ModelKind], loads: &[f64], reports: &[SimReport]) -> String {
    let mut out = String::new();
    write!(out, "{:<16}", "model").unwrap();
    for load in loads {
        write!(out, " {load:>9}").unwrap();
    }
    out.push('\n');
    for (mi, model) in models.iter().enumerate() {
        write!(out, "{:<16}", model.name()).unwrap();
        for li in 0..loads.len() {
            let r = &reports[mi * loads.len() + li];
            write!(out, " {:>9.2}", r.mean_latency()).unwrap();
        }
        out.push('\n');
    }
    out.push_str("(mean queueing delay in slots)\n");
    out
}

/// The traced sweep: same table, plus `--trace` (per-config traces
/// concatenated behind `sweep_config` marker events) and `--metrics`
/// (the batch's merged registry).
fn sweep_traced(
    args: &Args,
    models: &[ModelKind],
    loads: &[f64],
    configs: &[SimConfig],
) -> Result<String, String> {
    use lcf_telemetry::Event;

    // Sweeps cover many configs, so the per-config trace is bounded by
    // default — the metrics registry carries the aggregate story.
    let cap = args.get_parsed("trace-cap", 4096usize)?;
    let (outcomes, merged) = lcf_sim::runner::try_sweep_traced(configs, cap);
    let mut reports = Vec::with_capacity(outcomes.len());
    let mut telemetries = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (report, telemetry) = outcome.map_err(|e| e.to_string())?;
        reports.push(report);
        telemetries.push(telemetry);
    }

    let mut out = sweep_table(models, loads, &reports);
    if let Some(path) = args.get("trace") {
        let mut jsonl = String::new();
        let mut events = 0usize;
        for (idx, (report, telemetry)) in reports.iter().zip(&telemetries).enumerate() {
            let marker = Event::new(0, "sweep_config")
                .field("index", idx)
                .field("model", report.model.clone())
                .field("load", report.load);
            jsonl.push_str(&marker.to_json());
            jsonl.push('\n');
            jsonl.push_str(&telemetry.trace.to_jsonl());
            events += telemetry.trace.len();
        }
        std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "trace          {events} events across {} configs -> {path}",
            reports.len()
        )
        .unwrap();
    }
    if let Some(path) = args.get("metrics") {
        std::fs::write(path, merged.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "metrics        {} entries -> {}", merged.len(), path).unwrap();
    }
    Ok(out)
}

/// `lcf trace` — replay one seed and pretty-print the scheduler's
/// decisions. Small defaults (4 ports, 12 slots, no warm-up) keep the
/// output human-sized.
pub fn trace(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "trace",
        &[&[
            "scheduler",
            "ports",
            "load",
            "pattern",
            "iterations",
            "islip-iterations",
            "warmup",
            "slots",
            "seed",
            "backend",
        ]],
    )?;
    let name = args.get("scheduler").unwrap_or("lcf_central_rr");
    let model =
        ModelKind::from_name(name).ok_or_else(|| format!("unknown scheduler/model `{name}`"))?;
    if model == ModelKind::OutputBuffered {
        return Err("the output-buffered model has no scheduler to trace".into());
    }
    let n = args.get_parsed("ports", 4usize)?;
    let cfg = SimConfig {
        model,
        n,
        load: args.get_parsed("load", 0.85f64)?,
        pattern: parse_pattern(args, n)?,
        iterations: args.get_parsed("iterations", 4usize)?,
        islip_iterations: args.get_parsed("islip-iterations", 4usize)?,
        warmup_slots: args.get_parsed("warmup", 0u64)?,
        measure_slots: args.get_parsed("slots", 12u64)?,
        seed: args.get_parsed("seed", 0x601Du64)?,
        backend: match args.get("backend") {
            None => lcf_core::bitkern::Backend::default(),
            Some(b) => lcf_core::bitkern::Backend::from_name(b)
                .ok_or_else(|| format!("unknown backend `{b}` (want scalar|bitset)"))?,
        },
        ..SimConfig::paper_default()
    };
    cfg.validate()?;

    let (report, telemetry) = lcf_sim::runner::run_sim_traced(&cfg, 0);
    let mut out = String::new();
    writeln!(
        out,
        "{} decisions, {} ports, load {}, seed {} ({} slots):",
        report.model, report.n, report.load, report.seed, report.slots
    )
    .unwrap();
    for event in telemetry.trace.iter() {
        writeln!(out, "{}", pretty_event(event)).unwrap();
    }
    writeln!(
        out,
        "{} events; delivered {} of {} generated",
        telemetry.trace.len(),
        report.delivered,
        report.generated
    )
    .unwrap();
    Ok(out)
}

/// Renders one trace event as a human-readable line. Unknown kinds fall
/// back to their JSON form, so the printer never loses information.
fn pretty_event(e: &lcf_telemetry::Event) -> String {
    use lcf_telemetry::Value;
    let get = |name: &str| e.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
    let num = |name: &str| match get(name) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    };
    let pairs = |name: &str| -> String {
        let Some(Value::Seq(seq)) = get(name) else {
            return String::new();
        };
        seq.iter()
            .map(|p| match p {
                Value::Seq(ij) if ij.len() == 2 => {
                    format!("({},{})", ij[0].to_json(), ij[1].to_json())
                }
                other => other.to_json(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    match e.kind {
        "grant" => {
            let reason = match get("reason") {
                Some(Value::Str(s)) => s.as_str(),
                _ => "?",
            };
            let losers = pairs("losers");
            let beat = if losers.is_empty() {
                String::new()
            } else {
                format!("  beat (input,nrq): {losers}")
            };
            format!(
                "slot {:>4}  T{} <- I{}  {:<16} nrq {}{}",
                e.slot,
                num("output"),
                num("input"),
                reason,
                num("nrq"),
                beat
            )
        }
        "pre_grant" => format!(
            "slot {:>4}  T{} <- I{}  rr pre-grant",
            e.slot,
            num("output"),
            num("input")
        ),
        "iteration" => format!(
            "slot {:>4}  iter {}: requests {} | grants {} | accepts {}",
            e.slot,
            num("iter"),
            pairs("requests"),
            pairs("grants"),
            pairs("accepts")
        ),
        "drop_pq" => format!(
            "slot {:>4}  DROP input {} (dst {}) — packet queue full",
            e.slot,
            num("input"),
            num("dst")
        ),
        _ => format!("slot {:>4}  {}", e.slot, e.to_json()),
    }
}

/// `lcf hw`.
pub fn hw(args: &Args) -> Result<String, String> {
    args.reject_unknown("hw", &[&["ports", "clock-mhz"]])?;
    let n: usize = args.get_parsed("ports", 16usize)?;
    if n == 0 {
        return Err("--ports must be positive".into());
    }
    let clock_mhz: f64 = args.get_parsed("clock-mhz", 66.0f64)?;
    let gates = GateModel::new(n);
    let timing = TimingModel::new(n, clock_mhz * 1e6);
    let mut out = String::new();
    writeln!(out, "central LCF scheduler, n = {n}, clock {clock_mhz} MHz").unwrap();
    writeln!(
        out,
        "gates:      {} distributed ({} x {}) + {} central = {}",
        gates.distributed().gates,
        n,
        gates.slice().gates,
        gates.central().gates,
        gates.total().gates
    )
    .unwrap();
    writeln!(
        out,
        "registers:  {} distributed + {} central = {}",
        gates.distributed().regs,
        gates.central().regs,
        gates.total().regs
    )
    .unwrap();
    for t in timing.table2() {
        writeln!(
            out,
            "timing:     {:<24} {:>4} cycles  {:>8.0} ns",
            t.task, t.cycles, t.time_ns
        )
        .unwrap();
    }
    writeln!(
        out,
        "comm/cycle: central {} bits, distributed (4 iters) {} bits ({:.1}x)",
        comm::central_bits(n),
        comm::distributed_bits(n, 4),
        comm::overhead_ratio(n, 4)
    )
    .unwrap();
    Ok(out)
}

/// `lcf fabric`.
pub fn fabric(args: &Args) -> Result<String, String> {
    args.reject_unknown("fabric", &[&["ports"]])?;
    let n: usize = args.get_parsed("ports", 64usize)?;
    if n < 2 {
        return Err("--ports must be at least 2".into());
    }
    let mut out = String::new();
    writeln!(out, "{n}-port fabrics:").unwrap();
    writeln!(out, "  crossbar: {} crosspoints", n * n).unwrap();
    match optimal_clos(n) {
        Some(best) => {
            writeln!(
                out,
                "  best rearrangeable Clos: C({}, {}, {}) = {} crosspoints ({:.2}x saving)",
                best.m,
                best.k,
                best.r,
                best.crosspoints(),
                (n * n) as f64 / best.crosspoints() as f64
            )
            .unwrap();
            let strict = ClosNetwork::new(2 * best.k - 1, best.k, best.r);
            writeln!(
                out,
                "  strictly non-blocking:  C({}, {}, {}) = {} crosspoints",
                strict.m,
                strict.k,
                strict.r,
                strict.crosspoints()
            )
            .unwrap();
        }
        None => writeln!(out, "  no 3-stage Clos beats the crossbar at this size").unwrap(),
    }
    Ok(out)
}

/// `lcf clint`.
pub fn clint(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "clint",
        &[&[
            "hosts",
            "bulk-load",
            "quick-load",
            "error-rate",
            "gnt-error-rate",
            "slots",
            "seed",
        ]],
    )?;
    let cfg = lcf_clint::sim::ClintConfig {
        n: args.get_parsed("hosts", 16usize)?,
        bulk_load: args.get_parsed("bulk-load", 0.6f64)?,
        quick_load: args.get_parsed("quick-load", 0.1f64)?,
        cfg_error_rate: args.get_parsed("error-rate", 0.0f64)?,
        gnt_error_rate: args.get_parsed("gnt-error-rate", 0.0f64)?,
        slots: args.get_parsed("slots", 20_000u64)?,
        seed: args.get_parsed("seed", 0xC11A7u64)?,
    };
    if cfg.n == 0 || cfg.n > 16 {
        return Err("--hosts must be 1..=16".into());
    }
    let r = lcf_clint::sim::ClintSim::new(cfg.clone()).run();
    Ok(format!(
        "clint: {} hosts, {} slots, bulk load {}, quick load {}, cfg error rate {}\n\
         bulk:  generated {}, delivered {}, mean delay {:.2} slots, acks {}\n\
         quick: generated {}, delivered {}, mean delay {:.2} slots, collisions {}\n\
         control plane: {} config packets rejected by CRC\n",
        cfg.n,
        cfg.slots,
        cfg.bulk_load,
        cfg.quick_load,
        cfg.cfg_error_rate,
        r.bulk_generated,
        r.bulk_delivered,
        r.bulk_mean_latency,
        r.acks_received,
        r.quick_generated,
        r.quick_delivered,
        r.quick_mean_latency,
        r.quick_collisions,
        r.cfg_crc_errors
    ))
}

/// `lcf reliable`.
pub fn reliable(args: &Args) -> Result<String, String> {
    args.reject_unknown(
        "reliable",
        &[&[
            "loss",
            "hosts",
            "load",
            "breq-loss",
            "back-loss",
            "timeout",
            "slots",
            "seed",
        ]],
    )?;
    let loss = args.get_parsed("loss", 0.1f64)?;
    let cfg = lcf_clint::reliable::ReliableConfig {
        n: args.get_parsed("hosts", 16usize)?,
        offered_load: args.get_parsed("load", 0.3f64)?,
        breq_loss: args.get_parsed("breq-loss", loss)?,
        back_loss: args.get_parsed("back-loss", loss)?,
        timeout: args.get_parsed("timeout", 16u64)?,
        slots: args.get_parsed("slots", 20_000u64)?,
        seed: args.get_parsed("seed", 0x5EC5u64)?,
    };
    if cfg.n == 0 || cfg.n > 16 {
        return Err("--hosts must be 1..=16".into());
    }
    let r = lcf_clint::reliable::ReliableSim::new(cfg.clone()).run();
    Ok(format!(
        "reliable transfers: {} hosts, {} slots, load {}, breq loss {}, ack loss {}\n\
         enqueued {}   delivered (unique) {}   completed {}\n\
         duplicates suppressed {}   retransmissions {}   in flight at end {}\n\
         mean delivery latency {:.2} slots\n",
        cfg.n,
        cfg.slots,
        cfg.offered_load,
        cfg.breq_loss,
        cfg.back_loss,
        r.enqueued,
        r.delivered_unique,
        r.completed,
        r.duplicates_suppressed,
        r.retransmissions,
        r.in_flight_at_end,
        r.mean_delivery_latency
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn schedule_figure3() {
        let args = parse(&[
            "--n",
            "4",
            "--requests",
            "0:1,2;1:0,2,3;2:0,2,3;3:1",
            "--scheduler",
            "lcf_central_rr",
        ]);
        let out = schedule(&args).unwrap();
        // Fresh pointer state (I = 0, J = 0): the Fig. 3 matrix schedules
        // T0 -> I1, T1 -> I3, T2 -> I2 (round-robin position), T3 unmatched.
        assert!(out.contains("3 connections"), "{out}");
        assert!(out.contains("I1 -> T0"), "{out}");
        assert!(out.contains("I3 -> T1"), "{out}");
    }

    #[test]
    fn schedule_rejects_unknown_scheduler() {
        let args = parse(&["--requests", "0:1", "--scheduler", "magic"]);
        assert!(schedule(&args).unwrap_err().contains("magic"));
    }

    #[test]
    fn simulate_produces_report() {
        let args = parse(&[
            "--scheduler",
            "islip",
            "--load",
            "0.5",
            "--ports",
            "8",
            "--slots",
            "5000",
            "--warmup",
            "1000",
        ]);
        let out = simulate(&args).unwrap();
        assert!(out.contains("model          islip"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn simulate_outbuf_model() {
        let args = parse(&[
            "--scheduler",
            "outbuf",
            "--load",
            "0.5",
            "--ports",
            "8",
            "--slots",
            "3000",
            "--warmup",
            "500",
        ]);
        assert!(simulate(&args).unwrap().contains("outbuf"));
    }

    #[test]
    fn sweep_renders_table() {
        let args = parse(&[
            "--loads",
            "0.3,0.6",
            "--schedulers",
            "lcf_central,pim",
            "--ports",
            "8",
            "--slots",
            "3000",
            "--warmup",
            "500",
        ]);
        let out = sweep(&args).unwrap();
        assert!(out.contains("lcf_central"));
        assert!(out.contains("pim"));
    }

    #[test]
    fn sweep_with_replications_renders_cis() {
        let args = parse(&[
            "--loads",
            "0.5",
            "--schedulers",
            "lcf_central",
            "--ports",
            "8",
            "--slots",
            "2000",
            "--warmup",
            "500",
            "--replications",
            "3",
            "--fast",
        ]);
        let out = sweep(&args).unwrap();
        assert!(out.contains('±'), "{out}");
        assert!(out.contains("3 replications"), "{out}");
        let bad = parse(&["--replications", "0"]);
        assert!(sweep(&bad).unwrap_err().contains("replications"));
    }

    #[test]
    fn fast_flag_selects_fast_generators() {
        let args = parse(&["--fast"]);
        let cfg = sim_config(&args, ModelKind::Scheduler(SchedulerKind::LcfCentral)).unwrap();
        assert_eq!(cfg.traffic, TrafficKind::FastBernoulli);
        let args = parse(&["--fast", "--bursty", "8"]);
        let cfg = sim_config(&args, ModelKind::Scheduler(SchedulerKind::LcfCentral)).unwrap();
        assert_eq!(cfg.traffic, TrafficKind::FastBursty { mean_burst: 8.0 });
        let args = parse(&[]);
        let cfg = sim_config(&args, ModelKind::Scheduler(SchedulerKind::LcfCentral)).unwrap();
        assert_eq!(cfg.traffic, TrafficKind::Bernoulli);
    }

    #[test]
    fn hw_summary_n16() {
        let out = hw(&parse(&[])).unwrap();
        assert!(out.contains("7967"));
        assert!(out.contains("1258"));
    }

    #[test]
    fn fabric_summary() {
        let out = fabric(&parse(&["--ports", "64"])).unwrap();
        assert!(out.contains("4096 crosspoints"));
        assert!(out.contains("Clos"));
    }

    #[test]
    fn clint_summary() {
        let out = clint(&parse(&["--slots", "2000", "--hosts", "8"])).unwrap();
        assert!(out.contains("bulk:"));
        assert!(out.contains("quick:"));
    }

    #[test]
    fn pattern_parsing() {
        let args = parse(&["--pattern", "hotspot:3:0.25"]);
        assert_eq!(
            parse_pattern(&args, 8).unwrap(),
            DestPattern::Hotspot {
                hot: 3,
                fraction: 0.25
            }
        );
        let bad = parse(&["--pattern", "hotspot:99:0.25"]);
        assert!(parse_pattern(&bad, 8).is_err());
        let unknown = parse(&["--pattern", "zipf"]);
        assert!(parse_pattern(&unknown, 8).is_err());
    }

    #[test]
    fn simulate_weighted_schedulers() {
        for name in ["lqf", "ocf", "mwm", "nwgreedy"] {
            let args = parse(&[
                "--scheduler",
                name,
                "--load",
                "0.6",
                "--ports",
                "8",
                "--slots",
                "3000",
                "--warmup",
                "500",
            ]);
            let out = simulate(&args).unwrap();
            assert!(out.contains(&format!("model          {name}")), "{out}");
            assert!(out.contains("throughput"));
        }
    }

    #[test]
    fn simulate_weighted_rejects_telemetry_flags() {
        let args = parse(&[
            "--scheduler",
            "mwm",
            "--slots",
            "100",
            "--trace",
            "/tmp/never_written.jsonl",
        ]);
        let err = simulate(&args).unwrap_err();
        assert!(err.contains("no decision traces"), "{err}");
    }

    #[test]
    fn reliable_summary() {
        let out = reliable(&parse(&[
            "--loss", "0.05", "--slots", "2000", "--hosts", "8",
        ]))
        .unwrap();
        assert!(out.contains("retransmissions"));
        assert!(out.contains("delivered (unique)"));
    }

    #[test]
    fn trace_pretty_prints_decisions() {
        let out = trace(&parse(&["--slots", "6", "--seed", "7"])).unwrap();
        assert!(out.contains("lcf_central_rr decisions"), "{out}");
        // At least one grant line with a spelled-out reason.
        assert!(
            ["only_choice", "rr_position", "min_count", "tie_break"]
                .iter()
                .any(|r| out.contains(r)),
            "{out}"
        );
        assert!(out.contains("events; delivered"), "{out}");
        // Iterative schedulers print per-iteration request/grant/accept sets.
        let islip = trace(&parse(&["--scheduler", "islip", "--slots", "4"])).unwrap();
        assert!(islip.contains("iter 0:"), "{islip}");
        assert!(islip.contains("accepts"), "{islip}");
    }

    #[test]
    fn simulate_exports_trace_and_metrics() {
        let dir = std::env::temp_dir();
        let tp = dir.join("lcf_cli_test_trace.jsonl");
        let mp = dir.join("lcf_cli_test_metrics.json");
        let args = parse(&[
            "--scheduler",
            "lcf_central_rr",
            "--load",
            "0.5",
            "--ports",
            "4",
            "--slots",
            "200",
            "--warmup",
            "50",
            "--trace",
            tp.to_str().unwrap(),
            "--metrics",
            mp.to_str().unwrap(),
        ]);
        let out = simulate(&args).unwrap();
        assert!(out.contains("trace "), "{out}");
        assert!(out.contains("metrics "), "{out}");
        let trace = std::fs::read_to_string(&tp).unwrap();
        assert!(!trace.is_empty());
        assert!(
            trace.lines().all(|l| l.starts_with("{\"slot\":")),
            "bad JSONL"
        );
        let metrics = std::fs::read_to_string(&mp).unwrap();
        assert!(metrics.contains("\"sim.slots\":200"), "{metrics}");
        let _ = std::fs::remove_file(&tp);
        let _ = std::fs::remove_file(&mp);
    }

    #[test]
    fn serve_emits_deterministic_snapshots_and_drain() {
        let argv = [
            "--scheduler",
            "lcf_central_rr",
            "--ports",
            "4",
            "--load",
            "0.6",
            "--warmup",
            "200",
            "--shards",
            "2",
            "--window-slots",
            "250",
            "--snapshots",
            "2",
        ];
        let out = serve(&parse(&argv)).unwrap();
        assert!(out.contains("{\"window\":0,"), "{out}");
        assert!(out.contains("{\"window\":1,"), "{out}");
        assert!(out.contains("\"drain\":"), "{out}");
        assert!(out.contains("drained=true"), "{out}");
        let again = serve(&parse(&argv)).unwrap();
        assert_eq!(out, again, "serve output must be run-to-run deterministic");
    }

    #[test]
    fn serve_applies_control_script() {
        let dir = std::env::temp_dir();
        let script = dir.join("lcf_cli_test_serve_control.txt");
        std::fs::write(&script, "at 1 scheduler islip\nat 1 load 0.3\n").unwrap();
        let out = serve(&parse(&[
            "--scheduler",
            "lcf_central_rr",
            "--ports",
            "4",
            "--load",
            "0.6",
            "--warmup",
            "100",
            "--shards",
            "2",
            "--window-slots",
            "200",
            "--snapshots",
            "2",
            "--control",
            script.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&script);
        assert!(out.contains("{\"window\":1,"), "{out}");
        assert!(out.contains("drained=true"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_control_script() {
        let dir = std::env::temp_dir();
        let script = dir.join("lcf_cli_test_serve_bad_control.txt");
        std::fs::write(&script, "at 1 scheduler nope\n").unwrap();
        let err = serve(&parse(&["--control", script.to_str().unwrap()])).unwrap_err();
        let _ = std::fs::remove_file(&script);
        assert!(err.contains("unknown scheduler"), "{err}");
    }

    #[test]
    fn stray_options_are_rejected_by_name() {
        let err = serve(&parse(&["--shard", "4"])).unwrap_err();
        assert!(
            err.contains("`--shard`") && err.contains("lcf serve"),
            "{err}"
        );
        let err = simulate(&parse(&["--lod", "0.5"])).unwrap_err();
        assert!(
            err.contains("`--lod`") && err.contains("lcf simulate"),
            "{err}"
        );
        let err =
            crate::run(&["hw".to_string(), "--port".to_string(), "8".to_string()]).unwrap_err();
        assert!(err.contains("`--port`"), "{err}");
    }

    #[test]
    fn run_dispatches() {
        let out = crate::run(&["help".to_string()]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(crate::run(&["frobnicate".to_string()]).is_err());
        assert!(crate::run(&[]).unwrap().contains("USAGE"));
    }
}
