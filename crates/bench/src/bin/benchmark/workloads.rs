//! The six benchmark workloads and how their switches are built.
//!
//! Every workload is a closed loop: the program steps slots as fast as it
//! can, in windows of `window` slots through `DriveSession::step_window`.
//! All start from `SimConfig::paper_default()` (VOQ cap 256, PQ cap 1000,
//! 4 iterations, bitset backend, uniform destinations) and override only
//! what the table in README.md lists.

#![forbid(unsafe_code)]

use lcf_core::bitkern::Backend;
use lcf_core::registry::SchedulerKind;
use lcf_sim::config::{ModelKind, SimConfig, TrafficKind};
use lcf_sim::model::SwitchModel;
use lcf_sim::runner::SimRng;
use lcf_sim::session::DriveSession;
use lcf_sim::switch::{IqSwitch, QueueMode};
use lcf_sim::traffic::{Bernoulli, FastBernoulli, Traffic};
use rand::SeedableRng;

/// Batch workloads step one session on the caller's thread; `Serve` runs
/// `serve_with` with that many shard threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Batch,
    Serve { shards: usize },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    pub engine: Engine,
    pub kind: SchedulerKind,
    pub n: usize,
    pub load: f64,
    pub traffic: TrafficKind,
    /// Warm-up slots before the first measured slot.
    pub warmup: u64,
    /// Slots per measured window (per shard for `serve2`).
    pub window: u64,
}

/// Drain deadline of the `serve2` workload, in slots per shard.
pub const SERVE_DRAIN_DEADLINE: u64 = 50_000;
/// Bucket range of the serve occupancy histograms (the serve default).
pub const OCCUPANCY_RANGE: usize = 4_096;

pub fn all() -> Vec<Workload> {
    let fast = TrafficKind::FastBernoulli;
    vec![
        Workload {
            name: "heavy32",
            why: "Heavy traffic (rho=0.99) at n=32: deep queues and a dense request matrix on the single-word central LCF kernel.",
            engine: Engine::Batch,
            kind: SchedulerKind::LcfCentralRr,
            n: 32,
            load: 0.99,
            traffic: fast.clone(),
            warmup: 50_000,
            window: 10_000,
        },
        Workload {
            name: "wide256",
            why: "Multi-word central LCF at n=256 (rho=0.9): the schedule and the O(n) PQ-to-VOQ spill dominate the slot.",
            engine: Engine::Batch,
            kind: SchedulerKind::LcfCentralRr,
            n: 256,
            load: 0.9,
            traffic: fast.clone(),
            warmup: 5_000,
            window: 1_000,
        },
        Workload {
            name: "islip256",
            why: "iSLIP twin of wide256: every layer shared except the LCF kernel, so an LCF-kernel change must leave it unchanged.",
            engine: Engine::Batch,
            kind: SchedulerKind::Islip,
            n: 256,
            load: 0.9,
            traffic: fast.clone(),
            warmup: 5_000,
            window: 1_000,
        },
        Workload {
            name: "dist32",
            why: "Distributed LCF (paper Sec. 5) at n=32, rho=0.9: no word-parallel kernel, so schedule_into is nearly the whole slot.",
            engine: Engine::Batch,
            kind: SchedulerKind::LcfDistRr,
            n: 32,
            load: 0.9,
            traffic: fast.clone(),
            warmup: 10_000,
            window: 2_000,
        },
        Workload {
            name: "paper16",
            why: "The paper's Fig. 12 point (paper_default: lcf_central, n=16, legacy Bernoulli rho=0.5): cheap sparse slots guard per-slot overheads.",
            engine: Engine::Batch,
            kind: SchedulerKind::LcfCentral,
            n: 16,
            load: 0.5,
            traffic: TrafficKind::Bernoulli,
            warmup: 20_000,
            window: 20_000,
        },
        Workload {
            name: "serve2",
            why: "lcf serve with 2 shards on heavy32's switch: window barrier, channel, merge, JSON and the O(n^2) occupancy sampler.",
            engine: Engine::Serve { shards: 2 },
            kind: SchedulerKind::LcfCentralRr,
            n: 32,
            load: 0.99,
            traffic: fast,
            warmup: 50_000,
            window: 10_000,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Cuts every length by `factor` (the `--quick` smoke run).
    pub fn scaled(mut self, factor: u64) -> Workload {
        self.warmup = (self.warmup / factor).max(1);
        self.window = (self.window / factor).max(1);
        self
    }

    pub fn shards(&self) -> usize {
        match self.engine {
            Engine::Batch => 1,
            Engine::Serve { shards } => shards,
        }
    }

    /// The simulation config for `seed` on `backend`.
    pub fn config(&self, seed: u64, backend: Backend) -> SimConfig {
        SimConfig {
            model: ModelKind::Scheduler(self.kind),
            n: self.n,
            load: self.load,
            traffic: self.traffic.clone(),
            warmup_slots: self.warmup,
            seed,
            backend,
            ..SimConfig::paper_default()
        }
    }

    /// A one-line description of the configuration.
    pub fn describe(&self) -> String {
        let traffic = match self.traffic {
            TrafficKind::FastBernoulli => "FastBernoulli",
            TrafficKind::Bernoulli => "Bernoulli",
            _ => "other",
        };
        format!(
            "{} n={} {} load={} warm-up={} W={}{}",
            self.kind.name(),
            self.n,
            traffic,
            self.load,
            self.warmup,
            self.window,
            match self.engine {
                Engine::Batch => String::new(),
                Engine::Serve { shards } => format!(" shards={shards}"),
            }
        )
    }
}

/// The owned session type every batch workload steps.
pub type Session = DriveSession<Box<dyn SwitchModel>, Box<dyn Traffic>, SimRng>;

/// The scheduler exactly as the simulator's runner builds it for `cfg`
/// (same iteration budget and `seed ^ 0x5EED` derivation).
pub fn scheduler(cfg: &SimConfig) -> Box<dyn lcf_core::traits::Scheduler + Send> {
    let ModelKind::Scheduler(kind) = cfg.model else {
        unreachable!("benchmark workloads are scheduler models")
    };
    kind.build_with_backend(
        cfg.n,
        cfg.iterations_for_model(),
        cfg.seed ^ 0x5EED,
        cfg.backend,
    )
    .0
}

/// The traffic generator exactly as the simulator's runner builds it.
pub fn traffic(cfg: &SimConfig) -> Box<dyn Traffic> {
    match cfg.traffic {
        TrafficKind::FastBernoulli => {
            Box::new(FastBernoulli::new(cfg.n, cfg.load, cfg.pattern.clone()))
        }
        TrafficKind::Bernoulli => Box::new(Bernoulli::new(cfg.n, cfg.load, cfg.pattern.clone())),
        ref other => unreachable!("no benchmark workload uses {other:?}"),
    }
}

/// A fresh session at slot 0 for `cfg`, built from public calls the way
/// `run_sim` and `serve` build theirs.
pub fn session(cfg: &SimConfig) -> Session {
    let model: Box<dyn SwitchModel> = Box::new(IqSwitch::new(
        cfg.n,
        scheduler(cfg),
        QueueMode::Voq { cap: cfg.voq_cap },
        cfg.pq_cap,
    ));
    DriveSession::new(
        model,
        traffic(cfg),
        SimRng::seed_from_u64(cfg.seed),
        cfg.max_latency_bucket,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_paper16_is_paper_default() {
        let all = all();
        assert_eq!(all.len(), 6);
        for (i, w) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let paper = by_name("paper16").unwrap().config(7, Backend::Bitset);
        assert_eq!(
            paper,
            SimConfig {
                seed: 7,
                ..SimConfig::paper_default()
            }
        );
    }
}
