//! Simulation configuration.

use crate::traffic::DestPattern;
use lcf_core::bitkern::Backend;
use lcf_core::registry::{SchedulerKind, WeightedKind};

/// Which switch architecture / scheduler a simulation models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Input-queued switch driven by the given scheduler. `fifo` implies the
    /// single-FIFO queue mode; everything else uses VOQs.
    Scheduler(SchedulerKind),
    /// Input-queued VOQ switch driven by a weighted scheduler: queue-length
    /// or head-of-line-age weights per [`WeightedKind::age_weighted`]. Not a
    /// Fig. 12 curve; the reference tier the paper's schedulers are ranked
    /// against.
    Weighted(WeightedKind),
    /// Output-buffered switch (`outbuf` in Fig. 12) — no scheduler at all.
    OutputBuffered,
}

impl ModelKind {
    /// The curve label used in the paper's Fig. 12 legend (for a weighted
    /// model, its experiment-output name).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Scheduler(kind) => kind.name(),
            ModelKind::Weighted(kind) => kind.name(),
            ModelKind::OutputBuffered => "outbuf",
        }
    }

    /// Parses a Fig. 12 legend name. Weighted names are not parsed here:
    /// `mwm` is also the boolean reference matcher, which this returns.
    pub fn from_name(name: &str) -> Option<ModelKind> {
        if name == "outbuf" {
            Some(ModelKind::OutputBuffered)
        } else {
            SchedulerKind::from_name(name).map(ModelKind::Scheduler)
        }
    }

    /// The nine curves of Fig. 12, in legend order.
    pub fn figure12_lineup() -> Vec<ModelKind> {
        vec![
            ModelKind::Scheduler(SchedulerKind::LcfCentral),
            ModelKind::Scheduler(SchedulerKind::LcfCentralRr),
            ModelKind::Scheduler(SchedulerKind::LcfDistRr),
            ModelKind::Scheduler(SchedulerKind::LcfDist),
            ModelKind::Scheduler(SchedulerKind::Pim),
            ModelKind::Scheduler(SchedulerKind::Islip),
            ModelKind::Scheduler(SchedulerKind::Wavefront),
            ModelKind::Scheduler(SchedulerKind::Fifo),
            ModelKind::OutputBuffered,
        ]
    }
}

/// The arrival process.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficKind {
    /// Independent Bernoulli arrivals (the paper's workload). The legacy
    /// generator whose RNG stream the golden trace fixture freezes.
    Bernoulli,
    /// On-off bursty arrivals with the given mean burst length (legacy
    /// generator, frozen stream).
    Bursty {
        /// Mean number of back-to-back packets per burst.
        mean_burst: f64,
    },
    /// Bernoulli arrivals via the word-granularity fast kernels
    /// ([`crate::traffic::FastBernoulli`]): same distribution as
    /// [`TrafficKind::Bernoulli`], a different RNG stream, ~4× less RNG
    /// work — the heavy-traffic workhorse.
    FastBernoulli,
    /// On-off bursty arrivals via the fast kernels
    /// ([`crate::traffic::FastBursty`]): same process as
    /// [`TrafficKind::Bursty`], different stream.
    FastBursty {
        /// Mean number of back-to-back packets per burst.
        mean_burst: f64,
    },
}

impl TrafficKind {
    /// Whether this is one of the fast word-granularity generators (as
    /// opposed to the legacy, golden-trace-frozen family).
    pub fn is_fast(&self) -> bool {
        matches!(
            self,
            TrafficKind::FastBernoulli | TrafficKind::FastBursty { .. }
        )
    }
}

/// Full description of one simulation run.
///
/// [`SimConfig::paper_default`] reproduces the parameters of the paper's
/// Fig. 12 experiment: a 16-port switch, 256-entry VOQs, a 1000-entry PQ per
/// input, 4 iterations for the iterative schedulers and 256-entry output
/// buffers for `outbuf`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Switch architecture / scheduler under test.
    pub model: ModelKind,
    /// Number of switch ports.
    pub n: usize,
    /// Offered load per input in packets/slot (probability of generation).
    pub load: f64,
    /// Destination distribution.
    pub pattern: DestPattern,
    /// Arrival process.
    pub traffic: TrafficKind,
    /// Packet queue capacity per input (PQ in Fig. 11).
    pub pq_cap: usize,
    /// Capacity of each virtual output queue (or of the single input FIFO
    /// in `fifo` mode).
    pub voq_cap: usize,
    /// Capacity of each output buffer (`outbuf` model only).
    pub outbuf_cap: usize,
    /// Iteration budget for `pim`, `lcf_dist`, `lcf_dist_rr`.
    pub iterations: usize,
    /// Iteration budget for `islip`. The paper pins the other iterative
    /// schedulers to 4 and is silent on iSLIP, but its observation that
    /// "islip and wfront seem to be similar in performance" only reproduces
    /// with a multi-iteration iSLIP, so the default is also 4. (With 1
    /// iteration iSLIP's non-maximal matchings push its curve far above
    /// wfront.)
    pub islip_iterations: usize,
    /// Slots simulated before measurement starts (queue warm-up).
    pub warmup_slots: u64,
    /// Slots over which statistics are collected.
    pub measure_slots: u64,
    /// RNG seed; a run is fully deterministic given its config.
    pub seed: u64,
    /// Latency histogram range (values above land in the overflow bucket).
    pub max_latency_bucket: usize,
    /// Matching-kernel backend for the schedulers that have a word-parallel
    /// fast path. Both backends produce bit-identical runs; `Scalar` exists
    /// as the reference implementation and for differential testing.
    pub backend: Backend,
}

impl SimConfig {
    /// The Fig. 12 parameter set (Sec. 6.3 of the paper).
    pub fn paper_default() -> Self {
        SimConfig {
            model: ModelKind::Scheduler(SchedulerKind::LcfCentral),
            n: 16,
            load: 0.5,
            pattern: DestPattern::Uniform,
            traffic: TrafficKind::Bernoulli,
            pq_cap: 1000,
            voq_cap: 256,
            outbuf_cap: 256,
            iterations: 4,
            islip_iterations: 4,
            warmup_slots: 20_000,
            measure_slots: 100_000,
            seed: 0x1C_F2002,
            max_latency_bucket: 4096,
            backend: Backend::default(),
        }
    }

    /// Iteration budget for the scheduler this config selects.
    pub fn iterations_for_model(&self) -> usize {
        match self.model {
            ModelKind::Scheduler(SchedulerKind::Islip) => self.islip_iterations,
            _ => self.iterations,
        }
    }

    /// Validates parameter ranges; called by the runner before building.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.load) {
            return Err(format!("load {} outside [0,1]", self.load));
        }
        for (field, cap) in [
            ("pq_cap", self.pq_cap),
            ("voq_cap", self.voq_cap),
            ("outbuf_cap", self.outbuf_cap),
        ] {
            if cap == 0 {
                return Err(format!("{field} must be positive"));
            }
        }
        if crate::queues::slab_cells(self.n, self.voq_cap).is_none() {
            return Err(format!(
                "voq_cap {} too large: n = {} VOQs of that capacity exceed the \
                 u32 cell index of an input's shared buffer",
                self.voq_cap, self.n
            ));
        }
        if self.iterations == 0 || self.islip_iterations == 0 {
            return Err("iteration budgets must be positive".into());
        }
        if self.measure_slots == 0 {
            return Err("measure_slots must be positive".into());
        }
        if let TrafficKind::Bursty { mean_burst } | TrafficKind::FastBursty { mean_burst } =
            &self.traffic
        {
            // NaN must fail too, hence not `< 1.0` alone.
            if *mean_burst < 1.0 || mean_burst.is_nan() {
                return Err(format!("mean burst length {mean_burst} must be >= 1"));
            }
        }
        if let DestPattern::Permutation(p) = &self.pattern {
            if p.len() != self.n || p.iter().any(|&d| d >= self.n) {
                return Err("permutation pattern malformed".into());
            }
        }
        if let DestPattern::Hotspot { hot, fraction } = &self.pattern {
            if *hot >= self.n || !(0.0..=1.0).contains(fraction) {
                return Err("hotspot pattern malformed".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6_3() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.n, 16);
        assert_eq!(cfg.pq_cap, 1000);
        assert_eq!(cfg.voq_cap, 256);
        assert_eq!(cfg.outbuf_cap, 256);
        assert_eq!(cfg.iterations, 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn paper_default_keeps_the_legacy_generator() {
        // The golden trace fixture (`tests/fixtures/golden_trace_n4.jsonl`)
        // and `golden_determinism_contract` freeze the legacy Bernoulli RNG
        // stream. Switching `paper_default` to a fast generator would
        // silently re-bless both — that must be an explicit, reviewed
        // change, so the default is pinned here.
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.traffic, TrafficKind::Bernoulli);
        assert!(!cfg.traffic.is_fast());
        assert!(TrafficKind::FastBernoulli.is_fast());
        assert!(TrafficKind::FastBursty { mean_burst: 4.0 }.is_fast());
        assert!(!TrafficKind::Bursty { mean_burst: 4.0 }.is_fast());
    }

    #[test]
    fn model_names_roundtrip() {
        for model in ModelKind::figure12_lineup() {
            assert_eq!(ModelKind::from_name(model.name()), Some(model));
        }
        assert_eq!(ModelKind::from_name("nonsense"), None);
        // A weighted model keeps its kind's name, but `mwm` parses to the
        // boolean reference matcher.
        assert_eq!(ModelKind::Weighted(WeightedKind::Mwm).name(), "mwm");
        assert_eq!(
            ModelKind::from_name("mwm"),
            Some(ModelKind::Scheduler(SchedulerKind::MaxWeight))
        );
    }

    #[test]
    fn figure12_lineup_has_nine_curves() {
        assert_eq!(ModelKind::figure12_lineup().len(), 9);
    }

    #[test]
    fn islip_gets_its_own_iteration_budget() {
        let mut cfg = SimConfig::paper_default();
        cfg.model = ModelKind::Scheduler(SchedulerKind::Islip);
        cfg.islip_iterations = 1;
        assert_eq!(cfg.iterations_for_model(), 1);
        cfg.model = ModelKind::Scheduler(SchedulerKind::Pim);
        assert_eq!(cfg.iterations_for_model(), 4);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SimConfig::paper_default();
        cfg.load = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.pattern = DestPattern::Permutation(vec![0, 1]); // wrong length
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.pattern = DestPattern::Hotspot {
            hot: 99,
            fraction: 0.5,
        };
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_default();
        cfg.measure_slots = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_capacity_error_names_the_field() {
        for field in ["pq_cap", "voq_cap", "outbuf_cap"] {
            let mut cfg = SimConfig::paper_default();
            match field {
                "pq_cap" => cfg.pq_cap = 0,
                "voq_cap" => cfg.voq_cap = 0,
                _ => cfg.outbuf_cap = 0,
            }
            let err = cfg.validate().unwrap_err();
            assert_eq!(err, format!("{field} must be positive"));
        }
    }

    #[test]
    fn unindexable_voq_cap_is_rejected_naming_the_field() {
        let mut cfg = SimConfig::paper_default();
        cfg.voq_cap = usize::MAX;
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("voq_cap "), "{err}");
        assert!(err.contains("n = 16"), "{err}");

        // n x voq_cap just past the u32 index range fails; at it, passes.
        let limit = u32::MAX as usize;
        cfg.n = 1;
        cfg.voq_cap = limit + 1;
        assert!(cfg.validate().unwrap_err().starts_with("voq_cap "));
        cfg.voq_cap = limit;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.n = 65_536;
        cfg.voq_cap = 65_536;
        assert!(cfg.validate().unwrap_err().starts_with("voq_cap "));
    }
}
