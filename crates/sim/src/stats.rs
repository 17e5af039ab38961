//! Measurement plumbing: latency accumulators, histograms and fairness.
//!
//! The latency histogram is the shared [`lcf_telemetry::Histogram`] —
//! overflow-explicit and mergeable — re-exported here so existing call
//! sites keep working.

pub use lcf_telemetry::hist::{CdfPoint, Histogram, Quantile, RangeMismatch};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Per-flow FIFO ordering checker.
///
/// A correct input-queued switch must deliver packets of the same
/// `(input, output)` flow in generation order — VOQs and PQs are FIFOs, so
/// any reordering means a queueing bug. Feed every delivery to
/// [`check`](FlowOrderChecker::check); it returns `false` (and remembers)
/// on the first violation.
#[derive(Clone, Debug)]
pub struct FlowOrderChecker {
    n: usize,
    last_generated: Vec<Option<u64>>,
    violations: u64,
}

impl FlowOrderChecker {
    /// Creates a checker for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        FlowOrderChecker {
            n,
            last_generated: vec![None; n * n],
            violations: 0,
        }
    }

    /// Records a delivery; returns `true` if per-flow order still holds.
    pub fn check(&mut self, p: &crate::packet::Packet) -> bool {
        let idx = p.src_idx() * self.n + p.dst_idx();
        let ok = self.last_generated[idx].is_none_or(|prev| p.generated_at >= prev);
        if !ok {
            self.violations += 1;
        }
        self.last_generated[idx] = Some(p.generated_at);
        ok
    }

    /// Number of out-of-order deliveries observed.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// Per-(input, output) delivery counts for fairness analysis.
#[derive(Clone, Debug)]
pub struct ServiceMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ServiceMatrix {
    /// Creates an `n × n` zeroed count matrix.
    pub fn new(n: usize) -> Self {
        ServiceMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Records a delivery from `input` to `output`.
    pub fn record(&mut self, input: usize, output: usize) {
        self.counts[input * self.n + output] += 1;
    }

    /// Deliveries from `input` to `output`.
    pub fn get(&self, input: usize, output: usize) -> u64 {
        self.counts[input * self.n + output]
    }

    /// Total deliveries.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total deliveries per input port.
    pub fn per_input(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| self.counts[i * self.n..(i + 1) * self.n].iter().sum())
            .collect()
    }

    /// Jain's fairness index over the per-input totals: 1 is perfectly fair,
    /// `1/n` is maximally unfair. Only meaningful when inputs offer equal
    /// load.
    pub fn jain_index(&self) -> f64 {
        let per_input = self.per_input();
        let sum: f64 = per_input.iter().map(|&x| x as f64).sum();
        if sum == 0.0 {
            return 1.0;
        }
        let sum_sq: f64 = per_input.iter().map(|&x| (x as f64) * (x as f64)).sum();
        sum * sum / (self.n as f64 * sum_sq)
    }

    /// The smallest per-pair service fraction among pairs that received any
    /// service demand, expressed as a fraction of `slots`. Used to check
    /// the paper's `b/n²` lower bound (only pairs with persistent demand
    /// should be passed in — the caller decides which pairs to inspect).
    pub fn min_service_fraction(&self, slots: u64, pairs: &[(usize, usize)]) -> f64 {
        pairs
            .iter()
            .map(|&(i, j)| self.get(i, j) as f64 / slots as f64)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Per-run statistics collector threaded through the switch models.
///
/// Latency samples are only recorded for packets *generated at or after*
/// `measure_start`, so queue contents carried over from the warm-up window
/// cannot bias the delay distribution; counters (generated / dropped /
/// delivered) always count, which lets the runner compute throughput over
/// the measurement window alone by using a fresh collector.
#[derive(Clone, Debug)]
pub struct SimStats {
    measure_start: u64,
    /// Packets produced by the generators.
    pub generated: u64,
    /// Packets dropped because the packet queue (PQ) was full.
    pub dropped_pq: u64,
    /// Packets dropped because a VOQ / input FIFO / output buffer was full.
    pub dropped_queue: u64,
    /// Packets transmitted on an output link.
    pub delivered: u64,
    latency: Welford,
    histogram: Histogram,
    service: ServiceMatrix,
    /// When `Some`, every delivered packet with its delivery slot, in
    /// delivery order (unit-test builds only: lets a test follow
    /// individual packets).
    #[cfg(test)]
    pub(crate) deliveries: Option<Vec<(crate::packet::Packet, u64)>>,
}

impl SimStats {
    /// Creates a collector for an `n`-port switch. Latency is recorded for
    /// packets generated at or after `measure_start`.
    pub fn new(n: usize, measure_start: u64, max_latency_bucket: usize) -> Self {
        SimStats {
            measure_start,
            generated: 0,
            dropped_pq: 0,
            dropped_queue: 0,
            delivered: 0,
            latency: Welford::new(),
            histogram: Histogram::new(max_latency_bucket),
            service: ServiceMatrix::new(n),
            #[cfg(test)]
            deliveries: None,
        }
    }

    /// Records a generated packet.
    pub fn on_generated(&mut self) {
        self.generated += 1;
    }

    /// Records a packet dropped at the PQ.
    pub fn on_drop_pq(&mut self) {
        self.dropped_pq += 1;
    }

    /// Records a packet dropped at a VOQ / FIFO / output buffer.
    pub fn on_drop_queue(&mut self) {
        self.dropped_queue += 1;
    }

    /// Records a packet leaving on its output link in `slot`.
    pub fn on_delivered(&mut self, p: &crate::packet::Packet, slot: u64) {
        self.delivered += 1;
        self.service.record(p.src_idx(), p.dst_idx());
        #[cfg(test)]
        if let Some(log) = &mut self.deliveries {
            log.push((*p, slot));
        }
        if p.generated_at >= self.measure_start {
            let d = p.delay_at(slot);
            self.latency.add(d as f64);
            self.histogram.add(d);
        }
    }

    /// Mean queueing delay in slots over measured packets.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Standard deviation of the queueing delay.
    pub fn latency_std_dev(&self) -> f64 {
        self.latency.std_dev()
    }

    /// Number of latency samples.
    pub fn latency_samples(&self) -> u64 {
        self.latency.count()
    }

    /// Latency quantile (`0.5` = median, `0.99` = p99) as a scalar; when
    /// the quantile falls among overflowed samples this is the bucket range
    /// — a *lower bound*. Use [`latency_quantile_marked`] to tell the two
    /// cases apart.
    ///
    /// [`latency_quantile_marked`]: SimStats::latency_quantile_marked
    pub fn latency_quantile(&self, q: f64) -> u64 {
        self.histogram.quantile_lower_bound(q)
    }

    /// Latency quantile with explicit overflow marking (see
    /// [`Quantile`]).
    pub fn latency_quantile_marked(&self, q: f64) -> Quantile {
        self.histogram.quantile(q)
    }

    /// The empirical latency CDF; the final point carries `overflow: true`
    /// if any sample exceeded the bucket range (see [`Histogram::cdf`]).
    pub fn latency_cdf(&self) -> Vec<CdfPoint> {
        self.histogram.cdf()
    }

    /// The underlying latency histogram (e.g. for merging across runs).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Per-pair delivery counts.
    pub fn service(&self) -> &ServiceMatrix {
        &self.service
    }

    /// Total packets lost anywhere.
    pub fn dropped(&self) -> u64 {
        self.dropped_pq + self.dropped_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    // Histogram behavior proper is tested in lcf-telemetry (unit tests and
    // property tests); here we pin the SimStats-facing contract.
    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(100);
        for v in 1..=100u64 {
            h.add(v - 1); // values 0..=99
        }
        assert_eq!(h.quantile_lower_bound(0.0), 0);
        assert_eq!(h.quantile_lower_bound(0.5), 49);
        assert_eq!(h.quantile_lower_bound(1.0), 99);
        assert_eq!(h.count(), 100);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_is_marked() {
        let mut h = Histogram::new(4);
        h.add(1);
        h.add(1000);
        assert_eq!(h.overflow(), 1);
        let q = h.quantile(1.0);
        assert!(q.is_overflow(), "overflowed quantile must say so");
        assert_eq!(q.value(), 4, "range reported as lower bound");
    }

    #[test]
    fn histogram_cdf_points() {
        let mut h = Histogram::new(10);
        h.add(1);
        h.add(1);
        h.add(3);
        h.add(99); // overflow
        let cdf = h.cdf();
        let shape: Vec<(u64, f64, bool)> = cdf
            .iter()
            .map(|p| (p.value, p.fraction, p.overflow))
            .collect();
        assert_eq!(
            shape,
            vec![(1, 0.5, false), (3, 0.75, false), (10, 1.0, true)],
            "final point is the overflow marker, not an observed value"
        );
    }

    #[test]
    fn sim_stats_quantile_read_outs_agree() {
        use crate::packet::Packet;
        let mut st = SimStats::new(2, 0, 4);
        st.on_delivered(&Packet::new(0, 1, 0), 2); // delay 2
        st.on_delivered(&Packet::new(0, 1, 0), 100); // delay 100: overflow
        assert_eq!(st.latency_quantile(0.5), 2);
        assert_eq!(st.latency_quantile(1.0), 4, "lower bound for overflow");
        assert!(st.latency_quantile_marked(1.0).is_overflow());
        assert_eq!(st.latency_histogram().overflow(), 1);
    }

    #[test]
    fn service_matrix_counts() {
        let mut s = ServiceMatrix::new(3);
        s.record(0, 1);
        s.record(0, 1);
        s.record(2, 0);
        assert_eq!(s.get(0, 1), 2);
        assert_eq!(s.get(1, 1), 0);
        assert_eq!(s.total(), 3);
        assert_eq!(s.per_input(), vec![2, 0, 1]);
    }

    #[test]
    fn jain_index_bounds() {
        let mut fair = ServiceMatrix::new(4);
        for i in 0..4 {
            fair.record(i, 0);
        }
        assert!((fair.jain_index() - 1.0).abs() < 1e-12);

        let mut unfair = ServiceMatrix::new(4);
        for _ in 0..100 {
            unfair.record(2, 0);
        }
        assert!((unfair.jain_index() - 0.25).abs() < 1e-12);

        let empty = ServiceMatrix::new(4);
        assert_eq!(empty.jain_index(), 1.0);
    }

    #[test]
    fn min_service_fraction() {
        let mut s = ServiceMatrix::new(4);
        for _ in 0..10 {
            s.record(0, 0);
        }
        s.record(1, 1);
        let f = s.min_service_fraction(100, &[(0, 0), (1, 1)]);
        assert!((f - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sim_stats_ignores_warmup_packets_for_latency() {
        use crate::packet::Packet;
        let mut st = SimStats::new(4, 100, 64);
        let warm = Packet::new(0, 1, 50);
        let measured = Packet::new(0, 1, 150);
        st.on_delivered(&warm, 60);
        st.on_delivered(&measured, 153);
        assert_eq!(st.delivered, 2, "deliveries always count");
        assert_eq!(
            st.latency_samples(),
            1,
            "warm-up packet excluded from latency"
        );
        assert_eq!(st.mean_latency(), 3.0);
    }

    #[test]
    fn flow_order_checker() {
        use crate::packet::Packet;
        let mut c = FlowOrderChecker::new(4);
        assert!(c.check(&Packet::new(0, 1, 5)));
        assert!(c.check(&Packet::new(0, 1, 7)));
        assert!(
            c.check(&Packet::new(0, 2, 1)),
            "different flow is independent"
        );
        assert!(
            !c.check(&Packet::new(0, 1, 6)),
            "regression must be flagged"
        );
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn sim_stats_counters() {
        let mut st = SimStats::new(2, 0, 16);
        st.on_generated();
        st.on_generated();
        st.on_drop_pq();
        st.on_drop_queue();
        assert_eq!(st.generated, 2);
        assert_eq!(st.dropped(), 2);
    }
}
