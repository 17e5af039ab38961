//! Register-transfer-level model of the central LCF scheduler hardware
//! (Sec. 4.2, Fig. 6).
//!
//! This is the paper's implementation, modelled at the register/bus level:
//!
//! * **NRQ** — an `n`-bit shift register holding the requester's
//!   outstanding request count in *inverse unary* encoding (`k` requests =
//!   `1…1 0^k`); decrementing is a single shift.
//! * **Open-collector bus** — requesters drive the complement of NRQ onto a
//!   wired-AND bus; after settling, the bus carries the *minimum* count.
//!   Each requester compares its driven value with the sampled bus to set
//!   its `CP` (comparison) flag.
//! * **PRIO** — a per-requester unique rotating priority in the same
//!   encoding; a second bus phase among the `CP` requesters implements the
//!   programmable priority encoder that breaks ties. The requester holding
//!   the highest priority participates in this phase *regardless of its
//!   request count*, which is how the hardware realizes the round-robin
//!   position "for free".
//! * **RES** — the central resource pointer, incremented per step (and one
//!   extra time every `n` cycles, rotating the resource scan order).
//!
//! [`RtlScheduler::schedule`] is verified bit-for-bit equivalent to the
//! behavioral [`CentralLcf`](lcf_core::lcf::CentralLcf) (round-robin
//! flavor) in this module's tests, and its cycle counter reproduces the
//! `3n + 2` cycles of Table 2.

use lcf_core::matching::Matching;
use lcf_core::request::RequestMatrix;

/// The state of one requester slice (the logic placed next to each input
/// port in Fig. 6).
#[derive(Clone, Debug)]
struct Slice {
    /// Request register `R[i, 0..n-1]`.
    r: Vec<bool>,
    /// NRQ shift register, inverse unary: `k` requests = `1…1 0^k`,
    /// i.e. `nrq[j]` is false for `j < k`.
    nrq: Vec<bool>,
    /// PRIO shift register: unique priority in inverse unary encoding
    /// (`p` = number of leading false bits; 0 = highest priority).
    prio: Vec<bool>,
    /// NGT: set while the requester has not yet been granted a resource.
    ngt: bool,
    /// CP: set when this requester won the NRQ bus comparison.
    cp: bool,
    /// GNT: the granted resource.
    gnt: Option<usize>,
}

impl Slice {
    fn new(n: usize, priority: usize) -> Self {
        Slice {
            r: vec![false; n],
            nrq: vec![true; n],
            // PRIO is shifted *before* each resource is scheduled, so the
            // construction-time value is one ahead of the first step's.
            prio: unary(n, (priority + 1) % n),
            ngt: true,
            cp: false,
            gnt: None,
        }
    }

    /// Cyclic PRIO rotation: priority decreases by one, the top priority
    /// wraps to the bottom ("Priorities are rotated every scheduling
    /// cycle").
    fn rotate_prio(&mut self) {
        let n = self.prio.len();
        let p = Slice::count(&self.prio);
        Slice::load(&mut self.prio, (p + n - 1) % n);
    }

    /// Count encoded in an inverse-unary register (number of low zeros).
    fn count(reg: &[bool]) -> usize {
        reg.iter().take_while(|&&b| !b).count()
    }

    /// Loads `k` into an inverse-unary register.
    fn load(reg: &mut [bool], k: usize) {
        for (j, bit) in reg.iter_mut().enumerate() {
            *bit = j >= k;
        }
    }

    /// Decrement by one: shift a `true` in from the left (the paper's
    /// single-shift decrement).
    fn shift_decrement(reg: &mut Vec<bool>) {
        if !reg.is_empty() && !reg[0] {
            reg.remove(0);
            reg.push(true);
        }
    }
}

/// Builds an inverse-unary vector with `k` low zeros.
fn unary(n: usize, k: usize) -> Vec<bool> {
    let mut v = vec![true; n];
    for bit in v.iter_mut().take(k) {
        *bit = false;
    }
    v
}

/// The wired-AND open-collector bus: every participant drives the
/// complement of an inverse-unary register; the settled bus is the bitwise
/// AND, whose population count is the *minimum* driven count.
fn wired_and_bus(n: usize, drivers: impl Iterator<Item = usize>) -> Vec<bool> {
    // Driving the complement of `1…1 0^k` is `0…0 1^k`; AND of `1^k`
    // prefixes keeps the shortest prefix, i.e. the minimum k... expressed
    // directly: bus bit j is 1 iff every driver has bit j set.
    let mut bus = vec![true; n];
    let mut any = false;
    for k in drivers {
        any = true;
        for (j, bit) in bus.iter_mut().enumerate() {
            // Driver with count k pulls bits j >= k low (open collector
            // pulls low; the idle bus reads high).
            if j >= k {
                *bit = false;
            }
        }
    }
    if !any {
        bus.fill(false);
    }
    bus
}

/// Minimum count seen on the bus (bits high up to the minimum).
fn bus_min(bus: &[bool]) -> usize {
    bus.iter().take_while(|&&b| b).count()
}

/// Cycle-accurate model of the central LCF scheduler hardware.
///
/// ```
/// use lcf_core::request::RequestMatrix;
/// use lcf_hw::rtl::RtlScheduler;
///
/// let mut rtl = RtlScheduler::new(16);
/// let m = rtl.schedule(&RequestMatrix::full(16));
/// assert_eq!(m.size(), 16);
/// assert_eq!(rtl.cycles(), 50); // 3n+2 cycles, as Table 2 says
/// ```
#[derive(Clone, Debug)]
pub struct RtlScheduler {
    n: usize,
    slices: Vec<Slice>,
    /// RES: index of the resource scheduled first this cycle (the paper's
    /// rotating resource pointer; our behavioral `J`).
    res_origin: usize,
    /// Base priority rotation (our behavioral `I`).
    prio_origin: usize,
    /// Total clock cycles consumed since construction.
    cycles: u64,
}

impl RtlScheduler {
    /// Creates the hardware model for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        RtlScheduler {
            n,
            slices: (0..n).map(|i| Slice::new(n, i)).collect(),
            res_origin: 0,
            prio_origin: 0,
            cycles: 0,
        }
    }

    /// Number of ports.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles one scheduling run takes: `3n + 2` (Table 2, "Calculate LCF
    /// schedule"): `n` cycles to sum requests into the NRQ shift registers,
    /// `2n` bus cycles (NRQ phase + PRIO phase per resource), 2 cycles of
    /// bookkeeping (pointer rotation, grant latch).
    pub fn cycles_per_schedule(&self) -> u64 {
        (3 * self.n + 2) as u64
    }

    /// The `(I, J)` rotation state, comparable with
    /// [`CentralLcf::pointer`](lcf_core::lcf::CentralLcf::pointer).
    pub fn pointer(&self) -> (usize, usize) {
        (self.prio_origin, self.res_origin)
    }

    /// Cycles the precalculated-schedule check takes: `2n + 1` (Table 2,
    /// "Check prec. schedule"): two bus cycles per target (claim drive +
    /// winner latch) and one setup cycle.
    pub fn precalc_check_cycles(&self) -> u64 {
        (2 * self.n + 1) as u64
    }

    /// Runs the full Clint scheduling sequence of Table 2: first the
    /// precalculated-schedule integrity check (`2n + 1` cycles), then the
    /// LCF calculation over what remains (`3n + 2` cycles) — `5n + 3` in
    /// total.
    ///
    /// `claims.get(i, j)` means initiator `i` pre-claims target `j`.
    /// Returns the validated owner per target and the LCF matching for the
    /// rest; a pre-scheduled initiator or target does not participate in
    /// the LCF stage (Sec. 4.3).
    pub fn schedule_with_precalc(
        &mut self,
        requests: &RequestMatrix,
        claims: &lcf_core::bitmat::BitMatrix,
    ) -> (Vec<Option<usize>>, Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        assert_eq!(claims.n(), self.n, "claim matrix size mismatch");
        let n = self.n;

        // Stage 1: integrity check. Each target samples its claim column on
        // the bus; conflicts resolve by the rotating priority chain
        // anchored at the cycle's top-priority requester (the same PRIO
        // hardware, reused — "the existing logic of the LCF scheduler is
        // used during the first stage").
        let anchor = self.prio_origin;
        let mut owners: Vec<Option<usize>> = vec![None; n];
        for (j, owner) in owners.iter_mut().enumerate() {
            for k in 0..n {
                let i = (anchor + k) % n;
                if claims.get(i, j) {
                    *owner = Some(i);
                    break;
                }
            }
        }
        self.cycles += self.precalc_check_cycles();

        // Stage 2: LCF over the residual requests.
        let mut masked = requests.clone();
        for (j, owner) in owners.iter().enumerate() {
            if let Some(i) = *owner {
                masked.clear_requester(i);
                masked.clear_resource(j);
            }
        }
        let matching = self.schedule(&masked);
        (owners, matching)
    }

    /// Runs one scheduling cycle and returns the matching.
    pub fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        let n = self.n;

        // Load request registers and sum them into NRQ (n clock cycles:
        // one per request bit shifted into the unary register).
        for (i, slice) in self.slices.iter_mut().enumerate() {
            for j in 0..n {
                slice.r[j] = requests.get(i, j);
            }
            let count = slice.r.iter().filter(|&&b| b).count();
            Slice::load(&mut slice.nrq, count);
            slice.ngt = true;
            slice.cp = false;
            slice.gnt = None;
        }
        self.cycles += n as u64;

        // Schedule the n resources, two bus cycles each.
        for step in 0..n {
            let resource = (self.res_origin + step) % n;
            // "Prior to scheduling a resource, registers PRIO are shifted
            // to rotate the priorities of the requesters."
            for slice in self.slices.iter_mut() {
                slice.rotate_prio();
            }
            let top_prio_holder = (0..n)
                .find(|&i| Slice::count(&self.slices[i].prio) == 0)
                // lint:allow(no-panic): rotate_prio keeps PRIO a permutation, so priority 0 always exists
                .expect("exactly one slice holds priority 0");
            debug_assert_eq!(top_prio_holder, (self.prio_origin + step) % n);

            // --- Bus cycle 1: NRQ comparison --------------------------------
            // Participants: un-granted requesters with a request for this
            // resource.
            let participates = |s: &Slice| s.ngt && s.r[resource];
            let bus = wired_and_bus(
                n,
                self.slices
                    .iter()
                    .filter(|s| participates(s))
                    .map(|s| Slice::count(&s.nrq)),
            );
            let min = bus_min(&bus);
            for slice in self.slices.iter_mut() {
                slice.cp = slice.ngt && slice.r[resource] && Slice::count(&slice.nrq) == min;
            }
            self.cycles += 1;

            // --- Bus cycle 2: PRIO arbitration -------------------------------
            // Participants: CP winners, plus the top-priority requester if
            // it has a request (the round-robin position, joining
            // independent of its request count).
            let rr_joins =
                self.slices[top_prio_holder].ngt && self.slices[top_prio_holder].r[resource];
            let prio_of = |i: usize| Slice::count(&self.slices[i].prio);
            let prio_participants: Vec<usize> = (0..n)
                .filter(|&i| self.slices[i].cp || (rr_joins && i == top_prio_holder))
                .collect();
            let prio_bus = wired_and_bus(n, prio_participants.iter().map(|&i| prio_of(i)));
            let winner_prio = bus_min(&prio_bus);
            let winner = prio_participants
                .iter()
                .copied()
                .find(|&i| prio_of(i) == winner_prio);
            self.cycles += 1;

            // Grant latch + NRQ updates (same edge as the next bus cycle).
            if let Some(w) = winner {
                self.slices[w].gnt = Some(resource);
                self.slices[w].ngt = false;
                for (i, slice) in self.slices.iter_mut().enumerate() {
                    if i != w && slice.ngt && slice.r[resource] {
                        // The resource is gone: withdraw the request and
                        // shift-decrement the outstanding count.
                        slice.r[resource] = false;
                        Slice::shift_decrement(&mut slice.nrq);
                    }
                }
            }
        }

        // End of cycle: rotate priorities one extra time; after n cycles
        // advance the resource origin (Sec. 4.2's "shifting PRIO one more
        // time after completing a schedule and incrementing RES an
        // additional time after n scheduling cycles").
        for slice in self.slices.iter_mut() {
            slice.rotate_prio();
        }
        self.prio_origin = (self.prio_origin + 1) % n;
        if self.prio_origin == 0 {
            self.res_origin = (self.res_origin + 1) % n;
        }
        self.cycles += 2;

        let mut m = Matching::new(n);
        for (i, slice) in self.slices.iter().enumerate() {
            if let Some(j) = slice.gnt {
                m.connect(i, j);
            }
        }
        m
    }
}

impl lcf_core::traits::Scheduler for RtlScheduler {
    fn name(&self) -> &'static str {
        "lcf_central_rr_rtl"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    // The RTL model is a cycle-accurate reference, not a hot-path kernel:
    // it rebuilds its grant state per call, so `schedule_into` just copies
    // the result into the caller's buffer.
    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let m = RtlScheduler::schedule(self, requests);
        out.reset(self.n);
        for (i, j) in m.pairs() {
            out.connect(i, j);
        }
    }

    fn schedule(&mut self, requests: &RequestMatrix) -> Matching {
        RtlScheduler::schedule(self, requests)
    }

    fn reset(&mut self) {
        *self = RtlScheduler::new(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcf_core::lcf::CentralLcf;
    use lcf_core::traits::Scheduler;

    #[test]
    fn unary_encoding_roundtrip() {
        for n in [4usize, 8, 16] {
            for k in 0..=n {
                let v = unary(n, k);
                assert_eq!(Slice::count(&v), k);
            }
        }
    }

    #[test]
    fn shift_decrement_matches_paper() {
        // "to represent three requests, NRQ is set to 1…1000"; one shift
        // leaves two zeros.
        let mut reg = unary(8, 3);
        assert_eq!(reg, vec![false, false, false, true, true, true, true, true]);
        Slice::shift_decrement(&mut reg);
        assert_eq!(Slice::count(&reg), 2);
        // Decrementing zero stays zero (no underflow).
        let mut zero = unary(8, 0);
        Slice::shift_decrement(&mut zero);
        assert_eq!(Slice::count(&zero), 0);
    }

    #[test]
    fn wired_and_bus_selects_minimum() {
        // "vectors 0…0111 and 0…0001 are written to the bus. Sampling the
        // bus, 0…0001 will be seen" — i.e. the minimum count (1) survives.
        let bus = wired_and_bus(8, [3usize, 1].into_iter());
        assert_eq!(bus_min(&bus), 1);
        let bus = wired_and_bus(8, [5usize, 5, 2].into_iter());
        assert_eq!(bus_min(&bus), 2);
        // Idle bus (no drivers).
        let bus = wired_and_bus(8, std::iter::empty());
        assert_eq!(bus_min(&bus), 0);
    }

    /// Checks `bitkern::min_plane_rotating` — the bit-sliced pick that
    /// distributed LCF's grant and accept steps run — against the Fig. 6
    /// min-bus for one count vector: for every candidate mask and start,
    /// the winner carries the count the wired-AND bus settles to, and it is
    /// the first candidate at that count in rotating order.
    fn assert_plane_min_is_bus_min(counts: &[usize]) {
        use lcf_core::bitkern::{min_plane_rotating, plane_scatter, planes_for};
        let n = counts.len();
        let mut planes = vec![0u64; planes_for(n)];
        for (i, &count) in counts.iter().enumerate() {
            plane_scatter(&mut planes, 1, i, count);
        }
        let top = planes_for(counts.iter().fold(0, |any, &c| any | c));
        for mask in 0u64..1 << n {
            let members = || (0..n).filter(move |&i| mask >> i & 1 == 1);
            for start in 0..n {
                let mut cand = [mask];
                let got = min_plane_rotating(&mut cand, n, start, &planes, top);
                if mask == 0 {
                    assert_eq!(got, None, "counts {counts:?}: empty mask");
                    continue;
                }
                let min = bus_min(&wired_and_bus(n, members().map(|i| counts[i])));
                let want = (0..n)
                    .map(|d| (start + d) % n)
                    .find(|&i| mask >> i & 1 == 1 && counts[i] == min);
                assert_eq!(
                    got, want,
                    "counts {counts:?} mask {mask:#b} start {start}: bus min {min}"
                );
            }
        }
    }

    #[test]
    fn min_plane_rotating_settles_like_the_min_bus() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Every count vector in 0..=n for n <= 4.
        for n in 1..=4usize {
            for code in 0..(n + 1).pow(n as u32) {
                let counts: Vec<usize> = (0..n)
                    .map(|i| code / (n + 1).pow(i as u32) % (n + 1))
                    .collect();
                assert_plane_min_is_bus_min(&counts);
            }
        }
        // A seeded sample for n = 5 and 6 (all of n = 6 is 45M picks).
        let mut rng = StdRng::seed_from_u64(0xB05);
        for n in [5usize, 6] {
            for _ in 0..300 {
                let counts: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=n)).collect();
                assert_plane_min_is_bus_min(&counts);
            }
        }
    }

    #[test]
    fn paper_figure3_on_the_rtl_model() {
        let requests = RequestMatrix::from_pairs(
            4,
            [
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 2),
                (2, 3),
                (3, 1),
            ],
        );
        let mut rtl = RtlScheduler::new(4);
        // Advance to the Fig. 3 state (I = 1, J = 0) by burning one cycle.
        rtl.schedule(&RequestMatrix::new(4));
        let m = rtl.schedule(&requests);
        assert_eq!(
            m.pairs().collect::<Vec<_>>(),
            vec![(0, 2), (1, 0), (2, 3), (3, 1)]
        );
    }

    #[test]
    fn rtl_is_bit_equivalent_to_behavioral_lcf() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 16;
        let mut rng = StdRng::seed_from_u64(0x217);
        let mut rtl = RtlScheduler::new(n);
        let mut beh = CentralLcf::with_round_robin(n);
        for round in 0..500 {
            let requests = RequestMatrix::random(n, 0.3, &mut rng);
            let a: Vec<_> = rtl.schedule(&requests).pairs().collect();
            let b: Vec<_> = beh.schedule(&requests).pairs().collect();
            assert_eq!(a, b, "RTL and behavioral diverged in round {round}");
            assert_eq!(rtl.pointer(), beh.pointer(), "pointer state diverged");
        }
    }

    #[test]
    fn cycle_count_matches_table2() {
        let mut rtl = RtlScheduler::new(16);
        assert_eq!(rtl.cycles_per_schedule(), 50); // 3n+2 at n=16
        let before = rtl.cycles();
        rtl.schedule(&RequestMatrix::full(16));
        assert_eq!(rtl.cycles() - before, 50, "one run must take 3n+2 cycles");
    }

    #[test]
    fn round_robin_position_wins_on_rtl() {
        // Same scenario as the behavioral test: requester 1 holds the RR
        // position for T0 despite a worse NRQ.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0), (1, 1)]);
        let mut rtl = RtlScheduler::new(4);
        rtl.schedule(&RequestMatrix::new(4)); // advance to I=1, J=0
        let m = rtl.schedule(&requests);
        assert_eq!(m.output_for(1), Some(0));
        assert_eq!(m.output_for(0), None);
    }

    #[test]
    fn empty_and_full_matrices() {
        let mut rtl = RtlScheduler::new(8);
        assert_eq!(rtl.schedule(&RequestMatrix::new(8)).size(), 0);
        assert_eq!(rtl.schedule(&RequestMatrix::full(8)).size(), 8);
    }

    #[test]
    fn full_sequence_takes_5n_plus_3_cycles() {
        use lcf_core::bitmat::BitMatrix;
        let n = 16;
        let mut rtl = RtlScheduler::new(n);
        let claims = BitMatrix::from_fn(n, |i, j| i == 3 && (j == 1 || j == 5));
        let before = rtl.cycles();
        let (owners, matching) = rtl.schedule_with_precalc(&RequestMatrix::full(n), &claims);
        assert_eq!(rtl.cycles() - before, (5 * n + 3) as u64, "Table 2 total");
        assert_eq!(owners[1], Some(3));
        assert_eq!(owners[5], Some(3));
        // Pre-scheduled initiator/targets excluded from the LCF stage.
        assert_eq!(matching.output_for(3), None);
        assert_eq!(matching.input_for(1), None);
        assert_eq!(matching.input_for(5), None);
        // 15 initiators compete for the 14 unclaimed targets: all 14 match.
        assert_eq!(matching.size(), n - 2);
    }

    #[test]
    fn precalc_conflict_resolved_by_priority_chain() {
        use lcf_core::bitmat::BitMatrix;
        let n = 4;
        let mut rtl = RtlScheduler::new(n);
        // Both 0 and 2 claim target 1; fresh scheduler anchors at 0.
        let claims = BitMatrix::from_fn(n, |i, j| (i == 0 || i == 2) && j == 1);
        let (owners, _) = rtl.schedule_with_precalc(&RequestMatrix::new(n), &claims);
        assert_eq!(owners[1], Some(0));
        // After one cycle the anchor advanced; requester 1 has priority,
        // scan order 1,2,3,0 picks 2.
        let (owners, _) = rtl.schedule_with_precalc(&RequestMatrix::new(n), &claims);
        assert_eq!(owners[1], Some(2));
    }
}
