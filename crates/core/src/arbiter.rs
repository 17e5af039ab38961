//! Arbitration primitives shared by the schedulers.
//!
//! The hardware described in the paper builds its arbiters from shift
//! registers and an open-collector bus forming a *programmable priority
//! encoder* (Sec. 4.2). The software equivalents here are rotating-priority
//! scans: the candidate closest to (at or after) a pointer wins, and the
//! pointer moves so every position is periodically favored.

/// Picks the first index `idx` in the rotating order
/// `start, start+1, …, start+n-1 (mod n)` for which `pred(idx)` holds.
pub fn select_rotating(
    n: usize,
    start: usize,
    mut pred: impl FnMut(usize) -> bool,
) -> Option<usize> {
    for k in 0..n {
        let idx = (start + k) % n;
        if pred(idx) {
            return Some(idx);
        }
    }
    None
}

/// Among the indices where `key(idx)` is `Some`, picks the one with the
/// minimum key; ties are broken by the rotating order starting at `start`
/// (the first minimum encountered in rotation order wins).
///
/// This is exactly the two-step bus arbitration of the paper's hardware:
/// first the minimum NRQ wins on the open-collector bus, then the PRIO shift
/// register (a rotating unary priority) breaks ties.
pub fn min_rotating(
    n: usize,
    start: usize,
    mut key: impl FnMut(usize) -> Option<usize>,
) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (key, idx)
    for k in 0..n {
        let idx = (start + k) % n;
        if let Some(kv) = key(idx) {
            match best {
                Some((bk, _)) if bk <= kv => {}
                _ => best = Some((kv, idx)),
            }
        }
    }
    best.map(|(_, idx)| idx)
}

/// A single round-robin pointer over `n` positions.
///
/// Used per-port by iSLIP (grant and accept pointers) and by the FIFO
/// scheduler's per-output arbitration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRobinPointer {
    n: usize,
    pos: usize,
}

impl RoundRobinPointer {
    /// Creates a pointer over `n` positions, starting at 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "pointer requires n > 0");
        RoundRobinPointer { n, pos: 0 }
    }

    /// Current position (highest priority index).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Number of positions.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Selects the first index at or after the pointer satisfying `pred`,
    /// without moving the pointer.
    pub fn select(&self, pred: impl FnMut(usize) -> bool) -> Option<usize> {
        select_rotating(self.n, self.pos, pred)
    }

    /// Moves the pointer to one beyond `granted` (the iSLIP update rule:
    /// the granted index becomes the lowest priority). Division-free: one
    /// compare wraps `granted + 1` at `n`.
    #[inline]
    pub fn advance_past(&mut self, granted: usize) {
        assert!(granted < self.n, "granted index out of range");
        self.pos = if granted + 1 == self.n {
            0
        } else {
            granted + 1
        };
    }

    /// Moves the pointer forward by one position (division-free).
    #[inline]
    pub fn step(&mut self) {
        self.pos = if self.pos + 1 == self.n {
            0
        } else {
            self.pos + 1
        };
    }
}

/// The paper's rotating round-robin position/diagonal.
///
/// Fig. 2 keeps two offsets `I` (requester) and `J` (resource) and advances
/// them once per scheduling cycle: `I := (I+1) mod n; if I = 0 then J :=
/// (J+1) mod n`. Every matrix position `[i, j]` is therefore the round-robin
/// position once every `n²` cycles — which is where the paper's hard
/// bandwidth lower bound of `b/n²` per requester/resource pair comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagonalPointer {
    n: usize,
    /// Requester offset `I`.
    pub i: usize,
    /// Resource offset `J`.
    pub j: usize,
}

impl DiagonalPointer {
    /// Creates a pointer for an `n`-port switch at `I = J = 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "pointer requires n > 0");
        DiagonalPointer { n, i: 0, j: 0 }
    }

    /// Number of positions per axis.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The round-robin position on the diagonal for scheduling step `res`
    /// (step `res` schedules resource `(J + res) mod n` and favors requester
    /// `(I + res) mod n`).
    ///
    /// Division-free: `res` must be below `n`, so one conditional
    /// subtraction wraps each sum.
    #[inline]
    pub fn diagonal_position(&self, res: usize) -> (usize, usize) {
        debug_assert!(res < self.n, "diagonal step {res} out of range");
        let wrap = |x: usize| if x >= self.n { x - self.n } else { x };
        (wrap(self.i + res), wrap(self.j + res))
    }

    /// Advances the pointer at the end of a scheduling cycle (Fig. 2).
    pub fn advance(&mut self) {
        self.i = (self.i + 1) % self.n;
        if self.i == 0 {
            self.j = (self.j + 1) % self.n;
        }
    }

    /// Number of cycles after which every `(i, j)` position has been the
    /// round-robin position exactly once: `n²`.
    pub fn period(&self) -> usize {
        self.n * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rotating_wraps() {
        // start at 2, candidates {0, 1}: 0 comes before 1 in rotation order 2,3,0,1.
        let got = select_rotating(4, 2, |i| i == 0 || i == 1);
        assert_eq!(got, Some(0));
    }

    #[test]
    fn select_rotating_prefers_start() {
        let got = select_rotating(4, 2, |i| i == 2 || i == 0);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn select_rotating_none() {
        assert_eq!(select_rotating(4, 0, |_| false), None);
    }

    #[test]
    fn min_rotating_picks_minimum() {
        let keys = [Some(3), Some(1), None, Some(1)];
        // start 0: first minimum in order 0,1,2,3 is index 1.
        assert_eq!(min_rotating(4, 0, |i| keys[i]), Some(1));
        // start 3: rotation order 3,0,1,2 — index 3 (key 1) wins the tie.
        assert_eq!(min_rotating(4, 3, |i| keys[i]), Some(3));
    }

    #[test]
    fn min_rotating_all_none() {
        assert_eq!(min_rotating(5, 2, |_| None), None);
    }

    #[test]
    fn min_rotating_strict_improvement_only() {
        // Equal keys later in the rotation must not displace the earlier one.
        let keys = [Some(2), Some(2), Some(2)];
        assert_eq!(min_rotating(3, 1, |i| keys[i]), Some(1));
    }

    #[test]
    fn round_robin_pointer_advance() {
        let mut p = RoundRobinPointer::new(4);
        assert_eq!(p.pos(), 0);
        p.advance_past(2);
        assert_eq!(p.pos(), 3);
        p.advance_past(3);
        assert_eq!(p.pos(), 0);
        p.step();
        assert_eq!(p.pos(), 1);
        p.advance_past(2);
        p.step();
        assert_eq!(p.pos(), 0, "step wraps at n");
        // A one-position pointer never leaves 0.
        let mut one = RoundRobinPointer::new(1);
        one.advance_past(0);
        one.step();
        assert_eq!(one.pos(), 0);
    }

    #[test]
    #[should_panic(expected = "granted index out of range")]
    fn round_robin_pointer_rejects_out_of_range_grant() {
        RoundRobinPointer::new(4).advance_past(4);
    }

    #[test]
    fn round_robin_select_uses_pointer() {
        let mut p = RoundRobinPointer::new(4);
        p.advance_past(0); // pos = 1
        let sel = p.select(|i| i == 0 || i == 3);
        assert_eq!(sel, Some(3)); // order 1,2,3,0
    }

    #[test]
    fn diagonal_pointer_follows_figure2_rule() {
        let mut d = DiagonalPointer::new(3);
        let mut seen = Vec::new();
        for _ in 0..9 {
            seen.push((d.i, d.j));
            d.advance();
        }
        // I cycles fastest; J bumps when I wraps.
        assert_eq!(
            seen,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2)
            ]
        );
        // After n^2 advances we are back at the origin.
        assert_eq!((d.i, d.j), (0, 0));
    }

    #[test]
    fn diagonal_positions_are_a_diagonal() {
        let mut d = DiagonalPointer::new(4);
        d.advance(); // I=1, J=0 — matches the state used in Fig. 3
        let diag: Vec<(usize, usize)> = (0..4).map(|res| d.diagonal_position(res)).collect();
        // Fig. 3: positions [I1,T0], [I2,T1], [I3,T2], [I0,T3].
        assert_eq!(diag, vec![(1, 0), (2, 1), (3, 2), (0, 3)]);
        // Distinct requesters and distinct resources (conflict-free diagonal).
        let mut is_: Vec<usize> = diag.iter().map(|p| p.0).collect();
        let mut js: Vec<usize> = diag.iter().map(|p| p.1).collect();
        is_.sort_unstable();
        js.sort_unstable();
        assert_eq!(is_, vec![0, 1, 2, 3]);
        assert_eq!(js, vec![0, 1, 2, 3]);
    }

    #[test]
    fn diagonal_period() {
        let d = DiagonalPointer::new(16);
        assert_eq!(d.period(), 256);
    }
}
