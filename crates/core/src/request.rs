//! The request matrix presented to a scheduler each time slot.

use crate::bitmat::BitMatrix;
use rand::Rng;

/// An `n × n` request matrix: `get(i, j)` is true iff input (requester) `i`
/// has at least one packet queued for output (resource) `j`.
///
/// This is the `R` array of the paper's Fig. 2 pseudocode. In the switch
/// model it is derived from VOQ occupancy: one bit per virtual output queue.
///
/// Besides the row-major bits the matrix keeps three things exact under
/// every mutator: its transpose ([`RequestMatrix::cols`]), the per-row
/// request count NRQ and the per-column count NGT. A mutator pays for the
/// bits it changes, so a caller that edits the matrix only where requests
/// appear or vanish (the switch does so at VOQ empty↔nonempty transitions)
/// keeps all three current at no per-slot cost, and the kernels read them
/// instead of rebuilding them on every call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestMatrix {
    rows: BitMatrix,
    cols: BitMatrix,
    nrq: Vec<u32>,
    ngt: Vec<u32>,
}

/// Sets bit `(r, c)` of `m` to `value`, moving `counts[r]` with it.
/// The bit must currently differ from `value`. Branch-free, because
/// [`RequestMatrix::set_row_words`] flips bits in no predictable order.
#[inline]
fn flip(m: &mut BitMatrix, counts: &mut [u32], r: usize, c: usize, value: bool) {
    m.toggle(r, c);
    bump(&mut counts[r], value);
}

/// Adds 1 to `count` if `up`, else subtracts 1.
#[inline]
fn bump(count: &mut u32, up: bool) {
    *count = *count + u32::from(up) - u32::from(!up);
}

impl RequestMatrix {
    /// Creates an empty request matrix for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        RequestMatrix {
            rows: BitMatrix::new(n),
            cols: BitMatrix::new(n),
            nrq: vec![0; n],
            ngt: vec![0; n],
        }
    }

    /// Builds a matrix from `(requester, resource)` pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut m = RequestMatrix::new(n);
        for (i, j) in pairs {
            m.set(i, j, true);
        }
        m
    }

    /// Builds a matrix from a predicate over `(requester, resource)`.
    pub fn from_fn(n: usize, f: impl FnMut(usize, usize) -> bool) -> Self {
        RequestMatrix::from(BitMatrix::from_fn(n, f))
    }

    /// A matrix with every request set (worst-case scheduler input).
    pub fn full(n: usize) -> Self {
        RequestMatrix::from_fn(n, |_, _| true)
    }

    /// A random matrix where each request is set independently with
    /// probability `density`. Useful for benchmarks and property tests.
    pub fn random(n: usize, density: f64, rng: &mut impl Rng) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        RequestMatrix::from_fn(n, |_, _| rng.gen_bool(density))
    }

    /// Number of ports.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.n()
    }

    /// Whether requester `i` requests resource `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows.get(i, j)
    }

    /// Sets or clears request `(i, j)`. O(1); a no-op if the bit already
    /// holds `value`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        if self.rows.get(i, j) != value {
            flip(&mut self.rows, &mut self.nrq, i, j, value);
            flip(&mut self.cols, &mut self.ngt, j, i, value);
        }
    }

    /// NRQ of the paper: the number of resources requester `i` requests.
    #[inline]
    pub fn nrq(&self, i: usize) -> usize {
        self.nrq[i] as usize
    }

    /// The number of requesters requesting resource `j` (the distributed
    /// scheduler's NGT before any matches are removed).
    #[inline]
    pub fn ngt(&self, j: usize) -> usize {
        self.ngt[j] as usize
    }

    /// Every requester's NRQ, indexed by requester.
    #[inline]
    pub fn nrq_counts(&self) -> &[u32] {
        &self.nrq
    }

    /// Total number of requests.
    pub fn count(&self) -> usize {
        self.nrq.iter().map(|&c| c as usize).sum()
    }

    /// True if nobody requests anything.
    pub fn is_empty(&self) -> bool {
        self.nrq.iter().all(|&c| c == 0)
    }

    /// True if requester `i` has at least one request.
    pub fn requester_active(&self, i: usize) -> bool {
        self.nrq[i] > 0
    }

    /// Iterates over the resources requested by requester `i`, ascending.
    pub fn row_ones(&self, i: usize) -> crate::bitmat::RowOnes<'_> {
        self.rows.row_ones(i)
    }

    /// Iterates over the requesters of resource `j`, ascending.
    pub fn col_ones(&self, j: usize) -> crate::bitmat::RowOnes<'_> {
        self.cols.row_ones(j)
    }

    /// Iterates over all `(requester, resource)` requests in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows.ones()
    }

    /// Removes every request issued by requester `i`. O(requests removed).
    pub fn clear_requester(&mut self, i: usize) {
        for j in self.rows.row_ones(i) {
            flip(&mut self.cols, &mut self.ngt, j, i, false);
        }
        self.rows.clear_row(i);
        self.nrq[i] = 0;
    }

    /// Removes every request for resource `j`. O(requests removed).
    pub fn clear_resource(&mut self, j: usize) {
        for i in self.cols.row_ones(j) {
            flip(&mut self.rows, &mut self.nrq, i, j, false);
        }
        self.cols.clear_row(j);
        self.ngt[j] = 0;
    }

    /// The request bits, one row per requester.
    pub fn bits(&self) -> &BitMatrix {
        &self.rows
    }

    /// The kept transpose, one row per resource: row `j` holds the
    /// requesters of resource `j` (the column masks the kernels scan).
    pub fn cols(&self) -> &BitMatrix {
        &self.cols
    }

    /// Replaces requester `i`'s whole row from packed words: bit `j % 64`
    /// of word `j / 64` is request `(i, j)`, the [`BitMatrix::row_words`]
    /// layout, with bits at or beyond `n` zero. The old row is diffed
    /// against the new one, so the transpose and counts pay only for the
    /// bits that changed.
    ///
    /// # Panics
    /// Panics if `words` is not one row of words or sets a bit beyond `n`.
    pub fn set_row_words(&mut self, i: usize, words: &[u64]) {
        let row = self.rows.row_words_mut(i, words);
        for (wi, (old, &new)) in row.iter_mut().zip(words).enumerate() {
            let mut diff = *old ^ new;
            *old = new;
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let value = new >> bit & 1 == 1;
                flip(&mut self.cols, &mut self.ngt, wi * 64 + bit, i, value);
                bump(&mut self.nrq[i], value);
            }
        }
    }

    /// Copies `other` into `self` without reallocating (see
    /// [`BitMatrix::copy_from`]).
    pub fn copy_from(&mut self, other: &RequestMatrix) {
        self.rows.copy_from(&other.rows);
        self.cols.copy_from(&other.cols);
        self.nrq.copy_from_slice(&other.nrq);
        self.ngt.copy_from_slice(&other.ngt);
    }

    /// Recounts the kept transpose, NRQ and NGT from the row bits and
    /// reports the first disagreement. O(n²/64) word operations plus an
    /// allocation: a checker for tests and checked debug builds, not for
    /// the slot loop proper.
    pub fn check_kept_state(&self) -> Result<(), String> {
        let n = self.n();
        let cols = self.rows.transposed();
        for j in 0..n {
            if self.cols.row_words(j) != cols.row_words(j) {
                return Err(format!("kept column {j} differs from the transposed rows"));
            }
            let ngt = cols.row_count(j);
            if self.ngt(j) != ngt {
                return Err(format!(
                    "kept NGT[{j}] = {} but the rows hold {ngt}",
                    self.ngt[j]
                ));
            }
        }
        for i in 0..n {
            let nrq = self.rows.row_count(i);
            if self.nrq(i) != nrq {
                return Err(format!(
                    "kept NRQ[{i}] = {} but row {i} holds {nrq}",
                    self.nrq[i]
                ));
            }
        }
        Ok(())
    }
}

impl From<BitMatrix> for RequestMatrix {
    fn from(rows: BitMatrix) -> Self {
        let n = rows.n();
        let cols = rows.transposed();
        let count = |m: &BitMatrix| -> Vec<u32> {
            (0..n)
                .map(|r| m.row_words(r).iter().map(|w| w.count_ones()).sum())
                .collect()
        };
        RequestMatrix {
            nrq: count(&rows),
            ngt: count(&cols),
            rows,
            cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_pairs_and_counts() {
        let m = RequestMatrix::from_pairs(4, [(0, 1), (0, 2), (1, 0), (3, 1)]);
        assert_eq!(m.count(), 4);
        assert_eq!(m.nrq(0), 2);
        assert_eq!(m.nrq(2), 0);
        assert_eq!(m.ngt(1), 2);
        assert!(m.requester_active(0));
        assert!(!m.requester_active(2));
    }

    #[test]
    fn paper_figure3_nrq_column() {
        // Fig. 3 step 1: NRQ = [2, 3, 3, 1].
        let m = RequestMatrix::from_pairs(
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
        assert_eq!(
            (0..4).map(|i| m.nrq(i)).collect::<Vec<_>>(),
            vec![2, 3, 3, 1]
        );
    }

    #[test]
    fn full_matrix() {
        let m = RequestMatrix::full(5);
        assert_eq!(m.count(), 25);
        assert_eq!(m.nrq(3), 5);
        assert_eq!(m.ngt(4), 5);
    }

    #[test]
    fn clear_requester_and_resource() {
        let mut m = RequestMatrix::full(4);
        m.clear_requester(1);
        assert_eq!(m.nrq(1), 0);
        assert_eq!(m.count(), 12);
        m.clear_resource(2);
        assert_eq!(m.ngt(2), 0);
        assert_eq!(m.count(), 9);
    }

    #[test]
    fn random_density_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let empty = RequestMatrix::random(8, 0.0, &mut rng);
        assert!(empty.is_empty());
        let full = RequestMatrix::random(8, 1.0, &mut rng);
        assert_eq!(full.count(), 64);
    }

    #[test]
    fn random_density_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = RequestMatrix::random(64, 0.5, &mut rng);
        let density = m.count() as f64 / (64.0 * 64.0);
        assert!((0.4..0.6).contains(&density), "density was {density}");
    }

    /// Every mutator keeps the transpose and both count tables exact, on
    /// both sides of a word boundary (small sizes, so it also runs under
    /// Miri).
    #[test]
    fn kept_state_follows_every_mutator() {
        for n in [3, 65] {
            let mut m = RequestMatrix::from_pairs(n, [(0, 1), (1, 1), (2, n - 1)]);
            assert_eq!(m.check_kept_state(), Ok(()));
            assert_eq!(m.col_ones(1).collect::<Vec<_>>(), vec![0, 1]);
            m.set(2, 1, true);
            m.set(0, 1, false);
            m.set(0, 1, false); // a no-op leaves the counts alone
            assert_eq!((m.nrq(0), m.ngt(1)), (0, 2));
            assert_eq!(m.check_kept_state(), Ok(()));
            let mut row = vec![0u64; n.div_ceil(64)];
            row[0] = 0b11;
            row[(n - 1) / 64] |= 1 << ((n - 1) % 64);
            m.set_row_words(1, &row);
            assert_eq!(m.nrq(1), 3);
            assert_eq!(m.check_kept_state(), Ok(()));
            m.clear_resource(n - 1);
            assert_eq!((m.ngt(n - 1), m.nrq(1), m.nrq(2)), (0, 2, 1));
            assert_eq!(m.check_kept_state(), Ok(()));
            m.clear_requester(1);
            assert_eq!((m.nrq(1), m.ngt(0)), (0, 0));
            assert_eq!(m.check_kept_state(), Ok(()));
            let mut copy = RequestMatrix::full(n);
            copy.copy_from(&m);
            assert_eq!(copy, m);
            assert_eq!(RequestMatrix::from(m.bits().clone()), m);
        }
    }

    #[test]
    fn check_kept_state_reports_a_stale_count() {
        let mut m = RequestMatrix::from_pairs(4, [(0, 1), (2, 1)]);
        m.ngt[1] = 1;
        assert!(m.check_kept_state().unwrap_err().contains("NGT[1]"));
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = vec![(0, 3), (2, 1), (3, 0)];
        let m = RequestMatrix::from_pairs(4, pairs.clone());
        assert_eq!(m.pairs().collect::<Vec<_>>(), pairs);
    }
}
