//! A dense square bit matrix backed by `u64` words.
//!
//! `BitMatrix` is the storage substrate for [`RequestMatrix`](crate::request::RequestMatrix).
//! Rows are stored contiguously in row-major order, one or more 64-bit words
//! per row, so the per-output scans that dominate scheduler inner loops touch
//! a handful of cache lines and can use `trailing_zeros` to enumerate set bits
//! without per-bit branching.

/// A square `n × n` bit matrix.
///
/// All indices are checked; out-of-range accesses panic (these matrices are
/// small and scheduler correctness matters more than the cost of a compare).
///
/// ```
/// use lcf_core::bitmat::BitMatrix;
///
/// let mut m = BitMatrix::new(4);
/// m.set(1, 2, true);
/// m.set(1, 3, true);
/// assert_eq!(m.row_count(1), 2);
/// assert_eq!(m.row_ones(1).collect::<Vec<_>>(), vec![2, 3]);
/// m.clear_row(1);
/// assert!(m.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "BitMatrix requires n > 0");
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            words: vec![0; words_per_row * n],
        }
    }

    /// Builds a matrix from a predicate over `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = BitMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if f(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Side length of the matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of `u64` words storing one row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// All rows' words as one flat row-major slice
    /// (`n * words_per_row()` words) — the same layout
    /// [`BitMatrix::row_words`] exposes per row. Lets word-parallel kernels
    /// ingest the whole matrix with a single copy.
    #[inline]
    pub fn all_words(&self) -> &[u64] {
        &self.words
    }

    /// The words of `row`, least-significant bit = column 0. Bits at or
    /// beyond column `n` are always zero.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.n, "row out of range");
        let start = row * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    /// The words of `row`, mutably, once `words` has been checked as a
    /// valid replacement row: one word per [`BitMatrix::row_words`] word,
    /// little-endian bit order, bits at or beyond column `n` zero. This is
    /// the layout of the simulator's VOQ occupancy masks. The caller writes
    /// the row itself, so it can diff the old words against the new ones.
    ///
    /// # Panics
    /// Panics if `words.len() != self.words_per_row()` or if a bit beyond
    /// column `n` is set.
    pub(crate) fn row_words_mut(&mut self, row: usize, words: &[u64]) -> &mut [u64] {
        assert!(row < self.n, "row out of range");
        assert_eq!(words.len(), self.words_per_row, "word count mismatch");
        if let Some(&last) = words.last() {
            let used = self.n - (self.words_per_row - 1) * 64;
            let excess = if used == 64 { 0 } else { last >> used };
            assert_eq!(excess, 0, "bits beyond column n must be zero");
        }
        let start = row * self.words_per_row;
        &mut self.words[start..start + self.words_per_row]
    }

    /// The transpose: bit `(j, i)` of the result is bit `(i, j)` of `self`.
    /// Word-parallel (64×64-block transposes, see
    /// [`bitkern::col_masks`](crate::bitkern::col_masks)).
    pub(crate) fn transposed(&self) -> BitMatrix {
        let mut words = Vec::new();
        crate::bitkern::col_masks(&self.words, self.n, &mut words);
        BitMatrix {
            n: self.n,
            words_per_row: self.words_per_row,
            words,
        }
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> (usize, u64) {
        assert!(row < self.n && col < self.n, "bit index out of range");
        (row * self.words_per_row + col / 64, 1u64 << (col % 64))
    }

    /// Returns the bit at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        let (w, mask) = self.index(row, col);
        self.words[w] & mask != 0
    }

    /// Sets the bit at `(row, col)` to `value`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        let (w, mask) = self.index(row, col);
        if value {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
    }

    /// Inverts the bit at `(row, col)`.
    #[inline]
    pub(crate) fn toggle(&mut self, row: usize, col: usize) {
        let (w, mask) = self.index(row, col);
        self.words[w] ^= mask;
    }

    /// Number of set bits in `row`.
    pub fn row_count(&self, row: usize) -> usize {
        assert!(row < self.n, "row out of range");
        let start = row * self.words_per_row;
        self.words[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of set bits in `col`.
    pub fn col_count(&self, col: usize) -> usize {
        (0..self.n).filter(|&i| self.get(i, col)).count()
    }

    /// Total number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if `row` has at least one set bit.
    pub fn row_any(&self, row: usize) -> bool {
        assert!(row < self.n, "row out of range");
        let start = row * self.words_per_row;
        self.words[start..start + self.words_per_row]
            .iter()
            .any(|&w| w != 0)
    }

    /// Clears every bit in `row`.
    pub fn clear_row(&mut self, row: usize) {
        assert!(row < self.n, "row out of range");
        let start = row * self.words_per_row;
        self.words[start..start + self.words_per_row].fill(0);
    }

    /// Clears the whole matrix.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the column indices of the set bits in `row`, ascending.
    pub fn row_ones(&self, row: usize) -> RowOnes<'_> {
        assert!(row < self.n, "row out of range");
        let start = row * self.words_per_row;
        RowOnes {
            words: &self.words[start..start + self.words_per_row],
            word_idx: 0,
            current: if self.words_per_row > 0 {
                self.words[start]
            } else {
                0
            },
        }
    }

    /// Iterates over all set `(row, col)` positions in row-major order.
    pub fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.row_ones(i).map(move |j| (i, j)))
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Copies the contents of `other` into `self` without reallocating.
    ///
    /// Schedulers keep a workhorse copy of the request matrix that they
    /// destructively update each slot; this keeps the hot path allocation-free.
    ///
    /// # Panics
    /// Panics if the two matrices differ in size.
    pub fn copy_from(&mut self, other: &BitMatrix) {
        assert_eq!(self.n, other.n, "copy_from requires equal sizes");
        self.words.copy_from_slice(&other.words);
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{}", if self.get(i, j) { '1' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Iterator over set-bit columns of one row; see [`BitMatrix::row_ones`].
pub struct RowOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for RowOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty() {
        let m = BitMatrix::new(7);
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert_eq!(m.n(), 7);
        for i in 0..7 {
            for j in 0..7 {
                assert!(!m.get(i, j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn zero_size_panics() {
        let _ = BitMatrix::new(0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(5);
        m.set(2, 3, true);
        assert!(m.get(2, 3));
        assert!(!m.get(3, 2));
        m.set(2, 3, false);
        assert!(!m.get(2, 3));
    }

    #[test]
    fn set_is_idempotent() {
        let mut m = BitMatrix::new(4);
        m.set(1, 1, true);
        m.set(1, 1, true);
        assert_eq!(m.count(), 1);
        m.set(1, 1, false);
        m.set(1, 1, false);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn works_beyond_one_word() {
        let n = 130; // three words per row
        let mut m = BitMatrix::new(n);
        m.set(0, 0, true);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(0, 127, true);
        m.set(0, 129, true);
        assert_eq!(m.row_count(0), 5);
        let cols: Vec<usize> = m.row_ones(0).collect();
        assert_eq!(cols, vec![0, 63, 64, 127, 129]);
        assert_eq!(m.col_count(64), 1);
    }

    #[test]
    fn row_and_col_counts() {
        let mut m = BitMatrix::new(4);
        m.set(0, 1, true);
        m.set(1, 1, true);
        m.set(2, 1, true);
        m.set(2, 3, true);
        assert_eq!(m.row_count(2), 2);
        assert_eq!(m.col_count(1), 3);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn clear_row_and_whole_matrix() {
        let mut m = BitMatrix::from_fn(6, |_, _| true);
        assert_eq!(m.count(), 36);
        m.clear_row(2);
        assert_eq!(m.count(), 30);
        assert!(!m.row_any(2));
        assert_eq!(m.col_count(4), 5);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn ones_iterates_row_major() {
        let mut m = BitMatrix::new(3);
        m.set(0, 2, true);
        m.set(1, 0, true);
        m.set(2, 1, true);
        let positions: Vec<(usize, usize)> = m.ones().collect();
        assert_eq!(positions, vec![(0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn transposed_swaps_every_bit() {
        for n in [1, 5, 64, 65, 130] {
            let m = BitMatrix::from_fn(n, |i, j| (i * 7 + j * 3) % 5 == 0);
            let t = m.transposed();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(t.get(j, i), m.get(i, j), "n = {n} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn from_fn_diagonal() {
        let m = BitMatrix::from_fn(8, |i, j| i == j);
        assert_eq!(m.count(), 8);
        for i in 0..8 {
            assert_eq!(m.row_count(i), 1);
            assert!(m.get(i, i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let m = BitMatrix::new(4);
        let _ = m.get(4, 0);
    }

    #[test]
    fn debug_format_is_grid() {
        let mut m = BitMatrix::new(2);
        m.set(0, 1, true);
        let s = format!("{m:?}");
        assert!(s.contains(".1"));
        assert!(s.contains(".."));
    }
}
