//! Word-parallel kernels for the matching schedulers.
//!
//! A request-matrix row for an `n`-port switch is a mask of
//! `words_for(n)` 64-bit words: bit `dst % 64` of word `dst / 64` is set
//! iff the row requests destination `dst`. This is the packed layout of
//! [`BitMatrix::row_words`](crate::bitmat::BitMatrix::row_words) and of the
//! simulator's `VoqSet::occupancy_words`. The kernels read the request
//! matrix's rows and its kept column masks and counts in place
//! ([`RequestMatrix`](crate::request::RequestMatrix)); on these masks the
//! scans that dominate scheduler inner loops collapse into word
//! operations:
//!
//! * candidate filtering is a word-wise `AND` of a column mask against a
//!   free-inputs mask,
//! * rotating-priority selection ("first requester at or after the
//!   pointer") is a short word walk with two `trailing_zeros` probes on a
//!   split boundary word,
//! * the least-NRQ requester among candidates is one ascending walk that
//!   keys each candidate `(count << b) | rotation position` and applies the
//!   grant's decrement in the same pass ([`min_count_rotating_grant`]),
//! * the lowest small count among candidates is an MSB-to-LSB narrowing
//!   over the counts' bit-planes ([`min_plane_rotating`]),
//! * uniform random choice among candidates is a popcount plus a
//!   k-th-set-bit select,
//! * iSLIP, PIM and distributed LCF share one request–grant–accept
//!   iteration (`RequestGrantAccept`) that visits only outputs some
//!   unmatched input may still request and only inputs that hold a grant.
//!
//! For `n <= 64` — every configuration the paper evaluates — a row is a
//! single word and the kernels degenerate to the classic one-`u64` forms.
//! Larger switches (n = 128/256/1024, the data-center-scale regimes) use
//! the same entry points with more words per row; nothing falls back to
//! the scalar reference.
//!
//! Each scheduler keeps its scalar implementation as the reference — the
//! bit kernels are required (and property-tested) to produce *identical*
//! matchings, grant for grant, so the scalar path stays selectable via
//! [`Backend::Scalar`] for differential testing.
//!
//! All multi-word entry points check their length/range contracts with
//! release-mode asserts: a caller that hands a short mask or an
//! out-of-range index gets a loud panic, never a silently truncated mask.

use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::telemetry::IterationTrace;

/// Bits per mask word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words in an `n`-bit row mask.
///
/// # Panics
/// Panics if `n` is 0 — every kernel mask covers at least one port.
#[inline]
pub fn words_for(n: usize) -> usize {
    assert!(n > 0, "kernel masks require n > 0");
    n.div_ceil(WORD_BITS)
}

/// Which matching-kernel implementation a scheduler uses.
///
/// `Bitset` is the default and handles every port count — rows wider than
/// one word use multi-word masks — so the choice is a pure performance
/// dial and never changes results: both backends are bit-identical by
/// construction (enforced by equivalence property tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Reference implementation: index arithmetic and per-bit probes.
    Scalar,
    /// Word-parallel implementation on `u64` row/column masks.
    #[default]
    Bitset,
}

impl Backend {
    /// Registry/CLI name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Bitset => "bitset",
        }
    }

    /// Parses a backend name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "bitset" => Some(Backend::Bitset),
            _ => None,
        }
    }

    /// True if the word kernels apply. The kernels are multi-word, so this
    /// depends only on the backend, not on the port count: `Bitset` runs
    /// word-parallel at any `n`.
    #[inline]
    pub fn word_parallel(self) -> bool {
        self == Backend::Bitset
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single word with bits `[0, n)` set, for `n <= 64` (the last-word mask
/// of a multi-word row; the whole-row form is [`mask_fill`]).
///
/// # Panics
/// Panics if `n` is 0 or exceeds [`WORD_BITS`] — checked in release too,
/// because an oversized `n` would silently wrap the shift amount.
#[inline]
pub fn mask_n(n: usize) -> u64 {
    assert!(
        (1..=WORD_BITS).contains(&n),
        "mask_n requires 1 <= n <= {WORD_BITS}"
    );
    if n == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Fills `out` with the all-ports mask: bits `[0, n)` set, bits at or
/// beyond `n` zero.
///
/// # Panics
/// Panics if `out.len() != words_for(n)`.
pub fn mask_fill(out: &mut [u64], n: usize) {
    let w = words_for(n);
    assert_eq!(
        out.len(),
        w,
        "mask_fill: mask has {} words, n = {n} needs {w}",
        out.len()
    );
    out[..w - 1].fill(u64::MAX);
    out[w - 1] = mask_n(n - (w - 1) * WORD_BITS);
}

/// True if bit `idx` of the mask is set.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn test_bit(mask: &[u64], idx: usize) -> bool {
    mask[idx / WORD_BITS] >> (idx % WORD_BITS) & 1 == 1
}

/// Sets bit `idx` of the mask.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn set_bit(mask: &mut [u64], idx: usize) {
    mask[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
}

/// Clears bit `idx` of the mask.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn clear_bit(mask: &mut [u64], idx: usize) {
    mask[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
}

/// Number of set bits in the mask.
#[inline]
pub fn popcount(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Transposes the leading `sub × sub` corner of a 64×64 bit block in
/// place, where `sub` is rounded up to a power of two: bit `j` of word `i`
/// moves to bit `i` of word `j`. Masked XOR block swaps (the recursive
/// half-block scheme from Hacker's Delight §7-3) — no per-bit work. Words
/// and bits at or beyond `sub` must be zero; they are left untouched, so
/// small matrices (the paper's n = 16/32 regimes) skip the outer stages
/// entirely: `sub/2 * log2(sub)` swap steps instead of a fixed `32 * 6`.
fn transpose64(a: &mut [u64; WORD_BITS], sub: usize) {
    let s = sub.next_power_of_two();
    let mut j = s >> 1;
    if j == 0 {
        return; // 1×1 block: transpose is the identity
    }
    // Stage mask: the high j bits of each 2j-bit group.
    let mut m: u64 = {
        let group = ((1u64 << j) - 1) << j;
        let mut mm = 0u64;
        let mut sh = 0;
        while sh < WORD_BITS {
            mm |= group << sh;
            sh += 2 * j;
        }
        mm
    };
    while j != 0 {
        let mut k = 0;
        while k < s {
            let t = (a[k] ^ (a[k + j] << j)) & m;
            a[k] ^= t;
            a[k + j] ^= t >> j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m >> j;
    }
}

/// Computes per-column masks (the transpose): bit `i % 64` of word `i / 64`
/// of column `j`'s mask (at `cols[j * w..(j + 1) * w]`) is bit `j` of row
/// `i`. Word-parallel: the matrix is processed as `w²` 64×64 blocks, each
/// transposed with [`transpose64`]'s masked XOR swaps; all-zero blocks are
/// skipped, so sparse matrices stay cheap while dense ones never pay a
/// per-set-bit loop.
///
/// # Panics
/// Panics if `rows.len() != n * words_for(n)`.
pub fn col_masks(rows: &[u64], n: usize, cols: &mut Vec<u64>) {
    let w = words_for(n);
    assert_eq!(rows.len(), n * w, "col_masks: rows not n x w for n = {n}");
    cols.clear();
    cols.resize(n * w, 0);
    let mut block = [0u64; WORD_BITS];
    for bi in 0..w {
        let i_lo = bi * WORD_BITS;
        let i_n = (n - i_lo).min(WORD_BITS);
        for bj in 0..w {
            let mut any = 0u64;
            for r in 0..i_n {
                let word = rows[(i_lo + r) * w + bj];
                block[r] = word;
                any |= word;
            }
            if any == 0 {
                continue; // cols is pre-zeroed; skip the empty block
            }
            let j_lo = bj * WORD_BITS;
            let j_n = (n - j_lo).min(WORD_BITS);
            block[i_n..].fill(0);
            transpose64(&mut block, i_n.max(j_n));
            for c in 0..j_n {
                cols[(j_lo + c) * w + bi] = block[c];
            }
        }
    }
}

/// First set bit of `mask` in the rotating order
/// `start, start+1, …, start+n-1 (mod n)` — the word-parallel form of
/// [`select_rotating`](crate::arbiter::select_rotating). Bits of `mask` at
/// or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n` or `mask.len() != words_for(n)` — checked in
/// release too; the bits-beyond-`n` contract is debug-asserted.
pub fn rotating_first(mask: &[u64], n: usize, start: usize) -> Option<usize> {
    let w = words_for(n);
    assert!(
        start < n,
        "rotating_first: start {start} out of range for n = {n}"
    );
    assert_eq!(
        mask.len(),
        w,
        "rotating_first: mask has {} words, n = {n} needs {w}",
        mask.len()
    );
    debug_assert!(excess_is_zero(mask, n), "mask has bits beyond n");
    let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
    // Segment [start, n): the boundary word with bits below `start`
    // cleared, then the remaining words in ascending order.
    let boundary = mask[sw] & (u64::MAX << sb);
    if boundary != 0 {
        return Some(sw * WORD_BITS + boundary.trailing_zeros() as usize);
    }
    for (wi, &word) in mask.iter().enumerate().skip(sw + 1) {
        if word != 0 {
            return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    // Wrap segment [0, start): full words, then the boundary word with
    // bits at or above `start` cleared.
    for (wi, &word) in mask.iter().enumerate().take(sw) {
        if word != 0 {
            return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    let boundary = mask[sw] & !(u64::MAX << sb);
    if boundary != 0 {
        return Some(sw * WORD_BITS + boundary.trailing_zeros() as usize);
    }
    None
}

/// The position of the `k`-th set bit of `mask` (ascending, 0-based).
///
/// # Panics
/// Panics if `mask` has fewer than `k + 1` set bits — checked in release
/// too: a wrapped pick would silently skew PIM's uniform choice.
pub fn kth_set_bit(mask: &[u64], k: usize) -> usize {
    let mut k = k;
    for (wi, &word) in mask.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if k < ones {
            let mut m = word;
            for _ in 0..k {
                m &= m - 1;
            }
            return wi * WORD_BITS + m.trailing_zeros() as usize;
        }
        k -= ones;
    }
    // lint:allow(no-panic): caller contract — the mask must hold > k set bits
    panic!("kth_set_bit: k-th set bit absent");
}

/// Among the set bits of `mask`, the index minimizing `key`, ties broken by
/// the rotating order starting at `start` — the word-parallel form of
/// [`min_rotating`](crate::arbiter::min_rotating) restricted to mask
/// membership. Bits of `mask` at or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n`, `mask.len() != words_for(n)` or `key` is shorter
/// than `n` — checked in release too.
pub fn min_key_rotating(mask: &[u64], n: usize, start: usize, key: &[usize]) -> Option<usize> {
    let w = words_for(n);
    assert!(
        start < n,
        "min_key_rotating: start {start} out of range for n = {n}"
    );
    assert_eq!(
        mask.len(),
        w,
        "min_key_rotating: mask has {} words, n = {n} needs {w}",
        mask.len()
    );
    assert!(key.len() >= n, "min_key_rotating: key table shorter than n");
    debug_assert!(excess_is_zero(mask, n), "mask has bits beyond n");
    let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
    // Visiting [start, n) ascending then [0, start) ascending enumerates
    // the candidates in exactly the rotating order, so keeping the first
    // strict minimum reproduces the scalar tie-break.
    let mut best: Option<(usize, usize)> = None; // (key, idx)
    let mut consider = |wi: usize, word: u64| {
        let mut word = word;
        while word != 0 {
            let idx = wi * WORD_BITS + word.trailing_zeros() as usize;
            word &= word - 1;
            let kv = key[idx];
            match best {
                Some((bk, _)) if bk <= kv => {}
                _ => best = Some((kv, idx)),
            }
        }
    };
    consider(sw, mask[sw] & (u64::MAX << sb));
    for (wi, &word) in mask.iter().enumerate().skip(sw + 1) {
        consider(wi, word);
    }
    for (wi, &word) in mask.iter().enumerate().take(sw) {
        consider(wi, word);
    }
    consider(sw, mask[sw] & !(u64::MAX << sb));
    best.map(|(_, idx)| idx)
}

/// Among the set bits of `col & free`, the index with the smallest
/// `counts` entry, ties broken by the rotating order starting at `start`,
/// fused with the grant's count update: every candidate's count is
/// decremented in the same walk. This is the inner step of the wide central
/// LCF resource loop (`col` is the resource's column of requesters, `free`
/// the unmatched requesters, `counts` the NRQ table). Each candidate is
/// keyed `(count << b) | rotation position`, where `b` is the bit length of
/// `n`, so the smallest key is both the least count and, among ties, the
/// first in rotating order; the candidates are therefore visited in plain
/// ascending order. Counts are compared before the decrement, which lowers
/// every candidate alike. Every candidate's count must be at least 1. Bits
/// at or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n`, `col` or `free` is not `words_for(n)` words or
/// `counts` is shorter than `n` — checked in release too.
pub fn min_count_rotating_grant(
    col: &[u64],
    free: &[u64],
    n: usize,
    start: usize,
    counts: &mut [u32],
) -> Option<usize> {
    let w = words_for(n);
    assert!(
        start < n,
        "min_count_rotating_grant: start {start} out of range for n = {n}"
    );
    assert!(
        col.len() == w && free.len() == w,
        "min_count_rotating_grant: masks have {} and {} words, n = {n} needs {w}",
        col.len(),
        free.len()
    );
    assert!(
        counts.len() >= n,
        "min_count_rotating_grant: counts shorter than n"
    );
    debug_assert!(excess_is_zero(col, n), "col has bits beyond n");
    let shift = planes_for(n);
    let mut best = usize::MAX;
    for (wi, (&c, &f)) in col.iter().zip(free).enumerate() {
        let mut word = c & f;
        while word != 0 {
            let idx = wi * WORD_BITS + word.trailing_zeros() as usize;
            word &= word - 1;
            let count = &mut counts[idx];
            let rot = if idx >= start {
                idx - start
            } else {
                idx + n - start
            };
            best = best.min((*count as usize) << shift | rot);
            *count -= 1;
        }
    }
    (best != usize::MAX).then(|| {
        let idx = (best & ((1 << shift) - 1)) + start;
        if idx >= n {
            idx - n
        } else {
            idx
        }
    })
}

// --- Bit-sliced counts ----------------------------------------------------
//
// Distributed LCF picks, among a candidate set, the port with the smallest
// small count (NRQ in the grant step, NGT in the accept step). Stored as
// bit-planes — plane `b` holds bit `b` of every port's count, one
// `words_for(n)`-word mask per plane — that minimum is an MSB-to-LSB
// narrowing of the candidate mask: at each plane, if some candidate has the
// bit clear, every candidate with it set drops out. This is the software
// form of the paper's Fig. 6 open-collector wired-AND min-bus, settled one
// binary-coded bus line per plane, and it costs O(log n · w) word ops per
// selection however many candidates there are.

/// Number of bit-planes that hold every count in `0..=n`: ⌈log₂(n+1)⌉, the
/// bit length of `n`.
#[inline]
pub fn planes_for(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// Writes `count` into the bit-planes at port `idx`: bit `idx` of plane `b`
/// (at `planes[b * w..(b + 1) * w]`) becomes bit `b` of `count`, for every
/// plane. Branch-free: one OR per plane, whatever the count. The planes
/// must be zero at `idx` beforehand.
///
/// # Panics
/// Panics if `count` needs more planes than `planes` holds or `idx` is at
/// or beyond the `w`-word plane width — checked in release too.
#[inline(always)]
pub fn plane_scatter(planes: &mut [u64], w: usize, idx: usize, count: usize) {
    assert!(
        idx < w * WORD_BITS,
        "plane_scatter: idx {idx} beyond {w} words"
    );
    assert!(
        planes_for(count) * w <= planes.len(),
        "plane_scatter: count {count} needs more than {} planes",
        planes.len() / w
    );
    let (word, bit) = (idx / WORD_BITS, idx % WORD_BITS);
    for (b, plane) in planes.chunks_exact_mut(w).enumerate() {
        plane[word] |= ((count >> b) as u64 & 1) << bit;
    }
}

/// Among the set bits of `cand`, the index with the smallest bit-sliced
/// count in `planes`, ties broken by the rotating order starting at `start`
/// — the bit-sliced form of [`min_key_rotating`]. `cand` is narrowed in
/// place to the minimum-count candidates, MSB plane first: wherever some
/// candidate has the plane's bit clear, the candidates with it set drop
/// out. [`rotating_first`] then picks among the survivors. Only the low
/// `top` planes are read, so every candidate's count must be below
/// `2^top`; callers pass the bit length of the largest live count. Bits of
/// `cand` at or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n`, `cand.len() != words_for(n)` or `planes` is
/// shorter than `top` planes — checked in release too.
#[inline(always)]
pub fn min_plane_rotating(
    cand: &mut [u64],
    n: usize,
    start: usize,
    planes: &[u64],
    top: usize,
) -> Option<usize> {
    let w = cand.len();
    assert!(
        top * w <= planes.len(),
        "min_plane_rotating: {} plane words, top = {top} needs {}",
        planes.len(),
        top * w
    );
    let planes = &planes[..top * w];
    if let [c] = cand {
        // Single word: the survivors stay in a register across planes
        // instead of round-tripping through `cand` — the same selection,
        // and it made the whole distributed LCF kernel ~1.7x faster at
        // n = 32.
        let mut live = *c;
        for &plane in planes.iter().rev() {
            let zeros = live & !plane;
            live = if zeros != 0 { zeros } else { live };
        }
        *c = live;
    } else {
        for plane in planes.chunks_exact(w).rev() {
            // Candidates driving a 0 on this bus line win it; if none
            // does, every candidate drives a 1 and none drops out.
            let mut zeros = 0u64;
            for (c, p) in cand.iter().zip(plane) {
                zeros |= c & !p;
            }
            if zeros != 0 {
                for (c, p) in cand.iter_mut().zip(plane) {
                    *c &= !p;
                }
            }
        }
    }
    rotating_first(cand, n, start)
}

// --- Packed 16-bit lane kernels (single-word masks, n <= 64) -------------
//
// The LCF min-NRQ scan visits every live requester of a resource; on dense
// heavy-traffic matrices that is Θ(n²/2) candidate probes per schedule. The
// lane kernels instead keep the NRQ table as packed 16-bit lanes (4 per
// word) and find the minimum — *including* the rotating tie-break — with
// word-parallel compares: each lane's search key is `(nrq << 7) | rotation
// position`, so one unsigned lane-min yields both the smallest count and,
// among ties, the first requester in the rotating order.

/// High bit of each 16-bit lane.
const H16: u64 = 0x8000_8000_8000_8000;
/// All-lanes sentinel: larger than any valid key, small enough that the
/// borrow-free SWAR compare stays per-lane.
const SENT16: u64 = 0x7FFF_7FFF_7FFF_7FFF;
/// 1 in each 16-bit lane.
const ONE16: u64 = 0x0001_0001_0001_0001;

/// Lane masks per 4-bit member nibble: entry `b` has lane `l` = `0xFFFF`
/// iff bit `l` of `b` is set.
const fn lane16_lut() -> [u64; 16] {
    let mut t = [0u64; 16];
    let mut b = 0;
    while b < 16 {
        let mut l = 0;
        while l < 4 {
            if (b >> l) & 1 == 1 {
                t[b] |= 0xFFFF << (16 * l);
            }
            l += 1;
        }
        b += 1;
    }
    t
}
static LANE16_LUT: [u64; 16] = lane16_lut();

/// Per-lane unsigned minimum; both operands' lanes must be `<= 0x7FFF` so
/// the `(a | H) - b` borrow trick never crosses a lane boundary.
#[inline]
fn min16(a: u64, b: u64) -> u64 {
    let ge = ((a | H16) - b) & H16; // lane high bit set iff a >= b
    let sel = (ge >> 15).wrapping_mul(0xFFFF); // 0xFFFF where a >= b
    a ^ ((a ^ b) & sel)
}

/// Number of 16-bit-lane words covering `n` lanes.
#[inline]
pub fn lane16_words(n: usize) -> usize {
    assert!(
        (1..=WORD_BITS).contains(&n),
        "lane16 kernels require 1 <= n <= {WORD_BITS}"
    );
    n.div_ceil(4)
}

/// The NRQ count's position within a lane: the low 7 bits hold the
/// rotation position, so a lane compares as `(count << 7) | rotation`.
const LANE16_COUNT_SHIFT: u32 = 7;

/// Builds the rotation-position table consumed by [`min_lane16_rotating`]:
/// for each `start` in `0..n`, `lane16_words(n)` words whose lane `i`
/// holds `(i - start) mod n`. Precomputing this (`n²/4` words, a few KB)
/// keeps the per-scan work to one load+add+mask+min per word.
///
/// # Panics
/// Panics if `n` is 0 or exceeds [`WORD_BITS`].
pub fn lane16_rot_table(n: usize) -> Vec<u64> {
    let nw = lane16_words(n);
    let mut table = vec![0u64; n * nw];
    for start in 0..n {
        for i in 0..n {
            let rot = ((i + n - start) % n) as u64;
            table[start * nw + i / 4] |= rot << (16 * (i % 4));
        }
    }
    table
}

/// Packs per-port counts into 16-bit lanes: lane `i % 4` of
/// `keys16[i / 4]` becomes `counts[i] << 7` (shifted past the
/// rotation-position field). This is the NRQ table layout consumed by
/// [`min_lane16_rotating`] and maintained by [`lane16_decrement`]; the
/// counts come straight from the request matrix's kept NRQ.
///
/// # Panics
/// Panics if `counts.len() < n` or `n > 64`.
pub fn lane16_pack_counts(counts: &[u32], n: usize, keys16: &mut Vec<u64>) {
    let nw = lane16_words(n);
    assert!(
        counts.len() >= n,
        "lane16_pack_counts: counts shorter than n"
    );
    keys16.clear();
    keys16.resize(nw, 0);
    for (i, &count) in counts.iter().enumerate().take(n) {
        keys16[i / 4] |= (u64::from(count) << LANE16_COUNT_SHIFT) << (16 * (i % 4));
    }
}

/// Subtracts 1 from the packed count of every index whose bit is set in
/// `members`. Counts must be nonzero for every member (the caller's NRQ
/// invariant: a live requester of a granted resource has a count of at
/// least 1).
pub fn lane16_decrement(keys16: &mut [u64], members: u64) {
    let dec = ONE16 << LANE16_COUNT_SHIFT;
    for (k, word) in keys16.iter_mut().enumerate() {
        *word -= LANE16_LUT[(members >> (4 * k)) as usize & 0xF] & dec;
    }
}

/// Among the set bits of `cand` (a single-word mask, `n <= 64`), the index
/// with the smallest packed count in `keys16`, ties broken by the rotating
/// order starting at `start` — the packed-lane form of
/// [`min_key_rotating`]. Counts must be at most [`WORD_BITS`] (NRQ
/// values); `rot` is the [`lane16_rot_table`] for this `n`. The scan is
/// word-parallel: each candidate lane is compared as `(count << 7) |
/// rotation position`, so the minimum lane directly encodes the winner
/// with the correct tie-break and no per-candidate loop runs.
///
/// # Panics
/// Panics if `start >= n`, `n > 64`, `keys16` has fewer than
/// `lane16_words(n)` words, or `rot` is not a full `n`-start table —
/// checked in release too.
pub fn min_lane16_rotating(
    cand: u64,
    n: usize,
    start: usize,
    keys16: &[u64],
    rot: &[u64],
) -> Option<usize> {
    let nw = lane16_words(n);
    assert!(
        start < n,
        "min_lane16_rotating: start {start} out of range for n = {n}"
    );
    assert!(
        keys16.len() >= nw,
        "min_lane16_rotating: keys16 has {} words, n = {n} needs {nw}",
        keys16.len()
    );
    assert!(
        rot.len() >= n * nw,
        "min_lane16_rotating: rot table has {} words, n = {n} needs {}",
        rot.len(),
        n * nw
    );
    debug_assert!(n == WORD_BITS || cand >> n == 0, "cand has bits beyond n");
    if cand == 0 {
        return None;
    }
    let rot = &rot[start * nw..start * nw + nw];
    let mut acc = SENT16;
    for k in 0..nw {
        let lut = LANE16_LUT[(cand >> (4 * k)) as usize & 0xF];
        let masked = ((keys16[k] + rot[k]) | !lut) & SENT16;
        acc = min16(acc, masked);
    }
    acc = min16(acc, (acc >> 32) | 0x7FFF_7FFF_0000_0000);
    acc = min16(acc, (acc >> 16) | 0x7FFF_7FFF_7FFF_0000);
    let rotpos = (acc & 0x7F) as usize;
    let mut idx = rotpos + start;
    if idx >= n {
        idx -= n;
    }
    Some(idx)
}

/// [`min_lane16_rotating`] fused with the grant's NRQ update: when the scan
/// finds a winner (`cand != 0`), every candidate's packed count is
/// decremented in the same pass over the lane words — the caller MUST treat
/// a `Some` return as a grant of the scanned resource. This is the inner
/// step of the LCF resource loop, where a non-empty candidate set always
/// produces a grant; fusing the update saves a second walk (and a second
/// set of lane-mask lookups) over the key words.
///
/// # Panics
/// Same contract as [`min_lane16_rotating`], checked in release too.
pub fn min_lane16_rotating_grant(
    cand: u64,
    n: usize,
    start: usize,
    keys16: &mut [u64],
    rot: &[u64],
) -> Option<usize> {
    let nw = lane16_words(n);
    assert!(
        start < n,
        "min_lane16_rotating_grant: start {start} out of range for n = {n}"
    );
    assert!(
        keys16.len() >= nw,
        "min_lane16_rotating_grant: keys16 has {} words, n = {n} needs {nw}",
        keys16.len()
    );
    assert!(
        rot.len() >= n * nw,
        "min_lane16_rotating_grant: rot table has {} words, n = {n} needs {}",
        rot.len(),
        n * nw
    );
    debug_assert!(n == WORD_BITS || cand >> n == 0, "cand has bits beyond n");
    if cand == 0 {
        return None;
    }
    let rot = &rot[start * nw..start * nw + nw];
    let dec = ONE16 << LANE16_COUNT_SHIFT;
    // Two independent accumulators halve the `min16` dependency chain, and
    // words with no candidate lanes are skipped outright (no min
    // contribution, no decrement) — late resources in a heavy-traffic
    // schedule have few unmatched requesters left, so most words are empty.
    let mut acc0 = SENT16;
    let mut acc1 = SENT16;
    let mut k = 0;
    while k < nw {
        let nib = (cand >> (4 * k)) as usize & 0xF;
        if nib != 0 {
            let lut = LANE16_LUT[nib];
            let keys = keys16[k];
            acc0 = min16(acc0, ((keys + rot[k]) | !lut) & SENT16);
            keys16[k] = keys - (lut & dec);
        }
        k += 1;
        if k >= nw {
            break;
        }
        let nib = (cand >> (4 * k)) as usize & 0xF;
        if nib != 0 {
            let lut = LANE16_LUT[nib];
            let keys = keys16[k];
            acc1 = min16(acc1, ((keys + rot[k]) | !lut) & SENT16);
            keys16[k] = keys - (lut & dec);
        }
        k += 1;
    }
    let mut acc = min16(acc0, acc1);
    acc = min16(acc, (acc >> 32) | 0x7FFF_7FFF_0000_0000);
    acc = min16(acc, (acc >> 16) | 0x7FFF_7FFF_7FFF_0000);
    let rotpos = (acc & 0x7F) as usize;
    let mut idx = rotpos + start;
    if idx >= n {
        idx -= n;
    }
    Some(idx)
}

// --- Request–grant–accept skeleton ------------------------------------------
//
// iSLIP, PIM and distributed LCF share one iteration (request, grant,
// accept) and differ only in how an output picks among its requesters and
// how an input picks among its grants. The skeleton below runs the iteration
// on the kept columns and touches only ports that can still match: an output
// is visited only while some unmatched input requests it, an input only when
// it holds a grant. The picks are a trait, monomorphized per scheduler.

/// The per-port picks of a request–grant–accept matcher: the part iSLIP
/// (rotating pointers), PIM (uniform random choice) and distributed LCF
/// (least NRQ, then least NGT) do not share.
pub(crate) trait GrantAccept {
    /// Called at the start of every iteration. `live_out` holds only
    /// unmatched outputs, and every one an unmatched input requests, so an
    /// unmatched input's requests to unmatched outputs are `row & live_out`.
    fn begin(&mut self, _unmatched_in: &[u64], _live_out: &[u64]) {}

    /// Output `output` grants one of the set bits of `cand` (its unmatched
    /// requesters, never empty; the pick may narrow it in place) and records
    /// the grant for the accept step. Called in ascending output order.
    fn grant(&mut self, output: usize, cand: &mut [u64]) -> Option<usize>;

    /// Input `input`, which holds at least one grant from this iteration,
    /// accepts one and forgets them all. `first` is true in iteration 0.
    /// Called in ascending input order within an iteration.
    fn accept(&mut self, input: usize, first: bool) -> Option<usize>;
}

/// The live-port request–grant–accept iteration and its four
/// `words_for(n)`-word scratch masks (sized at construction, reused across
/// calls).
#[derive(Clone, Debug)]
pub(crate) struct RequestGrantAccept {
    n: usize,
    unmatched_in: Vec<u64>,
    /// Unmatched outputs that may still have an unmatched requester: an
    /// output leaves when it matches or when a grant scan finds no
    /// requester, and inputs only ever leave `unmatched_in`, so a dead
    /// output stays dead for the rest of the call.
    live_out: Vec<u64>,
    /// Inputs holding a grant in the current iteration.
    granted_in: Vec<u64>,
    cand: Vec<u64>,
}

impl RequestGrantAccept {
    /// Scratch for an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        let w = words_for(n);
        RequestGrantAccept {
            n,
            unmatched_in: vec![0; w],
            live_out: vec![0; w],
            granted_in: vec![0; w],
            cand: vec![0; w],
        }
    }

    /// Runs up to `iterations` request–grant–accept rounds on `requests`
    /// into `out`, stopping after the first round that adds no match. `out`
    /// starts empty but for `pre_grant`, if that is a request (`lcf_dist_rr`'s
    /// round-robin position). Per round, after [`GrantAccept::begin`]:
    ///
    /// 1. **Request and grant** — each output in `live_out`, ascending,
    ///    masks its kept column by `unmatched_in`. An empty mask drops the
    ///    output from `live_out`; otherwise [`GrantAccept::grant`] picks an
    ///    input and sets its bit in `granted_in`.
    /// 2. **Accept** — each input in `granted_in`, ascending, calls
    ///    [`GrantAccept::accept`] and is matched to the output it picks,
    ///    which leaves `live_out`. `granted_in` is consumed word by word,
    ///    so no mask is cleared in bulk.
    ///
    /// The ports visited, their order and the candidate masks are those of
    /// a scan over every unmatched port that skips empty candidate sets, so
    /// the matchings, pick calls and traced events equal the scalar
    /// reference kernels'.
    ///
    /// # Panics
    /// Panics if `requests` is not `n × n`.
    pub(crate) fn run<P: GrantAccept>(
        &mut self,
        picks: &mut P,
        requests: &RequestMatrix,
        pre_grant: Option<(usize, usize)>,
        iterations: usize,
        out: &mut Matching,
        trace: &mut IterationTrace,
    ) {
        assert_eq!(requests.n(), self.n, "request_grant_accept: size mismatch");
        out.reset(self.n);
        mask_fill(&mut self.unmatched_in, self.n);
        mask_fill(&mut self.live_out, self.n);
        if let Some((i, j)) = pre_grant.filter(|&(i, j)| requests.get(i, j)) {
            out.connect(i, j);
            clear_bit(&mut self.unmatched_in, i);
            clear_bit(&mut self.live_out, j);
            trace.pre_grant(i, j);
        }
        // One body for every width. A literal `w` folds through every mask
        // loop, the inlined picks' included: `w = 4` (n = 193..256) made the
        // n = 256 iSLIP call 7–13 % faster, and without `w = 1` distributed
        // LCF's n = 32 call took 4.7 µs, not 3.5. Folding `w = 2` measured
        // no gain for iSLIP.
        match self.cand.len() {
            1 => self.pass(1, picks, requests, iterations, out, trace),
            4 => self.pass(4, picks, requests, iterations, out, trace),
            w => self.pass(w, picks, requests, iterations, out, trace),
        }
    }

    #[inline(always)]
    fn pass<P: GrantAccept>(
        &mut self,
        w: usize,
        picks: &mut P,
        requests: &RequestMatrix,
        iterations: usize,
        out: &mut Matching,
        trace: &mut IterationTrace,
    ) {
        let cols = requests.cols().all_words();
        // Local slices, so the body below reads no `self` fields.
        let unmatched_in = &mut self.unmatched_in[..w];
        let live_out = &mut self.live_out[..w];
        let granted_in = &mut self.granted_in[..w];
        let cand = &mut self.cand[..w];

        for iter in 0..iterations {
            trace.begin_iteration(requests, out);
            picks.begin(unmatched_in, live_out);
            // Request and grant.
            for (wi, live) in live_out.iter_mut().enumerate() {
                let mut outs = *live;
                while outs != 0 {
                    let bit = outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    let j = wi * WORD_BITS + bit;
                    let mut any = 0;
                    for ((c, &col), &free) in cand
                        .iter_mut()
                        .zip(&cols[j * w..(j + 1) * w])
                        .zip(&*unmatched_in)
                    {
                        *c = col & free;
                        any |= *c;
                    }
                    if any == 0 {
                        *live &= !(1u64 << bit);
                    } else if let Some(i) = picks.grant(j, cand) {
                        set_bit(granted_in, i);
                        trace.grant(i, j);
                    }
                }
            }

            // Accept.
            let mut new_matches = 0;
            for (wi, granted) in granted_in.iter_mut().enumerate() {
                let mut ins = std::mem::take(granted);
                while ins != 0 {
                    let i = wi * WORD_BITS + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    if let Some(j) = picks.accept(i, iter == 0) {
                        out.connect(i, j);
                        clear_bit(unmatched_in, i);
                        clear_bit(live_out, j);
                        new_matches += 1;
                        trace.accept(i, j);
                    }
                }
            }
            trace.end_iteration(iter, new_matches);
            if new_matches == 0 {
                break;
            }
        }
    }
}

/// True if every bit at or beyond `n` is zero (the mask contract).
fn excess_is_zero(mask: &[u64], n: usize) -> bool {
    let w = words_for(n);
    let used = n - (w - 1) * WORD_BITS;
    let excess_last = if used == WORD_BITS {
        0
    } else {
        mask[w - 1] >> used
    };
    excess_last == 0 && mask[w..].iter().all(|&word| word == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{min_rotating, select_rotating};

    /// Port counts crossing every word-boundary case: single word, exact
    /// boundary, boundary + 1, and multi-word interiors.
    const SIZES: [usize; 10] = [1, 2, 7, 31, 64, 65, 127, 128, 192, 256];

    /// Miri interprets ~two orders of magnitude slower than native; shrink
    /// the pseudo-random seed sweeps so the UB-detection pass stays fast
    /// while still crossing every word-boundary size in `SIZES`.
    fn sweep(seeds: u64) -> u64 {
        if cfg!(miri) {
            seeds.min(2)
        } else {
            seeds
        }
    }

    /// A deterministic pseudo-random w-word mask for port count n.
    fn mask_for(n: usize, seed: u64) -> Vec<u64> {
        let w = words_for(n);
        let mut mask: Vec<u64> = (0..w as u64)
            .map(|wi| {
                (seed ^ wi.wrapping_mul(0xA076_1D64_78BD_642F))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left((seed + wi) as u32)
            })
            .collect();
        let used = n - (w - 1) * WORD_BITS;
        mask[w - 1] &= mask_n(used);
        mask
    }

    #[test]
    fn mask_n_extremes() {
        assert_eq!(mask_n(1), 1);
        assert_eq!(mask_n(5), 0b11111);
        assert_eq!(mask_n(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mask_n requires")]
    fn mask_n_rejects_oversize_in_release_too() {
        let _ = mask_n(65);
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
        assert_eq!(words_for(1024), 16);
    }

    #[test]
    fn mask_fill_matches_bit_loop() {
        for n in SIZES {
            let mut mask = vec![0u64; words_for(n)];
            mask_fill(&mut mask, n);
            assert_eq!(popcount(&mask), n, "n = {n}");
            for idx in 0..n {
                assert!(test_bit(&mask, idx), "n = {n} idx = {idx}");
            }
            assert!(excess_is_zero(&mask, n), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "mask_fill")]
    fn mask_fill_rejects_short_mask() {
        let mut mask = vec![0u64; 1];
        mask_fill(&mut mask, 65);
    }

    #[test]
    fn bit_ops_roundtrip() {
        let mut mask = vec![0u64; 4];
        for idx in [0, 63, 64, 130, 255] {
            assert!(!test_bit(&mask, idx));
            set_bit(&mut mask, idx);
            assert!(test_bit(&mask, idx));
        }
        assert_eq!(popcount(&mask), 5);
        clear_bit(&mut mask, 64);
        assert!(!test_bit(&mask, 64));
        assert_eq!(popcount(&mask), 4);
    }

    #[test]
    #[should_panic]
    fn test_bit_out_of_range_is_loud() {
        let mask = vec![0u64; 2];
        let _ = test_bit(&mask, 128);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Bitset] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("simd"), None);
        assert_eq!(Backend::default(), Backend::Bitset);
    }

    #[test]
    fn word_parallel_is_backend_only() {
        // The multi-word kernels removed the n <= 64 cliff: the bitset
        // backend is word-parallel at every port count.
        assert!(Backend::Bitset.word_parallel());
        assert!(!Backend::Scalar.word_parallel());
    }

    #[test]
    fn col_masks_transpose() {
        for n in [37, 64, 65, 130, 200] {
            let w = words_for(n);
            let mut rows = vec![0u64; n * w];
            for i in 0..n {
                for j in (0..n).filter(|j| (i * 7 + j * 3) % 5 == 0) {
                    set_bit(&mut rows[i * w..(i + 1) * w], j);
                }
            }
            let mut cols = Vec::new();
            col_masks(&rows, n, &mut cols);
            assert_eq!(cols.len(), n * w);
            for i in 0..n {
                for j in 0..n {
                    let want = (i * 7 + j * 3) % 5 == 0;
                    assert_eq!(test_bit(&rows[i * w..(i + 1) * w], j), want);
                    assert_eq!(test_bit(&cols[j * w..(j + 1) * w], i), want);
                }
            }
        }
    }

    #[test]
    fn rotating_first_matches_select_rotating() {
        for n in SIZES {
            for seed in 0..sweep(20) {
                let mask = mask_for(n, seed);
                for start in (0..n).step_by((n / 9).max(1)) {
                    let scalar = select_rotating(n, start, |i| test_bit(&mask, i));
                    assert_eq!(
                        rotating_first(&mask, n, start),
                        scalar,
                        "n={n} seed={seed} start={start}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rotating_first")]
    fn rotating_first_rejects_short_mask_in_release_too() {
        let mask = vec![u64::MAX; 1];
        let _ = rotating_first(&mask, 128, 0);
    }

    #[test]
    fn kth_set_bit_enumerates_ascending() {
        let mask = [0b1011_0101u64];
        let expected = [0usize, 2, 4, 5, 7];
        for (k, &bit) in expected.iter().enumerate() {
            assert_eq!(kth_set_bit(&mask, k), bit);
        }
        assert_eq!(kth_set_bit(&[u64::MAX], 63), 63);
        // Multi-word: bits straddling word boundaries enumerate in order.
        let mask = [1u64 << 63, 0b101u64, 0, 1u64 << 7];
        assert_eq!(kth_set_bit(&mask, 0), 63);
        assert_eq!(kth_set_bit(&mask, 1), 64);
        assert_eq!(kth_set_bit(&mask, 2), 66);
        assert_eq!(kth_set_bit(&mask, 3), 192 + 7);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn kth_set_bit_absent_is_loud_in_release_too() {
        let _ = kth_set_bit(&[0b11u64, 0], 2);
    }

    #[test]
    fn min_key_rotating_matches_min_rotating() {
        for n in SIZES {
            for seed in 0..sweep(20) {
                let mask = mask_for(n, seed.wrapping_mul(0xD134_2543_DE82_EF95));
                let key: Vec<usize> = (0..n)
                    .map(|i| (seed as usize).wrapping_mul(i + 3) % 5)
                    .collect();
                for start in (0..n).step_by((n / 7).max(1)) {
                    let scalar = min_rotating(n, start, |i| test_bit(&mask, i).then_some(key[i]));
                    assert_eq!(
                        min_key_rotating(&mask, n, start, &key),
                        scalar,
                        "n={n} seed={seed} start={start}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key table")]
    fn min_key_rotating_rejects_short_key_in_release_too() {
        let mask = vec![0u64; 2];
        let key = vec![0usize; 64];
        let _ = min_key_rotating(&mask, 128, 0, &key);
    }

    #[test]
    fn col_masks_dense_and_corner_bits() {
        // Full matrix: every column mask is the all-ports mask.
        for n in SIZES {
            let w = words_for(n);
            let mut full = vec![0u64; w];
            mask_fill(&mut full, n);
            let rows: Vec<u64> = (0..n).flat_map(|_| full.clone()).collect();
            let mut cols = Vec::new();
            col_masks(&rows, n, &mut cols);
            for j in 0..n {
                assert_eq!(&cols[j * w..(j + 1) * w], &full[..], "n = {n} j = {j}");
            }
        }
        // Single bits at the four matrix corners land at the four
        // transposed corners, with everything else zero.
        for n in SIZES {
            let w = words_for(n);
            let mut rows = vec![0u64; n * w];
            set_bit(&mut rows[0..w], 0);
            set_bit(&mut rows[0..w], n - 1);
            set_bit(&mut rows[(n - 1) * w..], 0);
            set_bit(&mut rows[(n - 1) * w..], n - 1);
            let mut cols = Vec::new();
            col_masks(&rows, n, &mut cols);
            for j in 0..n {
                let col = &cols[j * w..(j + 1) * w];
                if j == 0 || j == n - 1 {
                    let want = if n == 1 { 1 } else { 2 };
                    assert_eq!(popcount(col), want, "n = {n} j = {j}");
                    assert!(test_bit(col, 0) && test_bit(col, n - 1), "n = {n} j = {j}");
                } else {
                    assert_eq!(popcount(col), 0, "n = {n} j = {j}");
                }
            }
        }
    }

    /// The fused wide-LCF step picks exactly what the keyed rotating
    /// minimum picks and lowers every candidate's count by one.
    #[test]
    fn min_count_rotating_grant_matches_min_key_rotating() {
        for n in SIZES {
            for seed in 0..sweep(12) {
                let col = mask_for(n, seed.wrapping_mul(0x94D0_49BB_1331_11EB));
                // Counts >= 1 (the NRQ contract), few distinct values so the
                // rotating tie-break decides often.
                let counts: Vec<u32> = (0..n)
                    .map(|i| 1 + ((seed as usize).wrapping_mul(i * 29 + 5) >> 2) as u32 % 4)
                    .collect();
                let key: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
                let free = mask_for(n, seed ^ 0x5DEE_CE66);
                let cand: Vec<u64> = col.iter().zip(&free).map(|(c, f)| c & f).collect();
                for start in (0..n).step_by((n / 7).max(1)) {
                    let mut got = counts.clone();
                    assert_eq!(
                        min_count_rotating_grant(&col, &free, n, start, &mut got),
                        min_key_rotating(&cand, n, start, &key),
                        "n={n} seed={seed} start={start}"
                    );
                    for i in 0..n {
                        let want = counts[i] - u32::from(test_bit(&cand, i));
                        assert_eq!(got[i], want, "n={n} seed={seed} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_count_rotating_grant")]
    fn min_count_rotating_grant_rejects_short_counts_in_release_too() {
        let col = vec![0u64; 2];
        let mut counts = vec![1u32; 64];
        let _ = min_count_rotating_grant(&col, &col, 128, 0, &mut counts);
    }

    #[test]
    fn planes_for_is_the_bit_length() {
        assert_eq!(planes_for(0), 0);
        assert_eq!(planes_for(1), 1);
        assert_eq!(planes_for(7), 3);
        assert_eq!(planes_for(8), 4);
        assert_eq!(planes_for(64), 7);
        assert_eq!(planes_for(256), 9);
        for n in SIZES {
            assert!(n < 1 << planes_for(n), "n = {n}");
        }
    }

    /// Scatters `key` into bit-planes over `n` ports.
    fn planes_of(key: &[usize], n: usize) -> Vec<u64> {
        let w = words_for(n);
        let mut planes = vec![0u64; planes_for(n) * w];
        for (idx, &k) in key.iter().enumerate() {
            plane_scatter(&mut planes, w, idx, k);
        }
        planes
    }

    #[test]
    fn plane_scatter_round_trips_every_count() {
        for n in SIZES {
            let w = words_for(n);
            let key: Vec<usize> = (0..n).map(|i| (i * 37 + 11) % (n + 1)).collect();
            let planes = planes_of(&key, n);
            for (idx, &k) in key.iter().enumerate() {
                let read: usize = (0..planes_for(n))
                    .map(|b| usize::from(test_bit(&planes[b * w..(b + 1) * w], idx)) << b)
                    .sum();
                assert_eq!(read, k, "n = {n} idx = {idx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "plane_scatter")]
    fn plane_scatter_rejects_count_beyond_planes_in_release_too() {
        let mut planes = vec![0u64; 2]; // two planes of one word: counts < 4
        plane_scatter(&mut planes, 1, 0, 4);
    }

    /// The bit-sliced minimum picks exactly what the keyed rotating minimum
    /// picks, with the planes read up to the largest live count only, on
    /// the single-word path and across word boundaries.
    #[test]
    fn min_plane_rotating_matches_min_key_rotating() {
        for n in SIZES {
            for seed in 0..sweep(16) {
                let mask = mask_for(n, seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                // Few distinct values, so ties (and the rotating tie-break)
                // are common; every third seed uses the full 0..=n range.
                let modulus = if seed % 3 == 0 { n + 1 } else { (n + 1).min(4) };
                let key: Vec<usize> = (0..n)
                    .map(|i| ((seed as usize).wrapping_mul(i * 29 + 5) >> 2) % modulus)
                    .collect();
                let planes = planes_of(&key, n);
                let live_max = (0..n)
                    .filter(|&i| test_bit(&mask, i))
                    .map(|i| key[i])
                    .max()
                    .unwrap_or(0);
                for start in (0..n).step_by((n / 7).max(1)) {
                    let want = min_key_rotating(&mask, n, start, &key);
                    for top in [planes_for(live_max), planes_for(n)] {
                        let mut cand = mask.clone();
                        assert_eq!(
                            min_plane_rotating(&mut cand, n, start, &planes, top),
                            want,
                            "n={n} seed={seed} start={start} top={top}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_plane_rotating")]
    fn min_plane_rotating_rejects_short_planes_in_release_too() {
        let mut cand = vec![u64::MAX; 2];
        let planes = vec![0u64; 2]; // one plane of two words
        let _ = min_plane_rotating(&mut cand, 128, 0, &planes, 2);
    }

    #[test]
    fn lane16_pack_and_decrement_roundtrip() {
        for n in [1, 3, 4, 5, 31, 33, 64] {
            let counts: Vec<u32> = (0..n)
                .map(|i| mask_for(64, i as u64 + 7)[0].count_ones())
                .collect();
            let mut keys = Vec::new();
            lane16_pack_counts(&counts, n, &mut keys);
            assert_eq!(keys.len(), lane16_words(n));
            let lane = |keys: &[u64], i: usize| {
                ((keys[i / 4] >> (16 * (i % 4))) & 0xFFFF) >> LANE16_COUNT_SHIFT
            };
            for (i, &count) in counts.iter().enumerate() {
                assert_eq!(lane(&keys, i), u64::from(count), "n={n} i={i}");
            }
            // Decrement a member set (restricted to nonzero lanes, per the
            // kernel contract); only member lanes drop, by exactly 1.
            let before: Vec<u64> = (0..n).map(|i| lane(&keys, i)).collect();
            let nonzero = (0..n).fold(0u64, |m, i| m | (u64::from(before[i] > 0) << i));
            let members = mask_for(n.min(64), 99)[0] & nonzero;
            lane16_decrement(&mut keys, members);
            for (i, &b) in before.iter().enumerate() {
                let want = b - u64::from(members >> i & 1 == 1);
                assert_eq!(lane(&keys, i), want, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn min_lane16_rotating_matches_min_key_rotating() {
        for n in [1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 47, 63, 64] {
            for seed in 0..sweep(16) {
                let cand = mask_for(n, seed.wrapping_mul(0x9E6C_63D0_876A_68AD))[0];
                let key: Vec<usize> = (0..n)
                    .map(|i| ((seed as usize).wrapping_mul(i * 31 + 17) >> 3) % (WORD_BITS + 1))
                    .collect();
                let mut keys16 = vec![0u64; lane16_words(n)];
                for (i, &k) in key.iter().enumerate() {
                    keys16[i / 4] |= ((k as u64) << LANE16_COUNT_SHIFT) << (16 * (i % 4));
                }
                let rot = lane16_rot_table(n);
                for start in 0..n {
                    assert_eq!(
                        min_lane16_rotating(cand, n, start, &keys16, &rot),
                        min_key_rotating(&[cand], n, start, &key),
                        "n={n} seed={seed} start={start} cand={cand:#x}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_lane16_rotating")]
    fn min_lane16_rotating_rejects_short_keys_in_release_too() {
        let keys = vec![0u64; 1];
        let _ = min_lane16_rotating(u64::MAX, 64, 0, &keys, &[]);
    }

    /// The fused scan+grant kernel must return the same winner as the plain
    /// scan and leave the keys exactly as a separate `lane16_decrement`
    /// would.
    #[test]
    fn min_lane16_rotating_grant_equals_scan_then_decrement() {
        for n in [1, 3, 4, 7, 16, 31, 32, 33, 63, 64] {
            for seed in 0..sweep(8) {
                let cand = mask_for(n, seed.wrapping_mul(0xA076_1D64_78BD_642F))[0];
                let mut keys16 = vec![0u64; lane16_words(n)];
                for i in 0..n {
                    // Nonzero counts so the post-grant decrement never wraps.
                    let k = 1 + ((seed as usize).wrapping_mul(i * 13 + 7) >> 2) % WORD_BITS;
                    keys16[i / 4] |= ((k as u64) << LANE16_COUNT_SHIFT) << (16 * (i % 4));
                }
                let rot = lane16_rot_table(n);
                for start in 0..n {
                    let mut fused = keys16.clone();
                    let got = min_lane16_rotating_grant(cand, n, start, &mut fused, &rot);
                    let want = min_lane16_rotating(cand, n, start, &keys16, &rot);
                    assert_eq!(got, want, "n={n} seed={seed} start={start}");
                    let mut separate = keys16.clone();
                    if got.is_some() {
                        lane16_decrement(&mut separate, cand);
                    }
                    assert_eq!(fused, separate, "n={n} seed={seed} start={start}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_lane16_rotating_grant")]
    fn min_lane16_rotating_grant_rejects_short_keys_in_release_too() {
        let mut keys = vec![0u64; 1];
        let _ = min_lane16_rotating_grant(u64::MAX, 64, 0, &mut keys, &[]);
    }

    /// Deterministic picks that log every call: a `begin` logs the
    /// unmatched-input mask followed by the live-output mask, a grant takes
    /// the `output mod count`-th candidate and then clears `cand` (a pick
    /// may narrow it), an accept takes the largest granting output. The
    /// grant lists live here, so the skeleton's own masks are not what the
    /// model and the skeleton share.
    struct LogPicks {
        grants: Vec<Vec<usize>>,
        log: Vec<(char, usize, Vec<u64>)>,
    }

    impl LogPicks {
        fn new(n: usize) -> Self {
            LogPicks {
                grants: vec![Vec::new(); n],
                log: Vec::new(),
            }
        }
    }

    impl GrantAccept for LogPicks {
        fn begin(&mut self, unmatched_in: &[u64], live_out: &[u64]) {
            self.log.push(('b', 0, [unmatched_in, live_out].concat()));
        }

        fn grant(&mut self, output: usize, cand: &mut [u64]) -> Option<usize> {
            self.log.push(('g', output, cand.to_vec()));
            let count = popcount(cand);
            let i = kth_set_bit(cand, output % count);
            cand.fill(0);
            self.grants[i].push(output);
            Some(i)
        }

        fn accept(&mut self, input: usize, first: bool) -> Option<usize> {
            self.log.push(('a', input, vec![u64::from(first)]));
            let j = self.grants[input].iter().copied().max();
            self.grants[input].clear();
            j
        }
    }

    /// The reference the skeleton must equal: the pre-grant, if it is a
    /// request, is matched first; then every unmatched port is scanned, and
    /// a port with no candidate (output) or no grant (input) is skipped.
    /// `begin` sees every unmatched input and every unmatched output that
    /// no earlier scan found without a requester.
    fn rga_model(
        picks: &mut LogPicks,
        requests: &RequestMatrix,
        pre_grant: Option<(usize, usize)>,
        iterations: usize,
        out: &mut Matching,
        trace: &mut IterationTrace,
    ) {
        let n = requests.n();
        let w = words_for(n);
        out.reset(n);
        if let Some((i, j)) = pre_grant.filter(|&(i, j)| requests.get(i, j)) {
            out.connect(i, j);
            trace.pre_grant(i, j);
        }
        let mut dead = vec![false; n];
        for iter in 0..iterations {
            trace.begin_iteration(requests, out);
            let (mut unmatched_in, mut live_out) = (vec![0u64; w], vec![0u64; w]);
            for i in (0..n).filter(|&i| !out.input_matched(i)) {
                set_bit(&mut unmatched_in, i);
            }
            for j in (0..n).filter(|&j| !out.output_matched(j) && !dead[j]) {
                set_bit(&mut live_out, j);
            }
            picks.begin(&unmatched_in, &live_out);
            let mut granted = vec![false; n];
            for j in (0..n).filter(|&j| !out.output_matched(j)) {
                let mut cand = vec![0u64; w];
                for i in (0..n).filter(|&i| !out.input_matched(i) && requests.get(i, j)) {
                    set_bit(&mut cand, i);
                }
                if popcount(&cand) == 0 {
                    dead[j] = true;
                } else if let Some(i) = picks.grant(j, &mut cand) {
                    granted[i] = true;
                    trace.grant(i, j);
                }
            }
            let mut new_matches = 0;
            for i in (0..n).filter(|&i| granted[i]) {
                if let Some(j) = picks.accept(i, iter == 0) {
                    out.connect(i, j);
                    new_matches += 1;
                    trace.accept(i, j);
                }
            }
            trace.end_iteration(iter, new_matches);
            if new_matches == 0 {
                break;
            }
        }
    }

    /// A seeded request matrix whose rows and columns sit at `density`.
    fn random_requests(n: usize, density: f64, seed: u64) -> RequestMatrix {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        RequestMatrix::random(n, density, &mut StdRng::seed_from_u64(seed))
    }

    /// Each request matrix runs without a pre-grant and with one drawn
    /// from its requests (a non-request, which must be ignored, when it has
    /// none).
    #[test]
    fn request_grant_accept_matches_model_call_for_call() {
        for n in SIZES {
            let mut rga = RequestGrantAccept::new(n);
            for density in [0.0, 0.024, 0.3, 1.0] {
                for seed in 0..sweep(3) {
                    let requests = random_requests(n, density, seed);
                    let pairs: Vec<(usize, usize)> = (0..n)
                        .flat_map(|i| requests.row_ones(i).map(move |j| (i, j)))
                        .collect();
                    let drawn = match pairs.len() {
                        0 => (seed as usize % n, (seed as usize + 1) % n),
                        len => pairs[seed as usize * 7919 % len],
                    };
                    for (pre, iterations) in
                        [(None, 1), (None, 4), (Some(drawn), 1), (Some(drawn), 4)]
                    {
                        let (mut got, mut want) = (LogPicks::new(n), LogPicks::new(n));
                        let (mut got_m, mut want_m) = (Matching::new(n), Matching::new(n));
                        let mut got_t = IterationTrace::default();
                        let mut want_t = IterationTrace::default();
                        got_t.set_tracing(true);
                        want_t.set_tracing(true);
                        let label = format!(
                            "n={n} density={density} seed={seed} pre={pre:?} it={iterations}"
                        );
                        rga.run(&mut got, &requests, pre, iterations, &mut got_m, &mut got_t);
                        rga_model(
                            &mut want,
                            &requests,
                            pre,
                            iterations,
                            &mut want_m,
                            &mut want_t,
                        );
                        assert_eq!(got.log, want.log, "{label}: pick calls differ");
                        assert_eq!(got_m, want_m, "{label}: matchings differ");
                        assert_eq!(got_t, want_t, "{label}: traces differ");
                        assert!(
                            rga.granted_in.iter().all(|&word| word == 0),
                            "{label}: grant mask left set"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn request_grant_accept_skips_outputs_whose_requesters_matched() {
        // Iteration 0: output 0 grants input 1 (the 0-th candidate), output 1
        // grants input 1 too, output 2 grants input 2 (its only requester).
        // Input 1 accepts output 1, so output 0's requesters {1, 2} are
        // both matched: iteration 1 must not visit it, and nothing is left.
        let requests = RequestMatrix::from_pairs(4, [(1, 0), (2, 0), (1, 1), (2, 2)]);
        let mut rga = RequestGrantAccept::new(4);
        let mut picks = LogPicks::new(4);
        let mut out = Matching::new(4);
        let mut trace = IterationTrace::default();
        rga.run(&mut picks, &requests, None, 4, &mut out, &mut trace);
        assert_eq!(out.pairs().collect::<Vec<_>>(), vec![(1, 1), (2, 2)]);
        let outputs: Vec<(char, usize)> = picks.log.iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(
            outputs,
            vec![
                ('b', 0),
                ('g', 0),
                ('g', 1),
                ('g', 2),
                ('a', 1),
                ('a', 2),
                ('b', 0)
            ],
            "iteration 1 visits no port"
        );
        assert_eq!(trace.new_matches, vec![2, 0]);
        assert_eq!(trace.converged_after, Some(2));
    }

    #[test]
    #[should_panic(expected = "request_grant_accept")]
    fn request_grant_accept_rejects_size_mismatch() {
        let mut rga = RequestGrantAccept::new(8);
        let mut out = Matching::new(4);
        let mut trace = IterationTrace::default();
        rga.run(
            &mut LogPicks::new(4),
            &RequestMatrix::new(4),
            None,
            1,
            &mut out,
            &mut trace,
        );
    }
}
