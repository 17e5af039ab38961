//! Model test of the state `RequestMatrix` keeps beside its row bits: the
//! transpose (column words), NRQ per requester and NGT per resource.
//!
//! Random sequences of every mutator run against a plain `Vec<bool>` model.
//! After each operation the row bits must equal the model, and the kept
//! columns and counts must equal a recount from the row bits, at port
//! counts on both sides of every word boundary.

use lcf_core::bitmat::BitMatrix;
use lcf_core::request::RequestMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 7] = [1, 3, 63, 64, 65, 130, 256];

/// Operations per port count: enough for rows and columns to fill up and
/// drain again several times over at small `n`.
const OPS: usize = 120;

/// A dense reference model: `bits[i * n + j]` is request `(i, j)`.
struct Model {
    n: usize,
    bits: Vec<bool>,
}

impl Model {
    fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.n + j]
    }

    fn set(&mut self, i: usize, j: usize, value: bool) {
        self.bits[i * self.n + j] = value;
    }
}

/// Asserts that `m` holds the model's bits and that its kept columns and
/// counts equal a recount from its own row bits.
fn assert_consistent(m: &RequestMatrix, model: &Model, what: &str) {
    let n = model.n;
    assert_eq!(m.n(), n, "{what}");
    for i in 0..n {
        for j in 0..n {
            assert_eq!(m.get(i, j), model.get(i, j), "{what}: bit ({i}, {j})");
        }
    }
    let rows = m.bits();
    let cols = m.cols();
    for j in 0..n {
        // Column words: bit i of column j is row bit (i, j).
        let mut want = vec![0u64; n.div_ceil(64)];
        for i in (0..n).filter(|&i| rows.get(i, j)) {
            want[i / 64] |= 1 << (i % 64);
        }
        assert_eq!(cols.row_words(j), &want[..], "{what}: column {j} words");
        // NGT and `col_ones` against a bit scan of the rows.
        let scan: Vec<usize> = (0..n).filter(|&i| rows.get(i, j)).collect();
        assert_eq!(
            m.col_ones(j).collect::<Vec<_>>(),
            scan,
            "{what}: col_ones({j})"
        );
        assert_eq!(m.ngt(j), scan.len(), "{what}: NGT[{j}]");
    }
    for i in 0..n {
        let nrq = (0..n).filter(|&j| rows.get(i, j)).count();
        assert_eq!(m.nrq(i), nrq, "{what}: NRQ[{i}]");
        assert_eq!(m.nrq_counts()[i] as usize, nrq, "{what}: nrq_counts[{i}]");
        assert_eq!(
            m.requester_active(i),
            nrq > 0,
            "{what}: requester_active({i})"
        );
    }
    assert_eq!(
        m.count(),
        model.bits.iter().filter(|&&b| b).count(),
        "{what}: count"
    );
    assert_eq!(m.is_empty(), m.count() == 0, "{what}: is_empty");
    assert_eq!(m.check_kept_state(), Ok(()), "{what}: check_kept_state");
}

/// A random row of packed words with the given bit density.
fn random_row(n: usize, density: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for j in 0..n {
        if rng.gen_bool(density) {
            words[j / 64] |= 1 << (j % 64);
        }
    }
    words
}

fn run(n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = RequestMatrix::new(n);
    let mut model = Model {
        n,
        bits: vec![false; n * n],
    };
    assert_consistent(&m, &model, "new");
    for op in 0..OPS {
        // Densities from sparse (the wide switch's ~2.4%) to nearly full.
        let density = [0.024, 0.3, 0.9][op % 3];
        let what = match rng.gen_range(0..7) {
            0 | 1 => {
                // Bursts of single-bit sets and clears, as the switch makes
                // at VOQ transitions; some leave the bit as it was.
                for _ in 0..(n / 4).max(1) {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let value = rng.gen_bool(density);
                    m.set(i, j, value);
                    model.set(i, j, value);
                }
                "set"
            }
            2 => {
                let i = rng.gen_range(0..n);
                let words = random_row(n, density, &mut rng);
                m.set_row_words(i, &words);
                for j in 0..n {
                    model.set(i, j, words[j / 64] >> (j % 64) & 1 == 1);
                }
                "set_row_words"
            }
            3 => {
                let i = rng.gen_range(0..n);
                m.clear_requester(i);
                for j in 0..n {
                    model.set(i, j, false);
                }
                "clear_requester"
            }
            4 => {
                let j = rng.gen_range(0..n);
                m.clear_resource(j);
                for i in 0..n {
                    model.set(i, j, false);
                }
                "clear_resource"
            }
            5 => {
                // Overwrite from a fresh matrix, then keep mutating the copy.
                let src = RequestMatrix::random(n, density, &mut rng);
                m.copy_from(&src);
                for i in 0..n {
                    for j in 0..n {
                        model.set(i, j, src.get(i, j));
                    }
                }
                "copy_from"
            }
            _ => {
                let bits = BitMatrix::from_fn(n, |_, _| rng.gen_bool(density));
                for i in 0..n {
                    for j in 0..n {
                        model.set(i, j, bits.get(i, j));
                    }
                }
                m = RequestMatrix::from(bits);
                "From<BitMatrix>"
            }
        };
        assert_consistent(&m, &model, &format!("n={n} seed={seed} op {op} ({what})"));
    }
}

#[test]
fn kept_columns_and_counts_follow_every_mutator() {
    for n in SIZES {
        for seed in 0..2 {
            run(n, seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
}

/// `set_row_words` diffs the old row against the new one: rewriting a row
/// with itself changes nothing, and a row rewritten many times over keeps
/// the transpose exact (the traced benchmark loop copies every row every
/// slot this way).
#[test]
fn set_row_words_rewrites_are_idempotent() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in SIZES {
        let mut m = RequestMatrix::random(n, 0.1, &mut rng);
        let before = m.clone();
        for i in 0..n {
            let row = m.bits().row_words(i).to_vec();
            m.set_row_words(i, &row);
        }
        assert_eq!(m, before, "n = {n}");
        assert_eq!(m.check_kept_state(), Ok(()), "n = {n}");
    }
}
