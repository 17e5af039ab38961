//! Reference-model test of the shared-buffer `VoqSet`: random operation
//! sequences must give exactly the answers of `n` independent bounded
//! `VecDeque` FIFOs, for every port count and capacity, including drops
//! on a full VOQ and cell reuse after the whole set drains.

use lcf_sim::packet::Packet;
use lcf_sim::queues::VoqSet;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Port counts: one VOQ, a partial bitmap word, exactly one word, one
/// past a word, and three words.
const NS: [usize; 5] = [1, 3, 64, 65, 130];
/// VOQ capacities: every push beyond the first drops, two-deep, and the
/// paper's 256.
const CAPS: [usize; 3] = [1, 2, 256];

/// One operation; `raw` picks the destination.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u32),
    /// 64 back-to-back pushes to one destination: fills deep VOQs.
    Burst(u32),
    Pop(u32),
    /// Pops every VOQ empty, so the next pushes reuse freed cells.
    DrainAll,
    /// Compares every per-destination query over all `n` VOQs.
    Sweep,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, any::<u32>()).prop_map(|(kind, raw)| match kind {
        0..=6 => Op::Push(raw),
        7 => Op::Burst(raw),
        8..=13 => Op::Pop(raw),
        14 => Op::DrainAll,
        _ => Op::Sweep,
    })
}

/// Three of every four destinations fall on the first three ports, so
/// some VOQs run deep enough to hit their capacity.
fn dst_of(raw: u32, n: usize) -> usize {
    let hot = !raw.is_multiple_of(4);
    let r = (raw / 4) as usize;
    if hot {
        r % n.min(3)
    } else {
        r % n
    }
}

/// `n` independent bounded FIFOs: the behaviour `VoqSet` must reproduce.
struct Model {
    cap: usize,
    queues: Vec<VecDeque<Packet>>,
}

impl Model {
    fn push(&mut self, p: Packet) -> bool {
        let q = &mut self.queues[p.dst_idx()];
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(p);
        true
    }

    fn total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn occupancy_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.queues.len().div_ceil(64)];
        for (dst, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                words[dst / 64] |= 1 << (dst % 64);
            }
        }
        words
    }
}

/// Checks the queries about one destination, plus the set-wide ones.
fn check_dst(v: &VoqSet, m: &Model, dst: usize) {
    let q = &m.queues[dst];
    prop_assert_eq!(v.len_for(dst), q.len(), "len_for({})", dst);
    prop_assert_eq!(
        v.has_packet_for(dst),
        !q.is_empty(),
        "has_packet_for({})",
        dst
    );
    prop_assert_eq!(
        v.has_room_for(dst),
        q.len() < m.cap,
        "has_room_for({})",
        dst
    );
    prop_assert_eq!(v.head_for(dst), q.front(), "head_for({})", dst);
    prop_assert_eq!(v.total_len(), m.total());
}

fn check_all(v: &VoqSet, m: &Model) {
    prop_assert_eq!(v.n(), m.queues.len());
    for dst in 0..m.queues.len() {
        check_dst(v, m, dst);
    }
    let words = m.occupancy_words();
    prop_assert_eq!(v.occupancy_words(), &words[..]);
    let occupied = m.queues.iter().filter(|q| !q.is_empty()).count();
    prop_assert_eq!(v.occupied_count(), occupied);
}

/// Runs `ops` on a `VoqSet` and on the model side by side. Returns how
/// many pushes were dropped on a full VOQ and how many were accepted after
/// a drain had freed cells.
fn run(n: usize, cap: usize, ops: &[Op]) -> (usize, usize) {
    let mut v = VoqSet::new(n, cap);
    let mut m = Model {
        cap,
        queues: vec![VecDeque::new(); n],
    };
    // Every packet carries a unique stamp, so FIFO order is observable.
    let mut stamp = 0u64;
    let (mut drops, mut reused) = (0, 0);
    let mut drained = false;
    let mut push = |v: &mut VoqSet, m: &mut Model, dst: usize, drained: bool| {
        stamp += 1;
        let p = Packet::new(n - 1 - dst, dst, stamp);
        let want = m.push(p);
        prop_assert_eq!(v.push(p), want, "push to {} (cap {})", dst, cap);
        check_dst(v, m, dst);
        if !want {
            drops += 1;
        } else if drained {
            reused += 1;
        }
    };
    check_all(&v, &m);
    for &op in ops {
        match op {
            Op::Push(raw) => push(&mut v, &mut m, dst_of(raw, n), drained),
            Op::Burst(raw) => {
                let dst = dst_of(raw, n);
                for _ in 0..64 {
                    push(&mut v, &mut m, dst, drained);
                }
            }
            Op::Pop(raw) => {
                let dst = dst_of(raw, n);
                prop_assert_eq!(
                    v.pop_for(dst),
                    m.queues[dst].pop_front(),
                    "pop_for({})",
                    dst
                );
                check_dst(&v, &m, dst);
            }
            Op::DrainAll => {
                drained |= m.total() > 0;
                for dst in 0..n {
                    while let Some(want) = m.queues[dst].pop_front() {
                        prop_assert_eq!(v.pop_for(dst), Some(want), "drain {}", dst);
                    }
                    prop_assert_eq!(v.pop_for(dst), None, "drained {}", dst);
                }
                check_all(&v, &m);
            }
            Op::Sweep => check_all(&v, &m),
        }
    }
    check_all(&v, &m);
    (drops, reused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One op sequence, replayed on every (n, cap) pair.
    #[test]
    fn voq_set_matches_independent_fifos(ops in proptest::collection::vec(arb_op(), 0..1200)) {
        for n in NS {
            for cap in CAPS {
                run(n, cap, &ops);
            }
        }
    }
}

/// A scripted sequence that surely drops on a full VOQ and pushes into
/// freed cells after a drain, at every (n, cap) pair.
#[test]
fn scripted_drop_and_reuse_cover_every_shape() {
    for n in NS {
        for cap in CAPS {
            let dst = n - 1;
            let mut ops = vec![Op::Burst(0); cap.div_ceil(64) + 1];
            ops.extend([Op::Push(0), Op::DrainAll, Op::Pop(0)]);
            ops.extend([Op::Push(1), Op::Push(2), Op::Burst(3), Op::Sweep]);
            let (drops, reused) = run(n, cap, &ops);
            assert!(
                drops > 0 && reused > 0,
                "n {n} cap {cap}: {drops} drops, {reused} reused"
            );

            // Direct check of a drop on the last VOQ, then reuse.
            let mut v = VoqSet::new(n, cap);
            for t in 0..cap as u64 {
                assert!(v.push(Packet::new(0, dst, t)));
            }
            assert!(!v.push(Packet::new(0, dst, 99)), "n {n} cap {cap}");
            for t in 0..cap as u64 {
                assert_eq!(v.pop_for(dst).unwrap().generated_at, t);
            }
            assert_eq!(v.total_len(), 0);
            assert!(v.push(Packet::new(0, 0, 7)));
            assert_eq!(v.head_for(0).unwrap().generated_at, 7);
        }
    }
}
