//! Bounded FIFO queues. Packet queues (PQ), single input FIFOs and output
//! buffers are [`BoundedFifo`]s; an input's virtual output queues (VOQ) are
//! one [`VoqSet`], a shared cell buffer with one list per destination.

use crate::packet::Packet;
use std::collections::VecDeque;

/// A bounded FIFO of packets.
///
/// All queues in the Fig. 11 model are FIFO memories with a fixed capacity;
/// a full queue rejects (drops) arrivals, which the simulator accounts for.
///
/// ```
/// use lcf_sim::packet::Packet;
/// use lcf_sim::queues::BoundedFifo;
///
/// let mut q = BoundedFifo::new(2);
/// assert!(q.push(Packet::new(0, 1, 10)));
/// assert!(q.push(Packet::new(0, 1, 11)));
/// assert!(!q.push(Packet::new(0, 1, 12)), "full queue drops");
/// assert_eq!(q.pop().unwrap().generated_at, 10);
/// ```
#[derive(Clone, Debug)]
pub struct BoundedFifo {
    cap: usize,
    q: VecDeque<Packet>,
}

impl BoundedFifo {
    /// Creates a queue holding at most `cap` packets.
    ///
    /// # Panics
    /// Panics if `cap == 0` — every queue in the model holds at least one
    /// packet.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        BoundedFifo {
            cap,
            q: VecDeque::new(),
        }
    }

    /// Capacity.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// True if at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Attempts to enqueue; returns `false` (dropping the packet) when full.
    #[must_use = "a false return means the packet was dropped"]
    pub fn push(&mut self, p: Packet) -> bool {
        if self.is_full() {
            false
        } else {
            self.q.push_back(p);
            true
        }
    }

    /// Dequeues the head packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.q.pop_front()
    }

    /// Peeks at the head packet.
    pub fn head(&self) -> Option<&Packet> {
        self.q.front()
    }
}

/// Sentinel cell index: "no cell". Never a real index, because
/// [`VoqSet::new`] keeps every slab index below it.
const NIL: u32 = u32::MAX;

/// The number of cells a `VoqSet` of `n` VOQs of `cap_each` packets can
/// hold at once, if a `u32` cell index can address all of them (`None`
/// otherwise). [`crate::config::SimConfig::validate`] and [`VoqSet::new`]
/// share this limit.
pub(crate) fn slab_cells(n: usize, cap_each: usize) -> Option<usize> {
    n.checked_mul(cap_each)
        .filter(|&cells| cells <= NIL as usize)
}

/// One VOQ: a singly linked list of cells in the input's slab. `head` and
/// `tail` are meaningful only while `len > 0`.
#[derive(Clone, Copy, Debug)]
struct VoqList {
    head: u32,
    tail: u32,
    len: u32,
}

/// One slab cell: a queued packet and the next cell of its VOQ (or of the
/// free list).
#[derive(Clone, Copy, Debug)]
struct Cell {
    packet: Packet,
    next: u32,
}

/// The set of `n` virtual output queues of one input port.
///
/// Packets are sorted by destination on arrival at the input buffer
/// (Sec. 2); each destination has its own bounded FIFO so packets for
/// different targets never block each other.
///
/// Like a hardware shared input buffer, all `n` VOQs live in one slab of
/// cells: each destination keeps only a `{head, tail, len}` record, and a
/// VOQ is a linked list through the slab. Freed cells go on a LIFO free
/// list and are reused before the slab grows, so the slab only grows when
/// the input's backlog passes its previous peak: memory is O(n + peak
/// backlog) per input, not O(n) separate queue buffers.
#[derive(Clone, Debug)]
pub struct VoqSet {
    cap: u32,
    lists: Vec<VoqList>,
    cells: Vec<Cell>,
    /// Head of the free list, or [`NIL`].
    free: u32,
    /// Packets queued across all VOQs.
    total: usize,
    // Occupancy bitmap, 64 destinations per word: bit (dst % 64) of word
    // (dst / 64) is set iff the VOQ for dst is non-empty. Maintained on
    // push/pop; it is the request row the scheduler sees, which the
    // slot-loop checker compares against the switch's request matrix.
    occupancy: Vec<u64>,
}

impl VoqSet {
    /// Creates `n` VOQs of `cap_each` packets each.
    ///
    /// # Panics
    /// Panics if `n == 0` or `cap_each == 0`, and — in release builds too —
    /// if the `n × cap_each` cells the set may hold at once do not fit a
    /// `u32` slab index.
    pub fn new(n: usize, cap_each: usize) -> Self {
        assert!(n > 0, "VOQ set requires n > 0");
        assert!(cap_each > 0, "queue capacity must be positive");
        assert!(
            slab_cells(n, cap_each).is_some(),
            "VOQ set of n = {n} queues x cap = {cap_each} packets exceeds the {NIL} cells \
             a u32 slab index can address"
        );
        // lint:allow(no-panic): cap_each <= n x cap_each <= u32::MAX, asserted just above
        let cap = u32::try_from(cap_each).expect("VOQ cap fits the slab index");
        VoqSet {
            cap,
            lists: vec![
                VoqList {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                n
            ],
            cells: Vec::new(),
            free: NIL,
            total: 0,
            occupancy: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of VOQs (= switch ports).
    pub fn n(&self) -> usize {
        self.lists.len()
    }

    /// Attempts to enqueue a packet into the VOQ of its destination.
    #[must_use = "a false return means the packet was dropped"]
    pub fn push(&mut self, p: Packet) -> bool {
        let dst = p.dst_idx();
        if self.lists[dst].len >= self.cap {
            return false;
        }
        let cell = Cell {
            packet: p,
            next: NIL,
        };
        let idx = if self.free == NIL {
            // The free list is empty only when every slab cell is queued,
            // so `cells.len() == total < n × cap <= u32::MAX`.
            // lint:allow(no-panic): new() bounds the slab below u32::MAX cells
            let idx = u32::try_from(self.cells.len()).expect("slab index fits u32");
            self.cells.push(cell);
            idx
        } else {
            let idx = self.free;
            let slot = &mut self.cells[idx as usize];
            self.free = slot.next;
            *slot = cell;
            idx
        };
        let list = &mut self.lists[dst];
        if list.len == 0 {
            list.head = idx;
            self.occupancy[dst / 64] |= 1u64 << (dst % 64);
        } else {
            self.cells[list.tail as usize].next = idx;
        }
        list.tail = idx;
        list.len += 1;
        self.total += 1;
        true
    }

    /// True if the VOQ for destination `dst` has room.
    pub fn has_room_for(&self, dst: usize) -> bool {
        self.lists[dst].len < self.cap
    }

    /// True if the VOQ for destination `dst` holds at least one packet —
    /// this is the request bit the scheduler sees.
    pub fn has_packet_for(&self, dst: usize) -> bool {
        self.lists[dst].len > 0
    }

    /// Dequeues the head packet destined for `dst`.
    pub fn pop_for(&mut self, dst: usize) -> Option<Packet> {
        let list = &mut self.lists[dst];
        if list.len == 0 {
            return None;
        }
        let idx = list.head;
        let cell = &mut self.cells[idx as usize];
        list.head = cell.next;
        list.len -= 1;
        if list.len == 0 {
            self.occupancy[dst / 64] &= !(1u64 << (dst % 64));
        }
        cell.next = self.free;
        self.free = idx;
        self.total -= 1;
        Some(cell.packet)
    }

    /// Peeks at the head packet destined for `dst` (for age-based
    /// schedulers).
    pub fn head_for(&self, dst: usize) -> Option<&Packet> {
        let list = &self.lists[dst];
        (list.len > 0).then(|| &self.cells[list.head as usize].packet)
    }

    /// Total packets queued across all VOQs.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Occupancy of the VOQ for destination `dst`.
    pub fn len_for(&self, dst: usize) -> usize {
        self.lists[dst].len as usize
    }

    /// The occupancy bitmap, 64 destinations per word: bit `dst % 64` of
    /// word `dst / 64` is set iff [`VoqSet::has_packet_for`]`(dst)`. This is
    /// exactly the request row the scheduler sees, in the packed layout of
    /// `lcf_core::request::RequestMatrix::set_row_words`.
    #[inline]
    pub fn occupancy_words(&self) -> &[u64] {
        &self.occupancy
    }

    /// Number of non-empty VOQs (the paper's "choice" of this input).
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupancy.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Slot-loop invariant check of a switch's running backlog: `backlog` must
/// equal `fifo_packets` (what the switch's FIFOs hold) plus a recount of
/// its VOQ sets, and each set's running total and occupancy bits must
/// agree with its per-destination lengths. O(n) per set.
#[cfg(all(feature = "check-invariants", debug_assertions))]
pub(crate) fn check_backlog(
    backlog: usize,
    fifo_packets: usize,
    sets: &[VoqSet],
) -> Result<(), String> {
    let mut count = fifo_packets;
    for (input, set) in sets.iter().enumerate() {
        let mut sum = 0;
        for dst in 0..set.n() {
            let len = set.len_for(dst);
            let bit = set.occupancy[dst / 64] >> (dst % 64) & 1 == 1;
            if bit != (len > 0) {
                return Err(format!(
                    "input {input} VOQ {dst}: occupancy bit {bit} but length {len}"
                ));
            }
            sum += len;
        }
        if sum != set.total {
            return Err(format!(
                "input {input}: VOQ total {} but its queues hold {sum}",
                set.total
            ));
        }
        count += sum;
    }
    if count != backlog {
        return Err(format!(
            "running backlog {backlog} but the queues hold {count}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(dst: usize) -> Packet {
        Packet::new(0, dst, 0)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = BoundedFifo::new(4);
        for t in 0..3 {
            assert!(q.push(Packet::new(0, 0, t)));
        }
        assert_eq!(q.pop().unwrap().generated_at, 0);
        assert_eq!(q.pop().unwrap().generated_at, 1);
        assert_eq!(q.pop().unwrap().generated_at, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = BoundedFifo::new(2);
        assert!(q.push(pkt(0)));
        assert!(q.push(pkt(0)));
        assert!(q.is_full());
        assert!(!q.push(pkt(0)), "third push must be rejected");
        assert_eq!(q.len(), 2);
        q.pop();
        assert!(!q.is_full());
        assert!(q.push(pkt(0)));
    }

    #[test]
    fn head_does_not_consume() {
        let mut q = BoundedFifo::new(2);
        assert!(q.push(Packet::new(1, 2, 7)));
        assert_eq!(q.head().unwrap().generated_at, 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedFifo::new(0);
    }

    #[test]
    fn voq_routes_by_destination() {
        let mut v = VoqSet::new(4, 2);
        assert!(v.push(pkt(1)));
        assert!(v.push(pkt(3)));
        assert!(v.has_packet_for(1));
        assert!(!v.has_packet_for(0));
        assert_eq!(v.total_len(), 2);
        assert_eq!(v.pop_for(3).unwrap().dst_idx(), 3);
        assert!(!v.has_packet_for(3));
    }

    #[test]
    fn voq_per_destination_capacity() {
        let mut v = VoqSet::new(4, 1);
        assert!(v.push(pkt(2)));
        assert!(!v.push(pkt(2)), "VOQ 2 full");
        assert!(v.push(pkt(0)), "other VOQs unaffected");
        assert!(!v.has_room_for(2));
        assert!(v.has_room_for(1));
    }

    #[test]
    fn occupancy_words_track_push_and_pop() {
        let mut v = VoqSet::new(70, 2);
        assert_eq!(v.occupancy_words(), &[0, 0]);
        assert!(v.push(pkt(3)));
        assert!(v.push(pkt(3)));
        assert!(v.push(pkt(65)));
        assert_eq!(v.occupancy_words(), &[1 << 3, 1 << 1]);
        assert_eq!(v.occupied_count(), 2);
        // Popping clears the bit only when the queue empties.
        assert!(v.pop_for(3).is_some());
        assert_eq!(v.occupancy_words(), &[1 << 3, 1 << 1], "one packet left");
        assert!(v.pop_for(3).is_some());
        assert_eq!(v.occupancy_words(), &[0, 1 << 1]);
        assert!(v.pop_for(65).is_some());
        assert_eq!(v.occupied_count(), 0);
    }

    #[test]
    fn occupancy_unchanged_by_rejected_push() {
        let mut v = VoqSet::new(4, 1);
        assert!(v.push(pkt(2)));
        assert!(!v.push(pkt(2)), "VOQ 2 full");
        assert_eq!(v.occupancy_words(), &[1 << 2]);
        // Popping a never-filled destination is a no-op on the bitmap.
        assert!(v.pop_for(0).is_none());
        assert_eq!(v.occupancy_words(), &[1 << 2]);
    }

    #[test]
    fn occupancy_matches_has_packet_for() {
        let mut v = VoqSet::new(6, 3);
        for dst in [5, 0, 5, 2] {
            assert!(v.push(pkt(dst)));
        }
        v.pop_for(2);
        for dst in 0..6 {
            assert_eq!(
                v.occupancy_words()[0] >> dst & 1 == 1,
                v.has_packet_for(dst),
                "bit {dst}"
            );
        }
    }

    #[test]
    fn voq_record_and_cell_are_small() {
        // The shared buffer costs 12 B per destination plus one cell per
        // queued packet: keep both at their hardware-like sizes.
        assert_eq!(std::mem::size_of::<VoqList>(), 12);
        assert!(std::mem::size_of::<Cell>() <= 24);
    }

    #[test]
    fn drained_cells_are_reused_before_the_slab_grows() {
        let mut v = VoqSet::new(4, 8);
        for dst in [0, 1, 0, 2] {
            assert!(v.push(pkt(dst)));
        }
        assert_eq!(v.cells.len(), 4);
        for dst in [0, 0, 1, 2] {
            assert!(v.pop_for(dst).is_some());
        }
        for t in 0..4 {
            assert!(v.push(Packet::new(0, 3, t)));
        }
        assert_eq!(v.cells.len(), 4, "the slab grows only past its peak");
        for t in 0..4 {
            assert_eq!(v.pop_for(3).unwrap().generated_at, t, "FIFO order");
        }
        assert!(v.push(pkt(3)));
        assert!(v.push(pkt(3)));
        assert_eq!(v.total_len(), 2);
        assert_eq!(v.cells.len(), 4);
    }

    #[test]
    #[should_panic(expected = "n = 2 queues x cap = 4294967295 packets")]
    fn unindexable_slab_panics_naming_n_and_cap() {
        let _ = VoqSet::new(2, u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_voq_capacity_panics() {
        let _ = VoqSet::new(4, 0);
    }

    #[test]
    fn slab_limit_is_the_u32_index_range() {
        assert_eq!(slab_cells(1, u32::MAX as usize), Some(u32::MAX as usize));
        assert_eq!(slab_cells(1, u32::MAX as usize + 1), None);
        assert_eq!(slab_cells(65_536, 65_536), None);
        assert_eq!(slab_cells(usize::MAX, 2), None, "overflow is rejected too");
        assert_eq!(slab_cells(256, 256), Some(65_536));
        // The largest indexable set builds without allocating its cells.
        let v = VoqSet::new(1, u32::MAX as usize);
        assert!(v.has_room_for(0));
    }

    #[test]
    fn voq_lengths() {
        let mut v = VoqSet::new(3, 8);
        for _ in 0..5 {
            assert!(v.push(pkt(1)));
        }
        assert_eq!(v.len_for(1), 5);
        assert_eq!(v.len_for(0), 0);
        assert_eq!(v.total_len(), 5);
    }
}
