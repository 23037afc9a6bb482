//! The discrete-event queue: a hierarchical timer wheel.
//!
//! Replaces the original `BinaryHeap<(time, seq)>` with a calendar-queue
//! style hierarchy keyed by jiffies: O(1) amortized schedule/pop instead of
//! O(log n), which is what keeps 10k-node worlds with millions of pending
//! events affordable. The observable contract is unchanged and pinned by
//! property tests against the old heap as an oracle: entries pop in
//! ascending `(SimTime, seq)` order, where `seq` is the scheduling order —
//! same-time entries fire in the order they were scheduled, which keeps
//! whole-simulation runs bit-reproducible across platforms.
//!
//! # Structure
//!
//! Entries live in a slab of cells: an entry is written into a cell when
//! it is scheduled and read out of it when it pops, and never moves in
//! between. Freed cells are reused before the slab grows, so the slab
//! never holds more cells than the most entries ever pending at once.
//! Everything below moves 4-byte cell indices, not entries.
//!
//! Six levels of 64 slots each. A slot at level `L` spans `64^L` jiffies,
//! so level 0 slots are single jiffies and the whole wheel covers
//! `64^6 = 2^36` jiffies (~24 days of sim time) ahead of the current
//! position; entries beyond that sit in an unsorted overflow list until the
//! wheel advances far enough to admit them. An entry is placed by the
//! highest 6-bit group in which its firing jiffy differs from the wheel's
//! current position (`at XOR elapsed`), exactly the hashed hierarchy of
//! classic kernel timer wheels. A level-0 bucket refills every jiffy, so
//! it keeps its capacity once drained and steady-state operation stops
//! allocating there. A higher-level bucket is drained by a cascade and
//! refills only when the wheel comes round to its frame again, so it
//! gives its buffer back instead of keeping room for the most that slot
//! ever held.
//!
//! # Determinism argument
//!
//! Popping must reproduce the heap's total `(time, seq)` order exactly:
//!
//! * Within any slot, indices are only ever *appended* — directly by
//!   [`EventQueue::schedule`] (appends arrive in scheduling order) or by a
//!   cascade, which replays a higher slot's bucket in order. A destination
//!   slot is always empty or populated exclusively by entries scheduled
//!   earlier (a cascade into a frame happens once, when the wheel enters
//!   the frame, strictly before any direct insert into that frame can
//!   occur). Buckets are therefore in scheduling order by construction,
//!   so entries carry no sequence number and are never sorted. Which cell
//!   an entry occupies plays no part in the order.
//! * Level-0 slots span exactly one jiffy, so draining one yields entries
//!   of a single firing time in scheduling order.
//! * Every pending entry's firing time is `>= elapsed` (the wheel position
//!   only advances to the firing time of a popped minimum), so bottom-up
//!   slot scans always find the global minimum: level-`L` entries fire
//!   strictly before any level-`L+1` entry.
//!
//! The last point needs every schedule to fire at or after the wheel
//! position, i.e. at or after the last popped entry. The simulator only
//! schedules at `now + delay`, and `World::add_source` rejects a source
//! that would start in the past before scheduling it, so an earlier
//! firing time is a caller bug: [`EventQueue::schedule`] panics on it.

use enviromic_types::SimTime;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. `64^LEVELS` jiffies (~24 days) fit in the wheel.
const LEVELS: usize = 6;
/// Jiffy horizon of the whole wheel; entries at or beyond
/// `elapsed + HORIZON`... more precisely, entries whose jiffy differs from
/// `elapsed` at bit `SLOT_BITS * LEVELS` or above go to the overflow list.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// An entry in the event queue.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    payload: E,
}

/// A deterministic min-priority event queue keyed by [`SimTime`].
///
/// # Examples
///
/// ```
/// use enviromic_sim::queue::EventQueue;
/// use enviromic_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_jiffies(20), "b");
/// q.schedule(SimTime::from_jiffies(10), "a");
/// q.schedule(SimTime::from_jiffies(10), "a2");
/// assert_eq!(q.pop(), Some((SimTime::from_jiffies(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_jiffies(10), "a2")));
/// assert_eq!(q.pop(), Some((SimTime::from_jiffies(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The entries, each in the cell it was scheduled into until it pops;
    /// a cell is `None` while free.
    cells: Vec<Option<Scheduled<E>>>,
    /// Indices of the free cells, reused last-freed-first before `cells`
    /// grows.
    free: Vec<u32>,
    /// `LEVELS * SLOTS` buckets of cell indices, level-major. Each bucket
    /// is in scheduling order by construction (appends only — see module
    /// docs).
    slots: Vec<Vec<u32>>,
    /// Per-level occupancy bitmask: bit `s` set iff `slots[L * SLOTS + s]`
    /// is non-empty. All occupied slots sit at or after the wheel cursor,
    /// so `trailing_zeros` finds the next one.
    occupied: [u64; LEVELS],
    /// Cells of the entries firing exactly at jiffy `elapsed`, in
    /// scheduling order. Popped from the front; same-instant schedules
    /// append at the back (they were scheduled after everything pending).
    front: VecDeque<u32>,
    /// Cells of the entries farther than the wheel horizon, in scheduling
    /// order.
    overflow: Vec<u32>,
    /// Exact minimum firing jiffy over `overflow` (u64::MAX when empty).
    overflow_min: u64,
    /// The wheel position in jiffies: the firing time of the most recent
    /// entry popped. Every pending entry fires at or after this.
    elapsed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            cells: Vec::new(),
            free: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            front: VecDeque::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            elapsed: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `payload` to fire at `at`. Entries scheduled for the same
    /// instant fire in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped entry's firing time.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = Some(Scheduled { at, payload });
        let cell = match self.free.pop() {
            Some(cell) => {
                self.cells[cell as usize] = entry;
                cell
            }
            None => {
                let cell =
                    u32::try_from(self.cells.len()).expect("at most u32::MAX pending entries");
                self.cells.push(entry);
                cell
            }
        };
        self.insert(cell);
    }

    /// The entry held by a queued cell.
    fn entry(&self, cell: u32) -> &Scheduled<E> {
        self.cells[cell as usize]
            .as_ref()
            .expect("a queued cell holds an entry")
    }

    /// Places one cell index into the right tier relative to the wheel
    /// cursor. Used both by [`EventQueue::schedule`] and by cascades, and
    /// both preserve scheduling order because the index stream each
    /// replays is itself in scheduling order.
    fn insert(&mut self, cell: u32) {
        let t = self.entry(cell).at.as_jiffies();
        match t.cmp(&self.elapsed) {
            Ordering::Less => panic!(
                "EventQueue: scheduled at jiffy {t}, before the queue position {}",
                self.elapsed
            ),
            Ordering::Equal => self.front.push_back(cell),
            Ordering::Greater => {
                let xor = t ^ self.elapsed;
                if (xor >> HORIZON_BITS) != 0 {
                    self.overflow_min = self.overflow_min.min(t);
                    self.overflow.push(cell);
                } else {
                    // Highest differing 6-bit group picks the level.
                    let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
                    let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                    self.slots[level * SLOTS + slot].push(cell);
                    self.occupied[level] |= 1 << slot;
                }
            }
        }
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(cell) = self.front.pop_front() {
                let e = self.cells[cell as usize]
                    .take()
                    .expect("a queued cell holds an entry");
                self.free.push(cell);
                return Some((e.at, e.payload));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Advances the wheel cursor to the next pending entry and fills
    /// `front` with its jiffy's slot. Returns false when the queue holds
    /// nothing beyond `front` (which the caller just found empty).
    fn advance(&mut self) -> bool {
        // Lowest level with an occupied slot; its first slot is the global
        // minimum's jiffy range (level-L entries fire strictly before any
        // level-(L+1) entry — see module docs).
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            let idx = level * SLOTS + slot;
            self.occupied[level] &= !(1 << slot);
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            if level == 0 {
                // Single-jiffy slot: this *is* the next firing instant.
                let width = 1u64 << SLOT_BITS;
                self.elapsed = (self.elapsed & !(width - 1)) | slot as u64;
                self.front.extend(bucket.drain(..));
                // Hand the capacity back: the slot refills next frame.
                self.slots[idx] = bucket;
            } else {
                // Enter the slot's range, then redistribute its entries
                // into lower levels (replayed in scheduling order). The
                // drained buffer is dropped (see module docs).
                let shift = SLOT_BITS * level as u32;
                let frame = !((1u64 << (shift + SLOT_BITS)) - 1);
                let base = (self.elapsed & frame) | ((slot as u64) << shift);
                self.elapsed = self.elapsed.max(base);
                for cell in bucket {
                    self.insert(cell);
                }
            }
            return true;
        }
        if self.overflow.is_empty() {
            return false;
        }
        // The wheel is empty: jump to the earliest overflow entry and
        // admit everything the new horizon now covers, preserving
        // insertion order.
        self.elapsed = self.overflow_min;
        self.overflow_min = u64::MAX;
        let pending = std::mem::take(&mut self.overflow);
        for cell in pending {
            self.insert(cell);
        }
        true
    }

    /// The firing time of the earliest entry without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&cell) = self.front.front() {
            return Some(self.entry(cell).at);
        }
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                let width = 1u64 << SLOT_BITS;
                return Some(SimTime::from_jiffies(
                    (self.elapsed & !(width - 1)) | slot as u64,
                ));
            }
            // Higher-level slots span a range; the earliest entry inside
            // needs a scan (buckets are in scheduling order, not time
            // order).
            let min = self.slots[level * SLOTS + slot]
                .iter()
                .map(|&cell| self.entry(cell).at)
                .min()
                .expect("occupied bit set on empty slot");
            return Some(min);
        }
        if self.overflow_min != u64::MAX {
            return Some(SimTime::from_jiffies(self.overflow_min));
        }
        None
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// True when no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [30u64, 10, 20, 5, 25] {
            q.schedule(SimTime::from_jiffies(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_jiffies(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_jiffies(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_jiffies(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Crossing level boundaries (64, 4096, ... jiffies) cascades entries
    /// down without disturbing the (time, seq) order.
    #[test]
    fn cascades_preserve_order_across_level_boundaries() {
        let mut q = EventQueue::new();
        // One entry per level, plus ties on both sides of a boundary.
        let times = [1u64, 63, 64, 65, 4095, 4096, 4097, 262144, 16_777_216];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_jiffies(t), i);
        }
        // Same-time ties inserted later must still pop after earlier ones.
        q.schedule(SimTime::from_jiffies(64), 100);
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, v)| (t.as_jiffies(), v))).collect();
        let expect = vec![
            (1, 0),
            (63, 1),
            (64, 2),
            (64, 100),
            (65, 3),
            (4095, 4),
            (4096, 5),
            (4097, 6),
            (262_144, 7),
            (16_777_216, 8),
        ];
        assert_eq!(got, expect);
    }

    /// Entries beyond the 2^36-jiffy wheel horizon take the overflow path
    /// and still come out in (time, seq) order.
    #[test]
    fn far_future_overflow_entries_pop_in_order() {
        let mut q = EventQueue::new();
        let far = 1u64 << 40;
        q.schedule(SimTime::from_jiffies(far + 7), "far+7");
        q.schedule(SimTime::from_jiffies(5), "near");
        q.schedule(SimTime::from_jiffies(far), "far a");
        q.schedule(SimTime::from_jiffies(far), "far b");
        assert_eq!(q.peek_time(), Some(SimTime::from_jiffies(5)));
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(5), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_jiffies(far)));
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(far), "far a")));
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(far), "far b")));
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(far + 7), "far+7")));
        assert_eq!(q.pop(), None);
    }

    /// Entry storage follows the pending count, not the traffic: after a
    /// burst of 100,000 entries cascades out of one higher-level slot and
    /// drains, further schedule/pop pairs reuse the freed cells.
    #[test]
    fn freed_cells_are_reused() {
        const BURST: u64 = 100_000;
        let mut q = EventQueue::new();
        // Jiffies 4096..8191 all sit in level 2, slot 1.
        for i in 0..BURST {
            q.schedule(SimTime::from_jiffies(4096 + i % 4096), i);
        }
        assert_eq!(q.cells.len(), BURST as usize);
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_jiffies() >= last, "popped out of order");
            last = t.as_jiffies();
            assert!(q.cells.len() <= BURST as usize);
        }
        assert!(q.is_empty());
        for i in 0..10_000 {
            q.schedule(SimTime::from_jiffies(last + 1 + i % 300), i);
            let (t, v) = q.pop().expect("one entry is pending");
            assert_eq!(v, i);
            last = t.as_jiffies();
            assert!(q.cells.len() <= BURST as usize, "the cell slab grew");
        }
        assert_eq!(q.cells.len(), BURST as usize);
    }

    /// A cascade gives a higher-level bucket's buffer back, while a
    /// drained level-0 bucket keeps its capacity for the next frame.
    #[test]
    fn cascaded_buckets_keep_no_capacity() {
        let mut q = EventQueue::new();
        // Jiffies 4096..4195 sit in level 2, slot 1; jiffy 5 in level 0.
        for i in 0..100u64 {
            q.schedule(SimTime::from_jiffies(4096 + i), i);
        }
        q.schedule(SimTime::from_jiffies(5), 0);
        assert!(q.slots[2 * SLOTS + 1].capacity() >= 100);
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(5), 0)));
        assert!(q.slots[5].capacity() > 0, "level 0 keeps its buffer");
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(4096), 0)));
        assert_eq!(q.slots[2 * SLOTS + 1].capacity(), 0);
        let level1: usize = q.slots[SLOTS..2 * SLOTS].iter().map(Vec::len).sum();
        assert_eq!(level1, 36, "jiffies 4160..4195 cascaded to level 1");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(rest, (1..100).collect::<Vec<_>>());
        for level in 1..LEVELS {
            let retained: usize = q.slots[level * SLOTS..(level + 1) * SLOTS]
                .iter()
                .map(Vec::capacity)
                .sum();
            assert_eq!(retained, 0, "level {level} kept {retained} indices");
        }
    }

    /// Scheduling before the wheel position is a caller bug and fails
    /// loudly instead of reordering time.
    #[test]
    #[should_panic(expected = "before the queue position")]
    fn scheduling_before_the_queue_position_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_jiffies(100), "t100");
        q.schedule(SimTime::from_jiffies(200), "t200");
        assert_eq!(q.pop(), Some((SimTime::from_jiffies(100), "t100")));
        // The wheel now sits at jiffy 100; schedule earlier than that.
        q.schedule(SimTime::from_jiffies(40), "t40");
    }
}
