//! The circular chunk store (§III-B.3, "Local Data Organization").
//!
//! The node's flash is organized as a circular queue of fixed-size chunks:
//! data acquired locally or received from neighbours is enqueued at the
//! tail; chunks migrated to neighbours for storage balancing are dequeued
//! from the head. Because writes march around the device in order, "all the
//! blocks receive almost the same number of write operations (different by
//! at most 1)" — the wear-leveling property the paper calls out, asserted
//! here by property tests.
//!
//! Head/length pointers are periodically checkpointed to EEPROM so a
//! crashed node's data can still be recovered after physical collection.
//! Recovery replays the checkpoint and then extends it by scanning forward
//! for validly-sequenced chunks written after the last checkpoint. Chunks
//! *popped* after the last checkpoint cannot be distinguished from live
//! ones (popping does not erase), so recovery may resurrect recently
//! migrated chunks — a safe-side duplicate, never a loss.
//!
//! Bad blocks (fault injection) are discovered lazily: a failed write marks
//! the slot in a store-level bad map and the push retries on the next good
//! slot, so the circular queue simply flows around the hole. Because writes
//! only ever target free slots, a store-bad block never holds live data.

use crate::device::{Flash, FlashError};
use crate::eeprom::{Checkpoint, Eeprom};
use crate::meta::{Chunk, DecodeError};

/// Errors returned by [`ChunkStore`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Every block already holds a live chunk.
    Full,
    /// The underlying flash refused the operation.
    Flash(FlashError),
    /// A stored block failed to decode.
    Corrupt(DecodeError),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Full => write!(f, "chunk store is full"),
            StoreError::Flash(e) => write!(f, "flash error: {e}"),
            StoreError::Corrupt(e) => write!(f, "stored chunk is corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Full => None,
            StoreError::Flash(e) => Some(e),
            StoreError::Corrupt(e) => Some(e),
        }
    }
}

impl From<FlashError> for StoreError {
    fn from(e: FlashError) -> Self {
        StoreError::Flash(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Corrupt(e)
    }
}

/// A FIFO queue of chunks over a flash device, with EEPROM pointer
/// checkpoints.
///
/// # Examples
///
/// ```
/// use enviromic_flash::{Chunk, ChunkMeta, ChunkStore};
/// use enviromic_types::{NodeId, SimTime};
///
/// # fn main() -> Result<(), enviromic_flash::StoreError> {
/// let mut store = ChunkStore::new(8, 16);
/// let chunk = Chunk::new(
///     ChunkMeta { origin: NodeId(1), event: None, t_start: SimTime::ZERO },
///     vec![1, 2, 3],
/// );
/// store.push_back(chunk.clone())?;
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.pop_front()?, Some(chunk));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChunkStore {
    flash: Flash,
    eeprom: Eeprom,
    head: u32,
    len: u32,
    next_store_seq: u32,
    checkpoint_interval: u32,
    ops_since_checkpoint: u32,
    /// Store-level bad map: slots the queue flows around, empty until the
    /// first bad block is found. Entries are only ever set on *free* slots
    /// (discovery happens on a failed write, and writes only target free
    /// slots), so `head` and every live position is always a good block.
    bad: Vec<bool>,
    bad_count: u32,
    remapped_writes: u64,
}

/// Default flash write endurance (block erase/program cycles).
const DEFAULT_ENDURANCE: u64 = 10_000;

impl ChunkStore {
    /// Creates a store over a fresh flash device of `blocks` chunks,
    /// checkpointing pointers to EEPROM every `checkpoint_interval`
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics when `blocks` is zero or `checkpoint_interval` is zero.
    #[must_use]
    pub fn new(blocks: u32, checkpoint_interval: u32) -> Self {
        assert!(checkpoint_interval > 0, "checkpoint interval must be > 0");
        ChunkStore {
            flash: Flash::new(blocks, DEFAULT_ENDURANCE),
            eeprom: Eeprom::default(),
            head: 0,
            len: 0,
            next_store_seq: 0,
            checkpoint_interval,
            ops_since_checkpoint: 0,
            bad: Vec::new(),
            bad_count: 0,
            remapped_writes: 0,
        }
    }

    /// Number of live chunks.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no chunks are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total usable chunk slots (device blocks minus known-bad blocks).
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.flash.block_count() - self.bad_count
    }

    /// Number of writes the store had to retry on a different block after
    /// discovering a bad one.
    #[must_use]
    pub fn remapped_writes(&self) -> u64 {
        self.remapped_writes
    }

    /// Marks a *device* block bad (fault injection). The store itself only
    /// learns about the hole when a write actually fails there and gets
    /// remapped; data already live on the block stays readable until then.
    pub fn mark_bad_block(&mut self, index: u32) {
        self.flash.mark_bad(index);
    }

    /// Free chunk slots.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.capacity() - self.len
    }

    /// True when every slot holds a live chunk.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// The underlying flash device (for wear inspection).
    #[must_use]
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Bytes of flash payload actually resident in memory. The store's
    /// capacity is addressable, not allocated: block payloads materialize
    /// on first write, so a freshly built store of any size reports zero
    /// (what lets a 100k-node world construct in seconds).
    #[must_use]
    pub fn resident_payload_bytes(&self) -> u64 {
        self.flash.resident_payload_bytes()
    }

    /// The EEPROM holding pointer checkpoints.
    #[must_use]
    pub fn eeprom(&self) -> &Eeprom {
        &self.eeprom
    }

    fn block_at(&self, logical: u32) -> u32 {
        let cap = self.flash.block_count();
        if self.bad_count == 0 {
            return (self.head + logical) % cap;
        }
        // Skip-walk: the `logical`-th good block at or after head (mod cap).
        // Only reachable with at least one good block (capacity() > 0).
        let mut idx = self.head;
        let mut remaining = logical;
        loop {
            if !self.is_store_bad(idx) {
                if remaining == 0 {
                    return idx;
                }
                remaining -= 1;
            }
            idx = (idx + 1) % cap;
        }
    }

    /// True when the store has found block `index` bad.
    fn is_store_bad(&self, index: u32) -> bool {
        self.bad.get(index as usize).copied().unwrap_or(false)
    }

    /// Records a freshly-discovered bad block and restores the
    /// head-is-good invariant when the queue is empty.
    fn note_bad(&mut self, index: u32) {
        if self.bad.is_empty() {
            self.bad = vec![false; self.flash.block_count() as usize];
        }
        let slot = &mut self.bad[index as usize];
        if !*slot {
            *slot = true;
            self.bad_count += 1;
        }
        if self.len == 0 && self.capacity() > 0 {
            // An empty queue's head may sit on the slot that just failed;
            // block_at(0) skip-walks to the next good block.
            self.head = self.block_at(0);
        }
    }

    /// Store sequence number of the oldest live chunk (or the next one to
    /// be assigned when the queue is empty).
    fn head_seq(&self) -> u32 {
        if self.len == 0 {
            return self.next_store_seq;
        }
        self.flash
            .read_block(self.head)
            .ok()
            .and_then(|b| Chunk::store_seq(b).ok())
            .unwrap_or(self.next_store_seq)
    }

    fn make_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            head: self.head,
            len: self.len,
            next_store_seq: self.next_store_seq,
            head_seq: self.head_seq(),
        }
    }

    fn after_op(&mut self) {
        self.ops_since_checkpoint += 1;
        if self.ops_since_checkpoint >= self.checkpoint_interval {
            self.ops_since_checkpoint = 0;
            // A worn-out EEPROM only degrades crash recovery; the running
            // store keeps its pointers in RAM, so the error is swallowed
            // (C-DTOR-FAIL spirit: never fail on a background save).
            let cp = self.make_checkpoint();
            let _ = self.eeprom.save(cp);
        }
    }

    /// Appends a chunk at the tail.
    ///
    /// A write that fails with [`FlashError::BadBlock`] marks the slot in
    /// the store's bad map and retries on the next good slot (shrinking the
    /// usable capacity by one), so fault-injected bad blocks degrade
    /// capacity instead of crashing the recorder.
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] when no slot is free (including after remapping
    /// shrank the store); other flash errors propagate.
    pub fn push_back(&mut self, chunk: Chunk) -> Result<(), StoreError> {
        let block = chunk.encode(self.next_store_seq);
        loop {
            if self.is_full() {
                return Err(StoreError::Full);
            }
            let idx = self.block_at(self.len);
            match self.flash.write_block(idx, &block) {
                Ok(()) => {
                    self.next_store_seq = self.next_store_seq.wrapping_add(1);
                    self.len += 1;
                    self.after_op();
                    return Ok(());
                }
                Err(FlashError::BadBlock { index }) => {
                    self.note_bad(index);
                    self.remapped_writes += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Removes and returns the oldest chunk, or `None` when empty.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the stored block fails to decode.
    pub fn pop_front(&mut self) -> Result<Option<Chunk>, StoreError> {
        if self.is_empty() {
            return Ok(None);
        }
        let idx = self.head;
        let block = self.flash.read_block(idx)?;
        let (chunk, _) = Chunk::decode(block)?;
        self.len -= 1;
        // Advance past any bad holes so head stays on a good block.
        self.head = (self.head + 1) % self.flash.block_count();
        if self.capacity() > 0 {
            self.head = self.block_at(0);
        }
        self.after_op();
        Ok(Some(chunk))
    }

    /// Removes and returns the newest chunk, or `None` when empty.
    ///
    /// Used by the prelude optimization: a losing prelude holder erases the
    /// clips it just wrote, which by construction sit at the tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the stored block fails to decode.
    pub fn pop_back(&mut self) -> Result<Option<Chunk>, StoreError> {
        if self.is_empty() {
            return Ok(None);
        }
        let idx = self.block_at(self.len - 1);
        let block = self.flash.read_block(idx)?;
        let (chunk, _) = Chunk::decode(block)?;
        self.len -= 1;
        self.after_op();
        Ok(Some(chunk))
    }

    /// Reads the chunk at logical position `i` (0 = oldest).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the stored block fails to decode;
    /// out-of-range positions yield `Ok(None)`.
    pub fn get(&self, i: u32) -> Result<Option<Chunk>, StoreError> {
        if i >= self.len {
            return Ok(None);
        }
        let block = self.flash.read_block(self.block_at(i))?;
        let (chunk, _) = Chunk::decode(block)?;
        Ok(Some(chunk))
    }

    /// Iterates over all live chunks, oldest first, skipping any that fail
    /// to decode.
    pub fn iter(&self) -> impl Iterator<Item = Chunk> + '_ {
        (0..self.len).filter_map(move |i| self.get(i).ok().flatten())
    }

    /// Forces a pointer checkpoint now.
    pub fn checkpoint(&mut self) {
        self.ops_since_checkpoint = 0;
        let cp = self.make_checkpoint();
        let _ = self.eeprom.save(cp);
    }

    /// Splits the store into its raw device and EEPROM, as when a mote is
    /// physically collected.
    #[must_use]
    pub fn into_parts(self) -> (Flash, Eeprom) {
        (self.flash, self.eeprom)
    }

    /// Rebuilds a store from a collected device and its EEPROM.
    ///
    /// Recovery is a full-device scan anchored at the newest valid store
    /// sequence number: the block holding the largest sequence is the last
    /// completed push, and the live window is reconstructed by walking
    /// backwards while sequence numbers keep decreasing. The EEPROM
    /// checkpoint contributes a *prune bound* (`head_seq`): chunks already
    /// popped at checkpoint time are not resurrected.
    ///
    /// Guarantee: every chunk live at crash time *on a good block* is
    /// recovered. Chunks popped *after* the last checkpoint may be
    /// resurrected as duplicates (popping does not erase the media) — a
    /// safe-side error, never a loss. Blocks the device has marked bad are
    /// treated as untrusted holes: the backward walk steps over them, and
    /// any data they held is conservatively considered lost at collection
    /// time.
    #[must_use]
    pub fn recover(flash: Flash, eeprom: Eeprom, checkpoint_interval: u32) -> Self {
        let prune = eeprom.load().map_or(0, |cp| cp.head_seq);
        let cap = flash.block_count();
        // Scan every good block for a valid chunk not known-dead; bad
        // blocks scan as holes.
        let mut seqs: Vec<Option<u32>> = Vec::with_capacity(cap as usize);
        for idx in 0..cap {
            let seq = if flash.is_bad(idx) {
                None
            } else {
                flash
                    .read_block(idx)
                    .ok()
                    .and_then(|b| Chunk::store_seq(b).ok())
                    .filter(|&seq| seq >= prune)
            };
            seqs.push(seq);
        }
        let bad_count = (0..cap).filter(|&idx| flash.is_bad(idx)).count() as u32;
        let bad = if bad_count == 0 {
            Vec::new()
        } else {
            (0..cap).map(|idx| flash.is_bad(idx)).collect()
        };
        let mut store = ChunkStore {
            flash,
            eeprom,
            head: 0,
            len: 0,
            next_store_seq: prune,
            checkpoint_interval: checkpoint_interval.max(1),
            ops_since_checkpoint: 0,
            bad,
            bad_count,
            remapped_writes: 0,
        };
        if store.capacity() > 0 {
            store.head = store.block_at(0); // head-is-good invariant
        }
        // Anchor at the newest push.
        let Some((tail_idx, tail_seq)) = seqs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|seq| (i as u32, seq)))
            .max_by_key(|&(_, seq)| seq)
        else {
            return store; // nothing valid: empty store
        };
        // Walk backwards while sequence numbers keep decreasing: pushes
        // land on consecutive *good* blocks (mod capacity), so the live
        // window is exactly this run with bad holes stepped over.
        let mut head_idx = tail_idx;
        let mut len = 1u32;
        let mut prev_seq = tail_seq;
        let mut j = tail_idx;
        let mut scanned = 1u32;
        while scanned < cap {
            j = (j + cap - 1) % cap;
            scanned += 1;
            if store.is_store_bad(j) {
                continue; // hole inside the window: step over it
            }
            match seqs[j as usize] {
                Some(s) if s < prev_seq => {
                    head_idx = j;
                    prev_seq = s;
                    len += 1;
                }
                _ => break,
            }
        }
        store.head = head_idx;
        store.len = len;
        store.next_store_seq = tail_seq.wrapping_add(1);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ChunkMeta;
    use enviromic_types::{EventId, NodeId, SimTime};

    fn chunk(n: u8) -> Chunk {
        Chunk::new(
            ChunkMeta {
                origin: NodeId(u32::from(n)),
                event: Some(EventId::new(NodeId(1), u32::from(n))),
                t_start: SimTime::from_jiffies(u64::from(n) * 1000),
            },
            vec![n; 100],
        )
    }

    #[test]
    fn fresh_store_is_not_resident_and_recovers_sparsely() {
        // A big store costs nothing until chunks land, and recovery's
        // full-device scan over mostly-unallocated (erased) blocks finds
        // exactly the chunks that were written.
        let mut s = ChunkStore::new(100_000, 100);
        assert_eq!(s.resident_payload_bytes(), 0);
        s.push_back(chunk(1)).unwrap();
        s.push_back(chunk(2)).unwrap();
        assert!(s.resident_payload_bytes() >= 2 * crate::BLOCK_BYTES as u64);
        let resident = s.resident_payload_bytes();
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 100);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0).unwrap(), Some(chunk(1)));
        assert_eq!(
            r.resident_payload_bytes(),
            resident,
            "recovery must not materialize unwritten blocks"
        );
    }

    #[test]
    fn never_written_store_recovers_empty_and_owns_nothing() {
        let s = ChunkStore::new(64, 16);
        assert!(s.bad.is_empty(), "no bad map before a bad block is found");
        let (flash, eeprom) = s.into_parts();
        let mut r = ChunkStore::recover(flash, eeprom, 16);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 64);
        assert!(
            r.bad.is_empty(),
            "recovery builds no bad map for a clean device"
        );
        assert_eq!(r.resident_payload_bytes(), 0);
        assert_eq!(r.flash().wear_spread(), 0);
        r.push_back(chunk(1)).unwrap();
        assert_eq!(r.pop_front().unwrap(), Some(chunk(1)));
    }

    #[test]
    fn fifo_order() {
        let mut s = ChunkStore::new(4, 100);
        for n in 0..3 {
            s.push_back(chunk(n)).unwrap();
        }
        assert_eq!(s.len(), 3);
        for n in 0..3 {
            assert_eq!(s.pop_front().unwrap(), Some(chunk(n)));
        }
        assert!(s.is_empty());
        assert_eq!(s.pop_front().unwrap(), None);
    }

    #[test]
    fn full_store_rejects_push() {
        let mut s = ChunkStore::new(2, 100);
        s.push_back(chunk(0)).unwrap();
        s.push_back(chunk(1)).unwrap();
        assert!(s.is_full());
        assert_eq!(s.push_back(chunk(2)), Err(StoreError::Full));
        assert_eq!(s.free(), 0);
    }

    #[test]
    fn wraps_around_the_device() {
        let mut s = ChunkStore::new(3, 100);
        for round in 0..5u8 {
            for n in 0..3u8 {
                s.push_back(chunk(round * 3 + n)).unwrap();
            }
            for n in 0..3u8 {
                assert_eq!(s.pop_front().unwrap(), Some(chunk(round * 3 + n)));
            }
        }
        // 15 pushes over 3 blocks: each block written exactly 5 times.
        assert_eq!(s.flash().wear_spread(), 0);
    }

    #[test]
    fn wear_spread_never_exceeds_one_under_fifo_use() {
        let mut s = ChunkStore::new(5, 100);
        let mut n = 0u8;
        for _ in 0..137 {
            if s.is_full() {
                s.pop_front().unwrap();
            }
            s.push_back(chunk(n)).unwrap();
            n = n.wrapping_add(1);
            assert!(s.flash().wear_spread() <= 1, "wear leveling violated");
        }
    }

    #[test]
    fn pop_back_removes_newest() {
        let mut s = ChunkStore::new(4, 100);
        for n in 0..3 {
            s.push_back(chunk(n)).unwrap();
        }
        assert_eq!(s.pop_back().unwrap(), Some(chunk(2)));
        assert_eq!(s.pop_front().unwrap(), Some(chunk(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_does_not_consume() {
        let mut s = ChunkStore::new(4, 100);
        s.push_back(chunk(9)).unwrap();
        assert_eq!(s.get(0).unwrap(), Some(chunk(9)));
        assert_eq!(s.get(1).unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_yields_fifo_order() {
        let mut s = ChunkStore::new(8, 100);
        for n in 0..5 {
            s.push_back(chunk(n)).unwrap();
        }
        let origins: Vec<u32> = s.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recovery_from_checkpoint_exact() {
        let mut s = ChunkStore::new(8, 1); // checkpoint after every op
        for n in 0..5 {
            s.push_back(chunk(n)).unwrap();
        }
        s.pop_front().unwrap();
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 1);
        let origins: Vec<u32> = r.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![1, 2, 3, 4]);
    }

    #[test]
    fn recovery_extends_past_stale_checkpoint() {
        // Large checkpoint interval: the checkpoint is taken once (empty)
        // and several pushes follow before the "crash".
        let mut s = ChunkStore::new(8, 100);
        s.checkpoint(); // cp: head=0 len=0 seq=0
        for n in 0..6 {
            s.push_back(chunk(n)).unwrap();
        }
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 100);
        assert_eq!(r.len(), 6, "all post-checkpoint pushes recovered");
        let origins: Vec<u32> = r.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn recovery_without_any_checkpoint_scans_from_zero() {
        let mut s = ChunkStore::new(8, 1_000_000);
        for n in 0..4 {
            s.push_back(chunk(n)).unwrap();
        }
        let (flash, _discarded_eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, Eeprom::default(), 16);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn recovery_may_resurrect_recent_pops_but_never_loses_pushes() {
        let mut s = ChunkStore::new(8, 1_000_000);
        for n in 0..5 {
            s.push_back(chunk(n)).unwrap();
        }
        s.checkpoint();
        // Post-checkpoint: pop two, push one.
        s.pop_front().unwrap();
        s.pop_front().unwrap();
        s.push_back(chunk(5)).unwrap();
        let live: Vec<u32> = s.iter().map(|c| c.meta.origin.0).collect();
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 16);
        let recovered: Vec<u32> = r.iter().map(|c| c.meta.origin.0).collect();
        for o in &live {
            assert!(recovered.contains(o), "lost pushed chunk {o}");
        }
        // The two popped chunks may reappear — duplicates are allowed.
        assert!(recovered.len() >= live.len());
    }

    #[test]
    fn next_seq_continues_after_recovery() {
        let mut s = ChunkStore::new(8, 1);
        for n in 0..3 {
            s.push_back(chunk(n)).unwrap();
        }
        let (flash, eeprom) = s.into_parts();
        let mut r = ChunkStore::recover(flash, eeprom, 1);
        r.push_back(chunk(3)).unwrap();
        // All four decode with strictly increasing store sequence.
        let (flash, eeprom) = r.into_parts();
        let r2 = ChunkStore::recover(flash, eeprom, 1);
        assert_eq!(r2.len(), 4);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_checkpoint_interval_panics() {
        let _ = ChunkStore::new(4, 0);
    }

    #[test]
    fn bad_block_write_remaps_to_next_slot() {
        let mut s = ChunkStore::new(4, 100);
        s.mark_bad_block(1);
        for n in 0..3 {
            s.push_back(chunk(n)).unwrap(); // block 1 discovered bad mid-way
        }
        assert_eq!(s.remapped_writes(), 1);
        assert_eq!(s.bad.len(), 4, "the first bad block creates the map");
        assert_eq!(s.capacity(), 3, "bad block shrank usable capacity");
        assert!(s.is_full());
        assert_eq!(s.push_back(chunk(9)), Err(StoreError::Full));
        let origins: Vec<u32> = s.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![0, 1, 2], "FIFO order survives the hole");
    }

    #[test]
    fn fifo_flows_around_bad_block_across_wraps() {
        let mut s = ChunkStore::new(4, 100);
        s.mark_bad_block(2);
        let mut n = 0u8;
        let mut expect = 0u8;
        for _ in 0..25 {
            if s.is_full() {
                assert_eq!(s.pop_front().unwrap(), Some(chunk(expect)));
                expect += 1;
            }
            s.push_back(chunk(n)).unwrap();
            n += 1;
        }
        while let Some(c) = s.pop_front().unwrap() {
            assert_eq!(c, chunk(expect));
            expect += 1;
        }
        assert_eq!(n, expect, "every pushed chunk came back in order");
        assert_eq!(s.flash().write_count(2), 0, "bad block never written");
    }

    #[test]
    fn bad_block_on_empty_store_moves_head() {
        let mut s = ChunkStore::new(3, 100);
        s.mark_bad_block(0); // head sits on the bad block while empty
        s.push_back(chunk(1)).unwrap();
        assert_eq!(s.remapped_writes(), 1);
        assert_eq!(s.pop_front().unwrap(), Some(chunk(1)));
    }

    #[test]
    fn recovery_steps_over_bad_holes() {
        let mut s = ChunkStore::new(5, 1);
        s.mark_bad_block(2);
        for n in 0..4 {
            s.push_back(chunk(n)).unwrap(); // lands on 0,1,3,4
        }
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 1);
        assert_eq!(r.capacity(), 4, "recovered store inherits the bad map");
        let origins: Vec<u32> = r.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recovery_distrusts_data_on_late_marked_bad_block() {
        let mut s = ChunkStore::new(4, 1);
        for n in 0..3 {
            s.push_back(chunk(n)).unwrap();
        }
        // The block holding chunk 1 degrades after the write.
        s.mark_bad_block(1);
        let (flash, eeprom) = s.into_parts();
        let r = ChunkStore::recover(flash, eeprom, 1);
        let origins: Vec<u32> = r.iter().map(|c| c.meta.origin.0).collect();
        assert_eq!(origins, vec![0, 2], "hole stepped over, neighbours kept");
    }
}
