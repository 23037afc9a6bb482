//! The raw flash block device.
//!
//! Models the mote's external flash at the granularity EnviroMic uses it:
//! fixed 256-byte blocks, each with a finite write endurance. The paper's
//! local data organization (§III-B.3) is built on exactly this interface;
//! the wear counters let the tests assert the circular-queue layout's
//! wear-leveling invariant ("all the blocks receive almost the same number
//! of write operations, different by at most 1").

use enviromic_types::audio::CHUNK_BYTES;

/// Size of one flash block in bytes.
pub const BLOCK_BYTES: usize = CHUNK_BYTES as usize;

/// Errors returned by the [`Flash`] device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Block index beyond the device capacity.
    OutOfBounds {
        /// The offending index.
        index: u32,
        /// The device's block count.
        capacity: u32,
    },
    /// The block reached its write-endurance limit.
    WearExceeded {
        /// The worn-out block.
        index: u32,
    },
    /// Data longer than one block.
    DataTooLong {
        /// Bytes offered.
        len: usize,
    },
    /// The block was marked bad (fault injection): writes fail until the
    /// caller remaps around it.
    BadBlock {
        /// The bad block.
        index: u32,
    },
}

impl core::fmt::Display for FlashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlashError::OutOfBounds { index, capacity } => {
                write!(f, "block {index} out of bounds (capacity {capacity})")
            }
            FlashError::WearExceeded { index } => {
                write!(f, "block {index} exceeded its write endurance")
            }
            FlashError::DataTooLong { len } => {
                write!(
                    f,
                    "data of {len} bytes does not fit a {BLOCK_BYTES}-byte block"
                )
            }
            FlashError::BadBlock { index } => {
                write!(f, "block {index} is marked bad")
            }
        }
    }
}

impl std::error::Error for FlashError {}

/// A simulated flash device of fixed-size blocks with per-block wear
/// accounting.
///
/// # Examples
///
/// ```
/// use enviromic_flash::{Flash, BLOCK_BYTES};
///
/// # fn main() -> Result<(), enviromic_flash::FlashError> {
/// let mut flash = Flash::new(16, 10_000);
/// flash.write_block(3, &[0xAB; 10])?;
/// assert_eq!(&flash.read_block(3)?[..2], &[0xAB, 0xAB]);
/// assert_eq!(flash.write_count(3), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Flash {
    /// Per-block records, empty until the first [`Flash::write_block`] or
    /// [`Flash::mark_bad`] and then one per block. A device nobody
    /// touches, like most of a city world's, owns no heap at all, and
    /// reads as erased, unworn and good everywhere.
    blocks: Vec<Block>,
    block_count: u32,
    endurance: u32,
}

/// One block's state: 16 B, so a touched 2,048-block device costs 32 KB
/// of records on top of the payloads it actually wrote.
#[derive(Debug, Clone, Default)]
struct Block {
    /// The payload, allocated on the block's first write: `None` reads as
    /// all `0xFF`, indistinguishable from an eagerly erased array.
    payload: Option<Box<[u8; BLOCK_BYTES]>>,
    /// Completed writes; they stop at the endurance, which fits a `u32`.
    writes: u32,
    bad: bool,
}

/// What an unwritten (erased) block reads as.
static ERASED_BLOCK: [u8; BLOCK_BYTES] = [0xFF; BLOCK_BYTES];

impl Flash {
    /// Creates a device with `blocks` erased blocks and the given per-block
    /// write `endurance`. Nothing is allocated until the first write or
    /// bad-block mark ([`Flash::resident_payload_bytes`] starts at zero).
    ///
    /// # Panics
    ///
    /// Panics when `blocks` is zero or `endurance` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(blocks: u32, endurance: u64) -> Self {
        assert!(blocks > 0, "flash needs at least one block");
        let endurance = u32::try_from(endurance).expect("flash endurance must fit in a u32");
        Flash {
            blocks: Vec::new(),
            block_count: blocks,
            endurance,
        }
    }

    /// Number of blocks on the device.
    #[must_use]
    pub fn block_count(&self) -> u32 {
        self.block_count
    }

    /// `index` as a position in `blocks`, or the error naming it.
    fn position(&self, index: u32) -> Result<usize, FlashError> {
        if index < self.block_count {
            Ok(index as usize)
        } else {
            Err(FlashError::OutOfBounds {
                index,
                capacity: self.block_count,
            })
        }
    }

    /// The record of block `index`, if the device has been touched.
    fn block(&self, index: u32) -> Option<&Block> {
        self.blocks.get(index as usize)
    }

    /// The record of block `index`, creating every block's record on the
    /// device's first touch.
    fn block_mut(&mut self, index: u32) -> Result<&mut Block, FlashError> {
        let i = self.position(index)?;
        if self.blocks.is_empty() {
            self.blocks
                .resize_with(self.block_count as usize, Block::default);
        }
        Ok(&mut self.blocks[i])
    }

    /// Writes `data` to block `index` (short data is padded with `0xFF`).
    ///
    /// # Errors
    ///
    /// Checked in this order: [`FlashError::DataTooLong`] when `data`
    /// exceeds a block, [`FlashError::OutOfBounds`] for a bad index,
    /// [`FlashError::BadBlock`] for a block marked bad, and
    /// [`FlashError::WearExceeded`] when the block hit its endurance limit.
    pub fn write_block(&mut self, index: u32, data: &[u8]) -> Result<(), FlashError> {
        if data.len() > BLOCK_BYTES {
            return Err(FlashError::DataTooLong { len: data.len() });
        }
        let endurance = self.endurance;
        let block = self.block_mut(index)?;
        if block.bad {
            return Err(FlashError::BadBlock { index });
        }
        if block.writes >= endurance {
            return Err(FlashError::WearExceeded { index });
        }
        // First write to this block materializes its payload.
        let payload = block
            .payload
            .get_or_insert_with(|| Box::new([0xFF; BLOCK_BYTES]));
        payload[..data.len()].copy_from_slice(data);
        payload[data.len()..].fill(0xFF);
        block.writes += 1;
        Ok(())
    }

    /// Reads block `index`. A never-written block reads as all `0xFF`
    /// (erased), exactly as if its payload had been allocated eagerly.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfBounds`] for a bad index.
    pub fn read_block(&self, index: u32) -> Result<&[u8; BLOCK_BYTES], FlashError> {
        self.position(index)?;
        Ok(self
            .block(index)
            .and_then(|b| b.payload.as_deref())
            .unwrap_or(&ERASED_BLOCK))
    }

    /// Bytes of block payload actually resident in memory:
    /// `BLOCK_BYTES` for each block that has been written at least once.
    /// A fresh device reports zero no matter its addressable capacity.
    #[must_use]
    pub fn resident_payload_bytes(&self) -> u64 {
        self.blocks.iter().filter(|b| b.payload.is_some()).count() as u64 * BLOCK_BYTES as u64
    }

    /// The number of completed writes to block `index` (0 for bad indices).
    #[must_use]
    pub fn write_count(&self, index: u32) -> u64 {
        self.block(index).map_or(0, |b| u64::from(b.writes))
    }

    /// Marks block `index` bad: subsequent writes return
    /// [`FlashError::BadBlock`]. Reads still succeed — data already on the
    /// block stays readable, which is how real NAND bad blocks behave for
    /// previously-programmed pages. Out-of-range indices are ignored.
    pub fn mark_bad(&mut self, index: u32) {
        if let Ok(block) = self.block_mut(index) {
            block.bad = true;
        }
    }

    /// True when block `index` has been marked bad.
    #[must_use]
    pub fn is_bad(&self, index: u32) -> bool {
        self.block(index).is_some_and(|b| b.bad)
    }

    /// The spread between the most- and least-written block.
    ///
    /// The chunk store's circular layout keeps this ≤ 1 — the §III-B.3
    /// wear-leveling property the tests assert.
    #[must_use]
    pub fn wear_spread(&self) -> u64 {
        let max = self.blocks.iter().map(|b| b.writes).max().unwrap_or(0);
        let min = self.blocks.iter().map(|b| b.writes).min().unwrap_or(0);
        u64::from(max - min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut f = Flash::new(4, 100);
        f.write_block(0, &[1, 2, 3]).unwrap();
        let b = f.read_block(0).unwrap();
        assert_eq!(&b[..3], &[1, 2, 3]);
        assert_eq!(b[3], 0xFF, "padding fills with erased value");
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut f = Flash::new(2, 100);
        assert_eq!(
            f.write_block(2, &[0]),
            Err(FlashError::OutOfBounds {
                index: 2,
                capacity: 2
            })
        );
        assert!(f.read_block(9).is_err());
    }

    #[test]
    fn rejects_oversized_data() {
        let mut f = Flash::new(1, 100);
        let big = vec![0u8; BLOCK_BYTES + 1];
        assert_eq!(
            f.write_block(0, &big),
            Err(FlashError::DataTooLong {
                len: BLOCK_BYTES + 1
            })
        );
    }

    #[test]
    fn enforces_endurance() {
        let mut f = Flash::new(1, 2);
        f.write_block(0, &[1]).unwrap();
        f.write_block(0, &[2]).unwrap();
        assert_eq!(
            f.write_block(0, &[3]),
            Err(FlashError::WearExceeded { index: 0 })
        );
        assert_eq!(f.write_count(0), 2);
    }

    #[test]
    fn wear_spread_tracks_counts() {
        let mut f = Flash::new(3, 100);
        assert_eq!(f.wear_spread(), 0);
        f.write_block(0, &[0]).unwrap();
        f.write_block(0, &[0]).unwrap();
        f.write_block(1, &[0]).unwrap();
        assert_eq!(f.wear_spread(), 2);
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = FlashError::WearExceeded { index: 7 };
        assert!(e.to_string().contains("7"));
        let e = FlashError::OutOfBounds {
            index: 9,
            capacity: 4,
        };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = Flash::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "endurance must fit in a u32")]
    fn endurance_beyond_u32_panics() {
        let _ = Flash::new(1, u64::from(u32::MAX) + 1);
    }

    #[test]
    fn block_record_stays_at_16_bytes() {
        assert_eq!(std::mem::size_of::<Block>(), 16);
    }

    #[test]
    fn never_written_device_owns_nothing_and_reads_erased() {
        let f = Flash::new(64, 10_000);
        assert!(f.blocks.is_empty(), "no per-block table before a touch");
        assert_eq!(f.block_count(), 64);
        for i in 0..64 {
            assert!(f.read_block(i).unwrap().iter().all(|&b| b == 0xFF));
            assert_eq!(f.write_count(i), 0);
            assert!(!f.is_bad(i));
        }
        assert_eq!(f.wear_spread(), 0);
        assert_eq!(f.resident_payload_bytes(), 0);
        let copy = f.clone();
        assert!(copy.blocks.is_empty());
    }

    #[test]
    fn mark_bad_before_any_write_rejects_that_block_only() {
        let mut f = Flash::new(4, 100);
        f.mark_bad(1);
        assert_eq!(f.blocks.len(), 4, "the first touch creates every record");
        assert!(f.is_bad(1));
        assert!(!f.is_bad(0));
        assert_eq!(
            f.write_block(1, &[1]),
            Err(FlashError::BadBlock { index: 1 })
        );
        assert!(f.read_block(1).unwrap().iter().all(|&b| b == 0xFF));
        assert_eq!(f.resident_payload_bytes(), 0, "a mark writes no payload");
        f.write_block(0, &[5]).unwrap();
        assert_eq!(f.write_count(0), 1);
        assert_eq!(f.write_count(1), 0);
        assert_eq!(f.wear_spread(), 1);
    }

    #[test]
    fn out_of_range_indices_touch_nothing() {
        let mut f = Flash::new(3, 100);
        let oob = FlashError::OutOfBounds {
            index: 3,
            capacity: 3,
        };
        assert_eq!(f.write_block(3, &[1]), Err(oob));
        assert_eq!(f.read_block(3), Err(oob));
        f.mark_bad(3);
        assert!(!f.is_bad(3));
        assert_eq!(f.write_count(3), 0);
        assert!(f.blocks.is_empty(), "a rejected index allocates nothing");
        // Oversized data is rejected before the index is looked at.
        let big = vec![0u8; BLOCK_BYTES + 1];
        assert_eq!(
            f.write_block(3, &big),
            Err(FlashError::DataTooLong {
                len: BLOCK_BYTES + 1
            })
        );
    }

    #[test]
    fn payloads_are_lazy_until_first_write() {
        // 1M addressable blocks (256 MB of payload if eager) must cost
        // nothing up front and read as erased.
        let mut f = Flash::new(1_000_000, 100);
        assert_eq!(f.resident_payload_bytes(), 0);
        assert!(f.read_block(999_999).unwrap().iter().all(|&b| b == 0xFF));
        f.write_block(123_456, &[1, 2, 3]).unwrap();
        assert_eq!(f.resident_payload_bytes(), BLOCK_BYTES as u64);
        assert_eq!(&f.read_block(123_456).unwrap()[..3], &[1, 2, 3]);
        // Rewriting the same block allocates nothing new.
        f.write_block(123_456, &[9]).unwrap();
        assert_eq!(f.resident_payload_bytes(), BLOCK_BYTES as u64);
    }

    #[test]
    fn bad_block_rejects_writes_but_keeps_reads() {
        let mut f = Flash::new(4, 100);
        f.write_block(2, &[7, 8]).unwrap();
        f.mark_bad(2);
        assert!(f.is_bad(2));
        assert_eq!(
            f.write_block(2, &[9]),
            Err(FlashError::BadBlock { index: 2 })
        );
        assert_eq!(&f.read_block(2).unwrap()[..2], &[7, 8], "old data readable");
        assert_eq!(f.write_count(2), 1, "failed write leaves wear untouched");
        f.mark_bad(99); // out of range: ignored
        assert!(!f.is_bad(99));
        assert!(FlashError::BadBlock { index: 2 }
            .to_string()
            .contains("bad"));
    }
}
