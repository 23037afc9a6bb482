//! Flash storage substrate for the EnviroMic reproduction.
//!
//! Models the mote-side storage stack of §III-B.3 ("Local Data
//! Organization"):
//!
//! * [`Flash`] — a raw block device of 256-byte pages with per-block write
//!   endurance and wear accounting;
//! * [`Chunk`] / [`ChunkMeta`] — one audio chunk per block, headered with
//!   timestamps, the recording node, and the event (file) ID;
//! * [`ChunkStore`] — the circular FIFO queue the paper describes, whose
//!   sequential write pattern wear-levels the device (write counts differ
//!   by at most 1);
//! * [`Eeprom`] — the pointer-checkpoint area enabling post-crash recovery
//!   of a collected mote's data ([`ChunkStore::recover`]).
//!
//! # Examples
//!
//! ```
//! use enviromic_flash::{Chunk, ChunkMeta, ChunkStore};
//! use enviromic_types::{EventId, NodeId, SimTime};
//!
//! # fn main() -> Result<(), enviromic_flash::StoreError> {
//! let mut store = ChunkStore::new(2048, 64); // a 0.5 MB flash
//! store.push_back(Chunk::new(
//!     ChunkMeta {
//!         origin: NodeId(7),
//!         event: Some(EventId::new(NodeId(7), 1)),
//!         t_start: SimTime::ZERO,
//!     },
//!     vec![128; 232],
//! ))?;
//! assert_eq!(store.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod eeprom;
mod meta;
mod store;
mod wear;

pub use device::{Flash, FlashError, BLOCK_BYTES};
pub use eeprom::{Checkpoint, Eeprom, EepromWornOut};
pub use meta::{Chunk, ChunkMeta, DecodeError, MAX_LEADER_ID, MAX_ORIGIN_ID};
pub use store::{ChunkStore, StoreError};
pub use wear::record_wear;
