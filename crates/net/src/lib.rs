//! Networking substrate for the EnviroMic reproduction.
//!
//! Everything above the raw radio and below the protocol logic:
//!
//! * [`Message`] and the compact wire codec ([`encode_envelope`] /
//!   [`with_envelope`]) — every protocol message §II and §III mention,
//!   envelope-packed so the piggybacking broadcast module can share radio
//!   packets, encoded and decoded through per-thread scratch buffers. The
//!   format is written once, as one list of the messages with their
//!   fields in wire order, from which the encoder, the decoder and
//!   [`Message::kind`] are generated;
//! * [`NeighborTable`] — overheard soft state (member lists, TTLs);
//! * [`PiggybackQueue`] — the neighborhood broadcast module's piggybacking
//!   core (§III-A);
//! * [`BulkSender`] / [`BulkReceiver`] — the reliable local bulk transfer
//!   used by storage balancing, whose lost-final-ACK path is the paper's
//!   documented source of residual redundancy;
//! * [`TreeState`] — spanning-tree construction and query dedup for the
//!   multihop retrieval variant (§II-C).
//!
//! # Examples
//!
//! ```
//! use enviromic_net::{decode_envelope, Message};
//! use enviromic_types::{EventId, NodeId};
//!
//! # fn main() -> Result<(), enviromic_net::WireError> {
//! let msg = Message::LeaderAnnounce { event: EventId::new(NodeId(3), 1) };
//! let bytes = msg.encode();
//! assert_eq!(decode_envelope(&bytes)?, vec![msg]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod bulk;
mod neighbors;
mod packet;
mod tree;
pub mod wire;

pub use broadcast::PiggybackQueue;
pub use bulk::{BulkReceiver, BulkSender, SenderStep};
pub use neighbors::{NeighborInfo, NeighborTable};
pub use packet::{decode_envelope, encode_envelope, with_envelope, Message};
pub use tree::{TreeAction, TreeState};
pub use wire::WireError;
