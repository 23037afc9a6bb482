//! Core identifiers, time base, geometry, and shared configuration types for
//! the EnviroMic reproduction.
//!
//! EnviroMic (Luo et al., ICDCS 2007) is a cooperative acoustic recording,
//! storage, and retrieval system for disconnected mote networks. This crate
//! holds the vocabulary types shared by every other crate in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — the simulation time base, counted in
//!   *jiffies* (1/32768 s), the clock unit of the MicaZ motes the paper
//!   deployed on.
//! * [`NodeId`] — a mote identity.
//! * [`EventId`] — the identity the elected leader assigns to an acoustic
//!   event; it doubles as the distributed *file* identifier.
//! * [`Position`] — planar deployment coordinates, in feet (the paper's
//!   testbeds are specified in feet).
//! * [`SourceId`] — the identity of a ground-truth acoustic source.
//! * [`GapRange`] — one origin's missing audio range, found by the
//!   archive's gap detector and re-requested by the protocol.
//! * [`MsgKind`] — the kind of a protocol message, as traces label it.
//! * [`Bytes`] — a cheaply clonable immutable byte buffer, used for radio
//!   payloads shared across a broadcast fan-out.
//! * [`audio`] — constants tying sampling rate to storage volume.
//!
//! # Examples
//!
//! ```
//! use enviromic_types::{SimDuration, SimTime, NodeId, EventId};
//!
//! let start = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
//! assert_eq!(start.as_jiffies(), 49152);
//!
//! let file = EventId::new(NodeId(7), 3);
//! assert_eq!(file.to_string(), "evt-7.3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audio;
mod bytes;
mod event;
mod gap;
mod geometry;
mod msg_kind;
mod node;
mod source;
mod time;

pub use bytes::Bytes;
pub use event::EventId;
pub use gap::GapRange;
pub use geometry::Position;
pub use msg_kind::MsgKind;
pub use node::NodeId;
pub use source::SourceId;
pub use time::{SimDuration, SimTime, JIFFIES_PER_SEC};
