//! EnviroMic: cooperative acoustic recording, distributed storage
//! balancing, and data retrieval for disconnected sensor networks.
//!
//! This crate is the primary contribution of the reproduction: a complete
//! implementation of the protocol suite from *"EnviroMic: Towards
//! Cooperative Storage and Retrieval in Audio Sensor Networks"* (Luo et
//! al., ICDCS 2007). The protocol is written against the backend-agnostic
//! [`Runtime`](enviromic_runtime::Runtime) interface of
//! `enviromic-runtime`, so the same code runs on the discrete-event
//! simulator (`enviromic-sim`), the in-memory
//! [`MockRuntime`](enviromic_runtime::MockRuntime) used by unit tests, or
//! any future backend.
//!
//! * [`EnviroMicNode`] — one mote's full protocol stack: sound-activated
//!   detection ([`SoundDetector`]), group management with leader election
//!   and handoff, cooperative task assignment, the prelude optimization,
//!   chunked flash storage, TTL-driven storage balancing, FTSP-style time
//!   sync, and query answering. The [`Mode`] in [`NodeConfig`] selects
//!   between the full system and the paper's two baselines.
//! * [`BalancePolicy`] — the pluggable storage-balancing decision layer:
//!   the paper's §II-B β/TTL heuristic ([`BetaTtlPolicy`], the default)
//!   plus competing policies from the literature, selected per node via
//!   [`NodeConfig::policy`] for head-to-head ablation.
//! * [`DataMule`] — the collecting user, in one-hop or spanning-tree
//!   retrieval mode.
//! * [`recover_collected_mote`] — the physical-collection fallback,
//!   including crash recovery from EEPROM pointer checkpoints.
//!
//! # Examples
//!
//! ```
//! use enviromic_core::{EnviroMicNode, Mode, NodeConfig};
//! use enviromic_runtime::MockRuntime;
//! use enviromic_types::{NodeId, SimDuration};
//!
//! let cfg = NodeConfig::default().with_mode(Mode::Full);
//! let mut node = EnviroMicNode::new(cfg);
//! let mut rt = MockRuntime::new(NodeId(0));
//! rt.start(&mut node);
//! assert!(!rt.pending_timers().is_empty()); // periodic protocol timers armed
//! rt.advance(&mut node, SimDuration::from_secs_f64(5.0));
//! ```
//!
//! To run a whole network, hand boxed nodes to the simulator's
//! `World::add_node` instead (see the root-crate harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod config;
mod detector;
mod node;
mod policy;
mod retrieve;
mod storage;
mod tasks;

pub use config::{
    Mode, NodeConfig, PolicyKind, BACKGROUND_ALPHA, BETA_TTL_REF_SECS, BULK_RETRIES, BULK_TIMEOUT,
    CONFIRM_TIMEOUT, DETECT_OFF_FRACTION, ELECTION_BACKOFF_MAX, HANDOFF_BACKOFF_MAX, INITIAL_RATE,
    MAX_ASSIGN_ATTEMPTS, MEMBER_FRESHNESS, MIGRATE_BATCH, NEIGHBOR_EXPIRY, PACKET_BUDGET,
    PIGGYBACK_MAX_WAIT, RATE_ALPHA, RATE_PERIOD, SENSING_PERIOD, STATE_PERIOD, SYNC_MAX_PERIOD,
    SYNC_MIN_PERIOD,
};
pub use detector::{Detection, SoundDetector};
pub use node::{EnviroMicNode, NodeStats};
pub use policy::{
    build_policy, BalancePolicy, BalanceView, BetaTtlPolicy, CoordinatedStoragePolicy,
    FloodingDispersalPolicy, MigrationPlan, NeighborView, NoMigrationPolicy, COORD_HEADROOM,
    COORD_LOW_WATER, DISPERSAL_K,
};
pub use retrieve::{
    recover_collected_mote, DataMule, MuleConfig, RerequestBatch, RerequestPlan, RetrievalMode,
    RetrievedFile,
};
pub use storage::TracedStore;
