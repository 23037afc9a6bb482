//! Discrete-event simulation substrate for the EnviroMic reproduction.
//!
//! The original system ran on MicaZ motes in an indoor testbed and a
//! forest. This crate is the substitute testbed: a deterministic
//! discrete-event [`World`] hosting any number of simulated motes, each
//! running an [`Application`] (the EnviroMic protocol, a baseline, a data
//! mule, ...) against
//!
//! * a **radio medium** — single-hop unit-disk broadcast with per-receiver
//!   loss, MAC back-off, and byte-proportional airtime;
//! * an **acoustic field** — point sources with trajectories, attenuation,
//!   and synthesizable waveforms ([`acoustics`]);
//! * a **mote hardware model** — sampling that monopolizes the CPU
//!   ([`mote`] reproduces the Fig. 3 jitter measurement; the [`World`]
//!   enforces the consequence by dropping packets at sampling nodes),
//!   skewed local clocks, and a battery/energy model;
//! * a **trace** — the instrumented ground truth all metrics are computed
//!   from ([`Trace`]).
//!
//! Everything is reproducible from a single seed.
//!
//! The node-facing interface — [`Application`], the [`Runtime`] trait,
//! timers, audio blocks, the trace vocabulary — is defined in
//! `enviromic-runtime`; this crate is one *backend* for it (its
//! [`Context`] implements `Runtime`) and re-exports the shared types for
//! convenience.
//!
//! # Examples
//!
//! ```
//! use enviromic_runtime::Runtime;
//! use enviromic_sim::{Application, World, WorldConfig};
//! use enviromic_types::{MsgKind, Position};
//!
//! struct Hello;
//! impl Application for Hello {
//!     fn on_start(&mut self, ctx: &mut dyn Runtime) {
//!         ctx.broadcast(MsgKind::Sensing.label(), vec![0x01].into());
//!     }
//!     fn as_any(&self) -> &dyn core::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn core::any::Any { self }
//! }
//!
//! let mut world = World::new(WorldConfig::with_seed(1));
//! world.add_node(Position::new(0.0, 0.0), Box::new(Hello));
//! world.add_node(Position::new(1.0, 0.0), Box::new(Hello));
//! world.run_for_secs(1.0);
//! assert_eq!(world.trace().len(), 2); // two SENSING sends recorded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acoustics;
mod config;
pub mod faults;
pub mod mote;
pub mod queue;
pub mod rng;
pub mod spatial;
mod world;

pub use config::{ClockConfig, RadioConfig, WorldConfig};
pub use enviromic_runtime::{
    Application, AudioBlock, DropReason, FaultKind, RecordKind, Runtime, StorageOccupancy, Timer,
    TimerHandle, Trace, TraceEvent,
};
pub use faults::{FaultEvent, FaultPlan, FaultScope};
pub use world::{Context, World};
