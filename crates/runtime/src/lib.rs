//! The node-facing execution interface of the EnviroMic reproduction.
//!
//! The protocol engine in `enviromic-core` is written against two traits
//! defined here and nothing else:
//!
//! * [`Application`] — what a protocol stack looks like *to* a backend:
//!   the callbacks a node receives (start, timers, packets, acoustic
//!   levels, audio blocks, finish).
//! * [`Runtime`] — what a backend looks like *to* a protocol stack: the
//!   side effects a node can have (timers, radio, broadcast, sampling,
//!   clocks, per-node randomness, energy, trace and telemetry emission).
//!
//! Backends implement [`Runtime`]; today that is the discrete-event
//! simulator in `enviromic-sim` (its `Context` type) and the in-crate
//! [`MockRuntime`], a minimal single-node harness for protocol unit tests.
//! A future async or real-device backend slots in the same way without
//! touching the protocol crates.
//!
//! The crate also owns the shared vocabulary both sides speak: [`Timer`] /
//! [`TimerHandle`], [`AudioBlock`], [`StorageOccupancy`], the
//! [`EnergyModel`], and the [`Trace`] / [`TraceEvent`] ground-truth record
//! types every metric is computed from.
//!
//! # Examples
//!
//! ```
//! use enviromic_runtime::{Application, MockRuntime, Runtime};
//! use enviromic_types::{MsgKind, NodeId, SimDuration};
//!
//! struct Hello;
//! impl Application for Hello {
//!     fn on_start(&mut self, ctx: &mut dyn Runtime) {
//!         ctx.broadcast(MsgKind::Sensing.label(), vec![0x01].into());
//!         ctx.set_timer(SimDuration::from_millis(10), 7);
//!     }
//!     fn as_any(&self) -> &dyn core::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn core::any::Any { self }
//! }
//!
//! let mut rt = MockRuntime::new(NodeId(0));
//! let mut app = Hello;
//! rt.start(&mut app);
//! assert_eq!(rt.sent().len(), 1);
//! assert_eq!(rt.sent()[0].kind, MsgKind::Sensing);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod energy;
mod mock;
mod runtime;
mod trace;

pub use app::{Application, AudioBlock, NodeProbe, NodeRole, StorageOccupancy, Timer, TimerHandle};
pub use energy::EnergyModel;
pub use mock::{MockRuntime, SentPacket};
pub use runtime::Runtime;
pub use trace::{DropReason, FaultKind, RecordKind, Trace, TraceEvent};
