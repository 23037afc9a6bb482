//! Deterministic fault injection: scheduled node, radio, and flash faults.
//!
//! EnviroMic's value proposition is graceful degradation — §VI worries
//! explicitly that "defunct or lost motes can cause data loss", and the
//! protocol answers with leader re-election, bounded task-assignment
//! retries, and migration that duplicates rather than loses on a dropped
//! ACK. A [`FaultPlan`] makes those claims testable: it is a *data-only*
//! schedule of fault events that [`crate::World::inject_faults`] turns into
//! entries on the ordinary event queue before the simulation starts.
//!
//! # Determinism
//!
//! Three properties keep fault runs bit-identical per seed, across sweep
//! worker counts, and (for an empty plan) identical to a fault-free run:
//!
//! 1. **Faults are data.** A plan holds no RNG; [`FaultPlan::chaos`]
//!    derives its schedule from a private generator seeded by the job seed
//!    *before* the run, never touching the world's named streams.
//! 2. **Faults ride the event queue.** Injection schedules every fault (and
//!    a window's end) in plan order with the queue's monotone sequence
//!    numbers, so same-instant ties break identically no matter how many
//!    sweep workers share the machine.
//! 3. **Inactive faults are free.** Blackouts and degrades only *raise*
//!    the effective loss probability fed to the existing per-receiver loss
//!    draw; with no fault active the effective loss equals the configured
//!    loss and `medium_rng` consumes exactly the baseline sequence, which
//!    is why the golden digests in `tests/determinism.rs` survive this
//!    feature unchanged.

use enviromic_runtime::FaultKind;
use enviromic_types::{NodeId, Position, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which nodes a radio blackout covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultScope {
    /// Every node in the world.
    All,
    /// A single node.
    Node(NodeId),
    /// Every node within `radius_ft` of `center` (deployment positions
    /// are fixed, so membership is static).
    Region {
        /// Centre of the affected disc.
        center: Position,
        /// Radius of the affected disc, in feet.
        radius_ft: f64,
    },
}

impl FaultScope {
    /// True when the scope covers a node at `pos` with id `node`.
    #[must_use]
    pub fn covers(&self, node: NodeId, pos: Position) -> bool {
        match *self {
            FaultScope::All => true,
            FaultScope::Node(n) => n == node,
            FaultScope::Region { center, radius_ft } => pos.distance_to(center) <= radius_ft,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The node halts: RAM state is lost, the radio goes silent, any
    /// recording session aborts. Flash and EEPROM contents survive.
    NodeCrash {
        /// Crash instant.
        at: SimTime,
        /// The crashing node.
        node: NodeId,
    },
    /// A previously crashed node rejoins: volatile state is reset and the
    /// protocol recovers what it can from flash (the
    /// `recover_collected_mote` path run in place). A reboot of a node
    /// that is alive, or whose battery is exhausted, is a no-op.
    NodeReboot {
        /// Reboot instant.
        at: SimTime,
        /// The rebooting node.
        node: NodeId,
    },
    /// Total radio loss for the covered nodes during `[from, until)`:
    /// their transmissions reach nobody and nothing is delivered to them.
    RadioBlackout {
        /// Blackout start.
        from: SimTime,
        /// Blackout end (exclusive).
        until: SimTime,
        /// Covered nodes.
        scope: FaultScope,
    },
    /// The network-wide packet loss probability is raised to at least
    /// `loss_prob` during `[from, until)` (the configured base loss still
    /// applies as a floor; overlapping degrades take the maximum).
    LinkDegrade {
        /// Degrade start.
        from: SimTime,
        /// Degrade end (exclusive).
        until: SimTime,
        /// Loss probability while active, in `[0, 1]`.
        loss_prob: f64,
    },
    /// Flash block `block` on `node` fails: subsequent writes return an
    /// error the chunk store must skip and remap around.
    FlashBadBlock {
        /// Failure instant.
        at: SimTime,
        /// The afflicted node.
        node: NodeId,
        /// The failing device block.
        block: u32,
    },
}

impl FaultEvent {
    /// When the fault fires, and for a window fault when it ends.
    #[must_use]
    pub(crate) fn window(&self) -> (SimTime, Option<SimTime>) {
        match *self {
            FaultEvent::NodeCrash { at, .. }
            | FaultEvent::NodeReboot { at, .. }
            | FaultEvent::FlashBadBlock { at, .. } => (at, None),
            FaultEvent::RadioBlackout { from, until, .. }
            | FaultEvent::LinkDegrade { from, until, .. } => (from, Some(until)),
        }
    }

    /// The trace kind of the fault's start, or with `end` of its window's
    /// end.
    #[must_use]
    pub(crate) fn kind(&self, end: bool) -> FaultKind {
        match (self, end) {
            (FaultEvent::NodeCrash { .. }, _) => FaultKind::Crash,
            (FaultEvent::NodeReboot { .. }, _) => FaultKind::Reboot,
            (FaultEvent::RadioBlackout { .. }, false) => FaultKind::BlackoutStart,
            (FaultEvent::RadioBlackout { .. }, true) => FaultKind::BlackoutEnd,
            (FaultEvent::LinkDegrade { .. }, false) => FaultKind::DegradeStart,
            (FaultEvent::LinkDegrade { .. }, true) => FaultKind::DegradeEnd,
            (FaultEvent::FlashBadBlock { .. }, _) => FaultKind::FlashBadBlock,
        }
    }

    /// The one node the fault names, for the trace marker: region and
    /// all-node blackouts and link degrades name none.
    #[must_use]
    pub(crate) fn node(&self) -> Option<NodeId> {
        match *self {
            FaultEvent::NodeCrash { node, .. }
            | FaultEvent::NodeReboot { node, .. }
            | FaultEvent::FlashBadBlock { node, .. }
            | FaultEvent::RadioBlackout {
                scope: FaultScope::Node(node),
                ..
            } => Some(node),
            FaultEvent::RadioBlackout { .. } | FaultEvent::LinkDegrade { .. } => None,
        }
    }
}

/// A seed-deterministic schedule of fault events.
///
/// # Examples
///
/// ```
/// use enviromic_sim::{FaultEvent, FaultPlan};
/// use enviromic_types::{NodeId, SimDuration, SimTime};
///
/// let t = |s| SimTime::ZERO + SimDuration::from_secs_f64(s);
/// let plan = FaultPlan::new()
///     .with(FaultEvent::NodeCrash { at: t(30.0), node: NodeId(2) })
///     .with(FaultEvent::NodeReboot { at: t(90.0), node: NodeId(2) });
/// assert_eq!(plan.events().len(), 2);
/// assert!(plan.validate(4).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the run is bit-identical to one
    /// without fault injection).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends one fault, builder-style.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Appends one fault in place.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled faults, in plan order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against a world of `node_count` nodes.
    ///
    /// # Errors
    ///
    /// Describes the first offending event: a node id out of range, an
    /// empty or inverted fault window, or a loss probability outside
    /// `[0, 1]`.
    pub fn validate(&self, node_count: usize) -> Result<(), String> {
        let check_node = |node: NodeId| {
            if node.index() >= node_count {
                Err(format!("fault references node {node:?} of {node_count}"))
            } else {
                Ok(())
            }
        };
        for e in &self.events {
            match *e {
                FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeReboot { node, .. } => {
                    check_node(node)?;
                }
                FaultEvent::RadioBlackout { from, until, scope } => {
                    if let FaultScope::Node(node) = scope {
                        check_node(node)?;
                    }
                    if let FaultScope::Region { radius_ft, .. } = scope {
                        if radius_ft.is_nan() || radius_ft < 0.0 {
                            return Err(format!("blackout radius {radius_ft} invalid"));
                        }
                    }
                    if from >= until {
                        return Err(format!("blackout window {from:?}..{until:?} is empty"));
                    }
                }
                FaultEvent::LinkDegrade {
                    from,
                    until,
                    loss_prob,
                } => {
                    if from >= until {
                        return Err(format!("degrade window {from:?}..{until:?} is empty"));
                    }
                    if !(0.0..=1.0).contains(&loss_prob) {
                        return Err(format!("degrade loss_prob {loss_prob} outside [0, 1]"));
                    }
                }
                FaultEvent::FlashBadBlock { node, .. } => check_node(node)?,
            }
        }
        Ok(())
    }

    /// A reproducible "a bit of everything" plan for the chaos scenario
    /// family: crashes with later reboots, one radio blackout, one link
    /// degrade, and a couple of bad flash blocks, all inside
    /// `[0, duration)`.
    ///
    /// The schedule is a pure function of `(seed, node_count, duration)`;
    /// the private generator below never touches the world's RNG streams.
    ///
    /// # Panics
    ///
    /// Panics when `node_count` is zero or `duration` is not positive.
    #[must_use]
    pub fn chaos(seed: u64, node_count: usize, duration: SimDuration) -> Self {
        assert!(node_count > 0, "chaos plan needs at least one node");
        assert!(!duration.is_zero(), "chaos plan needs a positive duration");
        // Distinct stream from every named world stream ("medium", "node"…):
        // those hash a label, this is a raw xor'd reseed used once, up front.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let span = duration.as_jiffies();
        let at = |frac: f64| SimTime::from_jiffies((span as f64 * frac) as u64);
        let mut plan = FaultPlan::new();

        // One or two crash victims, each rebooting later in the run.
        let victims = 1 + usize::from(node_count > 2);
        for _ in 0..victims {
            let node = NodeId(rng.gen_range(0..node_count) as u32);
            let crash_frac = rng.gen_range(0.10..0.45);
            let reboot_frac = crash_frac + rng.gen_range(0.10..0.35);
            plan.push(FaultEvent::NodeCrash {
                at: at(crash_frac),
                node,
            });
            plan.push(FaultEvent::NodeReboot {
                at: at(reboot_frac),
                node,
            });
        }

        // One radio blackout in the middle of the run.
        let from = rng.gen_range(0.30..0.50);
        let until = from + rng.gen_range(0.05..0.20);
        let scope = if node_count == 1 || rng.gen::<f64>() < 0.5 {
            FaultScope::All
        } else {
            FaultScope::Node(NodeId(rng.gen_range(0..node_count) as u32))
        };
        plan.push(FaultEvent::RadioBlackout {
            from: at(from),
            until: at(until),
            scope,
        });

        // One link-degrade window late in the run.
        let from = rng.gen_range(0.55..0.75);
        let until = from + rng.gen_range(0.05..0.20);
        plan.push(FaultEvent::LinkDegrade {
            from: at(from),
            until: at(until),
            loss_prob: rng.gen_range(0.30..=1.0),
        });

        // A couple of flash blocks failing at random instants.
        for _ in 0..2 {
            plan.push(FaultEvent::FlashBadBlock {
                at: at(rng.gen_range(0.05..0.90)),
                node: NodeId(rng.gen_range(0..node_count) as u32),
                block: rng.gen_range(0..8),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn scope_coverage() {
        let p = Position::new(3.0, 4.0);
        assert!(FaultScope::All.covers(NodeId(7), p));
        assert!(FaultScope::Node(NodeId(7)).covers(NodeId(7), p));
        assert!(!FaultScope::Node(NodeId(7)).covers(NodeId(8), p));
        let region = FaultScope::Region {
            center: Position::new(0.0, 0.0),
            radius_ft: 5.0,
        };
        assert!(region.covers(NodeId(0), p), "3-4-5 triangle: on the rim");
        assert!(!region.covers(NodeId(0), Position::new(3.1, 4.0)));
    }

    #[test]
    fn validate_catches_bad_plans() {
        let ok = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(1.0),
            node: NodeId(3),
        });
        assert!(ok.validate(4).is_ok());
        assert!(ok.validate(3).is_err(), "node 3 of 3 is out of range");

        let empty_window = FaultPlan::new().with(FaultEvent::RadioBlackout {
            from: t(2.0),
            until: t(2.0),
            scope: FaultScope::All,
        });
        assert!(empty_window.validate(1).is_err());

        let bad_loss = FaultPlan::new().with(FaultEvent::LinkDegrade {
            from: t(1.0),
            until: t(2.0),
            loss_prob: 1.5,
        });
        assert!(bad_loss.validate(1).is_err());

        // Total blackout expressed as a degrade is legitimate (the
        // loss_prob range is inclusive of 1.0).
        let total = FaultPlan::new().with(FaultEvent::LinkDegrade {
            from: t(1.0),
            until: t(2.0),
            loss_prob: 1.0,
        });
        assert!(total.validate(1).is_ok());
    }

    #[test]
    fn chaos_is_a_pure_function_of_its_inputs() {
        let d = SimDuration::from_secs_f64(120.0);
        let a = FaultPlan::chaos(42, 10, d);
        let b = FaultPlan::chaos(42, 10, d);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::chaos(43, 10, d));
        assert!(a.validate(10).is_ok());
        assert!(!a.is_empty());
    }

    #[test]
    fn chaos_stays_inside_the_run_window() {
        let d = SimDuration::from_secs_f64(60.0);
        for seed in 0..50 {
            let plan = FaultPlan::chaos(seed, 5, d);
            for e in plan.events() {
                let times: Vec<SimTime> = match *e {
                    FaultEvent::NodeCrash { at, .. }
                    | FaultEvent::NodeReboot { at, .. }
                    | FaultEvent::FlashBadBlock { at, .. } => vec![at],
                    FaultEvent::RadioBlackout { from, until, .. }
                    | FaultEvent::LinkDegrade { from, until, .. } => vec![from, until],
                };
                for at in times {
                    assert!(at <= SimTime::ZERO + d, "{e:?} escapes the window");
                }
            }
        }
    }

    #[test]
    fn chaos_single_node_world_is_valid() {
        let plan = FaultPlan::chaos(7, 1, SimDuration::from_secs_f64(30.0));
        assert!(plan.validate(1).is_ok());
    }
}
