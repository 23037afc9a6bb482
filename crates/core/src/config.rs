//! Protocol node configuration: the settings experiments vary, and the
//! protocol constants they never do.

use enviromic_types::SimDuration;

/// How much of the EnviroMic protocol a node runs — the three settings the
/// paper's evaluation compares (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Baseline: every node independently records for one task period upon
    /// detecting an acoustic event. No coordination, no balancing.
    Uncoordinated,
    /// Cooperative recording (groups, leaders, task assignment) but no
    /// storage balancing.
    CooperativeOnly,
    /// The full system: cooperative recording plus distributed storage
    /// balancing.
    Full,
}

impl Mode {
    /// True when the mode runs group management and task assignment.
    #[must_use]
    pub fn cooperative(self) -> bool {
        !matches!(self, Mode::Uncoordinated)
    }

    /// True when the mode runs the storage balancer.
    #[must_use]
    pub fn balancing(self) -> bool {
        matches!(self, Mode::Full)
    }
}

/// Which storage-balancing policy a node runs. The default is the paper's
/// §II-B β/TTL heuristic; the others are the no-migration baseline and
/// the competing storage-management strategies from the literature that
/// the policy ablation (`crates/bench`) compares head-to-head. The set is
/// closed: the node matches on it at each balancing decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The paper's migration heuristic: migrate to a neighbour whose
    /// storage TTL exceeds this node's by the TTL-dependent factor `β_i`.
    #[default]
    BetaTtl,
    /// Store-local baseline: never migrate, never accept migrations.
    NoMigration,
    /// Coordinated storage (after "Collaborative Storage Management in
    /// Sensor Networks"): migrate only under local storage pressure, to
    /// the neighbour with the most free space, chosen deterministically.
    Coordinated,
    /// Flooding-style redundant dispersal (after "Distributed
    /// Flooding-based Storage Algorithms"): copy each batch to
    /// [`DISPERSAL_K`](crate::DISPERSAL_K) distinct neighbours before
    /// releasing it locally.
    Flooding,
}

impl PolicyKind {
    /// Every selectable policy, in ablation-table order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::BetaTtl,
        PolicyKind::NoMigration,
        PolicyKind::Coordinated,
        PolicyKind::Flooding,
    ];

    /// The policy's stable name, used for CLI selection, sweep labels,
    /// and the `balance.policy.<name>.*` telemetry prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::BetaTtl => "beta-ttl",
            PolicyKind::NoMigration => "no-migration",
            PolicyKind::Coordinated => "coordinated",
            PolicyKind::Flooding => "flooding",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown balance policy {s:?} (known: {})", known.join(", "))
            })
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// --- sound-activated detection -----------------------------------------

/// Hysteresis: the event ends when the level falls below background +
/// `detect_margin * DETECT_OFF_FRACTION`.
pub const DETECT_OFF_FRACTION: f64 = 0.6;
/// EWMA weight for the long-term background noise average.
pub const BACKGROUND_ALPHA: f64 = 0.02;

// --- cooperative recording ----------------------------------------------

/// Maximum random back-off before announcing leadership (§II-A.1).
pub const ELECTION_BACKOFF_MAX: SimDuration = SimDuration::from_millis(500);
/// Maximum random back-off for post-RESIGN handoff elections.
pub const HANDOFF_BACKOFF_MAX: SimDuration = SimDuration::from_millis(100);
/// Period of the `SENSING` beacon while hearing an event.
pub const SENSING_PERIOD: SimDuration = SimDuration::from_millis(400);
/// A member's `SENSING` report older than this no longer counts for task
/// assignment.
pub const MEMBER_FRESHNESS: SimDuration = SimDuration::from_millis(2_500);
/// How long the leader waits for `TASK_CONFIRM`/`TASK_REJECT` before
/// picking another member.
pub const CONFIRM_TIMEOUT: SimDuration = SimDuration::from_millis(150);
/// Maximum recorder candidates tried per assignment round.
pub const MAX_ASSIGN_ATTEMPTS: u32 = 4;

// --- storage balancing --------------------------------------------------

/// `β_i` reaches `β_max` when the node's TTL is at or above this many
/// seconds, and falls linearly to 1 as TTL approaches zero.
pub const BETA_TTL_REF_SECS: f64 = 600.0;
/// Period of `STATE_UPDATE` beacons and balance checks.
pub const STATE_PERIOD: SimDuration = SimDuration::from_millis(5_000);
/// Chunks moved per migration session.
pub const MIGRATE_BATCH: u16 = 16;
/// Bulk-transfer retransmissions before giving up.
pub const BULK_RETRIES: u32 = 3;
/// Bulk-transfer retransmission timeout.
pub const BULK_TIMEOUT: SimDuration = SimDuration::from_millis(80);
/// Initial data acquisition rate estimate `R0`, bytes/second.
pub const INITIAL_RATE: f64 = 0.0;
/// EWMA weight `α` for the acquisition-rate estimate (§II-B).
pub const RATE_ALPHA: f64 = 0.3;
/// Period of acquisition-rate updates.
pub const RATE_PERIOD: SimDuration = SimDuration::from_millis(10_000);

// --- supporting services ------------------------------------------------

/// Soft-state neighbor expiry.
pub const NEIGHBOR_EXPIRY: SimDuration = SimDuration::from_millis(15_000);
/// Fastest time-sync beacon period (during activity).
pub const SYNC_MIN_PERIOD: SimDuration = SimDuration::from_millis(10_000);
/// Slowest time-sync beacon period (quiet network).
pub const SYNC_MAX_PERIOD: SimDuration = SimDuration::from_millis(160_000);
/// Packet budget for piggybacked envelopes, bytes.
pub const PACKET_BUDGET: usize = 100;
/// Longest a delay-tolerant message waits for a piggyback ride.
pub const PIGGYBACK_MAX_WAIT: SimDuration = SimDuration::from_millis(2_000);

/// Configuration of one EnviroMic node: the settings the evaluation
/// varies. Every other protocol parameter is a constant of this crate
/// ([`STATE_PERIOD`], [`MIGRATE_BATCH`], ...).
///
/// Defaults follow the values the paper determined empirically:
/// `Trc = 1.0 s`, `Dta = 70 ms`, 2.730 kHz sampling, 0.5 MB flash.
///
/// Construct via [`NodeConfig::default`] plus struct update syntax, or the
/// chainable setters:
///
/// ```
/// use enviromic_core::{Mode, NodeConfig};
///
/// let cfg = NodeConfig::default()
///     .with_mode(Mode::Full)
///     .with_beta_max(2.0)
///     .with_flash_chunks(1200);
/// assert_eq!(cfg.beta_max, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Protocol mode.
    pub mode: Mode,

    // --- sound-activated detection -------------------------------------
    /// A level must exceed the background estimate by this margin to count
    /// as an acoustic event (ADC units).
    pub detect_margin: f64,

    // --- cooperative recording ------------------------------------------
    /// Recording task period `Trc`.
    pub trc: SimDuration,
    /// Expected task assignment delay `Dta`: the leader starts the next
    /// assignment this early (§III-B.2).
    pub dta: SimDuration,
    /// Prelude length: record this much at event onset without
    /// coordination (§II-A.1); `None` disables the optimization (the
    /// paper's testbed experiments ran without it).
    pub prelude: Option<SimDuration>,

    // --- storage ----------------------------------------------------------
    /// Chunk slots in local flash (2048 × 256 B = the MicaZ 0.5 MB).
    pub flash_chunks: u32,
    /// Chunk-store operations between EEPROM pointer checkpoints.
    pub checkpoint_interval: u32,

    // --- storage balancing ------------------------------------------------
    /// Which storage-balancing policy the node runs.
    pub policy: PolicyKind,
    /// Upper bound `β_max` of the imbalance threshold (§II-B).
    pub beta_max: f64,

    // --- extensions beyond the paper ---------------------------------------
    /// Keep this many replicas of each chunk when migrating (the paper's
    /// future-work "controlled redundancy"); 1 means plain migration.
    pub replication_factor: u8,
    /// Global load-balancing hints (the paper's future-work "global (as
    /// opposed to local greedy) load-balancing"): nodes gossip a diffusive
    /// estimate of the network-wide average free fraction and stop
    /// accepting migrations once they are markedly fuller than the
    /// network average, damping the boundary hot-loading of Fig. 13(c).
    pub global_balance_hints: bool,
    /// Piggybacking of delay-tolerant messages (§III-A). Disable for the
    /// overhead ablation: every message then pays for its own packet.
    pub piggybacking: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            mode: Mode::Full,
            detect_margin: 25.0,
            trc: SimDuration::from_secs_f64(1.0),
            dta: SimDuration::from_millis(70),
            prelude: None,
            flash_chunks: 2048,
            checkpoint_interval: 64,
            policy: PolicyKind::BetaTtl,
            beta_max: 2.0,
            replication_factor: 1,
            global_balance_hints: false,
            piggybacking: true,
        }
    }
}

impl NodeConfig {
    /// Sets the protocol [`Mode`].
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the recording task period `Trc`.
    #[must_use]
    pub fn with_trc(mut self, trc: SimDuration) -> Self {
        self.trc = trc;
        self
    }

    /// Sets the expected task assignment delay `Dta`.
    #[must_use]
    pub fn with_dta(mut self, dta: SimDuration) -> Self {
        self.dta = dta;
        self
    }

    /// Sets the balancing sensitivity bound `β_max`.
    #[must_use]
    pub fn with_beta_max(mut self, beta_max: f64) -> Self {
        self.beta_max = beta_max;
        self
    }

    /// Selects the storage-balancing [`PolicyKind`].
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the local flash capacity in chunks.
    #[must_use]
    pub fn with_flash_chunks(mut self, chunks: u32) -> Self {
        self.flash_chunks = chunks;
        self
    }

    /// Enables the prelude optimization with the given length.
    #[must_use]
    pub fn with_prelude(mut self, prelude: SimDuration) -> Self {
        self.prelude = Some(prelude);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.detect_margin.is_finite() && self.detect_margin > 0.0) {
            return Err("detect_margin must be finite and positive".into());
        }
        if self.trc.is_zero() {
            return Err("task period Trc must be positive".into());
        }
        if self.dta >= self.trc {
            return Err("Dta must be smaller than Trc".into());
        }
        if self.flash_chunks == 0 {
            return Err("flash capacity must be positive".into());
        }
        if !(self.beta_max.is_finite() && self.beta_max >= 1.0) {
            return Err("beta_max must be finite and at least 1".into());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = NodeConfig::default();
        assert!((c.trc.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(c.dta, SimDuration::from_millis(70));
        assert_eq!(c.flash_chunks, 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mode_capabilities() {
        assert!(!Mode::Uncoordinated.cooperative());
        assert!(Mode::CooperativeOnly.cooperative());
        assert!(!Mode::CooperativeOnly.balancing());
        assert!(Mode::Full.balancing());
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = NodeConfig::default();
        assert!(base.clone().with_trc(SimDuration::ZERO).validate().is_err());
        assert!(base
            .clone()
            .with_dta(SimDuration::from_secs_f64(2.0))
            .validate()
            .is_err());
        assert!(base.clone().with_flash_chunks(0).validate().is_err());
        assert!(base.clone().with_beta_max(0.5).validate().is_err());
        let mut c = base.clone();
        c.replication_factor = 0;
        assert!(c.validate().is_err());
        for margin in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = base.clone();
            c.detect_margin = margin;
            assert!(c.validate().is_err(), "detect_margin {margin}");
        }
    }

    #[test]
    fn validation_rejects_a_non_finite_beta_max() {
        // `NaN < 1.0` is false, so a plain lower-bound check lets NaN
        // through; the node then runs with a NaN β that no migration
        // offer records.
        for beta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = NodeConfig::default()
                .with_beta_max(beta)
                .validate()
                .unwrap_err();
            assert!(err.contains("beta_max"), "{beta}: {err}");
        }
        assert!(NodeConfig::default().with_beta_max(1.0).validate().is_ok());
    }

    #[test]
    fn policy_names_round_trip_and_unknowns_are_rejected() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "fountain".parse::<PolicyKind>().unwrap_err();
        assert!(err.contains("unknown balance policy"), "{err}");
        assert!(err.contains("beta-ttl"), "error lists known names: {err}");
        // Case and spelling must match exactly: near-misses are errors,
        // not silent fallbacks to the default policy.
        assert!("BetaTtl".parse::<PolicyKind>().is_err());
        assert!("".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn builder_style_setters_chain() {
        let c = NodeConfig::default()
            .with_mode(Mode::Uncoordinated)
            .with_prelude(SimDuration::from_secs_f64(1.0))
            .with_beta_max(3.0)
            .with_policy(PolicyKind::Flooding);
        assert_eq!(c.mode, Mode::Uncoordinated);
        assert!(c.prelude.is_some());
        assert_eq!(c.beta_max, 3.0);
        assert_eq!(c.policy, PolicyKind::Flooding);
    }
}
