//! Pluggable storage-balancing policies.
//!
//! The migration *decision* of §II-B — when to shed data, to whom, and
//! how much — is separated from the migration *mechanics* (the
//! MigrateOffer/MigrateAccept/BulkData choreography in `balance.rs`)
//! behind the object-safe [`BalancePolicy`] trait. The node snapshots its
//! balancing-relevant state into a [`BalanceView`] at each decision point
//! and delegates; the session plumbing, telemetry bookkeeping, and wire
//! protocol are shared by every policy, so competing storage strategies
//! from the literature drop in without touching protocol internals.
//!
//! Four policies ship (selected by
//! [`PolicyKind`](crate::PolicyKind) in
//! [`BalanceConfig`](crate::BalanceConfig)):
//!
//! * [`BetaTtlPolicy`] — the paper's §II-B heuristic, **bit-for-bit** the
//!   pre-refactor behaviour: same guards, same eligibility scan over the
//!   sorted neighbour table, same single RNG draw. The golden trace
//!   digests pin this equivalence.
//! * [`NoMigrationPolicy`] — the store-local baseline: never offers,
//!   never accepts.
//! * [`CoordinatedStoragePolicy`] — neighbour free-space coordination
//!   (after PAPERS.md "Collaborative Storage Management in Sensor
//!   Networks"): migrate only under a local low-water pressure mark, to
//!   the deterministically chosen emptiest neighbour.
//! * [`FloodingDispersalPolicy`] — redundant k-way dispersal (after
//!   PAPERS.md "Distributed Flooding-based Storage Algorithms"): each
//!   chunk batch is copied to `dispersal_k` distinct neighbours before
//!   the local copy is released.
//!
//! # Determinism
//!
//! Every policy is a pure function of the [`BalanceView`] and (at most)
//! the node's seeded RNG stream ([`Runtime::rng`]): no wall clocks, no
//! iteration over unordered containers (the view's neighbour slice is
//! pre-sorted by node ID), no hidden state outside the policy struct
//! itself — which is rebuilt from [`BalanceConfig`] on reboot, exactly
//! like the rest of the node's RAM state. Per-seed sweep digests are
//! therefore bit-identical at any worker count for *every* policy, and
//! chaos fault schedules compose with them unchanged (`tests/`
//! `determinism.rs`, `crates/bench` policy matrix).

use crate::config::{BalanceConfig, NodeConfig, PolicyKind};
use enviromic_runtime::Runtime;
use enviromic_telemetry::{Counter, Registry};
use enviromic_types::NodeId;
use rand::Rng;

/// What the node knows about one neighbour, snapshotted from the
/// soft-state neighbour table in node-ID order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborView {
    /// The neighbour's ID.
    pub node: NodeId,
    /// Its last reported storage TTL in whole seconds; `u32::MAX` encodes
    /// "infinite" (no inflow).
    pub ttl_secs: u32,
    /// Its last reported free chunk slots.
    pub free_chunks: u32,
    /// Its gossiped network-average free fraction, percent (the
    /// global-balance-hints extension).
    pub avg_free_pct: u8,
}

/// A read-only snapshot of everything a balancing decision may consult.
///
/// Built by the node at each decision point (state tick, inbound offer,
/// bulk acknowledgement); policies never see the node itself, so they
/// cannot perturb protocol state or trace emission.
#[derive(Debug)]
pub struct BalanceView<'a> {
    /// This node's ID.
    pub me: NodeId,
    /// `TTL_storage` in seconds: free bytes over the EWMA acquisition
    /// rate (§II-B). Infinite when nothing is flowing in.
    pub ttl_storage_secs: f64,
    /// The EWMA acquisition rate, bytes/second.
    pub rate: f64,
    /// Chunks currently stored locally.
    pub stored_chunks: u32,
    /// Free local chunk slots.
    pub free_chunks: u32,
    /// Local flash capacity in chunks.
    pub capacity_chunks: u32,
    /// The diffusive estimate of the network-wide average free fraction
    /// (global-balance-hints extension), in `[0, 1]`.
    pub net_avg_free: f64,
    /// Known neighbours, sorted by node ID.
    pub neighbors: &'a [NeighborView],
    /// The node's full configuration.
    pub cfg: &'a NodeConfig,
}

impl BalanceView<'_> {
    /// `TTL_energy` (§II-B): expected seconds until the battery dies if
    /// the node keeps moving data out at its acquisition rate.
    ///
    /// Reads (and settles) the backend's energy meter, so policies must
    /// call it on exactly the decision paths that need it — the β/TTL
    /// policy consults it only after its own TTL proves finite, which the
    /// golden digests depend on.
    pub fn ttl_energy_secs(&self, ctx: &mut dyn Runtime) -> f64 {
        let e = ctx.energy_model();
        let tx_duty = if self.rate > 0.0 {
            (self.rate * 8.0 / 250_000.0).min(1.0)
        } else {
            0.0
        };
        let drain_mw = e.idle_mw + e.radio_listen_mw + e.radio_tx_mw * tx_duty;
        if drain_mw <= 0.0 {
            return f64::INFINITY;
        }
        ctx.energy_mj() / drain_mw
    }

    /// This node's free fraction of local flash, in `[0, 1]`.
    #[must_use]
    pub fn own_free_fraction(&self) -> f64 {
        f64::from(self.free_chunks) / f64::from(self.capacity_chunks)
    }
}

/// A migration the policy wants to initiate: offer `chunks` chunks to
/// `target` over the bulk-transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// The chosen donee.
    pub target: NodeId,
    /// Chunks to offer (already clamped to the batch size, local store,
    /// and the target's advertised free space).
    pub chunks: u16,
    /// The imbalance threshold in force, for policies that have one; fed
    /// to the `core.balance.beta` histogram when present.
    pub beta: Option<f64>,
}

/// A storage-balancing strategy: the decision layer of §II-B.
///
/// One boxed policy instance lives on each node, constructed from
/// [`BalanceConfig`] by [`build_policy`] (and reconstructed on reboot —
/// policy state is RAM state). The node calls in at three points of the
/// shared migration machinery; everything else (session lifecycle,
/// retries, trace emission, telemetry) is policy-independent.
pub trait BalancePolicy: std::fmt::Debug + Send {
    /// Which [`PolicyKind`] this policy implements.
    fn kind(&self) -> PolicyKind;

    /// The periodic migration decision, run at every state tick once the
    /// node is idle (no outbound session, no pending offer, store
    /// non-empty). Returns the migration to propose, or `None` to hold
    /// all data locally this tick.
    ///
    /// `ctx` provides the node's seeded RNG stream and energy meter; all
    /// randomness must come from it.
    fn should_migrate(
        &mut self,
        ctx: &mut dyn Runtime,
        view: &BalanceView<'_>,
    ) -> Option<MigrationPlan>;

    /// Whether to accept an inbound `MigrateOffer` of `chunks` chunks
    /// from `from`. The node has already rejected offers it mechanically
    /// cannot serve (session in progress, store full).
    fn accept_inbound(&mut self, view: &BalanceView<'_>, from: NodeId, chunks: u16) -> bool;

    /// Whether to keep the local copy of a chunk whose migration was just
    /// acknowledged (`true`) instead of releasing it (`false`). Returning
    /// `true` leaves the chunk at the head of the store for re-dispersal
    /// — the mechanism behind deliberate redundancy.
    fn retain_after_ack(&mut self, view: &BalanceView<'_>) -> bool;

    /// Notification that an outbound migration session to `to` finished
    /// (all chunks acknowledged, or the sender gave up after losses).
    fn on_migration_session_closed(&mut self, to: NodeId) {
        let _ = to;
    }
}

/// Constructs the policy selected by `cfg`.
#[must_use]
pub fn build_policy(cfg: &BalanceConfig) -> Box<dyn BalancePolicy> {
    match cfg.policy {
        PolicyKind::BetaTtl => Box::new(BetaTtlPolicy),
        PolicyKind::NoMigration => Box::new(NoMigrationPolicy),
        PolicyKind::Coordinated => Box::new(CoordinatedStoragePolicy {
            low_water: cfg.coord_low_water,
            headroom: cfg.coord_headroom,
        }),
        PolicyKind::Flooding => Box::new(FloodingDispersalPolicy {
            k: cfg.dispersal_k,
            batch_targets: Vec::new(),
        }),
    }
}

/// Per-policy telemetry, registered under the policy's name so runs with
/// different policies are distinguishable in merged reports:
/// `balance.policy.<name>.offers`, `.holds`, `.inbound_accepted`,
/// `.inbound_rejected`, `.chunks_retained`, `.sessions_closed`.
///
/// Owned by the node (not the policy) and bumped by the shared migration
/// machinery, so policies stay pure decision logic. Until `on_start` a
/// node holds [`PolicyMetrics::detached`] handles, like
/// [`CoreMetrics`](crate::node).
#[derive(Debug, Clone, Default)]
pub(crate) struct PolicyMetrics {
    pub offers: Counter,
    pub holds: Counter,
    pub inbound_accepted: Counter,
    pub inbound_rejected: Counter,
    pub chunks_retained: Counter,
    pub sessions_closed: Counter,
}

impl PolicyMetrics {
    /// Handles that record into cells nobody reads, shared by every node
    /// built on one thread, so building a node allocates none.
    pub(crate) fn detached() -> Self {
        thread_local! {
            static DETACHED: PolicyMetrics = PolicyMetrics::default();
        }
        DETACHED.with(PolicyMetrics::clone)
    }

    pub(crate) fn attach(reg: &Registry, kind: PolicyKind) -> Self {
        let [offers, holds, inbound_accepted, inbound_rejected, chunks_retained, sessions_closed] =
            policy_counter_names(kind).map(|name| reg.counter(name));
        PolicyMetrics {
            offers,
            holds,
            inbound_accepted,
            inbound_rejected,
            chunks_retained,
            sessions_closed,
        }
    }
}

/// The `balance.policy.<name>.*` counter names of `kind`, in
/// [`PolicyMetrics`] field order: static, so a node start formats none.
fn policy_counter_names(kind: PolicyKind) -> [&'static str; 6] {
    macro_rules! names {
        ($name:literal) => {
            [
                concat!("balance.policy.", $name, ".offers"),
                concat!("balance.policy.", $name, ".holds"),
                concat!("balance.policy.", $name, ".inbound_accepted"),
                concat!("balance.policy.", $name, ".inbound_rejected"),
                concat!("balance.policy.", $name, ".chunks_retained"),
                concat!("balance.policy.", $name, ".sessions_closed"),
            ]
        };
    }
    match kind {
        PolicyKind::BetaTtl => names!("beta-ttl"),
        PolicyKind::NoMigration => names!("no-migration"),
        PolicyKind::Coordinated => names!("coordinated"),
        PolicyKind::Flooding => names!("flooding"),
    }
}

// ----- the paper's β/TTL heuristic ------------------------------------------

/// The §II-B migration heuristic, preserved bit-for-bit from the
/// pre-refactor `balance.rs`: find a neighbour `j` with
/// `TTL_j / TTL_i > β_i` while energy is not the bottleneck, pick one of
/// the eligible set uniformly at random, and offer a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BetaTtlPolicy;

impl BalancePolicy for BetaTtlPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::BetaTtl
    }

    fn should_migrate(
        &mut self,
        ctx: &mut dyn Runtime,
        view: &BalanceView<'_>,
    ) -> Option<MigrationPlan> {
        let ttl_i = view.ttl_storage_secs;
        if !ttl_i.is_finite() {
            return None; // no inflow: nothing to balance away
        }
        if view.ttl_energy_secs(ctx) <= ttl_i {
            return None; // energy is the bottleneck: store locally (§II-B)
        }
        // β_i varies linearly between 1 and β_max with the current TTL:
        // nodes grow more sensitive to imbalance as their storage horizon
        // shrinks.
        let beta =
            1.0 + (view.cfg.beta_max - 1.0) * (ttl_i / view.cfg.beta_ttl_ref_secs).clamp(0.0, 1.0);
        // Collect every neighbour satisfying the imbalance condition, then
        // pick one at random: deterministic "best TTL" selection would send
        // every donor's offer to the same node, which can accept only one
        // session at a time.
        let mut eligible: Vec<(NodeId, u32)> = Vec::new();
        for n in view.neighbors {
            if n.free_chunks == 0 {
                continue;
            }
            let ttl_j = if n.ttl_secs == u32::MAX {
                f64::INFINITY
            } else {
                f64::from(n.ttl_secs)
            };
            if ttl_j / ttl_i <= beta {
                continue;
            }
            eligible.push((n.node, n.free_chunks));
        }
        if eligible.is_empty() {
            return None;
        }
        let (target, target_free) = eligible[ctx.rng().gen_range(0..eligible.len())];
        let chunks = u16::try_from(
            u64::from(view.cfg.migrate_batch)
                .min(u64::from(view.stored_chunks))
                .min(u64::from(target_free)),
        )
        .unwrap_or(u16::MAX);
        if chunks == 0 {
            return None;
        }
        Some(MigrationPlan {
            target,
            chunks,
            beta: Some(beta),
        })
    }

    fn accept_inbound(&mut self, view: &BalanceView<'_>, _from: NodeId, _chunks: u16) -> bool {
        if view.cfg.global_balance_hints {
            // Global hint: a node markedly fuller than the network average
            // declines further inflow, so border nodes with nowhere to
            // shed onward do not become dumping grounds (Fig. 13(c)).
            if view.own_free_fraction() < view.net_avg_free * 0.8 {
                return false;
            }
        }
        true
    }

    fn retain_after_ack(&mut self, view: &BalanceView<'_>) -> bool {
        // Keep deliberate replicas while there is headroom (the paper's
        // "controlled redundancy" future work).
        view.cfg.replication_factor > 1 && view.free_chunks * 10 > view.capacity_chunks * 3
    }
}

// ----- store-local baseline ---------------------------------------------------

/// The no-migration baseline: every chunk stays where it was recorded.
/// Isolates what cooperative storage buys — under hot-spot load this
/// policy drops data at the recording nodes while the rest of the network
/// sits empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMigrationPolicy;

impl BalancePolicy for NoMigrationPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoMigration
    }

    fn should_migrate(
        &mut self,
        _ctx: &mut dyn Runtime,
        _view: &BalanceView<'_>,
    ) -> Option<MigrationPlan> {
        None
    }

    fn accept_inbound(&mut self, _view: &BalanceView<'_>, _from: NodeId, _chunks: u16) -> bool {
        false
    }

    fn retain_after_ack(&mut self, _view: &BalanceView<'_>) -> bool {
        false
    }
}

// ----- coordinated free-space storage ----------------------------------------

/// Coordinated storage after PAPERS.md "Collaborative Storage Management
/// in Sensor Networks": a node sheds data only when its own free fraction
/// falls below a low-water mark, and then to the neighbour advertising
/// the most free space — provided that neighbour has a real headroom
/// margin over us, so data flows strictly down the pressure gradient.
///
/// Fully deterministic: consumes **zero** RNG draws. Ties on free space
/// break toward the lowest node ID (the view's neighbour slice is sorted).
#[derive(Debug, Clone, Copy)]
pub struct CoordinatedStoragePolicy {
    /// Free-fraction threshold below which the node sheds data.
    pub low_water: f64,
    /// The target must have at least `own_free_chunks * headroom` free.
    pub headroom: f64,
}

impl BalancePolicy for CoordinatedStoragePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Coordinated
    }

    fn should_migrate(
        &mut self,
        _ctx: &mut dyn Runtime,
        view: &BalanceView<'_>,
    ) -> Option<MigrationPlan> {
        if view.own_free_fraction() >= self.low_water {
            return None; // no local pressure: store locally
        }
        let mut best: Option<&NeighborView> = None;
        for n in view.neighbors {
            if n.free_chunks == 0 {
                continue;
            }
            if best.is_none_or(|b| n.free_chunks > b.free_chunks) {
                best = Some(n);
            }
        }
        let best = best?;
        if f64::from(best.free_chunks) < f64::from(view.free_chunks) * self.headroom {
            return None; // nobody is meaningfully emptier than us
        }
        let chunks = u16::try_from(
            u64::from(view.cfg.migrate_batch)
                .min(u64::from(view.stored_chunks))
                .min(u64::from(best.free_chunks)),
        )
        .unwrap_or(u16::MAX);
        if chunks == 0 {
            return None;
        }
        Some(MigrationPlan {
            target: best.node,
            chunks,
            beta: None,
        })
    }

    fn accept_inbound(&mut self, view: &BalanceView<'_>, _from: NodeId, _chunks: u16) -> bool {
        // A node that is itself under pressure refuses inflow; the donor
        // will find an emptier neighbour (or hold).
        view.own_free_fraction() >= self.low_water
    }

    fn retain_after_ack(&mut self, _view: &BalanceView<'_>) -> bool {
        false
    }
}

// ----- flooding-style redundant dispersal -------------------------------------

/// Redundant dispersal after PAPERS.md "Distributed Flooding-based
/// Storage Algorithms": whenever data is stored, proactively copy the
/// head batch to `k` *distinct* neighbours — retaining the local copy
/// across the first `k-1` sessions — and release it locally only once the
/// k-th copy is acknowledged. Storage pressure and TTLs are ignored:
/// resilience is bought with radio energy and neighbour capacity, which
/// is exactly the trade-off the policy ablation measures.
#[derive(Debug, Clone)]
pub struct FloodingDispersalPolicy {
    /// Copies per batch (from [`BalanceConfig::dispersal_k`]).
    pub k: u8,
    /// Neighbours the current head batch has already been dispersed to;
    /// cleared once the batch completes its `k` copies.
    batch_targets: Vec<NodeId>,
}

impl FloodingDispersalPolicy {
    /// A dispersal policy with fan-out `k` and no batch in progress.
    #[must_use]
    pub fn new(k: u8) -> Self {
        FloodingDispersalPolicy {
            k,
            batch_targets: Vec::new(),
        }
    }
}

impl BalancePolicy for FloodingDispersalPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Flooding
    }

    fn should_migrate(
        &mut self,
        ctx: &mut dyn Runtime,
        view: &BalanceView<'_>,
    ) -> Option<MigrationPlan> {
        // Any neighbour with space that has not yet received this batch.
        let mut eligible: Vec<(NodeId, u32)> = Vec::new();
        for n in view.neighbors {
            if n.free_chunks == 0 || self.batch_targets.contains(&n.node) {
                continue;
            }
            eligible.push((n.node, n.free_chunks));
        }
        if eligible.is_empty() {
            return None;
        }
        // Uniform choice spreads copies over the neighbourhood instead of
        // funnelling every donor at the same receiver (which serves one
        // inbound session at a time).
        let (target, target_free) = eligible[ctx.rng().gen_range(0..eligible.len())];
        let chunks = u16::try_from(
            u64::from(view.cfg.migrate_batch)
                .min(u64::from(view.stored_chunks))
                .min(u64::from(target_free)),
        )
        .unwrap_or(u16::MAX);
        if chunks == 0 {
            return None;
        }
        Some(MigrationPlan {
            target,
            chunks,
            beta: None,
        })
    }

    fn accept_inbound(&mut self, _view: &BalanceView<'_>, _from: NodeId, _chunks: u16) -> bool {
        true
    }

    fn retain_after_ack(&mut self, _view: &BalanceView<'_>) -> bool {
        // Retain through the first k-1 sessions; the k-th release pops
        // the batch from the local store.
        self.batch_targets.len() + 1 < usize::from(self.k)
    }

    fn on_migration_session_closed(&mut self, to: NodeId) {
        if !self.batch_targets.contains(&to) {
            self.batch_targets.push(to);
        }
        if self.batch_targets.len() >= usize::from(self.k) {
            self.batch_targets.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_runtime::MockRuntime;

    fn neighbor(id: u32, ttl_secs: u32, free_chunks: u32) -> NeighborView {
        NeighborView {
            node: NodeId(id),
            ttl_secs,
            free_chunks,
            avg_free_pct: 100,
        }
    }

    /// A view with `ttl_storage_secs` derived the same way the node does:
    /// infinite when `rate == 0`, else `free_bytes / rate`.
    fn view<'a>(
        ttl_storage_secs: f64,
        stored: u32,
        free: u32,
        capacity: u32,
        neighbors: &'a [NeighborView],
        cfg: &'a NodeConfig,
    ) -> BalanceView<'a> {
        BalanceView {
            me: NodeId(1),
            ttl_storage_secs,
            rate: if ttl_storage_secs.is_finite() {
                232.0
            } else {
                0.0
            },
            stored_chunks: stored,
            free_chunks: free,
            capacity_chunks: capacity,
            net_avg_free: 1.0,
            neighbors,
            cfg,
        }
    }

    // ----- β edge-case regression battery (§II-B boundary conditions) -----

    #[test]
    fn ttl_zero_is_maximally_eager_with_beta_clamped_to_one() {
        // A full store with inflow: TTL_i == 0. β bottoms out at exactly 1
        // and any neighbour with a positive TTL ratio (here ∞) qualifies.
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, 100, 50)];
        let v = view(0.0, 8, 0, 8, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        let plan = BetaTtlPolicy
            .should_migrate(&mut rt, &v)
            .expect("a drowning node migrates");
        assert_eq!(plan.target, NodeId(2));
        assert_eq!(plan.chunks, 8, "clamped to the store, not the batch");
        assert_eq!(plan.beta, Some(1.0), "β clamps to its lower bound at TTL 0");
    }

    #[test]
    fn both_ttls_infinite_never_migrates() {
        // No inflow on either side: TTL_i = ∞ (rate 0) and the neighbour
        // advertises the u32::MAX sentinel. ∞/∞ is not an imbalance.
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, u32::MAX, 50)];
        let v = view(f64::INFINITY, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        assert_eq!(BetaTtlPolicy.should_migrate(&mut rt, &v), None);
    }

    #[test]
    fn infinite_neighbor_ttl_with_finite_own_ttl_is_eligible() {
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, u32::MAX, 50)];
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        let plan = BetaTtlPolicy
            .should_migrate(&mut rt, &v)
            .expect("an idle neighbour (infinite TTL) always qualifies");
        assert_eq!(plan.target, NodeId(2));
    }

    #[test]
    fn beta_threshold_is_strict_at_the_clamp_boundary() {
        // At TTL_i == beta_ttl_ref_secs the clamp argument is exactly 1.0,
        // so β == β_max. A neighbour at exactly β_max × TTL_i fails the
        // strict inequality; one second more passes it.
        let cfg = NodeConfig::default(); // beta_max 2.0, ref 600 s
        let ttl_i = cfg.beta_ttl_ref_secs;
        let mut rt = MockRuntime::new(NodeId(1));

        let at_threshold = [neighbor(2, 1200, 50)];
        let v = view(ttl_i, 8, 100, 108, &at_threshold, &cfg);
        assert_eq!(
            BetaTtlPolicy.should_migrate(&mut rt, &v),
            None,
            "TTL_j/TTL_i == β is not an imbalance (strict >)"
        );

        let above_threshold = [neighbor(2, 1201, 50)];
        let v = view(ttl_i, 8, 100, 108, &above_threshold, &cfg);
        let plan = BetaTtlPolicy
            .should_migrate(&mut rt, &v)
            .expect("one second past the threshold qualifies");
        assert_eq!(plan.beta, Some(cfg.beta_max), "β caps at β_max");
    }

    #[test]
    fn beta_clamps_at_beta_max_above_the_reference_ttl() {
        // TTL_i ten times the reference: the clamp keeps β at β_max
        // instead of letting the threshold grow unboundedly.
        let cfg = NodeConfig::default();
        let ttl_i = cfg.beta_ttl_ref_secs * 10.0;
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = [neighbor(2, (ttl_i * cfg.beta_max) as u32 + 1, 50)];
        let v = view(ttl_i, 8, 100, 108, &neighbors, &cfg);
        let plan = BetaTtlPolicy.should_migrate(&mut rt, &v).expect("eligible");
        assert_eq!(plan.beta, Some(cfg.beta_max));
    }

    #[test]
    fn energy_bottleneck_stores_locally() {
        // TTL_energy <= TTL_storage: migrating spends battery the node
        // will run out of before storage anyway (§II-B).
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, u32::MAX, 50)];
        let v = view(1000.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        rt.set_energy_mj(1.0); // seconds of battery left, not days
        assert_eq!(BetaTtlPolicy.should_migrate(&mut rt, &v), None);
    }

    #[test]
    fn full_neighbors_are_never_eligible() {
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, u32::MAX, 0)];
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        assert_eq!(BetaTtlPolicy.should_migrate(&mut rt, &v), None);
    }

    // ----- the competing policies ------------------------------------------

    #[test]
    fn no_migration_holds_and_refuses_everything() {
        let cfg = NodeConfig::default();
        let neighbors = [neighbor(2, u32::MAX, 50)];
        let v = view(0.0, 8, 0, 8, &neighbors, &cfg); // maximal pressure
        let mut rt = MockRuntime::new(NodeId(1));
        let mut p = NoMigrationPolicy;
        assert_eq!(p.should_migrate(&mut rt, &v), None);
        assert!(!p.accept_inbound(&v, NodeId(2), 4));
        assert!(!p.retain_after_ack(&v));
    }

    #[test]
    fn coordinated_migrates_only_under_pressure_to_the_emptiest_neighbor() {
        let cfg = NodeConfig::default();
        let mut p = CoordinatedStoragePolicy {
            low_water: 0.25,
            headroom: 1.5,
        };
        let mut rt = MockRuntime::new(NodeId(1));
        // Neighbour 3 is emptiest; neighbour 4 ties with 2 but higher ID.
        let neighbors = [
            neighbor(2, 100, 40),
            neighbor(3, 100, 90),
            neighbor(4, 100, 40),
        ];

        // Above the low-water mark: no pressure, no migration.
        let v = view(50.0, 50, 50, 100, &neighbors, &cfg);
        assert_eq!(p.should_migrate(&mut rt, &v), None);

        // Below it: shed to the emptiest neighbour.
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        let plan = p.should_migrate(&mut rt, &v).expect("pressure migrates");
        assert_eq!(plan.target, NodeId(3));
        assert_eq!(plan.chunks, cfg.migrate_batch);
        assert_eq!(plan.beta, None);

        // Headroom: with 10 free locally and 1.5 headroom, a best
        // neighbour with 14 free is not meaningfully emptier.
        let cramped = [neighbor(2, 100, 14)];
        let v = view(5.0, 90, 10, 100, &cramped, &cfg);
        assert_eq!(p.should_migrate(&mut rt, &v), None);

        // Inbound: refuse while under pressure, accept when comfortable.
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        assert!(!p.accept_inbound(&v, NodeId(2), 4));
        let v = view(50.0, 50, 50, 100, &neighbors, &cfg);
        assert!(p.accept_inbound(&v, NodeId(2), 4));
    }

    #[test]
    fn coordinated_tie_breaks_toward_the_lowest_node_id() {
        let cfg = NodeConfig::default();
        let mut p = CoordinatedStoragePolicy {
            low_water: 0.25,
            headroom: 1.0,
        };
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = [neighbor(7, 100, 60), neighbor(9, 100, 60)];
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        let plan = p.should_migrate(&mut rt, &v).expect("pressure migrates");
        assert_eq!(plan.target, NodeId(7), "strict > keeps the first maximum");
    }

    #[test]
    fn flooding_disperses_k_copies_then_releases() {
        let cfg = NodeConfig::default();
        let mut p = FloodingDispersalPolicy::new(3);
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = [
            neighbor(2, 100, 50),
            neighbor(3, 100, 50),
            neighbor(4, 100, 50),
        ];
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);

        // Sessions 1 and 2 retain the local copy; the 3rd releases it.
        let first = p.should_migrate(&mut rt, &v).expect("disperses eagerly");
        assert!(p.retain_after_ack(&v), "first copy retains");
        p.on_migration_session_closed(first.target);
        assert!(p.retain_after_ack(&v), "second copy retains");
        let second = p.should_migrate(&mut rt, &v).expect("second target");
        assert_ne!(second.target, first.target, "targets are distinct");
        p.on_migration_session_closed(second.target);
        assert!(!p.retain_after_ack(&v), "k-th copy releases the batch");
        let third = p.should_migrate(&mut rt, &v).expect("third target");
        assert_ne!(third.target, first.target);
        assert_ne!(third.target, second.target);
        p.on_migration_session_closed(third.target);

        // Batch complete: the target set resets for the next batch.
        assert!(p.retain_after_ack(&v), "fresh batch retains again");
        assert!(
            p.accept_inbound(&v, NodeId(9), 4),
            "flooding accepts inflow"
        );
    }

    #[test]
    fn flooding_with_k1_degenerates_to_plain_migration() {
        let cfg = NodeConfig::default();
        let mut p = FloodingDispersalPolicy::new(1);
        let neighbors = [neighbor(2, 100, 50)];
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);
        assert!(!p.retain_after_ack(&v), "k=1 never retains");
    }

    #[test]
    fn policy_counter_names_carry_the_policy_name() {
        let suffixes = [
            "offers",
            "holds",
            "inbound_accepted",
            "inbound_rejected",
            "chunks_retained",
            "sessions_closed",
        ];
        for kind in PolicyKind::ALL {
            let expected = suffixes.map(|s| format!("balance.policy.{}.{s}", kind.name()));
            assert_eq!(
                policy_counter_names(kind),
                expected.each_ref().map(String::as_str)
            );
        }
    }

    #[test]
    fn build_policy_constructs_the_selected_kind() {
        for kind in PolicyKind::ALL {
            let cfg = BalanceConfig {
                policy: kind,
                ..BalanceConfig::default()
            };
            assert_eq!(build_policy(&cfg).kind(), kind);
        }
    }
}
