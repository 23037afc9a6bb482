//! The storage-balancing decisions of §II-B, for the four policies
//! [`PolicyKind`] names.
//!
//! The migration *decision* — when to shed data, to whom, and how much —
//! is kept apart from the migration *mechanics* (the
//! MigrateOffer/MigrateAccept/BulkData choreography in `balance.rs`). At
//! each decision point the node builds a [`BalanceView`] of its
//! balancing-relevant state, and the view answers with one match on
//! [`NodeConfig::policy`] per decision: [`BalanceView::should_migrate`],
//! [`BalanceView::accept_inbound`] and [`BalanceView::retain_after_ack`].
//! The session plumbing, telemetry bookkeeping and wire protocol are the
//! same under every policy.
//!
//! The set is closed: the policy matrix compares exactly these four.
//!
//! * [`PolicyKind::BetaTtl`] — the paper's §II-B heuristic: same guards,
//!   same eligibility scan over the sorted neighbour table, same single
//!   RNG draw as before the policies were split out. The golden trace
//!   digests pin this equivalence.
//! * [`PolicyKind::NoMigration`] — the store-local baseline: never
//!   offers, never accepts.
//! * [`PolicyKind::Coordinated`] — neighbour free-space coordination
//!   (after PAPERS.md "Collaborative Storage Management in Sensor
//!   Networks"): migrate only under a local low-water pressure mark, to
//!   the deterministically chosen emptiest neighbour.
//! * [`PolicyKind::Flooding`] — redundant k-way dispersal (after PAPERS.md
//!   "Distributed Flooding-based Storage Algorithms"): each chunk batch is
//!   copied to [`DISPERSAL_K`] distinct neighbours before the local copy
//!   is released.
//!
//! # Determinism
//!
//! Every decision is a pure function of the view and (at most) the node's
//! seeded RNG stream ([`Runtime::rng`]) and energy meter: no wall clocks,
//! no iteration over unordered containers (the neighbour table reads in
//! node-ID order). The only policy state, flooding's per-batch target
//! list, is node RAM state that a reboot clears like the rest. Per-seed
//! sweep digests are therefore bit-identical at any worker count for
//! *every* policy, and chaos fault schedules compose with them unchanged
//! (`tests/determinism.rs`, the `crates/bench` policy matrix).

use crate::config::{NodeConfig, PolicyKind, BETA_TTL_REF_SECS, MIGRATE_BATCH};
use enviromic_net::NeighborTable;
use enviromic_runtime::Runtime;
use enviromic_telemetry::{Counter, Registry};
use enviromic_types::{NodeId, RADIO_BITRATE_BPS};
use rand::Rng;

/// [`PolicyKind::Flooding`]: number of distinct neighbours each chunk
/// batch is copied to before the local copy is released.
pub const DISPERSAL_K: u8 = 2;

/// [`PolicyKind::Coordinated`]: a node is "under storage pressure" — and
/// starts shedding data — when its free fraction falls below this
/// low-water mark, in `[0, 1]`.
pub const COORD_LOW_WATER: f64 = 0.25;

/// [`PolicyKind::Coordinated`]: the chosen neighbour must have at least
/// `own_free_chunks * COORD_HEADROOM` free slots, so data flows strictly
/// down the pressure gradient and cannot ping-pong.
pub const COORD_HEADROOM: f64 = 1.5;

/// A read-only view of everything a balancing decision may consult.
///
/// Built by the node at each decision point (state tick, inbound offer,
/// bulk acknowledgement); the decisions never see the node itself, so
/// they cannot perturb protocol state or trace emission.
#[derive(Debug)]
pub(crate) struct BalanceView<'a> {
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
    /// Known neighbours; [`NeighborTable::entries`] reads them in node-ID
    /// order.
    pub neighbors: &'a NeighborTable,
    /// [`PolicyKind::Flooding`]: the neighbours the head batch has
    /// already been copied to. Empty under the other policies.
    pub batch_targets: &'a [NodeId],
    /// The node's full configuration; `cfg.policy` picks the decisions.
    pub cfg: &'a NodeConfig,
}

/// A migration to initiate: offer `chunks` chunks to `target` over the
/// bulk-transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MigrationPlan {
    /// The chosen donee.
    pub target: NodeId,
    /// Chunks to offer (already clamped to the batch size, local store,
    /// and the target's advertised free space).
    pub chunks: u16,
    /// The imbalance threshold in force, for policies that have one; fed
    /// to the `core.balance.beta` histogram when present.
    pub beta: Option<f64>,
}

impl BalanceView<'_> {
    /// The periodic migration decision, run at every state tick once the
    /// node is idle (no outbound session, no pending offer, store
    /// non-empty). Returns the migration to propose, or `None` to hold
    /// all data locally this tick.
    ///
    /// `ctx` provides the node's seeded RNG stream and energy meter; all
    /// randomness comes from it.
    pub fn should_migrate(&self, ctx: &mut dyn Runtime) -> Option<MigrationPlan> {
        match self.cfg.policy {
            PolicyKind::BetaTtl => self.beta_ttl_plan(ctx),
            PolicyKind::NoMigration => None,
            PolicyKind::Coordinated => self.coordinated_plan(),
            PolicyKind::Flooding => self.flooding_plan(ctx),
        }
    }

    /// Whether to accept an inbound `MigrateOffer`. The node has already
    /// rejected offers it mechanically cannot serve (session in progress,
    /// store full).
    pub fn accept_inbound(&self) -> bool {
        match self.cfg.policy {
            // Global hint: a node markedly fuller than the network average
            // declines further inflow, so border nodes with nowhere to
            // shed onward do not become dumping grounds (Fig. 13(c)).
            PolicyKind::BetaTtl => {
                !(self.cfg.global_balance_hints
                    && self.own_free_fraction() < self.net_avg_free * 0.8)
            }
            PolicyKind::NoMigration => false,
            // A node that is itself under pressure refuses inflow; the
            // donor will find an emptier neighbour (or hold).
            PolicyKind::Coordinated => self.own_free_fraction() >= COORD_LOW_WATER,
            PolicyKind::Flooding => true,
        }
    }

    /// Whether to keep the local copy of a chunk whose migration was just
    /// acknowledged (`true`) instead of releasing it (`false`). Keeping it
    /// leaves the chunk at the head of the store for re-dispersal — the
    /// mechanism behind deliberate redundancy.
    pub fn retain_after_ack(&self) -> bool {
        match self.cfg.policy {
            // Keep deliberate replicas while there is headroom (the
            // paper's "controlled redundancy" future work).
            PolicyKind::BetaTtl => {
                self.cfg.replication_factor > 1 && self.free_chunks * 10 > self.capacity_chunks * 3
            }
            PolicyKind::NoMigration | PolicyKind::Coordinated => false,
            // Retain through the first k-1 sessions; the k-th release pops
            // the batch from the local store.
            PolicyKind::Flooding => self.batch_targets.len() + 1 < usize::from(DISPERSAL_K),
        }
    }

    /// [`PolicyKind::BetaTtl`]: find the neighbours `j` with
    /// `TTL_j / TTL_i > β_i` while energy is not the bottleneck, pick one
    /// of them uniformly at random, and offer it a batch.
    fn beta_ttl_plan(&self, ctx: &mut dyn Runtime) -> Option<MigrationPlan> {
        let ttl_i = self.ttl_storage_secs;
        if !ttl_i.is_finite() {
            return None; // no inflow: nothing to balance away
        }
        if self.ttl_energy_secs(ctx) <= ttl_i {
            return None; // energy is the bottleneck: store locally (§II-B)
        }
        // β_i varies linearly between 1 and β_max with the current TTL:
        // nodes grow more sensitive to imbalance as their storage horizon
        // shrinks.
        let beta = 1.0 + (self.cfg.beta_max - 1.0) * (ttl_i / BETA_TTL_REF_SECS).clamp(0.0, 1.0);
        // Collect every neighbour satisfying the imbalance condition, then
        // pick one at random: deterministic "best TTL" selection would send
        // every donor's offer to the same node, which can accept only one
        // session at a time.
        let mut eligible: Vec<(NodeId, u32)> = Vec::new();
        for (node, n) in self.neighbors.entries() {
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
            eligible.push((node, n.free_chunks));
        }
        let (target, target_free) = pick_uniformly(ctx, &eligible)?;
        self.batch_plan(target, target_free, Some(beta))
    }

    /// [`PolicyKind::Coordinated`]: shed data only when the own free
    /// fraction falls below [`COORD_LOW_WATER`], and then to the
    /// neighbour advertising the most free space — provided it has
    /// [`COORD_HEADROOM`] times ours, so data flows strictly down the
    /// pressure gradient.
    ///
    /// Consumes **zero** RNG draws. Ties on free space break toward the
    /// lowest node ID: the table reads in ID order and only a strictly
    /// larger free count replaces the best so far.
    fn coordinated_plan(&self) -> Option<MigrationPlan> {
        if self.own_free_fraction() >= COORD_LOW_WATER {
            return None; // no local pressure: store locally
        }
        let mut best: Option<(NodeId, u32)> = None;
        for (node, n) in self.neighbors.entries() {
            if n.free_chunks == 0 {
                continue;
            }
            if best.is_none_or(|(_, free)| n.free_chunks > free) {
                best = Some((node, n.free_chunks));
            }
        }
        let (target, target_free) = best?;
        if f64::from(target_free) < f64::from(self.free_chunks) * COORD_HEADROOM {
            return None; // nobody is meaningfully emptier than us
        }
        self.batch_plan(target, target_free, None)
    }

    /// [`PolicyKind::Flooding`]: copy the head batch to a neighbour with
    /// space that does not hold it yet. Storage pressure and TTLs are
    /// ignored: resilience is bought with radio energy and neighbour
    /// capacity, which is exactly the trade-off the policy matrix
    /// measures.
    fn flooding_plan(&self, ctx: &mut dyn Runtime) -> Option<MigrationPlan> {
        let eligible: Vec<(NodeId, u32)> = self
            .neighbors
            .entries()
            .filter(|(node, n)| n.free_chunks > 0 && !self.batch_targets.contains(node))
            .map(|(node, n)| (node, n.free_chunks))
            .collect();
        // Uniform choice spreads copies over the neighbourhood instead of
        // funnelling every donor at the same receiver (which serves one
        // inbound session at a time).
        let (target, target_free) = pick_uniformly(ctx, &eligible)?;
        self.batch_plan(target, target_free, None)
    }

    /// Offers `target` one batch: [`MIGRATE_BATCH`] chunks, clamped to the
    /// local store and to the target's advertised free slots; `None` when
    /// that leaves nothing to send.
    fn batch_plan(
        &self,
        target: NodeId,
        target_free: u32,
        beta: Option<f64>,
    ) -> Option<MigrationPlan> {
        let chunks = MIGRATE_BATCH
            .min(u16::try_from(self.stored_chunks.min(target_free)).unwrap_or(u16::MAX));
        (chunks > 0).then_some(MigrationPlan {
            target,
            chunks,
            beta,
        })
    }

    /// `TTL_energy` (§II-B): expected seconds until the battery dies if
    /// the node keeps moving data out at its acquisition rate.
    ///
    /// Reads (and settles) the backend's energy meter, so a decision must
    /// call it on exactly the paths that need it — the β/TTL policy
    /// consults it only after its own TTL proves finite, which the golden
    /// digests depend on.
    fn ttl_energy_secs(&self, ctx: &mut dyn Runtime) -> f64 {
        let e = ctx.energy_model();
        let tx_duty = if self.rate > 0.0 {
            (self.rate * 8.0 / RADIO_BITRATE_BPS as f64).min(1.0)
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
    fn own_free_fraction(&self) -> f64 {
        f64::from(self.free_chunks) / f64::from(self.capacity_chunks)
    }
}

/// One of `eligible`, chosen with a single `gen_range` draw. An empty
/// list returns `None` without drawing, so the RNG stream only moves when
/// there is a choice to make.
fn pick_uniformly(ctx: &mut dyn Runtime, eligible: &[(NodeId, u32)]) -> Option<(NodeId, u32)> {
    if eligible.is_empty() {
        return None;
    }
    Some(eligible[ctx.rng().gen_range(0..eligible.len())])
}

/// Notes that an outbound migration session to `peer` closed (all chunks
/// acknowledged, or the sender gave up after losses). Under
/// [`PolicyKind::Flooding`], `peer` joins the head batch's targets, and
/// the list clears once the batch has its [`DISPERSAL_K`] copies; the
/// other policies keep no per-batch state.
pub(crate) fn note_session_closed(
    policy: PolicyKind,
    batch_targets: &mut Vec<NodeId>,
    peer: NodeId,
) {
    if policy != PolicyKind::Flooding {
        return;
    }
    if !batch_targets.contains(&peer) {
        batch_targets.push(peer);
    }
    if batch_targets.len() >= usize::from(DISPERSAL_K) {
        batch_targets.clear();
    }
}

/// Per-policy telemetry, registered under the policy's name so runs with
/// different policies are distinguishable in merged reports:
/// `balance.policy.<name>.offers`, `.holds`, `.inbound_accepted`,
/// `.inbound_rejected`, `.chunks_retained`, `.sessions_closed`.
///
/// Bumped by the shared migration machinery. Until `on_start` a node
/// holds [`PolicyMetrics::detached`] handles, like
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NEIGHBOR_EXPIRY;
    use enviromic_runtime::MockRuntime;
    use enviromic_types::SimTime;

    /// A neighbour table holding one `(id, ttl_secs, free_chunks)` entry
    /// per neighbour, as their `STATE_UPDATE`s leave it.
    fn table(neighbors: &[(u32, u32, u32)]) -> NeighborTable {
        let mut t = NeighborTable::new(NEIGHBOR_EXPIRY);
        for &(id, ttl_secs, free_chunks) in neighbors {
            t.state_update(NodeId(id), SimTime::ZERO, ttl_secs, free_chunks, 100);
        }
        t
    }

    /// A view with `ttl_storage_secs` derived the same way the node does:
    /// infinite when `rate == 0`, else `free_bytes / rate`.
    fn view<'a>(
        ttl_storage_secs: f64,
        stored: u32,
        free: u32,
        capacity: u32,
        neighbors: &'a NeighborTable,
        cfg: &'a NodeConfig,
    ) -> BalanceView<'a> {
        BalanceView {
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
            batch_targets: &[],
            cfg,
        }
    }

    // ----- β edge-case regression battery (§II-B boundary conditions) -----

    #[test]
    fn ttl_zero_is_maximally_eager_with_beta_clamped_to_one() {
        // A full store with inflow: TTL_i == 0. β bottoms out at exactly 1
        // and any neighbour with a positive TTL ratio (here ∞) qualifies.
        let cfg = NodeConfig::default();
        let neighbors = table(&[(2, 100, 50)]);
        let v = view(0.0, 8, 0, 8, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        let plan = v.should_migrate(&mut rt).expect("a drowning node migrates");
        assert_eq!(plan.target, NodeId(2));
        assert_eq!(plan.chunks, 8, "clamped to the store, not the batch");
        assert_eq!(plan.beta, Some(1.0), "β clamps to its lower bound at TTL 0");
    }

    #[test]
    fn both_ttls_infinite_never_migrates() {
        // No inflow on either side: TTL_i = ∞ (rate 0) and the neighbour
        // advertises the u32::MAX sentinel. ∞/∞ is not an imbalance.
        let cfg = NodeConfig::default();
        let neighbors = table(&[(2, u32::MAX, 50)]);
        let v = view(f64::INFINITY, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        assert_eq!(v.should_migrate(&mut rt), None);
    }

    #[test]
    fn infinite_neighbor_ttl_with_finite_own_ttl_is_eligible() {
        let cfg = NodeConfig::default();
        let neighbors = table(&[(2, u32::MAX, 50)]);
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        let plan = v
            .should_migrate(&mut rt)
            .expect("an idle neighbour (infinite TTL) always qualifies");
        assert_eq!(plan.target, NodeId(2));
    }

    #[test]
    fn beta_threshold_is_strict_at_the_clamp_boundary() {
        // At TTL_i == BETA_TTL_REF_SECS the clamp argument is exactly 1.0,
        // so β == β_max. A neighbour at exactly β_max × TTL_i fails the
        // strict inequality; one second more passes it.
        let cfg = NodeConfig::default(); // beta_max 2.0, ref 600 s
        let ttl_i = BETA_TTL_REF_SECS;
        let mut rt = MockRuntime::new(NodeId(1));

        let at_threshold = table(&[(2, 1200, 50)]);
        let v = view(ttl_i, 8, 100, 108, &at_threshold, &cfg);
        assert_eq!(
            v.should_migrate(&mut rt),
            None,
            "TTL_j/TTL_i == β is not an imbalance (strict >)"
        );

        let above_threshold = table(&[(2, 1201, 50)]);
        let v = view(ttl_i, 8, 100, 108, &above_threshold, &cfg);
        let plan = v
            .should_migrate(&mut rt)
            .expect("one second past the threshold qualifies");
        assert_eq!(plan.beta, Some(cfg.beta_max), "β caps at β_max");
    }

    #[test]
    fn beta_clamps_at_beta_max_above_the_reference_ttl() {
        // TTL_i ten times the reference: the clamp keeps β at β_max
        // instead of letting the threshold grow unboundedly.
        let cfg = NodeConfig::default();
        let ttl_i = BETA_TTL_REF_SECS * 10.0;
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = table(&[(2, (ttl_i * cfg.beta_max) as u32 + 1, 50)]);
        let v = view(ttl_i, 8, 100, 108, &neighbors, &cfg);
        let plan = v.should_migrate(&mut rt).expect("eligible");
        assert_eq!(plan.beta, Some(cfg.beta_max));
    }

    #[test]
    fn energy_bottleneck_stores_locally() {
        // TTL_energy <= TTL_storage: migrating spends battery the node
        // will run out of before storage anyway (§II-B).
        let cfg = NodeConfig::default();
        let neighbors = table(&[(2, u32::MAX, 50)]);
        let v = view(1000.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        rt.set_energy_mj(1.0); // seconds of battery left, not days
        assert_eq!(v.should_migrate(&mut rt), None);
    }

    #[test]
    fn full_neighbors_are_never_eligible() {
        let cfg = NodeConfig::default();
        let neighbors = table(&[(2, u32::MAX, 0)]);
        let v = view(100.0, 8, 100, 108, &neighbors, &cfg);
        let mut rt = MockRuntime::new(NodeId(1));
        assert_eq!(v.should_migrate(&mut rt), None);
    }

    // ----- the competing policies ------------------------------------------

    #[test]
    fn no_migration_holds_and_refuses_everything() {
        let cfg = NodeConfig::default().with_policy(PolicyKind::NoMigration);
        let neighbors = table(&[(2, u32::MAX, 50)]);
        let v = view(0.0, 8, 0, 8, &neighbors, &cfg); // maximal pressure
        let mut rt = MockRuntime::new(NodeId(1));
        assert_eq!(v.should_migrate(&mut rt), None);
        assert!(!v.accept_inbound());
        assert!(!v.retain_after_ack());
    }

    #[test]
    fn coordinated_migrates_only_under_pressure_to_the_emptiest_neighbor() {
        let cfg = NodeConfig::default().with_policy(PolicyKind::Coordinated);
        let mut rt = MockRuntime::new(NodeId(1));
        // Neighbour 3 is emptiest; neighbour 4 ties with 2 but higher ID.
        let neighbors = table(&[(2, 100, 40), (3, 100, 90), (4, 100, 40)]);

        // Above the low-water mark: no pressure, no migration.
        let v = view(50.0, 50, 50, 100, &neighbors, &cfg);
        assert_eq!(v.should_migrate(&mut rt), None);

        // Below it: shed to the emptiest neighbour.
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        let plan = v.should_migrate(&mut rt).expect("pressure migrates");
        assert_eq!(plan.target, NodeId(3));
        assert_eq!(plan.chunks, MIGRATE_BATCH);
        assert_eq!(plan.beta, None);

        // Headroom: with 10 free locally and COORD_HEADROOM 1.5, a best
        // neighbour with 14 free is not meaningfully emptier.
        let cramped = table(&[(2, 100, 14)]);
        let v = view(5.0, 90, 10, 100, &cramped, &cfg);
        assert_eq!(v.should_migrate(&mut rt), None);

        // Inbound: refuse while under pressure, accept when comfortable.
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        assert!(!v.accept_inbound());
        let v = view(50.0, 50, 50, 100, &neighbors, &cfg);
        assert!(v.accept_inbound());
    }

    #[test]
    fn coordinated_tie_breaks_toward_the_lowest_node_id() {
        let cfg = NodeConfig::default().with_policy(PolicyKind::Coordinated);
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = table(&[(7, 100, 60), (9, 100, 60)]);
        let v = view(5.0, 90, 10, 100, &neighbors, &cfg);
        let plan = v.should_migrate(&mut rt).expect("pressure migrates");
        assert_eq!(plan.target, NodeId(7), "strict > keeps the first maximum");
    }

    #[test]
    fn flooding_disperses_k_copies_then_releases() {
        let cfg = NodeConfig::default().with_policy(PolicyKind::Flooding);
        let mut rt = MockRuntime::new(NodeId(1));
        let neighbors = table(&[(2, 100, 50), (3, 100, 50), (4, 100, 50)]);
        let mut batch_targets = Vec::new();

        // Sessions 1 to k-1 retain the local copy; the k-th releases it.
        let k = usize::from(DISPERSAL_K);
        let mut targets = Vec::new();
        for copy in 1..=k {
            let v = BalanceView {
                batch_targets: &batch_targets,
                ..view(100.0, 8, 100, 108, &neighbors, &cfg)
            };
            let plan = v.should_migrate(&mut rt).expect("disperses eagerly");
            assert!(!targets.contains(&plan.target), "targets are distinct");
            assert_eq!(v.retain_after_ack(), copy < k, "copy {copy} of {k}");
            note_session_closed(cfg.policy, &mut batch_targets, plan.target);
            targets.push(plan.target);
        }

        // Batch complete: the target set resets for the next batch.
        let v = BalanceView {
            batch_targets: &batch_targets,
            ..view(100.0, 8, 100, 108, &neighbors, &cfg)
        };
        assert!(v.retain_after_ack(), "fresh batch retains again");
        assert!(v.accept_inbound(), "flooding accepts inflow");
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
}
