//! Ablation studies for the design choices DESIGN.md calls out, plus the
//! paper's future-work extensions.
//!
//! * **prelude** (§II-A.1) — does the 1-second uncoordinated prelude
//!   recover the election-startup misses?
//! * **piggybacking** (§III-A) — how many packets does the neighborhood
//!   broadcast module save?
//! * **global balance hints** (§VI future work) — does gossiped global
//!   pressure damp the Fig. 13(c) boundary effect (occupancy variance)?
//! * **controlled redundancy** (§VI future work) — replication factor 2
//!   trades storage for robustness.
//! * **detector margin** — silence-filtering sensitivity: misses vs.
//!   false-positive (unattributable) recordings.
//!
//! The module also hosts the **storage-policy matrix**
//! ([`run_policy_matrix`]): every [`PolicyKind`] run head-to-head through
//! the indoor, forest, and chaos scenario families, emitting the
//! comparative [`PolicyMatrix`] report committed as
//! `BENCH_policies.json` (storage utilization, chunk loss under faults,
//! migration radio energy, and the `balance.policy.*` telemetry).

use crate::indoor::suite_world_config;
use enviromic::core::{Mode, NodeConfig, PolicyKind};
use enviromic::harness::{forest_world_config, ExperimentRun};
use enviromic::metrics::mean;
use enviromic::runtime::EnergyModel;
use enviromic::sim::TraceEvent;
use enviromic::sweep::{run_sweep, JobInput, JobOutcome, ScenarioSpec, SweepPlan};
use enviromic::types::{MsgKind, SimDuration, RADIO_BITRATE_BPS};
use enviromic::workloads::{forest_scenario, indoor_scenario};
use serde::{Deserialize, Serialize};

/// One ablation row: a label and its measured metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Whole-run miss ratio.
    pub miss: f64,
    /// Final stored-data redundancy.
    pub redundancy: f64,
    /// Total radio packets sent.
    pub packets: u64,
    /// Standard deviation of final per-node occupancy (chunks).
    pub occupancy_stddev: f64,
}

fn row_from_run(label: &str, run: &ExperimentRun, duration: f64) -> AblationRow {
    let exp = run.experiment();
    let packets = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::MessageSent { .. }))
        .count() as u64;
    let occupancy = exp.occupancy_at(duration);
    let occ_f: Vec<f64> = occupancy.iter().map(|&u| u as f64).collect();
    let m = mean(&occ_f);
    let var = occ_f.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / occ_f.len().max(1) as f64;
    AblationRow {
        label: label.to_owned(),
        miss: exp.miss_ratio(duration),
        redundancy: exp
            .redundancy_series(duration, duration)
            .last()
            .map_or(0.0, |p| p.1),
        packets,
        occupancy_stddev: var.sqrt(),
    }
}

fn base_cfg() -> NodeConfig {
    NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(650)
        .with_beta_max(2.0)
}

/// Runs the ablation battery as one sweep on `jobs` worker threads.
/// `duration` of 2200 s keeps contrasts visible in reasonable time.
#[must_use]
pub fn run_jobs(seed: u64, duration: f64, jobs: usize) -> Vec<AblationRow> {
    let configs: Vec<(&str, NodeConfig)> = vec![
        ("full (reference)", base_cfg()),
        (
            "prelude 1s",
            base_cfg().with_prelude(SimDuration::from_secs_f64(1.0)),
        ),
        ("no piggybacking", {
            let mut c = base_cfg();
            c.piggybacking = false;
            c
        }),
        ("global hints", {
            let mut c = base_cfg();
            c.global_balance_hints = true;
            c
        }),
        ("replication x2", {
            let mut c = base_cfg();
            c.replication_factor = 2;
            c
        }),
        ("margin 30 (stricter)", {
            let mut c = base_cfg();
            c.detect_margin = 30.0;
            c
        }),
        ("margin 35 (deaf)", {
            let mut c = base_cfg();
            c.detect_margin = 35.0;
            c
        }),
    ];
    let labels: Vec<&str> = configs.iter().map(|(label, _)| *label).collect();
    let specs = configs
        .into_iter()
        .map(|(label, cfg)| {
            ScenarioSpec::new(label, move |seed| JobInput {
                scenario: indoor_scenario(duration, seed),
                node_cfg: cfg.clone(),
                world_cfg: suite_world_config(seed),
                drain_secs: 20.0,
                faults: enviromic_sim::FaultPlan::new(),
            })
        })
        .collect();
    let out = run_sweep(&SweepPlan::new(vec![seed], specs), jobs);
    labels
        .into_iter()
        .zip(&out.jobs)
        .map(|(label, job)| row_from_run(label, &job.run, duration))
        .collect()
}

/// Renders the ablation table.
#[must_use]
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "Ablations — indoor workload, full system unless noted\n\n\
         configuration             miss    redund   packets   occ-stddev\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<22} {:>6.3}  {:>7.3}  {:>8}  {:>10.1}\n",
            r.label, r.miss, r.redundancy, r.packets, r.occupancy_stddev
        ));
    }
    out
}

// ----- storage-policy matrix (PolicyKind head-to-head) ------------------------

/// Flash capacity used by the policy matrix: small enough that the
/// workloads pressure storage within a few hundred seconds, so the
/// policies actually diverge (drops vs migrations vs redundant copies).
pub const POLICY_FLASH_CHUNKS: u32 = 180;

/// The message kinds that make up the migration choreography; their
/// transmit time prices the `migration_energy_mj` column.
const MIGRATION_KINDS: [MsgKind; 4] = [
    MsgKind::MigrateOffer,
    MsgKind::MigrateAccept,
    MsgKind::BulkData,
    MsgKind::BulkAck,
];

fn policy_cfg(kind: PolicyKind) -> NodeConfig {
    NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(POLICY_FLASH_CHUNKS)
        .with_policy(kind)
}

/// One (scenario family × policy × seed) cell of the policy matrix.
///
/// Deliberately free of wall-clock fields: the whole report is a pure
/// function of the plan, so CI regenerates it at different worker counts
/// and byte-diffs the files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRow {
    /// Scenario family (`indoor`, `forest`, `chaos-indoor`).
    pub scenario: String,
    /// Policy name (see [`PolicyKind::name`]).
    pub policy: String,
    /// The run's seed.
    pub seed: u64,
    /// Trace digest as `0x`-prefixed hex (the determinism fingerprint).
    pub digest: String,
    /// Trace event count.
    pub events: u64,
    /// Mean occupied fraction of flash across nodes at the end of the run.
    pub storage_utilization: f64,
    /// Standard deviation of final per-node occupancy (chunks) — the
    /// balance quality measure of Fig. 13.
    pub occupancy_stddev: f64,
    /// Whole-run recording miss ratio.
    pub miss_ratio: f64,
    /// Chunks dropped on the floor because the local store was full.
    pub chunks_dropped: u64,
    /// Chunks held across all stores at the end of the run.
    pub chunks_stored: u64,
    /// `dropped / (dropped + stored)` — the chunk-loss measure (redundant
    /// copies count as stored: extra copies are extra retained data).
    pub loss_ratio: f64,
    /// Chunks acknowledged out over migration sessions.
    pub chunks_migrated: u64,
    /// Chunks left duplicated by abandoned sessions (lost ACKs).
    pub duplicated_chunks: u64,
    /// Packets of the migration choreography (offer/accept/data/ack).
    pub migration_packets: u64,
    /// Transmit energy of those packets in millijoules, priced with the
    /// default [`EnergyModel`] at [`RADIO_BITRATE_BPS`].
    pub migration_energy_mj: f64,
    /// `balance.policy.<name>.offers`.
    pub policy_offers: u64,
    /// `balance.policy.<name>.holds` (decision ticks that kept data).
    pub policy_holds: u64,
    /// `balance.policy.<name>.inbound_accepted`.
    pub policy_inbound_accepted: u64,
    /// `balance.policy.<name>.inbound_rejected`.
    pub policy_inbound_rejected: u64,
    /// `balance.policy.<name>.chunks_retained` (deliberate replicas).
    pub policy_chunks_retained: u64,
    /// `balance.policy.<name>.sessions_closed`.
    pub policy_sessions_closed: u64,
}

/// Per (scenario family × policy) aggregate: seed-means of the headline
/// columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySummary {
    /// Scenario family.
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Seeds aggregated.
    pub runs: u64,
    /// Mean storage utilization.
    pub storage_utilization: f64,
    /// Mean occupancy standard deviation.
    pub occupancy_stddev: f64,
    /// Mean miss ratio.
    pub miss_ratio: f64,
    /// Mean chunk-loss ratio.
    pub loss_ratio: f64,
    /// Mean chunks migrated per run.
    pub chunks_migrated: f64,
    /// Mean migration transmit energy, millijoules.
    pub migration_energy_mj: f64,
}

/// The comparative storage-policy report (`BENCH_policies.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyMatrix {
    /// Per-run scenario duration, seconds.
    pub duration_secs: f64,
    /// Seeds each (scenario × policy) cell was run at.
    pub seeds: Vec<u64>,
    /// Per-node flash capacity used, chunks.
    pub flash_chunks: u64,
    /// Every cell, plan-ordered (scenario-major, then policy, then seed).
    pub rows: Vec<PolicyRow>,
    /// Seed-averaged comparison per (scenario × policy).
    pub summary: Vec<PolicySummary>,
}

impl PolicyMatrix {
    /// Renders the seed-averaged comparison table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Storage-policy ablation (seed means)\n\n\
             scenario       policy         util   occ-sd    miss    loss   migr/run   energy(mJ)\n",
        );
        let mut last_scenario = "";
        for s in &self.summary {
            if s.scenario != last_scenario && !last_scenario.is_empty() {
                out.push('\n');
            }
            last_scenario = &s.scenario;
            out.push_str(&format!(
                "  {:<12} {:<13} {:>6.3}  {:>7.1}  {:>6.3}  {:>6.3}  {:>9.1}  {:>11.2}\n",
                s.scenario,
                s.policy,
                s.storage_utilization,
                s.occupancy_stddev,
                s.miss_ratio,
                s.loss_ratio,
                s.chunks_migrated,
                s.migration_energy_mj,
            ));
        }
        out
    }
}

fn policy_row(scenario: &str, kind: PolicyKind, job: &JobOutcome, duration: f64) -> PolicyRow {
    let exp = job.run.experiment();
    let energy = EnergyModel::default();
    let (mut migration_packets, mut migration_energy_mj) = (0u64, 0.0f64);
    let (mut chunks_migrated, mut duplicated_chunks) = (0u64, 0u64);
    for ev in job.run.trace.iter() {
        match ev {
            TraceEvent::MessageSent { kind, bytes, .. } if MIGRATION_KINDS.contains(kind) => {
                migration_packets += 1;
                let tx_secs = f64::from(*bytes) * 8.0 / RADIO_BITRATE_BPS as f64;
                migration_energy_mj += energy.radio_tx_mw * tx_secs;
            }
            TraceEvent::Migrated {
                duplicated, chunks, ..
            } => {
                if *duplicated {
                    duplicated_chunks += u64::from(*chunks);
                } else {
                    chunks_migrated += u64::from(*chunks);
                }
            }
            _ => {}
        }
    }
    let occupancy = exp.occupancy_at(duration);
    let occ_f: Vec<f64> = occupancy.iter().map(|&u| u as f64).collect();
    let m = mean(&occ_f);
    let var = occ_f.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / occ_f.len().max(1) as f64;
    let chunks_stored: u64 = occupancy.iter().sum();
    let chunks_dropped = job
        .run
        .telemetry
        .counter("core.storage.chunks_dropped")
        .unwrap_or(0);
    let denom = chunks_dropped + chunks_stored;
    let policy_counter = |which: &str| {
        job.run
            .telemetry
            .counter(&format!("balance.policy.{}.{which}", kind.name()))
            .unwrap_or(0)
    };
    PolicyRow {
        scenario: scenario.to_owned(),
        policy: kind.name().to_owned(),
        seed: job.seed,
        digest: format!("{:#018x}", job.digest),
        events: job.events as u64,
        storage_utilization: m / f64::from(POLICY_FLASH_CHUNKS),
        occupancy_stddev: var.sqrt(),
        miss_ratio: exp.miss_ratio(duration),
        chunks_dropped,
        chunks_stored,
        loss_ratio: if denom == 0 {
            0.0
        } else {
            chunks_dropped as f64 / denom as f64
        },
        chunks_migrated,
        duplicated_chunks,
        migration_packets,
        migration_energy_mj,
        policy_offers: policy_counter("offers"),
        policy_holds: policy_counter("holds"),
        policy_inbound_accepted: policy_counter("inbound_accepted"),
        policy_inbound_rejected: policy_counter("inbound_rejected"),
        policy_chunks_retained: policy_counter("chunks_retained"),
        policy_sessions_closed: policy_counter("sessions_closed"),
    }
}

/// Builds one (scenario family × policy) sweep point.
fn policy_spec(family: &'static str, kind: PolicyKind, duration: f64) -> ScenarioSpec {
    let label = format!("{family}+{}", kind.name());
    match family {
        "forest" => ScenarioSpec::new(label, move |seed| {
            // Forest worlds do not snapshot occupancy by default; the
            // matrix needs the polls for its utilization columns.
            let mut world_cfg = forest_world_config(seed);
            world_cfg.occupancy_snapshot_period = Some(SimDuration::from_secs_f64(60.0));
            JobInput {
                scenario: forest_scenario(duration, seed),
                node_cfg: policy_cfg(kind),
                world_cfg,
                drain_secs: 20.0,
                faults: enviromic_sim::FaultPlan::new(),
            }
        }),
        _ => ScenarioSpec::new(label, move |seed| {
            let scenario = indoor_scenario(duration, seed);
            let faults = if family == "chaos-indoor" {
                enviromic_sim::FaultPlan::chaos(
                    seed,
                    scenario.topology.positions().len(),
                    SimDuration::from_secs_f64(duration),
                )
            } else {
                enviromic_sim::FaultPlan::new()
            };
            JobInput {
                scenario,
                node_cfg: policy_cfg(kind),
                world_cfg: suite_world_config(seed),
                drain_secs: 20.0,
                faults,
            }
        }),
    }
}

/// Scenario families the policy matrix sweeps: the two deployment
/// workloads plus the chaos variant, so "loss under faults" is measured
/// under an actual fault schedule.
pub const POLICY_SCENARIOS: [&str; 3] = ["indoor", "forest", "chaos-indoor"];

/// Runs every [`PolicyKind`] through the scenario families at every seed,
/// on `jobs` workers. The result is
/// deterministic: the same seeds produce a byte-identical report at any
/// worker count.
#[must_use]
pub fn run_policy_matrix(seeds: &[u64], duration: f64, jobs: usize) -> PolicyMatrix {
    let mut specs = Vec::new();
    let mut cells: Vec<(&str, PolicyKind)> = Vec::new();
    for family in POLICY_SCENARIOS {
        for kind in PolicyKind::ALL {
            specs.push(policy_spec(family, kind, duration));
            cells.push((family, kind));
        }
    }
    let out = run_sweep(&SweepPlan::new(seeds.to_vec(), specs), jobs);
    // Jobs come back scenario-major in plan order: all seeds of cell 0,
    // then all seeds of cell 1, ...
    let rows: Vec<PolicyRow> = cells
        .iter()
        .enumerate()
        .flat_map(|(i, &(family, kind))| {
            out.jobs[i * seeds.len()..(i + 1) * seeds.len()]
                .iter()
                .map(move |job| policy_row(family, kind, job, duration))
        })
        .collect();
    let summary = cells
        .iter()
        .map(|&(family, kind)| {
            let cell: Vec<&PolicyRow> = rows
                .iter()
                .filter(|r| r.scenario == family && r.policy == kind.name())
                .collect();
            let n = cell.len().max(1) as f64;
            let avg = |f: &dyn Fn(&PolicyRow) -> f64| cell.iter().map(|r| f(r)).sum::<f64>() / n;
            PolicySummary {
                scenario: family.to_owned(),
                policy: kind.name().to_owned(),
                runs: cell.len() as u64,
                storage_utilization: avg(&|r| r.storage_utilization),
                occupancy_stddev: avg(&|r| r.occupancy_stddev),
                miss_ratio: avg(&|r| r.miss_ratio),
                loss_ratio: avg(&|r| r.loss_ratio),
                chunks_migrated: avg(&|r| r.chunks_migrated as f64),
                migration_energy_mj: avg(&|r| r.migration_energy_mj),
            }
        })
        .collect();
    PolicyMatrix {
        duration_secs: duration,
        seeds: seeds.to_vec(),
        flash_chunks: u64::from(POLICY_FLASH_CHUNKS),
        rows,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_ablation_battery_runs() {
        let rows = run_jobs(5, 400.0, usize::MAX);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.miss >= 0.0 && r.miss <= 1.0, "{r:?}");
        }
        // Piggybacking saves packets.
        let reference = rows.iter().find(|r| r.label.contains("reference")).unwrap();
        let no_piggy = rows.iter().find(|r| r.label.contains("piggy")).unwrap();
        assert!(
            no_piggy.packets > reference.packets,
            "piggybacking should reduce packet count: {} vs {}",
            no_piggy.packets,
            reference.packets
        );
    }

    #[test]
    fn policy_matrix_is_deterministic_and_contrasts_policies() {
        let seeds = [11, 12];
        let serial = run_policy_matrix(&seeds, 150.0, 1);
        let pooled = run_policy_matrix(&seeds, 150.0, 4);
        // Byte-identical report regardless of worker count — the property
        // CI enforces on BENCH_policies.json.
        assert_eq!(serial, pooled);
        assert_eq!(serde::to_json(&serial), serde::to_json(&pooled));
        assert_eq!(
            serial.rows.len(),
            POLICY_SCENARIOS.len() * PolicyKind::ALL.len() * seeds.len()
        );
        let back: PolicyMatrix = serde::from_json(&serde::to_json(&serial)).expect("parses");
        assert_eq!(back, serial);

        for r in &serial.rows {
            assert!((0.0..=1.0).contains(&r.storage_utilization), "{r:?}");
            assert!((0.0..=1.0).contains(&r.loss_ratio), "{r:?}");
            // The no-migration baseline really does switch migration off.
            if r.policy == "no-migration" {
                assert_eq!(r.migration_packets, 0, "{r:?}");
                assert_eq!(r.chunks_migrated, 0, "{r:?}");
                assert_eq!(r.migration_energy_mj, 0.0, "{r:?}");
            }
        }
        let rendered = serial.render();
        assert!(rendered.contains("no-migration"));
        assert!(rendered.contains("chaos-indoor"));
    }
}
