//! The four workloads and one measured execution of each.
//!
//! Everything here runs inside one child process on one thread. A run
//! returns a [`Sample`]: raw metric values by name plus the digest of
//! every job, which the parent checks against the pins and against the
//! other runs of the same seed.

use crate::probe::{Callback, Layers, Probe, ProbeCost, Service};
use crate::replay;
use crate::stats;
use enviromic::archive::{serve_queries, ArchiveStore, QueryCache, RangeQuery};
use enviromic::core::EnviroMicNode;
use enviromic::harness::run_scenario_with_faults;
use enviromic::observe::{archive_run, rerequest_plan};
use enviromic::runtime::{Application, TraceEvent};
use enviromic::sim::World;
use enviromic::sweep::{JobInput, ScenarioSpec};
use enviromic::types::{EventId, NodeId, SimDuration, SimTime};
use enviromic_bench::retrieval;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Metric name → measured value.
pub type Values = BTreeMap<String, f64>;

/// The identity of one job's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    pub label: String,
    pub seed: u64,
    pub digest: u64,
    pub records: u64,
}

/// Keys of [`Sample::parts`]: seconds of each job's setup, of each slice
/// of the event loops, and of each job's finish and digest (for
/// `retrieval`: the one-at-a-time pass, the uncached pass and gap
/// planning).
pub const SETUP: &str = "setup";
pub const RUN: &str = "run";
pub const FINISH: &str = "finish";
/// Key of [`Sample::values`]: operations in the timed run phase (queue
/// dispatches, or queries served).
pub const OPS: &str = "ops";

/// What one run of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub values: Values,
    /// Timings split into pieces of work, by [`SETUP`], [`RUN`] and
    /// [`FINISH`]. Every run of one seed splits into the same pieces, each
    /// doing the same work, so pieces compare one by one across runs.
    pub parts: BTreeMap<String, Vec<f64>>,
    pub digests: Vec<RunDigest>,
    /// Output checks made inside the run, and a line per failed one.
    pub checks: u64,
    pub failures: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CityWide,
    CityLong,
    Testbed,
    Retrieval,
}

/// Setups faster than this are repeated [`SETUP_REPEATS`] times in all
/// and reported as their median, so a few-millisecond build is not one
/// noisy clock reading.
const FAST_SETUP_S: f64 = 0.05;
const SETUP_REPEATS: usize = 9;

/// Each job's event loop runs as this many equal slices of simulated
/// time, each timed on its own. `run_until` stops between events, so the
/// slicing changes nothing the simulation does.
const RUN_SLICES: u64 = 24;

/// Testbed seeds per scenario point: `S..S+TESTBED_SEEDS`.
const TESTBED_SEEDS: u64 = 8;

/// Retrieval workload shape: the archived run, the query count and the
/// cache size. The gap planner uses `BENCH_retrieval.json`'s tolerances.
const ARCHIVE_SEED: u64 = crate::pins::PIN_SEED;
const RETRIEVAL_SOURCE_SECS: f64 = 600.0;
const RETRIEVAL_QUERIES: usize = 100_000;
const CACHE_CAPACITY: usize = 256;

/// Registry counters summed over a workload's jobs.
const COUNTERS: [&str; 12] = [
    "sim.packets.sent",
    "sim.packets.delivered",
    "sim.packets.lost",
    "sim.packets.blocked_rx",
    "sim.delivery.candidates",
    "sim.timers.fired",
    "sim.faults.injected",
    "core.task.recorded",
    "core.migrate.chunks_out",
    "core.election.started",
    "core.node.reboots",
    "flash.writes.total",
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CityWide,
        Workload::CityLong,
        Workload::Testbed,
        Workload::Retrieval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CityWide => "city-wide",
            Workload::CityLong => "city-long",
            Workload::Testbed => "testbed",
            Workload::Retrieval => "retrieval",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated jobs of a workload, in run order (empty for
    /// retrieval, whose source run is part of its setup).
    pub fn jobs(self, seed: u64) -> Vec<(ScenarioSpec, u64)> {
        match self {
            Workload::CityWide => vec![(ScenarioSpec::city(100_000, 10.0), seed)],
            Workload::CityLong => vec![(ScenarioSpec::city(10_000, 120.0), seed)],
            Workload::Testbed => [
                ScenarioSpec::quick_indoor(600.0),
                ScenarioSpec::quick_forest(600.0),
                ScenarioSpec::chaos_indoor(600.0),
                ScenarioSpec::chaos_forest(600.0),
            ]
            .into_iter()
            .flat_map(|spec| (seed..seed + TESTBED_SEEDS).map(move |s| (spec.clone(), s)))
            .collect(),
            Workload::Retrieval => Vec::new(),
        }
    }

    /// One measured run; `traced` attaches the layer probe and runs the
    /// replay microbenchmarks.
    pub fn run(self, seed: u64, traced: bool) -> Sample {
        match self {
            Workload::Retrieval => {
                run_retrieval(seed, RETRIEVAL_SOURCE_SECS, RETRIEVAL_QUERIES, traced)
            }
            sim => run_sim(&sim.jobs(seed), traced),
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// A `/proc/self/status` figure in bytes (`VmRSS`, `VmHWM`); 0 where the
/// file does not exist.
pub fn proc_status_bytes(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

pub fn set(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), value);
}

fn add(values: &mut Values, name: &str, value: f64) {
    *values.entry(name.to_string()).or_insert(0.0) += value;
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Builds a job's world exactly as the harness does, with every node
/// wrapped by `probe` when one is given.
pub fn build_world(input: &JobInput, probe: Option<&Probe>) -> World {
    input
        .scenario
        .validate()
        .expect("workload scenarios are valid");
    let mut world = World::new(input.world_cfg.clone());
    for &pos in input.scenario.topology.positions() {
        let node = EnviroMicNode::new(input.node_cfg.clone());
        let app: Box<dyn Application> = match probe {
            Some(p) => Box::new(p.wrap(node)),
            None => Box::new(node),
        };
        world.add_node(pos, app);
    }
    for source in &input.scenario.sources {
        world
            .add_source(source.clone())
            .expect("workload sources are valid");
    }
    world
        .inject_faults(&input.faults)
        .expect("workload fault plans are valid");
    world
}

fn end_of(input: &JobInput) -> SimTime {
    input.scenario.end() + SimDuration::from_secs_f64(input.drain_secs)
}

/// Runs one job to completion and returns its digest — the check the
/// golden preflight and the tests use.
pub fn digest_job(spec: &ScenarioSpec, seed: u64, probe: Option<&Probe>) -> RunDigest {
    let input = spec.build(seed);
    let mut world = build_world(&input, probe);
    world.run_until(end_of(&input));
    world.finish();
    RunDigest {
        label: spec.label.clone(),
        seed,
        digest: world.trace().digest(),
        records: world.trace().len() as u64,
    }
}

/// One job's setup: `ScenarioSpec::build` through world build, index
/// build and every `on_start` (the first `run_until(SimTime::ZERO)`).
struct Setup {
    input: JobInput,
    world: World,
    build_s: f64,
    setup_s: f64,
    rss_built: f64,
    rss_started: f64,
}

fn setup(spec: &ScenarioSpec, seed: u64, probe: Option<&Probe>) -> Setup {
    let started = Instant::now();
    let input = spec.build(seed);
    let mut world = build_world(&input, probe);
    let build_s = secs(started);
    let rss_built = proc_status_bytes("VmRSS");
    world.run_until(SimTime::ZERO);
    let setup_s = secs(started);
    Setup {
        input,
        world,
        build_s,
        setup_s,
        rss_built,
        rss_started: proc_status_bytes("VmRSS"),
    }
}

/// The probe's totals over event loops (the `run_until(end)` phases):
/// callback-inclusive, callback-self and runtime-call time, and the
/// numbers of callbacks and of timed runtime calls.
#[derive(Debug, Clone, Copy, Default)]
struct LoopSplit {
    loop_s: f64,
    incl_ns: u64,
    self_ns: u64,
    runtime_ns: u64,
    callbacks: u64,
    services: u64,
}

impl LoopSplit {
    /// The probe's running totals, to subtract at the end of a loop.
    fn mark(layers: &Layers) -> LoopSplit {
        LoopSplit {
            loop_s: 0.0,
            incl_ns: layers.callback_incl_ns,
            self_ns: layers.callback_self_ns(),
            runtime_ns: layers.service_ns(),
            callbacks: layers.callbacks.iter().map(|t| t.calls).sum(),
            services: layers.services.iter().map(|t| t.calls).sum(),
        }
    }

    /// Adds one loop that took `loop_s`, between marks `before` and `after`.
    fn add(&mut self, loop_s: f64, before: LoopSplit, after: LoopSplit) {
        self.loop_s += loop_s;
        self.incl_ns += after.incl_ns - before.incl_ns;
        self.self_ns += after.self_ns - before.self_ns;
        self.runtime_ns += after.runtime_ns - before.runtime_ns;
        self.callbacks += after.callbacks - before.callbacks;
        self.services += after.services - before.services;
    }
}

/// Runs the simulated jobs one after another in this thread.
///
/// End-to-end values are sums over the jobs. Memory-per-node figures come
/// from the first job, the only one that starts in a fresh heap.
pub fn run_sim(jobs: &[(ScenarioSpec, u64)], traced: bool) -> Sample {
    let probe = traced.then(Probe::default);
    let mut v = Values::new();
    let mut digests = Vec::new();
    let mut last: Option<(JobInput, World)> = None;
    let mut split = LoopSplit::default();
    let mut dispatched_run = 0u64;
    let mut dispatched_all = 0u64;
    let mut parts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, (spec, seed)) in jobs.iter().enumerate() {
        last = None;
        let rss0 = proc_status_bytes("VmRSS");
        let Setup {
            input,
            mut world,
            build_s,
            setup_s,
            rss_built,
            rss_started,
        } = setup(spec, *seed, probe.as_ref());
        let nodes = world.node_count() as f64;
        let mark = probe.as_ref().map(|p| LoopSplit::mark(&p.layers()));
        let dispatched0 = world.events_dispatched();
        let end = end_of(&input).as_jiffies();
        let slices: Vec<f64> = (1..=RUN_SLICES)
            .map(|k| {
                let started = Instant::now();
                world.run_until(SimTime::from_jiffies(end * k / RUN_SLICES));
                secs(started)
            })
            .collect();
        let run_s: f64 = slices.iter().sum();
        let rss_run = proc_status_bytes("VmRSS");
        dispatched_run += world.events_dispatched() - dispatched0;
        dispatched_all += world.events_dispatched();
        if let (Some(p), Some(before)) = (&probe, mark) {
            split.add(run_s, before, LoopSplit::mark(&p.layers()));
        }
        let started = Instant::now();
        world.finish();
        let finish_s = secs(started);
        let started = Instant::now();
        let digest = world.trace().digest();
        let digest_s = secs(started);
        digests.push(RunDigest {
            label: spec.label.clone(),
            seed: *seed,
            digest,
            records: world.trace().len() as u64,
        });
        if i == 0 {
            let hwm = proc_status_bytes("VmHWM");
            set(
                &mut v,
                "mem.build_bytes_per_node",
                (rss_built - rss0) / nodes,
            );
            set(
                &mut v,
                "mem.start_bytes_per_node",
                (rss_started - rss_built) / nodes,
            );
            set(
                &mut v,
                "mem.run_bytes_per_node",
                (rss_run - rss_started) / nodes,
            );
            set(&mut v, "mem.bytes_per_node", (hwm - rss0) / nodes);
        }
        let report = world.telemetry().report();
        for name in COUNTERS {
            add(&mut v, name, report.counter(name).unwrap_or(0) as f64);
        }
        add(&mut v, "trace.records", world.trace().len() as f64);
        add(
            &mut v,
            "trace.mb",
            (world.trace().len() * std::mem::size_of::<TraceEvent>()) as f64 / 1e6,
        );
        add(&mut v, "trace.digest_s", digest_s);
        add(&mut v, "sim.setup.build_s", build_s);
        add(&mut v, "sim.setup.start_s", setup_s - build_s);
        if traced {
            let resident: u64 = (0..world.node_count())
                .filter_map(|n| world.app_as::<EnviroMicNode>(NodeId::from_index(n)))
                .map(|n| n.store().resident_payload_bytes())
                .sum();
            add(&mut v, "flash.resident_mb", resident as f64 / 1e6);
            last = Some((input, world));
        } else {
            drop(world);
        }
        // Repeat fast setups on throwaway worlds after the measured job,
        // so their memory never overlaps a live world.
        let setup_s = if !traced && setup_s < FAST_SETUP_S {
            let mut samples = vec![setup_s];
            samples.extend((1..SETUP_REPEATS).map(|_| setup(spec, *seed, None).setup_s));
            stats::median(&samples)
        } else {
            setup_s
        };
        add(&mut v, "run_s", run_s);
        add(
            &mut v,
            &format!("sweep.job_s.{}", spec.label),
            setup_s + run_s + finish_s + digest_s,
        );
        parts.entry(SETUP).or_default().push(setup_s);
        parts.entry(RUN).or_default().extend(&slices);
        parts.entry(FINISH).or_default().push(finish_s + digest_s);
    }
    set(&mut v, "sweep.jobs", jobs.len() as f64);
    set(&mut v, OPS, dispatched_run as f64);
    set(&mut v, "sim.dispatches", dispatched_all as f64);
    set(&mut v, "peak_rss_mb", proc_status_bytes("VmHWM") / 1e6);
    if let Some(probe) = probe {
        let layers = probe.layers();
        layer_values(&mut v, &layers, split, dispatched_all);
        if let Some((input, world)) = &last {
            replay::sim(&mut v, input, world, &layers.payloads);
        }
    }
    Sample {
        values: v,
        parts: parts
            .into_iter()
            .map(|(name, xs)| (name.to_string(), xs))
            .collect(),
        digests,
        ..Sample::default()
    }
}

/// Per-layer values from the probe.
///
/// The loop splits into four parts that add up to it: protocol self time,
/// runtime-call time, the probe's own cost and the engine's remainder. The
/// probe's cost per callback and per runtime call is calibrated. Of each
/// callback's cost, an empty span's worth falls inside the callback's
/// span and the rest outside it, in the engine's remainder. Of each runtime
/// call's cost, an empty span's worth falls inside the call's span and the
/// rest inside the calling callback's self time. Each part is taken off
/// where it fell. The per-call means (`self_ns`, `ns`) keep their empty
/// span of clock cost.
fn layer_values(v: &mut Values, layers: &Layers, split: LoopSplit, dispatched: u64) {
    let cost = ProbeCost::calibrate();
    let (callbacks, services) = (split.callbacks as f64, split.services as f64);
    let ns = |x: f64| x * 1e-9;
    let probe_s = ns(callbacks * cost.per_callback + services * cost.per_service);
    let self_s = ns(split.self_ns as f64
        - callbacks * cost.empty_span
        - services * (cost.per_service - cost.empty_span));
    let runtime_s = ns(split.runtime_ns as f64 - services * cost.empty_span);
    let engine_s =
        split.loop_s - ns(split.incl_ns as f64 + callbacks * (cost.per_callback - cost.empty_span));
    set(v, "sim.loop_s", split.loop_s);
    set(v, "sim.engine_self_s", engine_s);
    set(v, "sim.runtime_s", runtime_s);
    set(v, "bench.probe_s", probe_s);
    set(v, "core.self_s", self_s);
    set(v, "core.share", ratio(self_s, split.loop_s));
    let callbacks: u64 = layers.callbacks.iter().map(|t| t.calls).sum();
    set(
        v,
        "sim.callbacks_per_dispatch",
        ratio(callbacks as f64, dispatched as f64),
    );
    for cb in Callback::ALL {
        let t = layers.callback(cb);
        set(v, &format!("core.{}.calls", cb.name()), t.calls as f64);
        set(v, &format!("core.{}.self_ns", cb.name()), t.mean_ns());
    }
    for svc in Service::ALL {
        let t = layers.service(svc);
        set(v, &format!("{}.calls", svc.prefix()), t.calls as f64);
        set(v, &format!("{}.ns", svc.prefix()), t.mean_ns());
    }
    let candidates = v["sim.delivery.candidates"];
    let broadcast = layers.service(Service::Broadcast);
    set(
        v,
        "sim.broadcast.ns_per_candidate",
        ratio(broadcast.ns as f64, candidates),
    );
    set(
        v,
        "sim.delivery.yield",
        ratio(v["sim.packets.delivered"], candidates),
    );
    set(
        v,
        "sim.cancel_timer.calls",
        layers.cancel_timer_calls as f64,
    );
    set(
        v,
        "sim.timer.cancel_ratio",
        ratio(
            layers.cancel_timer_calls as f64,
            layers.service(Service::SetTimer).calls as f64,
        ),
    );
    set(v, "sim.flash_charge.blocks", layers.flash_blocks as f64);
    set(v, "net.bytes_sent", layers.broadcast_bytes as f64);
    set(
        v,
        "net.bytes_per_packet",
        ratio(layers.broadcast_bytes as f64, layers.broadcasts_sent as f64),
    );
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The query stream: the shape of `enviromic_bench::retrieval`'s
/// committed workload (window starts on a 48-point grid over the archive
/// span, three window lengths, every eighth query filtered by origin or
/// event), drawn from a SplitMix64 stream keyed by `seed`.
pub fn build_queries(store: &ArchiveStore, seed: u64, n: usize) -> Vec<RangeQuery> {
    let Some((span0, span1)) = store.span() else {
        return Vec::new();
    };
    let span_j = span1.saturating_since(span0).as_jiffies().max(1);
    let origins = store.origins();
    let events: Vec<EventId> = store
        .records()
        .iter()
        .filter_map(|r| r.event)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    const GRID: u64 = 48;
    let lengths = [span_j / 24, span_j / 8, span_j / 3];
    let mut state = seed ^ 0x5DEE_CE66_D1CE_5EED;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            let start = span0 + SimDuration::from_jiffies((r % GRID) * span_j / GRID);
            let len = lengths[((r >> 8) % 3) as usize].max(1);
            let (origin, event) = match (r >> 16) % 8 {
                6 if !origins.is_empty() => {
                    (Some(origins[((r >> 24) as usize) % origins.len()]), None)
                }
                7 if !events.is_empty() => {
                    (None, Some(events[((r >> 24) as usize) % events.len()]))
                }
                _ => (None, None),
            };
            RangeQuery {
                t0: start,
                t1: start + SimDuration::from_jiffies(len),
                origin,
                event,
            }
        })
        .collect()
}

/// The FNV-1a fold `ServeOutcome::digest` applies to per-query digests.
fn fold(mut h: u64, digest: u64) -> u64 {
    for b in digest.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The retrieval workload: archive the `quick-indoor` run of the pinned
/// deployment, then answer `queries` range queries drawn from `seed` one
/// at a time, through the LRU cache, and uncached. Every pass must
/// produce the same result digest.
///
/// The archive is the same at every seed: the seed varies what operators
/// ask, not how much audio exists, so runs at different seeds do the same
/// amount of work.
pub fn run_retrieval(seed: u64, source_secs: f64, queries: usize, traced: bool) -> Sample {
    let mut v = Values::new();
    let started = Instant::now();
    let input = ScenarioSpec::quick_indoor(source_secs).build(ARCHIVE_SEED);
    let run = run_scenario_with_faults(
        input.scenario,
        &input.node_cfg,
        input.world_cfg,
        input.drain_secs,
        &input.faults,
    );
    let ingest = Instant::now();
    let store = archive_run(&run);
    let ingest_s = secs(ingest);
    drop(run);
    let workload = build_queries(&store, seed, queries);
    let setup_s = secs(started);
    let n = workload.len() as f64;

    // One query at a time, for the latency distribution.
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(workload.len());
    let mut timed_digest = 0xCBF2_9CE4_8422_2325u64;
    let mut matched = 0u64;
    for q in &workload {
        let t = Instant::now();
        let result = store.query(q);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        timed_digest = fold(timed_digest, result.digest);
        matched += result.len() as u64;
    }
    let timed_s = secs(started);
    latencies.sort_by(f64::total_cmp);

    // Each pass keeps only its digest and figures, so one pass's 100k
    // results are resident at a time.
    let served = serve_queries(&store, &workload, CACHE_CAPACITY, 1, None);
    let (digest, stats, run_s, served_qps) = (
        served.digest(),
        served.stats,
        served.wall_secs,
        served.queries_per_sec(),
    );
    drop(served);
    let uncached = serve_queries(&store, &workload, 0, 1, None);
    let (uncached_digest, uncached_s, uncached_qps) = (
        uncached.digest(),
        uncached.wall_secs,
        uncached.queries_per_sec(),
    );
    drop(uncached);

    let started = Instant::now();
    let plan = rerequest_plan(
        &store,
        SimDuration::from_secs_f64(retrieval::GAP_TOLERANCE_SECS),
        SimDuration::from_secs_f64(retrieval::GAP_SLACK_SECS),
    );
    let gaps_s = secs(started);

    // The cached answer is the product; the other two passes must agree
    // with it.
    let failures = [
        ("uncached", uncached_digest),
        ("one-at-a-time", timed_digest),
    ]
    .into_iter()
    .filter(|&(_, other)| other != digest)
    .map(|(pass, other)| format!("{pass} digest {other:#018x} != cached {digest:#018x}"))
    .collect();

    set(&mut v, "run_s", run_s);
    set(&mut v, OPS, n);
    set(&mut v, "peak_rss_mb", proc_status_bytes("VmHWM") / 1e6);
    set(&mut v, "archive.ingest_s", ingest_s);
    set(&mut v, "archive.records", store.len() as f64);
    set(
        &mut v,
        "archive.duplicates",
        store.ingest_stats().duplicates as f64,
    );
    set(&mut v, "archive.origins", store.origins().len() as f64);
    set(&mut v, "archive.cache.hit_ratio", stats.hit_ratio());
    set(&mut v, "archive.cache.evictions", stats.evictions as f64);
    set(&mut v, "archive.query.scan_ns", timed_s * 1e9 / n);
    set(
        &mut v,
        "archive.query.matched_per_query",
        matched as f64 / n,
    );
    set(&mut v, "archive.query.p50_us", percentile(&latencies, 0.50));
    set(&mut v, "archive.query.p99_us", percentile(&latencies, 0.99));
    set(&mut v, "archive.served_qps", served_qps);
    set(&mut v, "archive.uncached_qps", uncached_qps);
    set(&mut v, "archive.gaps_s", gaps_s);
    set(&mut v, "archive.rerequest.batches", plan.len() as f64);
    if traced {
        set(&mut v, "archive.cache.probe_ns", cache_probe_ns(&workload));
    }
    Sample {
        values: v,
        parts: [
            (SETUP, vec![setup_s]),
            (RUN, vec![run_s]),
            (FINISH, vec![timed_s, uncached_s, gaps_s]),
        ]
        .into_iter()
        .map(|(name, xs)| (name.to_string(), xs))
        .collect(),
        digests: vec![
            RunDigest {
                label: "archive".into(),
                seed: ARCHIVE_SEED,
                digest: archive_digest(&store),
                records: store.len() as u64,
            },
            RunDigest {
                label: "retrieval".into(),
                seed,
                digest,
                records: store.len() as u64,
            },
        ],
        checks: 2,
        failures,
    }
}

/// The archive's identity: the result digest of one query over its whole
/// span (every record, in canonical order).
fn archive_digest(store: &ArchiveStore) -> u64 {
    store.span().map_or(0, |(t0, t1)| {
        store.query(&RangeQuery::window(t0, t1)).digest
    })
}

/// Mean cost of one LRU probe over the workload (the cache layer alone,
/// without the scans it saves).
fn cache_probe_ns(workload: &[RangeQuery]) -> f64 {
    let mut cache = QueryCache::new(CACHE_CAPACITY);
    let started = Instant::now();
    for q in workload {
        std::hint::black_box(cache.probe(q));
    }
    ratio(secs(started) * 1e9, workload.len() as f64)
}
