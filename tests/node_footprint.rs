//! What a node costs in heap: building one allocates nothing, hearing a
//! control packet allocates nothing, and a city world's live bytes per
//! node stay within pinned bounds.
//!
//! A city world builds one `EnviroMicNode` per lamppost, 10k–100k of
//! them, so every byte a node holds is paid once per node, and every
//! neighbour in range hears every packet. Detached telemetry handles are
//! shared per thread, the wire codec's buffers are reused per thread, and
//! the flash store, the neighbour table and rare protocol state allocate
//! on first use. This binary counts allocations and live heap bytes per
//! thread with its own global allocator, and each test reads the change
//! over its own work on its own thread, so tests running side by side do
//! not disturb each other.

use enviromic::core::{EnviroMicNode, NodeConfig};
use enviromic::flash::{Chunk, ChunkMeta};
use enviromic::harness::build_world;
use enviromic::net::Message;
use enviromic::runtime::MockRuntime;
use enviromic::sweep::ScenarioSpec;
use enviromic::types::{audio, EventId, NodeId, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Forwards to the system allocator, counting this thread's allocations
/// and its live heap bytes (allocated minus freed).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocations: u64, bytes: i64) {
    // `try_with` fails only while the thread is being torn down, when
    // nothing counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are const-
// initialised thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // got them from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

#[test]
fn building_a_city_node_allocates_nothing() {
    let cfg = ScenarioSpec::city(1_000, 1.0).build(42).node_cfg;
    // The first node on a thread creates the detached telemetry cells
    // that every later node shares.
    let _first = EnviroMicNode::new(cfg.clone());
    let before = allocations();
    let node = EnviroMicNode::new(cfg);
    let made = allocations() - before;
    assert_eq!(made, 0, "EnviroMicNode::new made {made} allocations");
    assert_eq!(node.stored_chunks(), 0);
}

/// A node hears these control messages in steady state and handles them
/// in place: a neighbour's storage state, a time-sync beacon it has
/// already seen, and a bulk-transfer ACK addressed to another node.
#[test]
fn hearing_control_packets_allocates_nothing() {
    let mut node = EnviroMicNode::new(NodeConfig::default());
    let mut rt = MockRuntime::new(NodeId(1));
    rt.start(&mut node);
    let neighbour = NodeId(2);
    let envelopes = [
        Message::StateUpdate {
            ttl_secs: 120,
            free_chunks: 40,
            avg_free_pct: 62,
        },
        Message::TimeSync {
            root: NodeId(0),
            seq: 3,
            ref_time: SimTime::from_jiffies(98_304),
        },
        Message::BulkAck {
            to: NodeId(9),
            session: 5,
            seq: 2,
        },
    ]
    .map(|m| (m.kind(), m.encode()));
    // Warm-up: the first hearing admits the neighbour, takes the beacon
    // (and queues its re-flood) and grows the thread's decode buffer.
    for (_, bytes) in &envelopes {
        assert!(rt.deliver_now(&mut node, neighbour, bytes));
    }
    for (kind, bytes) in &envelopes {
        let before = allocations();
        rt.deliver_now(&mut node, neighbour, bytes);
        let made = allocations() - before;
        assert_eq!(made, 0, "hearing {kind:?} made {made} allocations");
    }
}

#[test]
fn measuring_a_message_allocates_nothing() {
    let chunk = Chunk::new(
        ChunkMeta {
            origin: NodeId(4),
            event: Some(EventId::new(NodeId(2), 8)),
            t_start: SimTime::from_jiffies(65_536),
        },
        vec![0x5A; audio::CHUNK_PAYLOAD_BYTES as usize],
    );
    let bulk = Message::BulkData {
        to: NodeId(3),
        session: 5,
        seq: 1,
        last: true,
        chunk,
    };
    let state = Message::StateUpdate {
        ttl_secs: 120,
        free_chunks: 40,
        avg_free_pct: 62,
    };
    // Warm-up: the longest message grows the thread's encode buffer.
    let bulk_len = bulk.encoded_len();
    let before = allocations();
    assert_eq!(black_box(&bulk).encoded_len(), bulk_len);
    black_box(black_box(&state).encoded_len());
    let made = allocations() - before;
    assert_eq!(made, 0, "encoded_len made {made} allocations");
}

/// Live heap bytes per node of a city-1k world at seed 42, counted from
/// before its `JobInput` is built: once the world is built, and once it
/// has run its 10 s scenario and 2 s drain.
fn city_1k_bytes_per_node() -> (f64, f64) {
    let base = live_bytes();
    let input = ScenarioSpec::city(1_000, 10.0).build(42);
    let mut world = build_world(&input.scenario, &input.node_cfg, input.world_cfg.clone());
    let nodes = world.node_count() as f64;
    let built = (live_bytes() - base) as f64 / nodes;
    let end = input.scenario.end() + SimDuration::from_secs_f64(input.drain_secs);
    world.run_until(end);
    let ran = (live_bytes() - base) as f64 / nodes;
    (built, ran)
}

/// Each bound sits under 5% above the value it guards. Measured per
/// node: after build 1,229.5 B, and 3,408.9 B after the run. Before the
/// flash metadata, neighbour table, timers and tree state followed use,
/// the same counts read 2,437.5 B and 4,980.0 B. Two worlds built one
/// after the other in one process agree to within 2 B per node.
#[test]
fn a_city_world_holds_its_pinned_bytes_per_node() {
    const BUILT_BOUND: f64 = 1_290.0;
    const RAN_BOUND: f64 = 3_575.0;
    let (built, ran) = city_1k_bytes_per_node();
    let (built_again, ran_again) = city_1k_bytes_per_node();
    assert!(
        (built - built_again).abs() <= 2.0 && (ran - ran_again).abs() <= 2.0,
        "repeats disagree: {built:.1}/{ran:.1} then {built_again:.1}/{ran_again:.1} B per node"
    );
    assert!(
        built <= BUILT_BOUND,
        "a built city-1k world holds {built:.1} B per node"
    );
    assert!(
        ran <= RAN_BOUND,
        "a city-1k world holds {ran:.1} B per node after its run"
    );
}
