//! What a node costs in heap: building one allocates nothing, and a city
//! world's live bytes per node stay within pinned bounds.
//!
//! A city world builds one `EnviroMicNode` per lamppost, 10k–100k of
//! them, so every byte a node holds is paid once per node. Detached
//! telemetry handles are shared per thread, and the flash store, the
//! neighbour table and rare protocol state allocate on first use. This
//! binary counts allocations and live heap bytes per thread with its own
//! global allocator, and each test reads the change over its own work on
//! its own thread, so tests running side by side do not disturb each
//! other.

use enviromic::core::EnviroMicNode;
use enviromic::harness::build_world;
use enviromic::sweep::ScenarioSpec;
use enviromic::types::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
