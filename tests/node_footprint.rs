//! Building a node allocates nothing but its flash store.
//!
//! A city world builds one `EnviroMicNode` per lamppost, 10k–100k of
//! them, so every allocation `EnviroMicNode::new` makes is paid once per
//! node. Detached telemetry handles are shared per thread and rare
//! protocol state is boxed on first use, which leaves the store's own
//! allocations. This binary counts allocations with its own global
//! allocator, so it holds this one test only.

use enviromic::core::EnviroMicNode;
use enviromic::sweep::ScenarioSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations made on a
/// thread while that thread counts.
struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down, when
    // nothing counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a const-
// initialised thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // got them from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let made = ALLOCATIONS
        .with(|n| n.take())
        .expect("this thread was counting");
    (out, made)
}

#[test]
fn building_a_city_node_allocates_only_its_flash_store() {
    let cfg = ScenarioSpec::city(1_000, 1.0).build(42).node_cfg;
    // The first node on a thread creates the detached telemetry cells
    // that every later node shares.
    let _first = EnviroMicNode::new(cfg.clone());
    let cfg = cfg.clone();
    let (node, made) = counted(|| EnviroMicNode::new(cfg));
    assert_eq!(made, 4, "EnviroMicNode::new made {made} allocations");
    assert_eq!(node.stored_chunks(), 0);
}
