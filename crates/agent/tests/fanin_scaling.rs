//! The fan-in `join` agent does not pay for its width per delivery.
//!
//! ROADMAP item 2's quadratic was the `join` of `patterns::parallel(n)`
//! deep-copying its whole `SRC` and `IN` on every `gw_recv`. Copies are
//! allocations, so this counts them instead of timing anything: a counting
//! global allocator around `SaCore::handle`, at two widths, over the last
//! quarter of the deliveries (where `IN` is largest). The counts repeat
//! exactly from run to run, so the test cannot flake.
//!
//! This file holds a single test because the counters are process-wide.

use ginflow_agent::{Event, SaCore, SaMessage};
use ginflow_core::{patterns, Value};
use ginflow_hoclflow::agent_programs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and the bytes asked for
/// (a `realloc` counts as one allocation of its new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Mean allocations and bytes per `handle` over the last quarter of the
/// `n` deliveries to the `join` of `patterns::parallel(n)`, the very last
/// one excluded: that one fires `gw_setup`, whose `list(*w)` reads every
/// input once per run, by design.
fn per_delivery(n: usize) -> (f64, f64) {
    let wf = patterns::parallel(n, "s").unwrap();
    let (programs, plans) = agent_programs(&wf);
    let program = programs.into_iter().find(|p| p.name == "join").unwrap();
    let mut join = SaCore::new(program, Arc::new(plans));
    join.handle(Event::Start).unwrap();
    let quarter = (n - n / 4)..(n - 1);
    let (mut allocations, mut bytes) = (0u64, 0u64);
    for i in 0..n {
        let event = Event::Deliver(SaMessage::Result {
            from: format!("p{}", i + 1),
            value: Value::str("r"),
        });
        let before = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let commands = join.handle(event).unwrap();
        if quarter.contains(&i) {
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - before.0;
            bytes += BYTES.load(Ordering::Relaxed) - before.1;
            assert!(commands.is_empty(), "delivery {i} of {n} is not the last");
        }
    }
    assert!(join.solution().has_pending(), "all {n} inputs in: invoked");
    let deliveries = quarter.len() as f64;
    (allocations as f64 / deliveries, bytes as f64 / deliveries)
}

#[test]
fn a_delivery_to_the_join_allocates_the_same_at_500_and_2000_wide() {
    let (allocations_500, bytes_500) = per_delivery(500);
    let (allocations_2000, bytes_2000) = per_delivery(2000);
    println!(
        "per delivery: {allocations_500:.1} allocations / {bytes_500:.0} B at 500 wide, \
         {allocations_2000:.1} / {bytes_2000:.0} B at 2000 wide"
    );
    let within = |a: f64, b: f64| (a - b).abs() <= 0.10 * a.max(b);
    assert!(
        within(allocations_500, allocations_2000),
        "allocations per delivery grow with the width: {allocations_500} vs {allocations_2000}"
    );
    assert!(
        within(bytes_500, bytes_2000),
        "bytes per delivery grow with the width: {bytes_500} vs {bytes_2000}"
    );
    // One `gw_recv` application plus the failed probes of the other rules:
    // a few dozen small allocations. (A single copy of a 2000-wide `IN`
    // would be 2000 allocations and ≈ 200 KB.)
    assert!(allocations_2000 <= MAX_ALLOCATIONS, "{allocations_2000}");
    assert!(bytes_2000 <= MAX_BYTES, "{bytes_2000}");
}

const MAX_ALLOCATIONS: f64 = 64.0;
const MAX_BYTES: f64 = 8192.0;
