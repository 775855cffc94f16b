//! A delivery costs an agent the same whatever its width.
//!
//! ROADMAP item 2's quadratic was the `join` of `patterns::parallel(n)`
//! deep-copying its whole `SRC` and `IN` on every `gw_recv`. Copies are
//! allocations, so this counts them instead of timing anything: a counting
//! global allocator around `SaCore::handle`, at two widths, over the
//! deliveries that do not yet complete the input set. The counts repeat
//! exactly from run to run, so the tests cannot flake.
//!
//! The counters are per thread — each test counts only what its own
//! `handle` calls allocate — so the tests may run side by side.

use ginflow_agent::{Event, SaCore, SaMessage};
use ginflow_core::{patterns, Connectivity, Value, Workflow};
use ginflow_hoclflow::agent_programs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes on the calling thread.
fn count(size: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

/// This thread's (allocations, bytes) so far.
fn counted() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// The system allocator, counting every allocation and the bytes asked for
/// (a `realloc` counts as one allocation of its new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// with constant initialisers, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Mean allocations and bytes per `handle` of the agent `task` of `wf`
/// over the deliveries `measured` of a result from each of `senders` in
/// turn. The very last delivery is never measured: it fires `gw_setup`,
/// whose `list(*w)` reads every input once per run, by design.
fn per_delivery(
    wf: &Workflow,
    task: &str,
    senders: &[String],
    measured: std::ops::Range<usize>,
) -> (f64, f64) {
    assert!(measured.end < senders.len(), "the last delivery invokes");
    let (programs, plans) = agent_programs(wf);
    let program = programs.into_iter().find(|p| p.name == task).unwrap();
    assert_eq!(&program.sources, senders);
    let mut agent = SaCore::new(program, Arc::new(plans));
    agent.handle(Event::Start).unwrap();
    let (mut allocations, mut bytes) = (0u64, 0u64);
    for (i, from) in senders.iter().enumerate() {
        let event = Event::Deliver(SaMessage::Result {
            from: from.clone(),
            value: Value::str("r"),
        });
        let before = counted();
        let commands = agent.handle(event).unwrap();
        if measured.contains(&i) {
            let after = counted();
            allocations += after.0 - before.0;
            bytes += after.1 - before.1;
            assert!(
                commands.is_empty(),
                "delivery {i} of {task} is not the last"
            );
        }
    }
    assert!(
        agent.solution().has_pending(),
        "all inputs of {task} in: invoked"
    );
    let deliveries = measured.len() as f64;
    (allocations as f64 / deliveries, bytes as f64 / deliveries)
}

/// Within 10 % of each other.
fn within(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.10 * a.max(b)
}

/// One `gw_recv` application builds three tuples and one subsolution
/// body, and the delivered atom is a tuple of two fresh symbols: the rest
/// — failed tries of the other rules, the bindings, the reactants — must
/// allocate nothing. (A single copy of a 2000-wide `IN` would be 2000
/// allocations and ≈ 200 KB.)
const MAX_ALLOCATIONS: f64 = 14.0;
const MAX_BYTES: f64 = 1200.0;

/// The `join` of `patterns::parallel(n)`, over the last quarter of its
/// deliveries (where its `IN` is largest).
fn fan_in(n: usize) -> (f64, f64) {
    let wf = patterns::parallel(n, "s").unwrap();
    let senders: Vec<String> = (1..=n).map(|i| format!("p{i}")).collect();
    per_delivery(&wf, "join", &senders, (n - n / 4)..(n - 1))
}

#[test]
fn a_delivery_to_the_join_allocates_the_same_at_500_and_2000_wide() {
    let (allocations_500, bytes_500) = fan_in(500);
    let (allocations_2000, bytes_2000) = fan_in(2000);
    println!(
        "per delivery: {allocations_500:.1} allocations / {bytes_500:.0} B at 500 wide, \
         {allocations_2000:.1} / {bytes_2000:.0} B at 2000 wide"
    );
    assert!(
        within(allocations_500, allocations_2000),
        "allocations per delivery grow with the width: {allocations_500} vs {allocations_2000}"
    );
    assert!(
        within(bytes_500, bytes_2000),
        "bytes per delivery grow with the width: {bytes_500} vs {bytes_2000}"
    );
    assert!(allocations_2000 <= MAX_ALLOCATIONS, "{allocations_2000}");
    assert!(bytes_2000 <= MAX_BYTES, "{bytes_2000}");
}

/// A middle-layer agent of the `w`-wide full mesh, `t1_2`, over every
/// delivery but the last: it hears from all `w` tasks of the layer
/// before, and sends to all `w` of the layer after.
fn full_mesh(w: usize) -> (f64, f64) {
    let wf = patterns::diamond(w, 3, Connectivity::Full, "s").unwrap();
    let senders: Vec<String> = (1..=w).map(|i| format!("t{i}_1")).collect();
    per_delivery(&wf, "t1_2", &senders, 0..(w - 1))
}

#[test]
fn a_delivery_to_a_full_mesh_agent_allocates_the_same_at_10_and_30_wide() {
    let (allocations_10, bytes_10) = full_mesh(10);
    let (allocations_30, bytes_30) = full_mesh(30);
    println!(
        "per delivery: {allocations_10:.1} allocations / {bytes_10:.0} B at 10 wide, \
         {allocations_30:.1} / {bytes_30:.0} B at 30 wide"
    );
    assert!(
        within(allocations_10, allocations_30),
        "allocations per delivery grow with the width: {allocations_10} vs {allocations_30}"
    );
    assert!(allocations_30 <= MAX_ALLOCATIONS, "{allocations_30}");
    assert!(bytes_30 <= MAX_BYTES, "{bytes_30}");
}

/// Allocations of the `handle` that delivers the last input of the
/// 2000-wide join and suspends on its `invoke`.
fn suspending_handle_of_the_2000_wide_join() -> u64 {
    let wf = patterns::parallel(2000, "s").unwrap();
    let (programs, plans) = agent_programs(&wf);
    let program = programs.into_iter().find(|p| p.name == "join").unwrap();
    let mut agent = SaCore::new(program, Arc::new(plans));
    agent.handle(Event::Start).unwrap();
    let mut suspending = 0;
    for i in 1..=2000 {
        let event = Event::Deliver(SaMessage::Result {
            from: format!("p{i}"),
            value: Value::str("r"),
        });
        let before = counted().0;
        let commands = agent.handle(event).unwrap();
        suspending = counted().0 - before;
        assert_eq!(commands.is_empty(), i < 2000, "delivery {i}");
    }
    assert!(agent.solution().has_pending(), "all inputs in: invoked");
    suspending
}

#[test]
fn the_join_hands_its_parameters_to_the_invoke_without_a_copy() {
    // `gw_setup`'s `list(*w)` copies the 2000 inputs, by design, and
    // `Command::Invoke` takes that list as it is: a copy of it would be
    // 2001 more allocations. Sorting the inputs by tag copies no tag:
    // that would be 2000 more. (With both copies this handle made
    // 12 033 allocations.)
    let allocations = suspending_handle_of_the_2000_wide_join();
    println!("{allocations} allocations for the suspending handle of the 2000-wide join");
    assert!(allocations <= 12_033 - 4000, "{allocations}");
}
