//! What a retained record costs the in-memory log, and what a publish
//! allocates, counted in live heap bytes and allocations by this
//! binary's own global allocator. Counted per thread: the log broker
//! publishes, and fires a subscriber's waker, on the caller's thread,
//! while libtest's own threads (starting tests, capturing and printing
//! their output) allocate at the same time, so a process-wide count
//! would see theirs too. Counted, not timed: the bounds hold on any
//! host.

use bytes::Bytes;
use ginflow_mq::{Broker, LogBroker, SubscribeMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, keeping the calling thread's running total of
/// live bytes and count of allocations (a `realloc` is one: the default
/// forwards it to `alloc`).
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes the calling thread has allocated and not yet freed.
fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counters are const-initialised thread-locals without a destructor,
// which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as isize));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes `f` leaves behind.
fn retained_by(f: impl FnOnce()) -> isize {
    let before = live();
    f();
    live() - before
}

/// A message as the daemon decodes it off the wire: its own key and
/// payload buffers, dropped by the broker's caller after the publish.
fn decoded(i: usize) -> (Option<Bytes>, Bytes) {
    let key = Bytes::copy_from_slice(format!("T{:05}", i % 900).as_bytes());
    let payload = Bytes::copy_from_slice(format!("{i:032}").as_bytes());
    (Some(key), payload)
}

#[test]
fn a_retained_record_costs_at_most_64_bytes_of_heap() {
    const RECORDS: usize = 28_000;
    let broker = LogBroker::new();
    broker.create_topic("run/r/sa.inbox", 1);
    let live = retained_by(|| {
        for i in 0..RECORDS {
            let (key, payload) = decoded(i);
            broker.publish("run/r/sa.inbox", key, payload).unwrap();
        }
    });
    assert_eq!(broker.retained("run/r/sa.inbox"), RECORDS as u64);
    let per_record = live as f64 / RECORDS as f64;
    println!("{per_record:.1} B of live heap per record (6 B key, 32 B payload)");
    assert!(per_record <= 64.0, "{per_record:.1} B per record");
}

#[test]
fn a_topics_first_record_costs_at_most_1_kib() {
    let broker = LogBroker::new();
    broker.create_topic("run/r/status", 1);
    let live = retained_by(|| {
        let (_, payload) = decoded(0);
        broker.publish("run/r/status", None, payload).unwrap();
    });
    println!("{live} B of live heap for a topic's first record");
    assert!(live <= 1024, "{live} B");
}

#[test]
fn a_publish_to_an_existing_topic_allocates_nothing_for_its_name() {
    const PUBLISHES: usize = 1000;
    let broker = LogBroker::new();
    broker.create_topic("run/r/sa.inbox", 1);
    // The records' buffers are made up front: only the broker counts.
    let records: Vec<(Option<Bytes>, Bytes)> = (0..PUBLISHES).map(decoded).collect();
    let before = allocations();
    for (key, payload) in records {
        broker.publish("run/r/sa.inbox", key, payload).unwrap();
    }
    let allocations = allocations() - before;
    assert_eq!(broker.retained("run/r/sa.inbox"), PUBLISHES as u64);
    println!("{allocations} allocations for {PUBLISHES} keyed publishes, no subscriber");
    // What is left is the log's own growth: its chunks and its index.
    assert!(allocations <= 32, "{allocations} allocations");
}

#[test]
fn a_subscriber_draining_through_its_waker_keeps_its_queue() {
    // Each publish wakes the subscriber, whose drain empties the queue
    // and hands the buffer back, so the next delivery has room, and the
    // publish holds the one waker it fires inline: what is left is the
    // log's own growth, as with no subscriber. (With a fresh queue per
    // drain and a waker list per publish this read 2027: two
    // allocations per publish.)
    const PUBLISHES: usize = 1000;
    let broker = LogBroker::new();
    broker.create_topic("run/r/sa.inbox", 1);
    let subscription = Arc::new(
        broker
            .subscribe("run/r/sa.inbox", SubscribeMode::Latest)
            .unwrap(),
    );
    let drained = Arc::new(AtomicUsize::new(0));
    let (weak, count) = (Arc::downgrade(&subscription), drained.clone());
    subscription.set_waker(move || {
        if let Some(subscription) = weak.upgrade() {
            subscription.drain(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    let records: Vec<(Option<Bytes>, Bytes)> = (0..PUBLISHES).map(decoded).collect();
    let before = allocations();
    for (key, payload) in records {
        broker.publish("run/r/sa.inbox", key, payload).unwrap();
    }
    let allocations = allocations() - before;
    assert_eq!(drained.load(Ordering::SeqCst), PUBLISHES);
    println!(
        "{allocations} allocations for {PUBLISHES} keyed publishes, each drained by the waker"
    );
    assert!(allocations <= 32, "{allocations} allocations");
}
