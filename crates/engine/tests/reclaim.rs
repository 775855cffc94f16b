//! What a finished run leaves behind on a standing engine, counted by
//! this binary's own global allocator and read off the broker. Counted,
//! not timed: the bounds hold on any host.
//!
//! An in-process run deletes its two topics when it is torn down, so an
//! engine that stays up holds no finished run's messages however many
//! runs it has served. (On a daemon a joined run stays until it is
//! closed and collected: `multirun.rs` pins that.)

use ginflow_core::{patterns, Connectivity, ServiceRegistry, Workflow};
use ginflow_engine::Engine;
use ginflow_mq::{Broker, LogBroker};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is an atomic, which
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests run one at a time, so each reads only its own allocations.
static SERIAL: Mutex<()> = Mutex::new(());

const RUNS: usize = 1000;
/// Where the baseline is read: once the first runs have warmed every
/// lazily built structure of the process (metric handles, the broker's
/// topic table at its working size).
const WARM: usize = 10;

fn diamond() -> Workflow {
    patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap()
}

fn services() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for(["s"]))
}

/// Run `RUNS` diamonds back to back on `engine`, calling `probe` after
/// run `WARM` and after the last one.
fn thousand_runs<T>(engine: &Engine, mut probe: impl FnMut() -> T) -> (T, T) {
    let wf = diamond();
    let mut warm = None;
    for run in 1..=RUNS {
        assert!(engine.launch(&wf).join().completed, "run {run}");
        if run == WARM {
            warm = Some(probe());
        }
    }
    (warm.expect("RUNS > WARM"), probe())
}

#[test]
fn a_thousand_joined_runs_leave_the_broker_no_topic() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The broker `Engine::builder()` makes by default, kept here to read.
    let broker = Arc::new(LogBroker::new());
    let engine = Engine::builder()
        .broker(broker.clone())
        .registry(services())
        .workers(1)
        .build();
    let (warm, last) = thousand_runs(&engine, || broker.topic_names().len());
    assert_eq!(warm, 0, "topics left after run {WARM}");
    assert_eq!(last, warm, "topics left after run {RUNS}");
}

#[test]
fn a_standing_default_engine_holds_no_more_heap_after_a_thousand_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::builder().registry(services()).workers(1).build();
    let (warm, last) = thousand_runs(&engine, || LIVE.load(Ordering::SeqCst));
    let growth = (last - warm) as f64 / warm as f64;
    println!(
        "live heap {warm} B after run {WARM}, {last} B after run {RUNS} ({:+.2} %)",
        growth * 100.0
    );
    assert!(growth.abs() <= 0.05, "{:+.2} %", growth * 100.0);
}
