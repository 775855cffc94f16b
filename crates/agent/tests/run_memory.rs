//! What a run's record costs per task, counted by this binary's own
//! global allocator in live heap bytes and allocations, through the
//! public API only. Counted, not timed: the bounds hold on any host.
//!
//! The tracker folds every status update of a run, and at thousands of
//! tasks it was the largest thing a run held: a name-keyed table, and an
//! event history with a name — and, for a result, a value — cloned into
//! every entry. These bounds hold it, and the scheduler's agent table, to
//! what a task-indexed record costs.

use ginflow_agent::{RunId, RunOptions, RunTracker, Scheduler, StatusUpdate};
use ginflow_core::{patterns, ConstService, ServiceRegistry, TaskState, Value, Workflow};
use ginflow_mq::LogBroker;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The system allocator, keeping a running total of live bytes and a
/// count of allocations (a `realloc` is one: the default forwards it to
/// `alloc`).
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics, which
// allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
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

const TASKS: usize = 4000;

/// A chain's status stream as its agents publish it: each task
/// `Running`, then `Completed` with its result.
fn chain_updates(workflow: &Workflow) -> Vec<StatusUpdate> {
    let dag = workflow.dag();
    let update = |task: &str, state| StatusUpdate {
        task: task.to_owned(),
        state,
        result: (state == TaskState::Completed).then(|| Value::str(format!("r-{task}"))),
        incarnation: 0,
    };
    dag.ids()
        .map(|id| dag.name_of(id))
        .flat_map(|task| {
            [
                update(task, TaskState::Running),
                update(task, TaskState::Completed),
            ]
        })
        .collect()
}

/// When an update was observed; the fold does not care.
const AT: Duration = Duration::from_millis(1);

#[test]
fn a_trackers_record_costs_at_most_256_bytes_per_task() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workflow = patterns::sequence(TASKS, "s").unwrap();
    let updates = chain_updates(&workflow);
    let before = LIVE.load(Ordering::SeqCst);
    let tracker = RunTracker::new(&workflow, RunId::generate());
    for update in &updates {
        tracker.observe(update, AT);
    }
    let live = LIVE.load(Ordering::SeqCst) - before;
    assert!(tracker.outcome().is_some(), "the chain's sink completed");
    let per_task = live as f64 / TASKS as f64;
    println!(
        "{per_task:.1} B of live heap per task in the tracker ({TASKS} tasks, 2 updates each)"
    );
    assert!(per_task <= 256.0, "{per_task:.1} B per task");
}

#[test]
fn folding_a_tasks_run_and_completion_makes_at_most_2_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workflow = patterns::sequence(TASKS, "s").unwrap();
    let updates = chain_updates(&workflow);
    let tracker = RunTracker::new(&workflow, RunId::generate());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for update in &updates {
        tracker.observe(update, AT);
    }
    let per_task = (ALLOCATIONS.load(Ordering::SeqCst) - before) as f64 / TASKS as f64;
    println!("{per_task:.2} allocations per task's Running + Completed fold, no subscriber");
    assert!(per_task <= 2.0, "{per_task:.2} allocations per task");
}

#[test]
fn a_finished_chain_holds_at_most_700_bytes_per_task() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workflow = patterns::sequence(TASKS, "s").unwrap();
    let before = LIVE.load(Ordering::SeqCst);
    let mut registry = ServiceRegistry::new();
    registry.register("s", Arc::new(ConstService(Value::str("out"))));
    let scheduler =
        Scheduler::new(Arc::new(LogBroker::new()), Arc::new(registry)).with_options(RunOptions {
            workers: 1,
            ..RunOptions::default()
        });
    let run = scheduler.launch(&workflow);
    // Far longer than the run may take: the bound is on memory, not time.
    let results = run
        .wait(Duration::from_secs(600))
        .expect("the chain completes");
    // Everything the run holds at its end — the broker's log, the agent
    // table and its tombstones, the tracker — is still alive here.
    let live = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(results[&format!("s{TASKS}")], Value::str("out"));
    let per_task = live as f64 / TASKS as f64;
    println!(
        "{per_task:.1} B of live heap per task at the end of a {TASKS}-task chain, one worker"
    );
    assert!(per_task <= 700.0, "{per_task:.1} B per task");
    assert!(run.join().completed);
}
