//! The event-driven, sharded worker-pool scheduler: the execution
//! vehicle of the sans-IO [`SaCore`] state machines.
//!
//! Agents communicate point-to-point through the run's **one inbox
//! topic**, keyed by destination task, and publish state transitions to
//! the shared status topic (the runtime view of the shared multiset). A
//! thread per agent polling its inbox is fine for the paper's 118-task
//! Montage run and hopeless for thousands of agents, so:
//!
//! * a fixed pool of N worker threads (N ≪ agents, default = CPU count)
//!   drives every agent in the workflow;
//! * each agent is an `AgentSlot` parked until a message lands in its
//!   queue, so an idle workflow consumes zero CPU. Each inbox message is
//!   routed by key into its agent's queue and schedules the agent. An
//!   unsharded run is the only writer of its two topics, so it
//!   subscribes to neither: its `exec::Shipper` numbers each record,
//!   hands it to the broker and routes it in one pass. One shard of a
//!   run shares the topics with its peers, so it holds two
//!   subscriptions whatever its width — status and inbox — and the
//!   inbox's waker (see [`ginflow_mq::Subscription::set_waker`])
//!   demultiplexes what every shard wrote. A key this process does not
//!   host — another shard's task — or whose agent is dead is dropped;
//!   it is still in the log;
//! * an agent is **resident only while it is at work**, and its program
//!   exists only while the agent does. Work gives a task a *slot* — its
//!   task id, queue, schedule bit and incarnation, no program: launch
//!   makes the sources' slots and nothing else, and the delivery of its
//!   first message makes every other agent's. The agent itself is
//!   built — its program compiled from the run's DAG — by the slot's
//!   first turn on a worker, so a wide fan-out queues thousands of slots
//!   and holds a program only for the agents that have run. A completed
//!   agent whose queue is empty is *evicted* after its turn, down to a
//!   tombstone:
//!   its incarnation, how many inbox messages it handled and its service
//!   outcomes. A late message — a duplicate result, an `ADAPT` asking a
//!   finished source to resend — *rehydrates* it under the same
//!   incarnation, by §IV-B's replay: the new slot takes the late message
//!   from the run's inbox like any other, and its first turn *refills*
//!   it — reads every message keyed to it back from the log, ahead of
//!   what it has queued. Its start and the messages its tombstone
//!   counted are re-run muted — its service answered from the kept
//!   outcomes, nothing sent or published again — and the rest live;
//!   once done, it is evicted again. On one worker a chain of thousands
//!   therefore holds one built agent at a time — the successor its
//!   result queues is built on a turn of its own — which
//!   [`RunReport::resident_peak`] reports as a high-water mark;
//! * the run's agents are one table indexed by the DAG's dense
//!   [`TaskId`]: a task name is resolved to its id once, where it comes
//!   in — an inbox message's key, a `kill`, `respawn`, `alive` or
//!   `incarnation` call — and a slot borrows its name from the DAG when
//!   it needs one (its agent's context, its refill's key);
//! * slots are *sharded*: an agent's name hashes to one worker, and only
//!   that worker ever runs it. One agent's events therefore execute
//!   strictly in order with no core-level contention, while distinct
//!   agents run in parallel across shards;
//! * a *crash* is a kill flag the agent observes between events —
//!   losing all local state, exactly like the paper's killed JVM. A slot
//!   killed before its first turn dies unbuilt.
//!   §IV-B recovery re-enqueues a fresh agent incarnation through the
//!   same ready-queues, on the run's inbox like any other agent, and
//!   refills it the way a rehydration is refilled ("replay them in the
//!   same order on a newly created SA") with nothing muted: its service
//!   runs again and what it sends goes out. Once completed, it is
//!   evicted like any other. With [`RunOptions::auto_recover`] the
//!   worker that observes the death starts it on the spot; a death by a
//!   refill that could not read the log is final.
//!
//! A refill reads the agent's partition of the inbox — a shard's
//! [`ginflow_mq::partition_of`] its name, an unsharded run's one — from
//! the first offset up to the first message its queue holds — a key is
//! delivered in log order, so everything after that one is queued live
//! — or to the end when its queue is empty (an unsharded run first
//! waits until the broker has receipted every record it shipped: the
//! broker's log is the one it reads); a rehydration stops sooner, past
//! the last message its tombstone handled (at once, for an agent that
//! handled none). Every queued message carries its offset, so the
//! refill drops what the demultiplexer queued meanwhile up to where it
//! stopped reading — the log holds those already — and leaves a floor
//! there that drops every later delivery of them.
//!
//! The wakeup protocol is the classic "schedule bit" of task executors:
//! a delivery sets `AgentSlot::scheduled` and enqueues the slot only on
//! a false→true transition; the worker clears the bit after draining and
//! re-checks the queue, so a message racing the drain can never be lost.
//!
//! ## Thread model
//!
//! A run owns N worker threads (`sa-worker-<i>`) and nothing else: no
//! thread exists only to wait. A dead agent is replaced by the worker
//! that saw it die. A waiter ([`RunHandle::wait`], [`RunHandle::join`])
//! parks on the [`RunTracker`]'s one condvar, notified when the run ends
//! and at no other time. And no thread collects status or inbox
//! messages: status is folded into the [`RunTracker`], the run's only
//! record that every observation on the [`RunHandle`] reads
//! (`exec::StatusFold`), and inbox messages are routed into slot queues,
//! by whichever thread delivers them. For an unsharded run that is the
//! publishing worker, on any broker: it delivers its own records as it
//! ships them, and a remote broker's client reactor only carries them
//! to the daemon and the receipts back. For one shard of a run both
//! subscriptions are drained from their wakers by the thread that
//! delivers to them — the client reactor over TCP. The subscription owns the
//! schedule bit: its waker fires only for the delivery that finds it
//! idle, and [`Subscription::drain`] runs until
//! [`Subscription::settle`] leaves it idle again — one thread drains a
//! subscription at a time, so messages are handled in the queue's
//! order, and a delivery that finds a drain pending is that drain's to
//! take, so none is lost. Each drain does O(1) work per message — the
//! inbox's finds or makes a slot and queues, and compiles nothing — and
//! never blocks or publishes, so borrowing the delivering thread costs
//! that thread nothing it would notice. Teardown publishes nothing and
//! has no thread to wake through the broker: a shard's clears the
//! wakers, an unsharded run's waits for the receipt of every record it
//! shipped ([`Broker::wait_appended`], which leaves the loss ledger of
//! a client the run shares to its user), so `join` returns with the
//! broker's log of the run complete.
//!
//! ## Teardown gives the log back
//!
//! Once its workers are joined, an unsharded run waits for the receipt
//! of every record it shipped, then deletes its two topics
//! ([`Broker::delete_topic`]): a standing in-process engine keeps no
//! message of a finished run. A caller that reads a run's log does so
//! before `join`. Two kinds of run keep their log: a sharded run, whose
//! topics are every shard's and which clears its wakers instead, and any
//! run on a remote broker, which deletes nothing from a client — its
//! daemon, whose log of the run is complete once `join` returns, reclaims
//! the run once it is closed and collected.
//!
//! ## The lock rule
//!
//! Routing an inbox message takes the `agents` lock to find — or make —
//! a key's slot and queues the message under it. A shard routes on the
//! demultiplexer, which over TCP runs on the client reactor, also the
//! thread that answers every broker request of the process — so nothing
//! may hold `agents` across a broker request, and nothing does: a
//! refill is made on the agent's first turn, on a worker, and a respawn
//! — which checks and replaces under the lock, so two concurrent
//! respawns never leave a ghost agent — makes no request at all. An
//! unsharded run routes on the publishing worker, inside the shipper's
//! lock; the shipper's hand-off may wait for room in a remote broker's
//! window, which only the reactor frees, and the reactor takes none of
//! these locks.
//!
//! A worker building an agent on its first turn, and eviction, take the
//! locks in the order a delivery made from inside the agent's own
//! dispatch does — the agent's state, then the shipper (an unsharded
//! run's), then `agents`, then its queue.
//! The build counts the agent resident only if no kill or respawn has
//! flagged it under `agents` meanwhile, and eviction evicts only an
//! empty queue, so a message is either queued before the check or finds
//! the tombstone.

use crate::core::{Event, SaCore};
use crate::engine::{ExecutionBackend, RunControl, RunHandle, RunReport, RunTracker};
use crate::exec::{retry_disconnected, AgentCtx, Memo, Record, Shipper, StatusFold};
use crate::message::SaMessage;
use crate::runtime::RunOptions;
use bytes::Bytes;
use ginflow_core::{ServiceRegistry, TaskId, TaskState, Value, Workflow};
use ginflow_hoclflow::compile::adapt_plans;
use ginflow_hoclflow::{AdaptPlan, Compiler};
use ginflow_mq::metrics::{Counter, Histogram};
use ginflow_mq::{Broker, MqError, RunId, SubscribeMode, Subscription, TopicNamespace};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock, Weak};
use std::thread::JoinHandle;

/// Max events one slot processes per scheduling turn before yielding the
/// worker — keeps one chatty agent from starving its shard.
const BATCH: usize = 64;

/// Messages one fetch of a refill asks for.
const FETCH_PAGE: usize = 1024;

/// Scheduler-side handles into the process-global metrics registry
/// (`gf_sched_*`), resolved once — every pool in the process shares
/// them, so they aggregate across concurrent runs. What one run counts
/// is its pool's, and rides in its report.
struct SchedMetrics {
    /// Wakeups enqueued: schedule-bit false→true transitions, from
    /// inbox deliveries and control-plane scheduling alike.
    wakeups: Arc<Counter>,
    /// Events an agent drained in one scheduling turn (capped at
    /// [`BATCH`]) — wakeups saved against one per message.
    wakeup_batch: Arc<Histogram>,
}

fn sched_metrics() -> &'static SchedMetrics {
    static M: OnceLock<SchedMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let m = ginflow_mq::metrics::global();
        SchedMetrics {
            wakeups: m.counter(
                "gf_sched_wakeups_total",
                "Agent wakeups enqueued (schedule-bit transitions)",
            ),
            wakeup_batch: m.histogram(
                "gf_sched_wakeup_batch",
                "Events drained per agent scheduling turn",
            ),
        }
    })
}

/// The launcher: runs every agent of a workflow on the worker pool,
/// compiling each one's program when a worker builds the agent, on its
/// first turn. Deployment strategies (`ginflow-executor`) decide
/// *where* agents go; this scheduler is the *how*.
pub struct Scheduler {
    broker: Arc<dyn Broker>,
    registry: Arc<ServiceRegistry>,
    options: RunOptions,
}

impl Scheduler {
    /// Scheduler over a broker and service registry.
    pub fn new(broker: Arc<dyn Broker>, registry: Arc<ServiceRegistry>) -> Self {
        Scheduler {
            broker,
            registry,
            options: RunOptions::default(),
        }
    }

    /// Override the default options.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Launch `workflow`: one agent per task, each built — and its
    /// program compiled — by its first turn, once it has work (the
    /// sources at once). The run keeps a clone of the workflow, which
    /// shares its DAG.
    ///
    /// Every topic of the launch lives in the run's namespace
    /// (`run/<id>/…`): the id is [`RunOptions::run_id`] when pinned
    /// (mandatory for multi-process sharding — every shard must join
    /// the same namespace), freshly generated otherwise, so two
    /// launches against one shared broker never see each other's
    /// messages.
    ///
    /// # Panics
    ///
    /// When an agent's name cannot form a topic segment (empty,
    /// contains `/` or control characters — see
    /// [`ginflow_mq::namespace::validate_segment`]); validate upstream
    /// to fail gracefully, as the CLI does.
    pub fn launch(&self, workflow: &Workflow) -> RunHandle {
        let run_id = self.options.run_id.clone().unwrap_or_else(RunId::generate);
        let tracker = Arc::new(RunTracker::new(workflow, run_id.clone()));
        let run = launch_pool(
            self.broker.clone(),
            self.registry.clone(),
            workflow.clone(),
            tracker.clone(),
            Arc::new(TopicNamespace::new(run_id)),
            &self.options,
        );
        RunHandle::new(tracker, Arc::new(run))
    }
}

impl ExecutionBackend for Scheduler {
    fn name(&self) -> &'static str {
        backend_label(&self.options)
    }

    fn launch_run(&self, workflow: &Workflow) -> RunHandle {
        self.launch(workflow)
    }
}

/// Backend label: "sharded" for one shard of a multi-process run,
/// "scheduler" otherwise.
fn backend_label(options: &RunOptions) -> &'static str {
    if options.shard.is_some() {
        "sharded"
    } else {
        "scheduler"
    }
}

/// The worker pool of one launched workflow — what the run's
/// [`RunHandle`] reaches for fault injection, recovery and teardown.
struct WorkflowRun {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkflowRun {
    /// `task`'s id, when the workflow has a task of that name.
    fn id(&self, task: &str) -> Option<TaskId> {
        self.inner.workflow.dag().by_name(task)
    }
}

impl RunControl for WorkflowRun {
    fn backend(&self) -> &'static str {
        self.inner.label
    }

    /// Crash a task's agent (it stops consuming; all local state is
    /// lost). Returns whether the agent existed and was alive.
    fn kill(&self, task: &str) -> bool {
        self.id(task).is_some_and(|id| self.inner.kill(id))
    }

    /// Manually start a replacement agent for `task` (§IV-B recovery).
    /// The newcomer first replays, live, every message keyed to it in
    /// the run's inbox log.
    fn respawn(&self, task: &str) -> bool {
        self.id(task)
            .is_some_and(|id| self.inner.respawn_impl(id, false))
    }

    fn alive(&self, task: &str) -> bool {
        self.id(task).is_some_and(|id| self.inner.alive(id))
    }

    fn incarnation(&self, task: &str) -> u32 {
        self.id(task).map_or(0, |id| self.inner.incarnation(id))
    }

    fn stamp(&self, report: &mut RunReport) {
        if report.wall.is_zero() {
            report.wall = self.inner.status.elapsed();
        }
        report.resident_peak = self.inner.agents.lock().peak;
        report.rehydrations = self.inner.rehydrations.load(Ordering::Relaxed);
        if let Feed::Own(shipper) = &self.inner.feed {
            report.ship_failures = shipper.failures();
        }
    }

    /// Tear down: every queued agent turn observes the shutdown flag and
    /// dies, the workers drain their shards and exit, and all threads
    /// are joined before this returns. Nothing is published: every
    /// thread the run owns parks on a channel of this process, so
    /// stopping them needs nothing from the broker — not even a
    /// connection. Then an unsharded run waits for the receipts of what
    /// it shipped and deletes its two topics (see the module docs).
    /// Idempotent: the call that takes the workers tears down,
    /// holding their lock until it is done, so a call made meanwhile
    /// returns only once the teardown has finished, and a later one finds
    /// nothing left. Callable from any thread holding the run.
    fn stop(&self) {
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            for shard in &self.inner.shards {
                let _ = shard.send(WorkItem::Shutdown);
            }
        }
        let mut workers = self.workers.lock();
        if workers.is_empty() {
            return;
        }
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
        match &self.inner.feed {
            Feed::Subscribed { inbox, status } => {
                status.clear_waker();
                inbox.clear_waker();
            }
            Feed::Own(_) => {
                // Every record shipped is receipted before the run ends:
                // a daemon's log of the run is then complete. The loss
                // ledger is the client's user's to read, not the run's.
                let _ = self.inner.broker.wait_appended();
                self.inner.broker.delete_topic(self.inner.ns.inbox());
                self.inner.broker.delete_topic(self.inner.ns.status());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

/// One unit on a shard's ready-queue.
enum WorkItem {
    /// Run this agent (its schedule bit is set).
    Run(Arc<AgentSlot>),
    /// Worker exit (sent once per shard at shutdown).
    Shutdown,
}

/// One agent resident in the scheduler: its state, its queue of inbox
/// messages and the wakeup state.
struct AgentSlot {
    /// Its task; the name is the DAG's.
    task: TaskId,
    incarnation: u32,
    shard: usize,
    /// Uncontended in steady state — sharding guarantees a single worker
    /// ever locks it — and a mutex to make the slot `Sync` for
    /// control-plane access (kill/respawn).
    state: Mutex<AgentState>,
    queue: Mutex<Queue>,
    /// Crash flag (the paper's killed JVM): observed between events.
    kill: AtomicBool,
    /// Set once the agent will never run again: dead, or evicted.
    dead: AtomicBool,
    /// Set, under `agents`, once its first turn has built its core: a
    /// built slot counts as resident.
    built: AtomicBool,
    /// The schedule bit: true while queued or running.
    scheduled: AtomicBool,
}

impl AgentSlot {
    /// Is this incarnation still taking messages?
    fn live(&self) -> bool {
        !self.kill.load(Ordering::SeqCst) && !self.dead.load(Ordering::SeqCst)
    }
}

/// The inbox messages keyed to an agent, not yet handed to its core.
#[derive(Default)]
struct Queue {
    /// Offsets and payloads, in log order.
    messages: VecDeque<(u64, Bytes)>,
    /// Where the agent's refill stopped reading the log: a delivery
    /// below this offset is one the refill queued already.
    live_from: u64,
}

/// What only the slot's worker touches.
struct AgentState {
    /// Built — its program compiled — by the first turn.
    core: Option<Box<SaCore>>,
    /// Inbox messages handed to the core so far, in log order.
    handled: u64,
    /// One past the log offset of the last of them.
    next: u64,
    /// Answers a rehydration's invokes; a memo that starts out
    /// replaying mutes the start.
    memo: Memo,
    /// Refill the queue from the log on the first turn.
    replay: Option<Replay>,
}

/// What a refill reads back and how much of it is re-run muted.
#[derive(Clone, Copy)]
struct Replay {
    /// Messages re-run muted: a rehydration's past, none of a
    /// respawn's.
    muted: u64,
    /// The log is read up to this offset at most: where a rehydration's
    /// past ends, and nowhere for a respawn, whose past is unknown.
    until: u64,
}

/// What an evicted agent leaves behind: enough to rebuild it by replay
/// without invoking its service again.
#[derive(Default)]
struct Tombstone {
    incarnation: u32,
    /// Inbox messages it handled: the muted share of its refill.
    handled: u64,
    /// One past the log offset of the last of them: where its refill
    /// stops reading.
    next: u64,
    outcomes: Vec<Result<Value, String>>,
}

/// A task's agent, as the run holds it. A task that never had work has
/// no entry.
enum Entry {
    /// A slot: waiting for its first turn, built and taking messages,
    /// or dead until a respawn replaces it.
    Slot(Arc<AgentSlot>),
    Evicted(Tombstone),
}

/// The run's agents by task id, and how many are resident: built, so
/// holding a compiled program.
struct Agents {
    /// One entry per task of the workflow, at its [`TaskId`].
    map: Vec<Option<Entry>>,
    resident: u64,
    /// The most agents resident at once — the most compiled programs
    /// the run held: [`RunReport::resident_peak`].
    peak: u64,
}

impl Agents {
    /// Store `task`'s entry; a built agent it replaces is resident no
    /// more. A new slot is not built yet.
    fn put(&mut self, task: TaskId, entry: Entry) {
        let old = self.map[task.index()].replace(entry);
        if matches!(old, Some(Entry::Slot(old)) if old.built.load(Ordering::SeqCst)) {
            self.resident -= 1;
        }
    }
}

/// Where a run's records come from.
enum Feed {
    /// An unsharded run writes its two topics alone: it delivers its
    /// records itself as it ships them, and subscribes to nothing.
    Own(Shipper),
    /// One shard of a run shares its topics with its peers: it reads
    /// both back through subscriptions, drained from their wakers — the
    /// inbox demultiplexed by key ([`PoolInner::demux`]), the status
    /// folded into the tracker ([`PoolInner::fold_status`]).
    Subscribed {
        inbox: Subscription,
        status: Subscription,
    },
}

/// The run's shared state: what its workers, its handle and its feed
/// reach.
pub(crate) struct PoolInner {
    broker: Arc<dyn Broker>,
    /// The run's topic namespace: every subscribe/publish goes through
    /// it, so the whole run lives under `run/<id>/…`.
    ns: Arc<TopicNamespace>,
    registry: Arc<ServiceRegistry>,
    /// The workflow the run executes; its DAG is the caller's.
    workflow: Workflow,
    /// Compiles an agent's program each time a first turn builds the
    /// agent — first, respawned or rehydrated — and the agent owns it.
    compiler: Compiler,
    /// This process's shard of a multi-process run: it hosts only the
    /// tasks whose [`process_shard`] matches.
    shard: Option<(u32, u32)>,
    plans: Arc<Vec<AdaptPlan>>,
    agents: Mutex<Agents>,
    /// Evicted agents rebuilt for a late message:
    /// [`RunReport::rehydrations`].
    rehydrations: AtomicU64,
    shards: Vec<mpsc::Sender<WorkItem>>,
    /// Where status updates reach the run's [`RunTracker`]: from the
    /// shipper, or — for a shard — from the shared status topic, the
    /// cross-shard membrane every task's update crosses.
    status: StatusFold,
    feed: Feed,
    shutdown: AtomicBool,
    auto_recover: bool,
    label: &'static str,
}

/// FNV-1a over the agent name: the shard assignment.
fn shard_of(name: &str, shards: usize) -> usize {
    ginflow_mq::fnv1a(name.as_bytes()) as usize % shards
}

/// The **process**-level shard an agent lands in when a workflow runs
/// as `count` OS processes ([`RunOptions::shard`]): the same FNV-1a
/// name-hash the worker pool uses inside one process, so placement is
/// deterministic across hosts with no coordination.
pub fn process_shard(name: &str, count: u32) -> u32 {
    shard_of(name, count.max(1) as usize) as u32
}

fn launch_pool(
    broker: Arc<dyn Broker>,
    registry: Arc<ServiceRegistry>,
    workflow: Workflow,
    tracker: Arc<RunTracker>,
    ns: Arc<TopicNamespace>,
    options: &RunOptions,
) -> WorkflowRun {
    let workers = options.resolve_workers();
    let label = backend_label(options);

    // The namespace's keys are task names: validate them here, so a
    // name that would collide or split namespaces fails the launch
    // loudly.
    for (_, task) in workflow.dag().iter() {
        ginflow_mq::namespace::validate_segment("task name", &task.name)
            .unwrap_or_else(|e| panic!("cannot launch agent: {e}"));
    }

    let status = StatusFold::new(tracker);
    let feed = match options.shard {
        // The run's only writer learns where its topics end, and
        // subscribes to nothing.
        None => Feed::Own(Shipper::learn(&*broker, &ns)),
        // This process hosts only its slice of the agents, and reads
        // what its peers write with full replay: a process that starts
        // (or restarts) after its peers have already made progress
        // catches up from the log instead of missing it. §IV-B's
        // recovery, applied to a whole process. Replay also means no
        // update is missed before the wakers are armed below. A
        // subscribe cut off by a connection loss left nothing behind —
        // the server-side subscription died with the connection — so it
        // is simply retried.
        Some(_) => {
            let mode = SubscribeMode::Beginning;
            let status = retry_disconnected(|| broker.subscribe(ns.status(), mode))
                .expect("status subscription");
            let inbox = retry_disconnected(|| broker.subscribe(ns.inbox(), mode))
                .expect("inbox subscription");
            Feed::Subscribed { inbox, status }
        }
    };

    let mut shard_txs = Vec::with_capacity(workers);
    let mut shard_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel();
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }

    let inner = Arc::new(PoolInner {
        rehydrations: AtomicU64::new(0),
        agents: Mutex::new(Agents {
            map: workflow.dag().ids().map(|_| None).collect(),
            resident: 0,
            peak: 0,
        }),
        broker,
        ns,
        registry,
        compiler: Compiler::new(&workflow),
        plans: Arc::new(adapt_plans(&workflow)),
        workflow,
        shard: options.shard,
        shards: shard_txs,
        status,
        feed,
        shutdown: AtomicBool::new(false),
        auto_recover: options.auto_recover,
        label,
    });

    let workers_threads: Vec<JoinHandle<()>> = shard_rxs
        .into_iter()
        .enumerate()
        .map(|(i, rx)| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("sa-worker-{i}"))
                .spawn(move || worker_loop(inner, rx))
                .expect("spawn worker thread")
        })
        .collect();

    // Arm a shard's subscriptions — the status first, so the tracker
    // holds whatever the replay brings before any agent runs; the
    // inbox's waker makes the slot of every agent but the sources, on
    // the agent's first message. A waker owns only a `Weak`: the
    // subscription, which the run owns, owns the closure. Then queue the
    // sources: nothing but its start sets one working.
    if let Feed::Subscribed { inbox, status } = &inner.feed {
        let arm = |sub: &Subscription, drain: fn(&PoolInner)| {
            let weak: Weak<PoolInner> = Arc::downgrade(&inner);
            sub.set_waker(move || {
                if let Some(inner) = weak.upgrade() {
                    drain(&inner);
                }
            });
        };
        arm(status, PoolInner::fold_status);
        arm(inbox, PoolInner::demux);
    }
    {
        let mut agents = inner.agents.lock();
        let dag = inner.workflow.dag();
        for source in dag.sources() {
            if inner.hosts(source) {
                let slot = inner.admit(&mut agents, source, 0, None);
                inner.schedule(&slot);
            }
        }
    }

    WorkflowRun {
        inner,
        workers: Mutex::new(workers_threads),
    }
}

impl PoolInner {
    /// Does this process host `task`'s agent? In sharded mode it hosts
    /// only its shard's.
    fn hosts(&self, task: TaskId) -> bool {
        let name = self.workflow.dag().name_of(task);
        self.shard
            .is_none_or(|(index, count)| process_shard(name, count) == index)
    }

    /// Hand an agent's `batch` to the broker. An unsharded run ships it
    /// through its [`Shipper`], which numbers each record and delivers
    /// it here and now: inbox records through [`PoolInner::route`],
    /// status updates into the tracker. A shard publishes it
    /// fire-and-forget, pipelined, and reads it back like its peers'.
    /// Either way nothing waits for a receipt — on a remote broker a
    /// blocking round trip would be the whole coordination hot path —
    /// and a publish the broker refuses is lost like any message to a
    /// severed connection.
    pub(crate) fn publish(&self, batch: Vec<Record>) {
        match &self.feed {
            Feed::Own(shipper) => {
                shipper.ship(&*self.broker, batch, |record, offset| match record {
                    Record::Send { key, payload } => self.route(&key, offset, payload),
                    Record::Status { update, .. } => self.status.fold(&update),
                })
            }
            Feed::Subscribed { .. } => {
                let batch = batch.into_iter().map(|r| r.addressed(&self.ns)).collect();
                let _ = self.broker.publish_many_nowait(batch);
            }
        }
    }

    /// A shard's status waker: fold each update its peers and it wrote.
    fn fold_status(&self) {
        if let Feed::Subscribed { status, .. } = &self.feed {
            self.status.drain(status);
        }
    }

    /// A shard's inbox waker: route each message its peers and it wrote.
    fn demux(&self) {
        if let Feed::Subscribed { inbox, .. } = &self.feed {
            inbox.drain(|msg| {
                if let Some(key) = &msg.key {
                    self.route(key, msg.offset, msg.payload);
                }
            });
        }
    }

    /// Route the inbox message keyed `key`, at `offset`, to its agent,
    /// whose slot it makes if there is none — no compile, O(1) per
    /// message. A key this process does not host is dropped.
    fn route(&self, key: &[u8], offset: u64, payload: Bytes) {
        let key = std::str::from_utf8(key).ok();
        let Some(task) = key.and_then(|name| self.workflow.dag().by_name(name)) else {
            return;
        };
        {
            let mut agents = self.agents.lock();
            let slot = match &mut agents.map[task.index()] {
                Some(Entry::Slot(slot)) => slot.clone(),
                // A late message: the agent is rebuilt under its own
                // incarnation on its first turn, and refilled with what
                // its tombstone handled, muted.
                Some(Entry::Evicted(past)) => {
                    let past = std::mem::take(past);
                    let replay = Replay {
                        muted: past.handled,
                        until: past.next,
                    };
                    let memo = Memo::of(past.outcomes);
                    self.admit(&mut agents, task, past.incarnation, Some((memo, replay)))
                }
                None if self.hosts(task) => self.admit(&mut agents, task, 0, None),
                None => return,
            };
            self.deliver(&slot, offset, payload);
        }
    }

    /// Make `task`'s slot on the run's inbox and store it: its first
    /// turn builds the agent ([`PoolInner::build`]). A `past` makes that
    /// turn refill it from the log. `task` is one this process hosts.
    /// The caller schedules the slot — the demultiplexer by delivering
    /// its first message, so that turn finds the message queued.
    fn admit(
        &self,
        agents: &mut Agents,
        task: TaskId,
        incarnation: u32,
        past: Option<(Memo, Replay)>,
    ) -> Arc<AgentSlot> {
        let (memo, replay) = match past {
            Some((memo, replay)) => (memo, Some(replay)),
            None => (Memo::default(), None),
        };
        let slot = Arc::new(AgentSlot {
            shard: shard_of(self.workflow.dag().name_of(task), self.shards.len()),
            task,
            incarnation,
            state: Mutex::new(AgentState {
                core: None,
                handled: 0,
                next: 0,
                memo,
                replay,
            }),
            queue: Mutex::new(Queue::default()),
            kill: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            built: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
        });
        agents.put(task, Entry::Slot(slot.clone()));
        slot
    }

    /// Compile `slot`'s program and build its core: the first turn's
    /// work, after its crash check. From here on it counts as resident
    /// — unless a kill or a respawn reached it meanwhile: both flag it
    /// under `agents`, which this check takes, and the core is dropped.
    /// The caller holds the slot's state; see the module docs for the
    /// lock order.
    fn build(&self, slot: &AgentSlot) -> Option<Box<SaCore>> {
        let program = self.compiler.program(&self.workflow, slot.task);
        let core = Box::new(SaCore::new(program, self.plans.clone()));
        let mut agents = self.agents.lock();
        if !slot.live() {
            return None;
        }
        slot.built.store(true, Ordering::SeqCst);
        agents.resident += 1;
        agents.peak = agents.peak.max(agents.resident);
        Some(core)
    }

    /// Put every message keyed to `slot` back at the head of its queue,
    /// read from its partition of the run's inbox up to the first of
    /// `until`, the first message queued — every later one reaches the
    /// queue live — and the log's end; what the queue held up to there
    /// is a copy, and goes. A worker does this, not the
    /// demultiplexer: over TCP a fetch is a request to the reactor the
    /// demultiplexer runs on.
    fn refill(&self, slot: &AgentSlot, until: u64) -> Result<(), MqError> {
        let inbox = self.ns.inbox();
        let key = self.workflow.dag().name_of(slot.task).as_bytes();
        let partition = match &self.feed {
            // What the run shipped is read back, from the one partition
            // it writes, once the broker has receipted it. A wait that
            // runs out leaves it to the fetch to tell.
            Feed::Own(_) => {
                let _ = self.broker.wait_appended();
                0
            }
            Feed::Subscribed { .. } => ginflow_mq::partition_of(key, self.broker.partitions(inbox)),
        };
        let until = slot
            .queue
            .lock()
            .messages
            .front()
            .map_or(until, |(offset, _)| until.min(*offset));
        let mut past = VecDeque::new();
        let mut from = 0;
        while from < until {
            // Offsets are dense: no page need read past `until`.
            let max = (until - from).min(FETCH_PAGE as u64) as usize;
            let page = retry_disconnected(|| self.broker.fetch(inbox, partition, from, max))?;
            let Some(last) = page.last() else {
                break;
            };
            from = last.offset + 1;
            past.extend(
                page.into_iter()
                    .filter(|m| m.offset < until && m.key.as_deref() == Some(key))
                    .map(|m| (m.offset, m.payload)),
            );
        }
        let from = from.min(until);
        let mut queue = slot.queue.lock();
        past.extend(
            queue
                .messages
                .drain(..)
                .filter(|(offset, _)| *offset >= from),
        );
        queue.messages = past;
        queue.live_from = from;
        Ok(())
    }

    /// Evict `slot`, completed, to a tombstone — unless a message is
    /// already queued for it or it is dying. The caller holds the slot's
    /// state; see the module docs for the lock order.
    fn evict(&self, slot: &AgentSlot, state: &mut AgentState) -> bool {
        let mut agents = self.agents.lock();
        let queue = slot.queue.lock();
        if !queue.messages.is_empty() || !slot.live() || self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        slot.dead.store(true, Ordering::SeqCst);
        drop(queue);
        let past = Tombstone {
            incarnation: slot.incarnation,
            handled: state.handled,
            next: state.next,
            outcomes: std::mem::take(&mut state.memo.outcomes),
        };
        agents.put(slot.task, Entry::Evicted(past));
        true
    }

    /// Queue the message at `offset` for `slot` and schedule it — unless
    /// the agent is dead or dying (a crash loses what it had not yet
    /// processed) or its refill queued the message already.
    fn deliver(&self, slot: &Arc<AgentSlot>, offset: u64, payload: Bytes) {
        if slot.live() {
            let mut queue = slot.queue.lock();
            if offset < queue.live_from {
                return;
            }
            queue.messages.push_back((offset, payload));
            drop(queue);
            self.schedule(slot);
        }
    }

    /// Enqueue the slot if it is not already queued/running.
    fn schedule(&self, slot: &Arc<AgentSlot>) {
        if !slot.dead.load(Ordering::SeqCst) && !slot.scheduled.swap(true, Ordering::SeqCst) {
            sched_metrics().wakeups.inc();
            let _ = self.shards[slot.shard].send(WorkItem::Run(slot.clone()));
        }
    }

    /// Crash `task`'s agent — given a slot for the purpose, under its
    /// incarnation, if it has none, so a kill means the same whenever it
    /// lands. A slot killed before its first turn dies unbuilt.
    fn kill(&self, task: TaskId) -> bool {
        let mut agents = self.agents.lock();
        let slot = match &agents.map[task.index()] {
            Some(Entry::Slot(slot)) => slot.clone(),
            Some(Entry::Evicted(past)) => {
                let incarnation = past.incarnation;
                self.admit(&mut agents, task, incarnation, None)
            }
            None if self.hosts(task) => self.admit(&mut agents, task, 0, None),
            None => return false,
        };
        if slot.dead.load(Ordering::SeqCst) {
            return false;
        }
        slot.kill.store(true, Ordering::SeqCst);
        // Wake it so the crash is observed promptly even when the agent
        // is parked with an empty queue.
        self.schedule(&slot);
        true
    }

    /// An agent with a slot is alive until it dies; one with no work yet
    /// or evicted has not crashed, and lives as long as the run.
    fn alive(&self, task: TaskId) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match &self.agents.lock().map[task.index()] {
            Some(Entry::Slot(slot)) => !slot.dead.load(Ordering::SeqCst),
            Some(Entry::Evicted(_)) => true,
            None => self.hosts(task),
        }
    }

    fn incarnation(&self, task: TaskId) -> u32 {
        match &self.agents.lock().map[task.index()] {
            Some(Entry::Slot(slot)) => slot.incarnation,
            Some(Entry::Evicted(past)) => past.incarnation,
            None => 0,
        }
    }

    /// §IV-B recovery: a fresh incarnation re-enters through the same
    /// ready-queue, refilled on its first turn with nothing muted and an
    /// empty memo. With `only_if_dead` (auto recovery) it happens only
    /// while the current incarnation is dead — a racing manual respawn
    /// may already have replaced it. The check
    /// and the replacement share one critical section, so two concurrent
    /// respawns can never both insert and leave the loser as an
    /// unreachable ghost agent. An agent that never had work or was
    /// evicted is replaced all the same: the newcomer replays
    /// everything, its service included. Nothing is compiled until the
    /// newcomer's first turn.
    fn respawn_impl(&self, task: TaskId, only_if_dead: bool) -> bool {
        if !self.hosts(task) {
            return false;
        }
        let mut agents = self.agents.lock();
        let incarnation = match &agents.map[task.index()] {
            Some(Entry::Slot(old)) if !only_if_dead || old.dead.load(Ordering::SeqCst) => {
                // Make sure the previous incarnation is (being) stopped.
                // It shares the new slot's shard, so it dies before the
                // replacement runs.
                old.kill.store(true, Ordering::SeqCst);
                self.schedule(old);
                old.incarnation + 1
            }
            Some(Entry::Evicted(past)) if !only_if_dead => past.incarnation + 1,
            None if !only_if_dead => 1,
            _ => return false,
        };
        let replay = Replay {
            muted: 0,
            until: u64::MAX,
        };
        let past = Some((Memo::default(), replay));
        let slot = self.admit(&mut agents, task, incarnation, past);
        self.schedule(&slot);
        true
    }
}

fn worker_loop(inner: Arc<PoolInner>, rx: mpsc::Receiver<WorkItem>) {
    while let Ok(item) = rx.recv() {
        match item {
            WorkItem::Shutdown => return,
            WorkItem::Run(slot) => process(&inner, &slot),
        }
    }
}

/// How an agent's turn ended.
enum TurnEnd {
    Park,
    Die,
    /// Dead for good: its refill could not read the log, and a
    /// replacement would be refilled the same way.
    Lost,
    Evicted,
}

/// One scheduling turn of one agent.
fn process(inner: &Arc<PoolInner>, slot: &Arc<AgentSlot>) {
    if slot.dead.load(Ordering::SeqCst) {
        return;
    }
    // The state lock ends with the turn: dying respawns without it.
    let end = turn(inner, slot, &mut slot.state.lock());
    match end {
        TurnEnd::Park => {}
        TurnEnd::Die => return die(inner, slot, true),
        TurnEnd::Lost => return die(inner, slot, false),
        TurnEnd::Evicted => return,
    }
    // Park again. Clear the schedule bit *before* re-checking the
    // queue: a delivery that raced the drain either landed before the
    // clear (caught by the re-check) or after it (it sees the cleared
    // bit and enqueues) — either way no wakeup is lost.
    slot.scheduled.store(false, Ordering::SeqCst);
    if !slot.queue.lock().messages.is_empty() || slot.kill.load(Ordering::SeqCst) {
        inner.schedule(slot);
    }
}

/// The agent's share of a turn, under its state lock: on the first turn
/// its build, refill and start, then up to [`BATCH`] queued messages —
/// and its eviction once it has completed.
fn turn(inner: &Arc<PoolInner>, slot: &Arc<AgentSlot>, state: &mut AgentState) -> TurnEnd {
    let crashed = || slot.kill.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst);
    let ctx = AgentCtx {
        run: inner,
        registry: &inner.registry,
        name: inner.workflow.dag().name_of(slot.task),
        incarnation: slot.incarnation,
    };
    if state.core.is_none() {
        // A slot killed before its first turn dies here, never compiled.
        if crashed() {
            return TurnEnd::Die;
        }
        let Some(core) = inner.build(slot) else {
            return TurnEnd::Die;
        };
        let core = state.core.insert(core);
        if let Some(replay) = state.replay {
            // Only a rehydration starts muted.
            if state.memo.replaying {
                inner.rehydrations.fetch_add(1, Ordering::Relaxed);
            }
            if inner.refill(slot, replay.until).is_err() {
                return TurnEnd::Lost;
            }
        }
        if ctx.dispatch(core, Event::Start, &mut state.memo).is_err() {
            return TurnEnd::Die;
        }
    }
    let core = state.core.as_mut().expect("built by the first turn");
    let mut drained: u64 = 0;
    for _ in 0..BATCH {
        // A crash between reception and processing loses the event
        // locally — the log broker still has it for replay.
        if crashed() {
            return TurnEnd::Die;
        }
        let Some((offset, payload)) = slot.queue.lock().messages.pop_front() else {
            break;
        };
        drained += 1;
        state.handled += 1;
        state.next = offset + 1;
        state.memo.replaying = state.replay.is_some_and(|past| state.handled <= past.muted);
        let Some(message) = SaMessage::decode(&payload) else {
            continue;
        };
        if ctx
            .dispatch(core, Event::Deliver(message), &mut state.memo)
            .is_err()
        {
            return TurnEnd::Die;
        }
    }
    sched_metrics().wakeup_batch.observe(drained);
    if core.state() == TaskState::Completed && inner.evict(slot, state) {
        return TurnEnd::Evicted;
    }
    TurnEnd::Park
}

/// Retire a slot for good, its queue with it. With auto recovery on,
/// the worker that observed the death starts the §IV-B replacement
/// itself, unless the death is final (`recover` unset): it holds no
/// lock here, the replacement lands on this same shard, and scheduling
/// it is a non-blocking send onto this worker's own queue.
fn die(inner: &Arc<PoolInner>, slot: &Arc<AgentSlot>, recover: bool) {
    slot.dead.store(true, Ordering::SeqCst);
    slot.queue.lock().messages.clear();
    slot.scheduled.store(false, Ordering::SeqCst);
    if recover && inner.auto_recover && !inner.shutdown.load(Ordering::SeqCst) {
        inner.respawn_impl(slot.task, true);
    }
}
