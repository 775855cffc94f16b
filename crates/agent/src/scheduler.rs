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
//!   queue. A run holds two subscriptions whatever its width — status
//!   and inbox — and the inbox's waker (see
//!   [`ginflow_mq::Subscription::set_waker`]) demultiplexes each message
//!   by key into its agent's queue and schedules the agent, so an idle
//!   workflow consumes zero CPU. A key with no live local agent —
//!   another shard's task, a dead incarnation's — is dropped; on a
//!   persistent broker it is still in the log;
//! * slots are *sharded*: an agent's name hashes to one worker, and only
//!   that worker ever runs it. One agent's events therefore execute
//!   strictly in order with no core-level contention, while distinct
//!   agents run in parallel across shards;
//! * a *crash* is a kill flag the agent observes between events —
//!   losing all local state, exactly like the paper's killed JVM.
//!   §IV-B recovery re-enqueues a fresh agent incarnation through the
//!   same ready-queues. The newcomer opens a subscription of its own to
//!   the inbox and keeps only its key: on a persistent broker it
//!   replays the log with [`SubscribeMode::Beginning`] ("replay them in
//!   the same order on a newly created SA"), and the broker, not the
//!   scheduler, owns the seam between replay and live delivery. The
//!   run's shared demultiplexer skips a slot fed this way. With
//!   [`RunOptions::auto_recover`] the worker that observes the death
//!   starts it on the spot. On a transient broker the same recovery
//!   *starts* but has no history to replay, so the workflow hangs — the
//!   reason the paper pairs recovery with Kafka.
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
//! messages: both subscriptions are drained by **whichever thread
//! delivers to them** — the publishing worker on an in-process broker,
//! the client reactor over TCP — from their wakers: status is folded
//! into the [`RunTracker`], the run's only record that every
//! observation on the [`RunHandle`] reads (`exec::StatusFold`); inbox
//! messages are routed into slot queues. The subscription owns the
//! schedule bit: its waker fires only for the delivery that finds it
//! idle, and [`Subscription::drain`] runs until
//! [`Subscription::settle`] leaves it idle again — one thread drains a
//! subscription at a time, so messages are handled in the queue's
//! order, and a delivery that finds a drain pending is that drain's to
//! take, so none is lost. Each drain does O(1) work per message and
//! never blocks or publishes, so borrowing the delivering thread costs
//! that thread nothing it would notice. Teardown clears the wakers; it
//! publishes nothing and has no thread to wake through the broker.
//!
//! ## The lock rule
//!
//! The inbox demultiplexer takes the `slots` lock to find a key's agent.
//! Over TCP it runs on the client reactor, which is also the thread that
//! answers every broker request of the process — so nothing may hold
//! `slots` across a broker request. A respawn therefore subscribes
//! first, then takes the lock, re-checks that its incarnation is still
//! wanted and drops its subscription if a racing respawn won: two
//! concurrent respawns never leave a ghost agent, and a respawn with
//! inbox traffic in flight never stalls the reactor.

use crate::core::{Event, SaCore};
use crate::engine::{ExecutionBackend, RunControl, RunHandle, RunMeta, RunReport, RunTracker};
use crate::exec::{retry_disconnected, AgentCtx, StatusFold};
use crate::message::SaMessage;
use crate::runtime::RunOptions;
use bytes::Bytes;
use ginflow_core::{ServiceRegistry, Workflow};
use ginflow_hoclflow::{agent_programs, AdaptPlan, AgentProgram};
use ginflow_mq::metrics::{Counter, Gauge, Histogram};
use ginflow_mq::{Broker, LagProbe, RunId, SubscribeMode, Subscription, TopicNamespace};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;

/// Max events one slot processes per scheduling turn before yielding the
/// worker — keeps one chatty agent from starving its shard.
const BATCH: usize = 64;

/// Scheduler-side handles into the process-global metrics registry
/// (`gf_sched_*`), resolved once — every pool in the process shares
/// them, so the gauges aggregate across concurrent runs.
struct SchedMetrics {
    /// Agent turns currently queued on (or being drained from) the
    /// shard ready-queues.
    ready_depth: Arc<Gauge>,
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
            ready_depth: m.gauge(
                "gf_sched_ready_depth",
                "Agent turns queued on worker-pool shard ready-queues",
            ),
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

/// The launcher: compiles workflows and runs every agent on the worker
/// pool. Deployment strategies (`ginflow-executor`) decide *where*
/// agents go; this scheduler is the *how*.
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

    /// Compile `workflow` and launch one agent per task.
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
        let (agents, plans) = agent_programs(workflow);
        let run_id = self.options.run_id.clone().unwrap_or_else(RunId::generate);
        let tracker = Arc::new(RunTracker::new(RunMeta::of(workflow), run_id.clone()));
        let run = launch_pool(
            self.broker.clone(),
            self.registry.clone(),
            agents,
            plans,
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

impl RunControl for WorkflowRun {
    fn backend(&self) -> &'static str {
        self.inner.label
    }

    /// Crash a task's agent (it stops consuming; all local state is
    /// lost). Returns whether the agent existed and was alive.
    fn kill(&self, task: &str) -> bool {
        self.inner.kill(task)
    }

    /// Manually start a replacement agent for `task` (§IV-B recovery).
    /// On a persistent broker the newcomer replays the full inbox
    /// history.
    fn respawn(&self, task: &str) -> bool {
        self.inner.respawn_impl(task, false)
    }

    fn alive(&self, task: &str) -> bool {
        self.inner.alive(task)
    }

    fn incarnation(&self, task: &str) -> u32 {
        self.inner.incarnation(task)
    }

    fn stamp(&self, report: &mut RunReport) {
        if report.wall.is_zero() {
            report.wall = self.inner.status.elapsed();
        }
        // Cumulative over every subscription the run ever opened: status,
        // inbox, and each respawned incarnation's own.
        report.lagged = self.inner.lag_probes.lock().iter().map(|p| p.get()).sum();
        report.metrics = ginflow_mq::metrics::global().snapshot_run(&report.run_id);
    }

    /// Tear down: every queued agent turn observes the shutdown flag and
    /// dies, the workers drain their shards and exit, and all threads
    /// are joined before this returns. Nothing is published: every
    /// thread the run owns parks on a channel of this process, so
    /// teardown needs nothing from the broker — not even a connection.
    /// Idempotent and callable from any thread holding the run.
    fn stop(&self) {
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            for shard in &self.inner.shards {
                let _ = shard.send(WorkItem::Shutdown);
            }
        }
        let workers: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
        self.inner.status.disarm();
        self.inner.inbox.clear_waker();
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

/// One agent parked in the scheduler: the sans-IO core, its queue of
/// inbox messages and the wakeup state. The core mutex is uncontended in
/// steady state — sharding guarantees a single worker ever locks it —
/// and exists to make the slot `Sync` for control-plane access
/// (kill/respawn).
struct AgentSlot {
    name: String,
    incarnation: u32,
    shard: usize,
    core: Mutex<SaCore>,
    /// Payloads of the inbox messages keyed to this agent, in log order,
    /// not yet handed to the core.
    queue: Mutex<VecDeque<Bytes>>,
    /// A respawned incarnation's own inbox subscription, which it
    /// filters to its key. Incarnation 0 has none: the run's shared
    /// inbox feeds it. Dropped when the agent dies.
    own: Mutex<Option<Arc<Subscription>>>,
    /// Crash flag (the paper's killed JVM): observed between events.
    kill: AtomicBool,
    /// Set once the agent will never run again.
    dead: AtomicBool,
    /// Has `Event::Start` been dispatched?
    started: AtomicBool,
    /// The schedule bit: true while queued or running.
    scheduled: AtomicBool,
}

impl AgentSlot {
    /// Is this incarnation still taking messages?
    fn live(&self) -> bool {
        !self.kill.load(Ordering::SeqCst) && !self.dead.load(Ordering::SeqCst)
    }
}

struct PoolInner {
    broker: Arc<dyn Broker>,
    /// The run's topic namespace: every subscribe/publish goes through
    /// it, so the whole run lives under `run/<id>/…`.
    ns: Arc<TopicNamespace>,
    registry: Arc<ServiceRegistry>,
    /// Agent programs this process executes — in sharded mode, only the
    /// agents whose [`process_shard`] matches this process's shard. Each
    /// is the one copy its agents (first and respawned) share.
    programs: HashMap<String, Arc<AgentProgram>>,
    plans: Arc<Vec<AdaptPlan>>,
    slots: Mutex<HashMap<String, Arc<AgentSlot>>>,
    shards: Vec<crossbeam::channel::Sender<WorkItem>>,
    /// The status topic's subscription and the fold its waker runs:
    /// every task of the workflow, local or not, reaches the run's
    /// [`RunTracker`] through the shared status topic, the cross-shard
    /// membrane.
    status: Arc<StatusFold>,
    /// The run's inbox subscription, demultiplexed by key into the
    /// first incarnations' queues ([`PoolInner::demux`]).
    inbox: Subscription,
    shutdown: AtomicBool,
    auto_recover: bool,
    /// Lag probes of every subscription the run ever opened (status,
    /// inbox, every respawned incarnation's own) — summed into
    /// [`crate::engine::RunReport::lagged`].
    lag_probes: Mutex<Vec<LagProbe>>,
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
    agents: Vec<AgentProgram>,
    plans: Vec<AdaptPlan>,
    tracker: Arc<RunTracker>,
    ns: Arc<TopicNamespace>,
    options: &RunOptions,
) -> WorkflowRun {
    let workers = options.resolve_workers();

    // Sharded mode: this process hosts only its slice of the agents,
    // and — on a persistent broker — subscribes everything with full
    // replay: a process that starts (or restarts) after its peers have
    // already made progress catches up from the log instead of missing
    // it. §IV-B's recovery, applied to a whole process.
    let sharded = options.shard.is_some();
    let replay = sharded && broker.persistent();
    let is_local = |name: &str| match options.shard {
        Some((index, count)) => process_shard(name, count) == index,
        None => true,
    };
    let mode = if replay {
        SubscribeMode::Beginning
    } else {
        SubscribeMode::Latest
    };
    let label = backend_label(options);

    // The namespace's keys are task names: validate them here, so a
    // name that would collide or split namespaces fails the launch
    // loudly.
    for program in &agents {
        ginflow_mq::namespace::validate_segment("task name", &program.name)
            .unwrap_or_else(|e| panic!("cannot launch agent: {e}"));
    }

    // The status subscription first, folding from here on: no update
    // may be missed. A subscribe cut off by a connection loss left
    // nothing behind — the server-side subscription died with the
    // connection — so it is simply retried.
    let status_sub =
        retry_disconnected(|| broker.subscribe(ns.status(), mode)).expect("status subscription");
    let status_lag = status_sub.lag_probe();
    let status = StatusFold::arm(status_sub, tracker);

    // The inbox is subscribed before any agent is scheduled, so no agent
    // can publish to it unheard. (Across shard processes the same
    // guarantee comes from replay: whatever a peer published early is in
    // the log — which is why sharded mode requires a persistent broker;
    // see `RunOptions::shard`.) Its waker is armed once every slot
    // exists, so nothing it holds by then is dropped as unknown.
    let inbox_sub =
        retry_disconnected(|| broker.subscribe(ns.inbox(), mode)).expect("inbox subscription");
    let inbox_lag = inbox_sub.lag_probe();

    let mut shard_txs = Vec::with_capacity(workers);
    let mut shard_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = crossbeam::channel::unbounded();
        shard_txs.push(tx);
        shard_rxs.push(rx);
    }

    let local_agents: Vec<Arc<AgentProgram>> = agents
        .into_iter()
        .filter(|a| is_local(&a.name))
        .map(Arc::new)
        .collect();
    let inner = Arc::new(PoolInner {
        broker,
        ns,
        registry,
        programs: local_agents
            .iter()
            .map(|a| (a.name.clone(), Arc::clone(a)))
            .collect(),
        plans: Arc::new(plans),
        slots: Mutex::new(HashMap::new()),
        shards: shard_txs,
        status,
        inbox: inbox_sub,
        shutdown: AtomicBool::new(false),
        auto_recover: options.auto_recover,
        lag_probes: Mutex::new(vec![status_lag, inbox_lag]),
        label,
    });

    let fresh: Vec<Arc<AgentSlot>> = {
        let mut slots = inner.slots.lock();
        local_agents
            .into_iter()
            .map(|program| {
                let slot = inner.make_slot(program, None, 0);
                slots.insert(slot.name.clone(), slot.clone());
                slot
            })
            .collect()
    };

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

    // Arm the inbox, then hand every agent its Start turn (a slot the
    // inbox already scheduled runs its Start first all the same).
    let weak: Weak<PoolInner> = Arc::downgrade(&inner);
    inner.inbox.set_waker(move || {
        if let Some(inner) = weak.upgrade() {
            inner.demux();
        }
    });
    for slot in &fresh {
        inner.schedule(slot);
    }

    WorkflowRun {
        inner,
        workers: Mutex::new(workers_threads),
    }
}

impl PoolInner {
    fn make_slot(
        &self,
        program: Arc<AgentProgram>,
        own: Option<Arc<Subscription>>,
        incarnation: u32,
    ) -> Arc<AgentSlot> {
        let name = program.name.clone();
        let core = SaCore::new(program, self.plans.clone());
        Arc::new(AgentSlot {
            shard: shard_of(&name, self.shards.len()),
            name,
            incarnation,
            core: Mutex::new(core),
            queue: Mutex::new(VecDeque::new()),
            own: Mutex::new(own),
            kill: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            started: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
        })
    }

    /// The inbox's waker: route each message to its key's first
    /// incarnation. A respawned incarnation reads its own subscription,
    /// and a key with no local slot is another shard's.
    fn demux(&self) {
        self.inbox.drain(|msg| {
            let slot = std::str::from_utf8(msg.key.as_deref().unwrap_or_default())
                .ok()
                .and_then(|task| self.slots.lock().get(task).cloned());
            if let Some(slot) = slot.filter(|s| s.incarnation == 0) {
                self.deliver(&slot, msg.payload);
            }
        });
    }

    /// Queue `payload` for `slot` and schedule it — unless the agent is
    /// dead or dying: a crash loses what it had not yet processed.
    fn deliver(&self, slot: &Arc<AgentSlot>, payload: Bytes) {
        if slot.live() {
            slot.queue.lock().push_back(payload);
            self.schedule(slot);
        }
    }

    /// Arm a respawned incarnation's own subscription: whatever it
    /// delivers — a replay first, on a persistent broker — is filtered
    /// to the slot's key and queued. The waker holds only weak
    /// references, so it quietly dies with the slot or with the
    /// subscription, which the slot drops when the agent dies.
    fn arm_own(self: &Arc<Self>, slot: &Arc<AgentSlot>, sub: &Arc<Subscription>) {
        let (inner, weak_slot, weak_sub) = (
            Arc::downgrade(self),
            Arc::downgrade(slot),
            Arc::downgrade(sub),
        );
        sub.set_waker(move || {
            let (Some(inner), Some(slot), Some(sub)) =
                (inner.upgrade(), weak_slot.upgrade(), weak_sub.upgrade())
            else {
                return;
            };
            sub.drain(|msg| {
                if msg.key.as_deref() == Some(slot.name.as_bytes()) {
                    inner.deliver(&slot, msg.payload);
                }
            });
        });
    }

    /// Enqueue the slot if it is not already queued/running.
    fn schedule(&self, slot: &Arc<AgentSlot>) {
        if !slot.dead.load(Ordering::SeqCst) && !slot.scheduled.swap(true, Ordering::SeqCst) {
            let m = sched_metrics();
            m.wakeups.inc();
            m.ready_depth.add(1);
            let _ = self.shards[slot.shard].send(WorkItem::Run(slot.clone()));
        }
    }

    fn slot(&self, task: &str) -> Option<Arc<AgentSlot>> {
        self.slots.lock().get(task).cloned()
    }

    fn kill(&self, task: &str) -> bool {
        match self.slot(task) {
            Some(slot) if !slot.dead.load(Ordering::SeqCst) => {
                slot.kill.store(true, Ordering::SeqCst);
                // Wake it so the crash is observed promptly even when
                // the agent is parked with an empty queue.
                self.schedule(&slot);
                true
            }
            _ => false,
        }
    }

    fn alive(&self, task: &str) -> bool {
        self.slot(task)
            .map(|s| !s.dead.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    fn incarnation(&self, task: &str) -> u32 {
        self.slot(task).map(|s| s.incarnation).unwrap_or(0)
    }

    /// §IV-B recovery: a fresh incarnation re-enters through the same
    /// ready-queue, on an inbox subscription of its own that replays the
    /// whole log first on a persistent broker. With `only_if_dead` (auto
    /// recovery) it happens only while the current incarnation is dead —
    /// a racing manual respawn may already have replaced it.
    ///
    /// The lock rule (see the module docs): subscribe, *then* take the
    /// slots lock and check → replace under it. A respawn that finds
    /// its incarnation no longer wanted drops its subscription; since
    /// the check and the replacement share one critical section, two
    /// concurrent respawns can never both insert and leave the loser as
    /// an unreachable ghost agent still bound to the broker.
    fn respawn_impl(self: &Arc<Self>, task: &str, only_if_dead: bool) -> bool {
        let Some(program) = self.programs.get(task).cloned() else {
            return false;
        };
        let mode = if self.broker.persistent() {
            SubscribeMode::Beginning
        } else {
            SubscribeMode::Latest
        };
        let Ok(sub) = self.broker.subscribe(self.ns.inbox(), mode) else {
            return false;
        };
        let mut slots = self.slots.lock();
        let Some(old) = slots
            .get(task)
            .filter(|old| !only_if_dead || old.dead.load(Ordering::SeqCst))
            .cloned()
        else {
            return false;
        };
        // Make sure the previous incarnation is (being) stopped. It
        // shares the new slot's shard, so it dies before the
        // replacement runs.
        old.kill.store(true, Ordering::SeqCst);
        self.schedule(&old);
        self.lag_probes.lock().push(sub.lag_probe());
        let sub = Arc::new(sub);
        let slot = self.make_slot(program, Some(sub.clone()), old.incarnation + 1);
        slots.insert(task.to_owned(), slot.clone());
        drop(slots);
        self.arm_own(&slot, &sub);
        self.schedule(&slot);
        true
    }
}

fn worker_loop(inner: Arc<PoolInner>, rx: crossbeam::channel::Receiver<WorkItem>) {
    while let Ok(item) = rx.recv() {
        match item {
            WorkItem::Shutdown => return,
            WorkItem::Run(slot) => {
                sched_metrics().ready_depth.sub(1);
                process(&inner, &slot);
            }
        }
    }
}

/// One scheduling turn of one agent.
fn process(inner: &Arc<PoolInner>, slot: &Arc<AgentSlot>) {
    if slot.dead.load(Ordering::SeqCst) {
        return;
    }
    {
        let mut core = slot.core.lock();
        let ctx = AgentCtx {
            broker: &*inner.broker,
            ns: &inner.ns,
            registry: &inner.registry,
            name: &slot.name,
            incarnation: slot.incarnation,
        };
        if !slot.started.swap(true, Ordering::SeqCst) {
            if slot.kill.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
                drop(core);
                die(inner, slot);
                return;
            }
            if ctx.dispatch(&mut core, Event::Start).is_err() {
                drop(core);
                die(inner, slot);
                return;
            }
        }
        let mut drained: u64 = 0;
        for _ in 0..BATCH {
            // A crash between reception and processing loses the event
            // locally — the log broker still has it for replay.
            if slot.kill.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
                drop(core);
                die(inner, slot);
                return;
            }
            let Some(payload) = slot.queue.lock().pop_front() else {
                break;
            };
            drained += 1;
            let Some(message) = SaMessage::decode(&payload) else {
                continue;
            };
            if ctx.dispatch(&mut core, Event::Deliver(message)).is_err() {
                drop(core);
                die(inner, slot);
                return;
            }
        }
        sched_metrics().wakeup_batch.observe(drained);
    }
    // Park again. Clear the schedule bit *before* re-checking the
    // queue: a delivery that raced the drain either landed before the
    // clear (caught by the re-check) or after it (it sees the cleared
    // bit and enqueues) — either way no wakeup is lost.
    slot.scheduled.store(false, Ordering::SeqCst);
    if !slot.queue.lock().is_empty() || slot.kill.load(Ordering::SeqCst) {
        inner.schedule(slot);
    }
}

/// Retire a slot for good: its subscription, if it has one of its own,
/// and its queue go with it. With auto recovery on, the worker that
/// observed the death starts the §IV-B replacement itself: it holds no
/// lock here, the replacement lands on this same shard, and scheduling
/// it is a non-blocking send onto this worker's own queue.
fn die(inner: &Arc<PoolInner>, slot: &Arc<AgentSlot>) {
    slot.dead.store(true, Ordering::SeqCst);
    let own = slot.own.lock().take();
    drop(own);
    slot.queue.lock().clear();
    slot.scheduled.store(false, Ordering::SeqCst);
    if inner.auto_recover && !inner.shutdown.load(Ordering::SeqCst) {
        inner.respawn_impl(&slot.name, true);
    }
}
