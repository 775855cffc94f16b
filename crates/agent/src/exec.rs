//! What the [`crate::scheduler::Scheduler`] runs an agent's events
//! with: command execution (one batch of [`Record`]s per dispatch,
//! service outcomes kept in a [`Memo`] that an evicted agent's
//! rehydration replays), an unsharded run's writer ([`Shipper`]), and
//! the status fold into the [`RunTracker`] ([`StatusFold`]) — by the
//! shipper as it ships, or, for one shard of a run, by whichever thread
//! delivers to the status subscription. No thread of its own does
//! either.

use crate::core::{Command, Event, SaCore};
use crate::engine::RunTracker;
use crate::message::{SaMessage, StatusUpdate};
use crate::scheduler::PoolInner;
use bytes::Bytes;
use ginflow_core::{ServiceRegistry, Value};
use ginflow_mq::{Broker, Message, MqError, Subscription, TopicNamespace};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to run one agent's events: the run it belongs to —
/// where its records go, its topic namespace, the registry for service
/// invocations — and the agent's identity.
pub(crate) struct AgentCtx<'a> {
    pub run: &'a PoolInner,
    pub registry: &'a ServiceRegistry,
    pub name: &'a str,
    pub incarnation: u32,
}

/// One record of a dispatch, before it is numbered and addressed: a
/// message for the run's inbox, keyed by its destination task, or a
/// status update, kept beside its encoding so a fold need not decode it.
pub(crate) enum Record {
    Send {
        key: Bytes,
        payload: Bytes,
    },
    Status {
        update: StatusUpdate,
        payload: Bytes,
    },
}

impl Record {
    /// The record as a publish of `ns`'s run: topic, key and payload.
    pub fn addressed(self, ns: &TopicNamespace) -> (String, Option<Bytes>, Bytes) {
        match self {
            Record::Send { key, payload } => (ns.inbox().to_owned(), Some(key), payload),
            Record::Status { payload, .. } => (ns.status().to_owned(), None, payload),
        }
    }
}

impl AgentCtx<'_> {
    /// Run one event through the core and execute every resulting
    /// command, feeding service completions back in until quiescence.
    ///
    /// `Send` and `Publish` commands are queued, in command order, and
    /// handed to the run as **one batch** ([`PoolInner::publish`]) at two
    /// points: before every `Invoke` — the `Running` status must be out
    /// before a service that may take minutes starts — and when the
    /// dispatch returns. A task that receives, invokes and completes
    /// therefore costs two broker submissions however many successors it
    /// fans out to. Items leave in command order on the broker's one
    /// FIFO, so [`SaCore`]'s guarantee — a `Completed` enters the status
    /// log before the result message it precedes — holds exactly as if
    /// each command were its own publish.
    ///
    /// A fan-out is encoded once: a run of `Send`s of an equal message —
    /// one result to all of a task's successors — shares one encoded
    /// payload.
    ///
    /// Every service outcome is kept in `memo`; while the memo is
    /// replaying, the dispatch re-runs what an evicted incarnation
    /// already did (see [`Memo`]).
    pub fn dispatch(&self, core: &mut SaCore, event: Event, memo: &mut Memo) -> Result<(), ()> {
        let mut queue: VecDeque<Event> = VecDeque::from([event]);
        let mut batch: Vec<Record> = Vec::new();
        let mut outcome = Ok(());
        while let Some(event) = queue.pop_front() {
            let Ok(commands) = core.handle(event) else {
                // The agent dies; what earlier events of this dispatch
                // produced is its word already and still goes out.
                outcome = Err(());
                break;
            };
            // The last message encoded, and its bytes.
            let mut encoded: Option<(SaMessage, Bytes)> = None;
            for command in commands {
                match command {
                    Command::Invoke {
                        effect,
                        service,
                        params,
                    } => {
                        let result = match memo.answer() {
                            Some(result) => result,
                            None => {
                                self.publish(&mut batch);
                                let result = match self.registry.get(&service) {
                                    Some(s) => s.invoke(&params).map_err(|e| e.message),
                                    None => Err(format!("unknown service {service:?}")),
                                };
                                memo.outcomes.push(result.clone());
                                result
                            }
                        };
                        queue.push_back(Event::ServiceCompleted { effect, result });
                    }
                    // A replay's word is in the log already.
                    _ if memo.replaying => {}
                    Command::Send { to, message } => {
                        // One inbox per run, keyed by the destination.
                        let payload = match &encoded {
                            Some((m, bytes)) if *m == message => bytes.clone(),
                            _ => {
                                let bytes = message.encode();
                                encoded = Some((message, bytes.clone()));
                                bytes
                            }
                        };
                        let key = Bytes::from(to.into_bytes());
                        batch.push(Record::Send { key, payload });
                    }
                    Command::Publish { state, result } => {
                        let update = StatusUpdate {
                            task: self.name.to_owned(),
                            state,
                            result,
                            incarnation: self.incarnation,
                        };
                        let payload = update.encode();
                        batch.push(Record::Status { update, payload });
                    }
                }
            }
        }
        self.publish(&mut batch);
        outcome
    }

    /// Hand the queued records to the run ([`PoolInner::publish`]).
    fn publish(&self, batch: &mut Vec<Record>) {
        if !batch.is_empty() {
            self.run.publish(std::mem::take(batch));
        }
    }
}

/// An unsharded run's writer. Nothing but the run writes its two topics,
/// so it numbers its records itself — each topic's end, as it learned it
/// at launch, plus what it has shipped since — hands them to the broker
/// in log order as records numbered so ([`Broker::append_many`]) and
/// delivers them to its own agents and its tracker in the same pass,
/// under one lock: the order of the log is the order of delivery. The
/// broker's log is the one log, an exact replica of the run's numbering:
/// a remote broker's client keeps only what its daemon has not receipted
/// yet, and the in-process log receipts at once.
///
/// Each of the run's topics is written as one partition, partition 0: a
/// fresh topic has one, and a run needs no more, since nothing but its
/// own order is kept.
pub(crate) struct Shipper {
    ends: Mutex<Ends>,
    /// Hand-offs the broker refused, wholly or in part.
    failures: AtomicU64,
}

/// Where the run's next records go.
struct Ends {
    inbox: Numbering,
    status: Numbering,
}

/// One topic as its only writer numbers it.
struct Numbering {
    /// The topic's name, shared by every record of it.
    topic: Arc<str>,
    /// The offset of its next record.
    end: u64,
}

impl Numbering {
    /// `topic` as the broker holds it at launch: a fresh topic — the
    /// common case, one request — has nothing in it; one with records (a
    /// pinned run id used before) is numbered on from its end.
    ///
    /// # Panics
    ///
    /// If `topic` holds records over more than one partition: its
    /// partition 0 ends at an offset its record count does not tell.
    fn learn(broker: &dyn Broker, topic: &str) -> Numbering {
        let end = broker.retained(topic);
        if end > 0 {
            let partitions = broker.partitions(topic);
            assert!(
                partitions == 1,
                "cannot launch: {topic:?} holds {end} records over {partitions} partitions, \
                 and an unsharded run writes one"
            );
        }
        Numbering {
            topic: Arc::from(topic),
            end,
        }
    }

    /// Number the next record: the topic's end, which moves on.
    fn number(&mut self, key: Option<Bytes>, payload: Bytes) -> Message {
        let offset = self.end;
        self.end += 1;
        Message {
            topic: self.topic.clone(),
            partition: 0,
            offset,
            key,
            payload,
        }
    }
}

impl Shipper {
    /// The writer of `ns`'s two topics, numbering on from where the
    /// broker's log ends.
    pub fn learn(broker: &dyn Broker, ns: &TopicNamespace) -> Shipper {
        Shipper {
            ends: Mutex::new(Ends {
                inbox: Numbering::learn(broker, ns.inbox()),
                status: Numbering::learn(broker, ns.status()),
            }),
            failures: AtomicU64::new(0),
        }
    }

    /// Number `batch`, hand it to `broker` and `deliver` each record with
    /// its offset, in batch order, all under the writer's one lock. A
    /// record the broker refuses is still delivered: the run goes on,
    /// and the refusal is counted ([`Shipper::failures`]) — or, over a
    /// connection, put on the client's loss ledger when the daemon
    /// refuses it later.
    pub fn ship(
        &self,
        broker: &dyn Broker,
        batch: Vec<Record>,
        mut deliver: impl FnMut(Record, u64),
    ) {
        let mut ends = self.ends.lock();
        let mut offsets = Vec::with_capacity(batch.len());
        let records: Vec<Message> = batch
            .iter()
            .map(|record| {
                let message = match record {
                    Record::Send { key, payload } => {
                        ends.inbox.number(Some(key.clone()), payload.clone())
                    }
                    Record::Status { payload, .. } => ends.status.number(None, payload.clone()),
                };
                offsets.push(message.offset);
                message
            })
            .collect();
        if broker.append_many(records).is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        for (record, offset) in batch.into_iter().zip(offsets) {
            deliver(record, offset);
        }
    }

    /// How many hand-offs the broker refused, wholly or in part.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

/// An agent's service outcomes, in invocation order: what its tombstone
/// keeps when it is evicted, and what its rehydration is answered from.
/// While `replaying`, a dispatch re-runs what the evicted incarnation
/// already did — each `Invoke` takes the next kept outcome instead of
/// calling the service, and nothing is sent or published — so the
/// rebuilt agent reaches the same state without a second invocation or
/// a duplicate message.
#[derive(Default)]
pub(crate) struct Memo {
    pub outcomes: Vec<Result<Value, String>>,
    /// Outcomes the replay has handed back so far.
    answered: usize,
    pub replaying: bool,
}

impl Memo {
    /// A memo holding an evicted incarnation's outcomes, replaying from
    /// the start.
    pub fn of(outcomes: Vec<Result<Value, String>>) -> Memo {
        Memo {
            outcomes,
            answered: 0,
            replaying: true,
        }
    }

    /// The next kept outcome, while replaying one is left.
    fn answer(&mut self) -> Option<Result<Value, String>> {
        let outcome = self
            .outcomes
            .get(self.answered)
            .filter(|_| self.replaying)?
            .clone();
        self.answered += 1;
        Some(outcome)
    }
}

/// Where a run's status updates are folded: into the run's
/// [`RunTracker`] — its only record — stamped with the time since
/// launch. An unsharded run's [`Shipper`] hands each update over as it
/// ships it; one shard of a run drains the status subscription its peers
/// write too ([`StatusFold::drain`]), from the subscription's waker, on
/// the delivering thread (the client reactor over TCP). There is no
/// collector thread either way, and the fold does O(1) work per update
/// under the tracker's one lock, so it cannot stall the thread it
/// borrows.
pub(crate) struct StatusFold {
    tracker: Arc<RunTracker>,
    /// Launch time: the zero of every task timing and of the run's wall.
    epoch: Instant,
}

impl StatusFold {
    /// Fold into `tracker`, timed from now.
    pub fn new(tracker: Arc<RunTracker>) -> StatusFold {
        StatusFold {
            tracker,
            epoch: Instant::now(),
        }
    }

    /// Time since launch.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Fold one update.
    pub fn fold(&self, update: &StatusUpdate) {
        self.tracker.observe(update, self.epoch.elapsed());
    }

    /// Fold every update `sub` holds ([`Subscription::drain`]).
    pub fn drain(&self, sub: &Subscription) {
        sub.drain(|msg| {
            // Undecodable payloads are foreign noise on a shared broker.
            if let Some(update) = StatusUpdate::decode(&msg.payload) {
                self.fold(&update);
            }
        });
    }
}

/// Run a broker request the run cannot proceed without, again while it
/// fails with `Disconnected`: a remote request whose connection drops
/// under it is at-most-once — it is not replayed — and the retry rides
/// out the redial. Any other error (a daemon that stopped answering)
/// ends the attempts.
pub(crate) fn retry_disconnected<T>(
    mut request: impl FnMut() -> Result<T, MqError>,
) -> Result<T, MqError> {
    let mut result = request();
    for _ in 1..DISCONNECTED_ATTEMPTS {
        if !matches!(result, Err(MqError::Disconnected)) {
            break;
        }
        result = request();
    }
    result
}

/// Bound on [`retry_disconnected`]: far more than any reconnect storm
/// loses in a row, few enough to end against a daemon that accepts
/// connections only to drop them.
const DISCONNECTED_ATTEMPTS: usize = 32;
