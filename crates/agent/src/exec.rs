//! What the [`crate::scheduler::Scheduler`] runs an agent's events
//! with: command execution (one publish batch per dispatch, service
//! outcomes kept in a [`Memo`] that an evicted agent's rehydration
//! replays), and the status fold into the [`RunTracker`]
//! ([`StatusFold`]), which drains the status subscription on whichever
//! thread delivers to it, not on a thread of its own.

use crate::core::{Command, Event, SaCore};
use crate::engine::RunTracker;
use crate::message::{SaMessage, StatusUpdate};
use bytes::Bytes;
use ginflow_core::{ServiceRegistry, Value};
use ginflow_mq::{Broker, MqError, Subscription, TopicNamespace};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Everything needed to run one agent's events: the broker for sends and
/// status publishes, the run's topic namespace, the registry for service
/// invocations, and the agent's identity.
pub(crate) struct AgentCtx<'a> {
    pub broker: &'a dyn Broker,
    pub ns: &'a TopicNamespace,
    pub registry: &'a ServiceRegistry,
    pub name: &'a str,
    pub incarnation: u32,
}

impl AgentCtx<'_> {
    /// Run one event through the core and execute every resulting
    /// command, feeding service completions back in until quiescence.
    ///
    /// `Send` and `Publish` commands are queued, in command order, and
    /// handed to the broker as **one batch**
    /// ([`Broker::publish_many_nowait`]) at two points: before every
    /// `Invoke` — the `Running` status must be out before a service that
    /// may take minutes starts — and when the dispatch returns. A task
    /// that receives, invokes and completes therefore costs two broker
    /// submissions however many successors it fans out to. Items leave
    /// in command order on the broker's one FIFO, so
    /// [`SaCore`]'s guarantee — a `Completed` enters the status log
    /// before the result message it precedes — holds exactly as if each
    /// command were its own publish.
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
        let mut batch: Vec<(String, Option<Bytes>, Bytes)> = Vec::new();
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
                        batch.push((
                            self.ns.inbox().to_owned(),
                            Some(Bytes::from(to.into_bytes())),
                            payload,
                        ));
                    }
                    Command::Publish { state, result } => {
                        let update = StatusUpdate {
                            task: self.name.to_owned(),
                            state,
                            result,
                            incarnation: self.incarnation,
                        };
                        batch.push((self.ns.status().to_owned(), None, update.encode()));
                    }
                }
            }
        }
        self.publish(&mut batch);
        outcome
    }

    /// Hand the queued publishes to the broker. Fire-and-forget,
    /// pipelined: nothing here consumes a receipt, and on a remote
    /// broker a blocking round trip would be the whole coordination hot
    /// path. A publish the broker refuses is lost like any message to a
    /// severed connection — the status stream is how anyone would know.
    fn publish(&self, batch: &mut Vec<(String, Option<Bytes>, Bytes)>) {
        if !batch.is_empty() {
            let _ = self.broker.publish_many_nowait(std::mem::take(batch));
        }
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

/// Where a run's status updates are folded: the status subscription,
/// drained into the run's [`RunTracker`] — its only record — stamped
/// with the time since launch. There is no collector thread: the waker
/// runs [`Subscription::drain`] on the delivering thread (the
/// publishing worker in process, the client reactor over TCP), and the
/// fold does O(1) work per update under the tracker's one lock, so it
/// cannot stall the thread it borrows.
pub(crate) struct StatusFold {
    sub: Subscription,
    tracker: Arc<RunTracker>,
    /// Launch time: the zero of every task timing and of the run's wall.
    epoch: Instant,
}

impl StatusFold {
    /// Start folding `sub` into `tracker`: arms the waker (which folds
    /// at once whatever a replaying subscription already holds). The
    /// waker owns only a `Weak` — the subscription owns the slot that
    /// owns the closure — and [`StatusFold::disarm`] ends it.
    pub fn arm(sub: Subscription, tracker: Arc<RunTracker>) -> Arc<Self> {
        let fold = Arc::new(StatusFold {
            sub,
            tracker,
            epoch: Instant::now(),
        });
        let weak: Weak<StatusFold> = Arc::downgrade(&fold);
        fold.sub.set_waker(move || {
            if let Some(fold) = weak.upgrade() {
                fold.drain();
            }
        });
        fold
    }

    /// Stop folding (teardown): later deliveries stay in the queue.
    pub fn disarm(&self) {
        self.sub.clear_waker();
    }

    /// Time since launch.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn drain(&self) {
        self.sub.drain(|msg| {
            // Undecodable payloads are foreign noise on a shared broker.
            if let Some(update) = StatusUpdate::decode(&msg.payload) {
                self.tracker.observe(&update, self.epoch.elapsed());
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
