//! What the [`crate::scheduler::Scheduler`] runs an agent's events
//! with: command execution (one publish batch per dispatch) and the
//! fold that feeds the run's record ([`StatusFold`] into the
//! [`RunTracker`]) — which runs on whichever thread delivers a status
//! update, not on a thread of its own.

use crate::core::{Command, Event, SaCore};
use crate::engine::RunTracker;
use crate::message::StatusUpdate;
use bytes::Bytes;
use ginflow_core::ServiceRegistry;
use ginflow_mq::{Broker, MqError, Subscription, TopicNamespace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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
    pub fn dispatch(&self, core: &mut SaCore, event: Event) -> Result<(), ()> {
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
            for command in commands {
                match command {
                    Command::Invoke {
                        effect,
                        service,
                        params,
                    } => {
                        self.publish(&mut batch);
                        let result = match self.registry.get(&service) {
                            Some(s) => s.invoke(&params).map_err(|e| e.message),
                            None => Err(format!("unknown service {service:?}")),
                        };
                        queue.push_back(Event::ServiceCompleted { effect, result });
                    }
                    Command::Send { to, message } => {
                        // Destinations come from the compiled DAG, whose
                        // names were validated at launch; a name the
                        // namespace rejects has no inbox to lose a
                        // message to, matching the ignored-publish path.
                        if let Ok(topic) = self.ns.inbox(&to) {
                            batch.push((
                                topic,
                                Some(Bytes::from(to.into_bytes())),
                                message.encode(),
                            ));
                        }
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

/// Where a run's status updates are folded: the status topic's
/// subscription, drained into the run's [`RunTracker`] — its only
/// record — stamped with the time since launch.
///
/// There is no collector thread. The subscription's waker *is* the
/// fold: whichever thread delivers an update — the publishing worker on
/// an in-process broker, the client reactor over TCP — drains the queue
/// right there, under the schedule-bit protocol the scheduler's slots
/// and the daemon's subscriptions use (`swap(true)` to enter, clear,
/// re-check the backlog). So exactly one thread folds at a time, in
/// queue order, and a delivery that finds the bit set is picked up by
/// the holder's re-check: none is lost, none is reordered. The fold
/// does O(1) work per update, takes no lock it could wait on for long,
/// and never publishes — it cannot stall the thread it borrows.
pub(crate) struct StatusFold {
    sub: Subscription,
    tracker: Arc<RunTracker>,
    /// Launch time: the zero of every task timing and of the run's wall.
    epoch: Instant,
    /// The schedule bit: true while some thread is draining `sub`.
    folding: AtomicBool,
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
            folding: AtomicBool::new(false),
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
        while !self.folding.swap(true, Ordering::SeqCst) {
            while let Ok(Some(msg)) = self.sub.try_recv() {
                // Undecodable payloads are foreign noise on a shared
                // broker.
                if let Some(update) = StatusUpdate::decode(&msg.payload) {
                    self.tracker.observe(&update, self.epoch.elapsed());
                }
            }
            // Clear the bit *before* re-checking: a delivery that raced
            // the drain either landed before the clear (the re-check
            // sees it) or after it (its waker sees the cleared bit and
            // folds it itself).
            self.folding.store(false, Ordering::SeqCst);
            if self.sub.backlog() == 0 {
                break;
            }
        }
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
