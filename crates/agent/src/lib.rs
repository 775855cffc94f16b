//! # ginflow-agent — the service agents
//!
//! A service agent (SA) is "composed of three elements": the service to
//! invoke, "a storage place for a local copy of the multiset" and "an HOCL
//! interpreter that reads and updates the local copy … each time it tries
//! to apply one of the rules in the subsolution" (§IV-A). This crate
//! implements the SA logic once, as a pure state machine, and gives it
//! one execution vehicle:
//!
//! * [`SaCore`] — a **sans-IO state machine**: events in
//!   ([`Event::Deliver`], [`Event::ServiceCompleted`]), commands out
//!   ([`Command::Invoke`], [`Command::Send`], [`Command::Publish`]). It
//!   owns the local solution and the HOCL engine and nothing else, so the
//!   *same* coordination logic is driven by the scheduler here and by the
//!   virtual-time simulator in `ginflow-sim` — what the benchmarks measure
//!   is what the tests execute.
//! * [`scheduler::Scheduler`] — the **event-driven, sharded worker-pool
//!   runtime**: a fixed pool of workers drives every agent, each parked
//!   until a message keyed to it lands on the run's one inbox topic. The
//!   thread that delivers the message routes it to the agent's queue
//!   through the broker's publish path: the subscription's waker fires
//!   on its idle→pending edge, and the woken thread drains it
//!   ([`ginflow_mq::Subscription::drain`]). So a run holds two
//!   subscriptions — inbox and status — whatever its width, and no
//!   thread of its own reads them. Scales to thousands of agents per
//!   process with zero idle CPU. A run's threads are its workers and
//!   nothing else. An agent is resident only while it is at work: its
//!   first message (launch, for the sources) queues it, its first turn
//!   on a worker builds it and it is evicted once it has completed — a
//!   late message rebuilds it by replay, without invoking its service
//!   again. A torn-down run deletes its two topics from an in-process
//!   broker.
//! * [`engine::RunTracker`] — the run's **only record**: the shared
//!   status topic folded, under one lock, into per-task state indexed
//!   by task id, counters, the outcome and the typed [`RunEvent`]
//!   stream. Every backend feeds it, every observation on a
//!   [`RunHandle`] reads it, and its one condvar wakes a waiter when the
//!   run ends and at no other time.
//!
//! The scheduler implements the recovery mechanism of §IV-B: a crashed SA
//! is replaced by a fresh one that *replays the messages keyed to it*
//! from the beginning of the run's inbox log, rebuilding the lost local
//! state
//! ("being able to log all incoming molecules of a SA and replay them in
//! the same order on a newly created SA will lead the second SA in the
//! same state as the first"). The worker that observes the crash starts
//! the replacement.

pub mod core;
pub mod engine;
mod exec;
pub mod message;
pub mod runtime;
pub mod scheduler;

pub use crate::core::{Command, Event, SaCore};
pub use engine::{
    EventWait, ExecutionBackend, RunControl, RunEvent, RunEvents, RunFailure, RunHandle,
    RunOutcome, RunReport, RunTracker, TaskReport,
};
pub use ginflow_mq::{RunId, TopicNamespace};
pub use message::{SaMessage, StatusUpdate};
pub use runtime::{RunOptions, WaitError};
pub use scheduler::Scheduler;
