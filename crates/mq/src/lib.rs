//! # ginflow-mq — the message-queue substrate
//!
//! GinFlow's inter-agent communications "rely on a message queue middleware
//! which can be either Apache ActiveMQ or Kafka. The choice for one or the
//! other depends on the level of resilience needed by the user" (§IV-A).
//! Only the log keeps what §IV-B's recovery replays, so this crate has one
//! broker: [`LogBroker`], the Kafka profile — partitioned append-only logs
//! with dense offsets. Subscribers attach at the head, from the beginning
//! or from any offset, and [`Broker::fetch`] reads the retained history
//! back: the replay §IV-B's fault recovery is built on. The ActiveMQ
//! profile survives where the paper measures it, as the simulator's cost
//! model ([`BrokerKind::Transient`] is its label).
//!
//! The agent runtime and the simulator see the broker through the
//! [`Broker`] trait. The log need not live in the caller's process: the
//! [`wire`] module defines the length-prefixed binary protocol
//! `ginflow-net`'s broker daemon speaks, and its client-side
//! `RemoteBroker` implements the same [`Broker`] trait over a TCP
//! connection — the membrane that lets one workflow span multiple OS
//! processes and hosts.
//!
//! Topics are **run-scoped** ([`namespace`]): every workflow run owns a
//! [`RunId`] and publishes under `run/<id>/…`, so one standing broker —
//! in-process or a long-lived daemon — serves any number of concurrent
//! or back-to-back runs without replaying one run's history into
//! another. An in-process run deletes its two topics when it is torn
//! down; a daemon reclaims a run once it is closed and collected.
//!
//! The log can be made **durable**: [`LogBroker::open`]
//! backs every partition with the [`store`] module's file-based
//! segmented log (append-before-fan-out, torn-tail crash recovery,
//! fsync policy knobs), so a daemon restart resumes the same offsets
//! and in-flight runs complete through the clients' ordinary
//! reconnect-replay — the persistence half of §IV-B's resilience
//! story.

pub mod broker;
pub mod error;
pub mod log;
pub mod message;
pub mod metrics;
pub mod namespace;
pub mod store;
pub mod wire;

pub use broker::{
    fnv1a, subscription_pair, Broker, Receipt, SubscribeMode, SubscriberHandle, Subscription,
};
pub use error::MqError;
pub use log::{partition_of, LogBroker};
pub use message::Message;
pub use namespace::{RunId, TopicNamespace};
pub use store::{DurabilityConfig, FsyncPolicy};

/// Middleware profile label (the Fig 14 experiment axis): which broker
/// the simulator's cost model prices, and what a report calls it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BrokerKind {
    /// ActiveMQ-like transient pub/sub: a simulator profile only.
    Transient,
    /// Kafka-like persistent log: [`LogBroker`].
    Log,
}

impl BrokerKind {
    /// Label used in reports ("activemq" / "kafka", matching the paper's
    /// terminology).
    pub fn label(self) -> &'static str {
        match self {
            BrokerKind::Transient => "activemq",
            BrokerKind::Log => "kafka",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_brokers() {
        assert_eq!(BrokerKind::Transient.label(), "activemq");
        assert_eq!(BrokerKind::Log.label(), "kafka");
    }
}
