//! # ginflow-mq — the message-queue substrate
//!
//! GinFlow's inter-agent communications "rely on a message queue middleware
//! which can be either Apache ActiveMQ or Kafka. The choice for one or the
//! other depends on the level of resilience needed by the user" (§IV-A).
//! This crate rebuilds both behavioural profiles in-process:
//!
//! * [`TransientBroker`] — the ActiveMQ profile: topic pub/sub, at-most-once,
//!   nothing persisted. Fast, but a crashed agent's history is gone, so SA
//!   recovery is impossible (exactly the trade-off Fig 14/16 explore).
//! * [`LogBroker`] — the Kafka profile: partitioned append-only logs with
//!   monotonically increasing offsets. Subscribers can attach from the
//!   beginning or any offset, and [`Broker::fetch`] supports the replay
//!   that §IV-B's fault-recovery mechanism is built on.
//!
//! Both implement the [`Broker`] trait, so the agent runtime and the
//! simulator are generic over the middleware — switching between the two
//! is the paper's Fig 14 experiment.
//!
//! Neither profile has to live in the caller's process: the [`wire`]
//! module defines the length-prefixed binary protocol `ginflow-net`'s
//! broker daemon speaks, and its client-side `RemoteBroker` implements
//! the same [`Broker`] trait over a TCP connection
//! ([`BrokerKind::Remote`]) — the membrane that lets one workflow span
//! multiple OS processes and hosts.
//!
//! Topics are **run-scoped** ([`namespace`]): every workflow run owns a
//! [`RunId`] and publishes under `run/<id>/…`, so one standing broker —
//! in-process or a long-lived daemon — serves any number of concurrent
//! or back-to-back runs without replaying one run's history into
//! another.
//!
//! The Kafka profile can be made **durable**: [`LogBroker::open`]
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
pub mod transient;
pub mod wire;

pub use broker::{
    bounded_subscription_pair, fnv1a, subscription_pair, Broker, LagProbe, Receipt, SubscribeMode,
    SubscriberHandle, Subscription,
};
pub use error::MqError;
pub use log::{partition_of, LogBroker};
pub use message::Message;
pub use namespace::{RunId, TopicNamespace};
pub use store::{DurabilityConfig, FsyncPolicy};
pub use transient::{TransientBroker, DEFAULT_QUEUE_CAPACITY};

use std::sync::Arc;

/// Middleware profile selector (the Fig 14 experiment axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BrokerKind {
    /// ActiveMQ-like transient pub/sub.
    Transient,
    /// Kafka-like persistent log.
    Log,
    /// A broker reached over TCP through `ginflow-net`'s [`wire`]
    /// protocol. Carries no address (the selector stays `Copy`);
    /// construct the client with `ginflow_net::RemoteBroker::connect`
    /// and hand it to whatever needs an `Arc<dyn Broker>`.
    Remote,
}

impl BrokerKind {
    /// Label used in reports ("activemq" / "kafka", matching the paper's
    /// terminology; "remote" for the network client).
    pub fn label(self) -> &'static str {
        match self {
            BrokerKind::Transient => "activemq",
            BrokerKind::Log => "kafka",
            BrokerKind::Remote => "remote",
        }
    }

    /// Instantiate the corresponding **in-process** broker.
    ///
    /// # Panics
    ///
    /// [`BrokerKind::Remote`] carries no address and cannot be built
    /// here — connect with `ginflow_net::RemoteBroker` instead.
    pub fn build(self) -> Arc<dyn Broker> {
        match self {
            BrokerKind::Transient => Arc::new(TransientBroker::new()),
            BrokerKind::Log => Arc::new(LogBroker::new()),
            BrokerKind::Remote => {
                panic!(
                    "BrokerKind::Remote carries no address; connect with \
                     ginflow_net::RemoteBroker and pass the Arc directly"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_brokers() {
        assert!(!BrokerKind::Transient.build().persistent());
        assert!(BrokerKind::Log.build().persistent());
        assert_eq!(BrokerKind::Transient.label(), "activemq");
        assert_eq!(BrokerKind::Log.label(), "kafka");
        assert_eq!(BrokerKind::Remote.label(), "remote");
    }
}
