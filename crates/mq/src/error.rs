//! Broker errors.

use std::fmt;

/// Everything the brokers can refuse to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MqError {
    /// Fetch/publish addressed a partition the topic does not have.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// The requested partition.
        partition: u32,
    },
    /// The broker is gone: a drained subscription whose broker-side
    /// handle was dropped (broker dropped or topic deleted), or a lost
    /// connection to a remote broker.
    Disconnected,
    /// Timed out waiting for a message.
    Timeout,
    /// A remote broker refused the request; the message is the server's
    /// rendering of its own error.
    Remote {
        /// Server-side error text.
        message: String,
    },
    /// The segment store refused or failed an operation (foreign or
    /// incompatible data dir, unrecoverable corruption, I/O failure).
    Store {
        /// What went wrong, with enough context to act on.
        message: String,
    },
    /// `flush()` gave up waiting for the pipeline to drain: the
    /// connection stayed severed (or the server stalled) past the
    /// flush timeout, with acknowledgements still outstanding. The
    /// publishes are not necessarily lost — a later flush after the
    /// connection heals reports the final ledger.
    FlushTimeout {
        /// Publishes still awaiting acknowledgement at expiry.
        inflight: u64,
        /// How long the flush waited, in milliseconds.
        waited_ms: u64,
    },
    /// A [`Broker::append_many`](crate::Broker::append_many) record
    /// would leave a gap: its offset is past its partition's end.
    OffsetGap {
        /// Topic name.
        topic: String,
        /// The record's partition.
        partition: u32,
        /// The record's offset.
        offset: u64,
        /// The partition's end: the offset its next record takes.
        end: u64,
    },
    /// A [`Broker::append_many`](crate::Broker::append_many) record's
    /// offset is below its partition's end, and the record there is
    /// another: a second writer moved the end.
    OffsetTaken {
        /// Topic name.
        topic: String,
        /// The record's partition.
        partition: u32,
        /// The record's offset.
        offset: u64,
    },
    /// A run id or task name was rejected at the topic boundary (empty,
    /// or containing a path separator / whitespace) — publishing under
    /// it would silently collide or split namespaces.
    InvalidTopic {
        /// What kind of segment was rejected ("run id", "task name").
        what: &'static str,
        /// The offending value.
        name: String,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for MqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqError::UnknownPartition { topic, partition } => {
                write!(f, "topic {topic:?} has no partition {partition}")
            }
            MqError::Disconnected => f.write_str("broker disconnected"),
            MqError::Timeout => f.write_str("timed out waiting for a message"),
            MqError::Remote { message } => write!(f, "remote broker: {message}"),
            MqError::Store { message } => write!(f, "segment store: {message}"),
            MqError::FlushTimeout {
                inflight,
                waited_ms,
            } => {
                write!(
                    f,
                    "flush timed out after {waited_ms} ms with {inflight} \
                     publish(es) still unacknowledged"
                )
            }
            MqError::OffsetGap {
                topic,
                partition,
                offset,
                end,
            } => write!(
                f,
                "offset {offset} of {topic:?} partition {partition} is past its end {end}"
            ),
            MqError::OffsetTaken {
                topic,
                partition,
                offset,
            } => write!(
                f,
                "offset {offset} of {topic:?} partition {partition} holds another record"
            ),
            MqError::InvalidTopic { what, name, reason } => {
                write!(f, "invalid {what} {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for MqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(MqError::UnknownPartition {
            topic: "t".into(),
            partition: 3
        }
        .to_string()
        .contains('3'));
        let invalid = MqError::InvalidTopic {
            what: "run id",
            name: "a/b".into(),
            reason: "must not contain '/'",
        }
        .to_string();
        assert!(invalid.contains("run id"), "{invalid}");
        assert!(invalid.contains("a/b"), "{invalid}");
        let flush = MqError::FlushTimeout {
            inflight: 7,
            waited_ms: 1500,
        }
        .to_string();
        assert!(flush.contains("7") && flush.contains("1500"), "{flush}");
        let store = MqError::Store {
            message: "schema version 2, this build supports 1".into(),
        }
        .to_string();
        assert!(store.contains("segment store"), "{store}");
    }
}
