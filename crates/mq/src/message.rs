//! Messages flowing through the brokers.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// One delivered message.
///
/// Cloning is cheap by construction — fan-out to N subscribers clones
/// three reference counts, never the bytes: the topic is a shared
/// `Arc<str>` (brokers keep one per topic and hand out clones), and key
/// and payload are [`Bytes`]. A message the [`LogBroker`](crate::LogBroker)
/// replays or fetches is built fresh instead: its key and payload are
/// copied out of the log, which keeps records as bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Message {
    /// Topic the message was published to.
    pub topic: Arc<str>,
    /// Partition within the topic.
    pub partition: u32,
    /// Offset within the partition: dense, and stable for the log's
    /// lifetime.
    pub offset: u64,
    /// Optional routing key (hashes to a partition on the log broker).
    pub key: Option<Bytes>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Message {
    /// Payload as UTF-8 (diagnostics).
    pub fn payload_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.payload)
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message({}/{}@{} {} bytes)",
            self.topic,
            self.partition,
            self.offset,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_and_str() {
        let m = Message {
            topic: "sa.T1".into(),
            partition: 0,
            offset: 7,
            key: None,
            payload: Bytes::from_static(b"hello"),
        };
        assert_eq!(m.payload_str(), "hello");
        assert_eq!(format!("{m:?}"), "Message(sa.T1/0@7 5 bytes)");
    }
}
