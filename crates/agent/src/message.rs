//! Wire messages between service agents, and the status updates sent "to
//! the multiset so as to update the status of the workflow" (§IV-A).
//!
//! Topic *names* live in [`ginflow_mq::TopicNamespace`]: every message
//! here travels on a run-scoped topic — an [`SaMessage`] on the run's
//! inbox `run/<id>/sa.inbox`, keyed by its destination task, a
//! [`StatusUpdate`] on `run/<id>/status` — so concurrent runs on one
//! broker never see each other's traffic.
//!
//! ## Encoding
//!
//! Both message types encode to a compact length-prefixed **binary**
//! format (first byte [`CODEC_MAGIC`]), keeping serde_json off the
//! per-message hot path: a status update is a handful of `memcpy`s
//! instead of a JSON object build + render, and decode walks the bytes
//! directly instead of parsing text. A payload that does not start with
//! the magic byte — an empty payload, foreign noise on a shared
//! broker — decodes to `None`. Values ([`Value`] atoms) are
//! encoded structurally; the rare higher-order `Rule` atom falls back to an
//! embedded JSON leaf rather than growing a second codec for rule
//! internals.

use ginflow_core::{TaskState, Value};

/// First byte of every encoded message.
pub const CODEC_MAGIC: u8 = 0xB1;

/// Point-to-point message between service agents.
#[derive(Clone, Debug, PartialEq)]
pub enum SaMessage {
    /// A produced result shipped from one agent to a successor — the
    /// decentralised `gw_pass`.
    Result {
        /// Producing task.
        from: String,
        /// The result value.
        value: Value,
    },
    /// The `ADAPT : k` token: enables the receiver's gated adaptation
    /// rules (`add_dst`, `mv_src`).
    Adapt {
        /// Adaptation id.
        adaptation: u32,
    },
    /// The `TRIGGER : k` token: activates a standby replacement agent.
    Trigger {
        /// Adaptation id.
        adaptation: u32,
    },
}

impl SaMessage {
    /// Serialise to compact binary bytes for the broker.
    pub fn encode(&self) -> bytes::Bytes {
        let mut buf = Vec::with_capacity(32);
        buf.push(CODEC_MAGIC);
        match self {
            SaMessage::Result { from, value } => {
                buf.push(0x01);
                put_str(&mut buf, from);
                put_value(&mut buf, value);
            }
            SaMessage::Adapt { adaptation } => {
                buf.push(0x02);
                buf.extend_from_slice(&adaptation.to_be_bytes());
            }
            SaMessage::Trigger { adaptation } => {
                buf.push(0x03);
                buf.extend_from_slice(&adaptation.to_be_bytes());
            }
        }
        bytes::Bytes::from(buf)
    }

    /// Deserialise from broker payload bytes; `None` for anything that
    /// is not a well-formed encoding.
    pub fn decode(payload: &[u8]) -> Option<SaMessage> {
        let mut r = Reader::new(payload.strip_prefix(&[CODEC_MAGIC])?);
        let message = match r.u8()? {
            0x01 => SaMessage::Result {
                from: r.str()?,
                value: r.value(0)?,
            },
            0x02 => SaMessage::Adapt {
                adaptation: r.u32()?,
            },
            0x03 => SaMessage::Trigger {
                adaptation: r.u32()?,
            },
            _ => return None,
        };
        r.finish().then_some(message)
    }
}

/// Status update published to the shared status topic — the runtime's view
/// of the "shared multiset" execution state (Fig 1's coloured nodes).
#[derive(Clone, Debug, PartialEq)]
pub struct StatusUpdate {
    /// Task name.
    pub task: String,
    /// Current lifecycle state.
    pub state: TaskState,
    /// The result value, once completed.
    pub result: Option<Value>,
    /// Incarnation number (0 = first SA, bumped on every respawn).
    pub incarnation: u32,
}

impl StatusUpdate {
    /// Serialise to compact binary bytes for the broker.
    pub fn encode(&self) -> bytes::Bytes {
        let mut buf = Vec::with_capacity(32);
        buf.push(CODEC_MAGIC);
        buf.push(0x10);
        put_str(&mut buf, &self.task);
        buf.push(state_tag(self.state));
        buf.extend_from_slice(&self.incarnation.to_be_bytes());
        match &self.result {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                put_value(&mut buf, v);
            }
        }
        bytes::Bytes::from(buf)
    }

    /// Deserialise from broker payload bytes; `None` for anything that
    /// is not a well-formed encoding.
    pub fn decode(payload: &[u8]) -> Option<StatusUpdate> {
        let mut r = Reader::new(payload.strip_prefix(&[CODEC_MAGIC])?);
        if r.u8()? != 0x10 {
            return None;
        }
        let task = r.str()?;
        let state = state_from_tag(r.u8()?)?;
        let incarnation = r.u32()?;
        let result = match r.u8()? {
            0 => None,
            1 => Some(r.value(0)?),
            _ => return None,
        };
        r.finish().then_some(StatusUpdate {
            task,
            state,
            result,
            incarnation,
        })
    }
}

fn state_tag(state: TaskState) -> u8 {
    match state {
        TaskState::Idle => 0,
        TaskState::Running => 1,
        TaskState::Completed => 2,
        TaskState::Failed => 3,
    }
}

fn state_from_tag(tag: u8) -> Option<TaskState> {
    Some(match tag {
        0 => TaskState::Idle,
        1 => TaskState::Running,
        2 => TaskState::Completed,
        3 => TaskState::Failed,
        _ => return None,
    })
}

/// Deepest [`Value`] nesting the decoder will follow — bounds stack use
/// against a corrupt payload; real workflow values are a few levels.
const MAX_VALUE_DEPTH: u8 = 64;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Structural [`Value`] encoding. Tags 0–7 cover every value workflows
/// actually ship; the higher-order `Rule` atom (tag 8) embeds its JSON
/// rendering as a leaf.
fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(v) => {
            buf.push(0);
            buf.extend_from_slice(&v.to_be_bytes());
        }
        Value::Float(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
        Value::Bool(v) => {
            buf.push(3);
            buf.push(u8::from(*v));
        }
        Value::Sym(s) => {
            buf.push(4);
            put_str(buf, s.as_str());
        }
        Value::Tuple(elems) => {
            buf.push(5);
            buf.extend_from_slice(&(elems.len() as u32).to_be_bytes());
            for e in elems {
                put_value(buf, e);
            }
        }
        Value::List(elems) => {
            buf.push(6);
            buf.extend_from_slice(&(elems.len() as u32).to_be_bytes());
            for e in elems {
                put_value(buf, e);
            }
        }
        Value::Sub(ms) => {
            buf.push(7);
            buf.extend_from_slice(&(ms.len() as u32).to_be_bytes());
            for e in ms.iter() {
                put_value(buf, e);
            }
        }
        rule @ Value::Rule(_) => {
            buf.push(8);
            let json = serde_json::to_vec(rule).expect("rule serialisation");
            buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
            buf.extend_from_slice(&json);
        }
    }
}

/// Cursor over a binary payload: a thin `Option`-returning wrapper
/// around the workspace's one truncation-checked byte reader
/// ([`ginflow_mq::wire::Reader`]), so this codec and the wire codec
/// cannot drift apart on corruption handling. Every accessor returns
/// `None` on truncation or a bad tag, so a corrupt payload decodes to
/// `None` rather than panicking.
struct Reader<'a>(ginflow_mq::wire::Reader<'a>);

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader(ginflow_mq::wire::Reader::new(body))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        self.0.take(n).ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.0.u8().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.0.u32().ok()
    }

    fn u64(&mut self) -> Option<u64> {
        self.0.u64().ok()
    }

    fn str(&mut self) -> Option<String> {
        self.0.str().ok()
    }

    /// A `count` of sub-values claiming more than could fit in the
    /// remaining bytes (every value is ≥ 1 byte) is corrupt.
    fn count(&mut self) -> Option<usize> {
        let count = self.u32()? as usize;
        (count <= self.0.remaining()).then_some(count)
    }

    fn value(&mut self, depth: u8) -> Option<Value> {
        if depth >= MAX_VALUE_DEPTH {
            return None;
        }
        Some(match self.u8()? {
            0 => Value::Int(i64::from_be_bytes(self.take(8)?.try_into().ok()?)),
            1 => Value::Float(f64::from_bits(self.u64()?)),
            2 => Value::Str(self.str()?),
            3 => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                _ => return None,
            },
            4 => Value::sym(self.str()?),
            5 => {
                let count = self.count()?;
                let mut elems = Vec::with_capacity(count);
                for _ in 0..count {
                    elems.push(self.value(depth + 1)?);
                }
                Value::Tuple(elems)
            }
            6 => {
                let count = self.count()?;
                let mut elems = Vec::with_capacity(count);
                for _ in 0..count {
                    elems.push(self.value(depth + 1)?);
                }
                Value::List(elems)
            }
            7 => {
                let count = self.count()?;
                let mut elems = Vec::with_capacity(count);
                for _ in 0..count {
                    elems.push(self.value(depth + 1)?);
                }
                Value::sub(elems)
            }
            8 => {
                let len = self.u32()? as usize;
                let rule: Value = serde_json::from_slice(self.take(len)?).ok()?;
                rule.is_rule().then_some(rule)?
            }
            _ => return None,
        })
    }

    /// Whole payload consumed? Trailing garbage means the peer and we
    /// disagree about the layout — corruption, not leniency.
    fn finish(&self) -> bool {
        self.0.is_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa_message_roundtrip() {
        for m in [
            SaMessage::Result {
                from: "T1".into(),
                value: Value::str("out"),
            },
            SaMessage::Result {
                from: "T2".into(),
                value: Value::tuple([
                    Value::sym("SRC"),
                    Value::list([Value::int(-7), Value::float(1.5), Value::bool(true)]),
                    Value::sub([Value::str("nested")]),
                ]),
            },
            SaMessage::Adapt { adaptation: 3 },
            SaMessage::Trigger { adaptation: 0 },
        ] {
            let bytes = m.encode();
            assert_eq!(bytes[0], CODEC_MAGIC, "binary format is the default");
            assert_eq!(SaMessage::decode(&bytes), Some(m));
        }
        assert_eq!(SaMessage::decode(b"not json"), None);
    }

    #[test]
    fn status_roundtrip() {
        let s = StatusUpdate {
            task: "T4".into(),
            state: TaskState::Completed,
            result: Some(Value::str("final")),
            incarnation: 2,
        };
        assert_eq!(StatusUpdate::decode(&s.encode()), Some(s));
        let no_result = StatusUpdate {
            task: "T1".into(),
            state: TaskState::Running,
            result: None,
            incarnation: 0,
        };
        assert_eq!(StatusUpdate::decode(&no_result.encode()), Some(no_result));
    }

    #[test]
    fn truncated_binary_is_rejected_not_panicked() {
        let bytes = SaMessage::Result {
            from: "T1".into(),
            value: Value::tuple([Value::int(1), Value::str("x")]),
        }
        .encode();
        for cut in 1..bytes.len() {
            assert_eq!(SaMessage::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is corruption too.
        let mut longer = bytes.to_vec();
        longer.push(0xff);
        assert_eq!(SaMessage::decode(&longer), None);
    }

    #[test]
    fn empty_payload_is_not_a_message() {
        // Nothing the runtime publishes is empty; an empty payload is
        // noise and must decode to None.
        assert_eq!(StatusUpdate::decode(b""), None);
        assert_eq!(SaMessage::decode(b""), None);
    }
}
