//! The length-prefixed binary wire protocol spoken between
//! `ginflow-net`'s broker daemon and its [`Broker`](crate::Broker)
//! clients.
//!
//! Every frame is `u32_be body_len` followed by `body_len` body bytes;
//! the body starts with a one-byte opcode. Bodies larger than
//! [`MAX_FRAME`] are rejected on both encode and decode so a corrupt or
//! hostile peer cannot force an unbounded allocation. Every reader of
//! the format — both event loops, the fault relay, [`read_frame`] —
//! applies that framing rule through the one [`FrameSplitter`].
//!
//! ```text
//! frame      := len:u32_be body                (len = body byte count)
//! body       := opcode:u8 fields…
//!
//! primitives:
//!   u8 / u32 / u64     big-endian
//!   bytes              len:u32_be raw-bytes
//!   str                bytes (UTF-8)
//!   opt_bytes          present:u8 [bytes]      (0 = absent, 1 = present)
//!   mode               tag:u8 [offset:u64]     (0 = Latest, 1 = Beginning,
//!                                               2 = FromOffset(offset))
//!   message            topic:str partition:u32 offset:u64
//!                      key:opt_bytes payload:bytes
//!
//! client → server (seq correlates the server's reply; UNSUBSCRIBE is
//! fire-and-forget — its seq is ignored and nothing is replied):
//!   0x01 PUBLISH       seq:u64 topic:str key:opt_bytes payload:bytes
//!   0x02 SUBSCRIBE     seq:u64 topic:str mode
//!   0x03 UNSUBSCRIBE   seq:u64 sub:u64
//!   0x04 FETCH         seq:u64 topic:str partition:u32 from:u64 max:u32
//!   0x05 INFO          seq:u64 topic:str
//!   0x06 RUN_LIST      seq:u64
//!   0x07 RUN_CLOSE     seq:u64 run:str
//!   0x08 RUN_GC        seq:u64
//!   0x09 STATS         seq:u64
//!   0x0A APPEND        seq:u64 message
//!                      (the only writer's record, at the partition and
//!                       offset it numbered: appended at the partition's
//!                       end; below it, acked if the record there is the
//!                       same and refused with ERROR if not; past it,
//!                       refused with a RECEIPT_LIST naming the end)
//!
//! server → client:
//!   0x82 SUBSCRIBED    seq:u64 sub:u64 resume:u64
//!   0x83 MESSAGES      seq:u64 count:u32 message…
//!   0x84 INFO_REPLY    seq:u64 persistent:u8 partitions:u32 retained:u64
//!   0x85 ERROR         seq:u64 message:str
//!   0x86 RUN_LIST_REPLY seq:u64 count:u32 run_stat…
//!   0x87 RUN_GC_REPLY  seq:u64 runs:u32 topics:u32
//!   0x88 STATS_REPLY   seq:u64 count:u32 stat_row…
//!                      (the daemon's full metrics snapshot, flattened)
//!   0x91 EVENTS        sub:u64 count:u32 message…
//!                      (push: what one drain of a subscription took,
//!                       one message or many)
//!   0x93 RECEIPT_LIST  seq_first:u64 count:u32 (partition:u32 offset:u64)×count
//!                      (ack: count consecutive publishes, seqs
//!                       seq_first…, each with its own partition and
//!                       offset; count ≤ MAX_RECEIPT_RUN)
//!
//! Each direction of delivery has one frame. The daemon acks the
//! consecutive publishes of one read turn with one RECEIPT_LIST,
//! whatever their topics — a lone blocking publish gets a list of one —
//! and pushes what one drain of a subscription took as one EVENTS,
//! however few. Opcodes 0x81, 0x90 and 0x92 are retired: they decode as
//! unknown.
//!
//! run_stat := run:str topics:u32 retained:u64 completed:u8
//! stat_row := name:str label:str value:u64    (label empty = unlabelled)
//! ```
//!
//! The `RUN_*` verbs are the daemon's run registry (topics are
//! run-scoped, `run/<id>/…` — see [`crate::namespace`]): list the runs
//! the daemon has seen with their per-run topic accounting, mark a run
//! completed, and garbage-collect completed runs' topics so a standing
//! daemon does not grow without bound.

use crate::broker::{Receipt, SubscribeMode};
use crate::message::Message;
pub use crate::metrics::StatRow;
use bytes::Bytes;
use std::fmt;
use std::io::{Read, Write};

/// Largest accepted frame body, bytes. Large enough for any workflow
/// payload this repo ships, small enough that a corrupt length prefix
/// cannot OOM the peer.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Sentinel `resume` value in SUBSCRIBED: no resume watermark is
/// available (a multi-partition topic, whose position cannot be
/// expressed as one offset).
pub const NO_RESUME: u64 = u64::MAX;

/// Largest receipt run one RECEIPT_LIST frame may acknowledge: twelve
/// bytes a receipt keep a full list (6 MiB) under [`MAX_FRAME`], so the
/// daemon, which flushes its run at this bound, always encodes it. A
/// cooperating server flushes long before (a run never outlives the read
/// turn of at most a few MiB of publishes that made it).
pub const MAX_RECEIPT_RUN: u32 = 1 << 19;

/// What the codec can refuse.
#[derive(Debug)]
pub enum WireError {
    /// The frame body ended before its fields did (or the stream died
    /// mid-frame).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// A `str` field was not UTF-8.
    BadUtf8,
    /// A `mode` or `opt_bytes` tag byte was invalid.
    BadTag(u8),
    /// Underlying socket error.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadUtf8 => f.write_str("string field is not UTF-8"),
            WireError::BadTag(tag) => write!(f, "invalid tag byte 0x{tag:02x}"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One run's row in [`Frame::RunListReply`]: the daemon's per-run topic
/// accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStat {
    /// The run id (the `<id>` of its `run/<id>/…` topics).
    pub run: String,
    /// Topics currently accounted to the run.
    pub topics: u32,
    /// Retained messages across those topics.
    pub retained: u64,
    /// Has the run been marked completed ([`Frame::RunClose`])?
    /// Completed runs are reclaimable by [`Frame::RunGc`].
    pub completed: bool,
}

/// One protocol frame. Client→server frames carry a `seq` the server
/// echoes in its reply; [`Frame::Events`] is the unsolicited push path.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Publish `payload` to `topic` (client → server).
    Publish {
        /// Correlation id.
        seq: u64,
        /// Target topic.
        topic: String,
        /// Optional partition-routing key.
        key: Option<Bytes>,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Open a subscription (client → server).
    Subscribe {
        /// Correlation id.
        seq: u64,
        /// Topic to subscribe to.
        topic: String,
        /// Where the subscription starts.
        mode: SubscribeMode,
    },
    /// Close a subscription (client → server).
    Unsubscribe {
        /// Correlation id.
        seq: u64,
        /// Server-assigned subscription id.
        sub: u64,
    },
    /// Read retained messages without subscribing (client → server).
    Fetch {
        /// Correlation id.
        seq: u64,
        /// Topic to read.
        topic: String,
        /// Partition to read.
        partition: u32,
        /// First offset to return.
        from: u64,
        /// Maximum message count.
        max: u32,
    },
    /// Ask for a topic's metadata and the broker's persistence
    /// (client → server).
    Info {
        /// Correlation id.
        seq: u64,
        /// Topic asked about (may be empty: broker-level info only).
        topic: String,
    },
    /// List every run the daemon's registry knows (client → server).
    RunList {
        /// Correlation id.
        seq: u64,
    },
    /// Mark a run completed so retention GC may reclaim its topics
    /// (client → server). Idempotent.
    RunClose {
        /// Correlation id.
        seq: u64,
        /// The run to mark.
        run: String,
    },
    /// Reclaim every completed run's topics now (client → server).
    RunGc {
        /// Correlation id.
        seq: u64,
    },
    /// Ask for the daemon's metrics snapshot (client → server) — the
    /// operator surface `ginflow broker top` polls.
    Stats {
        /// Correlation id.
        seq: u64,
    },
    /// Append a record its topic's only writer numbered (client →
    /// server): at `record.offset` of `record.partition`, if that is the
    /// partition's end. Below the end the same record is in the log
    /// already; another record there refuses it with an
    /// [`Frame::Error`]. Past the end it is refused too. Acked like a
    /// publish, in a [`Frame::ReceiptList`]: the receipt's offset is the
    /// record's when the record is in the log, the partition's end when
    /// it would leave a gap.
    Append {
        /// Correlation id.
        seq: u64,
        /// The record: topic, partition, offset, key and payload.
        record: Message,
    },
    /// Acknowledgement of consecutive publishes, each with its own
    /// receipt (server → client): seqs `seq_first..seq_first + n` for
    /// the `n` receipts, in order — the one ack frame, whether it
    /// answers a lone blocking publish or a read turn's pipelined storm.
    ReceiptList {
        /// Correlation id of the first publish acknowledged.
        seq_first: u64,
        /// Where each publish landed (≥ 1 from a well-formed server;
        /// decode rejects more than [`MAX_RECEIPT_RUN`]).
        receipts: Vec<Receipt>,
    },
    /// Subscription opened (server → client).
    Subscribed {
        /// Echoed correlation id.
        seq: u64,
        /// Subscription id future [`Frame::Events`] carry.
        sub: u64,
        /// The topic's retained-message count sampled *before* the
        /// subscription attached, or [`NO_RESUME`] when no watermark is
        /// available (a multi-partition topic). A
        /// head-attached (`Latest`) subscriber that later reconnects
        /// resumes from here, so messages published during the outage
        /// replay from the log instead of being lost. Single-partition
        /// contract, like `SubscribeMode::FromOffset` itself.
        resume: u64,
    },
    /// Fetch result (server → client).
    Messages {
        /// Echoed correlation id.
        seq: u64,
        /// The fetched messages.
        messages: Vec<Message>,
    },
    /// Info result (server → client).
    InfoReply {
        /// Echoed correlation id.
        seq: u64,
        /// Does the broker retain messages? Every broker does: a server
        /// sends 1, and a client ignores the byte.
        persistent: bool,
        /// Partition count of the asked topic.
        partitions: u32,
        /// Retained message count of the asked topic.
        retained: u64,
    },
    /// Run listing (server → client).
    RunListReply {
        /// Echoed correlation id.
        seq: u64,
        /// Per-run accounting rows.
        runs: Vec<RunStat>,
    },
    /// Ack of [`Frame::RunClose`] / [`Frame::RunGc`] (server → client):
    /// how many runs and topics the operation affected.
    RunGcReply {
        /// Echoed correlation id.
        seq: u64,
        /// Runs marked (close) or reclaimed (gc).
        runs: u32,
        /// Topics dropped (always 0 for close).
        topics: u32,
    },
    /// The daemon's flattened metrics snapshot (server → client): the
    /// same rows its `/metrics` endpoint renders, in wire form.
    StatsReply {
        /// Echoed correlation id.
        seq: u64,
        /// `(name, label, value)` rows, sorted by `(name, label)`.
        stats: Vec<StatRow>,
    },
    /// The request failed (server → client).
    Error {
        /// Echoed correlation id.
        seq: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Push delivery on an open subscription (server → client,
    /// unsolicited): what one drain of the subscription took, in one
    /// frame — one encode and one syscall per *wakeup* instead of one
    /// per message.
    Events {
        /// Subscription id from [`Frame::Subscribed`].
        sub: u64,
        /// The delivered messages, in delivery order.
        messages: Vec<Message>,
    },
}

// --- encoding ---------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_opt_bytes(buf: &mut Vec<u8>, b: &Option<Bytes>) {
    match b {
        None => buf.push(0),
        Some(b) => {
            buf.push(1);
            put_bytes(buf, b);
        }
    }
}

fn put_mode(buf: &mut Vec<u8>, mode: SubscribeMode) {
    match mode {
        SubscribeMode::Latest => buf.push(0),
        SubscribeMode::Beginning => buf.push(1),
        SubscribeMode::FromOffset(o) => {
            buf.push(2);
            put_u64(buf, o);
        }
    }
}

fn put_message(buf: &mut Vec<u8>, m: &Message) {
    put_str(buf, &m.topic);
    put_u32(buf, m.partition);
    put_u64(buf, m.offset);
    put_opt_bytes(buf, &m.key);
    put_bytes(buf, &m.payload);
}

impl Frame {
    /// Serialise into a complete frame (length prefix included).
    /// Fails with [`WireError::Oversized`] when the body would exceed
    /// [`MAX_FRAME`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(64);
        put_u32(&mut buf, 0); // length placeholder
        match self {
            Frame::Publish {
                seq,
                topic,
                key,
                payload,
            } => {
                buf.push(0x01);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, topic);
                put_opt_bytes(&mut buf, key);
                put_bytes(&mut buf, payload);
            }
            Frame::Subscribe { seq, topic, mode } => {
                buf.push(0x02);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, topic);
                put_mode(&mut buf, *mode);
            }
            Frame::Unsubscribe { seq, sub } => {
                buf.push(0x03);
                put_u64(&mut buf, *seq);
                put_u64(&mut buf, *sub);
            }
            Frame::Fetch {
                seq,
                topic,
                partition,
                from,
                max,
            } => {
                buf.push(0x04);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, topic);
                put_u32(&mut buf, *partition);
                put_u64(&mut buf, *from);
                put_u32(&mut buf, *max);
            }
            Frame::Info { seq, topic } => {
                buf.push(0x05);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, topic);
            }
            Frame::RunList { seq } => {
                buf.push(0x06);
                put_u64(&mut buf, *seq);
            }
            Frame::RunClose { seq, run } => {
                buf.push(0x07);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, run);
            }
            Frame::RunGc { seq } => {
                buf.push(0x08);
                put_u64(&mut buf, *seq);
            }
            Frame::Stats { seq } => {
                buf.push(0x09);
                put_u64(&mut buf, *seq);
            }
            Frame::Append { seq, record } => {
                buf.push(0x0A);
                put_u64(&mut buf, *seq);
                put_message(&mut buf, record);
            }
            Frame::Subscribed { seq, sub, resume } => {
                buf.push(0x82);
                put_u64(&mut buf, *seq);
                put_u64(&mut buf, *sub);
                put_u64(&mut buf, *resume);
            }
            Frame::Messages { seq, messages } => {
                buf.push(0x83);
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, messages.len() as u32);
                for m in messages {
                    put_message(&mut buf, m);
                }
            }
            Frame::InfoReply {
                seq,
                persistent,
                partitions,
                retained,
            } => {
                buf.push(0x84);
                put_u64(&mut buf, *seq);
                buf.push(u8::from(*persistent));
                put_u32(&mut buf, *partitions);
                put_u64(&mut buf, *retained);
            }
            Frame::Error { seq, message } => {
                buf.push(0x85);
                put_u64(&mut buf, *seq);
                put_str(&mut buf, message);
            }
            Frame::RunListReply { seq, runs } => {
                buf.push(0x86);
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, runs.len() as u32);
                for r in runs {
                    put_str(&mut buf, &r.run);
                    put_u32(&mut buf, r.topics);
                    put_u64(&mut buf, r.retained);
                    buf.push(u8::from(r.completed));
                }
            }
            Frame::RunGcReply { seq, runs, topics } => {
                buf.push(0x87);
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, *runs);
                put_u32(&mut buf, *topics);
            }
            Frame::StatsReply { seq, stats } => {
                buf.push(0x88);
                put_u64(&mut buf, *seq);
                put_u32(&mut buf, stats.len() as u32);
                for row in stats {
                    put_str(&mut buf, &row.name);
                    put_str(&mut buf, &row.label);
                    put_u64(&mut buf, row.value);
                }
            }
            Frame::ReceiptList {
                seq_first,
                receipts,
            } => {
                buf.push(0x93);
                put_u64(&mut buf, *seq_first);
                put_u32(&mut buf, receipts.len() as u32);
                for r in receipts {
                    put_u32(&mut buf, r.partition);
                    put_u64(&mut buf, r.offset);
                }
            }
            Frame::Events { sub, messages } => {
                buf.push(0x91);
                put_u64(&mut buf, *sub);
                put_u32(&mut buf, messages.len() as u32);
                for m in messages {
                    put_message(&mut buf, m);
                }
            }
        }
        let body_len = buf.len() - 4;
        if body_len > MAX_FRAME {
            return Err(WireError::Oversized { len: body_len });
        }
        buf[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
        Ok(buf)
    }

    /// Decode one frame *body* (the bytes after the length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        if body.len() > MAX_FRAME {
            return Err(WireError::Oversized { len: body.len() });
        }
        let mut r = Reader::new(body);
        let opcode = r.u8()?;
        let frame = match opcode {
            0x01 => Frame::Publish {
                seq: r.u64()?,
                topic: r.str()?,
                key: r.opt_bytes()?,
                payload: r.bytes()?,
            },
            0x02 => Frame::Subscribe {
                seq: r.u64()?,
                topic: r.str()?,
                mode: r.mode()?,
            },
            0x03 => Frame::Unsubscribe {
                seq: r.u64()?,
                sub: r.u64()?,
            },
            0x04 => Frame::Fetch {
                seq: r.u64()?,
                topic: r.str()?,
                partition: r.u32()?,
                from: r.u64()?,
                max: r.u32()?,
            },
            0x05 => Frame::Info {
                seq: r.u64()?,
                topic: r.str()?,
            },
            0x06 => Frame::RunList { seq: r.u64()? },
            0x07 => Frame::RunClose {
                seq: r.u64()?,
                run: r.str()?,
            },
            0x08 => Frame::RunGc { seq: r.u64()? },
            0x09 => Frame::Stats { seq: r.u64()? },
            0x0A => Frame::Append {
                seq: r.u64()?,
                record: r.message()?,
            },
            0x82 => Frame::Subscribed {
                seq: r.u64()?,
                sub: r.u64()?,
                resume: r.u64()?,
            },
            0x83 => Frame::Messages {
                seq: r.u64()?,
                messages: r.counted(17, Reader::message)?,
            },
            0x84 => Frame::InfoReply {
                seq: r.u64()?,
                persistent: r.bool()?,
                partitions: r.u32()?,
                retained: r.u64()?,
            },
            0x85 => Frame::Error {
                seq: r.u64()?,
                message: r.str()?,
            },
            0x86 => Frame::RunListReply {
                seq: r.u64()?,
                runs: r.counted(17, |r| {
                    Ok(RunStat {
                        run: r.str()?,
                        topics: r.u32()?,
                        retained: r.u64()?,
                        completed: r.bool()?,
                    })
                })?,
            },
            0x87 => Frame::RunGcReply {
                seq: r.u64()?,
                runs: r.u32()?,
                topics: r.u32()?,
            },
            0x88 => Frame::StatsReply {
                seq: r.u64()?,
                stats: r.counted(16, |r| {
                    Ok(StatRow {
                        name: r.str()?,
                        label: r.str()?,
                        value: r.u64()?,
                    })
                })?,
            },
            0x93 => {
                let seq_first = r.u64()?;
                let count = r.u32()?;
                // Twelve bytes a receipt: a count the body cannot hold
                // is refused before anything is allocated for it.
                if count > MAX_RECEIPT_RUN || count as usize * 12 > r.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut receipts = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    receipts.push(Receipt {
                        partition: r.u32()?,
                        offset: r.u64()?,
                    });
                }
                Frame::ReceiptList {
                    seq_first,
                    receipts,
                }
            }
            0x91 => Frame::Events {
                sub: r.u64()?,
                messages: r.counted(17, Reader::message)?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        if !r.is_exhausted() {
            // Trailing garbage means the peer and we disagree about the
            // frame layout — treat as corruption, not leniency.
            return Err(WireError::Truncated);
        }
        Ok(frame)
    }
}

/// Write one frame to a stream (a single `write_all`; callers flush).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let buf = frame.encode()?;
    w.write_all(&buf)?;
    Ok(())
}

/// Read one frame from a stream. `Ok(None)` on a clean EOF at a frame
/// boundary; [`WireError::Truncated`] when the stream dies mid-frame.
/// Takes exactly the frame's bytes off `r`, never a byte of the next.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut splitter = FrameSplitter::default();
    let mut chunk = [0u8; 4096];
    loop {
        let missing = splitter.missing()?;
        if missing == 0 {
            return splitter.next_frame();
        }
        let want = missing.min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) if splitter.is_empty() => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => splitter.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

/// The framing rule, incrementally: bytes pushed in whatever chunks the
/// socket delivers them come out as complete frames. This is the one
/// place a length prefix is parsed and held against [`MAX_FRAME`] — as
/// soon as the four prefix bytes are in, before any body is waited for,
/// so a corrupt prefix cannot make a reader buffer toward 4 GiB.
///
/// Frames are handed out from behind a read cursor; the consumed prefix
/// is reclaimed by the next [`FrameSplitter::push`] — one `memmove` of
/// the unparsed tail per read turn, not one per frame.
#[derive(Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
    /// `buf[..at]` has been handed out.
    at: usize,
}

impl FrameSplitter {
    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// No unconsumed byte is buffered: the stream stands at a frame
    /// boundary.
    pub fn is_empty(&self) -> bool {
        self.at == self.buf.len()
    }

    /// Whole length (prefix included) of the frame at the cursor, once
    /// its prefix is in.
    fn frame_len(&self) -> Result<Option<usize>, WireError> {
        let Some(prefix) = self.buf[self.at..].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        Ok(Some(4 + len))
    }

    /// Bytes still to arrive before the frame at the cursor is complete
    /// (`0`: it can be taken).
    pub fn missing(&self) -> Result<usize, WireError> {
        let have = self.buf.len() - self.at;
        Ok(self.frame_len()?.unwrap_or(4).saturating_sub(have))
    }

    /// Take the next complete frame undecoded, length prefix included —
    /// what a relay forwards. `Ok(None)`: more bytes are needed.
    pub fn next_raw(&mut self) -> Result<Option<&[u8]>, WireError> {
        let start = self.at;
        match self.frame_len()? {
            Some(len) if self.buf.len() - start >= len => {
                self.at += len;
                Ok(Some(&self.buf[start..self.at]))
            }
            _ => Ok(None),
        }
    }

    /// Take and decode the next complete frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match self.next_raw()? {
            Some(raw) => Frame::decode(&raw[4..]).map(Some),
            None => Ok(None),
        }
    }
}

/// Truncation-checked cursor over a length-prefixed binary body.
///
/// Public because it is the one bounds-checked byte reader of the
/// workspace: sibling binary codecs (the agent message codec) build on
/// these primitives instead of growing parallel implementations whose
/// corruption checks could drift apart.
pub struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Cursor over `body`, positioned at the start.
    pub fn new(body: &'a [u8]) -> Self {
        Reader { body, at: 0 }
    }

    /// Consume the next `n` bytes; [`WireError::Truncated`] when fewer
    /// remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.body.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed byte field.
    pub fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// Length-prefixed UTF-8 string field.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    /// Bytes not yet consumed — the bound for element-count sanity
    /// checks (a count claiming more elements than bytes is corrupt).
    pub fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    /// Has the whole body been consumed? Trailing garbage means the
    /// peer and we disagree about the layout — corruption, not
    /// leniency.
    pub fn is_exhausted(&self) -> bool {
        self.at == self.body.len()
    }

    /// A `0/1` flag byte.
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    /// `count:u32 element…`. Every element is at least `min_len` bytes
    /// on the wire, so a count claiming more than fits in the body is
    /// corrupt — refused before anything is allocated for it.
    fn counted<T>(
        &mut self,
        min_len: usize,
        element: impl Fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        if count > self.body.len() / min_len + 1 {
            return Err(WireError::Truncated);
        }
        let mut elements = Vec::with_capacity(count);
        for _ in 0..count {
            elements.push(element(self)?);
        }
        Ok(elements)
    }

    fn opt_bytes(&mut self) -> Result<Option<Bytes>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    fn mode(&mut self) -> Result<SubscribeMode, WireError> {
        match self.u8()? {
            0 => Ok(SubscribeMode::Latest),
            1 => Ok(SubscribeMode::Beginning),
            2 => Ok(SubscribeMode::FromOffset(self.u64()?)),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    fn message(&mut self) -> Result<Message, WireError> {
        Ok(Message {
            topic: self.str()?.into(),
            partition: self.u32()?,
            offset: self.u64()?,
            key: self.opt_bytes()?,
            payload: self.bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = frame.encode().unwrap();
        let body_len = u32::from_be_bytes(encoded[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, encoded.len() - 4);
        assert_eq!(Frame::decode(&encoded[4..]).unwrap(), frame);
        // And through the stream API.
        let mut cursor = std::io::Cursor::new(&encoded);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    fn message() -> Message {
        Message {
            topic: "sa.T1".into(),
            partition: 3,
            offset: 42,
            key: Some(Bytes::from_static(b"k")),
            payload: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn every_frame_type_roundtrips() {
        for frame in [
            Frame::Publish {
                seq: 1,
                topic: "status".into(),
                key: None,
                payload: Bytes::from_static(b"x"),
            },
            Frame::Subscribe {
                seq: 2,
                topic: "sa.T1".into(),
                mode: SubscribeMode::FromOffset(7),
            },
            Frame::Unsubscribe { seq: 3, sub: 9 },
            Frame::Fetch {
                seq: 4,
                topic: "t".into(),
                partition: 1,
                from: 100,
                max: 50,
            },
            Frame::Info {
                seq: 5,
                topic: String::new(),
            },
            Frame::Subscribed {
                seq: 2,
                sub: 9,
                resume: 4,
            },
            Frame::Messages {
                seq: 4,
                messages: vec![message(), message()],
            },
            Frame::InfoReply {
                seq: 5,
                persistent: true,
                partitions: 4,
                retained: 1000,
            },
            Frame::Error {
                seq: 6,
                message: "no such partition".into(),
            },
            Frame::RunList { seq: 7 },
            Frame::RunClose {
                seq: 8,
                run: "r1f".into(),
            },
            Frame::RunGc { seq: 9 },
            Frame::RunListReply {
                seq: 7,
                runs: vec![
                    RunStat {
                        run: "r1f".into(),
                        topics: 5,
                        retained: 1000,
                        completed: true,
                    },
                    RunStat {
                        run: "r20".into(),
                        topics: 0,
                        retained: 0,
                        completed: false,
                    },
                ],
            },
            Frame::RunGcReply {
                seq: 9,
                runs: 2,
                topics: 11,
            },
            Frame::Stats { seq: 10 },
            Frame::StatsReply {
                seq: 10,
                stats: vec![
                    StatRow {
                        name: "gf_broker_publish_total".into(),
                        label: String::new(),
                        value: 12345,
                    },
                    StatRow {
                        name: "gf_run_publish_total".into(),
                        label: "r1f".into(),
                        value: 99,
                    },
                ],
            },
            Frame::StatsReply {
                seq: 11,
                stats: Vec::new(),
            },
            Frame::ReceiptList {
                seq_first: 200,
                receipts: vec![
                    Receipt {
                        partition: 0,
                        offset: 7,
                    },
                    Receipt {
                        partition: 3,
                        offset: 0,
                    },
                ],
            },
            Frame::Events {
                sub: 9,
                messages: vec![message()],
            },
            Frame::Events {
                sub: 9,
                messages: vec![message(), message(), message()],
            },
            Frame::Events {
                sub: 1,
                messages: Vec::new(),
            },
        ] {
            roundtrip(frame);
        }
    }

    #[test]
    fn an_append_roundtrips_with_its_partition_and_offset() {
        roundtrip(Frame::Append {
            seq: 12,
            record: message(),
        });
        let keyless = Message {
            key: None,
            ..message()
        };
        roundtrip(Frame::Append {
            seq: 13,
            record: keyless,
        });
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let encoded = Frame::Events {
            sub: 1,
            messages: vec![message()],
        }
        .encode()
        .unwrap();
        for cut in 1..encoded.len() - 4 {
            let body = &encoded[4..encoded.len() - cut];
            assert!(
                matches!(Frame::decode(body), Err(WireError::Truncated)),
                "cut {cut} must be truncated"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&(u32::MAX).to_be_bytes());
        bogus.push(0x01);
        let mut cursor = std::io::Cursor::new(&bogus);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_payload_fails_encode() {
        let frame = Frame::Publish {
            seq: 0,
            topic: "t".into(),
            key: None,
            payload: Bytes::from(vec![0u8; MAX_FRAME + 1]),
        };
        assert!(matches!(frame.encode(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn receipts_run_over_cap_is_rejected() {
        let receipts = vec![
            Receipt {
                partition: 0,
                offset: 0,
            };
            MAX_RECEIPT_RUN as usize + 1
        ];
        let list = |receipts: &[Receipt]| Frame::ReceiptList {
            seq_first: 1,
            receipts: receipts.to_vec(),
        };
        let at_cap = list(&receipts[1..])
            .encode()
            .expect("a full run fits one frame");
        assert!(Frame::decode(&at_cap[4..]).is_ok(), "cap itself is legal");
        let over = list(&receipts).encode().unwrap();
        assert!(
            matches!(Frame::decode(&over[4..]), Err(WireError::Truncated)),
            "count beyond MAX_RECEIPT_RUN must be rejected"
        );
    }

    #[test]
    fn stats_reply_with_absurd_count_is_rejected() {
        let encoded = Frame::StatsReply {
            seq: 1,
            stats: vec![StatRow {
                name: "n".into(),
                label: String::new(),
                value: 7,
            }],
        }
        .encode()
        .unwrap();
        let mut body = encoded[4..].to_vec();
        // The count field sits right after opcode + seq; claim far more
        // rows than the body could hold.
        body[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(Frame::decode(&body), Err(WireError::Truncated)));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            Frame::decode(&[0x7f]),
            Err(WireError::UnknownOpcode(0x7f))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut encoded = Frame::Subscribed {
            seq: 1,
            sub: 2,
            resume: 0,
        }
        .encode()
        .unwrap();
        encoded.push(0xff);
        assert!(matches!(
            Frame::decode(&encoded[4..]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn mid_frame_eof_is_truncation() {
        let encoded = Frame::Subscribed {
            seq: 1,
            sub: 2,
            resume: 0,
        }
        .encode()
        .unwrap();
        let mut cursor = std::io::Cursor::new(&encoded[..encoded.len() - 3]);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Truncated)));
    }
}
