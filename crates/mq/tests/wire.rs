//! Property tests of the network wire codec: every frame type survives
//! an encode→decode round trip for arbitrary payload bytes, keys,
//! topics and offsets, and corrupted frames (truncated, oversized,
//! trailing garbage) are rejected instead of mis-decoded.

use bytes::Bytes;
use ginflow_mq::wire::{
    read_frame, Frame, FrameSplitter, RunStat, StatRow, WireError, MAX_FRAME, MAX_RECEIPT_RUN,
};
use ginflow_mq::{Message, Receipt, SubscribeMode};
use proptest::prelude::*;

fn arb_bytes() -> BoxedStrategy<Bytes> {
    prop::collection::vec(any::<u8>(), 0..512)
        .prop_map(Bytes::from)
        .boxed()
}

fn arb_key() -> BoxedStrategy<Option<Bytes>> {
    (any::<bool>(), arb_bytes())
        .prop_map(|(present, b)| present.then_some(b))
        .boxed()
}

fn arb_topic() -> BoxedStrategy<String> {
    "[a-zA-Z0-9._-]{0,24}".boxed()
}

fn arb_mode() -> BoxedStrategy<SubscribeMode> {
    (0u8..3, any::<u64>())
        .prop_map(|(tag, offset)| match tag {
            0 => SubscribeMode::Latest,
            1 => SubscribeMode::Beginning,
            _ => SubscribeMode::FromOffset(offset),
        })
        .boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    (
        arb_topic(),
        (any::<u32>(), any::<u64>()),
        arb_key(),
        arb_bytes(),
    )
        .prop_map(|(topic, (partition, offset), key, payload)| Message {
            topic: topic.into(),
            partition,
            offset,
            key,
            payload,
        })
        .boxed()
}

fn arb_frame() -> BoxedStrategy<Frame> {
    fn seq() -> impl Strategy<Value = u64> {
        any::<u64>()
    }
    prop_oneof![
        (seq(), arb_topic(), arb_key(), arb_bytes()).prop_map(|(seq, topic, key, payload)| {
            Frame::Publish {
                seq,
                topic,
                key,
                payload,
            }
        }),
        (seq(), arb_topic(), arb_mode()).prop_map(|(seq, topic, mode)| Frame::Subscribe {
            seq,
            topic,
            mode
        }),
        (seq(), any::<u64>()).prop_map(|(seq, sub)| Frame::Unsubscribe { seq, sub }),
        (
            seq(),
            arb_topic(),
            (any::<u32>(), any::<u64>(), any::<u32>())
        )
            .prop_map(|(seq, topic, (partition, from, max))| Frame::Fetch {
                seq,
                topic,
                partition,
                from,
                max,
            }),
        (seq(), arb_topic()).prop_map(|(seq, topic)| Frame::Info { seq, topic }),
        (seq(), arb_receipts()).prop_map(|(seq_first, receipts)| Frame::ReceiptList {
            seq_first,
            receipts,
        }),
        (seq(), any::<u64>(), any::<u64>()).prop_map(|(seq, sub, resume)| Frame::Subscribed {
            seq,
            sub,
            resume
        }),
        (seq(), prop::collection::vec(arb_message(), 0..4))
            .prop_map(|(seq, messages)| Frame::Messages { seq, messages }),
        (seq(), any::<bool>(), any::<u32>(), any::<u64>()).prop_map(
            |(seq, persistent, partitions, retained)| Frame::InfoReply {
                seq,
                persistent,
                partitions,
                retained,
            }
        ),
        (seq(), "[ -~]{0,48}").prop_map(|(seq, message)| Frame::Error { seq, message }),
        seq().prop_map(|seq| Frame::RunList { seq }),
        (seq(), arb_topic()).prop_map(|(seq, run)| Frame::RunClose { seq, run }),
        seq().prop_map(|seq| Frame::RunGc { seq }),
        (seq(), prop::collection::vec(arb_run_stat(), 0..4))
            .prop_map(|(seq, runs)| Frame::RunListReply { seq, runs }),
        (seq(), any::<u32>(), any::<u32>()).prop_map(|(seq, runs, topics)| Frame::RunGcReply {
            seq,
            runs,
            topics
        }),
        seq().prop_map(|seq| Frame::Stats { seq }),
        (seq(), prop::collection::vec(arb_stat_row(), 0..4))
            .prop_map(|(seq, stats)| Frame::StatsReply { seq, stats }),
        (any::<u64>(), prop::collection::vec(arb_message(), 0..6))
            .prop_map(|(sub, messages)| Frame::Events { sub, messages }),
    ]
    .boxed()
}

fn arb_receipts() -> BoxedStrategy<Vec<Receipt>> {
    prop::collection::vec((any::<u32>(), any::<u64>()), 0..8)
        .prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(partition, offset)| Receipt { partition, offset })
                .collect()
        })
        .boxed()
}

fn arb_stat_row() -> BoxedStrategy<StatRow> {
    (arb_topic(), arb_topic(), any::<u64>())
        .prop_map(|(name, label, value)| StatRow { name, label, value })
        .boxed()
}

fn arb_run_stat() -> BoxedStrategy<RunStat> {
    (arb_topic(), any::<u32>(), any::<u64>(), any::<bool>())
        .prop_map(|(run, topics, retained, completed)| RunStat {
            run,
            topics,
            retained,
            completed,
        })
        .boxed()
}

/// How to cut a byte stream into the pieces a socket might deliver it
/// in: piece sizes, cycled; none = the whole stream at once.
fn arb_chunking() -> BoxedStrategy<Vec<usize>> {
    prop::collection::vec(1usize..48, 0..12).boxed()
}

/// What a reader gets out of a byte stream: the frames it decoded, and
/// what stopped it short of a clean end of stream, if anything did.
type Outcome = (Vec<Frame>, Option<String>);

/// The outcome of `read_frame` called until it stops yielding.
fn read_whole(stream: &[u8]) -> Outcome {
    let mut cursor = std::io::Cursor::new(stream);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.to_string())),
        }
    }
}

/// The outcome of feeding `stream` to a [`FrameSplitter`] cut by
/// `chunking`, taking every complete frame after every piece. Bytes
/// left over at the end of the stream are a truncated frame.
fn split_chunked(stream: &[u8], chunking: &[usize]) -> Outcome {
    let mut splitter = FrameSplitter::default();
    let mut frames = Vec::new();
    let mut sizes = chunking.iter().copied().cycle();
    let mut rest = stream;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at(sizes.next().unwrap_or(rest.len()).min(rest.len()));
        rest = tail;
        splitter.push(piece);
        loop {
            match splitter.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => return (frames, Some(e.to_string())),
            }
        }
    }
    let torn = (!splitter.is_empty()).then(|| WireError::Truncated.to_string());
    (frames, torn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: decode(encode(f)) == f for arbitrary frames of every
    /// type, both through the body codec and the stream reader.
    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let encoded = frame.encode().unwrap();
        let body = &encoded[4..];
        prop_assert_eq!(Frame::decode(body).unwrap(), frame.clone());
        let mut cursor = std::io::Cursor::new(&encoded);
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Any strict prefix of a frame body fails to decode (no silent
    /// short reads), and appending garbage is rejected too.
    #[test]
    fn corrupted_frames_rejected(frame in arb_frame(), cut in 1usize..16, junk in any::<u8>()) {
        let encoded = frame.encode().unwrap();
        let body = &encoded[4..];
        let cut = cut.min(body.len());
        if cut < body.len() {
            prop_assert!(Frame::decode(&body[..body.len() - cut]).is_err());
        }
        let mut extended = body.to_vec();
        extended.push(junk);
        prop_assert!(Frame::decode(&extended).is_err());
    }

    /// Back-to-back frames on one stream decode in order — from the
    /// stream reader, and from the splitter however the bytes are
    /// chunked.
    #[test]
    fn streams_of_frames_decode_in_order(
        frames in prop::collection::vec(arb_frame(), 1..5),
        chunking in arb_chunking(),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode().unwrap());
        }
        let mut cursor = std::io::Cursor::new(&stream);
        for f in &frames {
            let got = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(got.as_ref(), Some(f));
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
        prop_assert_eq!(split_chunked(&stream, &chunking), (frames, None));
    }
}

proptest! {
    /// A RECEIPT_LIST round-trips, every strict prefix of its body is
    /// refused, and so is a count beyond MAX_RECEIPT_RUN or beyond what
    /// the body holds (12 bytes a receipt) — refused before anything is
    /// allocated for it.
    #[test]
    fn receipt_list_roundtrips_and_rejects_truncated_or_over_cap(
        seq_first in any::<u64>(),
        receipts in arb_receipts(),
        excess in 1u32..1024,
        cut in 1usize..32,
    ) {
        let frame = Frame::ReceiptList { seq_first, receipts };
        let encoded = frame.encode().unwrap();
        let mut body = encoded[4..].to_vec();
        prop_assert_eq!(Frame::decode(&body).unwrap(), frame.clone());
        let mut cursor = std::io::Cursor::new(&encoded);
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        prop_assert!(Frame::decode(&body[..body.len() - cut.min(body.len() - 1)]).is_err());
        // The count sits right after opcode + seq_first.
        let held = ((body.len() - 13) / 12) as u32;
        body[9..13].copy_from_slice(&(held + excess).to_be_bytes());
        prop_assert!(Frame::decode(&body).is_err());
        body[9..13].copy_from_slice(&(MAX_RECEIPT_RUN + excess).to_be_bytes());
        prop_assert!(Frame::decode(&body).is_err());
    }
}

proptest! {
    /// STATS_REPLY carries variable-size rows behind a `count` field;
    /// a count claiming more rows than the body could possibly hold
    /// (16 bytes minimum each) must be rejected as corruption instead
    /// of driving a giant allocation, and any strict prefix of the
    /// body must fail like any frame.
    #[test]
    fn stats_reply_over_count_or_truncated_rejected(
        seq in any::<u64>(),
        rows in prop::collection::vec(arb_stat_row(), 0..4),
        excess in 1u32..1024,
        cut in 1usize..16,
    ) {
        let frame = Frame::StatsReply { seq, stats: rows };
        let encoded = frame.encode().unwrap();
        let mut body = encoded[4..].to_vec();
        prop_assert_eq!(Frame::decode(&body).unwrap(), frame);
        let cut = cut.min(body.len() - 1);
        prop_assert!(Frame::decode(&body[..body.len() - cut]).is_err());
        // Patch the count (opcode + seq precede it) past what the body
        // can hold.
        let over = (body.len() / 16) as u32 + 1 + excess;
        body[9..13].copy_from_slice(&over.to_be_bytes());
        prop_assert!(Frame::decode(&body).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flip one arbitrary bit anywhere in a multi-frame stream — the
    /// same byte sequence both the server's connection reader and the
    /// clients' reader threads parse — and the reader must (a) never
    /// panic, (b) decode every frame wholly before the flipped byte
    /// exactly as sent, and (c) terminate: the corruption surfaces as
    /// a decode error, an EOF, or (the wire has no checksum) a
    /// misparsed-but-valid frame, never a wedge or an abort.
    #[test]
    fn bit_flipped_streams_error_cleanly_and_preserve_the_prefix(
        frames in prop::collection::vec(arb_frame(), 1..5),
        flip_frac in 0.0f64..1.0,
        bit in 0u32..8,
        chunking in arb_chunking(),
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode().unwrap());
            ends.push(stream.len());
        }
        let flip_at = (((stream.len() - 1) as f64) * flip_frac) as usize;
        stream[flip_at] ^= 1 << bit;
        // Frames whose bytes all precede the flipped byte must still
        // decode verbatim.
        let intact = ends.iter().take_while(|&&end| end <= flip_at).count();

        let mut cursor = std::io::Cursor::new(&stream);
        let mut got = 0usize;
        // Each round consumes at least the 4-byte length prefix, so
        // this loop is bounded by the stream length; the corruption
        // surfaces as a decode error or EOF (`Ok(None)`), never a wedge.
        while let Ok(Some(f)) = read_frame(&mut cursor) {
            if got < intact {
                prop_assert_eq!(&f, &frames[got]);
            }
            got += 1;
        }
        prop_assert!(got >= intact);
        // Same frames, same first error, however the bytes are chunked.
        prop_assert_eq!(split_chunked(&stream, &chunking), read_whole(&stream));
    }

    /// Truncate a multi-frame stream at an arbitrary byte: every frame
    /// that survives whole decodes verbatim, and the cut surfaces as a
    /// clean end-of-stream or error — a truncation can never invent a
    /// frame that was not sent.
    #[test]
    fn truncated_streams_yield_only_genuine_frames(
        frames in prop::collection::vec(arb_frame(), 1..5),
        keep_frac in 0.0f64..1.0,
        chunking in arb_chunking(),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode().unwrap());
        }
        let keep = ((stream.len() as f64) * keep_frac) as usize;
        stream.truncate(keep);

        let mut cursor = std::io::Cursor::new(&stream);
        let mut got = 0usize;
        while let Ok(Some(f)) = read_frame(&mut cursor) {
            prop_assert!(got < frames.len(), "phantom frame past the cut");
            prop_assert_eq!(&f, &frames[got]);
            got += 1;
        }
        prop_assert_eq!(split_chunked(&stream, &chunking), read_whole(&stream));
    }

    /// Arbitrary byte soup into the stream reader: no panic, no giant
    /// allocation (the length prefix is bounded by MAX_FRAME before
    /// any buffer is sized), and guaranteed termination.
    #[test]
    fn garbage_streams_never_panic(
        junk in prop::collection::vec(any::<u8>(), 0..2048),
        chunking in arb_chunking(),
    ) {
        let mut cursor = std::io::Cursor::new(&junk);
        let mut rounds = 0usize;
        while let Ok(Some(_)) = read_frame(&mut cursor) {
            rounds += 1;
            prop_assert!(rounds <= junk.len(), "reader failed to make progress");
        }
        prop_assert_eq!(split_chunked(&junk, &chunking), read_whole(&junk));
    }
}

#[test]
fn length_prefix_over_max_frame_is_rejected() {
    let mut bogus = Vec::new();
    bogus.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
    bogus.extend_from_slice(&[0u8; 16]);
    let mut cursor = std::io::Cursor::new(&bogus);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn oversized_publish_never_hits_the_wire() {
    let frame = Frame::Publish {
        seq: 1,
        topic: "t".into(),
        key: None,
        payload: Bytes::from(vec![0u8; MAX_FRAME]),
    };
    // MAX_FRAME of payload plus framing overhead exceeds the limit.
    assert!(matches!(frame.encode(), Err(WireError::Oversized { .. })));
}
