//! Property tests of the binary `SaMessage`/`StatusUpdate` codec:
//! arbitrary messages (including deeply structured values) survive an
//! encode→decode round trip, and anything else — no magic byte,
//! truncation, trailing garbage — is rejected instead of mis-decoded.

use ginflow_agent::{SaMessage, StatusUpdate};
use ginflow_core::{TaskState, Value};
use proptest::prelude::*;

/// Structured values up to 3 levels deep — deeper than anything a real
/// service ships. `Rule` atoms are exercised separately (they embed a
/// JSON leaf); floats skip NaN because `Value`'s chemical equality
/// never matches NaN, which would fail the assert, not the codec.
fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(|f| Value::Float(if f.is_nan() { 0.0 } else { f })),
        "[ -~]{0,24}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z][a-zA-Z0-9_']{0,12}".prop_map(Value::sym),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Value::Tuple),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::vec(inner, 0..4).prop_map(Value::sub),
        ]
    })
    .boxed()
}

fn arb_sa_message() -> BoxedStrategy<SaMessage> {
    prop_oneof![
        ("[a-zA-Z0-9_.']{1,16}", arb_value())
            .prop_map(|(from, value)| SaMessage::Result { from, value }),
        any::<u32>().prop_map(|adaptation| SaMessage::Adapt { adaptation }),
        any::<u32>().prop_map(|adaptation| SaMessage::Trigger { adaptation }),
    ]
    .boxed()
}

fn arb_state() -> BoxedStrategy<TaskState> {
    prop_oneof![
        Just(TaskState::Idle),
        Just(TaskState::Running),
        Just(TaskState::Completed),
        Just(TaskState::Failed),
    ]
    .boxed()
}

fn arb_status() -> BoxedStrategy<StatusUpdate> {
    (
        "[a-zA-Z0-9_.']{1,16}",
        arb_state(),
        (any::<bool>(), arb_value()),
        any::<u32>(),
    )
        .prop_map(|(task, state, (some, value), incarnation)| StatusUpdate {
            task,
            state,
            result: some.then_some(value),
            incarnation,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary round trip: decode(encode(m)) == m.
    #[test]
    fn sa_message_roundtrip(m in arb_sa_message()) {
        prop_assert_eq!(SaMessage::decode(&m.encode()), Some(m));
    }

    #[test]
    fn status_update_roundtrip(s in arb_status()) {
        prop_assert_eq!(StatusUpdate::decode(&s.encode()), Some(s));
    }

    /// Only the binary format is a message: whatever does not start
    /// with the magic byte (JSON, foreign noise, an empty payload)
    /// decodes to None.
    #[test]
    fn payload_without_the_magic_byte_is_not_a_message(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        if bytes.first() != Some(&ginflow_agent::message::CODEC_MAGIC) {
            prop_assert_eq!(SaMessage::decode(&bytes), None);
            prop_assert_eq!(StatusUpdate::decode(&bytes), None);
        }
    }

    /// Truncating a binary payload anywhere yields None, never a panic
    /// or a silently different message.
    #[test]
    fn truncated_binary_rejected(m in arb_sa_message(), cut in 0usize..64) {
        let bytes = m.encode();
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - 1 - cut];
            prop_assert_eq!(SaMessage::decode(truncated), None);
        }
    }

    /// Appending garbage to a binary payload is corruption, not
    /// leniency.
    #[test]
    fn trailing_garbage_rejected(s in arb_status(), tail in 1u8..=255) {
        let mut bytes = s.encode().to_vec();
        bytes.push(tail);
        prop_assert_eq!(StatusUpdate::decode(&bytes), None);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = SaMessage::decode(&bytes);
        let _ = StatusUpdate::decode(&bytes);
    }
}

#[test]
fn rule_values_survive_via_json_leaf() {
    // Higher-order values: a rule shipped as a result rides the codec's
    // embedded-JSON leaf (tag 8).
    let rule = ginflow_hocl::Rule::builder("drop_int")
        .lhs([ginflow_hocl::Pattern::var("x")])
        .build();
    let m = SaMessage::Result {
        from: "T1".into(),
        value: Value::rule(rule),
    };
    assert_eq!(SaMessage::decode(&m.encode()), Some(m));
}
