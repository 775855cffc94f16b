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

/// `rules::gw_recv()` as a JSON leaf, as the codec ships it — recorded
/// before rules resolved their variables to slots, which changed the
/// in-memory rule and not this.
const GW_RECV_JSON: &str = r#"{"Rule":{"name":"gw_recv","one_shot":false,"lhs":[{"Tuple":[{"Lit":{"Sym":"DELIVER"}},{"Var":"t"},{"Var":"v"}]},{"Tuple":[{"Lit":{"Sym":"SRC"}},{"Sub":{"elems":[{"Var":"t"}],"rest":"ws"}}]},{"Tuple":[{"Lit":{"Sym":"IN"}},{"Sub":{"elems":[],"rest":"win"}}]}],"guard":"True","rhs":[{"Tuple":[{"Lit":{"Sym":"SRC"}},{"Sub":[{"Var":"ws"}]}]},{"Tuple":[{"Lit":{"Sym":"IN"}},{"Sub":[{"Tuple":[{"Var":"t"},{"Var":"v"}]},{"Var":"win"}]}]}]}}"#;

/// The `gw_call` a source task parks on `invoke`, recorded like
/// [`GW_RECV_JSON`]: the rule's name and RHS, and the bindings by name.
const PENDING_GW_CALL_JSON: &str = r#"{"id":0,"rule_name":"gw_call","rhs":[{"Tuple":[{"Lit":{"Sym":"SRC"}},{"Sub":[]}]},{"Tuple":[{"Lit":{"Sym":"SRV"}},{"Var":"s"}]},{"Tuple":[{"Lit":{"Sym":"TASK"}},{"Var":"me"}]},{"Tuple":[{"Lit":{"Sym":"RES"}},{"Sub":[{"Call":["invoke",[{"Var":"s"},{"Var":"p"},{"Var":"me"}]]}]}]}],"bindings":{"map":{"me":{"One":{"Sym":"T1"}},"p":{"One":{"List":[{"Str":"input"}]}},"s":{"One":{"Sym":"s1"}}}},"call_index":0,"extern_name":"invoke"}"#;

#[test]
fn a_rule_atom_keeps_its_form_and_its_slots_across_the_codec() {
    use ginflow_hocl::{Engine, NoExterns, Solution};
    let rule = Value::rule(ginflow_hoclflow::rules::gw_recv());
    assert_eq!(serde_json::to_string(&rule).unwrap(), GW_RECV_JSON);
    let m = SaMessage::Result {
        from: "T1".into(),
        value: rule.clone(),
    };
    let Some(SaMessage::Result { value: shipped, .. }) = SaMessage::decode(&m.encode()) else {
        panic!("a rule atom decodes");
    };
    assert_eq!(shipped, rule);
    // The shipped rule rebuilt its slot table: it reacts as the original.
    let react = |rule: Value| {
        let mut sol = Solution::from_atoms([
            Value::tuple([Value::sym("DELIVER"), Value::sym("T1"), Value::str("r")]),
            Value::keyed("SRC", [Value::sub([Value::sym("T1"), Value::sym("T9")])]),
            Value::keyed("IN", [Value::empty_sub()]),
            rule,
        ]);
        let out = Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
        (out.applications, format!("{sol}"))
    };
    let reacted = react(shipped);
    assert_eq!(reacted, react(rule));
    assert_eq!(reacted.0, 1);
    assert!(reacted.1.contains("IN:<T1:\"r\">"), "{}", reacted.1);
}

#[test]
fn a_suspended_gw_call_keeps_its_form_and_resumes_after_a_round_trip() {
    use ginflow_agent::{Event, SaCore};
    use ginflow_core::workflow::WorkflowBuilder;
    use ginflow_hocl::{Engine, Solution};
    use ginflow_hoclflow::{agent_programs, FlowExterns};
    let mut b = WorkflowBuilder::new("w");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    let (programs, plans) = agent_programs(&b.build().unwrap());
    let t1 = programs.into_iter().find(|p| p.name == "T1").unwrap();
    let mut agent = SaCore::new(t1, std::sync::Arc::new(plans));
    agent.handle(Event::Start).unwrap();
    let parked = agent.solution();
    let [pending] = parked.pending() else {
        panic!("T1 parks one invoke: {parked}");
    };
    assert_eq!(
        serde_json::to_string(pending).unwrap(),
        PENDING_GW_CALL_JSON
    );

    let json = serde_json::to_string(parked).unwrap();
    let back: Solution = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.pending()[0].extern_name(), "invoke");
    // Resuming the copy builds what resuming the original builds.
    let resumed = |mut sol: Solution| {
        let id = sol.pending_ids()[0];
        Engine::new()
            .resume(
                &mut sol,
                id,
                vec![Value::str("out")],
                &mut FlowExterns::new(),
            )
            .unwrap();
        sol
    };
    let (original, copy) = (resumed(parked.clone()), resumed(back));
    assert_eq!(copy, original);
    assert!(!copy.has_pending());
    assert!(format!("{copy}").contains("RES:<\"out\">"), "{copy}");
}
