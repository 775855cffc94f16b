//! Edge cases of the reduction engine: deep nesting, multiple concurrent
//! suspensions, rule-producing rules, interleaved resume orders, and
//! pathological multisets.

use ginflow_hocl::prelude::*;
use ginflow_hocl::HoclError;

struct DeferAll;
impl ExternHost for DeferAll {
    fn call(
        &mut self,
        name: &str,
        _args: &[Atom],
    ) -> Result<ginflow_hocl::ExternResult, HoclError> {
        match name {
            "invoke" => Ok(ginflow_hocl::ExternResult::Deferred),
            other => Err(HoclError::UnknownExtern(other.to_owned())),
        }
    }
}

fn invoke_rule(tag: &str) -> Rule {
    Rule::builder(format!("call_{tag}"))
        .one_shot()
        .lhs([Pattern::keyed("JOB", [Pattern::lit(Atom::sym(tag))])])
        .rhs([Template::keyed(
            "RES",
            [Template::sub([Template::call(
                "invoke",
                [Template::sym(tag)],
            )])],
        )])
        .build()
}

#[test]
fn multiple_concurrent_suspensions_resume_in_any_order() {
    // Three independent jobs suspend; resuming out of order must fill the
    // right RES slots.
    let mut sol = Solution::from_atoms([
        Atom::keyed("JOB", [Atom::sym("a")]),
        Atom::keyed("JOB", [Atom::sym("b")]),
        Atom::keyed("JOB", [Atom::sym("c")]),
        Atom::rule(invoke_rule("a")),
        Atom::rule(invoke_rule("b")),
        Atom::rule(invoke_rule("c")),
    ]);
    let mut engine = Engine::new();
    let out = engine.reduce(&mut sol, &mut DeferAll).unwrap();
    assert_eq!(out.suspended.len(), 3);
    assert!(!out.inert);
    assert_eq!(sol.pending_ids().len(), 3);

    // Resume c, a, b.
    let by_arg =
        |out: &ginflow_hocl::engine::EffectInfo| out.args[0].as_sym().unwrap().as_str().to_owned();
    let mut effects = out.suspended.clone();
    effects.sort_by_key(|e| std::cmp::Reverse(by_arg(e)));
    for eff in &effects {
        let value = Atom::str(format!("result-{}", by_arg(eff)));
        engine
            .resume(&mut sol, eff.id, vec![value], &mut DeferAll)
            .unwrap();
    }
    let out = engine.reduce(&mut sol, &mut DeferAll).unwrap();
    assert!(out.inert);
    // Three RES atoms, each with its own payload.
    let res_count = sol
        .atoms()
        .iter()
        .filter(|a| a.tuple_key().map(|s| s.as_str()) == Some("RES"))
        .count();
    assert_eq!(res_count, 3);
    for tag in ["a", "b", "c"] {
        let expected = Atom::keyed("RES", [Atom::sub([Atom::str(format!("result-{tag}"))])]);
        assert!(sol.atoms().contains(&expected), "missing {expected}");
    }
}

#[test]
fn rule_producing_rules_chains() {
    // stage1 injects stage2, which injects the final token — a two-hop
    // higher-order chain (beyond the single-hop TRIGGER activation).
    let stage2 = Rule::builder("stage2")
        .one_shot()
        .lhs([Pattern::sym("GO2")])
        .rhs([Template::sym("DONE")])
        .build();
    let stage1 = Rule::builder("stage1")
        .one_shot()
        .lhs([Pattern::sym("GO1")])
        .rhs([Template::sym("GO2"), Template::rule(stage2)])
        .build();
    let mut sol = Solution::from_atoms([Atom::sym("GO1"), Atom::rule(stage1)]);
    let out = Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    assert!(out.inert);
    assert!(sol.atoms().contains(&Atom::sym("DONE")));
    assert!(sol.atoms().rule_indices().is_empty(), "both one-shots gone");
}

#[test]
fn deep_nesting_reduces_bottom_up() {
    // ⟨⟨⟨2, 9, max⟩, lift⟩, lift⟩ — inner max reduces first, then each
    // lift extracts the survivor one level up.
    let max = Rule::builder("max")
        .lhs([Pattern::var("x"), Pattern::var("y")])
        .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
        .rhs([Template::var("x")])
        .build();
    let lift = |n: &str| {
        Rule::builder(n)
            .one_shot()
            .lhs([Pattern::sub_with_rest(
                [Pattern::Typed(
                    "v".into(),
                    ginflow_hocl::pattern::TypeTag::Int,
                )],
                "w",
            )])
            .rhs([Template::var("v")])
            .build()
    };
    let level0 = Atom::sub([Atom::int(2), Atom::int(9), Atom::rule(max)]);
    let level1 = Atom::sub([level0, Atom::rule(lift("lift1"))]);
    let mut sol = Solution::from_atoms([level1, Atom::rule(lift("lift2"))]);
    let out = Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    assert!(out.inert);
    assert!(sol.atoms().contains(&Atom::int(9)), "final: {sol}");
}

#[test]
fn guard_sees_cross_molecule_bindings() {
    // Pair (k : v) with THRESHOLD : t, keep v only if v >= t.
    let filter = Rule::builder("filter")
        .lhs([
            Pattern::tuple([Pattern::sym("KV"), Pattern::var("v")]),
            Pattern::keyed("THRESHOLD", [Pattern::var("t")]),
        ])
        .guard(Guard::ge(Expr::var("v"), Expr::var("t")))
        .rhs([
            Template::keyed("KEPT", [Template::var("v")]),
            Template::keyed("THRESHOLD", [Template::var("t")]),
        ])
        .build();
    let mut sol = Solution::from_atoms([
        Atom::keyed("KV", [Atom::int(3)]),
        Atom::keyed("KV", [Atom::int(10)]),
        Atom::keyed("THRESHOLD", [Atom::int(5)]),
        Atom::rule(filter),
    ]);
    Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    assert!(sol.atoms().contains(&Atom::keyed("KEPT", [Atom::int(10)])));
    assert!(sol.atoms().contains(&Atom::keyed("KV", [Atom::int(3)])));
    assert!(!sol.atoms().contains(&Atom::keyed("KEPT", [Atom::int(3)])));
}

#[test]
fn large_flat_multiset_terminates() {
    // 2 000 integers, one recurring max rule — stress the scan paths.
    let max = Rule::builder("max")
        .lhs([Pattern::var("x"), Pattern::var("y")])
        .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
        .rhs([Template::var("x")])
        .build();
    let mut sol = Solution::from_atoms((0..2000i64).map(Atom::int).chain([Atom::rule(max)]));
    let mut engine = Engine::with_config(EngineConfig {
        max_steps: 10_000,
        shuffle_seed: None,
    });
    let out = engine.reduce(&mut sol, &mut NoExterns).unwrap();
    assert!(out.inert);
    assert_eq!(out.applications, 1999);
    assert!(sol.atoms().contains(&Atom::int(1999)));
}

#[test]
fn resume_then_new_reactions_cascade() {
    // After a resume, freshly enabled rules must run in the next reduce:
    // the RES produced by the resume triggers a follow-up rule.
    let followup = Rule::builder("followup")
        .one_shot()
        .lhs([Pattern::keyed(
            "RES",
            [Pattern::sub_with_rest([Pattern::var("r")], "w")],
        )])
        .rhs([Template::keyed("FINAL", [Template::var("r")])])
        .build();
    let mut sol = Solution::from_atoms([
        Atom::keyed("JOB", [Atom::sym("a")]),
        Atom::rule(invoke_rule("a")),
        Atom::rule(followup),
    ]);
    let mut engine = Engine::new();
    let out = engine.reduce(&mut sol, &mut DeferAll).unwrap();
    let eff = &out.suspended[0];
    engine
        .resume(&mut sol, eff.id, vec![Atom::int(42)], &mut DeferAll)
        .unwrap();
    let out = engine.reduce(&mut sol, &mut DeferAll).unwrap();
    assert!(out.inert);
    assert!(sol.atoms().contains(&Atom::keyed("FINAL", [Atom::int(42)])));
}

#[test]
fn double_resume_rejected() {
    let mut sol = Solution::from_atoms([
        Atom::keyed("JOB", [Atom::sym("a")]),
        Atom::rule(invoke_rule("a")),
    ]);
    let mut engine = Engine::new();
    let out = engine.reduce(&mut sol, &mut DeferAll).unwrap();
    let id = out.suspended[0].id;
    engine
        .resume(&mut sol, id, vec![Atom::int(1)], &mut DeferAll)
        .unwrap();
    let err = engine
        .resume(&mut sol, id, vec![Atom::int(2)], &mut DeferAll)
        .unwrap_err();
    assert!(matches!(err, HoclError::UnknownEffect(_)));
}

#[test]
fn omega_can_capture_rules() {
    // ω must treat rules like any other molecule: wrap a rule and data
    // into a fresh subsolution.
    let wrap = Rule::builder("wrap")
        .one_shot()
        .lhs([Pattern::sub_rest("w")])
        .rhs([Template::keyed(
            "BOXED",
            [Template::sub([Template::var("w")])],
        )])
        .build();
    let max = Rule::builder("max")
        .lhs([Pattern::var("x"), Pattern::var("y")])
        .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
        .rhs([Template::var("x")])
        .build();
    let inner = Atom::sub([Atom::int(1), Atom::rule(max.clone())]);
    let mut sol = Solution::from_atoms([inner, Atom::rule(wrap)]);
    Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    let boxed = sol
        .atoms()
        .find(|a| a.tuple_key().map(|s| s.as_str()) == Some("BOXED"))
        .expect("wrapped");
    let body = boxed.as_tuple().unwrap()[1].as_sub().unwrap();
    assert_eq!(body.rule_indices().len(), 1);
    assert!(body.contains(&Atom::int(1)));
}

/// "Instantiate first, mutate only on success": an application that fails
/// — here after a subsolution template that would have moved two ω rests
/// out of the reactants — leaves the solution exactly as it was, at the
/// root and inside a nested subsolution alike.
#[test]
fn failed_application_leaves_the_solution_untouched() {
    struct Boom;
    impl ExternHost for Boom {
        fn call(
            &mut self,
            name: &str,
            _args: &[Atom],
        ) -> Result<ginflow_hocl::ExternResult, HoclError> {
            Err(HoclError::ExternFailed {
                name: name.to_owned(),
                reason: "boom".into(),
            })
        }
    }
    let rule_ending_in = |last: Template| {
        Rule::builder("recv")
            .one_shot()
            .lhs([
                Pattern::keyed("SRC", [Pattern::sub_with_rest([Pattern::var("t")], "ws")]),
                Pattern::keyed("IN", [Pattern::sub_rest("win")]),
            ])
            .rhs([
                Template::keyed("SRC", [Template::sub([Template::var("ws")])]),
                Template::keyed(
                    "IN",
                    [Template::sub([
                        Template::tuple([Template::var("t"), Template::lit(1i64)]),
                        Template::var("win"),
                    ])],
                ),
                last,
            ])
            .build()
    };
    let failing_extern = Template::call("boom", [Template::var("t"), Template::var("win")]);
    let unbound = Template::var("nobody");
    for (last, nested) in [
        (failing_extern.clone(), false),
        (failing_extern, true),
        (unbound.clone(), false),
        (unbound, true),
    ] {
        let atoms = vec![
            Atom::keyed("SRC", [Atom::sub(["a", "b", "c"].map(Atom::sym))]),
            Atom::keyed("IN", [Atom::sub([Atom::int(7), Atom::int(8)])]),
            Atom::rule(rule_ending_in(last)),
        ];
        let mut sol = if nested {
            Solution::from_atoms([Atom::keyed("BODY", [Atom::sub(atoms)])])
        } else {
            Solution::from_atoms(atoms)
        };
        let before = sol.clone();
        let err = Engine::new().reduce(&mut sol, &mut Boom).unwrap_err();
        assert!(
            matches!(
                err,
                HoclError::ExternFailed { .. } | HoclError::UnboundVar(_)
            ),
            "{err}"
        );
        assert_eq!(sol, before);
        // Same order and same census, not just the same multiset.
        assert_eq!(sol.to_string(), before.to_string());
        assert_eq!(sol.atoms().weight(), before.atoms().weight());
        assert_eq!(sol.atoms().rule_count(), 1);
    }
}
