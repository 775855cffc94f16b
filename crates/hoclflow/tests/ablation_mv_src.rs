//! Ablation for deviation 1 (provenance-tagged `IN`) of the "Deviations
//! from the paper's figures" list in the `ginflow_hoclflow` crate docs.
//!
//! Fig 7 of the paper prints `mv_src` as
//!
//! ```text
//! replace-one SRC:<ωSRC>, IN:<ωIN>, ADAPT by SRC:<ωSRC, T2'>, IN:<>
//! ```
//!
//! i.e. it keeps every existing `SRC` entry (including the dead `T2`!) and
//! flushes `IN` wholesale. This test builds that literal rule and shows
//! the destination deadlocks whenever a *non-replaced* source (`T3`)
//! delivered before the adaptation — its data is flushed but it will
//! never resend. Our `mv_src` (swap sources, flush only region-tagged
//! entries) completes on the same trace.

use ginflow_hocl::symbol::keywords as kw;
use ginflow_hocl::{Atom, Engine, Pattern, Rule, Solution, Template};
use ginflow_hoclflow::{rules, FlowExterns};

/// Fig 7's mv_src, verbatim: add T2′ to SRC, flush IN entirely.
fn mv_src_literal() -> Rule {
    Rule::builder("mv_src_literal")
        .one_shot()
        .lhs([
            Pattern::tuple([Pattern::sym(kw::ADAPT), Pattern::lit(Atom::int(0))]),
            Pattern::keyed(kw::SRC, [Pattern::sub_rest("ws")]),
            Pattern::keyed(kw::IN, [Pattern::sub_rest("win")]),
        ])
        .rhs([
            Template::keyed(
                kw::SRC,
                [Template::sub([Template::var("ws"), Template::sym("T2'")])],
            ),
            Template::keyed(kw::IN, [Template::empty_sub()]),
        ])
        .build()
}

/// T4's local solution at adaptation time in the Fig 5 scenario where T3
/// delivered *before* T2 failed: SRC = {T2}, IN = {(T3 : value)}.
fn t4_mid_run(mv_src: Rule) -> Solution {
    Solution::from_atoms([
        Atom::keyed("TASK", [Atom::sym("T4")]),
        Atom::keyed(kw::SRC, [Atom::sub([Atom::sym("T2")])]),
        Atom::keyed(kw::DST, [Atom::empty_sub()]),
        Atom::keyed(kw::SRV, [Atom::sym("s4")]),
        Atom::keyed(
            kw::IN,
            [Atom::sub([Atom::tuple([Atom::sym("T3"), Atom::str("r3")])])],
        ),
        Atom::rule(rules::gw_setup()),
        Atom::rule(rules::gw_recv()),
        Atom::rule(mv_src),
        // The ADAPT token has just arrived.
        Atom::tuple([Atom::sym(kw::ADAPT), Atom::int(0)]),
    ])
}

fn deliver(sol: &mut Solution, from: &str, value: &str) {
    sol.insert(Atom::tuple([
        Atom::sym(kw::DELIVER),
        Atom::sym(from),
        Atom::str(value),
    ]));
}

#[test]
fn papers_literal_mv_src_deadlocks_when_a_live_source_already_delivered() {
    let mut sol = t4_mid_run(mv_src_literal());
    let mut host = FlowExterns::new();
    let mut engine = Engine::new();
    engine.reduce(&mut sol, &mut host).unwrap();
    // T2' delivers its (replacement) result.
    deliver(&mut sol, "T2'", "r2p");
    engine.reduce(&mut sol, &mut host).unwrap();

    // Deadlock: T2 was never removed from SRC, and T3's flushed datum will
    // never come back (T3 got no ADDDST). gw_setup can never fire.
    let src = sol.atoms().keyed_sub(kw::SRC).unwrap();
    assert!(src.contains(&Atom::sym("T2")), "stale T2 still expected");
    assert!(
        sol.atoms().keyed_sub(kw::PAR).is_none(),
        "gw_setup must not have fired — the task is stuck"
    );
    let input = sol.atoms().keyed_sub(kw::IN).unwrap();
    assert!(
        !input
            .iter()
            .any(|a| a.tuple_key().map(|s| s.as_str()) == Some("T3")),
        "T3's good datum was thrown away"
    );
}

#[test]
fn our_mv_src_completes_the_same_trace() {
    let ours = rules::mv_src(0, &["T2"], &["T2'"], &["T2"]);
    let mut sol = t4_mid_run(ours);
    let mut host = FlowExterns::new();
    let mut engine = Engine::new();
    engine.reduce(&mut sol, &mut host).unwrap();
    deliver(&mut sol, "T2'", "r2p");
    engine.reduce(&mut sol, &mut host).unwrap();

    // All dependencies satisfied: gw_setup fired with BOTH T3's retained
    // datum and T2''s fresh one.
    let par_atom = sol
        .atoms()
        .find(|a| a.tuple_key().map(|s| s.as_str()) == Some(kw::PAR))
        .expect("gw_setup fired");
    let Atom::Tuple(v) = par_atom else {
        unreachable!()
    };
    assert_eq!(
        v[1],
        Atom::list([Atom::str("r2p"), Atom::str("r3")]),
        "parameters sorted by provenance: T2' before T3"
    );
}
