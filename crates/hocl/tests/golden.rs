//! Golden traces of the reduction engine: the final solution, the number
//! of rule applications and the number of match attempts of a fixed set of
//! programs, pinned as literals. They were recorded against the
//! clone-and-rebuild matcher and are the oracle for any rewrite of the
//! matching or instantiation path: the same candidate order, the same
//! chosen match and the same seeded-shuffle draws reproduce every line; a
//! difference means the search changed, not just its cost.
//! (`weight_scanned` is deliberately absent — it is a cost-model quantity
//! that an engine change may lower.)

use ginflow_hocl::prelude::*;
use std::fmt::Write;

fn max_rule() -> Rule {
    Rule::builder("max")
        .lhs([Pattern::var("x"), Pattern::var("y")])
        .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
        .rhs([Template::var("x")])
        .build()
}

fn clean_rule() -> Rule {
    Rule::builder("clean")
        .one_shot()
        .lhs([Pattern::sub_with_rest(
            [Pattern::RuleNamed("max".into())],
            "w",
        )])
        .rhs([Template::var("w")])
        .build()
}

fn engine(seed: Option<u64>) -> Engine {
    Engine::with_config(EngineConfig {
        shuffle_seed: seed,
        ..EngineConfig::default()
    })
}

fn trace_line(out: &mut String, label: &str, sol: &Solution, engine: &Engine) {
    let stats = engine.stats();
    writeln!(
        out,
        "{label}: {sol} applications={} match_attempts={}",
        stats.applications, stats.match_attempts
    )
    .unwrap();
}

fn assert_golden(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "golden trace differs\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

/// `getmax` over seven integers: insertion order, then shuffle seeds 0..20.
#[test]
fn getmax_under_shuffle_seeds() {
    let mut trace = String::new();
    for seed in std::iter::once(None).chain((0..20).map(Some)) {
        let mut sol = Solution::from_atoms(
            [4i64, 1, 7, 3, 9, 2, 8]
                .into_iter()
                .map(Atom::int)
                .chain([Atom::rule(max_rule())]),
        );
        let mut engine = engine(seed);
        engine.reduce(&mut sol, &mut NoExterns).unwrap();
        let label = seed.map_or("insertion".to_owned(), |s| format!("seed {s}"));
        trace_line(&mut trace, &label, &sol, &engine);
    }
    assert_golden(&trace, GETMAX);
}

/// The paper's higher-order example `<<2,3,5,8,9,max>, clean>` with a
/// rule-free sibling subsolution: nested reduction, ω splice at the top
/// level, shuffle draws inside a subsolution.
#[test]
fn nested_clean_under_shuffle_seeds() {
    let mut trace = String::new();
    for seed in std::iter::once(None).chain((0..8).map(Some)) {
        let mut sol = Solution::from_atoms([
            Atom::sub([
                Atom::int(2),
                Atom::int(3),
                Atom::int(5),
                Atom::int(8),
                Atom::int(9),
                Atom::rule(max_rule()),
            ]),
            Atom::keyed("KEEP", [Atom::sub([Atom::sym("a"), Atom::sym("b")])]),
            Atom::rule(clean_rule()),
        ]);
        let mut engine = engine(seed);
        engine.reduce(&mut sol, &mut NoExterns).unwrap();
        let label = seed.map_or("insertion".to_owned(), |s| format!("seed {s}"));
        trace_line(&mut trace, &label, &sol, &engine);
    }
    assert_golden(&trace, NESTED_CLEAN);
}

/// A keyed pop/push pair shaped like the agents' `gw_recv`: an ω rest is
/// re-emitted around a new element, a non-linear variable picks the inner
/// atom, and a token that matches nothing stays behind.
#[test]
fn keyed_rest_rewrite() {
    let recv = Rule::builder("recv")
        .lhs([
            Pattern::tuple([Pattern::sym("GOT"), Pattern::var("t"), Pattern::var("v")]),
            Pattern::keyed("SRC", [Pattern::sub_with_rest([Pattern::var("t")], "ws")]),
            Pattern::keyed("IN", [Pattern::sub_rest("win")]),
        ])
        .rhs([
            Template::keyed("SRC", [Template::sub([Template::var("ws")])]),
            Template::keyed(
                "IN",
                [Template::sub([
                    Template::tuple([Template::var("t"), Template::var("v")]),
                    Template::var("win"),
                ])],
            ),
        ])
        .build();
    let got = |t: &str, v: i64| Atom::tuple([Atom::sym("GOT"), Atom::sym(t), Atom::int(v)]);
    let mut sol = Solution::from_atoms([
        Atom::keyed("SRC", [Atom::sub(["a", "b", "c", "d"].map(Atom::sym))]),
        Atom::keyed("IN", [Atom::empty_sub()]),
        Atom::rule(recv),
    ]);
    let mut engine = engine(None);
    let mut trace = String::new();
    for (t, v) in [("c", 3), ("a", 1), ("c", 33), ("d", 4), ("b", 2)] {
        sol.insert(got(t, v));
        engine.reduce(&mut sol, &mut NoExterns).unwrap();
        trace_line(&mut trace, &format!("{t}={v}"), &sol, &engine);
    }
    assert_golden(&trace, KEYED_REST);
}

const GETMAX: &str = r#"insertion: <max, 9> applications=6 match_attempts=36
seed 0: <max, 9> applications=6 match_attempts=36
seed 1: <max, 9> applications=6 match_attempts=34
seed 2: <max, 9> applications=6 match_attempts=38
seed 3: <max, 9> applications=6 match_attempts=46
seed 4: <max, 9> applications=6 match_attempts=42
seed 5: <max, 9> applications=6 match_attempts=46
seed 6: <max, 9> applications=6 match_attempts=34
seed 7: <max, 9> applications=6 match_attempts=62
seed 8: <max, 9> applications=6 match_attempts=46
seed 9: <max, 9> applications=6 match_attempts=46
seed 10: <max, 9> applications=6 match_attempts=36
seed 11: <max, 9> applications=6 match_attempts=44
seed 12: <max, 9> applications=6 match_attempts=46
seed 13: <max, 9> applications=6 match_attempts=38
seed 14: <max, 9> applications=6 match_attempts=54
seed 15: <max, 9> applications=6 match_attempts=44
seed 16: <max, 9> applications=6 match_attempts=48
seed 17: <max, 9> applications=6 match_attempts=34
seed 18: <max, 9> applications=6 match_attempts=32
seed 19: <max, 9> applications=6 match_attempts=58
"#;

const NESTED_CLEAN: &str = r#"insertion: <KEEP:<a, b>, 9> applications=5 match_attempts=37
seed 0: <KEEP:<a, b>, 9> applications=5 match_attempts=29
seed 1: <KEEP:<a, b>, 9> applications=5 match_attempts=31
seed 2: <KEEP:<a, b>, 9> applications=5 match_attempts=33
seed 3: <KEEP:<a, b>, 9> applications=5 match_attempts=33
seed 4: <KEEP:<a, b>, 9> applications=5 match_attempts=37
seed 5: <KEEP:<a, b>, 9> applications=5 match_attempts=29
seed 6: <KEEP:<a, b>, 9> applications=5 match_attempts=27
seed 7: <KEEP:<a, b>, 9> applications=5 match_attempts=25
"#;

const KEYED_REST: &str = r#"c=3: <recv, SRC:<a, b, d>, IN:<c:3>> applications=1 match_attempts=16
a=1: <recv, SRC:<b, d>, IN:<a:1, c:3>> applications=2 match_attempts=30
c=33: <recv, SRC:<b, d>, IN:<a:1, c:3>, GOT:c:33> applications=2 match_attempts=41
d=4: <recv, GOT:c:33, SRC:<b>, IN:<d:4, a:1, c:3>> applications=3 match_attempts=77
b=2: <recv, GOT:c:33, SRC:<>, IN:<b:2, d:4, a:1, c:3>> applications=4 match_attempts=110
"#;
