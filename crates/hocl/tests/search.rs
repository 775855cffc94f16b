//! What the search for reactants costs, counted in match attempts: a
//! keyed pattern meets only the tuples of its key, and a rule naming a
//! key with too few tuples is not tried at all. No clock.

use ginflow_hocl::prelude::*;
use ginflow_hocl::symbol::keywords as kw;

/// `replace-one SRC:<>, SRV:?s, PAR:?p by RES:?p` — `gw_call`'s shape:
/// the first two reactants are there long before the third.
fn call_rule() -> Rule {
    Rule::builder("call")
        .one_shot()
        .lhs([
            Pattern::keyed(kw::SRC, [Pattern::empty_sub()]),
            Pattern::keyed(kw::SRV, [Pattern::var("s")]),
            Pattern::keyed(kw::PAR, [Pattern::var("p")]),
        ])
        .rhs([Template::keyed(kw::RES, [Template::var("p")])])
        .build()
}

/// `replace DELIVER:?v, IN:<*w> by IN:<?v, *w>` — `gw_recv`'s shape.
fn recv_rule() -> Rule {
    Rule::builder("recv")
        .lhs([
            Pattern::keyed(kw::DELIVER, [Pattern::var("v")]),
            Pattern::keyed(kw::IN, [Pattern::sub_rest("w")]),
        ])
        .rhs([Template::keyed(
            kw::IN,
            [Template::sub([Template::var("v"), Template::var("w")])],
        )])
        .build()
}

/// `replace-one DST:<*wd>, ADAPT:k by DST:<alt, *wd>` — gated on a token
/// that is not its first reactant.
fn gated_rule(k: i64) -> Rule {
    Rule::builder(format!("gated_{k}"))
        .one_shot()
        .lhs([
            Pattern::keyed(kw::DST, [Pattern::sub_rest("wd")]),
            Pattern::tuple([Pattern::sym(kw::ADAPT), Pattern::lit(Atom::int(k))]),
        ])
        .rhs([Template::keyed(
            kw::DST,
            [Template::sub([Template::sym("alt"), Template::var("wd")])],
        )])
        .build()
}

/// The match attempts one `reduce` of `sol` makes.
fn attempts(sol: &mut Solution) -> u64 {
    let mut engine = Engine::new();
    engine.reduce(sol, &mut NoExterns).unwrap();
    engine.stats().match_attempts
}

#[test]
fn a_rule_whose_keyed_reactant_is_absent_makes_no_attempt() {
    let mut sol = Solution::from_atoms([
        Atom::keyed(kw::SRC, [Atom::empty_sub()]),
        Atom::keyed(kw::SRV, [Atom::sym("s")]),
        Atom::rule(call_rule()),
    ]);
    // Matching `SRC` and `SRV` before finding no `PAR` would be 8.
    assert_eq!(attempts(&mut sol), 0);
    sol.insert(Atom::keyed(kw::PAR, [Atom::list([Atom::int(1)])]));
    assert!(attempts(&mut sol) > 0);
    assert!(sol
        .atoms()
        .contains(&Atom::keyed(kw::RES, [Atom::list([Atom::int(1)])])));
}

#[test]
fn token_gated_rules_add_nothing_to_a_delivery() {
    // A delivery to an agent holding k rules waiting for an `ADAPT`
    // token costs the same attempts at k = 0 as at k = 20.
    let delivery = |k: i64| {
        let mut sol = Solution::from_atoms(
            [
                Atom::keyed(kw::DST, [Atom::sub([Atom::sym("t")])]),
                Atom::keyed(kw::IN, [Atom::empty_sub()]),
                Atom::rule(recv_rule()),
            ]
            .into_iter()
            .chain((0..k).map(|i| Atom::rule(gated_rule(i)))),
        );
        attempts(&mut sol);
        sol.insert(Atom::keyed(kw::DELIVER, [Atom::int(7)]));
        attempts(&mut sol)
    };
    let alone = delivery(0);
    assert!(alone > 0);
    assert_eq!(delivery(20), alone);
}

#[test]
fn of_two_keyed_candidates_the_earlier_is_consumed() {
    let take = Rule::builder("take")
        .one_shot()
        .lhs([Pattern::keyed("K", [Pattern::var("x")])])
        .rhs([Template::keyed("GOT", [Template::var("x")])])
        .build();
    let mut sol = Solution::from_atoms([
        Atom::keyed("OTHER", [Atom::int(0)]),
        Atom::keyed("K", [Atom::int(1)]),
        Atom::int(9),
        Atom::keyed("K", [Atom::int(2)]),
        Atom::rule(take),
    ]);
    Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    assert!(
        sol.atoms().contains(&Atom::keyed("GOT", [Atom::int(1)])),
        "{sol}"
    );
    assert!(
        sol.atoms().contains(&Atom::keyed("K", [Atom::int(2)])),
        "{sol}"
    );
}

#[test]
fn a_key_spelled_by_two_symbols_is_one_key() {
    // Only keywords are shared symbols: two `K`s made apart are two
    // allocations, and still the same key.
    let pair = Rule::builder("pair")
        .one_shot()
        .lhs([
            Pattern::keyed("K", [Pattern::var("x")]),
            Pattern::keyed("K", [Pattern::var("y")]),
        ])
        .rhs([Template::keyed(
            "SUM",
            [Template::var("x"), Template::var("y")],
        )])
        .build();
    let mut sol = Solution::from_atoms([
        Atom::keyed("K", [Atom::int(1)]),
        Atom::keyed(String::from("K"), [Atom::int(2)]),
        Atom::rule(pair),
    ]);
    Engine::new().reduce(&mut sol, &mut NoExterns).unwrap();
    let sum = Atom::tuple([Atom::sym("SUM"), Atom::int(1), Atom::int(2)]);
    assert!(sol.atoms().contains(&sum), "{sol}");
}

#[test]
fn a_skipped_rule_still_draws_its_shuffle() {
    // The gated rule is never tried, but in nondeterministic mode its try
    // draws an order all the same, so the seed decides which `K` the
    // second rule takes exactly as a full scan would.
    let take = Rule::builder("take")
        .one_shot()
        .lhs([Pattern::keyed("K", [Pattern::var("x")])])
        .rhs([Template::keyed("GOT", [Template::var("x")])])
        .build();
    let got: Vec<i64> = (0..8)
        .map(|seed| {
            let mut sol = Solution::from_atoms(
                [Atom::rule(gated_rule(0)), Atom::rule(take.clone())]
                    .into_iter()
                    .chain([Atom::keyed(kw::DST, [Atom::empty_sub()])])
                    .chain((1..=5).map(|i| Atom::keyed("K", [Atom::int(i)]))),
            );
            let mut engine = Engine::with_config(EngineConfig {
                shuffle_seed: Some(seed),
                ..EngineConfig::default()
            });
            engine.reduce(&mut sol, &mut NoExterns).unwrap();
            let got = sol
                .atoms()
                .iter()
                .find(|a| a.tuple_key().is_some_and(|k| k.as_str() == "GOT"));
            got.and_then(|a| a.as_tuple()?[1].as_int()).unwrap()
        })
        .collect();
    // A full scan's picks, seed by seed (drawing no order for the gated
    // rule would give 3, 2, 3, 1, 4, 4, 5, 5).
    assert_eq!(got, [2, 1, 4, 5, 1, 5, 2, 1]);
}
