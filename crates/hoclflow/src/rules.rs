//! Generators for the generic enactment rules (Fig 4) and the adaptation
//! rules (Fig 7), in both their centralized (global) and decentralised
//! (local, message-passing) forms.
//!
//! Naming convention for variables inside generated rules: `s` service,
//! `p` parameter list, `me` the task's own name, `r` a result atom, `t`
//! a peer task name, `w…` ω rest variables.

use crate::externs::names;
use ginflow_hocl::symbol::keywords as kw;
use ginflow_hocl::{Atom, Expr, Guard, Pattern, Rule, Template};

/// `gw_setup` (one-shot): when all dependencies are satisfied
/// (`SRC : ⟨⟩`), turn the collected `IN` entries into the parameter list.
///
/// ```text
/// replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w)
/// ```
pub fn gw_setup() -> Rule {
    Rule::builder("gw_setup")
        .one_shot()
        .lhs([
            Pattern::keyed(kw::SRC, [Pattern::empty_sub()]),
            Pattern::keyed(kw::IN, [Pattern::sub_rest("w")]),
        ])
        .rhs([
            Template::keyed(kw::SRC, [Template::empty_sub()]),
            Template::keyed(kw::PAR, [Template::call("list", [Template::var("w")])]),
        ])
        .build()
}

/// `gw_call` (one-shot): invoke the service with the parameter list and
/// place the result in a fresh `RES`.
///
/// ```text
/// replace-one SRC:<>, SRV:?s, PAR:?p, TASK:?me
/// by SRC:<>, SRV:?s, TASK:?me, RES:<invoke(?s, ?p, ?me)>
/// ```
///
/// Deviation note: Fig 4 matches a pre-existing `RES : ⟨ω⟩`; we *create*
/// `RES` here (initial solutions have none), which closes the paper's race
/// where `gw_pass`'s `ωRES` could match an empty result set.
pub fn gw_call() -> Rule {
    Rule::builder("gw_call")
        .one_shot()
        .lhs([
            Pattern::keyed(kw::SRC, [Pattern::empty_sub()]),
            Pattern::keyed(kw::SRV, [Pattern::var("s")]),
            Pattern::keyed(kw::PAR, [Pattern::var("p")]),
            Pattern::keyed(kw::TASK, [Pattern::var("me")]),
        ])
        .rhs([
            Template::keyed(kw::SRC, [Template::empty_sub()]),
            Template::keyed(kw::SRV, [Template::var("s")]),
            Template::keyed(kw::TASK, [Template::var("me")]),
            Template::keyed(
                kw::RES,
                [Template::sub([Template::call(
                    names::INVOKE,
                    [Template::var("s"), Template::var("p"), Template::var("me")],
                )])],
            ),
        ])
        .build()
}

/// Global `gw_pass` (recurring) — the centralized form of Fig 4: move a
/// result from a source subsolution to one destination subsolution,
/// consuming the corresponding dependency, with provenance tagging.
///
/// ```text
/// replace ?ti : <RES:<?r, *wres>, DST:<?tj, *wdst>, *wi>,
///         ?tj : <SRC:<?ti, *wsrc>, IN:<*win>, *wj>
/// by      ?ti : <RES:<?r, *wres>, DST:<*wdst>, *wi>,
///         ?tj : <SRC:<*wsrc>, IN:<(?ti : ?r), *win>, *wj>
/// if      !is_error(?r)
/// ```
pub fn gw_pass_global() -> Rule {
    Rule::builder("gw_pass")
        .lhs([
            Pattern::tuple([
                Pattern::var("ti"),
                Pattern::sub_with_rest(
                    [
                        Pattern::keyed(
                            kw::RES,
                            [Pattern::sub_with_rest([Pattern::var("r")], "wres")],
                        ),
                        Pattern::keyed(
                            kw::DST,
                            [Pattern::sub_with_rest([Pattern::var("tj")], "wdst")],
                        ),
                    ],
                    "wi",
                ),
            ]),
            Pattern::tuple([
                Pattern::var("tj"),
                Pattern::sub_with_rest(
                    [
                        Pattern::keyed(
                            kw::SRC,
                            [Pattern::sub_with_rest([Pattern::var("ti")], "wsrc")],
                        ),
                        Pattern::keyed(kw::IN, [Pattern::sub_rest("win")]),
                    ],
                    "wj",
                ),
            ]),
        ])
        .guard(Guard::Not(Box::new(Guard::Pred(
            "is_error".into(),
            vec![Expr::var("r")],
        ))))
        .rhs([
            Template::tuple([
                Template::var("ti"),
                Template::sub([
                    Template::keyed(
                        kw::RES,
                        [Template::sub([Template::var("r"), Template::var("wres")])],
                    ),
                    Template::keyed(kw::DST, [Template::sub([Template::var("wdst")])]),
                    Template::var("wi"),
                ]),
            ]),
            Template::tuple([
                Template::var("tj"),
                Template::sub([
                    Template::keyed(kw::SRC, [Template::sub([Template::var("wsrc")])]),
                    Template::keyed(
                        kw::IN,
                        [Template::sub([
                            Template::tuple([Template::var("ti"), Template::var("r")]),
                            Template::var("win"),
                        ])],
                    ),
                    Template::var("wj"),
                ]),
            ]),
        ])
        .build()
}

/// Local send half of `gw_pass` (recurring, decentralised): drain every
/// destination at once and emit one `send_result` command naming them
/// all, in `DST` order (see crate docs, deviation 5). Re-fires whenever
/// `DST` gains entries — which is precisely how an `ADDDST` adaptation
/// makes a source *resend* its result to the replacement tasks, all of
/// them in one reaction.
///
/// ```text
/// replace RES:<?r, *wres>, DST:<?t, *wd>, TASK:?me
/// by      RES:<?r, *wres>, DST:<>, TASK:?me, send_result(?me, ?r, ?t, *wd)
/// if      !is_error(?r)
/// ```
pub fn gw_send() -> Rule {
    Rule::builder("gw_send")
        .lhs([
            Pattern::keyed(
                kw::RES,
                [Pattern::sub_with_rest([Pattern::var("r")], "wres")],
            ),
            Pattern::keyed(kw::DST, [Pattern::sub_with_rest([Pattern::var("t")], "wd")]),
            Pattern::keyed(kw::TASK, [Pattern::var("me")]),
        ])
        .guard(Guard::Not(Box::new(Guard::Pred(
            "is_error".into(),
            vec![Expr::var("r")],
        ))))
        .rhs([
            Template::keyed(
                kw::RES,
                [Template::sub([Template::var("r"), Template::var("wres")])],
            ),
            Template::keyed(kw::DST, [Template::empty_sub()]),
            Template::keyed(kw::TASK, [Template::var("me")]),
            Template::call(
                names::SEND_RESULT,
                [
                    Template::var("me"),
                    Template::var("r"),
                    Template::var("t"),
                    Template::var("wd"),
                ],
            ),
        ])
        .build()
}

/// Local receive half of `gw_pass` (recurring): react to a delivered
/// `DELIVER : from : value` atom by consuming the matching dependency and
/// adding the tagged value to `IN`. A duplicate delivery (its sender no
/// longer in `SRC`) can never react — the structural form of the paper's
/// "successors will take into account only the first result received".
///
/// ```text
/// replace DELIVER:?t:?v, SRC:<?t, *ws>, IN:<*win>
/// by      SRC:<*ws>, IN:<(?t : ?v), *win>
/// ```
pub fn gw_recv() -> Rule {
    Rule::builder("gw_recv")
        .lhs([
            Pattern::tuple([
                Pattern::sym(kw::DELIVER),
                Pattern::var("t"),
                Pattern::var("v"),
            ]),
            Pattern::keyed(kw::SRC, [Pattern::sub_with_rest([Pattern::var("t")], "ws")]),
            Pattern::keyed(kw::IN, [Pattern::sub_rest("win")]),
        ])
        .rhs([
            Template::keyed(kw::SRC, [Template::sub([Template::var("ws")])]),
            Template::keyed(
                kw::IN,
                [Template::sub([
                    Template::tuple([Template::var("t"), Template::var("v")]),
                    Template::var("win"),
                ])],
            ),
        ])
        .build()
}

/// Local `trigger_adapt` for adaptation `k` (one-shot, planted in each
/// *watched* task): consume the `ERROR` result — so it can never propagate
/// — and command the runtime to fan out the adaptation directives.
///
/// ```text
/// replace-one RES:<ERROR, *wr>, TASK:?me
/// by          RES:<*wr>, TASK:?me, adapt_notify(k, ?me)
/// ```
pub fn trigger_adapt_local(k: u32) -> Rule {
    Rule::builder(format!("trigger_adapt_{k}"))
        .one_shot()
        .lhs([
            Pattern::keyed(
                kw::RES,
                [Pattern::sub_with_rest([Pattern::sym(kw::ERROR)], "wr")],
            ),
            Pattern::keyed(kw::TASK, [Pattern::var("me")]),
        ])
        .rhs([
            Template::keyed(kw::RES, [Template::sub([Template::var("wr")])]),
            Template::keyed(kw::TASK, [Template::var("me")]),
            Template::call(
                names::ADAPT_NOTIFY,
                [Template::lit(Atom::int(k as i64)), Template::var("me")],
            ),
        ])
        .build()
}

/// Centralized `trigger_adapt` for adaptation `k` (one-shot, global):
/// Fig 7 generalised. Matches the watched task with an `ERROR` result plus
/// every affected task (region sources and the destination), consumes the
/// error, plants `ADAPT : k` into the affected subsolutions and emits one
/// `TRIGGER : k : alt` atom per replacement task.
pub fn trigger_adapt_global(
    k: u32,
    watched: &str,
    affected: &[&str],
    replacements: &[&str],
) -> Rule {
    let mut lhs = vec![Pattern::tuple([
        Pattern::sym(watched),
        Pattern::sub_with_rest(
            [Pattern::keyed(
                kw::RES,
                [Pattern::sub_with_rest([Pattern::sym(kw::ERROR)], "wr")],
            )],
            "ww",
        ),
    ])];
    let mut rhs = vec![Template::tuple([
        Template::sym(watched),
        Template::sub([
            Template::keyed(kw::RES, [Template::sub([Template::var("wr")])]),
            Template::var("ww"),
        ]),
    ])];
    for (i, name) in affected.iter().enumerate() {
        let wv = format!("wa{i}");
        lhs.push(Pattern::tuple([
            Pattern::sym(*name),
            Pattern::sub_rest(wv.clone()),
        ]));
        rhs.push(Template::tuple([
            Template::sym(*name),
            Template::sub([
                Template::tuple([Template::sym(kw::ADAPT), Template::lit(Atom::int(k as i64))]),
                Template::var(wv),
            ]),
        ]));
    }
    for alt in replacements {
        rhs.push(Template::tuple([
            Template::sym(kw::TRIGGER),
            Template::lit(Atom::int(k as i64)),
            Template::sym(*alt),
        ]));
    }
    Rule::builder(format!("trigger_adapt_{k}_{watched}"))
        .one_shot()
        .lhs(lhs)
        .rhs(rhs)
        .build()
}

/// `add_dst` for adaptation `k` (one-shot, planted in each region source):
/// gated on `ADAPT : k`, appends the replacement entry tasks to `DST`.
/// The recurring `gw_send` (or global `gw_pass`) then resends the retained
/// result to them.
///
/// ```text
/// replace-one ADAPT:k, DST:<*wd> by DST:<alt1, …, altN, *wd>
/// ```
pub fn add_dst(k: u32, new_destinations: &[&str]) -> Rule {
    let mut dst_elems: Vec<Template> = new_destinations.iter().map(|d| Template::sym(*d)).collect();
    dst_elems.push(Template::var("wd"));
    Rule::builder(format!("add_dst_{k}"))
        .one_shot()
        .lhs([
            Pattern::tuple([Pattern::sym(kw::ADAPT), Pattern::lit(Atom::int(k as i64))]),
            Pattern::keyed(kw::DST, [Pattern::sub_rest("wd")]),
        ])
        .rhs([Template::keyed(kw::DST, [Template::Sub(dst_elems)])])
        .build()
}

/// `mv_src` for adaptation `k` (one-shot, planted in the destination):
/// gated on `ADAPT : k`; swaps the region's exit tasks for the
/// replacement's exit tasks in `SRC` and flushes `IN` entries that
/// originated *inside the region* (see crate docs, deviation 1).
///
/// ```text
/// replace-one ADAPT:k, SRC:<*ws>, IN:<*win>
/// by SRC:<swap_src([exits…], [alts…], *ws)>, IN:<flush_in([region…], *win)>
/// ```
pub fn mv_src(k: u32, old_sources: &[&str], new_sources: &[&str], region: &[&str]) -> Rule {
    let removals = Template::lit(Atom::List(
        old_sources.iter().map(|s| Atom::sym(*s)).collect(),
    ));
    let additions = Template::lit(Atom::List(
        new_sources.iter().map(|s| Atom::sym(*s)).collect(),
    ));
    let tags = Template::lit(Atom::List(region.iter().map(|s| Atom::sym(*s)).collect()));
    Rule::builder(format!("mv_src_{k}"))
        .one_shot()
        .lhs([
            Pattern::tuple([Pattern::sym(kw::ADAPT), Pattern::lit(Atom::int(k as i64))]),
            Pattern::keyed(kw::SRC, [Pattern::sub_rest("ws")]),
            Pattern::keyed(kw::IN, [Pattern::sub_rest("win")]),
        ])
        .rhs([
            Template::keyed(
                kw::SRC,
                [Template::sub([Template::call(
                    names::SWAP_SRC,
                    [removals, additions, Template::var("ws")],
                )])],
            ),
            Template::keyed(
                kw::IN,
                [Template::sub([Template::call(
                    names::FLUSH_IN,
                    [tags, Template::var("win")],
                )])],
            ),
        ])
        .build()
}

/// Local activation rule for a standby task (one-shot): on receipt of the
/// `TRIGGER : k` atom, inject the generic rules — higher-order rule
/// injection, the mechanism §III-A's `getMax` example motivates.
pub fn activate_local(k: u32, rules: Vec<Rule>) -> Rule {
    let mut rhs: Vec<Template> = rules.into_iter().map(Template::rule).collect();
    rhs.push(Template::tuple([
        Template::sym("ACTIVATED"),
        Template::lit(Atom::int(k as i64)),
    ]));
    Rule::builder(format!("activate_{k}"))
        .one_shot()
        .lhs([Pattern::tuple([
            Pattern::sym(kw::TRIGGER),
            Pattern::lit(Atom::int(k as i64)),
        ])])
        .rhs(rhs)
        .build()
}

/// Centralized activation rule for standby task `alt` of adaptation `k`:
/// consumes the `TRIGGER : k : alt` atom and injects the generic rules
/// into the standby subsolution.
pub fn activate_global(k: u32, alt: &str, rules: Vec<Rule>) -> Rule {
    let mut sub_elems = vec![Template::var("w")];
    sub_elems.extend(rules.into_iter().map(Template::rule));
    Rule::builder(format!("activate_{k}_{alt}"))
        .one_shot()
        .lhs([
            Pattern::tuple([
                Pattern::sym(kw::TRIGGER),
                Pattern::lit(Atom::int(k as i64)),
                Pattern::sym(alt),
            ]),
            Pattern::tuple([Pattern::sym(alt), Pattern::sub_rest("w")]),
        ])
        .rhs([Template::tuple([
            Template::sym(alt),
            Template::Sub(sub_elems),
        ])])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externs::FlowExterns;
    use ginflow_hocl::{Engine, ExternHost, ExternResult, HoclError, Solution};

    /// Host that answers `invoke` synchronously with `"out:<task>"` and
    /// records command externs.
    struct TestHost {
        flow: FlowExterns,
        /// `(to, from, value)`, one entry per destination.
        sent: Vec<(Atom, Atom, Atom)>,
        /// `send_result` calls, however many destinations each named.
        send_calls: usize,
        notified: Vec<(i64, Atom)>,
    }

    impl TestHost {
        fn new() -> Self {
            TestHost {
                flow: FlowExterns::new(),
                sent: vec![],
                send_calls: 0,
                notified: vec![],
            }
        }
    }

    impl ExternHost for TestHost {
        fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError> {
            match name {
                names::INVOKE => {
                    let task = args[2].as_sym().unwrap().as_str();
                    Ok(ExternResult::Atoms(vec![Atom::str(format!("out:{task}"))]))
                }
                names::SEND_RESULT => {
                    let [from, value, to @ ..] = args else {
                        panic!("send_result(from, value, to…) got {args:?}");
                    };
                    self.send_calls += 1;
                    for t in to {
                        self.sent.push((t.clone(), from.clone(), value.clone()));
                    }
                    Ok(ExternResult::Atoms(vec![]))
                }
                names::ADAPT_NOTIFY => {
                    self.notified
                        .push((args[0].as_int().unwrap(), args[1].clone()));
                    Ok(ExternResult::Atoms(vec![]))
                }
                other => self.flow.call(other, args),
            }
        }
    }

    fn local_task_atoms(src: &[&str], dst: &[&str], inputs: &[Atom]) -> Vec<Atom> {
        vec![
            Atom::keyed(kw::TASK, [Atom::sym("T")]),
            Atom::keyed(kw::SRC, [Atom::sub(src.iter().map(|s| Atom::sym(*s)))]),
            Atom::keyed(kw::DST, [Atom::sub(dst.iter().map(|s| Atom::sym(*s)))]),
            Atom::keyed(kw::SRV, [Atom::sym("svc")]),
            Atom::keyed(
                kw::IN,
                [Atom::sub(
                    inputs
                        .iter()
                        .map(|v| Atom::tuple([Atom::sym("INPUT"), v.clone()])),
                )],
            ),
        ]
    }

    #[test]
    fn setup_call_send_pipeline() {
        let mut atoms = local_task_atoms(&[], &["T2", "T3"], &[Atom::str("x")]);
        atoms.push(Atom::rule(gw_setup()));
        atoms.push(Atom::rule(gw_call()));
        atoms.push(Atom::rule(gw_send()));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        let out = Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert!(out.inert);
        // Result computed and sent to both destinations; DST drained.
        assert_eq!(host.sent.len(), 2);
        assert_eq!(host.sent[0].1, Atom::sym("T"));
        assert_eq!(host.sent[0].2, Atom::str("out:T"));
        // By one reaction, naming the destinations in DST order.
        assert_eq!(host.send_calls, 1);
        let to: Vec<&Atom> = host.sent.iter().map(|(t, _, _)| t).collect();
        assert_eq!(to, [&Atom::sym("T2"), &Atom::sym("T3")]);
        assert!(sol.atoms().keyed_sub(kw::DST).unwrap().is_empty());
        // RES retains the result for future resends.
        assert_eq!(sol.atoms().keyed_sub(kw::RES).unwrap().len(), 1);
    }

    #[test]
    fn setup_waits_for_dependencies() {
        let mut atoms = local_task_atoms(&["T0"], &[], &[]);
        atoms.push(Atom::rule(gw_setup()));
        atoms.push(Atom::rule(gw_call()));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        // SRC non-empty: nothing fires.
        assert!(sol.atoms().keyed_sub(kw::PAR).is_none());
        assert!(sol.atoms().keyed_sub(kw::RES).is_none());
    }

    #[test]
    fn recv_consumes_dependency_and_tags_provenance() {
        let mut atoms = local_task_atoms(&["T0", "T1"], &[], &[]);
        atoms.push(Atom::rule(gw_recv()));
        atoms.push(Atom::tuple([
            Atom::sym(kw::DELIVER),
            Atom::sym("T0"),
            Atom::str("v0"),
        ]));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        let src = sol.atoms().keyed_sub(kw::SRC).unwrap();
        assert_eq!(src.len(), 1);
        assert!(src.contains(&Atom::sym("T1")));
        let input = sol.atoms().keyed_sub(kw::IN).unwrap();
        assert!(input.contains(&Atom::tuple([Atom::sym("T0"), Atom::str("v0")])));
    }

    #[test]
    fn duplicate_delivery_is_inert() {
        let mut atoms = local_task_atoms(&["T0"], &[], &[]);
        atoms.push(Atom::rule(gw_recv()));
        atoms.push(Atom::tuple([
            Atom::sym(kw::DELIVER),
            Atom::sym("T0"),
            Atom::str("first"),
        ]));
        atoms.push(Atom::tuple([
            Atom::sym(kw::DELIVER),
            Atom::sym("T0"),
            Atom::str("dup"),
        ]));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        let input = sol.atoms().keyed_sub(kw::IN).unwrap();
        assert_eq!(input.len(), 1, "only the first delivery reacts");
        // The duplicate stays in the solution for good: nothing collects
        // it. It costs one failed `gw_recv` probe per matching pass, and it
        // cannot be dropped blindly — a replacement task's result may
        // legitimately arrive before the `ADAPT` that adds its sender to
        // `SRC`, and must wait here until then.
        assert!(sol
            .atoms()
            .iter()
            .any(|a| a.tuple_key().map(|s| s.as_str()) == Some(kw::DELIVER)));
    }

    #[test]
    fn trigger_adapt_consumes_error_and_notifies() {
        let mut atoms = local_task_atoms(&[], &[], &[]);
        atoms.push(Atom::keyed(kw::RES, [Atom::sub([Atom::sym(kw::ERROR)])]));
        atoms.push(Atom::rule(trigger_adapt_local(3)));
        atoms.push(Atom::rule(gw_send()));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        let out = Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert!(out.inert);
        assert_eq!(host.notified, vec![(3, Atom::sym("T"))]);
        // ERROR gone; nothing was sent downstream.
        assert!(sol.atoms().keyed_sub(kw::RES).unwrap().is_empty());
        assert!(host.sent.is_empty());
    }

    #[test]
    fn gw_send_never_ships_errors() {
        let mut atoms = local_task_atoms(&[], &["T4"], &[]);
        atoms.push(Atom::keyed(kw::RES, [Atom::sub([Atom::sym(kw::ERROR)])]));
        atoms.push(Atom::rule(gw_send()));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert!(host.sent.is_empty());
        // The dependency edge survives (T4 will be re-pointed by mv_src).
        assert_eq!(sol.atoms().keyed_sub(kw::DST).unwrap().len(), 1);
    }

    #[test]
    fn add_dst_reenables_send() {
        // Completed task: result in RES, DST empty. ADAPT:5 arrives.
        let mut atoms = local_task_atoms(&[], &[], &[]);
        atoms.push(Atom::keyed(kw::RES, [Atom::sub([Atom::str("done")])]));
        atoms.push(Atom::rule(gw_send()));
        atoms.push(Atom::rule(add_dst(5, &["R1", "R2"])));
        atoms.push(Atom::tuple([Atom::sym(kw::ADAPT), Atom::int(5)]));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        // Resent to both replacement entries, by one reaction.
        assert_eq!(host.sent.len(), 2);
        let to: Vec<&Atom> = host.sent.iter().map(|(t, _, _)| t).collect();
        assert!(to.contains(&&Atom::sym("R1")));
        assert!(to.contains(&&Atom::sym("R2")));
        assert_eq!(host.send_calls, 1);
    }

    #[test]
    fn add_dst_requires_adapt_token() {
        let mut atoms = local_task_atoms(&[], &[], &[]);
        atoms.push(Atom::keyed(kw::RES, [Atom::sub([Atom::str("done")])]));
        atoms.push(Atom::rule(gw_send()));
        atoms.push(Atom::rule(add_dst(5, &["R1"])));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert!(host.sent.is_empty(), "gated rules must stay disabled");
    }

    #[test]
    fn mv_src_swaps_sources_and_flushes_stale_inputs() {
        // T4 expecting {T2, T3}; T3 already delivered; region {T2} replaced
        // by {T2'}.
        let mut atoms = local_task_atoms(&["T2", "T3"], &[], &[]);
        // Simulate T3's earlier delivery.
        if let Some(src) = Solution::from_atoms(atoms.clone())
            .atoms()
            .keyed_sub(kw::SRC)
        {
            assert_eq!(src.len(), 2);
        }
        atoms.push(Atom::rule(mv_src(7, &["T2"], &["T2'"], &["T2"])));
        atoms.push(Atom::tuple([Atom::sym(kw::ADAPT), Atom::int(7)]));
        // Pretend a stale value from T2 and a good value from T3 are in IN.
        let in_sub = atoms
            .iter_mut()
            .find(|a| a.tuple_key().map(|s| s.as_str()) == Some(kw::IN))
            .unwrap();
        if let Atom::Tuple(v) = in_sub {
            v[1] = Atom::sub([
                Atom::tuple([Atom::sym("T2"), Atom::str("stale")]),
                Atom::tuple([Atom::sym("T3"), Atom::str("good")]),
            ]);
        }
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        let src = sol.atoms().keyed_sub(kw::SRC).unwrap();
        assert!(src.contains(&Atom::sym("T2'")));
        assert!(src.contains(&Atom::sym("T3")));
        assert!(!src.contains(&Atom::sym("T2")));
        let input = sol.atoms().keyed_sub(kw::IN).unwrap();
        assert!(input.contains(&Atom::tuple([Atom::sym("T3"), Atom::str("good")])));
        assert_eq!(input.len(), 1, "stale T2 entry flushed");
    }

    #[test]
    fn activation_injects_rules() {
        // Standby task: atoms + activate rule only.
        let mut atoms = local_task_atoms(&["T1"], &["T4"], &[]);
        atoms.push(Atom::rule(activate_local(
            2,
            vec![gw_setup(), gw_call(), gw_send(), gw_recv()],
        )));
        let mut sol = Solution::from_atoms(atoms);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert_eq!(sol.atoms().rule_indices().len(), 1, "still just activate");

        // TRIGGER arrives: rules appear, then the delivered input drives a
        // full setup → call → send cycle.
        sol.insert(Atom::tuple([Atom::sym(kw::TRIGGER), Atom::int(2)]));
        sol.insert(Atom::tuple([
            Atom::sym(kw::DELIVER),
            Atom::sym("T1"),
            Atom::str("resent"),
        ]));
        let out = Engine::new().reduce(&mut sol, &mut host).unwrap();
        assert!(out.inert);
        assert_eq!(host.sent.len(), 1);
        assert_eq!(host.sent[0].0, Atom::sym("T4"));
    }

    #[test]
    fn global_pass_moves_results_between_subsolutions() {
        let t1 = Atom::tuple([
            Atom::sym("T1"),
            Atom::sub([
                Atom::keyed(kw::RES, [Atom::sub([Atom::str("r1")])]),
                Atom::keyed(kw::DST, [Atom::sub([Atom::sym("T2")])]),
            ]),
        ]);
        let t2 = Atom::tuple([
            Atom::sym("T2"),
            Atom::sub([
                Atom::keyed(kw::SRC, [Atom::sub([Atom::sym("T1")])]),
                Atom::keyed(kw::IN, [Atom::empty_sub()]),
            ]),
        ]);
        let mut sol = Solution::from_atoms([t1, t2, Atom::rule(gw_pass_global())]);
        let mut host = TestHost::new();
        Engine::new().reduce(&mut sol, &mut host).unwrap();
        let t2 = sol
            .atoms()
            .find(|a| a.tuple_key().map(|s| s.as_str()) == Some("T2"))
            .unwrap();
        let body = t2.as_tuple().unwrap()[1].as_sub().unwrap();
        assert!(body.keyed_sub(kw::SRC).unwrap().is_empty());
        assert!(body
            .keyed_sub(kw::IN)
            .unwrap()
            .contains(&Atom::tuple([Atom::sym("T1"), Atom::str("r1")])));
    }
}
