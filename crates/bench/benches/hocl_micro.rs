//! Criterion micro-benchmarks of the real Rust hot paths of the HOCL
//! engine: pattern matching as a function of solution size (the paper's
//! driving cost), full reductions, a wide fan-in through `gw_recv`,
//! parsing, and the agent event loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ginflow_hocl::prelude::*;
use std::hint::black_box;

fn max_rule() -> Rule {
    Rule::builder("max")
        .lhs([Pattern::var("x"), Pattern::var("y")])
        .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
        .rhs([Template::var("x")])
        .build()
}

/// getMax reduction over multisets of growing size — overall engine
/// throughput (matching + application + one-shot bookkeeping).
fn bench_getmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("getmax_reduction");
    for n in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sol = Solution::from_atoms(
                    (0..n as i64).map(Atom::int).chain([Atom::rule(max_rule())]),
                );
                let mut engine = Engine::new();
                engine.reduce(black_box(&mut sol), &mut NoExterns).unwrap();
                black_box(sol.atoms().len())
            })
        });
    }
    group.finish();
}

/// Failed match scans over a growing solution — the per-event matching
/// cost the simulator charges for (§V-A: matching cost grows with solution
/// size).
fn bench_match_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_scan");
    for n in [16usize, 64, 256, 1024] {
        // A rule that can never fire: every candidate is examined.
        let rule = Rule::builder("never")
            .lhs([Pattern::lit(Atom::sym("ABSENT"))])
            .rhs([])
            .build();
        let sol: Multiset = (0..n as i64).map(Atom::int).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut matcher = ginflow_hocl::Matcher::new();
                let found = matcher
                    .find_match(
                        black_box(&rule),
                        black_box(&sol),
                        None,
                        None,
                        &mut NoExterns,
                    )
                    .unwrap();
                black_box(found.is_none())
            })
        });
    }
    group.finish();
}

/// A whole fan-in through the agents' `gw_recv`: deliveries from each of
/// `n` sources into a join-shaped solution (`SRC` shrinks from `n`, `IN`
/// grows to `n`), one rule application per delivery. Per-delivery cost is
/// the reported time ÷ `n`; it must not depend on `n` — a rewrite that
/// copies `SRC` and `IN` per application shows up as 4× per doubling here.
fn bench_gw_recv_wide(c: &mut Criterion) {
    use ginflow_hocl::symbol::keywords as kw;
    use ginflow_hoclflow::rules::gw_recv;

    let mut group = c.benchmark_group("gw_recv_fanin");
    for n in [500usize, 2000] {
        let initial = Solution::from_atoms([
            Atom::keyed(
                kw::SRC,
                [Atom::sub((0..n).map(|i| Atom::sym(format!("p{i}"))))],
            ),
            Atom::keyed(kw::IN, [Atom::empty_sub()]),
            Atom::rule(gw_recv()),
        ]);
        let deliveries: Vec<Atom> = (0..n)
            .map(|i| {
                Atom::tuple([
                    Atom::sym(kw::DELIVER),
                    Atom::sym(format!("p{i}")),
                    Atom::str("r"),
                ])
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut sol = initial.clone();
                let mut engine = Engine::new();
                for delivery in &deliveries {
                    sol.insert(delivery.clone());
                    engine.reduce(black_box(&mut sol), &mut NoExterns).unwrap();
                }
                assert_eq!(engine.stats().applications, n as u64);
                black_box(sol.atoms().weight())
            })
        });
    }
    group.finish();
}

/// Parser throughput on a workflow-shaped program.
fn bench_parse(c: &mut Criterion) {
    let src = r#"
        let max = replace ?x, ?y by ?x if ?x >= ?y in
        let clean = replace-one <rule(max), *w> by ?w in
        <<2, 3, 5, 8, 9, max>, clean, T1:<SRC:<>, DST:<T2, T3>, SRV:s1, IN:<INPUT:"data">>>
    "#;
    c.bench_function("parse_program", |b| {
        b.iter(|| {
            let p = ginflow_hocl::parse_program(black_box(src)).unwrap();
            black_box(p.rules.len())
        })
    });
}

/// One agent handling a result delivery end-to-end (inject + reduce +
/// command extraction) — the simulator's innermost operation.
fn bench_agent_event(c: &mut Criterion) {
    use ginflow_agent::{Event, SaCore, SaMessage};
    use ginflow_core::workflow::WorkflowBuilder;
    use ginflow_core::Value;
    use ginflow_hoclflow::agent_programs;
    use std::sync::Arc;

    let mut builder = WorkflowBuilder::new("bench");
    builder.task("T1", "s").input(Value::str("x"));
    builder.task("T2", "s").after(["T1"]);
    let wf = builder.build().unwrap();
    let (programs, plans) = agent_programs(&wf);
    let plans = Arc::new(plans);
    let t2 = programs.into_iter().find(|p| p.name == "T2").unwrap();

    c.bench_function("agent_handle_result_delivery", |b| {
        b.iter(|| {
            let mut core = SaCore::new(t2.clone(), plans.clone());
            core.handle(Event::Start).unwrap();
            let commands = core
                .handle(Event::Deliver(SaMessage::Result {
                    from: "T1".into(),
                    value: Value::str("r1"),
                }))
                .unwrap();
            black_box(commands.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_getmax, bench_match_scan, bench_gw_recv_wide, bench_parse, bench_agent_event
}
criterion_main!(benches);
