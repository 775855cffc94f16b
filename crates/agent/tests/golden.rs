//! Golden traces of the agent state machine and the centralized
//! interpreter: every `Command`, the `Display` of every final solution,
//! and the exact `applications` / `match_attempts` counters of a fixed set
//! of runs, pinned as literals. Recorded against the clone-and-rebuild
//! HOCL matcher; they are the oracle for any rewrite of the matching or
//! instantiation path (same chosen match, same search order, same atom
//! order in every rewritten subsolution). `weight_scanned` is left out on
//! purpose: it is the cost-model quantity an engine change may lower.

use ginflow_agent::{Command, Event, SaCore, SaMessage};
use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{patterns, FailingService, ServiceRegistry, Value, Workflow};
use ginflow_hoclflow::{agent_programs, CentralizedConfig};
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;

fn fig5() -> Workflow {
    let mut b = WorkflowBuilder::new("fig5");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.adaptation(
        "replace-T2",
        ["T2"],
        ["T2"],
        [ReplacementTask::new("T2'", "s2p", ["T1"])],
    );
    b.build().unwrap()
}

fn assert_golden(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "golden trace differs\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

fn final_lines(trace: &mut String, cores: &mut [SaCore]) {
    for core in cores {
        let stats = core.take_stats();
        writeln!(
            trace,
            "final {}: {} applications={} match_attempts={}",
            core.name(),
            core.solution(),
            stats.applications,
            stats.match_attempts
        )
        .unwrap();
    }
}

/// The paper's Fig 5 run driven agent by agent over a FIFO of events: T2's
/// service fails, `trigger_adapt` fans out `ADAPT`/`TRIGGER`, T2' takes
/// over and T4 completes on `s4(s2p(s1(input)),s3(s1(input)))`.
#[test]
fn fig5_adaptive_run_agent_by_agent() {
    let (programs, plans) = agent_programs(&fig5());
    let plans = Arc::new(plans);
    let mut cores: Vec<SaCore> = programs
        .into_iter()
        .map(|p| SaCore::new(p, plans.clone()))
        .collect();
    let index = |cores: &[SaCore], name: &str| {
        cores
            .iter()
            .position(|c| c.name() == name)
            .expect("a known task")
    };
    let mut queue: VecDeque<(usize, Event)> = (0..cores.len()).map(|i| (i, Event::Start)).collect();
    let mut trace = String::new();
    while let Some((i, event)) = queue.pop_front() {
        writeln!(trace, "{} <- {event:?}", cores[i].name()).unwrap();
        let commands = cores[i].handle(event).unwrap();
        for command in commands {
            writeln!(trace, "  -> {command:?}").unwrap();
            match command {
                Command::Invoke {
                    effect,
                    service,
                    params,
                } => {
                    let result = if service == "s2" {
                        Err("boom".to_owned())
                    } else {
                        let args: Vec<String> = params
                            .iter()
                            .map(|p| p.as_str().unwrap().to_owned())
                            .collect();
                        Ok(Value::str(format!("{service}({})", args.join(","))))
                    };
                    queue.push_back((i, Event::ServiceCompleted { effect, result }));
                }
                Command::Send { to, message } => {
                    queue.push_back((index(&cores, &to), Event::Deliver(message)));
                }
                Command::Publish { .. } => {}
            }
        }
    }
    final_lines(&mut trace, &mut cores);
    assert_golden(&trace, FIG5_AGENTS);
}

/// The `join` agent of an 8-wide fan-in: p5 arrives before p3, p2 arrives
/// twice, the service completes, and the solution is shown after every
/// event.
#[test]
fn fanin_join_with_duplicate_and_out_of_order_delivery() {
    let wf = patterns::parallel(8, "s").unwrap();
    let (programs, plans) = agent_programs(&wf);
    let program = programs.into_iter().find(|p| p.name == "join").unwrap();
    let mut join = SaCore::new(program, Arc::new(plans));
    let mut trace = String::new();
    let mut step = |join: &mut SaCore, event: Event| {
        writeln!(trace, "join <- {event:?}").unwrap();
        for command in join.handle(event).unwrap() {
            writeln!(trace, "  -> {command:?}").unwrap();
        }
        writeln!(trace, "  = {}", join.solution()).unwrap();
    };
    step(&mut join, Event::Start);
    for from in ["p1", "p2", "p5", "p2", "p3", "p4", "p6", "p7", "p8"] {
        let value = Value::str(format!("r-{from}"));
        let message = SaMessage::Result {
            from: from.into(),
            value,
        };
        step(&mut join, Event::Deliver(message));
    }
    let completed = Event::ServiceCompleted {
        effect: ginflow_hocl::EffectId(0),
        result: Ok(Value::str("joined")),
    };
    step(&mut join, completed);
    final_lines(&mut trace, std::slice::from_mut(&mut join));
    assert_golden(&trace, FANIN_JOIN);
}

/// `hoclflow::run` (one interpreter, global `gw_pass`) on Fig 5 with T2
/// failing: insertion order and two shuffle seeds.
#[test]
fn centralized_fig5() {
    let mut registry = ServiceRegistry::tracing_for(["s1", "s2", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(FailingService));
    let mut trace = String::new();
    for seed in [None, Some(1), Some(2)] {
        let config = CentralizedConfig {
            shuffle_seed: seed,
            ..CentralizedConfig::default()
        };
        let outcome = ginflow_hoclflow::run(&fig5(), &registry, config).unwrap();
        writeln!(
            trace,
            "seed {seed:?}: applications={} {}",
            outcome.applications, outcome.solution
        )
        .unwrap();
    }
    assert_golden(&trace, CENTRALIZED_FIG5);
}

const FIG5_AGENTS: &str = r#"T1 <- Start
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s1", params: ["input"] }
T2 <- Start
T3 <- Start
T4 <- Start
T2' <- Start
T1 <- ServiceCompleted { effect: EffectId(0), result: Ok("s1(input)") }
  -> Publish { state: Completed, result: Some("s1(input)") }
  -> Send { to: "T2", message: Result { from: "T1", value: "s1(input)" } }
  -> Send { to: "T3", message: Result { from: "T1", value: "s1(input)" } }
T2 <- Deliver(Result { from: "T1", value: "s1(input)" })
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s2", params: ["s1(input)"] }
T3 <- Deliver(Result { from: "T1", value: "s1(input)" })
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s3", params: ["s1(input)"] }
T2 <- ServiceCompleted { effect: EffectId(0), result: Err("boom") }
  -> Publish { state: Failed, result: None }
  -> Send { to: "T1", message: Adapt { adaptation: 0 } }
  -> Send { to: "T4", message: Adapt { adaptation: 0 } }
  -> Send { to: "T2'", message: Trigger { adaptation: 0 } }
T3 <- ServiceCompleted { effect: EffectId(0), result: Ok("s3(s1(input))") }
  -> Publish { state: Completed, result: Some("s3(s1(input))") }
  -> Send { to: "T4", message: Result { from: "T3", value: "s3(s1(input))" } }
T1 <- Deliver(Adapt { adaptation: 0 })
  -> Send { to: "T2'", message: Result { from: "T1", value: "s1(input)" } }
T4 <- Deliver(Adapt { adaptation: 0 })
T2' <- Deliver(Trigger { adaptation: 0 })
T4 <- Deliver(Result { from: "T3", value: "s3(s1(input))" })
T2' <- Deliver(Result { from: "T1", value: "s1(input)" })
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s2p", params: ["s1(input)"] }
T2' <- ServiceCompleted { effect: EffectId(0), result: Ok("s2p(s1(input))") }
  -> Publish { state: Completed, result: Some("s2p(s1(input))") }
  -> Send { to: "T4", message: Result { from: "T2'", value: "s2p(s1(input))" } }
T4 <- Deliver(Result { from: "T2'", value: "s2p(s1(input))" })
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s4", params: ["s2p(s1(input))", "s3(s1(input))"] }
T4 <- ServiceCompleted { effect: EffectId(0), result: Ok("s4(s2p(s1(input)),s3(s1(input)))") }
  -> Publish { state: Completed, result: Some("s4(s2p(s1(input)),s3(s1(input)))") }
final T1: <gw_send, gw_recv, SRC:<>, SRV:s1, RES:<"s1(input)">, DST:<>, TASK:T1> applications=6 match_attempts=101
final T2: <DST:<T4>, gw_send, gw_recv, SRC:<>, SRV:s2, RES:<>, TASK:T2> applications=4 match_attempts=81
final T3: <gw_send, gw_recv, SRC:<>, SRV:s3, RES:<"s3(s1(input))">, DST:<>, TASK:T3> applications=4 match_attempts=77
final T4: <DST:<>, gw_send, gw_recv, SRC:<>, SRV:s4, TASK:T4, RES:<"s4(s2p(s1(input)),s3(s1(input)))">> applications=5 match_attempts=121
final T2': <gw_send, gw_recv, ACTIVATED:0, SRC:<>, SRV:s2p, RES:<"s2p(s1(input))">, DST:<>, TASK:T2'> applications=5 match_attempts=81
"#;

const FANIN_JOIN: &str = r#"join <- Start
  = <TASK:join, SRC:<p1, p2, p3, p4, p5, p6, p7, p8>, DST:<>, SRV:s, IN:<>, gw_setup, gw_call, gw_send, gw_recv>
join <- Deliver(Result { from: "p1", value: "r-p1" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, SRC:<p2, p3, p4, p5, p6, p7, p8>, IN:<p1:"r-p1">>
join <- Deliver(Result { from: "p2", value: "r-p2" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, SRC:<p3, p4, p5, p6, p7, p8>, IN:<p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p5", value: "r-p5" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, SRC:<p3, p4, p6, p7, p8>, IN:<p5:"r-p5", p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p2", value: "r-p2" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, SRC:<p3, p4, p6, p7, p8>, IN:<p5:"r-p5", p2:"r-p2", p1:"r-p1">, DELIVER:p2:"r-p2">
join <- Deliver(Result { from: "p3", value: "r-p3" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<p4, p6, p7, p8>, IN:<p3:"r-p3", p5:"r-p5", p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p4", value: "r-p4" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<p6, p7, p8>, IN:<p4:"r-p4", p3:"r-p3", p5:"r-p5", p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p6", value: "r-p6" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<p7, p8>, IN:<p6:"r-p6", p4:"r-p4", p3:"r-p3", p5:"r-p5", p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p7", value: "r-p7" })
  = <TASK:join, DST:<>, SRV:s, gw_setup, gw_call, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<p8>, IN:<p7:"r-p7", p6:"r-p6", p4:"r-p4", p3:"r-p3", p5:"r-p5", p2:"r-p2", p1:"r-p1">>
join <- Deliver(Result { from: "p8", value: "r-p8" })
  -> Publish { state: Running, result: None }
  -> Invoke { effect: EffectId(0), service: "s", params: ["r-p1", "r-p2", "r-p3", "r-p4", "r-p5", "r-p6", "r-p7", "r-p8"] }
  = <DST:<>, gw_send, gw_recv, DELIVER:p2:"r-p2"> +1 pending
join <- ServiceCompleted { effect: EffectId(0), result: Ok("joined") }
  -> Publish { state: Completed, result: Some("joined") }
  = <DST:<>, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<>, SRV:s, TASK:join, RES:<"joined">>
final join: <DST:<>, gw_send, gw_recv, DELIVER:p2:"r-p2", SRC:<>, SRV:s, TASK:join, RES:<"joined">> applications=10 match_attempts=417
"#;

const CENTRALIZED_FIG5: &str = r#"seed None: applications=19 <gw_pass, T3:<RES:<"s3(s1(input))">, DST:<>, SRC:<>, SRV:s3, TASK:T3>, T2:<RES:<>, DST:<T4>, SRC:<>, SRV:s2, TASK:T2>, T1:<RES:<"s1(input)">, DST:<>, SRC:<>, SRV:s1, TASK:T1>, T2':<RES:<"s2p(s1(input))">, DST:<>, SRC:<>, SRV:s2p, TASK:T2'>, T4:<DST:<>, SRC:<>, SRV:s4, TASK:T4, RES:<"s4(s2p(s1(input)),s3(s1(input)))">>>
seed Some(1): applications=19 <gw_pass, T3:<RES:<"s3(s1(input))">, DST:<>, SRC:<>, SRV:s3, TASK:T3>, T2:<RES:<>, DST:<T4>, SRC:<>, SRV:s2, TASK:T2>, T1:<RES:<"s1(input)">, DST:<>, SRC:<>, SRV:s1, TASK:T1>, T2':<RES:<"s2p(s1(input))">, DST:<>, SRC:<>, SRV:s2p, TASK:T2'>, T4:<DST:<>, SRC:<>, SRV:s4, TASK:T4, RES:<"s4(s2p(s1(input)),s3(s1(input)))">>>
seed Some(2): applications=19 <gw_pass, T3:<RES:<"s3(s1(input))">, DST:<>, SRC:<>, SRV:s3, TASK:T3>, T2:<RES:<>, DST:<T4>, SRC:<>, SRV:s2, TASK:T2>, T1:<RES:<"s1(input)">, DST:<>, SRC:<>, SRV:s1, TASK:T1>, T2':<RES:<"s2p(s1(input))">, DST:<>, SRC:<>, SRV:s2p, TASK:T2'>, T4:<DST:<>, SRC:<>, SRV:s4, TASK:T4, RES:<"s4(s2p(s1(input)),s3(s1(input)))">>>
"#;
