//! Deeper adaptation scenarios beyond the paper's Fig 5 walkthrough:
//! multi-task regions (Fig 9 (b)), chained replacements, several disjoint
//! adaptations in one workflow, and partially-completed regions — each
//! checked on the centralized interpreter, the threaded runtime and the
//! simulator.

use ginflow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(20);

fn registry_with_failures(failing: &[&str]) -> Arc<ServiceRegistry> {
    let mut r = ServiceRegistry::tracing_for([
        "s1", "s2", "s3", "s4", "s5", "sB", "sC", "sBp", "sCp", "sXp", "sYp",
    ]);
    for name in failing {
        r.register(*name, Arc::new(FailingService));
    }
    Arc::new(r)
}

/// Fig 9 (b): a two-branch region {X, Y} replaced by a single task XY'
/// with the same single destination.
fn fig9b() -> Workflow {
    let mut b = WorkflowBuilder::new("fig9b");
    b.task("A", "s1").input(Value::str("in"));
    b.task("X", "s2").after(["A"]);
    b.task("Y", "s3").after(["A"]);
    b.task("D", "s4").after(["X", "Y"]);
    b.adaptation(
        "collapse-region",
        ["X", "Y"],
        ["X"],
        [ReplacementTask::new("XY'", "sXp", ["A"])],
    );
    b.build().expect("Fig 9 (b) is a valid adaptation")
}

#[test]
fn fig9b_region_collapse_centralized_and_threaded() {
    // X fails; the two-branch region is replaced by the single XY'.
    // D's mv_src must drop *both* X and Y from its sources and flush Y's
    // already-delivered data.
    let registry = registry_with_failures(&["s2"]);
    let wf = fig9b();

    let outcome = run_centralized(&wf, &registry, CentralizedConfig::default()).unwrap();
    assert_eq!(
        outcome.result_of("D"),
        Some(&Value::Str("s4(sXp(s1(in)))".into()))
    );
    assert_eq!(outcome.states["X"], TaskState::Failed);

    let engine = Engine::builder().registry(registry).build();
    let run = engine.launch(&wf);
    let results = run.wait(WAIT).unwrap();
    assert_eq!(results["D"], Value::Str("s4(sXp(s1(in)))".into()));
    run.shutdown();
}

/// A chained replacement: region {B, C} (a two-stage pipeline) replaced by
/// the standby chain B' → C'.
fn chained() -> Workflow {
    let mut b = WorkflowBuilder::new("chained");
    b.task("A", "s1").input(Value::str("in"));
    b.task("B", "sB").after(["A"]);
    b.task("C", "sC").after(["B"]);
    b.task("D", "s4").after(["C"]);
    b.adaptation(
        "replace-chain",
        ["B", "C"],
        ["B", "C"],
        [
            ReplacementTask::new("B'", "sBp", ["A"]),
            ReplacementTask::new("C'", "sCp", ["B'"]),
        ],
    );
    b.build().expect("chained replacement is valid")
}

#[test]
fn chained_replacement_when_head_fails() {
    let registry = registry_with_failures(&["sB"]);
    let outcome = run_centralized(&chained(), &registry, CentralizedConfig::default()).unwrap();
    assert_eq!(
        outcome.result_of("D"),
        Some(&Value::Str("s4(sCp(sBp(s1(in))))".into()))
    );
    assert_eq!(outcome.states["B"], TaskState::Failed);
    // C never ran (its input never arrived).
    assert_eq!(outcome.states["C"], TaskState::Idle);
}

#[test]
fn chained_replacement_when_tail_fails() {
    // B succeeds, C fails: the *whole* region is still replayed through
    // B' → C' (the paper's §V-B experiment does exactly this at scale).
    let registry = registry_with_failures(&["sC"]);
    let outcome = run_centralized(&chained(), &registry, CentralizedConfig::default()).unwrap();
    assert_eq!(
        outcome.result_of("D"),
        Some(&Value::Str("s4(sCp(sBp(s1(in))))".into()))
    );
    assert_eq!(outcome.states["B"], TaskState::Completed);
    assert_eq!(outcome.states["C"], TaskState::Failed);

    // Same on threads.
    let engine = Engine::builder().registry(registry).build();
    let run = engine.launch(&chained());
    let results = run.wait(WAIT).unwrap();
    assert_eq!(results["D"], Value::Str("s4(sCp(sBp(s1(in))))".into()));
    run.shutdown();
}

/// Two *disjoint* adaptations in one workflow ("GinFlow can support
/// several adaptations for the same workflow if they concern disjoint
/// sets of tasks") — both trigger in the same run.
fn double_adaptation() -> Workflow {
    let mut b = WorkflowBuilder::new("double");
    b.task("A", "s1").input(Value::str("in"));
    b.task("X", "s2").after(["A"]);
    b.task("M", "s5").after(["X"]);
    b.task("Y", "s3").after(["M"]);
    b.task("D", "s4").after(["Y"]);
    b.adaptation(
        "fix-X",
        ["X"],
        ["X"],
        [ReplacementTask::new("X'", "sXp", ["A"])],
    );
    b.adaptation(
        "fix-Y",
        ["Y"],
        ["Y"],
        [ReplacementTask::new("Y'", "sYp", ["M"])],
    );
    b.build().expect("disjoint adaptations are valid")
}

#[test]
fn two_disjoint_adaptations_both_trigger() {
    let registry = registry_with_failures(&["s2", "s3"]);
    let wf = double_adaptation();
    let expected = Value::Str("s4(sYp(s5(sXp(s1(in)))))".into());

    let outcome = run_centralized(&wf, &registry, CentralizedConfig::default()).unwrap();
    assert_eq!(outcome.result_of("D"), Some(&expected));
    assert_eq!(outcome.states["X"], TaskState::Failed);
    assert_eq!(outcome.states["Y"], TaskState::Failed);
    assert_eq!(outcome.states["X'"], TaskState::Completed);
    assert_eq!(outcome.states["Y'"], TaskState::Completed);

    let engine = Engine::builder().registry(registry).build();
    let run = engine.launch(&wf);
    let results = run.wait(WAIT).unwrap();
    assert_eq!(results["D"], expected);
    run.shutdown();

    let report = simulate(
        &wf,
        &SimConfig {
            services: ServiceModel::constant(50_000)
                .fail_first("X")
                .fail_first("Y"),
            ..SimConfig::default()
        },
    );
    assert!(report.completed);
    assert_eq!(report.states["X'"], TaskState::Completed);
    assert_eq!(report.states["Y'"], TaskState::Completed);
}

#[test]
fn only_failing_adaptation_triggers() {
    // Same workflow, but only X fails: fix-Y must stay dormant.
    let registry = registry_with_failures(&["s2"]);
    let wf = double_adaptation();
    let outcome = run_centralized(&wf, &registry, CentralizedConfig::default()).unwrap();
    assert_eq!(outcome.states["X'"], TaskState::Completed);
    assert_eq!(outcome.states["Y"], TaskState::Completed);
    assert_eq!(
        outcome.states["Y'"],
        TaskState::Idle,
        "standby never triggered"
    );
    assert_eq!(
        outcome.result_of("D"),
        Some(&Value::Str("s4(s3(s5(sXp(s1(in)))))".into()))
    );
}

#[test]
fn adaptation_with_partially_completed_region_in_sim() {
    // §V-B at small scale in virtual time: a 3×2 mesh body where one
    // final-layer task fails *after* its siblings delivered to `out` —
    // mv_src must flush their stale results and the whole replacement
    // mesh recomputes.
    let spec = ginflow::core::AdaptiveDiamondSpec {
        h: 3,
        v: 2,
        main: Connectivity::Simple,
        replacement: Connectivity::Full,
    };
    let wf = spec.build("synthetic", "faulty").unwrap();
    let report = simulate(
        &wf,
        &SimConfig {
            services: ServiceModel::constant(200_000).fail_first(spec.failing_task()),
            ..SimConfig::default()
        },
    );
    assert!(report.completed, "states: {:?}", report.states);
    assert_eq!(report.states["out"], TaskState::Completed);
    assert_eq!(report.states[&spec.failing_task()], TaskState::Failed);
    // Every replacement mesh task ran.
    for j in 1..=2 {
        for i in 1..=3 {
            assert_eq!(
                report.states[&format!("r{i}_{j}")],
                TaskState::Completed,
                "replacement r{i}_{j}"
            );
        }
    }
}

#[test]
fn adaptive_runs_are_confluent_centralized() {
    // Adaptation plus shuffled reduction orders: same final data.
    let registry = registry_with_failures(&["sB"]);
    let wf = chained();
    let reference = run_centralized(&wf, &registry, CentralizedConfig::default())
        .unwrap()
        .results;
    for seed in 0..8 {
        let shuffled = run_centralized(
            &wf,
            &registry,
            CentralizedConfig {
                shuffle_seed: Some(seed),
                ..CentralizedConfig::default()
            },
        )
        .unwrap()
        .results;
        assert_eq!(shuffled, reference, "seed {seed}");
    }
}
