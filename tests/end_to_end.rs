//! Cross-crate integration: the same workflow through every execution
//! path — JSON → model → (centralized | threaded decentralised |
//! simulated) — must agree on results and states.

use ginflow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FIG5_JSON: &str = r#"{
    "name": "fig5",
    "tasks": [
        {"name": "T1", "service": "s1", "inputs": ["input"]},
        {"name": "T2", "service": "s2", "depends_on": ["T1"]},
        {"name": "T3", "service": "s3", "depends_on": ["T1"]},
        {"name": "T4", "service": "s4", "depends_on": ["T2", "T3"]}
    ],
    "adaptations": [
        {
            "name": "replace-T2",
            "region": ["T2"],
            "on_error_of": ["T2"],
            "replacement": [
                {"name": "T2p", "service": "s2p", "depends_on": ["T1"]}
            ]
        }
    ]
}"#;

fn registry() -> ServiceRegistry {
    ServiceRegistry::tracing_for(["s1", "s2", "s3", "s4", "s2p", "noop"])
}

#[test]
fn json_to_all_three_execution_paths() {
    let wf = ginflow::core::json::from_json(FIG5_JSON).expect("valid document");
    let expected = Value::Str("s4(s2(s1(input)),s3(s1(input)))".into());

    // Centralized.
    let centralized = run_centralized(&wf, &registry(), CentralizedConfig::default()).unwrap();
    assert_eq!(centralized.result_of("T4"), Some(&expected));

    // Decentralised threads.
    let engine = Engine::builder().registry(Arc::new(registry())).build();
    let run = engine.launch(&wf);
    let results = run.wait(Duration::from_secs(20)).unwrap();
    assert_eq!(results["T4"], expected);
    run.shutdown();

    // Simulated (values are synthetic, but completion/states must agree).
    let report = simulate(
        &wf,
        &SimConfig {
            services: ServiceModel::constant(100_000),
            ..SimConfig::default()
        },
    );
    assert!(report.completed);
    assert_eq!(report.states["T4"], TaskState::Completed);
    // Standby replacement was never triggered anywhere.
    assert_eq!(report.states["T2p"], TaskState::Idle);
    assert_eq!(centralized.states["T2p"], TaskState::Idle);
}

#[test]
fn adaptation_consistent_across_paths() {
    let wf = ginflow::core::json::from_json(FIG5_JSON).expect("valid document");
    let expected = Value::Str("s4(s2p(s1(input)),s3(s1(input)))".into());

    let broken = || {
        let mut r = registry();
        r.register("s2", Arc::new(FailingService));
        r
    };

    let centralized = run_centralized(&wf, &broken(), CentralizedConfig::default()).unwrap();
    assert_eq!(centralized.result_of("T4"), Some(&expected));
    assert_eq!(centralized.states["T2"], TaskState::Failed);

    let engine = Engine::builder().registry(Arc::new(broken())).build();
    let run = engine.launch(&wf);
    let results = run.wait(Duration::from_secs(20)).unwrap();
    assert_eq!(results["T4"], expected);
    run.shutdown();

    let report = simulate(
        &wf,
        &SimConfig {
            services: ServiceModel::constant(100_000).fail_first("T2"),
            ..SimConfig::default()
        },
    );
    assert!(report.completed);
    assert_eq!(report.states["T2"], TaskState::Failed);
    assert_eq!(report.states["T2p"], TaskState::Completed);
}

#[test]
fn generated_workloads_run_everywhere() {
    for (h, v, conn) in [(3, 2, Connectivity::Simple), (2, 3, Connectivity::Full)] {
        let wf = patterns::diamond(h, v, conn, "noop").unwrap();

        let centralized = run_centralized(&wf, &registry(), CentralizedConfig::default()).unwrap();
        assert!(
            centralized.all_completed(&wf),
            "{h}x{v} {conn:?} centralized"
        );

        let engine = Engine::builder().registry(Arc::new(registry())).build();
        let run = engine.launch(&wf);
        run.wait(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{h}x{v} {conn:?} threaded: {e}"));
        run.shutdown();

        let report = simulate(
            &wf,
            &SimConfig {
                services: ServiceModel::constant(50_000),
                ..SimConfig::default()
            },
        );
        assert!(report.completed, "{h}x{v} {conn:?} simulated");
    }
}

#[test]
fn montage_runs_threaded_scaled_down() {
    // The full Montage on real threads with real (scaled-down) sleeps:
    // band durations map to milliseconds.
    let wf = ginflow::montage::workflow();
    let mut registry = ServiceRegistry::new();
    for (task, secs) in ginflow::montage::durations_secs() {
        registry.register(
            wf.dag()
                .task(wf.dag().by_name(&task).unwrap())
                .service
                .clone(),
            Arc::new(ginflow::core::SleepService::new(
                Duration::from_micros((secs * 100.0) as u64),
                TraceService::new("m"),
            )),
        );
    }
    let engine = Engine::builder().registry(Arc::new(registry)).build();
    let run = engine.launch(&wf);
    let results = run.wait(Duration::from_secs(60)).expect("mosaic completes");
    assert!(results.contains_key("mJPEG"));
    run.shutdown();
}

#[test]
fn workflow_roundtrips_through_json() {
    let wf = patterns::diamond(4, 4, Connectivity::Full, "noop").unwrap();
    let json = ginflow::core::json::to_json(&wf);
    let back = ginflow::core::json::from_json(&json).unwrap();
    assert_eq!(back.dag().len(), wf.dag().len());
    assert_eq!(back.dag().edge_count(), wf.dag().edge_count());
    // And still runs.
    let centralized = run_centralized(&back, &registry(), CentralizedConfig::default()).unwrap();
    assert!(centralized.all_completed(&back));
}
