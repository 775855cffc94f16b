//! Sharded workflow runs under the seeded chaos transport.
//!
//! Two `Backend::Sharded` engines coordinate through one production
//! `BrokerServer`, but every byte of their `RemoteBroker` traffic
//! crosses a [`ginflow_net::fault::ChaosNet`] relay driven by a seeded
//! fault plan. The properties:
//!
//! * **Lossless chaos preserves semantics.** Under latency jitter and
//!   dial-refusing partitions (no frame is ever dropped or severed),
//!   the sharded run must complete and agree exactly — final task
//!   states and sink results — with a fault-free single-process
//!   reference run.
//! * **Lossy chaos fails clean, never hangs.** Publishes are
//!   deliberately at-most-once (the loss ledger reports, it does not
//!   replay), so a sever storm may eat a status or inbox publish and
//!   legitimately prevent completion. The property is then: the run
//!   either completes *correctly*, or `wait` times out as a structured
//!   failure and teardown still finishes under a real-time deadline.
//! * **Cross-shard status monotonicity.** An oracle-side subscription
//!   to the run's status topic (bypassing chaos) must never observe a
//!   task's lifecycle move backwards within one incarnation.
//!
//! Any failure names its seed: rerun with `GINFLOW_FAULT_SEED=<n>`
//! (and `GINFLOW_CHAOS_SEEDS=1`) to reproduce the exact schedule.

use ginflow_core::{patterns, Connectivity, ServiceRegistry, TaskState};
use ginflow_engine::{Backend, Engine, RunId, RunReport};
use ginflow_mq::{Broker, LogBroker, SubscribeMode, TopicNamespace};
use ginflow_net::fault::{ChaosHarness, FaultPlan};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide chaos knobs, set before the first client or server is
/// built (both are read once per process).
fn init() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var_os("GINFLOW_RECONNECT_CAP_MS").is_none() {
            std::env::set_var("GINFLOW_RECONNECT_CAP_MS", "100");
        }
        std::env::set_var("GINFLOW_NET_UNBATCHED", "1");
    });
}

fn seeds(default_count: u64) -> Vec<u64> {
    let base = ginflow_net::fault::seed_from_env(1);
    let count = std::env::var("GINFLOW_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_count)
        .max(1);
    (base..base + count).collect()
}

/// Latency + partitions only: every frame is delayed, no frame is lost.
fn lossless_chaos() -> FaultPlan {
    FaultPlan {
        latency_us: (0, 5_000),
        time_scale: 300,
        drop_frame: 0.0,
        corrupt_frame: 0.0,
        sever_after_frames: None,
        sever_after: None,
        midframe_sever: 0.0,
        partition: 0.15,
        partition_for: (Duration::from_millis(100), Duration::from_secs(1)),
        grace_frames: 2,
    }
}

/// Repeated severs and partitions: frames (and therefore at-most-once
/// publishes) can die with their link.
fn severing_chaos() -> FaultPlan {
    FaultPlan {
        latency_us: (0, 3_000),
        time_scale: 300,
        drop_frame: 0.0,
        corrupt_frame: 0.0,
        sever_after_frames: Some((12, 80)),
        sever_after: Some((Duration::from_secs(5), Duration::from_secs(30))),
        midframe_sever: 0.4,
        partition: 0.05,
        partition_for: (Duration::from_millis(100), Duration::from_secs(1)),
        grace_frames: 4,
    }
}

fn services() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for(["s"]))
}

fn final_states(report: &RunReport) -> BTreeMap<String, TaskState> {
    report
        .tasks
        .iter()
        .map(|(name, t)| (name.clone(), t.state))
        .collect()
}

/// The fault-free oracle: same workflow, one process, local broker.
fn reference_run() -> RunReport {
    let wf = patterns::diamond(3, 4, Connectivity::Simple, "s").unwrap();
    let report = Engine::builder()
        .broker(Arc::new(LogBroker::new()) as Arc<dyn ginflow_mq::Broker>)
        .registry(services())
        .workers(1)
        .backend(Backend::Scheduler)
        .build()
        .launch(&wf)
        .join();
    assert!(report.completed, "fault-free reference must complete");
    report
}

fn chaos_shard(h: &ChaosHarness, run_id: &str, shard: u32) -> Engine {
    // Dials can be refused by a partition window — retry until the
    // window closes (bounded by the caller's overall deadline).
    let give_up = Instant::now() + Duration::from_secs(30);
    let broker = loop {
        match h.client(&format!("shard{shard}")) {
            Ok(c) => break c,
            Err(e) if Instant::now() >= give_up => {
                panic!(
                    "shard{shard} never connected: {e} (GINFLOW_FAULT_SEED={})",
                    h.seed()
                )
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    Engine::builder()
        .broker(Arc::new(broker))
        .registry(services())
        .workers(1)
        .run_id(RunId::new(run_id).unwrap())
        .backend(Backend::Sharded { shard, of: 2 })
        .build()
}

/// Drain the status topic oracle-side and assert per-task lifecycle
/// monotonicity: within one incarnation a task never moves backwards.
fn assert_status_monotonic(sub: &ginflow_mq::Subscription, seed: u64) {
    fn rank(s: TaskState) -> u8 {
        match s {
            TaskState::Idle => 0,
            TaskState::Running => 1,
            TaskState::Completed | TaskState::Failed => 2,
        }
    }
    let mut seen: BTreeMap<String, (u32, u8)> = BTreeMap::new();
    while let Ok(msg) = sub.recv_timeout(Duration::from_millis(200)) {
        let Some(update) = ginflow_agent::message::StatusUpdate::decode(&msg.payload) else {
            continue; // not a status update: foreign noise
        };
        let r = rank(update.state);
        match seen.get(&update.task) {
            Some(&(inc, prev)) if update.incarnation == inc => {
                assert!(
                    r >= prev,
                    "status of {:?} moved backwards ({prev} -> {r}) within \
                     incarnation {inc} (repro: GINFLOW_FAULT_SEED={seed})",
                    update.task
                );
                seen.insert(update.task, (inc, r));
            }
            Some(&(inc, _)) => {
                assert!(
                    update.incarnation > inc,
                    "incarnation of {:?} went backwards (repro: GINFLOW_FAULT_SEED={seed})",
                    update.task
                );
                seen.insert(update.task, (update.incarnation, r));
            }
            None => {
                seen.insert(update.task, (update.incarnation, r));
            }
        }
    }
}

#[test]
fn lossless_chaos_run_agrees_with_fault_free_reference() {
    init();
    let reference = reference_run();
    let wf = patterns::diamond(3, 4, Connectivity::Simple, "s").unwrap();

    for seed in seeds(3) {
        println!("chaos[workflow-lossless] seed={seed}");
        let h = ChaosHarness::new(seed, lossless_chaos()).unwrap();
        let ns = TopicNamespace::new(RunId::new("chaos-agree").unwrap());
        let status_sub = h
            .broker()
            .subscribe(ns.status(), SubscribeMode::Beginning)
            .unwrap();

        let run0 = chaos_shard(&h, "chaos-agree", 0).launch(&wf);
        let run1 = chaos_shard(&h, "chaos-agree", 1).launch(&wf);
        let outcome = h.with_deadline("lossless run", Duration::from_secs(120), move || {
            let r0 = run0.wait(Duration::from_secs(90)).map(|_| ());
            let r1 = run1.wait(Duration::from_secs(90)).map(|_| ());
            (r0, r1, run0.join(), run1.join())
        });
        let (r0, r1, report0, report1) = outcome.unwrap_or_else(|hang| panic!("{hang}"));
        r0.unwrap_or_else(|e| {
            panic!("shard0 did not complete: {e:?} (repro: GINFLOW_FAULT_SEED={seed})")
        });
        r1.unwrap_or_else(|e| {
            panic!("shard1 did not complete: {e:?} (repro: GINFLOW_FAULT_SEED={seed})")
        });
        assert!(report0.completed && report1.completed, "seed {seed}");

        // Both chaos shards agree with the fault-free oracle on
        // final task states and the sink's result.
        assert_eq!(
            final_states(&report0),
            final_states(&reference),
            "seed {seed}"
        );
        assert_eq!(
            final_states(&report1),
            final_states(&reference),
            "seed {seed}"
        );
        assert_eq!(
            report0.result_of("out"),
            reference.result_of("out"),
            "seed {seed}"
        );
        assert_eq!(
            report1.result_of("out"),
            reference.result_of("out"),
            "seed {seed}"
        );
        assert_status_monotonic(&status_sub, seed);
    }
}

#[test]
fn sever_storm_run_completes_correctly_or_fails_clean() {
    init();
    let reference = reference_run();
    let wf = patterns::diamond(3, 4, Connectivity::Simple, "s").unwrap();

    let mut completed = 0u32;
    let mut clean_failures = 0u32;
    for seed in seeds(3) {
        println!("chaos[workflow-storm] seed={seed}");
        let h = ChaosHarness::new(seed, severing_chaos()).unwrap();
        let ns = TopicNamespace::new(RunId::new("chaos-storm").unwrap());
        let status_sub = h
            .broker()
            .subscribe(ns.status(), SubscribeMode::Beginning)
            .unwrap();

        let run0 = chaos_shard(&h, "chaos-storm", 0).launch(&wf);
        let run1 = chaos_shard(&h, "chaos-storm", 1).launch(&wf);

        // The whole lifecycle — wait, join, teardown — must finish
        // under a real-time deadline whatever the fault schedule
        // did: completion may be forfeit, boundedness never is.
        let outcome = h.with_deadline("storm run", Duration::from_secs(120), move || {
            let r0 = run0.wait(Duration::from_secs(15)).map(|_| ());
            // Shard 1 ran the whole time shard 0 was waited on, so
            // a shorter residual window suffices.
            let r1 = run1.wait(Duration::from_secs(8)).map(|_| ());
            if r0.is_err() || r1.is_err() {
                // The run forfeited completion (an at-most-once
                // publish died with its link): cancel so `join`
                // sees a terminal event instead of blocking on a
                // completion that will never come.
                run0.cancel();
                run1.cancel();
            }
            (r0, r1, run0.join(), run1.join())
        });
        let (r0, r1, report0, report1) =
            outcome.unwrap_or_else(|hang| panic!("sever storm wedged the engine: {hang}"));

        if r0.is_ok() && r1.is_ok() {
            completed += 1;
            // When the storm lets the run finish, it must have
            // finished *right*.
            assert_eq!(
                final_states(&report0),
                final_states(&reference),
                "seed {seed}"
            );
            assert_eq!(
                final_states(&report1),
                final_states(&reference),
                "seed {seed}"
            );
            assert_eq!(
                report0.result_of("out"),
                reference.result_of("out"),
                "seed {seed}"
            );
        } else {
            // A publish died with a severed link (at-most-once by
            // design) — the run may not complete, but it failed as
            // a structured timeout, not a hang.
            clean_failures += 1;
        }
        assert_status_monotonic(&status_sub, seed);
        let stats = h.net().stats();
        assert!(
            stats.severs > 0 || stats.dials_refused > 0,
            "storm plan injected nothing (seed {seed})"
        );
    }
    println!("storm outcomes: {completed} completed, {clean_failures} clean structured failures");
}
