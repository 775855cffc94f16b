//! Running a workload through the public API: the broker the engine
//! talks to, one checked run, a set-up, and the timed phase.

use crate::digest::{expected_sinks, DigestService, FAIL_SERVICE, SERVICE};
use crate::sys;
use crate::trace::{RunTrace, TimedBroker, TimedService, Tracer};
use crate::workloads::{Shape, Transport};
use ginflow_core::{FailingService, Service, ServiceRegistry, Value, Workflow};
use ginflow_engine::Engine;
use ginflow_mq::{Broker, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hung run becomes a failed run, not a stuck benchmark.
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// The standing half of a workload's broker: nothing for in-process
/// runs, the daemon for TCP runs.
pub struct Infra {
    daemon: Option<BrokerServer>,
}

/// The broker one run uses, and how to give its topics back afterwards.
struct RunBroker {
    broker: Arc<dyn Broker>,
    client: Option<Arc<RemoteBroker>>,
}

impl Infra {
    pub fn start(transport: Transport) -> Result<Infra, String> {
        let daemon = match transport {
            Transport::InProcess => None,
            Transport::Tcp => Some(
                BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
                    .map_err(|e| format!("bind: {e}"))?,
            ),
        };
        Ok(Infra { daemon })
    }

    /// A fresh log per in-process run, a fresh connection per TCP run.
    ///
    /// Either way a run starts from the same state however many came
    /// before it, which a time-boxed phase needs: a `RemoteBroker` that
    /// outlives its runs keeps state per finished subscription, and on
    /// the seed code each 4000-task run through the same connection
    /// takes 23 ms longer than the last (0.47 s for the first, 1.06 s
    /// for the 26th) and leaves 9 MB behind. One connection per run is
    /// also what `ginflow run` does.
    fn connect(&self) -> Result<RunBroker, String> {
        Ok(match &self.daemon {
            None => RunBroker {
                broker: Arc::new(LogBroker::new()),
                client: None,
            },
            Some(server) => {
                let client = Arc::new(
                    RemoteBroker::connect(&server.local_addr().to_string())
                        .map_err(|e| format!("connect: {e}"))?,
                );
                RunBroker {
                    broker: client.clone(),
                    client: Some(client),
                }
            }
        })
    }
}

impl RunBroker {
    /// Give a finished run's topics back and hang up, as `ginflow run`
    /// does. Without the close + GC the daemon keeps every topic of
    /// every run.
    fn reclaim(self, run_id: &str) -> Result<(), String> {
        if let Some(client) = self.client {
            client
                .close_run(run_id)
                .map_err(|e| format!("close_run: {e}"))?;
            client.gc_runs().map_err(|e| format!("gc_runs: {e}"))?;
            client.shutdown();
        }
        Ok(())
    }
}

impl Drop for Infra {
    fn drop(&mut self) {
        if let Some(server) = self.daemon.take() {
            server.stop();
        }
    }
}

/// A workflow and what a correct run of it returns.
pub struct Plan {
    pub workflow: Workflow,
    pub expected: BTreeMap<String, Value>,
    pub adaptations: u32,
}

impl Plan {
    pub fn new(shape: Shape, seed: u64) -> Plan {
        let workflow = shape.build(seed);
        Plan {
            expected: expected_sinks(&workflow),
            adaptations: shape.adaptations(),
            workflow,
        }
    }
}

pub struct RunOutcome {
    /// Launch → `join` returns: submit to last sink result.
    pub wall: f64,
    pub tasks_completed: usize,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
    /// What the interposers saw, on a traced run.
    pub trace: Option<RunTrace>,
}

/// Whether to interpose on a run, and whether to keep its publishes.
pub struct Traced<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub record_messages: bool,
}

/// One run, launch to join, checked against the oracle and reclaimed.
pub fn run_once(infra: &Infra, plan: &Plan, traced: Option<Traced>) -> RunOutcome {
    let connection = match infra.connect() {
        Ok(c) => c,
        Err(why) => {
            return RunOutcome {
                wall: 0.0,
                tasks_completed: 0,
                failure: Some(why),
                trace: None,
            }
        }
    };
    let mut broker = connection.broker.clone();
    let mut digest: Arc<dyn Service> = Arc::new(DigestService);
    let mut failing: Arc<dyn Service> = Arc::new(FailingService);
    if let Some(t) = &traced {
        broker = TimedBroker::wrap(broker, t.tracer.clone());
        digest = TimedService::wrap(digest, t.tracer.clone());
        failing = TimedService::wrap(failing, t.tracer.clone());
    }
    let mut registry = ServiceRegistry::new();
    registry.register(SERVICE, digest);
    registry.register(FAIL_SERVICE, failing);
    let engine = Engine::builder()
        .broker(broker)
        .registry(Arc::new(registry))
        .workers(1)
        .deadline(RUN_DEADLINE)
        .build();

    if let Some(t) = &traced {
        t.tracer.begin_run(t.record_messages);
    }
    let start = Instant::now();
    let report = engine.launch(&plan.workflow).join();
    let wall = start.elapsed().as_secs_f64();
    let trace = traced.map(|t| t.tracer.end_run());

    let mut failure = if report.deadline_expired {
        Some(format!("hit the {} s deadline", RUN_DEADLINE.as_secs()))
    } else if !report.completed {
        Some("ended without completing".to_owned())
    } else if report.adaptations_fired != plan.adaptations {
        Some(format!(
            "fired {} adaptation(s), expected {}",
            report.adaptations_fired, plan.adaptations
        ))
    } else {
        plan.expected
            .iter()
            .find(|(sink, value)| report.result_of(sink) != Some(value))
            .map(|(sink, value)| {
                format!(
                    "sink {sink} returned {:?}, expected {value}",
                    report.result_of(sink)
                )
            })
    };
    if let Err(e) = connection.reclaim(&report.run_id) {
        failure.get_or_insert(e);
    }
    RunOutcome {
        wall,
        tasks_completed: report.completed_tasks(),
        failure,
        trace,
    }
}

/// Everything a workload needs before its first timed run.
pub struct Setup {
    pub plan: Plan,
    pub infra: Infra,
    /// Workflow build, oracle, bind and the warm-up runs.
    pub seconds: f64,
}

pub fn set_up(
    shape: Shape,
    transport: Transport,
    seed: u64,
    warmup_runs: usize,
) -> Result<Setup, String> {
    let start = Instant::now();
    let plan = Plan::new(shape, seed);
    let infra = Infra::start(transport)?;
    for _ in 0..warmup_runs {
        if let Some(why) = run_once(&infra, &plan, None).failure {
            return Err(format!("warm-up run {why}"));
        }
    }
    Ok(Setup {
        plan,
        infra,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The untraced, timed runs of one workload.
pub struct Timed {
    /// Launch → join of every run.
    pub walls: Vec<f64>,
    /// Every run from its connect to the end of its close + GC and
    /// hang-up: the time until the next run can start.
    pub cycles: Vec<f64>,
    /// CPU time of the process over every cycle, every thread included.
    pub cpus: Vec<f64>,
    pub attempted: usize,
    pub failure: Option<String>,
    pub tasks_completed: usize,
    /// Peak resident set once `min_runs` runs were done. Taken at a
    /// fixed count so that it does not grow with how many runs fit in
    /// `--seconds`: a faster program must not read as a fatter one.
    pub peak_rss_mib: f64,
}

/// Run back to back for `seconds`, and at least `min_runs` times. The
/// first failed run ends the phase: its deadline is two minutes, and a
/// benchmark with a failed run is rejected whatever else it measures.
pub fn timed_phase(setup: &Setup, seconds: f64, min_runs: usize) -> Timed {
    let mut t = Timed {
        walls: Vec::new(),
        cycles: Vec::new(),
        cpus: Vec::new(),
        attempted: 0,
        failure: None,
        tasks_completed: 0,
        peak_rss_mib: 0.0,
    };
    let start = Instant::now();
    while t.attempted < min_runs || start.elapsed().as_secs_f64() < seconds {
        let (cycle_start, cpu_before) = (Instant::now(), sys::cpu_time());
        let run = run_once(&setup.infra, &setup.plan, None);
        t.attempted += 1;
        t.tasks_completed += run.tasks_completed;
        if let Some(why) = run.failure {
            t.failure = Some(format!("run {} {why}", t.attempted));
            break;
        }
        t.walls.push(run.wall);
        t.cycles.push(cycle_start.elapsed().as_secs_f64());
        t.cpus.push((sys::cpu_time() - cpu_before).as_secs_f64());
        if t.attempted == min_runs {
            t.peak_rss_mib = sys::peak_rss_mib();
        }
    }
    t
}
