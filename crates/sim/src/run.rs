//! The simulation driver: real [`SaCore`] agents, virtual time, modelled
//! transport, §V-D failure injection and §IV-B recovery.

use crate::costmodel::CostModel;
use crate::kernel::EventQueue;
use crate::services::ServiceModel;
use crate::{SimTime, SECOND};
use ginflow_agent::{Command, Event, SaCore, SaMessage, StatusUpdate};
use ginflow_core::{TaskState, Value, Workflow};
use ginflow_hocl::EffectId;
use ginflow_hoclflow::agent_programs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// §V-D failure injection: "each running agent failed with a predefined
/// probability `p` after a certain period of time `T`".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureSpec {
    /// Crash probability at the check point.
    pub p: f64,
    /// Running time before the check (µs).
    pub t_us: SimTime,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Coordination cost constants (broker profile included).
    pub cost: CostModel,
    /// Service durations / scripted failures.
    pub services: ServiceModel,
    /// Agent crash injection; `None` = reliable infrastructure.
    pub failures: Option<FailureSpec>,
    /// Whether the broker retains messages (log profile). Without
    /// retention a crashed agent cannot replay and the run will not
    /// complete — exactly the ActiveMQ limitation.
    pub persistent_broker: bool,
    /// RNG seed (failures, jitter).
    pub seed: u64,
    /// Safety valve on processed events.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::activemq(),
            services: ServiceModel::default(),
            failures: None,
            persistent_broker: false,
            seed: 0,
            max_events: 50_000_000,
        }
    }
}

/// What came out of a simulated run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Did every sink task complete?
    pub completed: bool,
    /// Virtual time at which the last sink's completion became visible on
    /// the shared status path (the paper's "coordination time").
    pub makespan_us: SimTime,
    /// Messages shipped between agents.
    pub messages: u64,
    /// Status updates published.
    pub status_updates: u64,
    /// Agent crashes injected.
    pub failures: u64,
    /// Recoveries performed.
    pub respawns: u64,
    /// Service invocations started (including replays).
    pub invocations: u64,
    /// Events processed by the kernel.
    pub events: u64,
    /// Final task states.
    pub states: HashMap<String, TaskState>,
    /// Every status update in visibility order on the shared status
    /// path, with its virtual timestamp (µs) — the same stream the live
    /// runtimes observe on the status topic, so the unified execution
    /// API can derive identical run events from a simulated run.
    pub status_log: Vec<(SimTime, StatusUpdate)>,
}

impl SimReport {
    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        crate::to_secs(self.makespan_us)
    }
}

/// Kernel event payloads.
enum Ev {
    /// A message reached an agent's inbox.
    Deliver { agent: usize, message: SaMessage },
    /// A service invocation finished (for the given incarnation).
    ServiceDone {
        agent: usize,
        incarnation: u32,
        effect: EffectId,
        ok: bool,
    },
    /// §V-D check: crash the agent if it is still running this invocation.
    FailCheck {
        agent: usize,
        incarnation: u32,
        invocation: u64,
    },
    /// A replacement agent is ready: replay its inbox log.
    Respawn { agent: usize },
}

struct AgentSlot {
    core: SaCore,
    alive: bool,
    incarnation: u32,
    /// Virtual time until which the agent is busy (event processing and
    /// blocking service invocations serialize here).
    free_at: SimTime,
    /// The inbox log (what the persistent broker retains for this topic).
    inbox_log: Vec<SaMessage>,
    /// In-flight invocation marker: (incarnation, invocation counter).
    running: Option<(u32, u64)>,
    /// Completed-invocation counter (scripted-failure indexing).
    invocations: u64,
    name: String,
    is_sink: bool,
}

/// Simulate `workflow` under `config`.
pub fn simulate(workflow: &Workflow, config: &SimConfig) -> SimReport {
    let (programs, plans) = agent_programs(workflow);
    let plans = Arc::new(plans);
    // One copy of each program, shared by an agent and its respawns.
    let programs: Vec<Arc<ginflow_hoclflow::AgentProgram>> =
        programs.into_iter().map(Arc::new).collect();
    let n_tasks = programs.len();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut agents: Vec<AgentSlot> = Vec::with_capacity(n_tasks);
    for (i, p) in programs.iter().enumerate() {
        index.insert(p.name.clone(), i);
        let name = p.name.clone();
        let is_sink = p.is_sink();
        agents.push(AgentSlot {
            core: SaCore::new(Arc::clone(p), plans.clone()),
            alive: true,
            incarnation: 0,
            free_at: 0,
            inbox_log: Vec::new(),
            running: None,
            invocations: 0,
            name,
            is_sink,
        });
    }

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut broker_free: SimTime = 0;
    let mut status_free: SimTime = 0;
    // Respawns contend for scheduler offers: one framework, one offer
    // stream — bursts of failures queue here, which is what makes the
    // paper's overhead-per-failure ratio grow with the failure rate.
    let mut scheduler_free: SimTime = 0;
    let mut report = SimReport {
        completed: false,
        makespan_us: 0,
        messages: 0,
        status_updates: 0,
        failures: 0,
        respawns: 0,
        invocations: 0,
        events: 0,
        states: HashMap::new(),
        status_log: Vec::new(),
    };
    let mut sink_done: HashMap<usize, bool> = agents
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_sink)
        .map(|(i, _)| (i, false))
        .collect();
    let mut last_status_visible: SimTime = 0;

    // Boot: every agent handles Start at t = 0 (deployment time is
    // accounted separately by the executor models).
    for i in 0..agents.len() {
        let commands = {
            let slot = &mut agents[i];
            let commands = slot.core.handle(Event::Start).unwrap_or_default();
            let cost = config.cost.handle_cost_us(&slot.core.take_stats());
            slot.free_at = cost;
            commands
        };
        let at = agents[i].free_at;
        dispatch(
            i,
            at,
            commands,
            &mut agents,
            &index,
            &mut queue,
            config,
            &mut broker_free,
            &mut status_free,
            &mut report,
            &mut last_status_visible,
            &mut sink_done,
        );
    }

    while let Some((t, ev)) = queue.pop() {
        report.events += 1;
        if report.events > config.max_events {
            break;
        }
        match ev {
            Ev::Deliver { agent, message } => {
                // The broker log retains the message whether or not the
                // agent is up.
                if config.persistent_broker {
                    agents[agent].inbox_log.push(message.clone());
                }
                if !agents[agent].alive {
                    continue;
                }
                let start = t.max(agents[agent].free_at);
                let commands = {
                    let slot = &mut agents[agent];
                    let commands = slot
                        .core
                        .handle(Event::Deliver(message))
                        .unwrap_or_default();
                    let cost = config.cost.handle_cost_us(&slot.core.take_stats());
                    slot.free_at = start + cost;
                    commands
                };
                let at = agents[agent].free_at;
                dispatch(
                    agent,
                    at,
                    commands,
                    &mut agents,
                    &index,
                    &mut queue,
                    config,
                    &mut broker_free,
                    &mut status_free,
                    &mut report,
                    &mut last_status_visible,
                    &mut sink_done,
                );
            }
            Ev::ServiceDone {
                agent,
                incarnation,
                effect,
                ok,
            } => {
                let slot = &mut agents[agent];
                if !slot.alive || slot.incarnation != incarnation {
                    continue; // stale completion of a crashed incarnation
                }
                slot.running = None;
                slot.invocations += 1;
                let result = if ok {
                    Ok(Value::Str(format!("{}#out", slot.name)))
                } else {
                    Err("service failure".to_owned())
                };
                let start = t.max(slot.free_at);
                let commands = slot
                    .core
                    .handle(Event::ServiceCompleted { effect, result })
                    .unwrap_or_default();
                let cost = config.cost.handle_cost_us(&slot.core.take_stats());
                slot.free_at = start + cost;
                let at = slot.free_at;
                dispatch(
                    agent,
                    at,
                    commands,
                    &mut agents,
                    &index,
                    &mut queue,
                    config,
                    &mut broker_free,
                    &mut status_free,
                    &mut report,
                    &mut last_status_visible,
                    &mut sink_done,
                );
            }
            Ev::FailCheck {
                agent,
                incarnation,
                invocation,
            } => {
                let spec = match config.failures {
                    Some(s) => s,
                    None => continue,
                };
                let slot = &mut agents[agent];
                // Only if this very invocation is still running.
                if !slot.alive
                    || slot.incarnation != incarnation
                    || slot.running != Some((incarnation, invocation))
                {
                    continue;
                }
                if rng.random::<f64>() >= spec.p {
                    continue;
                }
                // Crash.
                report.failures += 1;
                slot.alive = false;
                slot.running = None;
                slot.incarnation += 1;
                if config.persistent_broker {
                    let replay_cost = slot.inbox_log.len() as SimTime * config.cost.replay_msg_us;
                    // Wait for an offer (serialised across concurrent
                    // recoveries), then start the SA and replay.
                    scheduler_free = scheduler_free.max(t) + config.cost.respawn_offer_us;
                    let ready = scheduler_free + config.cost.sa_start_us + replay_cost;
                    report.respawns += 1;
                    queue.schedule(ready, Ev::Respawn { agent });
                }
                // Without persistence the agent stays dead (the run will
                // report completed = false).
            }
            Ev::Respawn { agent } => {
                let program = Arc::clone(&programs[agent]);
                let log: Vec<SaMessage> = agents[agent].inbox_log.clone();
                {
                    let slot = &mut agents[agent];
                    slot.core = SaCore::new(program, plans.clone());
                    slot.alive = true;
                    slot.free_at = t;
                    slot.running = None;
                }
                // Replay the whole inbox in order: Start, then every
                // logged molecule. Sends re-emitted here are the paper's
                // "duplicated results", absorbed by the receivers.
                let mut replay_events = vec![Event::Start];
                replay_events.extend(log.into_iter().map(Event::Deliver));
                for event in replay_events {
                    let start = agents[agent].free_at;
                    let commands = {
                        let slot = &mut agents[agent];
                        let commands = slot.core.handle(event).unwrap_or_default();
                        let cost = config.cost.handle_cost_us(&slot.core.take_stats());
                        slot.free_at = start + cost;
                        commands
                    };
                    let at = agents[agent].free_at;
                    dispatch(
                        agent,
                        at,
                        commands,
                        &mut agents,
                        &index,
                        &mut queue,
                        config,
                        &mut broker_free,
                        &mut status_free,
                        &mut report,
                        &mut last_status_visible,
                        &mut sink_done,
                    );
                }
            }
        }
        if sink_done.values().all(|&d| d) {
            report.completed = true;
            break;
        }
    }

    report.makespan_us = if report.completed {
        last_status_visible
    } else {
        queue.now()
    };
    for slot in &agents {
        report.states.insert(slot.name.clone(), slot.core.state());
    }
    report
}

/// Execute an agent's command batch at virtual time `at`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    agent: usize,
    at: SimTime,
    commands: Vec<Command>,
    agents: &mut [AgentSlot],
    index: &HashMap<String, usize>,
    queue: &mut EventQueue<Ev>,
    config: &SimConfig,
    broker_free: &mut SimTime,
    status_free: &mut SimTime,
    report: &mut SimReport,
    last_status_visible: &mut SimTime,
    sink_done: &mut HashMap<usize, bool>,
) {
    for command in commands {
        match command {
            Command::Invoke { effect, .. } => {
                report.invocations += 1;
                let slot = &mut agents[agent];
                let nth = slot.invocations;
                let duration = config.services.duration_of(&slot.name, nth, config.seed);
                let ok = !config.services.should_fail(&slot.name, nth);
                let done = at + duration;
                // The invocation blocks the agent (inline invoke, as in
                // the live scheduler).
                slot.free_at = slot.free_at.max(done);
                slot.running = Some((slot.incarnation, nth));
                queue.schedule(
                    done,
                    Ev::ServiceDone {
                        agent,
                        incarnation: slot.incarnation,
                        effect,
                        ok,
                    },
                );
                if let Some(spec) = config.failures {
                    if spec.t_us < duration {
                        queue.schedule(
                            at + spec.t_us,
                            Ev::FailCheck {
                                agent,
                                incarnation: slot.incarnation,
                                invocation: nth,
                            },
                        );
                    }
                }
            }
            Command::Send { to, message } => {
                report.messages += 1;
                let Some(&dest) = index.get(&to) else {
                    continue;
                };
                *broker_free = (*broker_free).max(at) + config.cost.broker_service_us;
                let deliver_at =
                    *broker_free + config.cost.net_latency_us + config.cost.broker_ack_us;
                queue.schedule(
                    deliver_at,
                    Ev::Deliver {
                        agent: dest,
                        message,
                    },
                );
            }
            Command::Publish { state, result } => {
                report.status_updates += 1;
                // The update transits the broker, then the shared-multiset
                // server applies it (cost grows with workflow size).
                *broker_free = (*broker_free).max(at) + config.cost.broker_service_us;
                let arrive = *broker_free + config.cost.net_latency_us;
                *status_free = (*status_free).max(arrive) + config.cost.status_update_us();
                let visible = *status_free;
                // `status_free` only grows, so append order is
                // visibility order — the trace reads like the topic.
                let slot = &agents[agent];
                report.status_log.push((
                    visible,
                    StatusUpdate {
                        task: slot.name.clone(),
                        state,
                        result,
                        incarnation: slot.incarnation,
                    },
                ));
                if state == TaskState::Completed {
                    if let Some(done) = sink_done.get_mut(&agent) {
                        *done = true;
                        *last_status_visible = (*last_status_visible).max(visible);
                    }
                }
            }
        }
    }
}

/// Convenience: simulate a fault-free workflow on the ActiveMQ profile
/// with constant `service_secs` tasks.
pub fn quick_sim(workflow: &Workflow, service_secs: f64, seed: u64) -> SimReport {
    simulate(
        workflow,
        &SimConfig {
            services: ServiceModel::constant((service_secs * SECOND as f64) as SimTime),
            seed,
            ..SimConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
    use ginflow_core::{patterns, Connectivity};

    fn fig2() -> Workflow {
        let mut b = WorkflowBuilder::new("fig2");
        b.task("T1", "s1").input(Value::str("input"));
        b.task("T2", "s2").after(["T1"]);
        b.task("T3", "s3").after(["T1"]);
        b.task("T4", "s4").after(["T2", "T3"]);
        b.build().unwrap()
    }

    #[test]
    fn fig2_completes_in_virtual_time() {
        let r = quick_sim(&fig2(), 0.3, 1);
        assert!(r.completed);
        // 3 sequential stages of 300 ms + coordination.
        assert!(r.makespan_secs() > 0.9, "got {}", r.makespan_secs());
        assert!(r.makespan_secs() < 3.0, "got {}", r.makespan_secs());
        // T1→T2, T1→T3, T2→T4, T3→T4.
        assert!(r.messages >= 4);
        assert_eq!(r.states["T4"], TaskState::Completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let wf = patterns::diamond(3, 3, Connectivity::Full, "s").unwrap();
        let a = quick_sim(&wf, 0.3, 42);
        let b = quick_sim(&wf, 0.3, 42);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.messages, b.messages);
        let c = quick_sim(&wf, 0.3, 43);
        // Different seed, fault-free, no jitter: still equal (no RNG use).
        assert_eq!(a.makespan_us, c.makespan_us);
    }

    #[test]
    fn makespan_grows_with_depth_and_width() {
        let t22 = quick_sim(
            &patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap(),
            0.3,
            1,
        );
        let t28 = quick_sim(
            &patterns::diamond(2, 8, Connectivity::Simple, "s").unwrap(),
            0.3,
            1,
        );
        let t82 = quick_sim(
            &patterns::diamond(8, 2, Connectivity::Simple, "s").unwrap(),
            0.3,
            1,
        );
        assert!(t28.makespan_us > t22.makespan_us, "deeper is longer");
        assert!(t82.makespan_us > t22.makespan_us, "wider is longer");
    }

    #[test]
    fn fully_connected_costs_more_than_simple() {
        let simple = quick_sim(
            &patterns::diamond(6, 6, Connectivity::Simple, "s").unwrap(),
            0.3,
            1,
        );
        let full = quick_sim(
            &patterns::diamond(6, 6, Connectivity::Full, "s").unwrap(),
            0.3,
            1,
        );
        assert!(full.completed && simple.completed);
        assert!(full.messages > simple.messages);
        assert!(full.makespan_us > simple.makespan_us);
    }

    #[test]
    fn kafka_profile_slows_execution() {
        let wf = patterns::diamond(5, 5, Connectivity::Simple, "s").unwrap();
        let amq = simulate(&wf, &SimConfig::default());
        let kafka = simulate(
            &wf,
            &SimConfig {
                cost: CostModel::kafka(),
                persistent_broker: true,
                ..SimConfig::default()
            },
        );
        assert!(kafka.completed);
        assert!(kafka.makespan_us > amq.makespan_us);
    }

    #[test]
    fn adaptation_completes_in_sim() {
        // Fig 5 in virtual time: T2's first invocation fails; the standby
        // T2' takes over.
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
        let wf = b.build().unwrap();
        let config = SimConfig {
            services: ServiceModel::constant(300_000).fail_first("T2"),
            ..SimConfig::default()
        };
        let r = simulate(&wf, &config);
        assert!(r.completed, "states: {:?}", r.states);
        assert_eq!(r.states["T2"], TaskState::Failed);
        assert_eq!(r.states["T2'"], TaskState::Completed);
        // The adaptive run costs more than the plain one…
        let plain = simulate(
            &wf,
            &SimConfig {
                services: ServiceModel::constant(300_000),
                ..SimConfig::default()
            },
        );
        assert!(r.makespan_us > plain.makespan_us);
        // …but (here) less than twice it (§V-B's ratio < 2 for scenario 1).
        assert!(r.makespan_us < 2 * plain.makespan_us);
    }

    #[test]
    fn failure_injection_recovers_on_persistent_broker() {
        let wf = patterns::diamond(3, 3, Connectivity::Simple, "s").unwrap();
        let config = SimConfig {
            cost: CostModel::kafka(),
            services: ServiceModel::constant(2 * SECOND),
            failures: Some(FailureSpec {
                p: 0.5,
                t_us: SECOND,
            }),
            persistent_broker: true,
            seed: 7,
            ..SimConfig::default()
        };
        let r = simulate(&wf, &config);
        assert!(r.completed, "recovery must drive the run to completion");
        assert!(r.failures > 0, "p=0.5 over 11 tasks should crash someone");
        assert_eq!(r.failures, r.respawns);
        // Fault-free reference is faster.
        let clean = simulate(
            &wf,
            &SimConfig {
                failures: None,
                ..config.clone()
            },
        );
        assert!(r.makespan_us > clean.makespan_us);
    }

    #[test]
    fn failure_without_persistence_stalls() {
        let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
        let config = SimConfig {
            services: ServiceModel::constant(2 * SECOND),
            failures: Some(FailureSpec { p: 1.0, t_us: 1 }),
            persistent_broker: false,
            seed: 1,
            ..SimConfig::default()
        };
        let r = simulate(&wf, &config);
        assert!(!r.completed);
        assert!(r.failures > 0);
        assert_eq!(r.respawns, 0);
    }

    #[test]
    fn expected_failure_count_matches_the_papers_formula() {
        // E[failures] = p/(1-p) × N_T (§V-D). Average over seeds.
        let wf = patterns::parallel(40, "s").unwrap(); // 42 tasks
        let p = 0.5;
        let mut total = 0u64;
        let runs = 30;
        for seed in 0..runs {
            let r = simulate(
                &wf,
                &SimConfig {
                    cost: CostModel::kafka(),
                    services: ServiceModel::constant(5 * SECOND),
                    failures: Some(FailureSpec { p, t_us: SECOND }),
                    persistent_broker: true,
                    seed,
                    ..SimConfig::default()
                },
            );
            assert!(r.completed);
            total += r.failures;
        }
        let mean = total as f64 / runs as f64;
        let expected = p / (1.0 - p) * 42.0;
        assert!(
            (mean - expected).abs() < expected * 0.25,
            "mean {mean}, expected {expected}"
        );
    }
}
