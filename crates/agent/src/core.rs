//! [`SaCore`] — the sans-IO service-agent state machine.

use crate::message::SaMessage;
use ginflow_core::{TaskState, Value};
use ginflow_hocl::symbol::keywords as kw;
use ginflow_hocl::{
    Atom, EffectId, Engine, EngineConfig, ExternHost, ExternResult, HoclError, ReduceStats,
};
use ginflow_hoclflow::{names, AdaptPlan, AgentProgram, FlowExterns};
use std::sync::Arc;

/// An input to the agent.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The agent was (re)started by the deployer.
    Start,
    /// A message arrived on the agent's inbox topic.
    Deliver(SaMessage),
    /// The runtime finished a service invocation previously requested via
    /// [`Command::Invoke`].
    ServiceCompleted {
        /// The effect id of the invocation.
        effect: EffectId,
        /// The service outcome; `Err` carries the failure reason.
        result: Result<Value, String>,
    },
}

/// An effect the runtime must perform on the agent's behalf.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Invoke the service (asynchronously or inline — the runtime's
    /// choice) and feed the outcome back as
    /// [`Event::ServiceCompleted`].
    Invoke {
        /// Correlation id.
        effect: EffectId,
        /// Service name.
        service: String,
        /// Parameter list.
        params: Vec<Value>,
    },
    /// Ship a message to a peer agent's inbox.
    Send {
        /// Destination task name.
        to: String,
        /// The message.
        message: SaMessage,
    },
    /// Publish a state transition on the status topic.
    Publish {
        /// New state.
        state: TaskState,
        /// Result value when completing.
        result: Option<Value>,
    },
}

/// The agent state machine: local solution + HOCL engine + adaptation
/// fan-out plans. All I/O is expressed through returned [`Command`]s.
pub struct SaCore {
    /// Shared with the pool that may respawn the agent from it.
    program: Arc<AgentProgram>,
    solution: ginflow_hocl::Solution,
    engine: Engine,
    plans: Arc<Vec<AdaptPlan>>,
    state: TaskState,
    /// Work counters accumulated since the last [`SaCore::take_stats`]
    /// (consumed by the simulator's cost model).
    stats: ReduceStats,
}

/// Extern host used during reduction: buffers commands, defers `invoke`.
struct AgentHost<'p> {
    flow: FlowExterns,
    plans: &'p [AdaptPlan],
    outbox: Vec<Command>,
    error: Option<String>,
}

impl ExternHost for AgentHost<'_> {
    fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError> {
        match name {
            names::INVOKE => Ok(ExternResult::Deferred),
            names::SEND_RESULT => {
                let (to, from, value) = match args {
                    [Atom::Sym(to), Atom::Sym(from), value] => (
                        to.as_str().to_owned(),
                        from.as_str().to_owned(),
                        value.clone(),
                    ),
                    _ => {
                        return Err(HoclError::ExternFailed {
                            name: names::SEND_RESULT.into(),
                            reason: "expected (to, from, value)".into(),
                        })
                    }
                };
                self.outbox.push(Command::Send {
                    to,
                    message: SaMessage::Result { from, value },
                });
                Ok(ExternResult::Atoms(vec![]))
            }
            names::ADAPT_NOTIFY => {
                let k =
                    args.first()
                        .and_then(Atom::as_int)
                        .ok_or_else(|| HoclError::ExternFailed {
                            name: names::ADAPT_NOTIFY.into(),
                            reason: "expected the adaptation id".into(),
                        })? as u32;
                match self.plans.iter().find(|p| p.adaptation.0 == k) {
                    Some(plan) => {
                        for t in &plan.adapt_targets {
                            self.outbox.push(Command::Send {
                                to: t.clone(),
                                message: SaMessage::Adapt { adaptation: k },
                            });
                        }
                        for t in &plan.trigger_targets {
                            self.outbox.push(Command::Send {
                                to: t.clone(),
                                message: SaMessage::Trigger { adaptation: k },
                            });
                        }
                        Ok(ExternResult::Atoms(vec![]))
                    }
                    None => {
                        self.error = Some(format!("no adaptation plan for id {k}"));
                        Ok(ExternResult::Atoms(vec![]))
                    }
                }
            }
            other => self.flow.call(other, args),
        }
    }
}

impl SaCore {
    /// Build the agent for one compiled task program, shared or owned:
    /// the agent keeps the program and starts from a copy of its initial
    /// solution.
    pub fn new(program: impl Into<Arc<AgentProgram>>, plans: Arc<Vec<AdaptPlan>>) -> Self {
        let program = program.into();
        let solution = program.initial.clone();
        SaCore {
            program,
            solution,
            engine: Engine::with_config(EngineConfig::default()),
            plans,
            state: TaskState::Idle,
            stats: ReduceStats::default(),
        }
    }

    /// The task name this agent wraps.
    pub fn name(&self) -> &str {
        &self.program.name
    }

    /// The service name this agent invokes.
    pub fn service(&self) -> &str {
        &self.program.service
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Is this a standby (not yet triggered) agent?
    pub fn is_standby(&self) -> bool {
        self.program.standby
    }

    /// Read access to the local solution (tests, diagnostics).
    pub fn solution(&self) -> &ginflow_hocl::Solution {
        &self.solution
    }

    /// Work counters since the last call (simulator cost accounting).
    pub fn take_stats(&mut self) -> ReduceStats {
        let s = self.stats;
        self.stats = ReduceStats::default();
        s
    }

    /// Process one event, returning the commands the runtime must execute.
    ///
    /// Every call injects the event's atoms into the local solution and
    /// reduces to quiescence — the paper's "a reduction phase is
    /// systematically triggered when new molecules are received".
    pub fn handle(&mut self, event: Event) -> Result<Vec<Command>, HoclError> {
        let mut host = AgentHost {
            flow: FlowExterns::new(),
            plans: &self.plans,
            outbox: Vec::new(),
            error: None,
        };
        match event {
            Event::Start => {}
            Event::Deliver(message) => {
                let atom = match message {
                    SaMessage::Result { from, value } => {
                        Atom::tuple([Atom::sym(kw::DELIVER), Atom::sym(from), value])
                    }
                    SaMessage::Adapt { adaptation } => {
                        Atom::tuple([Atom::sym(kw::ADAPT), Atom::int(adaptation as i64)])
                    }
                    SaMessage::Trigger { adaptation } => {
                        Atom::tuple([Atom::sym(kw::TRIGGER), Atom::int(adaptation as i64)])
                    }
                };
                self.solution.insert(atom);
            }
            Event::ServiceCompleted { effect, result } => {
                let atoms = match result {
                    Ok(value) => vec![value],
                    Err(_) => vec![Atom::sym(kw::ERROR)],
                };
                // A recovered agent may receive completions for effects of
                // its previous incarnation — those are unknown and ignored.
                match self
                    .engine
                    .resume(&mut self.solution, effect, atoms, &mut host)
                {
                    Ok(()) => {}
                    Err(HoclError::UnknownEffect(_)) => return Ok(vec![]),
                    Err(e) => return Err(e),
                }
            }
        }
        let out = self.engine.reduce(&mut self.solution, &mut host)?;
        if let Some(reason) = host.error {
            return Err(HoclError::ExternFailed {
                name: names::ADAPT_NOTIFY.into(),
                reason,
            });
        }
        let mut commands = host.outbox;
        for eff in &out.suspended {
            let service = eff
                .args
                .first()
                .and_then(Atom::as_sym)
                .map(|s| s.as_str().to_owned())
                .unwrap_or_else(|| self.program.service.clone());
            let params = match eff.args.get(1) {
                Some(Atom::List(v)) => v.clone(),
                _ => Vec::new(),
            };
            commands.push(Command::Invoke {
                effect: eff.id,
                service,
                params,
            });
        }
        self.stats.applications += self.engine.stats().applications;
        self.stats.match_attempts += self.engine.stats().match_attempts;
        self.stats.weight_scanned += self.engine.stats().weight_scanned;
        self.engine.take_stats();
        self.refresh_state(&mut commands);
        Ok(commands)
    }

    /// Derive the lifecycle state from the solution and emit a `Publish`
    /// command when it changed.
    ///
    /// The publish goes at the **front** of the command list, before any
    /// `Send` to successors: the shared space learns of the transition
    /// before its consequences can propagate. That ordering is what
    /// keeps every observer's status view gap-free under pipelined
    /// publishing — a `Completed` enters the broker's status log before
    /// the result message that lets a downstream task (possibly on
    /// another shard, over another connection) complete, so no
    /// downstream completion can ever be observed ahead of its
    /// upstream's.
    fn refresh_state(&mut self, commands: &mut Vec<Command>) {
        let new_state = if self.solution.has_pending() {
            TaskState::Running
        } else {
            match self.solution.atoms().keyed_sub(kw::RES) {
                Some(res) if res.iter().any(is_error) => TaskState::Failed,
                Some(res) => match res.iter().next() {
                    Some(_) => TaskState::Completed,
                    // RES flushed by trigger_adapt: the task failed and
                    // handed over to the adaptation.
                    None => TaskState::Failed,
                },
                None => TaskState::Idle,
            }
        };
        if new_state != self.state {
            self.state = new_state;
            let result = if new_state == TaskState::Completed {
                self.result()
            } else {
                None
            };
            commands.insert(
                0,
                Command::Publish {
                    state: new_state,
                    result,
                },
            );
        }
    }

    /// The task's result value, if completed.
    pub fn result(&self) -> Option<Value> {
        self.solution
            .atoms()
            .keyed_sub(kw::RES)
            .and_then(|res| res.iter().find(|a| !is_error(a)))
            .cloned()
    }
}

/// Is `atom` the `ERROR` result of a failed invocation? Compared by
/// spelling, so no `ERROR` symbol is built to compare against.
fn is_error(atom: &Atom) -> bool {
    atom.as_sym().is_some_and(|s| s.as_str() == kw::ERROR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
    use ginflow_core::Workflow;
    use ginflow_hoclflow::agent_programs;

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

    fn core_for(wf: &Workflow, task: &str) -> SaCore {
        let (agents, plans) = agent_programs(wf);
        let program = agents.into_iter().find(|a| a.name == task).unwrap();
        SaCore::new(program, Arc::new(plans))
    }

    fn invoke_command(commands: &[Command]) -> (EffectId, String, Vec<Value>) {
        commands
            .iter()
            .find_map(|c| match c {
                Command::Invoke {
                    effect,
                    service,
                    params,
                } => Some((*effect, service.clone(), params.clone())),
                _ => None,
            })
            .expect("an Invoke command")
    }

    #[test]
    fn source_task_invokes_on_start() {
        let wf = fig5();
        let mut t1 = core_for(&wf, "T1");
        let commands = t1.handle(Event::Start).unwrap();
        let (_, service, params) = invoke_command(&commands);
        assert_eq!(service, "s1");
        assert_eq!(params, vec![Value::str("input")]);
        assert_eq!(t1.state(), TaskState::Running);
        assert!(commands.iter().any(|c| matches!(
            c,
            Command::Publish {
                state: TaskState::Running,
                ..
            }
        )));
    }

    #[test]
    fn completion_fans_out_results() {
        let wf = fig5();
        let mut t1 = core_for(&wf, "T1");
        let commands = t1.handle(Event::Start).unwrap();
        let (effect, _, _) = invoke_command(&commands);
        let commands = t1
            .handle(Event::ServiceCompleted {
                effect,
                result: Ok(Value::str("r1")),
            })
            .unwrap();
        let sends: Vec<(&str, &SaMessage)> = commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { to, message } => Some((to.as_str(), message)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2);
        for (to, msg) in &sends {
            assert!(["T2", "T3"].contains(to));
            assert_eq!(
                *msg,
                &SaMessage::Result {
                    from: "T1".into(),
                    value: Value::str("r1")
                }
            );
        }
        assert_eq!(t1.state(), TaskState::Completed);
        assert_eq!(t1.result(), Some(Value::str("r1")));
    }

    #[test]
    fn waiting_task_runs_after_all_dependencies() {
        let wf = fig5();
        let mut t4 = core_for(&wf, "T4");
        assert!(t4.handle(Event::Start).unwrap().is_empty());
        let commands = t4
            .handle(Event::Deliver(SaMessage::Result {
                from: "T2".into(),
                value: Value::str("r2"),
            }))
            .unwrap();
        assert!(commands.is_empty(), "still waiting for T3");
        let commands = t4
            .handle(Event::Deliver(SaMessage::Result {
                from: "T3".into(),
                value: Value::str("r3"),
            }))
            .unwrap();
        let (_, service, params) = invoke_command(&commands);
        assert_eq!(service, "s4");
        // Parameter order is provenance-sorted: T2 before T3.
        assert_eq!(params, vec![Value::str("r2"), Value::str("r3")]);
    }

    #[test]
    fn duplicate_results_are_ignored() {
        let wf = fig5();
        let mut t2 = core_for(&wf, "T2");
        t2.handle(Event::Start).unwrap();
        let first = t2
            .handle(Event::Deliver(SaMessage::Result {
                from: "T1".into(),
                value: Value::str("r1"),
            }))
            .unwrap();
        assert!(first.iter().any(|c| matches!(c, Command::Invoke { .. })));
        // A recovered T1 re-sends: no second invocation may happen.
        let dup = t2
            .handle(Event::Deliver(SaMessage::Result {
                from: "T1".into(),
                value: Value::str("r1-replayed"),
            }))
            .unwrap();
        assert!(!dup.iter().any(|c| matches!(c, Command::Invoke { .. })));
    }

    #[test]
    fn failure_triggers_adaptation_fanout() {
        let wf = fig5();
        let mut t2 = core_for(&wf, "T2");
        t2.handle(Event::Start).unwrap();
        let commands = t2
            .handle(Event::Deliver(SaMessage::Result {
                from: "T1".into(),
                value: Value::str("r1"),
            }))
            .unwrap();
        let (effect, _, _) = invoke_command(&commands);
        let commands = t2
            .handle(Event::ServiceCompleted {
                effect,
                result: Err("boom".into()),
            })
            .unwrap();
        let sends: Vec<(&str, &SaMessage)> = commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { to, message } => Some((to.as_str(), message)),
                _ => None,
            })
            .collect();
        // ADAPT to T1 and T4, TRIGGER to T2'.
        assert!(sends.contains(&("T1", &SaMessage::Adapt { adaptation: 0 })));
        assert!(sends.contains(&("T4", &SaMessage::Adapt { adaptation: 0 })));
        assert!(sends.contains(&("T2'", &SaMessage::Trigger { adaptation: 0 })));
        // No Result was propagated.
        assert!(!sends
            .iter()
            .any(|(_, m)| matches!(m, SaMessage::Result { .. })));
        assert_eq!(t2.state(), TaskState::Failed);
    }

    #[test]
    fn completed_source_resends_on_adapt() {
        let wf = fig5();
        let mut t1 = core_for(&wf, "T1");
        let commands = t1.handle(Event::Start).unwrap();
        let (effect, _, _) = invoke_command(&commands);
        t1.handle(Event::ServiceCompleted {
            effect,
            result: Ok(Value::str("r1")),
        })
        .unwrap();
        // ADAPT arrives after completion: the retained result is resent to
        // the replacement entry.
        let commands = t1
            .handle(Event::Deliver(SaMessage::Adapt { adaptation: 0 }))
            .unwrap();
        let sends: Vec<(&str, &SaMessage)> = commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { to, message } => Some((to.as_str(), message)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![(
                "T2'",
                &SaMessage::Result {
                    from: "T1".into(),
                    value: Value::str("r1")
                }
            )]
        );
    }

    #[test]
    fn standby_agent_activates_on_trigger() {
        let wf = fig5();
        let mut t2p = core_for(&wf, "T2'");
        assert!(t2p.is_standby());
        assert!(t2p.handle(Event::Start).unwrap().is_empty());
        // Early delivery before the trigger parks inertly.
        let commands = t2p
            .handle(Event::Deliver(SaMessage::Result {
                from: "T1".into(),
                value: Value::str("r1"),
            }))
            .unwrap();
        assert!(commands.is_empty());
        // Trigger activates: the parked input immediately drives setup+call.
        let commands = t2p
            .handle(Event::Deliver(SaMessage::Trigger { adaptation: 0 }))
            .unwrap();
        let (_, service, params) = invoke_command(&commands);
        assert_eq!(service, "s2p");
        assert_eq!(params, vec![Value::str("r1")]);
    }

    #[test]
    fn destination_reroutes_sources_on_adapt() {
        let wf = fig5();
        let mut t4 = core_for(&wf, "T4");
        t4.handle(Event::Start).unwrap();
        // T3 delivered before the failure.
        t4.handle(Event::Deliver(SaMessage::Result {
            from: "T3".into(),
            value: Value::str("r3"),
        }))
        .unwrap();
        // Adaptation: T2 → T2'.
        t4.handle(Event::Deliver(SaMessage::Adapt { adaptation: 0 }))
            .unwrap();
        // Late result from the dead T2 is ignored…
        let commands = t4
            .handle(Event::Deliver(SaMessage::Result {
                from: "T2".into(),
                value: Value::str("stale"),
            }))
            .unwrap();
        assert!(!commands.iter().any(|c| matches!(c, Command::Invoke { .. })));
        // …while T2' completes the input set.
        let commands = t4
            .handle(Event::Deliver(SaMessage::Result {
                from: "T2'".into(),
                value: Value::str("r2p"),
            }))
            .unwrap();
        let (_, _, params) = invoke_command(&commands);
        assert_eq!(params, vec![Value::str("r2p"), Value::str("r3")]);
    }

    #[test]
    fn unknown_effect_completion_is_ignored() {
        let wf = fig5();
        let mut t1 = core_for(&wf, "T1");
        let commands = t1
            .handle(Event::ServiceCompleted {
                effect: EffectId(999),
                result: Ok(Value::str("ghost")),
            })
            .unwrap();
        // Start-up reduction may fire, but the ghost completion itself is
        // dropped without error.
        let _ = commands;
    }

    #[test]
    fn replaying_the_inbox_rebuilds_the_same_state() {
        // §IV-B's soft-state argument, as a test: same events ⇒ same
        // solution.
        let wf = fig5();
        let events = [
            Event::Start,
            Event::Deliver(SaMessage::Result {
                from: "T2".into(),
                value: Value::str("r2"),
            }),
            Event::Deliver(SaMessage::Result {
                from: "T3".into(),
                value: Value::str("r3"),
            }),
        ];
        let run = || {
            let mut t4 = core_for(&wf, "T4");
            let mut all_commands = Vec::new();
            for e in &events {
                all_commands.extend(t4.handle(e.clone()).unwrap());
            }
            (format!("{}", t4.solution()), all_commands)
        };
        let (sol1, cmd1) = run();
        let (sol2, cmd2) = run();
        assert_eq!(sol1, sol2);
        assert_eq!(cmd1, cmd2);
    }

    #[test]
    fn stats_accumulate() {
        let wf = fig5();
        let mut t1 = core_for(&wf, "T1");
        t1.handle(Event::Start).unwrap();
        let stats = t1.take_stats();
        assert!(stats.applications > 0);
        assert!(stats.weight_scanned > 0);
        assert_eq!(t1.take_stats().applications, 0);
    }
}
