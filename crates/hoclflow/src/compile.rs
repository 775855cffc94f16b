//! Workflow → HOCL compilation, for both execution targets.

use crate::rules;
use ginflow_core::{AdaptationId, TaskId, Workflow};
use ginflow_hocl::symbol::keywords as kw;
use ginflow_hocl::{Atom, Rule, Solution};
use std::collections::HashMap;
use std::sync::Arc;

/// Runtime fan-out plan of one adaptation: who receives `ADAPT : k`, who
/// receives `TRIGGER : k` when `adapt_notify(k)` fires.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptPlan {
    /// The adaptation.
    pub adaptation: AdaptationId,
    /// Human-readable adaptation name (for run events and reports).
    pub name: String,
    /// Task names whose `ERROR` result fires the adaptation — runtimes
    /// use this to recognise an adaptation firing on the status stream.
    pub watched: Vec<String>,
    /// Task names that must receive the `ADAPT : k` token (region sources
    /// and the destination).
    pub adapt_targets: Vec<String>,
    /// Standby task names that must receive `TRIGGER : k`.
    pub trigger_targets: Vec<String>,
}

/// The compiled program of a single service agent: its initial local
/// solution (the contents of the task's subsolution plus the local rules).
#[derive(Clone, Debug)]
pub struct AgentProgram {
    /// Task identifier within the workflow.
    pub task: TaskId,
    /// Task name.
    pub name: String,
    /// Service the agent wraps.
    pub service: String,
    /// Standby agents only carry their activation rule until triggered.
    pub standby: bool,
    /// The initial local solution.
    pub initial: Solution,
    /// Names of this task's (initial) destinations — used by runtimes for
    /// sink detection and monitoring, without peeking into the chemistry.
    pub destinations: Vec<String>,
    /// Names of this task's (initial) sources.
    pub sources: Vec<String>,
}

impl AgentProgram {
    /// Is this agent a workflow sink (no destinations and not standby)?
    pub fn is_sink(&self) -> bool {
        !self.standby && self.destinations.is_empty()
    }
}

/// A task's initial `SRC` and `DST` names.
#[derive(Default)]
struct Wiring {
    sources: Vec<String>,
    destinations: Vec<String>,
}

/// Initial wiring of a task. An active task's is its DAG neighbourhood; a
/// standby task's comes from its adaptation's edges, which [`roles`]
/// walked once for all of them (standby tasks are wired from the start —
/// Fig 6 gives `T2′` its `SRC : ⟨T1⟩` in the initial program; only the
/// *senders* learn about the replacement at adaptation time). Each task's
/// is taken once per compilation.
fn wiring(wf: &Workflow, id: TaskId, roles: &mut Roles) -> Wiring {
    let dag = wf.dag();
    match dag.task(id).standby_for {
        None => Wiring {
            sources: dag
                .predecessors(id)
                .iter()
                .map(|&p| dag.name_of(p).to_owned())
                .collect(),
            destinations: dag
                .successors(id)
                .iter()
                .map(|&s| dag.name_of(s).to_owned())
                .collect(),
        },
        Some(_) => roles.standby_wiring.remove(&id).unwrap_or_default(),
    }
}

/// The data atoms of a task subsolution (Fig 3 plus the `TASK` self-name
/// atom and provenance-tagged initial inputs).
fn task_atoms(wf: &Workflow, id: TaskId, wiring: &Wiring) -> Vec<Atom> {
    let spec = wf.dag().task(id);
    vec![
        Atom::keyed("TASK", [Atom::sym(&spec.name)]),
        Atom::keyed(kw::SRC, [Atom::sub(wiring.sources.iter().map(Atom::sym))]),
        Atom::keyed(
            kw::DST,
            [Atom::sub(wiring.destinations.iter().map(Atom::sym))],
        ),
        Atom::keyed(kw::SRV, [Atom::sym(&spec.service)]),
        Atom::keyed(
            kw::IN,
            [Atom::sub(
                spec.inputs
                    .iter()
                    .map(|v| Atom::tuple([Atom::sym(kw::INPUT), v.clone()])),
            )],
        ),
    ]
}

/// Adaptation roles of a task, resolved once per compilation.
struct Roles {
    /// adaptation → entry targets this task must start sending to.
    add_dst: HashMap<TaskId, Vec<(u32, Vec<String>)>>,
    /// adaptation data for destinations: (k, old exits, new exits, region).
    mv_src: HashMap<TaskId, Vec<MvSrcData>>,
    /// watched tasks → adaptation ids.
    watched: HashMap<TaskId, Vec<u32>>,
    /// standby task → adaptation id.
    standby: HashMap<TaskId, u32>,
    /// standby task → its initial wiring, until [`wiring`] takes it.
    standby_wiring: HashMap<TaskId, Wiring>,
}

struct MvSrcData {
    k: u32,
    old: Vec<String>,
    new: Vec<String>,
    region: Vec<String>,
}

fn roles(wf: &Workflow) -> Roles {
    let dag = wf.dag();
    let mut r = Roles {
        add_dst: HashMap::new(),
        mv_src: HashMap::new(),
        watched: HashMap::new(),
        standby: HashMap::new(),
        standby_wiring: HashMap::new(),
    };
    for a in wf.adaptations() {
        let k = a.id.0;
        // Standby wiring: one pass over the adaptation's edges for all of
        // its standby tasks, in edge order.
        let is_standby = |t: TaskId| dag.task(t).standby_for == Some(a.id);
        let name = |t: TaskId| dag.name_of(t).to_owned();
        for &(f, t) in a.entry_edges.iter().chain(&a.internal_edges) {
            if is_standby(t) {
                r.standby_wiring.entry(t).or_default().sources.push(name(f));
            }
            if is_standby(f) {
                r.standby_wiring
                    .entry(f)
                    .or_default()
                    .destinations
                    .push(name(t));
            }
        }
        for &(f, t) in &a.exit_edges {
            if is_standby(f) {
                r.standby_wiring
                    .entry(f)
                    .or_default()
                    .destinations
                    .push(name(t));
            }
        }
        // Sources: group entry edges by source task.
        let mut per_source: HashMap<TaskId, Vec<String>> = HashMap::new();
        for &(f, t) in &a.entry_edges {
            per_source
                .entry(f)
                .or_default()
                .push(dag.name_of(t).to_owned());
        }
        for (src, targets) in per_source {
            r.add_dst.entry(src).or_default().push((k, targets));
        }
        // Destination.
        if let Some(d) = a.destination(dag) {
            let old: Vec<String> = a
                .region_exits(dag)
                .into_iter()
                .map(|t| dag.name_of(t).to_owned())
                .collect();
            let new: Vec<String> = a
                .replacement_exits()
                .into_iter()
                .map(|t| dag.name_of(t).to_owned())
                .collect();
            let region: Vec<String> = a
                .region
                .iter()
                .map(|&t| dag.name_of(t).to_owned())
                .collect();
            r.mv_src.entry(d).or_default().push(MvSrcData {
                k,
                old,
                new,
                region,
            });
        }
        for &w in &a.watched {
            r.watched.entry(w).or_default().push(k);
        }
        for &t in &a.replacement {
            r.standby.insert(t, k);
        }
    }
    r
}

/// Adaptation-specific rules planted inside a task (shared by both
/// compilation targets — these rules are local to a subsolution in the
/// centralized program and to the agent solution in the distributed one).
fn adaptation_rules_for(task: TaskId, roles: &Roles) -> Vec<Rule> {
    let mut out = Vec::new();
    if let Some(entries) = roles.add_dst.get(&task) {
        for (k, targets) in entries {
            let refs: Vec<&str> = targets.iter().map(String::as_str).collect();
            out.push(rules::add_dst(*k, &refs));
        }
    }
    if let Some(entries) = roles.mv_src.get(&task) {
        for data in entries {
            out.push(rules::mv_src(
                data.k,
                &data.old.iter().map(String::as_str).collect::<Vec<_>>(),
                &data.new.iter().map(String::as_str).collect::<Vec<_>>(),
                &data.region.iter().map(String::as_str).collect::<Vec<_>>(),
            ));
        }
    }
    out
}

/// The runtime fan-out plans, one per adaptation.
pub fn adapt_plans(wf: &Workflow) -> Vec<AdaptPlan> {
    let dag = wf.dag();
    wf.adaptations()
        .iter()
        .map(|a| {
            let mut adapt_targets: Vec<String> = a
                .region_sources(dag)
                .into_iter()
                .map(|t| dag.name_of(t).to_owned())
                .collect();
            if let Some(d) = a.destination(dag) {
                adapt_targets.push(dag.name_of(d).to_owned());
            }
            AdaptPlan {
                adaptation: a.id,
                name: a.name.clone(),
                watched: a
                    .watched
                    .iter()
                    .map(|&t| dag.name_of(t).to_owned())
                    .collect(),
                adapt_targets,
                trigger_targets: a
                    .replacement
                    .iter()
                    .map(|&t| dag.name_of(t).to_owned())
                    .collect(),
            }
        })
        .collect()
}

/// Compile to the **centralized** program: one global solution of task
/// subsolutions, the global `gw_pass`, and the global forms of the
/// adaptation rules (Figs 3, 4, 7, 8).
pub fn centralized(wf: &Workflow) -> Solution {
    let dag = wf.dag();
    let mut r = roles(wf);
    let generic = [rules::gw_setup(), rules::gw_call()].map(Arc::new);
    let mut top: Vec<Atom> = Vec::with_capacity(dag.len() + 4);
    for (id, spec) in dag.iter() {
        let mut atoms = task_atoms(wf, id, &wiring(wf, id, &mut r));
        if !spec.is_standby() {
            atoms.extend(generic.iter().cloned().map(Atom::rule_arc));
            for rule in adaptation_rules_for(id, &r) {
                atoms.push(Atom::rule(rule));
            }
        }
        top.push(Atom::tuple([Atom::sym(&spec.name), Atom::sub(atoms)]));
    }
    top.push(Atom::rule(rules::gw_pass_global()));
    for a in wf.adaptations() {
        let k = a.id.0;
        let mut affected: Vec<String> = a
            .region_sources(dag)
            .into_iter()
            .map(|t| dag.name_of(t).to_owned())
            .collect();
        if let Some(d) = a.destination(dag) {
            affected.push(dag.name_of(d).to_owned());
        }
        let replacements: Vec<String> = a
            .replacement
            .iter()
            .map(|&t| dag.name_of(t).to_owned())
            .collect();
        let affected_refs: Vec<&str> = affected.iter().map(String::as_str).collect();
        let replacement_refs: Vec<&str> = replacements.iter().map(String::as_str).collect();
        for &w in &a.watched {
            top.push(Atom::rule(rules::trigger_adapt_global(
                k,
                dag.name_of(w),
                &affected_refs,
                &replacement_refs,
            )));
        }
        for &alt in &a.replacement {
            top.push(Atom::rule(rules::activate_global(
                k,
                dag.name_of(alt),
                vec![rules::gw_setup(), rules::gw_call()],
            )));
        }
    }
    Solution::from_atoms(top)
}

/// Compile to the **decentralised** programs: one local solution per
/// service agent (§IV-A).
///
/// A rule that does not depend on the task is built once and every
/// agent's solution holds the same `Arc`: the four generic rules, and
/// per adaptation `k` its `activate_k` and `trigger_adapt_k`. The paper's
/// agents all carry *the same* generic rules (Fig 4); so do these, down
/// to the allocation — a 4000-task chain compiles 4 rules, not 16 000.
pub fn agent_programs(wf: &Workflow) -> (Vec<AgentProgram>, Vec<AdaptPlan>) {
    let dag = wf.dag();
    let mut r = roles(wf);
    let generic = [
        rules::gw_setup(),
        rules::gw_call(),
        rules::gw_send(),
        rules::gw_recv(),
    ]
    .map(Arc::new);
    // adaptation id → its `activate_k` / its `trigger_adapt_k`.
    let mut activate: HashMap<u32, Arc<Rule>> = HashMap::new();
    let mut trigger: HashMap<u32, Arc<Rule>> = HashMap::new();
    for a in wf.adaptations() {
        let k = a.id.0;
        let injected = generic.iter().map(|g| Rule::clone(g)).collect();
        activate.insert(k, Arc::new(rules::activate_local(k, injected)));
        trigger.insert(k, Arc::new(rules::trigger_adapt_local(k)));
    }
    let mut agents = Vec::with_capacity(dag.len());
    for (id, spec) in dag.iter() {
        let wiring = wiring(wf, id, &mut r);
        let mut atoms = task_atoms(wf, id, &wiring);
        match r.standby.get(&id) {
            Some(k) => atoms.push(Atom::rule_arc(activate[k].clone())),
            None => {
                atoms.extend(generic.iter().cloned().map(Atom::rule_arc));
                for k in r.watched.get(&id).into_iter().flatten() {
                    atoms.push(Atom::rule_arc(trigger[k].clone()));
                }
                for rule in adaptation_rules_for(id, &r) {
                    atoms.push(Atom::rule(rule));
                }
            }
        }
        agents.push(AgentProgram {
            task: id,
            name: spec.name.clone(),
            service: spec.service.clone(),
            standby: spec.is_standby(),
            initial: Solution::from_atoms(atoms),
            destinations: wiring.destinations,
            sources: wiring.sources,
        });
    }
    (agents, adapt_plans(wf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
    use ginflow_core::Value;

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

    #[test]
    fn centralized_program_shape() {
        let wf = fig5();
        let sol = centralized(&wf);
        // 5 task molecules + gw_pass + 1 trigger + 1 activate.
        assert_eq!(sol.atoms().len(), 8);
        assert_eq!(sol.atoms().rule_indices().len(), 3);
        // T2's subsolution carries gw rules; T2' (standby) does not.
        let body = |name: &str| -> Vec<String> {
            sol.atoms()
                .iter()
                .find_map(|a| match a {
                    Atom::Tuple(v) if v[0] == Atom::sym(name) => v[1].as_sub().map(|ms| {
                        ms.iter()
                            .filter_map(|x| x.as_rule().map(|r| r.name().to_owned()))
                            .collect()
                    }),
                    _ => None,
                })
                .unwrap()
        };
        assert!(body("T2").contains(&"gw_setup".to_owned()));
        assert!(body("T2'").is_empty());
        // T1 carries add_dst_0; T4 carries mv_src_0.
        assert!(body("T1").contains(&"add_dst_0".to_owned()));
        assert!(body("T4").contains(&"mv_src_0".to_owned()));
    }

    #[test]
    fn agent_programs_shape() {
        let wf = fig5();
        let (agents, plans) = agent_programs(&wf);
        assert_eq!(agents.len(), 5);
        let by_name = |n: &str| agents.iter().find(|a| a.name == n).unwrap();

        let t1 = by_name("T1");
        assert!(!t1.standby);
        assert_eq!(t1.destinations, vec!["T2", "T3"]);
        let rule_names: Vec<String> = t1
            .initial
            .atoms()
            .iter()
            .filter_map(|a| a.as_rule().map(|r| r.name().to_owned()))
            .collect();
        assert!(rule_names.contains(&"gw_send".to_owned()));
        assert!(rule_names.contains(&"add_dst_0".to_owned()));

        let t2 = by_name("T2");
        let t2_rules: Vec<String> = t2
            .initial
            .atoms()
            .iter()
            .filter_map(|a| a.as_rule().map(|r| r.name().to_owned()))
            .collect();
        assert!(t2_rules.contains(&"trigger_adapt_0".to_owned()));

        let t2p = by_name("T2'");
        assert!(t2p.standby);
        assert_eq!(t2p.sources, vec!["T1"]);
        assert_eq!(t2p.destinations, vec!["T4"]);
        assert_eq!(t2p.initial.atoms().rule_indices().len(), 1);

        let t4 = by_name("T4");
        assert!(t4.is_sink());
        let t4_rules: Vec<String> = t4
            .initial
            .atoms()
            .iter()
            .filter_map(|a| a.as_rule().map(|r| r.name().to_owned()))
            .collect();
        assert!(t4_rules.contains(&"mv_src_0".to_owned()));

        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].adapt_targets, vec!["T1", "T4"]);
        assert_eq!(plans[0].trigger_targets, vec!["T2'"]);
    }

    #[test]
    fn initial_inputs_are_provenance_tagged() {
        let wf = fig5();
        let (agents, _) = agent_programs(&wf);
        let t1 = agents.iter().find(|a| a.name == "T1").unwrap();
        let input = t1.initial.atoms().keyed_sub(kw::IN).unwrap();
        assert_eq!(input.len(), 1);
        assert!(input.contains(&Atom::tuple([Atom::sym(kw::INPUT), Atom::str("input")])));
    }

    #[test]
    fn plain_workflow_has_no_adaptation_rules() {
        let wf = ginflow_core::patterns::diamond(2, 2, ginflow_core::Connectivity::Simple, "noop")
            .unwrap();
        let (agents, plans) = agent_programs(&wf);
        assert!(plans.is_empty());
        for a in &agents {
            assert!(!a.standby);
            let names: Vec<&str> = a
                .initial
                .atoms()
                .iter()
                .filter_map(|x| x.as_rule().map(|r| r.name()))
                .collect();
            assert_eq!(names, vec!["gw_setup", "gw_call", "gw_send", "gw_recv"]);
        }
    }

    /// Pointers of every rule atom at the top level of `agents`' initial
    /// solutions, in order.
    fn rule_pointers(agents: &[AgentProgram]) -> Vec<(String, *const Rule)> {
        agents
            .iter()
            .flat_map(|a| a.initial.atoms().iter())
            .filter_map(|atom| atom.as_rule())
            .map(|r| (r.name().to_owned(), Arc::as_ptr(r)))
            .collect()
    }

    #[test]
    fn generic_rules_are_built_once_and_shared_by_every_agent() {
        let wf = ginflow_core::patterns::sequence(100, "s").unwrap();
        let (agents, _) = agent_programs(&wf);
        let pointers = rule_pointers(&agents);
        assert_eq!(pointers.len(), 4 * agents.len());
        let distinct = |name: Option<&str>| {
            pointers
                .iter()
                .filter(|(n, _)| name.is_none_or(|name| n == name))
                .map(|(_, p)| *p)
                .collect::<std::collections::HashSet<*const Rule>>()
                .len()
        };
        assert_eq!(
            distinct(Some("gw_recv")),
            1,
            "every agent's is the same Arc"
        );
        assert_eq!(distinct(None), 4, "one allocation per generic rule");
    }

    #[test]
    fn a_wide_adaptive_diamond_compiles_in_time_linear_in_its_edges() {
        use ginflow_core::{AdaptiveDiamondSpec, Connectivity};
        // 1602 active and 1600 standby tasks, ≈ 64 000 replacement edges:
        // walking every adaptation edge once per standby task (twice per
        // task) is ≈ 2·10⁸ steps and takes minutes in a debug build.
        let spec = AdaptiveDiamondSpec {
            h: 40,
            v: 40,
            main: Connectivity::Full,
            replacement: Connectivity::Full,
        };
        let wf = spec.build("svc", "faulty").unwrap();
        let started = std::time::Instant::now();
        let (agents, _) = agent_programs(&wf);
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 2.0, "agent_programs took {took:?}");

        // Each standby task's lists, read off the adaptation's edges.
        let dag = wf.dag();
        let a = &wf.adaptations()[0];
        let mut expected: HashMap<TaskId, (Vec<String>, Vec<String>)> = HashMap::new();
        for &(f, t) in a.entry_edges.iter().chain(&a.internal_edges) {
            expected
                .entry(t)
                .or_default()
                .0
                .push(dag.name_of(f).to_owned());
            expected
                .entry(f)
                .or_default()
                .1
                .push(dag.name_of(t).to_owned());
        }
        for &(f, t) in &a.exit_edges {
            expected
                .entry(f)
                .or_default()
                .1
                .push(dag.name_of(t).to_owned());
        }
        let standby: Vec<&AgentProgram> = agents.iter().filter(|p| p.standby).collect();
        assert_eq!(standby.len(), 1600);
        for p in standby {
            let (sources, destinations) = &expected[&p.task];
            assert_eq!((&p.sources, &p.destinations), (sources, destinations));
            assert!(!sources.is_empty() && !destinations.is_empty());
        }
    }

    #[test]
    fn standby_agents_of_one_adaptation_share_its_activation_rule() {
        use ginflow_core::{AdaptiveDiamondSpec, Connectivity};
        let spec = AdaptiveDiamondSpec {
            h: 3,
            v: 3,
            main: Connectivity::Full,
            replacement: Connectivity::Full,
        };
        let (agents, plans) = agent_programs(&spec.build("svc", "faulty").unwrap());
        assert_eq!(plans.len(), 1);
        let standby: Vec<AgentProgram> = agents.iter().filter(|a| a.standby).cloned().collect();
        assert_eq!(standby.len(), 9);
        let activations = rule_pointers(&standby);
        assert_eq!(activations.len(), 9, "a standby agent holds one rule");
        assert!(activations
            .iter()
            .all(|(name, p)| name == "activate_0" && *p == activations[0].1));
    }
}
