//! The [`Workflow`]: a validated DAG plus its adaptations, and the builder
//! API (the programmatic counterpart of the JSON interface, §IV-D).

use crate::adaptation::{validate_disjoint, Adaptation, AdaptationId};
use crate::dag::Dag;
use crate::error::CoreError;
use crate::task::{TaskId, TaskSpec};
use crate::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A complete, validated workflow.
///
/// The DAG sits behind an [`Arc`]: a clone shares it, so a runtime that
/// keeps the workflow it runs — and builds each agent's program from it
/// when the agent is built — holds no second copy of the graph. The two
/// mutators copy it on write.
#[derive(Clone, Debug, PartialEq)]
pub struct Workflow {
    name: String,
    dag: Arc<Dag>,
    adaptations: Vec<Adaptation>,
}

impl Workflow {
    /// Assemble and validate.
    pub fn new(
        name: impl Into<String>,
        dag: Dag,
        adaptations: Vec<Adaptation>,
    ) -> Result<Self, CoreError> {
        dag.validate()?;
        for a in &adaptations {
            a.validate(&dag)?;
        }
        validate_disjoint(&adaptations)?;
        // Every standby task must belong to exactly one declared adaptation.
        for (id, t) in dag.iter() {
            if let Some(aid) = t.standby_for {
                let declared = adaptations
                    .iter()
                    .any(|a| a.id == aid && a.replacement.contains(&id));
                if !declared {
                    return Err(CoreError::UnknownTask(format!(
                        "standby task {} references undeclared adaptation {aid}",
                        t.name
                    )));
                }
            }
        }
        Ok(Workflow {
            name: name.into(),
            dag: Arc::new(dag),
            adaptations,
        })
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dependency DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The adaptation table.
    pub fn adaptations(&self) -> &[Adaptation] {
        &self.adaptations
    }

    /// Adaptations triggered by a failure of `task`.
    pub fn adaptations_watching(&self, task: TaskId) -> Vec<&Adaptation> {
        self.adaptations
            .iter()
            .filter(|a| a.watched.contains(&task))
            .collect()
    }

    /// Number of active (non-standby) tasks.
    pub fn active_task_count(&self) -> usize {
        self.dag.iter().filter(|(_, t)| !t.is_standby()).count()
    }

    /// Change the service of a named task (used by workload generators to
    /// plant failing services). Returns whether the task exists.
    pub fn set_service(&mut self, task: &str, service: &str) -> bool {
        match self.dag.by_name(task) {
            Some(id) => {
                Arc::make_mut(&mut self.dag).task_mut(id).service = service.to_owned();
                true
            }
            None => false,
        }
    }
}

/// Fluent builder for [`Workflow`].
///
/// ```
/// use ginflow_core::prelude::*;
/// let mut b = WorkflowBuilder::new("demo");
/// b.task("A", "s").input(Value::int(1));
/// b.task("B", "s").after(["A"]);
/// let wf = b.build().unwrap();
/// assert_eq!(wf.dag().len(), 2);
/// ```
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<PendingTask>,
    adaptations: Vec<PendingAdaptation>,
}

struct PendingTask {
    spec: TaskSpec,
    after: Vec<String>,
}

struct PendingAdaptation {
    name: String,
    region: Vec<String>,
    watched: Vec<String>,
    /// (task name, service, inputs, depends_on names)
    replacement: Vec<(String, String, Vec<Value>, Vec<String>)>,
}

impl WorkflowBuilder {
    /// Start a workflow.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            tasks: Vec::new(),
            adaptations: Vec::new(),
        }
    }

    /// Add a task; returns a handle for chaining inputs/dependencies.
    pub fn task(&mut self, name: impl Into<String>, service: impl Into<String>) -> TaskBuilder<'_> {
        self.tasks.push(PendingTask {
            spec: TaskSpec::new(name, service),
            after: Vec::new(),
        });
        TaskBuilder {
            owner: self,
            index: usize::MAX, // resolved in methods via last element
        }
    }

    /// Declare an adaptation: if any `watched` task (within `region`) fails,
    /// replace `region` with the `replacement` tasks.
    ///
    /// Replacement tasks declare dependencies by name; names outside the
    /// replacement set must be in-neighbours of the region (entry wiring).
    /// Replacement tasks with no dependants inside the replacement are
    /// wired to the region's destination automatically.
    pub fn adaptation(
        &mut self,
        name: impl Into<String>,
        region: impl IntoIterator<Item = impl Into<String>>,
        watched: impl IntoIterator<Item = impl Into<String>>,
        replacement: impl IntoIterator<Item = ReplacementTask>,
    ) -> &mut Self {
        self.adaptations.push(PendingAdaptation {
            name: name.into(),
            region: region.into_iter().map(Into::into).collect(),
            watched: watched.into_iter().map(Into::into).collect(),
            replacement: replacement
                .into_iter()
                .map(|r| (r.name, r.service, r.inputs, r.depends_on))
                .collect(),
        });
        self
    }

    /// Resolve names, wire everything and validate.
    pub fn build(self) -> Result<Workflow, CoreError> {
        let mut dag = Dag::new();
        for t in &self.tasks {
            dag.add_task(t.spec.clone())?;
        }
        // Replacement tasks join the task table as standby tasks.
        let mut adaptation_specs = Vec::new();
        for (ai, pa) in self.adaptations.iter().enumerate() {
            let aid = AdaptationId(ai as u32);
            for (name, service, inputs, _) in &pa.replacement {
                let mut spec = TaskSpec::new(name.clone(), service.clone());
                spec.inputs = inputs.clone();
                spec.standby_for = Some(aid);
                dag.add_task(spec)?;
            }
            adaptation_specs.push((aid, pa));
        }
        // Active edges.
        for t in &self.tasks {
            let to = dag.by_name(&t.spec.name).expect("just inserted");
            for dep in &t.after {
                let from = dag
                    .by_name(dep)
                    .ok_or_else(|| CoreError::UnknownTask(dep.clone()))?;
                dag.add_edge(from, to)?;
            }
        }
        // Adaptation wiring.
        let mut adaptations = Vec::new();
        for (aid, pa) in adaptation_specs {
            let lookup = |n: &str| -> Result<TaskId, CoreError> {
                dag.by_name(n)
                    .ok_or_else(|| CoreError::UnknownTask(n.to_owned()))
            };
            let region: Vec<TaskId> = pa
                .region
                .iter()
                .map(|n| lookup(n))
                .collect::<Result<_, _>>()?;
            let watched: Vec<TaskId> = if pa.watched.is_empty() {
                region.clone()
            } else {
                pa.watched
                    .iter()
                    .map(|n| lookup(n))
                    .collect::<Result<_, _>>()?
            };
            let replacement: Vec<TaskId> = pa
                .replacement
                .iter()
                .map(|(n, _, _, _)| lookup(n))
                .collect::<Result<_, _>>()?;
            let replacement_set: HashMap<TaskId, ()> =
                replacement.iter().map(|&t| (t, ())).collect();
            let mut internal_edges = Vec::new();
            let mut entry_edges = Vec::new();
            for (n, _, _, deps) in &pa.replacement {
                let to = lookup(n)?;
                for d in deps {
                    let from = lookup(d)?;
                    if replacement_set.contains_key(&from) {
                        internal_edges.push((from, to));
                    } else {
                        entry_edges.push((from, to));
                    }
                }
            }
            // Auto-wire replacement exits (no internal dependants) to the
            // region's destination.
            let proto = Adaptation {
                id: aid,
                name: pa.name.clone(),
                region: region.clone(),
                watched: watched.clone(),
                replacement: replacement.clone(),
                internal_edges: internal_edges.clone(),
                entry_edges: entry_edges.clone(),
                exit_edges: Vec::new(),
            };
            let dest = proto
                .destination(&dag)
                .ok_or_else(|| CoreError::InvalidAdaptation {
                    adaptation: pa.name.clone(),
                    reason: "region has no single destination".into(),
                })?;
            let exit_edges: Vec<(TaskId, TaskId)> = replacement
                .iter()
                .filter(|&&t| !internal_edges.iter().any(|&(f, _)| f == t))
                .map(|&t| (t, dest))
                .collect();
            adaptations.push(Adaptation {
                exit_edges,
                ..proto
            });
        }
        Workflow::new(self.name, dag, adaptations)
    }
}

/// Declaration of one replacement (standby) task inside
/// [`WorkflowBuilder::adaptation`].
#[derive(Clone, Debug)]
pub struct ReplacementTask {
    /// Task name.
    pub name: String,
    /// Service name.
    pub service: String,
    /// Workflow-initial inputs.
    pub inputs: Vec<Value>,
    /// Dependencies by name: other replacement tasks (internal wiring) or
    /// in-neighbours of the region (entry wiring).
    pub depends_on: Vec<String>,
}

impl ReplacementTask {
    /// Shorthand constructor.
    pub fn new(
        name: impl Into<String>,
        service: impl Into<String>,
        depends_on: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ReplacementTask {
            name: name.into(),
            service: service.into(),
            inputs: Vec::new(),
            depends_on: depends_on.into_iter().map(Into::into).collect(),
        }
    }
}

/// Handle returned by [`WorkflowBuilder::task`] for fluent configuration of
/// the task just added.
pub struct TaskBuilder<'b> {
    owner: &'b mut WorkflowBuilder,
    #[allow(dead_code)]
    index: usize,
}

impl TaskBuilder<'_> {
    fn last(&mut self) -> &mut PendingTask {
        self.owner.tasks.last_mut().expect("task just pushed")
    }

    /// Add a workflow-initial input value.
    pub fn input(mut self, value: Value) -> Self {
        self.last().spec.inputs.push(value);
        self
    }

    /// Declare dependencies on previously (or later) declared tasks.
    pub fn after(mut self, deps: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let t = self.last();
        t.after.extend(deps.into_iter().map(Into::into));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_workflow() -> Workflow {
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
    fn fig5_builds_and_validates() {
        let wf = fig5_workflow();
        assert_eq!(wf.dag().len(), 5);
        assert_eq!(wf.active_task_count(), 4);
        assert_eq!(wf.adaptations().len(), 1);
        let a = &wf.adaptations()[0];
        let t4 = wf.dag().by_name("T4").unwrap();
        // Exit wiring was inferred automatically.
        assert_eq!(a.exit_edges, vec![(wf.dag().by_name("T2'").unwrap(), t4)]);
        let t2 = wf.dag().by_name("T2").unwrap();
        assert_eq!(wf.adaptations_watching(t2).len(), 1);
        assert!(wf
            .adaptations_watching(wf.dag().by_name("T3").unwrap())
            .is_empty());
    }

    #[test]
    fn chained_replacement_wiring() {
        // Replace {B, C} with {B', C'} where B' → C'.
        let mut b = WorkflowBuilder::new("chain");
        b.task("A", "s");
        b.task("B", "s").after(["A"]);
        b.task("C", "s").after(["B"]);
        b.task("D", "s").after(["C"]);
        b.adaptation(
            "replace-BC",
            ["B", "C"],
            ["B", "C"],
            [
                ReplacementTask::new("B'", "s", ["A"]),
                ReplacementTask::new("C'", "s", ["B'"]),
            ],
        );
        let wf = b.build().unwrap();
        let a = &wf.adaptations()[0];
        let bp = wf.dag().by_name("B'").unwrap();
        let cp = wf.dag().by_name("C'").unwrap();
        let d = wf.dag().by_name("D").unwrap();
        assert_eq!(a.internal_edges, vec![(bp, cp)]);
        assert_eq!(a.entry_edges, vec![(wf.dag().by_name("A").unwrap(), bp)]);
        // Only C' (no internal dependants) is an exit.
        assert_eq!(a.exit_edges, vec![(cp, d)]);
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        b.task("A", "s").after(["GHOST"]);
        assert!(matches!(b.build(), Err(CoreError::UnknownTask(_))));
    }

    #[test]
    fn cyclic_workflow_rejected() {
        let mut b = WorkflowBuilder::new("cycle");
        b.task("A", "s").after(["B"]);
        b.task("B", "s").after(["A"]);
        assert!(matches!(b.build(), Err(CoreError::CycleDetected(_))));
    }

    #[test]
    fn adaptation_without_destination_rejected() {
        // Region = the sink task: no outgoing destination.
        let mut b = WorkflowBuilder::new("nodest");
        b.task("A", "s");
        b.task("B", "s").after(["A"]);
        b.adaptation(
            "bad",
            ["B"],
            ["B"],
            [ReplacementTask::new("B'", "s", ["A"])],
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn a_clone_shares_its_dag_until_it_is_changed() {
        let wf = fig5_workflow();
        let mut copy = wf.clone();
        assert!(std::ptr::eq(wf.dag(), copy.dag()), "a clone shares the DAG");
        assert!(copy.set_service("T2", "other"));
        assert!(!std::ptr::eq(wf.dag(), copy.dag()), "a change copies it");
        let service = |w: &Workflow| w.dag().task(w.dag().by_name("T2").unwrap()).service.clone();
        assert_eq!(service(&wf), "s2", "the original is unchanged");
        assert_eq!(service(&copy), "other");
    }
}
