//! The dependency DAG of *active* tasks.
//!
//! Replacement (standby) wiring lives in [`crate::Adaptation`] — the DAG
//! only holds the edges the workflow starts with, which is what the
//! HOCLflow compiler turns into initial `SRC`/`DST` sets.

use crate::error::CoreError;
use crate::task::{TaskId, TaskSpec};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A directed acyclic dependency graph over [`TaskSpec`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dag {
    tasks: Vec<TaskSpec>,
    /// `succ[t]` = tasks that consume `t`'s result.
    succ: Vec<Vec<TaskId>>,
    /// `pred[t]` = tasks whose results `t` consumes.
    pred: Vec<Vec<TaskId>>,
    by_name: HashMap<String, TaskId, BuildHasherDefault<Fnv>>,
}

/// 64-bit FNV-1a for the name index: every status update and inbox
/// message looks a task up by name, and the names are the workflow's
/// own short strings, which SipHash's flood resistance does not need.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Dag {
    /// Empty graph.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// No tasks at all?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task; errors on duplicate names.
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<TaskId, CoreError> {
        if self.by_name.contains_key(&spec.name) {
            return Err(CoreError::DuplicateTask(spec.name.clone()));
        }
        let id = TaskId(self.tasks.len() as u32);
        self.by_name.insert(spec.name.clone(), id);
        self.tasks.push(spec);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        Ok(id)
    }

    /// Add a dependency edge `from → to` (the result of `from` feeds `to`).
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), CoreError> {
        if from == to {
            return Err(CoreError::SelfDependency(self.name_of(from).to_owned()));
        }
        self.check(from)?;
        self.check(to)?;
        if !self.succ[from.index()].contains(&to) {
            self.succ[from.index()].push(to);
            self.pred[to.index()].push(from);
        }
        Ok(())
    }

    fn check(&self, id: TaskId) -> Result<(), CoreError> {
        if id.index() < self.tasks.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownTask(format!("{id}")))
        }
    }

    /// The spec of a task.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// Mutable spec access (used by builders to mark standby tasks).
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskSpec {
        &mut self.tasks[id.index()]
    }

    /// The name of a task.
    pub fn name_of(&self, id: TaskId) -> &str {
        &self.tasks[id.index()].name
    }

    /// Look a task up by name.
    pub fn by_name(&self, name: &str) -> Option<TaskId> {
        self.by_name.get(name).copied()
    }

    /// All task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// All task specs with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succ[id.index()]
    }

    /// Predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.pred[id.index()]
    }

    /// Tasks with no predecessors, excluding standby tasks.
    pub fn sources(&self) -> Vec<TaskId> {
        self.iter()
            .filter(|(id, t)| self.pred[id.index()].is_empty() && !t.is_standby())
            .map(|(id, _)| id)
            .collect()
    }

    /// Tasks with no successors, excluding standby tasks.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.iter()
            .filter(|(id, t)| self.succ[id.index()].is_empty() && !t.is_standby())
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&to| (TaskId(i as u32), to)))
    }

    /// Topological order; errors with the offending task on a cycle.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, CoreError> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.pred[i].len()).collect();
        let mut queue: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            order.push(t);
            for &s in &self.succ[t.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| self.tasks[i].name.clone())
                .unwrap_or_default();
            Err(CoreError::CycleDetected(stuck))
        }
    }

    /// Validate the graph: non-empty and acyclic. (Name uniqueness and edge
    /// ranges are enforced at construction.)
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.tasks.is_empty() {
            return Err(CoreError::EmptyWorkflow);
        }
        self.topo_order().map(|_| ())
    }

    /// Is `set` weakly connected (ignoring edge direction, within `set`)?
    pub fn is_weakly_connected(&self, set: &[TaskId]) -> bool {
        if set.is_empty() {
            return false;
        }
        let members: std::collections::HashSet<TaskId> = set.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![set[0]];
        seen.insert(set[0]);
        while let Some(t) = stack.pop() {
            let neighbours = self.succ[t.index()].iter().chain(&self.pred[t.index()]);
            for &n in neighbours {
                if members.contains(&n) && seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == set.len()
    }

    /// Length (in tasks) of the longest path — the DAG's critical path when
    /// all tasks take unit time.
    pub fn critical_path_len(&self) -> Result<usize, CoreError> {
        let order = self.topo_order()?;
        let mut depth = vec![1usize; self.tasks.len()];
        for &t in &order {
            for &s in &self.succ[t.index()] {
                depth[s.index()] = depth[s.index()].max(depth[t.index()] + 1);
            }
        }
        Ok(depth.into_iter().max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Dag {
        // T1 → {T2, T3} → T4
        let mut d = Dag::new();
        let t1 = d.add_task(TaskSpec::new("T1", "s1")).unwrap();
        let t2 = d.add_task(TaskSpec::new("T2", "s2")).unwrap();
        let t3 = d.add_task(TaskSpec::new("T3", "s3")).unwrap();
        let t4 = d.add_task(TaskSpec::new("T4", "s4")).unwrap();
        d.add_edge(t1, t2).unwrap();
        d.add_edge(t1, t3).unwrap();
        d.add_edge(t2, t4).unwrap();
        d.add_edge(t3, t4).unwrap();
        d
    }

    #[test]
    fn build_and_query() {
        let d = fig2();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        let t1 = d.by_name("T1").unwrap();
        let t4 = d.by_name("T4").unwrap();
        assert_eq!(d.successors(t1).len(), 2);
        assert_eq!(d.predecessors(t4).len(), 2);
        assert_eq!(d.sources(), vec![t1]);
        assert_eq!(d.sinks(), vec![t4]);
        assert_eq!(d.critical_path_len().unwrap(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = Dag::new();
        d.add_task(TaskSpec::new("T", "s")).unwrap();
        assert!(matches!(
            d.add_task(TaskSpec::new("T", "s")),
            Err(CoreError::DuplicateTask(_))
        ));
    }

    #[test]
    fn self_edges_rejected() {
        let mut d = Dag::new();
        let t = d.add_task(TaskSpec::new("T", "s")).unwrap();
        assert!(matches!(
            d.add_edge(t, t),
            Err(CoreError::SelfDependency(_))
        ));
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut d = Dag::new();
        let a = d.add_task(TaskSpec::new("A", "s")).unwrap();
        let b = d.add_task(TaskSpec::new("B", "s")).unwrap();
        d.add_edge(a, b).unwrap();
        d.add_edge(a, b).unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = fig2();
        let order = d.topo_order().unwrap();
        let pos: HashMap<TaskId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for (from, to) in d.edges() {
            assert!(pos[&from] < pos[&to]);
        }
    }

    #[test]
    fn cycles_detected() {
        let mut d = Dag::new();
        let a = d.add_task(TaskSpec::new("A", "s")).unwrap();
        let b = d.add_task(TaskSpec::new("B", "s")).unwrap();
        let c = d.add_task(TaskSpec::new("C", "s")).unwrap();
        d.add_edge(a, b).unwrap();
        d.add_edge(b, c).unwrap();
        d.add_edge(c, a).unwrap();
        assert!(matches!(d.topo_order(), Err(CoreError::CycleDetected(_))));
        assert!(d.validate().is_err());
    }

    #[test]
    fn weak_connectivity() {
        let d = fig2();
        let t2 = d.by_name("T2").unwrap();
        let t3 = d.by_name("T3").unwrap();
        let t1 = d.by_name("T1").unwrap();
        // T2 and T3 are not connected to each other directly…
        assert!(!d.is_weakly_connected(&[t2, t3]));
        // …but become connected through T1.
        assert!(d.is_weakly_connected(&[t1, t2, t3]));
        assert!(!d.is_weakly_connected(&[]));
    }

    #[test]
    fn empty_graph_invalid() {
        assert!(matches!(
            Dag::new().validate(),
            Err(CoreError::EmptyWorkflow)
        ));
    }
}
