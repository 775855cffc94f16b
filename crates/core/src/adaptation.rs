//! Adaptation specifications: "if this sub-workflow fails, replace it with
//! that one" (§III-C of the paper), with the validity rules of Fig 9.
//!
//! An adaptation names a connected *region* of the active DAG (the
//! potentially faulty sub-workflow), a set of *standby* replacement tasks
//! with their own wiring, and the tasks whose failure *triggers* it. The
//! replacement hypothesis requires a single common destination for the
//! final services of both the region and the replacement — Fig 9 (a)/(b)
//! are valid, (c) (two outgoing destinations) and (d) (replacement talks to
//! an extra service) are not.

use crate::dag::Dag;
use crate::error::CoreError;
use crate::task::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of an adaptation within its workflow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AdaptationId(pub u32);

impl fmt::Debug for AdaptationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adapt#{}", self.0)
    }
}

impl fmt::Display for AdaptationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adapt#{}", self.0)
    }
}

/// One adaptation: region → replacement.
#[derive(Clone, Debug, PartialEq)]
pub struct Adaptation {
    /// Identifier (index in the workflow's adaptation table).
    pub id: AdaptationId,
    /// Human-readable name.
    pub name: String,
    /// The potentially faulty sub-workflow (active tasks).
    pub region: Vec<TaskId>,
    /// Tasks whose `ERROR` result triggers the adaptation (must be within
    /// the region; the paper adds `trigger_adapt` to "any task in the
    /// potentially faulty sub-workflow the programmer considers as
    /// requiring adaptation").
    pub watched: Vec<TaskId>,
    /// The standby replacement tasks.
    pub replacement: Vec<TaskId>,
    /// Wiring internal to the replacement sub-workflow.
    pub internal_edges: Vec<(TaskId, TaskId)>,
    /// Wiring from region *sources* (in-neighbours of the region) to
    /// replacement entry tasks — the `ADDDST` directives.
    pub entry_edges: Vec<(TaskId, TaskId)>,
    /// Wiring from replacement exit tasks to the region's single
    /// destination — the `MVSRC` directive target.
    pub exit_edges: Vec<(TaskId, TaskId)>,
}

impl Adaptation {
    /// The single destination task of the region (validated by
    /// [`Adaptation::validate`]).
    pub fn destination(&self, dag: &Dag) -> Option<TaskId> {
        let region: HashSet<TaskId> = self.region.iter().copied().collect();
        let mut dest = None;
        for &t in &self.region {
            for &s in dag.successors(t) {
                if !region.contains(&s) {
                    if dest.is_some() && dest != Some(s) {
                        return None;
                    }
                    dest = Some(s);
                }
            }
        }
        dest
    }

    /// In-neighbours of the region (the tasks that must resend their
    /// results to the replacement — the `ADDDST` targets).
    pub fn region_sources(&self, dag: &Dag) -> Vec<TaskId> {
        let region: HashSet<TaskId> = self.region.iter().copied().collect();
        let mut out = Vec::new();
        for &t in &self.region {
            for &p in dag.predecessors(t) {
                if !region.contains(&p) && !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Region tasks with an edge to the destination (the stale `SRC`
    /// entries `MVSRC` removes).
    pub fn region_exits(&self, dag: &Dag) -> Vec<TaskId> {
        let region: HashSet<TaskId> = self.region.iter().copied().collect();
        let mut out = Vec::new();
        for &t in &self.region {
            if dag.successors(t).iter().any(|s| !region.contains(s)) {
                out.push(t);
            }
        }
        out
    }

    /// Replacement exit tasks (sources of `exit_edges`).
    pub fn replacement_exits(&self) -> Vec<TaskId> {
        let mut out: Vec<TaskId> = self.exit_edges.iter().map(|&(f, _)| f).collect();
        out.dedup();
        out
    }

    /// Validate this adaptation against the active DAG — the Fig 9 rules:
    ///
    /// 1. region and watched non-empty, watched ⊆ region;
    /// 2. region is weakly connected;
    /// 3. region, replacement disjoint; replacement tasks are standby for
    ///    this adaptation; region tasks are active;
    /// 4. all outgoing links of the region reach exactly **one**
    ///    destination (Fig 9 (c) is the violation);
    /// 5. all `exit_edges` end at that same destination (Fig 9 (d) is the
    ///    violation: a replacement communicating with an extra service);
    /// 6. `entry_edges` start at region in-neighbours and end at
    ///    replacement tasks; `internal_edges` stay within the replacement;
    /// 7. every replacement task is reachable from an entry and reaches an
    ///    exit (no dead standby tasks).
    pub fn validate(&self, dag: &Dag) -> Result<(), CoreError> {
        let fail = |reason: String| CoreError::InvalidAdaptation {
            adaptation: self.name.clone(),
            reason,
        };
        if self.region.is_empty() {
            return Err(fail("empty region".into()));
        }
        if self.replacement.is_empty() {
            return Err(fail("empty replacement".into()));
        }
        if self.watched.is_empty() {
            return Err(fail("no watched task (nothing can trigger it)".into()));
        }
        let region: HashSet<TaskId> = self.region.iter().copied().collect();
        let replacement: HashSet<TaskId> = self.replacement.iter().copied().collect();
        for &w in &self.watched {
            if !region.contains(&w) {
                return Err(fail(format!(
                    "watched task {} outside the region",
                    dag.name_of(w)
                )));
            }
        }
        if !region.is_disjoint(&replacement) {
            return Err(fail("region and replacement overlap".into()));
        }
        // "Any connected part of the workflow can be replaced" (§III-C).
        // Connectivity is checked on the region *together with* its
        // in-neighbours and destination: the paper's own §V-B experiment
        // replaces the whole diamond body, whose rows are h disjoint chains
        // only joined through the fan-out and fan-in tasks.
        let mut closure: Vec<TaskId> = self.region.clone();
        closure.extend(self.region_sources(dag));
        if let Some(d) = self.destination(dag) {
            closure.push(d);
        }
        closure.sort_unstable();
        closure.dedup();
        if !dag.is_weakly_connected(&closure) {
            return Err(fail(
                "region (with its sources and destination) is not a connected part of the workflow"
                    .into(),
            ));
        }
        for &t in &self.region {
            if dag.task(t).is_standby() {
                return Err(fail(format!(
                    "region task {} is a standby task",
                    dag.name_of(t)
                )));
            }
        }
        for &t in &self.replacement {
            if dag.task(t).standby_for != Some(self.id) {
                return Err(fail(format!(
                    "replacement task {} is not standby for this adaptation",
                    dag.name_of(t)
                )));
            }
        }
        // Rule 4: single destination (Fig 9 (c)).
        let mut dest: Option<TaskId> = None;
        for &t in &self.region {
            for &s in dag.successors(t) {
                if region.contains(&s) {
                    continue;
                }
                match dest {
                    None => dest = Some(s),
                    Some(d) if d == s => {}
                    Some(d) => {
                        return Err(fail(format!(
                            "region has two outgoing destinations ({} and {}) — Fig 9 (c)",
                            dag.name_of(d),
                            dag.name_of(s)
                        )))
                    }
                }
            }
        }
        let dest = dest.ok_or_else(|| fail("region has no outgoing destination".into()))?;
        if region.contains(&dest) || replacement.contains(&dest) {
            return Err(fail(
                "destination must be outside region and replacement".into(),
            ));
        }
        // Rule 5: replacement exits only reach the same destination (Fig 9 (d)).
        if self.exit_edges.is_empty() {
            return Err(fail(
                "replacement has no exit edge to the destination".into(),
            ));
        }
        for &(from, to) in &self.exit_edges {
            if !replacement.contains(&from) {
                return Err(fail(format!(
                    "exit edge starts at {} which is not a replacement task",
                    dag.name_of(from)
                )));
            }
            if to != dest {
                return Err(fail(format!(
                    "replacement communicates with {} besides the destination {} — Fig 9 (d)",
                    dag.name_of(to),
                    dag.name_of(dest)
                )));
            }
        }
        // Rule 6: entry edges come from region in-neighbours.
        let sources: HashSet<TaskId> = self.region_sources(dag).into_iter().collect();
        for &(from, to) in &self.entry_edges {
            if !sources.contains(&from) {
                return Err(fail(format!(
                    "entry edge starts at {} which does not feed the region",
                    dag.name_of(from)
                )));
            }
            if !replacement.contains(&to) {
                return Err(fail(format!(
                    "entry edge ends at {} which is not a replacement task",
                    dag.name_of(to)
                )));
            }
        }
        for &(from, to) in &self.internal_edges {
            if !replacement.contains(&from) || !replacement.contains(&to) {
                return Err(fail("internal edge leaves the replacement".into()));
            }
        }
        // Rule 7: reachability inside the replacement.
        let entries: HashSet<TaskId> = self.entry_edges.iter().map(|&(_, t)| t).collect();
        if entries.is_empty() {
            return Err(fail("replacement has no entry wiring".into()));
        }
        // Adjacency first: a walk over every internal edge per task
        // reached is quadratic in a full-mesh replacement.
        let mut next: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        let mut prev: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        for &(f, s) in &self.internal_edges {
            next.entry(f).or_default().push(s);
            prev.entry(s).or_default().push(f);
        }
        let reach = |from: HashSet<TaskId>, step: &HashMap<TaskId, Vec<TaskId>>| {
            let mut seen = from.clone();
            let mut stack: Vec<TaskId> = from.into_iter().collect();
            while let Some(t) = stack.pop() {
                for &u in step.get(&t).into_iter().flatten() {
                    if seen.insert(u) {
                        stack.push(u);
                    }
                }
            }
            seen
        };
        let fwd = reach(entries, &next);
        let exits: HashSet<TaskId> = self.exit_edges.iter().map(|&(f, _)| f).collect();
        let back = reach(exits, &prev);
        for &t in &self.replacement {
            if !fwd.contains(&t) {
                return Err(fail(format!(
                    "replacement task {} unreachable from any entry",
                    dag.name_of(t)
                )));
            }
            if !back.contains(&t) {
                return Err(fail(format!(
                    "replacement task {} cannot reach any exit",
                    dag.name_of(t)
                )));
            }
        }
        Ok(())
    }
}

/// Check that a set of adaptations is pairwise disjoint ("GinFlow can
/// support several adaptations for the same workflow if they concern
/// disjoint sets of tasks").
pub fn validate_disjoint(adaptations: &[Adaptation]) -> Result<(), CoreError> {
    for (i, a) in adaptations.iter().enumerate() {
        for b in adaptations.iter().skip(i + 1) {
            let sa: HashSet<TaskId> = a.region.iter().chain(&a.replacement).copied().collect();
            if b.region
                .iter()
                .chain(&b.replacement)
                .any(|t| sa.contains(t))
            {
                return Err(CoreError::OverlappingAdaptations(
                    a.name.clone(),
                    b.name.clone(),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    /// Fig 5: T1 → {T2, T3} → T4 with a standby T2'.
    fn fig5() -> (Dag, Adaptation) {
        let mut d = Dag::new();
        let t1 = d.add_task(TaskSpec::new("T1", "s1")).unwrap();
        let t2 = d.add_task(TaskSpec::new("T2", "s2")).unwrap();
        let t3 = d.add_task(TaskSpec::new("T3", "s3")).unwrap();
        let t4 = d.add_task(TaskSpec::new("T4", "s4")).unwrap();
        let t2p = d.add_task(TaskSpec::new("T2'", "s2p")).unwrap();
        d.task_mut(t2p).standby_for = Some(AdaptationId(0));
        d.add_edge(t1, t2).unwrap();
        d.add_edge(t1, t3).unwrap();
        d.add_edge(t2, t4).unwrap();
        d.add_edge(t3, t4).unwrap();
        let a = Adaptation {
            id: AdaptationId(0),
            name: "replace-T2".into(),
            region: vec![t2],
            watched: vec![t2],
            replacement: vec![t2p],
            internal_edges: vec![],
            entry_edges: vec![(t1, t2p)],
            exit_edges: vec![(t2p, t4)],
        };
        (d, a)
    }

    #[test]
    fn fig5_is_valid() {
        let (d, a) = fig5();
        a.validate(&d).unwrap();
        assert_eq!(a.destination(&d), d.by_name("T4"));
        assert_eq!(a.region_sources(&d), vec![d.by_name("T1").unwrap()]);
        assert_eq!(a.region_exits(&d), vec![d.by_name("T2").unwrap()]);
        assert_eq!(a.replacement_exits(), vec![d.by_name("T2'").unwrap()]);
    }

    #[test]
    fn fig9c_two_destinations_rejected() {
        // Region task feeding two different outside tasks.
        let mut d = Dag::new();
        let t1 = d.add_task(TaskSpec::new("T1", "s")).unwrap();
        let t2 = d.add_task(TaskSpec::new("T2", "s")).unwrap();
        let t4 = d.add_task(TaskSpec::new("T4", "s")).unwrap();
        let t5 = d.add_task(TaskSpec::new("T5", "s")).unwrap();
        let t2p = d.add_task(TaskSpec::new("T2'", "s")).unwrap();
        d.task_mut(t2p).standby_for = Some(AdaptationId(0));
        d.add_edge(t1, t2).unwrap();
        d.add_edge(t2, t4).unwrap();
        d.add_edge(t2, t5).unwrap();
        let a = Adaptation {
            id: AdaptationId(0),
            name: "bad".into(),
            region: vec![t2],
            watched: vec![t2],
            replacement: vec![t2p],
            internal_edges: vec![],
            entry_edges: vec![(t1, t2p)],
            exit_edges: vec![(t2p, t4)],
        };
        let err = a.validate(&d).unwrap_err();
        assert!(err.to_string().contains("two outgoing destinations"));
    }

    #[test]
    fn fig9d_extra_communication_rejected() {
        // Replacement exit wired to a second service besides the destination.
        let (mut d, mut a) = fig5();
        let t5 = d.add_task(TaskSpec::new("T5", "s")).unwrap();
        let t2p = d.by_name("T2'").unwrap();
        a.exit_edges.push((t2p, t5));
        let err = a.validate(&d).unwrap_err();
        assert!(err.to_string().contains("besides the destination"));
    }

    #[test]
    fn parallel_branches_form_a_valid_region() {
        // {T2, T3} is connected through T1 and T4 — exactly the shape of
        // Fig 9 (b) and the §V-B body replacement.
        let (d, mut a) = fig5();
        let t3 = d.by_name("T3").unwrap();
        a.region.push(t3);
        a.watched = a.region.clone();
        a.validate(&d).unwrap();
    }

    #[test]
    fn disconnected_region_rejected() {
        // Two separate components: A→B and C→D; region {B, C} has no
        // connection even through its sources/destination.
        let mut d = Dag::new();
        let a_ = d.add_task(TaskSpec::new("A", "s")).unwrap();
        let b = d.add_task(TaskSpec::new("B", "s")).unwrap();
        let c = d.add_task(TaskSpec::new("C", "s")).unwrap();
        let dd = d.add_task(TaskSpec::new("D", "s")).unwrap();
        let cp = d.add_task(TaskSpec::new("C'", "s")).unwrap();
        d.task_mut(cp).standby_for = Some(AdaptationId(0));
        d.add_edge(a_, b).unwrap();
        d.add_edge(c, dd).unwrap();
        let adapt = Adaptation {
            id: AdaptationId(0),
            name: "disc".into(),
            region: vec![b, c],
            watched: vec![c],
            replacement: vec![cp],
            internal_edges: vec![],
            entry_edges: vec![(a_, cp)],
            exit_edges: vec![(cp, dd)],
        };
        let err = adapt.validate(&d).unwrap_err();
        assert!(err.to_string().contains("connected"));
    }

    #[test]
    fn watched_outside_region_rejected() {
        let (d, mut a) = fig5();
        a.watched = vec![d.by_name("T3").unwrap()];
        assert!(a.validate(&d).is_err());
    }

    #[test]
    fn replacement_must_be_standby() {
        let (mut d, a) = fig5();
        let t2p = d.by_name("T2'").unwrap();
        d.task_mut(t2p).standby_for = None;
        assert!(a.validate(&d).unwrap_err().to_string().contains("standby"));
    }

    #[test]
    fn unreachable_replacement_task_rejected() {
        let (mut d, mut a) = fig5();
        let orphan = d.add_task(TaskSpec::new("orphan", "s")).unwrap();
        d.task_mut(orphan).standby_for = Some(AdaptationId(0));
        a.replacement.push(orphan);
        let err = a.validate(&d).unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn overlapping_adaptations_rejected() {
        let (d, a) = fig5();
        let mut b = a.clone();
        b.name = "second".into();
        b.id = AdaptationId(1);
        assert!(matches!(
            validate_disjoint(&[a.clone(), b]),
            Err(CoreError::OverlappingAdaptations(_, _))
        ));
        validate_disjoint(&[a]).unwrap();
        let _ = d;
    }

    #[test]
    fn empty_pieces_rejected() {
        let (d, a) = fig5();
        let mut b = a.clone();
        b.region = vec![];
        assert!(b.validate(&d).is_err());
        let mut b = a.clone();
        b.replacement = vec![];
        assert!(b.validate(&d).is_err());
        let mut b = a;
        b.watched = vec![];
        assert!(b.validate(&d).is_err());
    }
}
