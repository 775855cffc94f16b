//! The task service every workload runs, and the oracle that says what
//! each run's sink tasks must return.
//!
//! `ServiceRegistry::tracing_for` cannot serve here: its results embed
//! every input, so a payload grows as h^v on a full mesh (an 8×8 full
//! diamond takes 29 s, 10×10 dies on a 123 MB allocation). A digest is
//! 16 characters at any depth, so message volume — not payload size —
//! is what the mesh workloads measure.

use ginflow_core::{Service, ServiceError, TaskId, Value, Workflow};
use std::collections::BTreeMap;

/// Service name of the digest in every workload's registry.
pub const SERVICE: &str = "digest";
/// Service name rigged onto the task that must fail (`adapt-mesh-20`).
pub const FAIL_SERVICE: &str = "fail";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Wrapping sum of the FNV-1a hashes of the parameters, as 16 hex
/// digits. A sum, because an agent's `IN` fills in arrival order: the
/// result must not depend on which predecessor finished first.
pub fn digest<'a>(params: impl IntoIterator<Item = &'a Value>) -> Value {
    let sum = params.into_iter().fold(0u64, |sum, p| {
        sum.wrapping_add(match p {
            Value::Str(s) => fnv1a(s.as_bytes()),
            other => fnv1a(other.to_string().as_bytes()),
        })
    });
    Value::Str(format!("{sum:016x}"))
}

pub struct DigestService;

impl Service for DigestService {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        Ok(digest(params))
    }
}

/// What every sink of `wf` must return, computed without the program:
/// a walk of the DAG in topological order applying [`digest`]. A task
/// whose service is [`FAIL_SERVICE`] fails; an adaptation watching it
/// fires, its replacement tasks take their declared wiring and the
/// region's destination reads the replacement's exits in place of the
/// region's.
pub fn expected_sinks(wf: &Workflow) -> BTreeMap<String, Value> {
    let dag = wf.dag();
    let fails = |t: TaskId| dag.task(t).service == FAIL_SERVICE;
    let mut preds: Vec<Vec<TaskId>> = dag.ids().map(|t| dag.predecessors(t).to_vec()).collect();
    let mut active: Vec<bool> = dag.iter().map(|(_, t)| !t.is_standby()).collect();
    for a in wf.adaptations() {
        if !a.watched.iter().any(|&t| fails(t)) {
            continue;
        }
        for &(from, to) in a.entry_edges.iter().chain(&a.internal_edges) {
            preds[to.index()].push(from);
        }
        for &t in &a.replacement {
            active[t.index()] = true;
        }
        if let Some(dest) = a.destination(dag) {
            preds[dest.index()].retain(|p| !a.region.contains(p));
            preds[dest.index()].extend(a.exit_edges.iter().map(|&(from, _)| from));
        }
    }

    // Kahn's algorithm over the rewired graph; a failed task yields no
    // value and neither does anything that still reads from it.
    let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); dag.len()];
    let mut waiting: Vec<usize> = preds.iter().map(Vec::len).collect();
    for t in dag.ids() {
        for &p in &preds[t.index()] {
            succs[p.index()].push(t);
        }
    }
    let mut values: Vec<Option<Value>> = vec![None; dag.len()];
    let mut ready: Vec<TaskId> = dag
        .ids()
        .filter(|t| active[t.index()] && waiting[t.index()] == 0)
        .collect();
    while let Some(t) = ready.pop() {
        let inputs: Option<Vec<&Value>> = preds[t.index()]
            .iter()
            .map(|p| values[p.index()].as_ref())
            .collect();
        if let (Some(inputs), false) = (inputs, fails(t)) {
            values[t.index()] = Some(digest(dag.task(t).inputs.iter().chain(inputs)));
        }
        for &s in &succs[t.index()] {
            waiting[s.index()] -= 1;
            if waiting[s.index()] == 0 && active[s.index()] {
                ready.push(s);
            }
        }
    }

    dag.iter()
        .filter(|(t, spec)| !spec.is_standby() && dag.successors(*t).is_empty())
        .filter_map(|(t, spec)| Some((spec.name.clone(), values[t.index()].clone()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Shape;
    use ginflow_core::{FailingService, ServiceRegistry};
    use ginflow_hoclflow::CentralizedConfig;
    use std::sync::Arc;

    fn registry() -> ServiceRegistry {
        let mut r = ServiceRegistry::new();
        r.register(SERVICE, Arc::new(DigestService));
        r.register(FAIL_SERVICE, Arc::new(FailingService));
        r
    }

    /// The oracle against the repo's own semantic reference, the
    /// centralised HOCL interpreter.
    fn agrees_with_centralized(shape: Shape) {
        let wf = shape.build(7);
        let outcome = ginflow_hoclflow::run(&wf, &registry(), CentralizedConfig::default())
            .expect("centralized run");
        let expected = expected_sinks(&wf);
        assert!(!expected.is_empty(), "{shape:?}: the oracle found no sink");
        for (sink, value) in &expected {
            assert_eq!(outcome.result_of(sink), Some(value), "{shape:?}: {sink}");
        }
    }

    #[test]
    fn oracle_agrees_on_a_full_diamond() {
        agrees_with_centralized(Shape::MeshFull { h: 3, v: 3 });
    }

    #[test]
    fn oracle_agrees_on_an_adaptive_diamond() {
        agrees_with_centralized(Shape::AdaptMesh { h: 3, v: 2 });
    }

    #[test]
    fn oracle_agrees_on_the_other_shapes() {
        agrees_with_centralized(Shape::FanIn { width: 5 });
        agrees_with_centralized(Shape::Chain { len: 6 });
        agrees_with_centralized(Shape::DiamondSimple { h: 4, v: 4 });
    }

    #[test]
    fn digest_ignores_order_and_depends_on_the_seed() {
        let (a, b) = (Value::str("a"), Value::str("b"));
        assert_eq!(digest([&a, &b]), digest([&b, &a]));
        assert_ne!(digest([&a]), digest([&b]));
        let sinks = |seed| expected_sinks(&Shape::Chain { len: 3 }.build(seed));
        assert_ne!(sinks(1), sinks(2));
    }
}
