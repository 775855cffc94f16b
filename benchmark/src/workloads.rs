//! The five workloads: what each runs, over which broker, and why it is
//! in the set. Shapes and operation counts never depend on the seed;
//! the seed only sets the source task's input value, and through it
//! every digest the run must reproduce.

use crate::digest::{FAIL_SERVICE, SERVICE};
use ginflow_core::{patterns, AdaptiveDiamondSpec, Connectivity, Value, Workflow};

/// The DAG a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `fork → width parallel tasks → join`.
    FanIn { width: usize },
    /// Fully connected diamond: every task of a layer feeds every task
    /// of the next (paper Fig 12).
    MeshFull { h: usize, v: usize },
    /// A linear chain.
    Chain { len: usize },
    /// Diamond with row-wise chains.
    DiamondSimple { h: usize, v: usize },
    /// Full mesh whose last task fails; a standby full mesh takes over
    /// (paper Fig 13).
    AdaptMesh { h: usize, v: usize },
}

impl Shape {
    pub fn build(self, seed: u64) -> Workflow {
        let wf = match self {
            Shape::FanIn { width } => patterns::parallel(width, SERVICE),
            Shape::MeshFull { h, v } => patterns::diamond(h, v, Connectivity::Full, SERVICE),
            Shape::Chain { len } => patterns::sequence(len, SERVICE),
            Shape::DiamondSimple { h, v } => patterns::diamond(h, v, Connectivity::Simple, SERVICE),
            Shape::AdaptMesh { h, v } => AdaptiveDiamondSpec {
                h,
                v,
                main: Connectivity::Full,
                replacement: Connectivity::Full,
            }
            .build(SERVICE, FAIL_SERVICE),
        }
        .expect("the generators build valid workflows");
        // The generators hard-code the source input; swap in the seed's.
        let mut dag = wf.dag().clone();
        let sources: Vec<_> = dag
            .ids()
            .filter(|&t| !dag.task(t).inputs.is_empty())
            .collect();
        for t in sources {
            dag.task_mut(t).inputs = vec![Value::str(format!("seed-{seed}"))];
        }
        Workflow::new(wf.name(), dag, wf.adaptations().to_vec()).expect("only inputs changed")
    }

    /// Adaptations one run must fire.
    pub fn adaptations(self) -> u32 {
        matches!(self, Shape::AdaptMesh { .. }) as u32
    }
}

/// How the engine reaches its broker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// A `LogBroker::new()` in the engine's process, fresh per run.
    InProcess,
    /// One standing daemon (`BrokerServer` over `LogBroker::new()`) on
    /// loopback TCP; every run connects its own `RemoteBroker`, and ends
    /// with `close_run` + `gc_runs` and a hang-up, as `ginflow run` does.
    Tcp,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload is in the set.
    pub why: &'static str,
    pub shape: Shape,
    /// `--smoke`: the same shape at about a twentieth of the size.
    pub smoke_shape: Shape,
    pub transport: Transport,
    /// Untimed runs that end each set-up.
    pub warmup_runs: usize,
    /// Fewest runs the timed phase makes, however short `--seconds` is.
    pub min_runs: usize,
    /// Runs with interposers on in the traced pass (and as many without).
    pub traced_runs: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fanin-2k",
        why: "2002-task fan-out/fan-in in process: HOCL matching on the sink's growing solution is most of wall, no net; the ROADMAP quadratic lives here",
        shape: Shape::FanIn { width: 2000 },
        smoke_shape: Shape::FanIn { width: 100 },
        transport: Transport::InProcess,
        warmup_runs: 1,
        min_runs: 5,
        traced_runs: 2,
    },
    Workload {
        name: "mesh-full-30",
        why: "30x30 fully connected diamond over a loopback TCP daemon: 26k result messages, so batching, client pipeline, wire and fan-out carry the run (paper Fig 12)",
        shape: Shape::MeshFull { h: 30, v: 30 },
        smoke_shape: Shape::MeshFull { h: 7, v: 6 },
        transport: Transport::Tcp,
        warmup_runs: 1,
        min_runs: 5,
        traced_runs: 2,
    },
    Workload {
        name: "chain-4k",
        why: "4000-task chain over a loopback TCP daemon: one message in flight, so batching cannot help and every hop pays wake, reduce, publish, push; latency where mesh-full-30 is volume",
        shape: Shape::Chain { len: 4000 },
        smoke_shape: Shape::Chain { len: 200 },
        transport: Transport::Tcp,
        warmup_runs: 1,
        min_runs: 5,
        traced_runs: 2,
    },
    Workload {
        name: "stream-d4x4",
        why: "18-task diamonds run back to back on one standing TCP daemon, closed loop, 1 client: per-run fixed costs (compile, subscribe, run registry, topic churn, tracker), the GraphFlow shape",
        shape: Shape::DiamondSimple { h: 4, v: 4 },
        smoke_shape: Shape::DiamondSimple { h: 4, v: 4 },
        transport: Transport::Tcp,
        warmup_runs: 200,
        min_runs: 1000,
        traced_runs: 300,
    },
    Workload {
        name: "adapt-mesh-20",
        why: "20x20 full mesh whose last task fails and a standby mesh takes over, in process: rule injection, Adapt/Trigger messages, standby agents (paper Fig 13)",
        shape: Shape::AdaptMesh { h: 20, v: 20 },
        smoke_shape: Shape::AdaptMesh { h: 5, v: 4 },
        transport: Transport::InProcess,
        warmup_runs: 1,
        min_runs: 5,
        traced_runs: 2,
    },
];

/// A workload's counts at the size a pass runs it.
pub struct Sizes {
    pub shape: Shape,
    pub warmup_runs: usize,
    pub min_runs: usize,
    pub traced_runs: usize,
    /// Set-ups an untraced pass makes, `setup_s` being their median:
    /// the fewest, and the most while they stay cheap.
    pub setup_cycles: (usize, usize),
    /// Fan-in widths of the traced pass's scaling probe: half, full.
    pub probe_widths: (usize, usize),
}

impl Workload {
    /// Full size, or `--smoke`: the small shape and every count at a
    /// twentieth, so the whole suite and its checks run in seconds.
    pub fn sizes(&self, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                shape: self.smoke_shape,
                warmup_runs: (self.warmup_runs / 20).max(1),
                min_runs: (self.min_runs / 20).max(2),
                traced_runs: (self.traced_runs / 20).max(2),
                setup_cycles: (1, 1),
                probe_widths: (50, 100),
            }
        } else {
            Sizes {
                shape: self.shape,
                warmup_runs: self.warmup_runs,
                min_runs: self.min_runs,
                traced_runs: self.traced_runs,
                setup_cycles: (3, 9),
                probe_widths: (1000, 2000),
            }
        }
    }
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_input_and_nothing_else() {
        let (a, b) = (
            Shape::FanIn { width: 3 }.build(1),
            Shape::FanIn { width: 3 }.build(2),
        );
        assert_ne!(a, b);
        assert_eq!(a.dag().edge_count(), b.dag().edge_count());
        assert_eq!(a, Shape::FanIn { width: 3 }.build(1));
    }
}
