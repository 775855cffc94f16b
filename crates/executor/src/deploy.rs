//! Deployment strategies and their timing models (Fig 14's left half).

use crate::cluster::{Cluster, Placement};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Virtual microseconds (same unit as `ginflow-sim`).
pub type Micros = u64;

/// Deployment failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// More agents than the cluster's SA capacity (2 per core).
    InsufficientCapacity {
        /// Requested agent count.
        agents: usize,
        /// Available capacity.
        capacity: u32,
    },
    /// No nodes configured.
    EmptyCluster,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InsufficientCapacity { agents, capacity } => write!(
                f,
                "cannot place {agents} agents on a cluster with capacity {capacity}"
            ),
            ExecError::EmptyCluster => f.write_str("cluster has no nodes"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of a deployment: where agents went and how long it took.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// The placement.
    pub placement: Placement,
    /// Modelled deployment time (µs).
    pub time_us: Micros,
}

/// A deployment strategy.
pub trait Deployer {
    /// Place `agents` on `cluster`, reporting the modelled deployment time.
    fn deploy(&self, cluster: &Cluster, agents: &[String]) -> Result<DeploymentReport, ExecError>;

    /// Strategy label for reports.
    fn label(&self) -> &'static str;
}

/// Executor selector (the Fig 14 experiment axis).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ExecutorKind {
    /// SSH round-robin over a preconfigured node list.
    Ssh,
    /// Mesos offer-based placement.
    Mesos,
}

impl ExecutorKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecutorKind::Ssh => "ssh",
            ExecutorKind::Mesos => "mesos",
        }
    }

    /// Instantiate the matching deployer with default constants.
    pub fn deployer(self) -> Box<dyn Deployer> {
        match self {
            ExecutorKind::Ssh => Box::new(SshDeployer::default()),
            ExecutorKind::Mesos => Box::new(MesosDeployer::default()),
        }
    }
}

/// "The SSH-based executor starts the SAs in a round-robin fashion on a
/// predefined set of machines. As the SSH connections are parallelized,
/// the deployment time slightly increases with the number of nodes."
///
/// Model: a fixed setup cost, a per-node session cost paid by the single
/// frontend driving all connections (the slight increase), and the
/// per-node agent start-ups which run in parallel across nodes but
/// sequentially within one (`ceil(m/n)` starts on the busiest node).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SshDeployer {
    /// Fixed bootstrap cost (µs).
    pub setup_us: Micros,
    /// Frontend cost per SSH session (µs).
    pub per_node_us: Micros,
    /// One SA start (µs).
    pub sa_start_us: Micros,
}

impl Default for SshDeployer {
    fn default() -> Self {
        SshDeployer {
            setup_us: 1_500_000,
            per_node_us: 350_000,
            sa_start_us: 60_000,
        }
    }
}

impl Deployer for SshDeployer {
    fn deploy(&self, cluster: &Cluster, agents: &[String]) -> Result<DeploymentReport, ExecError> {
        let placement = round_robin(cluster, agents)?;
        let n = cluster.len() as u64;
        let busiest = placement.load(cluster.len()).into_iter().max().unwrap_or(0) as u64;
        let time_us = self.setup_us + self.per_node_us * n + self.sa_start_us * busiest;
        Ok(DeploymentReport { placement, time_us })
    }

    fn label(&self) -> &'static str {
        "ssh"
    }
}

/// "GinFlow, on top of Mesos, starts one SA per machine for each offer
/// received from the Mesos scheduler. Thus, increasing the number of nodes
/// will increase … the parallelization in starting the SAs", hence "the
/// linear decrease of the deployment time".
///
/// Model: framework registration plus one offer round per `ceil(m/n)`
/// batch, each round placing one SA on every node in parallel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MesosDeployer {
    /// Framework registration (µs).
    pub register_us: Micros,
    /// One offer round: offer receipt + accept + parallel SA launch (µs).
    pub offer_round_us: Micros,
}

impl Default for MesosDeployer {
    fn default() -> Self {
        MesosDeployer {
            register_us: 2_000_000,
            offer_round_us: 1_600_000,
        }
    }
}

impl Deployer for MesosDeployer {
    fn deploy(&self, cluster: &Cluster, agents: &[String]) -> Result<DeploymentReport, ExecError> {
        if cluster.is_empty() {
            return Err(ExecError::EmptyCluster);
        }
        check_capacity(cluster, agents)?;
        // One SA per machine per offer round, in node order.
        let mut assignments = Vec::with_capacity(agents.len());
        for (i, agent) in agents.iter().enumerate() {
            assignments.push((agent.clone(), i % cluster.len()));
        }
        let rounds = agents.len().div_ceil(cluster.len()) as u64;
        let time_us = self.register_us + rounds * self.offer_round_us;
        Ok(DeploymentReport {
            placement: Placement { assignments },
            time_us,
        })
    }

    fn label(&self) -> &'static str {
        "mesos"
    }
}

pub(crate) fn check_capacity(cluster: &Cluster, agents: &[String]) -> Result<(), ExecError> {
    let capacity = cluster.capacity();
    if agents.len() as u32 > capacity {
        return Err(ExecError::InsufficientCapacity {
            agents: agents.len(),
            capacity,
        });
    }
    Ok(())
}

fn round_robin(cluster: &Cluster, agents: &[String]) -> Result<Placement, ExecError> {
    if cluster.is_empty() {
        return Err(ExecError::EmptyCluster);
    }
    check_capacity(cluster, agents)?;
    let assignments = agents
        .iter()
        .enumerate()
        .map(|(i, a)| (a.clone(), i % cluster.len()))
        .collect();
    Ok(Placement { assignments })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agents(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn ssh_round_robin_balances() {
        let cluster = Cluster::grid5000(5);
        let report = SshDeployer::default()
            .deploy(&cluster, &agents(102))
            .unwrap();
        let load = report.placement.load(5);
        assert_eq!(load.iter().sum::<usize>(), 102);
        assert!(load.iter().max().unwrap() - load.iter().min().unwrap() <= 1);
    }

    #[test]
    fn ssh_deploy_time_increases_slightly_with_nodes() {
        // Fixed 102 agents (the paper's 10×10 diamond), growing node count.
        let d = SshDeployer::default();
        let t5 = d
            .deploy(&Cluster::grid5000(5), &agents(102))
            .unwrap()
            .time_us;
        let t10 = d
            .deploy(&Cluster::grid5000(10), &agents(102))
            .unwrap()
            .time_us;
        let t15 = d
            .deploy(&Cluster::grid5000(15), &agents(102))
            .unwrap()
            .time_us;
        assert!(t10 > t5);
        assert!(t15 > t10);
        // "Slightly": under 2× from 5 to 15 nodes.
        assert!(t15 < 2 * t5);
    }

    #[test]
    fn mesos_deploy_time_decreases_with_nodes() {
        let d = MesosDeployer::default();
        let t5 = d
            .deploy(&Cluster::grid5000(5), &agents(102))
            .unwrap()
            .time_us;
        let t10 = d
            .deploy(&Cluster::grid5000(10), &agents(102))
            .unwrap()
            .time_us;
        let t15 = d
            .deploy(&Cluster::grid5000(15), &agents(102))
            .unwrap()
            .time_us;
        assert!(t5 > t10);
        assert!(t10 > t15);
        // Rounds: 21 / 11 / 7 — the linear decrease of Fig 14.
        let rounds = |t: Micros| (t - d.register_us) / d.offer_round_us;
        assert_eq!(rounds(t5), 21);
        assert_eq!(rounds(t10), 11);
        assert_eq!(rounds(t15), 7);
    }

    #[test]
    fn mesos_spreads_one_per_node_per_round() {
        let cluster = Cluster::grid5000(4);
        let report = MesosDeployer::default()
            .deploy(&cluster, &agents(10))
            .unwrap();
        let load = report.placement.load(4);
        assert_eq!(load, vec![3, 3, 2, 2]);
    }

    #[test]
    fn capacity_enforced() {
        // 1 node × 23 cores × 2 = 46 slots.
        let cluster = Cluster::grid5000(1);
        let err = SshDeployer::default()
            .deploy(&cluster, &agents(47))
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::InsufficientCapacity { capacity: 46, .. }
        ));
        assert!(MesosDeployer::default()
            .deploy(&cluster, &agents(46))
            .is_ok());
    }

    #[test]
    fn empty_cluster_rejected() {
        let empty = Cluster {
            nodes: vec![],
            sas_per_core: 2,
        };
        assert!(matches!(
            SshDeployer::default().deploy(&empty, &agents(1)),
            Err(ExecError::EmptyCluster)
        ));
        assert!(matches!(
            MesosDeployer::default().deploy(&empty, &agents(1)),
            Err(ExecError::EmptyCluster)
        ));
    }

    #[test]
    fn kind_helpers() {
        assert_eq!(ExecutorKind::Ssh.label(), "ssh");
        assert_eq!(ExecutorKind::Mesos.label(), "mesos");
        assert_eq!(ExecutorKind::Ssh.deployer().label(), "ssh");
        assert_eq!(ExecutorKind::Mesos.deployer().label(), "mesos");
    }
}
