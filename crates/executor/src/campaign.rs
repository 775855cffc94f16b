//! Glue for the evaluation campaign: pick an executor × middleware
//! combination, deploy (modelled) and execute (simulated) — one bar of
//! Fig 14 per call.

use crate::cluster::Cluster;
use crate::deploy::{DeploymentReport, ExecError, ExecutorKind};
use ginflow_core::Workflow;
use ginflow_mq::BrokerKind;
use ginflow_sim::{simulate, CostModel, ServiceModel, SimConfig, SimReport};

/// One cell of the Fig 14 grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionSpec {
    /// Deployment strategy.
    pub executor: ExecutorKind,
    /// Messaging middleware.
    pub broker: BrokerKind,
    /// Number of cluster nodes.
    pub nodes: usize,
}

/// Deployment + execution, combined.
#[derive(Clone, Debug)]
pub struct CombinedReport {
    /// The spec that produced this report.
    pub executor: ExecutorKind,
    /// Broker used.
    pub broker: BrokerKind,
    /// Nodes used.
    pub nodes: usize,
    /// Deployment report (placement + time).
    pub deployment: DeploymentReport,
    /// Execution report (virtual-time simulation).
    pub execution: SimReport,
}

impl CombinedReport {
    /// Deployment time in seconds.
    pub fn deployment_secs(&self) -> f64 {
        self.deployment.time_us as f64 / 1e6
    }

    /// Execution time in seconds.
    pub fn execution_secs(&self) -> f64 {
        self.execution.makespan_secs()
    }

    /// Total (deployment + execution) in seconds.
    pub fn total_secs(&self) -> f64 {
        self.deployment_secs() + self.execution_secs()
    }
}

/// Deploy `workflow`'s agents on a Grid'5000-like cluster of `spec.nodes`
/// nodes with the chosen executor, then simulate execution with the
/// chosen middleware profile.
pub fn deploy_and_simulate(
    workflow: &Workflow,
    spec: ExecutionSpec,
    services: ServiceModel,
    seed: u64,
) -> Result<CombinedReport, ExecError> {
    let cluster = Cluster::grid5000(spec.nodes);
    let agent_names: Vec<String> = workflow.dag().iter().map(|(_, t)| t.name.clone()).collect();
    let deployment = spec.executor.deployer().deploy(&cluster, &agent_names)?;
    let execution = simulate(
        workflow,
        &SimConfig {
            cost: CostModel::for_broker(spec.broker),
            services,
            persistent_broker: spec.broker == BrokerKind::Log,
            seed,
            ..SimConfig::default()
        },
    );
    Ok(CombinedReport {
        executor: spec.executor,
        broker: spec.broker,
        nodes: spec.nodes,
        deployment,
        execution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::{patterns, Connectivity};

    fn diamond_10x10() -> Workflow {
        patterns::diamond(10, 10, Connectivity::Simple, "s").unwrap()
    }

    #[test]
    fn all_four_combinations_complete() {
        let wf = diamond_10x10();
        for executor in [ExecutorKind::Ssh, ExecutorKind::Mesos] {
            for broker in [BrokerKind::Transient, BrokerKind::Log] {
                let report = deploy_and_simulate(
                    &wf,
                    ExecutionSpec {
                        executor,
                        broker,
                        nodes: 10,
                    },
                    ServiceModel::constant(300_000),
                    1,
                )
                .unwrap();
                assert!(report.execution.completed, "{executor:?}/{broker:?}");
                assert!(report.deployment_secs() > 0.0);
            }
        }
    }

    #[test]
    fn kafka_execution_slower_than_activemq() {
        // The Fig 14 headline: "ActiveMQ outperforms Kafka, as the
        // execution time is approximately 4 times higher in the latter".
        let wf = diamond_10x10();
        let spec = |broker| ExecutionSpec {
            executor: ExecutorKind::Mesos,
            broker,
            nodes: 10,
        };
        let amq = deploy_and_simulate(
            &wf,
            spec(BrokerKind::Transient),
            ServiceModel::constant(300_000),
            1,
        )
        .unwrap();
        let kafka = deploy_and_simulate(
            &wf,
            spec(BrokerKind::Log),
            ServiceModel::constant(300_000),
            1,
        )
        .unwrap();
        let ratio = kafka.execution_secs() / amq.execution_secs();
        assert!(ratio > 1.5, "kafka should be clearly slower, ratio {ratio}");
    }

    #[test]
    fn deployment_trends_match_fig14() {
        let wf = diamond_10x10();
        let run = |executor, nodes| {
            deploy_and_simulate(
                &wf,
                ExecutionSpec {
                    executor,
                    broker: BrokerKind::Transient,
                    nodes,
                },
                ServiceModel::constant(300_000),
                1,
            )
            .unwrap()
            .deployment_secs()
        };
        assert!(run(ExecutorKind::Ssh, 15) > run(ExecutorKind::Ssh, 5));
        assert!(run(ExecutorKind::Mesos, 15) < run(ExecutorKind::Mesos, 5));
    }

    #[test]
    fn too_small_cluster_errors() {
        // 1000-service cap: a 1-node cluster cannot host a 10×10 diamond
        // …well, it can (46 < 102? no). 102 agents > 46 slots → error.
        let wf = diamond_10x10();
        let err = deploy_and_simulate(
            &wf,
            ExecutionSpec {
                executor: ExecutorKind::Ssh,
                broker: BrokerKind::Transient,
                nodes: 1,
            },
            ServiceModel::constant(300_000),
            1,
        );
        assert!(matches!(err, Err(ExecError::InsufficientCapacity { .. })));
    }
}
