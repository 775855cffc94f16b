//! The Fig 14 experiment in miniature: deploy the same 10×10 diamond with
//! every executor × middleware combination and compare deployment vs
//! execution time.
//!
//! ```sh
//! cargo run --release --example executor_comparison
//! ```

use ginflow::prelude::*;

fn main() {
    let wf = patterns::diamond(10, 10, Connectivity::Simple, "synthetic").unwrap();
    println!("workload: {} ({} tasks)\n", wf.name(), wf.dag().len());
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10}",
        "combo", "nodes", "deploy(s)", "exec(s)", "total(s)"
    );
    for executor in [ExecutorKind::Ssh, ExecutorKind::Mesos] {
        for broker in [BrokerKind::Transient, BrokerKind::Log] {
            for nodes in [5usize, 10, 15] {
                let report = deploy_and_simulate(
                    &wf,
                    ExecutionSpec {
                        executor,
                        broker,
                        nodes,
                    },
                    ServiceModel::constant(300_000),
                    42,
                )
                .expect("fits the cluster");
                println!(
                    "{:<16} {:>6} {:>10.1} {:>10.1} {:>10.1}",
                    format!("{}/{}", executor.label(), broker.label()),
                    nodes,
                    report.deployment_secs(),
                    report.execution_secs(),
                    report.total_secs()
                );
            }
        }
    }
}
