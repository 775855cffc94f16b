//! # ginflow-executor — claiming resources and provisioning agents
//!
//! "The role of the executor is to enact the workflow in a specific
//! environment … A distributed executor will (1) claim resources from an
//! infrastructure and (2) provision the distributed engine (i.e., the SAs)
//! on them" (§IV-C). Two executors existed: SSH-based (round-robin over a
//! preconfigured machine list) and Mesos-based (offer-driven). Their
//! *deployment-time* behaviours are the left half of Fig 14:
//!
//! * SSH connections are parallelised, yet the frontend pays a per-node
//!   session cost, so deployment time *slightly increases* with node
//!   count;
//! * Mesos hands out one agent per machine per offer round, so more nodes
//!   mean fewer rounds — deployment time *decreases linearly*.
//!
//! The [`Deployer`] trait is open for further environments; the
//! centralized executor lives in `ginflow-hoclflow::centralized`.

pub mod campaign;
pub mod cluster;
pub mod deploy;

pub use campaign::{deploy_and_simulate, CombinedReport, ExecutionSpec};
pub use cluster::{Cluster, Node, Placement};
pub use deploy::{Deployer, DeploymentReport, ExecError, ExecutorKind, MesosDeployer, SshDeployer};
