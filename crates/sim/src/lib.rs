//! # ginflow-sim — virtual-time execution of the GinFlow protocol
//!
//! The paper's evaluation ran on Grid'5000 (25 nodes, 568 cores, 1 Gbps).
//! We have no testbed, so the experimental campaign runs on a
//! **discrete-event simulation** that executes the *real* agent logic —
//! every simulated agent is a genuine [`ginflow_agent::SaCore`] reducing a
//! genuine HOCL solution — while time advances through a calibrated cost
//! model instead of a wall clock:
//!
//! * message transport costs broker occupancy + network latency
//!   ([`CostModel::broker_service_us`], [`CostModel::net_latency_us`]),
//!   with distinct profiles for the ActiveMQ-like and Kafka-like brokers;
//! * every event an agent handles costs time proportional to the *actual*
//!   pattern-matching work its engine just performed
//!   ([`ginflow_hocl::ReduceStats`] × `CostModel::weight_cost_ns`) — the
//!   paper's "the complexity of the pattern matching process depends on
//!   the size of the solution" made operational;
//! * status updates funnel through a shared-multiset server whose
//!   per-update cost grows with workflow size
//!   ([`CostModel::status_update_us`]), reproducing §V-A's "update of
//!   the shared multiset" contribution;
//! * service invocations take the durations prescribed by the workload
//!   model ([`ServiceModel`]);
//! * the failure injector implements §V-D's model verbatim: every
//!   *running* agent fails with probability `p` once it has been running
//!   for `T`; a crashed agent respawns after an offer + start delay and
//!   **replays its inbox log**, re-invoking its (idempotent) service.
//!
//! Because the chemistry is real, phenomena like duplicate suppression,
//! resend-on-`ADDDST` and replay cascades *emerge* rather than being
//! hard-coded; only the four cost knobs above are fitted to the paper's
//! published anchor points (see `costmodel` docs; `ginflow-bench`'s
//! `calibrate --check` gates them).

pub mod backend;
pub mod costmodel;
pub mod kernel;
pub mod run;
pub mod services;

pub use backend::SimBackend;
pub use costmodel::CostModel;
pub use run::{simulate, FailureSpec, SimConfig, SimReport};
pub use services::ServiceModel;

/// Microseconds of virtual time.
pub type SimTime = u64;

/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000;

/// Convert virtual time to seconds (reporting).
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / SECOND as f64
}
