//! The coordination cost model and its calibration.
//!
//! ## Calibration anchors (from the paper)
//!
//! | anchor | paper value |
//! |--------|-------------|
//! | simple-connected 31×31 diamond coordination time (Fig 12a) | ≈ 54 s |
//! | fully-connected 31×31 diamond coordination time (Fig 12b)  | ≈ 178 s |
//! | Kafka execution ≈ 4× ActiveMQ on a 10×10 diamond (Fig 14)  | ratio ≈ 4 |
//! | fault-free Montage makespan (Fig 16)                       | ≈ 484 s |
//!
//! The *shapes* — monotone growth in both mesh axes, steeper vertical
//! slope for fully-connected meshes, the ActiveMQ/Kafka gap, failure
//! overhead growth — come from the simulated coordination structure and
//! the real per-agent matching work; these constants only set the scale.
//!
//! ## Fit
//!
//! `weight_cost_ns` multiplies `ReduceStats::weight_scanned`, "Σ weight of
//! each multiset a matching pass ran over". Since the engine stopped making
//! passes over rule-free subsolutions (an agent's `SRC`/`IN`/`DST`/`RES`
//! hold no rule, so those passes could never fire anything) that sum is
//! roughly the root pass alone, a little over half of what it was, and the
//! constant went 60 000 → 96 000 ns to charge the same virtual time.
//! Readings with it (`calibrate`, before → after the re-fit): 31×31 simple
//! 54.5 → 54.5 s, full 174.4 → 174.5 s, Kafka÷ActiveMQ 3.60 → 3.60,
//! Montage 480.9 → 480.8 s; the 11×11 and 21×21 cells moved by ≤ 0.2 s.
//! `calibrate --check` (run in CI) fails when an engine change moves an
//! anchor out of its range.

use serde::{Deserialize, Serialize};

/// Scalar cost knobs of the simulation (all virtual time).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Broker occupancy per message (µs). The broker is a FIFO server:
    /// concurrent messages queue, which is what couples coordination time
    /// to message volume.
    pub broker_service_us: u64,
    /// Extra delivery delay per message (µs) — the log broker pays a
    /// persistence/ack round-trip per message on top of its occupancy.
    pub broker_ack_us: u64,
    /// Network latency producer→broker→consumer (µs), 1 Gbps LAN scale.
    pub net_latency_us: u64,
    /// Matching cost per unit of structural weight the engine actually
    /// scanned (ns) — the dominant HOCL cost (§V-A).
    pub weight_cost_ns: u64,
    /// Matching cost per candidate pairing attempted (ns).
    pub attempt_cost_ns: u64,
    /// Fixed cost per event an agent handles (µs): decode, scheduling.
    pub handle_base_us: u64,
    /// Shared-multiset update cost per status update (µs): the singleton
    /// holder of the user-facing workflow multiset re-matches and rewrites
    /// one task molecule per update, serialising all updates — the "update
    /// of the shared multiset" cost §V-A names as part of the coordination
    /// time.
    pub status_update_us: u64,
    /// Starting a (replacement) SA: container/JVM spin-up (µs).
    pub sa_start_us: u64,
    /// Mean wait for a scheduler offer/slot before a respawn can start (µs).
    pub respawn_offer_us: u64,
    /// Cost to fetch + decode one replayed message during recovery (µs).
    pub replay_msg_us: u64,
}

impl CostModel {
    /// ActiveMQ-profile constants (fitted to Fig 12's 54 s / 178 s corners).
    pub fn activemq() -> Self {
        CostModel {
            broker_service_us: 5_500,
            broker_ack_us: 0,
            net_latency_us: 1_000,
            weight_cost_ns: 96_000,
            attempt_cost_ns: 3_000,
            handle_base_us: 500,
            status_update_us: 28_000,
            sa_start_us: 700_000,
            respawn_offer_us: 500_000,
            replay_msg_us: 2_000,
        }
    }

    /// Kafka-profile constants: same engine costs, pricier transport.
    /// Kafka 0.8 with per-message synchronous persistence pays both a much
    /// larger broker occupancy and a flush/ack delay per delivery — fitted
    /// to Fig 14's ≈ 4× execution-time gap on the 10×10 diamond.
    pub fn kafka() -> Self {
        CostModel {
            broker_service_us: 67_000,
            broker_ack_us: 220_000,
            ..CostModel::activemq()
        }
    }

    /// Profile for a broker kind label ("activemq" / "kafka").
    pub fn for_broker(kind: ginflow_mq::BrokerKind) -> Self {
        match kind {
            ginflow_mq::BrokerKind::Transient => CostModel::activemq(),
            // A remote broker fronts the persistent log by default, so
            // the kafka profile is the right virtual-cost stand-in.
            ginflow_mq::BrokerKind::Log | ginflow_mq::BrokerKind::Remote => CostModel::kafka(),
        }
    }

    /// Virtual cost of an agent handling one event, given the engine's
    /// actual work counters.
    pub fn handle_cost_us(&self, stats: &ginflow_hocl::ReduceStats) -> u64 {
        self.handle_base_us
            + (stats.weight_scanned * self.weight_cost_ns) / 1_000
            + (stats.match_attempts * self.attempt_cost_ns) / 1_000
    }

    /// Virtual cost of one shared-multiset status update.
    pub fn status_update_us(&self) -> u64 {
        self.status_update_us
    }

    /// Delay between a crash being detected and the replacement agent
    /// being ready to replay (offer wait + SA start).
    pub fn respawn_delay_us(&self) -> u64 {
        self.respawn_offer_us + self.sa_start_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_hocl::ReduceStats;

    #[test]
    fn kafka_transport_is_pricier_but_engine_costs_match() {
        let a = CostModel::activemq();
        let k = CostModel::kafka();
        assert!(k.broker_service_us > a.broker_service_us);
        assert!(k.broker_ack_us > a.broker_ack_us);
        assert_eq!(k.weight_cost_ns, a.weight_cost_ns);
        assert_eq!(k.status_update_us, a.status_update_us);
    }

    #[test]
    fn handle_cost_scales_with_work() {
        let m = CostModel::activemq();
        let small = m.handle_cost_us(&ReduceStats {
            applications: 1,
            match_attempts: 10,
            weight_scanned: 50,
        });
        let big = m.handle_cost_us(&ReduceStats {
            applications: 1,
            match_attempts: 1000,
            weight_scanned: 5000,
        });
        assert!(big > small);
        assert!(small >= m.handle_base_us);
    }

    #[test]
    fn status_cost_is_a_fixed_serialised_server() {
        let m = CostModel::activemq();
        assert_eq!(m.status_update_us(), m.status_update_us);
        assert!(m.status_update_us > 0);
    }

    #[test]
    fn broker_profile_lookup() {
        assert_eq!(
            CostModel::for_broker(ginflow_mq::BrokerKind::Transient).broker_ack_us,
            0
        );
        assert!(CostModel::for_broker(ginflow_mq::BrokerKind::Log).broker_ack_us > 0);
    }
}
