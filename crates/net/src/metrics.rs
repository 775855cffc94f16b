//! Daemon-side metric handles: every instrument the daemon feeds,
//! registered once in the process-global
//! [`ginflow_mq::metrics`] registry and acquired through one
//! [`daemon_metrics`] call. Hot-path counters are pre-resolved `Arc`s —
//! per-shard publish accounting indexes a fixed array, per-run
//! accounting caches its handles in each connection's seen-topics map —
//! so a publish pays relaxed atomic adds, never a registry lock.

use ginflow_mq::metrics::{self, Counter, Family, Gauge, Histogram};
use ginflow_mq::{topic_shard, TOPIC_SHARDS};
use std::sync::{Arc, OnceLock};

/// Per-shard counters with the label strings pre-registered, so the
/// hot path is an array index instead of a family-map lookup.
pub(crate) struct ShardCounters(Vec<Arc<Counter>>);

impl ShardCounters {
    fn new(family: &Family<Counter>) -> ShardCounters {
        ShardCounters(
            (0..TOPIC_SHARDS)
                .map(|s| family.with(&s.to_string()))
                .collect(),
        )
    }

    pub(crate) fn shard(&self, shard: usize) -> &Counter {
        &self.0[shard % TOPIC_SHARDS]
    }
}

/// Every instrument the daemon feeds, resolved once.
pub(crate) struct DaemonMetrics {
    // Event-loop cycle counters.
    pub accepts: Arc<Counter>,
    pub connections: Arc<Gauge>,
    pub subscriptions: Arc<Gauge>,
    pub frames: Arc<Counter>,
    pub replies: Arc<Counter>,
    pub reply_bytes: Arc<Counter>,
    pub flushes: Arc<Counter>,
    pub fanout_messages: Arc<Counter>,
    pub fanout_bytes: Arc<Counter>,
    pub fanout_batch: Arc<Histogram>,
    pub backpressure_parks: Arc<Counter>,
    pub stall_evictions: Arc<Counter>,
    // Per-topic-shard traffic (labels pre-resolved).
    pub shard_publishes: ShardCounters,
    pub shard_publish_bytes: ShardCounters,
    pub shard_subscribes: ShardCounters,
    pub shard_fetches: ShardCounters,
    // Per-run traffic; handles are cached per connection per topic.
    pub run_publishes: Arc<Family<Counter>>,
    pub run_publish_bytes: Arc<Family<Counter>>,
    pub run_lagged: Arc<Family<Gauge>>,
    // Per-run registry accounting, refreshed at snapshot time.
    pub run_topics: Arc<Family<Gauge>>,
    pub run_retained: Arc<Family<Gauge>>,
}

/// The daemon's handles into the process-global registry, acquired on
/// first touch (server bind).
pub(crate) fn daemon_metrics() -> &'static DaemonMetrics {
    static M: OnceLock<DaemonMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = metrics::global();
        let shard_pub = g.counter_family(
            "gf_broker_publish_total",
            "Publishes dispatched, by topic-map shard",
            "shard",
        );
        let shard_pub_bytes = g.counter_family(
            "gf_broker_publish_bytes_total",
            "Publish payload bytes, by topic-map shard",
            "shard",
        );
        let shard_sub = g.counter_family(
            "gf_broker_subscribe_total",
            "Subscriptions opened, by topic-map shard",
            "shard",
        );
        let shard_fetch = g.counter_family(
            "gf_broker_fetch_total",
            "Fetch requests served, by topic-map shard",
            "shard",
        );
        DaemonMetrics {
            accepts: g.counter(
                "gf_loop_accepts_total",
                "Connections accepted or injected by the daemon",
            ),
            connections: g.gauge("gf_loop_connections", "Connections currently served"),
            subscriptions: g.gauge(
                "gf_loop_subscriptions",
                "Subscriptions held across all connections' sessions",
            ),
            frames: g.counter(
                "gf_loop_frames_total",
                "Request frames parsed and dispatched",
            ),
            replies: g.counter(
                "gf_loop_replies_total",
                "Reply frames appended to connection out-buffers",
            ),
            reply_bytes: g.counter(
                "gf_loop_reply_bytes_total",
                "Encoded reply and event bytes appended to out-buffers",
            ),
            flushes: g.counter(
                "gf_loop_flushes_total",
                "Socket writes that moved bytes (one per connection per loop turn)",
            ),
            fanout_messages: g.counter(
                "gf_loop_fanout_messages_total",
                "Messages pushed to subscribers as EVENT/EVENTS frames",
            ),
            fanout_bytes: g.counter(
                "gf_loop_fanout_bytes_total",
                "Payload bytes pushed to subscribers",
            ),
            fanout_batch: g.histogram(
                "gf_loop_fanout_batch",
                "Messages coalesced per subscription drain",
            ),
            backpressure_parks: g.counter(
                "gf_loop_backpressure_parks_total",
                "Subscription drains parked on a full out-buffer",
            ),
            stall_evictions: g.counter(
                "gf_loop_stall_evictions_total",
                "Connections closed for making no write progress",
            ),
            shard_publishes: ShardCounters::new(&shard_pub),
            shard_publish_bytes: ShardCounters::new(&shard_pub_bytes),
            shard_subscribes: ShardCounters::new(&shard_sub),
            shard_fetches: ShardCounters::new(&shard_fetch),
            run_publishes: g.counter_family(
                "gf_run_publish_total",
                "Publishes into a run's namespace",
                "run",
            ),
            run_publish_bytes: g.counter_family(
                "gf_run_publish_bytes_total",
                "Publish payload bytes into a run's namespace",
                "run",
            ),
            run_lagged: g.gauge_family(
                "gf_run_lagged",
                "Messages dropped by slow subscribers of a run (drop-oldest bound)",
                "run",
            ),
            run_topics: g.gauge_family(
                "gf_run_topics",
                "Topics accounted to a run by the run registry",
                "run",
            ),
            run_retained: g.gauge_family(
                "gf_run_retained",
                "Messages retained across a run's topics",
                "run",
            ),
        }
    })
}

/// Per-connection, per-topic cached accounting handles — what the
/// seen-topics map stores so the steady state (every frame after the
/// first on a topic) touches no family lock.
pub(crate) struct TopicMetrics {
    pub shard: usize,
    /// `(messages, bytes)` counters of the topic's run; `None` for
    /// non-run-scoped topics.
    pub run_publish: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl TopicMetrics {
    pub(crate) fn resolve(topic: &str) -> TopicMetrics {
        let m = daemon_metrics();
        TopicMetrics {
            shard: topic_shard(topic),
            run_publish: ginflow_mq::namespace::run_of(topic)
                .map(|run| (m.run_publishes.with(run), m.run_publish_bytes.with(run))),
        }
    }
}
