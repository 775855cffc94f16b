//! # ginflow-net — the network membrane
//!
//! GinFlow's premise is that co-workflow agents coordinate *only*
//! through message-queue middleware (§IV-A) — which means the broker is
//! the one thing that has to cross host boundaries for the
//! "decentralised" manager to actually decentralise. This crate makes
//! `ginflow-mq`'s in-process log network-reachable:
//!
//! * [`BrokerServer`] — the broker daemon (`ginflow broker serve`):
//!   fronts any [`Broker`](ginflow_mq::Broker) (the
//!   [`LogBroker`](ginflow_mq::LogBroker) by default) over TCP from a
//!   **single-thread epoll event loop** (the `mio` shim): non-blocking
//!   sockets, per-connection read/write buffer state machines,
//!   subscription wakeups routed into the loop through the broker's
//!   push wakers, and the retention sweep on the loop's deadline —
//!   thread count independent of client count, zero syscalls while
//!   idle, 10k+ concurrent connections on one thread. The acks of a
//!   read turn's consecutive publishes coalesce into one RECEIPT_LIST
//!   frame (the request-direction mirror of EVENTS).
//! * [`RemoteBroker`] — the client: implements the same `Broker` trait
//!   over a connection, pushing EVENTS frames into local
//!   [`Subscription`](ginflow_mq::Subscription)s (wakers included, so
//!   the event-driven scheduler drives remote subscriptions with zero
//!   polling), and transparently reconnecting with
//!   [`SubscribeMode::FromOffset`](ginflow_mq::SubscribeMode) replay +
//!   offset dedupe when the connection drops. Hot-path publishes are
//!   **pipelined and batched**: `publish_many_nowait` queues a whole
//!   agent turn's frames in one step and returns (`publish_nowait` is
//!   the batch of one), acks are consumed asynchronously against a
//!   bounded in-flight window, and `flush()` drains the pipeline — see
//!   [`client`] for the ordering, ack and flush-point semantics. The
//!   daemon symmetrically coalesces everything queued on a
//!   subscription into one EVENTS frame per drain, and writes each
//!   connection **once per loop turn**: a publish's receipt and the
//!   EVENTS it caused leave in one `send`.
//!
//! ## Client architecture: the shared reactor
//!
//! Every [`RemoteBroker`] in a process — however many daemons it
//! talks to — is driven by **one** shared epoll thread
//! (`gf-client-loop`, the `client_reactor` module), lazily spawned by
//! the first connection, refcounted, and retired when the last
//! connection closes: N connections cost one I/O thread (pinned by
//! thread name in `tests/async_loop.rs`,
//! `client_reactor_multiplexes_connections_onto_one_thread_and_retires_it`).
//! Publishers never touch the socket. A connection's protocol state —
//! waiters, subscription table and watermarks, pipeline window and loss
//! ledger, the bytes queued for the link, the redial ladder — is one
//! plain value, the client core in [`client`], under one mutex and one
//! condvar; it holds no socket, thread, channel or clock, and its unit
//! tests drive it with none. Callers queue encoded frames in it and
//! ring an eventfd doorbell; the loop moves the queue onto the link's
//! non-blocking writer, feeds each received frame to the core and makes
//! the subscriber deliveries the core hands back after releasing the
//! lock, and arms the redials the core asks for on its deadline heap
//! (dial syscalls themselves run on a short-lived helper thread so a
//! hanging TCP connect never stalls other connections' traffic). The
//! loop is I/O only; every decision is the core's.
//!
//! ## One core and one loop at each end
//!
//! Each end of the protocol is one plain value that makes every
//! decision and one loop that does the I/O. The client's is the
//! `ClientCore` in [`client`]; the daemon's is the `DaemonCore` of the
//! `daemon` module: per connection its subscriptions by wire id, its
//! open receipt run, its metric cache and its parked subscriptions,
//! plus the one retention deadline. Neither core holds a socket,
//! thread, channel or clock, so each is unit-tested with none, and the
//! two are tested back to back — the client's bytes split into frames
//! for the daemon's and back, the link cut at every frame boundary.
//!
//! Below the protocol the daemon's loop and the client's reactor are
//! the same machine, and it exists once, in the `link` module: a
//! connection's byte state (an incremental
//! [`FrameSplitter`](ginflow_mq::wire::FrameSplitter) in, an out buffer
//! with its non-blocking flush and write-stall clock out — driven with
//! passed-in `Instant`s, so it is unit-tested with no socket, thread or
//! sleep), the loops' deadline heap with the stall scan, and the
//! cross-thread doorbell. The [`fault`] relay and the raw test peers
//! split frames with the same splitter.
//!
//! With a daemon in the middle, `Backend::Sharded` (in
//! `ginflow-engine`) runs one workflow across multiple OS processes:
//! each process executes only the agents whose FNV name-hash
//! ([`ginflow_mq::fnv1a`]) lands in its shard, and the shared status topic is the cross-shard membrane.
//!
//! ## One standing daemon, many runs
//!
//! Topics are run-scoped (`run/<id>/…`, see [`ginflow_mq::namespace`]),
//! so one long-lived daemon serves any number of concurrent or
//! back-to-back workflow runs — distinct run ids never see each other's
//! messages or retained history; shard processes joining the *same* run
//! id share one namespace. The daemon keeps a **run registry** (fed
//! purely from topic names on publish/subscribe) and reads a run's
//! topics off the broker by namespace: `ginflow broker runs` lists
//! active and completed runs with their topic and retained counts,
//! `ginflow broker gc` reclaims completed runs' topics, and a retention
//! window ([`BrokerServer::bind_with_retention`],
//! `ginflow broker serve --retention SECS`) reclaims them automatically
//! so the in-memory log doesn't grow without bound. Per-run state on a
//! *connection* ends with the run too: `RUN_CLOSE` releases what the
//! closing connection holds for the run at both ends, and the GC of a
//! run what any other connection still does — one standing
//! [`RemoteBroker`] can submit run after run at a flat cost
//! (`crates/engine/tests/standing_client.rs` counts it).
//!
//! ## Daemon crash recovery
//!
//! With `ginflow broker serve --data-dir D` the daemon fronts a
//! *durable* log broker
//! ([`LogBroker::open`](ginflow_mq::LogBroker::open)): every publish is
//! appended to `D`'s segment files before fan-out, and a relaunch on
//! the same dir recovers every topic's offsets (truncating at most one
//! torn tail record per partition) and rehydrates the run registry
//! from the recovered topic names — so runs that predate the process
//! appear in `RUN_LIST` and age out through the ordinary retention GC,
//! whose `delete_topic` also reclaims the segment directories on disk.
//! Listeners are std's `TcpListener`, which sets `SO_REUSEADDR` on Unix,
//! so the relaunched daemon takes the old port over immediately instead
//! of waiting out `TIME_WAIT`. Clients need no changes: their existing
//! reconnect machinery (replay from the last seen offset + dedupe)
//! completes in-flight runs against the revived daemon exactly-once.
//!
//! ## Wire protocol
//!
//! Length-prefixed binary frames, defined (with the full grammar) in
//! [`ginflow_mq::wire`]:
//!
//! ```text
//! frame := len:u32_be body          body := opcode:u8 fields…
//!
//! client → server          server → client
//!   0x01 PUBLISH             0x82 SUBSCRIBED     (ack of SUBSCRIBE)
//!   0x02 SUBSCRIBE           0x83 MESSAGES       (ack of FETCH)
//!   0x03 UNSUBSCRIBE         0x84 INFO_REPLY     (ack of INFO)
//!   0x04 FETCH               0x85 ERROR          (failed request)
//!   0x05 INFO                0x86 RUN_LIST_REPLY (ack of RUN_LIST)
//!   0x06 RUN_LIST            0x87 RUN_GC_REPLY   (ack of RUN_CLOSE/RUN_GC)
//!   0x07 RUN_CLOSE           0x88 STATS_REPLY    (ack of STATS: flattened
//!   0x08 RUN_GC                                   metrics snapshot)
//!   0x09 STATS               0x91 EVENTS         (push delivery)
//!                            0x93 RECEIPT_LIST   (ack of consecutive
//!                                                 PUBLISHes)
//! ```
//!
//! Requests carry a `seq` the ack echoes (UNSUBSCRIBE is
//! fire-and-forget); EVENTS frames carry the server-assigned
//! subscription id from SUBSCRIBED. The daemon acks the consecutive
//! PUBLISHes of one read turn with one RECEIPT_LIST of
//! `(partition, offset)` pairs, whatever their topics — a lone blocking
//! publish gets a list of one — and pushes what one drain of a
//! subscription took as one EVENTS frame, however few. Frames over
//! [`MAX_FRAME`](ginflow_mq::wire::MAX_FRAME) are rejected outright on
//! both sides.
//!
//! ## Observability (operator guide)
//!
//! The daemon feeds the process-global
//! [`ginflow_mq::metrics`] registry from its hot paths — relaxed
//! atomics only, so the accounting rides the publish/fan-out cycle at
//! negligible cost (a write is one relaxed atomic op and allocates
//! nothing; `crates/agent/tests/fanin_scaling.rs` counts the
//! allocations of the per-delivery path). The families:
//!
//! * `gf_loop_*` — event-loop health: accepts, live connections,
//!   subscriptions held by their sessions (`gf_loop_subscriptions`),
//!   frames, replies and reply bytes, socket writes that moved bytes
//!   (`gf_loop_flushes_total`), fan-out messages/bytes and batch
//!   sizes, backpressure parks, stall evictions.
//! * `gf_broker_{publish,publish_bytes,subscribe,fetch}_total` — verb
//!   counts across every topic the daemon serves.
//! * `gf_run_{publish,publish_bytes}_total{run}` and
//!   `gf_run_{topics,retained}{run}` — per-run traffic and
//!   gauges; the gauges are folded fresh from the run registry on
//!   every snapshot, and a run's series are dropped when its topics
//!   are GC'd.
//! * `gf_store_*` — durable-log appends, bytes, fsyncs, rotations,
//!   read batches, recovery truncations, disk bytes.
//! * `gf_sched_*` / `gf_client_pipeline_*` — scheduler wakeups and
//!   wakeup batch sizes, client pipeline window occupancy and losses
//!   (in whichever process runs them);
//!   `gf_client_subscriptions` — delivery bridges the clients hold.
//! * `gf_client_reactor_*` — shared client-loop health: wakeups,
//!   frames dispatched per readiness turn (histogram), reconnects,
//!   live connections.
//!
//! Two surfaces expose the same snapshot, and a third reports a run:
//!
//! * **STATS wire verb** — [`RemoteBroker::stats`] returns the
//!   flattened rows; `ginflow broker top` polls it and renders per-run
//!   publish rates and topic/retained counts.
//! * **`GET /metrics`** — [`BrokerServer::serve_metrics`] (CLI:
//!   `ginflow broker serve --metrics-addr HOST:PORT`) serves the
//!   Prometheus text exposition format from a tiny embedded HTTP
//!   responder; point a scraper at it.
//! * **`RunReport` (ginflow-agent)** — a run's report carries what its
//!   vehicle counted, as fields (`resident_peak`, `rehydrations`), not
//!   registry rows. The daemon's `gf_run_*{run}`
//!   series live on the daemon, read through STATS and `/metrics`.
//!
//! ## Fault testing (operator & contributor guide)
//!
//! The [`fault`] module is a deterministic fault-injection harness for
//! *this* wire protocol: a seeded relay
//! ([`fault::ChaosNet`]) spliced between an unmodified [`RemoteBroker`]
//! and an unmodified [`BrokerServer`] over the in-process transport
//! seam. Per-direction pump threads parse real frames off the link and
//! apply a [`fault::FaultPlan`] — latency jitter, frame drops, bit
//! corruption, clean and **mid-frame** connection severs, repeated
//! sever/reconnect storms, and dial-refusing partition windows — on a
//! virtual clock (`time_scale`) so a multi-thousand-event schedule
//! runs in real seconds. Client and server run their production
//! code; determinism comes from one master seed fanned out per link
//! (`client name` × `dial ordinal`), so every reconnect draws a fresh
//! but reproducible schedule.
//!
//! The property suites live in `crates/net/tests/chaos.rs` (delivery:
//! exactly-once inboxes under sever storms, loss-ledger accounting,
//! bounded flush, counted reconnects, corruption blast radius) and
//! `crates/engine/tests/chaos_workflow.rs` (sharded workflow runs:
//! lossless chaos must agree with a fault-free reference; sever storms
//! must complete correctly or fail as a structured timeout, never
//! hang). A soak is the same suites over more seeds
//! (`GINFLOW_CHAOS_SEEDS=<k>`); CI's `chaos-smoke` job runs a fixed
//! sweep plus a fresh random base seed every build.
//!
//! Operator knobs (read once per process):
//!
//! * `GINFLOW_FAULT_SEED=<n>` — base seed; **every failure message
//!   names the seed that produced it**, so any red run reproduces with
//!   `GINFLOW_FAULT_SEED=<n> GINFLOW_CHAOS_SEEDS=1 cargo test …`.
//! * `GINFLOW_CHAOS_SEEDS=<k>` — seeds swept per property.
//! * `GINFLOW_RECONNECT_CAP_MS` — hard cap of the jittered exponential
//!   reconnect backoff (default 2000 ms). Reconnects are counted on
//!   `gf_client_reconnects_total`.
//!
//! The daemon under chaos batches exactly as in production: the relay
//! itself splits each EVENTS frame into one frame per message before it
//! applies the plan, so every message stays a fault decision point.
//!
//! (`flush()` on a wedged link is bounded in code, not by a knob:
//! [`client::DEFAULT_FLUSH_TIMEOUT`], per client
//! [`RemoteBroker::set_flush_timeout`], then a structured
//! `MqError::FlushTimeout`.)
//!
//! Contributors adding protocol or client behavior: wire a property
//! into the chaos suite rather than a bespoke sleep-and-hope test —
//! the harness has already paid for the hard parts (real frames, real
//! epoll, reproducible schedules, a watchdog that turns hangs into
//! structured failures).

pub mod client;
mod client_reactor;
mod daemon;
mod event_loop;
pub mod fault;
mod link;
mod metrics;
mod metrics_http;
mod registry;
pub mod server;
pub mod transport;

pub use client::RemoteBroker;
pub use server::BrokerServer;
pub use transport::{Connector, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_mq::{Broker, LogBroker, SubscribeMode};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn server_binds_ephemeral_and_stops() {
        let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn connect_and_publish_roundtrip() {
        let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new())).unwrap();
        let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();
        let r = client
            .publish("t", None, bytes::Bytes::from_static(b"hello"))
            .unwrap();
        assert_eq!(r.offset, 0);
        let sub = client.subscribe("t", SubscribeMode::Beginning).unwrap();
        let m = sub.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload_str(), "hello");
    }

    #[test]
    fn run_registry_lists_closes_and_reclaims() {
        // The second pair's first id is a prefix of its second.
        for (a, b) in [("a", "b"), ("a", "ab")] {
            lists_closes_and_reclaims(Arc::new(LogBroker::new()), a, b);
        }
    }

    /// Runs `a` and `b` on a daemon fronting `broker`: each run's
    /// listing, retained count and reclaim count only its own topics.
    fn lists_closes_and_reclaims(broker: Arc<dyn Broker>, a: &str, b: &str) {
        let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();

        // Two runs publish under their namespaces; a non-run topic is
        // not accounted.
        let (a_status, b_status) = (format!("run/{a}/status"), format!("run/{b}/status"));
        for topic in [&format!("run/{a}/sa.T1"), &a_status, &b_status, "plain"] {
            client
                .publish(topic, None, bytes::Bytes::from_static(b"x"))
                .unwrap();
        }
        let runs = client.list_runs().unwrap();
        assert_eq!(
            runs.iter().map(|r| r.run.as_str()).collect::<Vec<_>>(),
            [a, b]
        );
        assert_eq!(runs[0].topics, 2);
        assert_eq!(runs[0].retained, 2);
        assert!(!runs[0].completed);
        assert_eq!((runs[1].topics, runs[1].retained), (1, 1));

        // GC before close reclaims nothing; after close, run a's
        // topics are dropped and the run is forgotten.
        assert_eq!(client.gc_runs().unwrap(), (0, 0));
        assert!(client.close_run(a).unwrap());
        assert!(!client.close_run("unknown").unwrap());
        let listed = client.list_runs().unwrap();
        assert!(listed.iter().any(|r| r.run == a && r.completed));
        assert_eq!(client.gc_runs().unwrap(), (1, 2));
        assert_eq!(broker.retained(&a_status), 0, "log reclaimed");
        let left = client.list_runs().unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].run, b);
        assert_eq!(left[0].topics, 1, "run {b} keeps its topic");
        assert_eq!(broker.retained(&b_status), 1, "run b untouched");
        let mut names = broker.topic_names();
        names.sort();
        assert_eq!(names, ["plain", b_status.as_str()]);
        server.stop();
    }

    #[test]
    fn retention_sweeper_reclaims_closed_runs_without_a_gc_request() {
        let broker = Arc::new(LogBroker::new());
        let server = BrokerServer::bind_with_retention(
            "127.0.0.1:0",
            broker.clone(),
            Some(std::time::Duration::from_millis(50)),
        )
        .unwrap();
        let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();
        client
            .publish("run/a/status", None, bytes::Bytes::from_static(b"x"))
            .unwrap();
        client.close_run("a").unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !client.list_runs().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "sweeper never reclaimed run a");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(broker.retained("run/a/status"), 0);
        server.stop();
    }
}
