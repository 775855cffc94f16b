//! # ginflow-net — the network membrane
//!
//! GinFlow's premise is that co-workflow agents coordinate *only*
//! through message-queue middleware (§IV-A) — which means the broker is
//! the one thing that has to cross host boundaries for the
//! "decentralised" manager to actually decentralise. This crate makes
//! the in-process broker substrates of `ginflow-mq` network-reachable:
//!
//! * [`BrokerServer`] — the broker daemon (`ginflow broker serve`):
//!   fronts any [`Broker`](ginflow_mq::Broker) (the persistent
//!   [`LogBroker`](ginflow_mq::LogBroker) by default) over TCP from a
//!   **single-thread epoll event loop** (the `mio` shim): non-blocking
//!   sockets, per-connection read/write buffer state machines,
//!   subscription wakeups routed into the loop through
//!   the broker's push wakers, and a timer wheel driving the retention
//!   sweep — thread count independent of client count, zero syscalls
//!   while idle, 10k+ concurrent connections on one thread. Publish
//!   acks coalesce into RECEIPTS range frames (the request-direction
//!   mirror of EVENTS).
//! * [`RemoteBroker`] — the client: implements the same `Broker` trait
//!   over a connection, pushing EVENT frames into local
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
//!   subscription into one multi-message EVENTS frame per pump wakeup,
//!   and writes each connection **once per loop turn**: a publish's
//!   RECEIPT and the EVENTs it caused leave in one `send`.
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
//! Publishers never touch the socket: they append
//! encoded frames to a per-connection outbound buffer and ring an
//! eventfd doorbell; the loop drains the buffer through a non-blocking
//! write state machine, feeds received bytes through the frame
//! dispatch, and runs reconnect backoff on its deadline heap (dial
//! syscalls themselves run on a short-lived helper thread so a hanging
//! TCP connect never stalls other connections' traffic).
//!
//! ## One byte layer under both loops
//!
//! Below the protocol the daemon's loop and the client's reactor are
//! the same machine, and it exists once, in the `link` module: a
//! connection's byte state (an incremental
//! [`FrameSplitter`](ginflow_mq::wire::FrameSplitter) in, an out buffer
//! with its non-blocking flush and write-stall clock out — driven with
//! passed-in `Instant`s, so it is unit-tested with no socket, thread or
//! sleep), the loops' deadline heap with the stall scan, and the
//! cross-thread doorbell. Each loop module holds only its side of the
//! protocol; the [`fault`] relay and the raw test peers split frames
//! with the same splitter.
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
//! purely from topic names on publish/subscribe) with per-run topic
//! accounting: `ginflow broker runs` lists active and completed runs,
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
//! Listeners are bound with `SO_REUSEADDR` (the `listen` module), so the
//! relaunched daemon takes the old port over immediately instead of
//! waiting out `TIME_WAIT`. Clients need no changes: their existing
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
//!   0x01 PUBLISH             0x81 RECEIPT        (ack of PUBLISH)
//!   0x02 SUBSCRIBE           0x82 SUBSCRIBED     (ack of SUBSCRIBE)
//!   0x03 UNSUBSCRIBE         0x83 MESSAGES       (ack of FETCH)
//!   0x04 FETCH               0x84 INFO_REPLY     (ack of INFO)
//!   0x05 INFO                0x85 ERROR          (failed request)
//!   0x06 RUN_LIST            0x86 RUN_LIST_REPLY (ack of RUN_LIST)
//!   0x07 RUN_CLOSE           0x87 RUN_GC_REPLY   (ack of RUN_CLOSE/RUN_GC)
//!   0x08 RUN_GC              0x88 STATS_REPLY    (ack of STATS: flattened
//!   0x09 STATS                                    metrics snapshot)
//!                            0x90 EVENT          (push delivery)
//!                            0x91 EVENTS         (coalesced push delivery)
//!                            0x92 RECEIPTS       (range ack of consecutive
//!                                                 PUBLISHes)
//! ```
//!
//! Requests carry a `seq` the ack echoes (UNSUBSCRIBE is
//! fire-and-forget); EVENT frames carry the server-assigned
//! subscription id from SUBSCRIBED; a RECEIPTS frame acks `count`
//! consecutive seqs whose receipts form one arithmetic run (same
//! partition, consecutive offsets) — the daemon's bulk ack for
//! pipelined publish storms. Frames over
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
//! * `gf_broker_{publish,publish_bytes,subscribe,fetch}_total{shard}` —
//!   verb counts per topic-map shard (same FNV-1a shard the lock map
//!   uses, so a hot shard in metrics *is* the hot lock).
//! * `gf_run_{publish,publish_bytes}_total{run}` and
//!   `gf_run_{topics,retained,lagged}{run}` — per-run traffic and
//!   gauges; the gauges are folded fresh from the run registry on
//!   every snapshot, and a run's series are dropped when its topics
//!   are GC'd.
//! * `gf_store_*` — durable-log appends, bytes, fsyncs, rotations,
//!   read batches, recovery truncations, disk bytes.
//! * `gf_sched_*` / `gf_client_pipeline_*` — scheduler ready-queue and
//!   wakeup-batch accounting, client pipeline window occupancy and
//!   losses (in whichever process runs them);
//!   `gf_client_subscriptions` — delivery bridges the clients hold.
//! * `gf_client_reactor_*` — shared client-loop health: wakeups,
//!   frames dispatched per readiness turn (histogram), reconnects,
//!   live connections.
//!
//! Three surfaces expose the same snapshot:
//!
//! * **STATS wire verb** — [`RemoteBroker::stats`] returns the
//!   flattened rows; `ginflow broker top` polls it and renders per-run
//!   publish rates, topic/retained counts and subscriber lag.
//! * **`GET /metrics`** — [`BrokerServer::serve_metrics`] (CLI:
//!   `ginflow broker serve --metrics-addr HOST:PORT`) serves the
//!   Prometheus text exposition format from a tiny embedded HTTP
//!   responder; point a scraper at it.
//! * **`RunReport` (ginflow-agent)** — every run's final report
//!   carries its own slice of the registry (its `metrics` field), so
//!   per-run counters survive the run's GC.
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
mod event_loop;
pub mod fault;
mod link;
mod listen;
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
        assert!(client.persistent());
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
        let broker = Arc::new(LogBroker::new());
        let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();

        // Two runs publish under their namespaces; a non-run topic is
        // not accounted.
        for topic in ["run/a/sa.T1", "run/a/status", "run/b/status", "plain"] {
            client
                .publish(topic, None, bytes::Bytes::from_static(b"x"))
                .unwrap();
        }
        let runs = client.list_runs().unwrap();
        assert_eq!(
            runs.iter().map(|r| r.run.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(runs[0].topics, 2);
        assert_eq!(runs[0].retained, 2);
        assert!(!runs[0].completed);

        // GC before close reclaims nothing; after close, run "a"'s
        // topics are dropped and the run is forgotten.
        assert_eq!(client.gc_runs().unwrap(), (0, 0));
        assert!(client.close_run("a").unwrap());
        assert!(!client.close_run("unknown").unwrap());
        let listed = client.list_runs().unwrap();
        assert!(listed.iter().any(|r| r.run == "a" && r.completed));
        assert_eq!(client.gc_runs().unwrap(), (1, 2));
        assert_eq!(broker.retained("run/a/status"), 0, "log reclaimed");
        let left = client.list_runs().unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].run, "b");
        assert_eq!(broker.retained("run/b/status"), 1, "run b untouched");
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
