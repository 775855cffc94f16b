//! Event-loop behaviors at both ends of a connection: flat daemon
//! thread count, zero idle CPU, RECEIPTS range acks under pipelined
//! storms, the in-process [`Transport`] seam, and the client reactor's
//! one shared thread.
//!
//! Tests here share one process, and several read process-wide state
//! (`/proc/self`, the shared client reactor), so every test serializes
//! on [`GATE`].

use ginflow_mq::{Broker, LogBroker, SubscribeMode};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary: CPU and thread-count
/// measurements are process-global.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn bind() -> (BrokerServer, Arc<LogBroker>) {
    let broker = Arc::new(LogBroker::new());
    let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    (server, broker)
}

/// Open `n` raw sockets that speak no protocol at all — connected but
/// silent clients, the cheapest way to grow the daemon's fd table
/// without spawning client threads of our own.
fn idle_conns(server: &BrokerServer, n: usize) -> Vec<TcpStream> {
    let addr = server.local_addr();
    let conns: Vec<TcpStream> = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // One handshaking client proves the accept loop has drained the
    // backlog past our silent sockets.
    let probe = RemoteBroker::connect(&format!("tcp://{addr}")).unwrap();
    probe
        .publish("probe", None, bytes::Bytes::from_static(b"x"))
        .unwrap();
    probe.shutdown();
    conns
}

/// Threads of this process whose name (`/proc/self/task/*/comm`) starts
/// with `prefix`. Every thread the product spawns is named `gf-…`
/// (`gf-net-loop`, `gf-client-loop`, `gf-client-dial`) and an unnamed
/// thread inherits its spawner's name, so counting by name sees exactly
/// the product's threads — unlike the process total, which moves
/// whenever libtest starts or retires a test thread behind [`GATE`].
/// Dial threads are transient and unjoined: every test here closes its
/// clients before its server, so none is redialing when the gate opens.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        // A thread may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// CPU time (user + system) this process has consumed, in milliseconds
/// (`/proc/self/stat`, fields 14/15 after the comm field, USER_HZ=100).
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks * 1000 / 100
}

#[test]
fn thread_count_is_independent_of_connection_count() {
    let _gate = gate();
    let (server, _) = bind();
    let few = idle_conns(&server, 10);
    assert_eq!(
        threads_named("gf-net-"),
        1,
        "10 connections: the loop thread"
    );
    let many = idle_conns(&server, 200);
    assert_eq!(
        threads_named("gf-net-"),
        1,
        "event loop grew threads with connections"
    );
    drop((few, many));
    server.stop();
}

/// The client mirror: N connections share one `gf-client-loop` thread,
/// retired deterministically when the last one closes (`shutdown`
/// joins the loop thread, so `/proc` agrees immediately).
#[test]
fn client_reactor_multiplexes_connections_onto_one_thread_and_retires_it() {
    let _gate = gate();
    let (server, _) = bind();
    let addr = format!("tcp://{}", server.local_addr());
    assert_eq!(threads_named("gf-client-"), 0);
    let clients: Vec<RemoteBroker> = (0..32)
        .map(|_| RemoteBroker::connect(&addr).unwrap())
        .collect();
    // All 32 are live connections, not just parked sockets.
    for (i, c) in clients.iter().enumerate() {
        c.publish("t", None, bytes::Bytes::from(format!("m{i}")))
            .unwrap();
    }
    assert_eq!(
        (
            threads_named("gf-client-loop"),
            threads_named("gf-client-dial")
        ),
        (1, 0),
        "32 connections must share one loop thread"
    );
    drop(clients);
    assert_eq!(
        threads_named("gf-client-"),
        0,
        "reactor thread must retire when the last connection closes"
    );
    server.stop();
}

#[test]
fn idle_daemon_burns_no_cpu_with_100_quiet_connections() {
    let _gate = gate();
    let (server, _) = bind();
    let conns = idle_conns(&server, 100);
    // Settle any accept/registration work, then measure a quiet window.
    std::thread::sleep(Duration::from_millis(200));
    let before = process_cpu_ms();
    std::thread::sleep(Duration::from_millis(1500));
    let spent = process_cpu_ms() - before;
    // A polling or sweeping daemon burns a measurable slice of every
    // second; a parked epoll loop with no armed timers burns none. The
    // bound is loose (scheduler noise, /proc reads) but far below any
    // busy or periodic-wakeup regime.
    assert!(spent < 300, "idle daemon consumed {spent}ms CPU in 1.5s");
    drop(conns);
    server.stop();
}

/// A daemon counter in the process-global registry (hence read under
/// [`GATE`]).
fn counter(name: &str) -> u64 {
    ginflow_mq::metrics::global()
        .snapshot()
        .iter()
        .find(|row| row.name == name)
        .map_or(0, |row| row.value)
}

/// Reply frames the daemon has appended to connection out-buffers.
fn replies() -> u64 {
    counter("gf_loop_replies_total")
}

/// A publish's RECEIPT and the EVENT it caused on the same connection
/// leave in one socket write: the read turn and the subscription drain
/// only mark the connection dirty, and the loop flushes it once.
#[test]
fn a_receipt_and_the_event_it_caused_share_one_write() {
    let _gate = gate();
    let (server, _) = bind();
    let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();
    let sub = client.subscribe("echo", SubscribeMode::Latest).unwrap();
    const N: u64 = 500;
    let before = counter("gf_loop_flushes_total");
    for i in 0..N {
        client
            .publish("echo", None, bytes::Bytes::from(i.to_string()))
            .unwrap();
        // The round trip is whole — receipt and event both here —
        // before the next one starts.
        let m = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload_str(), i.to_string());
    }
    // The daemon counts a write after making it: one more round trip
    // puts every earlier count in the counter (its own may be).
    assert_eq!(client.retained("echo"), N);
    let flushes = counter("gf_loop_flushes_total") - before;
    // One write per round trip. The slack is for that closing round
    // trip and for a socket that took part of a write (loopback,
    // ~40-byte frames: it does not) — far from the two writes per round
    // trip of a flush per frame source.
    const SLACK: u64 = 10;
    assert!(
        (N..=N + SLACK).contains(&flushes),
        "{N} round trips cost {flushes} socket writes"
    );
    client.shutdown();
    server.stop();
}

#[test]
fn pipelined_storm_is_acked_by_receipts_ranges() {
    let _gate = gate();
    let (server, broker) = bind();
    let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();
    const N: u64 = 5000;
    let before = replies();
    for i in 0..N {
        client
            .publish_nowait("storm", None, bytes::Bytes::from(i.to_string()))
            .unwrap();
    }
    client.flush().unwrap();
    let pipelined = replies() - before;
    assert_eq!(broker.retained("storm"), N);
    // The daemon acks a read turn's consecutive publishes with one
    // RECEIPTS range, so the storm costs far fewer reply frames than
    // publishes — what makes pipelining cheaper than blocking, counted
    // rather than timed.
    assert!(
        pipelined <= N / 8,
        "{N} pipelined publishes were acked by {pipelined} reply frames"
    );
    // A blocking publish waits for its own ack: one reply frame each,
    // and the pipeline's receipt bookkeeping stayed exact — the first
    // one after the storm sees the very next offset.
    const BLOCKING: u64 = 200;
    let before = replies();
    for i in 0..BLOCKING {
        let r = client
            .publish("storm", None, bytes::Bytes::from_static(b"tail"))
            .unwrap();
        assert_eq!(r.offset, N + i);
    }
    assert_eq!(replies() - before, BLOCKING);
    client.shutdown();
    server.stop();
}

#[test]
fn in_process_transport_serves_the_full_protocol_without_tcp() {
    let _gate = gate();
    let (server, broker) = bind();
    let server = Arc::new(server);
    let s = server.clone();
    let client = RemoteBroker::connect_with(Box::new(move || s.connect_in_process())).unwrap();
    let sub = client.subscribe("t", SubscribeMode::Beginning).unwrap();
    client
        .publish("t", None, bytes::Bytes::from_static(b"no tcp involved"))
        .unwrap();
    let m = sub.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(m.payload_str(), "no tcp involved");
    for i in 0..500u32 {
        client
            .publish_nowait("t", None, bytes::Bytes::from(i.to_string()))
            .unwrap();
    }
    client.flush().unwrap();
    assert_eq!(broker.retained("t"), 501);
    client.shutdown();
    server.stop();
}

/// A half-open socket that dies mid-frame must not wedge the loop: the
/// daemon drops the connection and keeps serving everyone else.
#[test]
fn partial_frame_then_disconnect_does_not_wedge_the_loop() {
    let _gate = gate();
    let (server, _) = bind();
    let mut half = TcpStream::connect(server.local_addr()).unwrap();
    // A length prefix promising 100 bytes, then only 3 of them.
    half.write_all(&100u32.to_be_bytes()).unwrap();
    half.write_all(b"abc").unwrap();
    drop(half);
    let client = RemoteBroker::connect(&format!("tcp://{}", server.local_addr())).unwrap();
    let r = client
        .publish("alive", None, bytes::Bytes::from_static(b"x"))
        .unwrap();
    assert_eq!(r.offset, 0);
    client.shutdown();
    server.stop();
}
