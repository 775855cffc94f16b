//! The remote broker against the real thing: behavioural parity with
//! the in-process brokers, push-style waker delivery, reconnection
//! with `FromOffset` replay across severed connections, and the
//! pipeline's loss ledger.

use bytes::Bytes;
use ginflow_mq::{Broker, LogBroker, MqError, SubscribeMode};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn payload(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn serve_log() -> (BrokerServer, Arc<LogBroker>) {
    let broker = Arc::new(LogBroker::new());
    let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    (server, broker)
}

fn client(server: &BrokerServer) -> RemoteBroker {
    RemoteBroker::connect(&server.local_addr().to_string()).unwrap()
}

#[test]
fn parity_publish_subscribe_fetch_replay() {
    let (server, _broker) = serve_log();
    let remote = client(&server);

    // Dense offsets, like the local log broker.
    for i in 0..4u64 {
        let r = remote
            .publish("t", None, payload(&format!("m{i}")))
            .unwrap();
        assert_eq!(r.offset, i);
        assert_eq!(r.partition, 0);
    }
    assert_eq!(remote.retained("t"), 4);
    assert_eq!(remote.partitions("t"), 1);

    // Late subscriber replays history, then gets live messages.
    let sub = remote.subscribe("t", SubscribeMode::Beginning).unwrap();
    remote.publish("t", None, payload("m4")).unwrap();
    for i in 0..5 {
        let m = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload_str(), format!("m{i}"));
    }

    // From-offset subscription.
    let tail = remote.subscribe("t", SubscribeMode::FromOffset(3)).unwrap();
    assert_eq!(
        tail.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .payload_str(),
        "m3"
    );

    // Fetch without subscribing, with paging.
    let page = remote.fetch("t", 0, 1, 2).unwrap();
    assert_eq!(page.len(), 2);
    assert_eq!(page[0].payload_str(), "m1");
    assert!(remote.fetch("missing", 0, 0, 10).unwrap().is_empty());
    assert!(matches!(
        remote.fetch("t", 9, 0, 10),
        Err(MqError::Remote { .. })
    ));
}

#[test]
fn events_push_wakers_like_a_local_broker() {
    // The PR-1 scheduler contract: a waker registered on a remote
    // subscription fires on delivery — no polling anywhere.
    let (server, _broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = fired.clone();
    sub.set_waker(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    let publisher = client(&server);
    for _ in 0..3 {
        publisher.publish("t", None, payload("m")).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while sub.backlog() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(sub.backlog(), 3);
    assert!(fired.load(Ordering::SeqCst) >= 1, "waker must have fired");
}

/// A waker fires on its subscription's idle→pending edge and on no other
/// delivery, in process and over TCP alike: k deliveries to an undrained
/// subscription wake it once; once the consumer settles, the next
/// delivery wakes it again; and a delivery that races the settle is
/// handed back to the draining consumer, not lost.
#[test]
fn a_waker_fires_once_per_idle_to_pending_edge_on_every_broker() {
    let (server, _log) = serve_log();
    let brokers: [(&str, Arc<dyn Broker>); 2] = [
        ("log", Arc::new(LogBroker::new())),
        ("remote", Arc::new(client(&server))),
    ];
    for (name, broker) in brokers {
        let sub = broker.subscribe("t", SubscribeMode::Latest).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = fired.clone();
        sub.set_waker(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        // A round trip the remote client answers only after every push
        // the daemon sent before it has been delivered and woken on.
        let settled = |backlog: usize, wakes: usize, what: &str| {
            broker.partitions("t");
            assert_eq!(sub.backlog(), backlog, "{name}: {what}: backlog");
            assert_eq!(fired.load(Ordering::SeqCst), wakes, "{name}: {what}: wakes");
        };
        const K: usize = 5;
        for _ in 0..K {
            broker.publish("t", None, payload("m")).unwrap();
        }
        settled(K, 1, "deliveries to an undrained subscription");
        // The drain takes everything; one more lands before it settles.
        for _ in 0..K {
            sub.try_recv().unwrap().unwrap();
        }
        broker.publish("t", None, payload("raced")).unwrap();
        settled(1, 1, "a delivery while the drain is pending");
        assert!(
            sub.settle(),
            "{name}: the raced delivery goes back to the drain"
        );
        assert_eq!(sub.try_recv().unwrap().unwrap().payload_str(), "raced");
        assert!(
            !sub.settle(),
            "{name}: drained dry, the subscription goes idle"
        );
        broker.publish("t", None, payload("m")).unwrap();
        settled(1, 2, "the first delivery after the settle");
    }
}

#[test]
fn two_clients_share_one_broker() {
    // The cross-process membrane in miniature: what one connection
    // publishes, another connection's subscription sees.
    let (server, _broker) = serve_log();
    let a = client(&server);
    let b = client(&server);
    let sub = b.subscribe("shared", SubscribeMode::Latest).unwrap();
    a.publish("shared", None, payload("ping")).unwrap();
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .payload_str(),
        "ping"
    );
}

#[test]
fn severed_connection_recovers_via_from_offset_replay() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Beginning).unwrap();
    remote.publish("t", None, payload("m0")).unwrap();
    remote.publish("t", None, payload("m1")).unwrap();
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .payload_str(),
        "m0"
    );
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(5))
            .unwrap()
            .payload_str(),
        "m1"
    );

    // Sever every connection. While the client is down, more messages
    // land in the (persistent) log — published straight to the broker,
    // as another process would.
    server.drop_connections();
    broker.publish("t", None, payload("m2")).unwrap();
    broker.publish("t", None, payload("m3")).unwrap();

    // The client redials the still-listening daemon, resubscribes with
    // FromOffset(2), and replays exactly the missed messages.
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "m2"
    );
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "m3"
    );

    // Publishes after recovery flow end to end with no duplicates.
    remote.publish("t", None, payload("m4")).unwrap();
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "m4"
    );
    assert_eq!(sub.backlog(), 0, "no duplicate deliveries from the replay");
}

#[test]
fn latest_subscription_recovers_outage_window_without_replaying_history() {
    let (server, broker) = serve_log();
    // Pre-existing history a Latest subscriber must never see.
    broker.publish("t", None, payload("old0")).unwrap();
    broker.publish("t", None, payload("old1")).unwrap();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();

    // The connection drops before the subscription ever saw a message;
    // the outage window then produces new messages.
    server.drop_connections();
    broker.publish("t", None, payload("during")).unwrap();

    // Reconnect resumes from the attach point: the outage message
    // replays from the log, the pre-attach history does not.
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "during"
    );
    remote.publish("t", None, payload("after")).unwrap();
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "after"
    );
    assert_eq!(sub.backlog(), 0, "no history replay, no duplicates");
}

#[test]
fn publish_survives_connection_loss() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    remote.publish("t", None, payload("before")).unwrap();
    server.drop_connections();
    std::thread::sleep(Duration::from_millis(50));
    // A publish racing the severed socket may see one Disconnected (its
    // in-flight request died with the connection); the redial is
    // transparent and the next attempt lands. Never a silent loss.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match remote.publish("t", None, payload("after")) {
            Ok(receipt) => {
                assert_eq!(receipt.offset, 1);
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("publish never recovered: {e}"),
        }
    }
    assert_eq!(broker.retained("t"), 2);
}

#[test]
fn dropped_subscription_is_pruned_server_side() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    drop(sub);
    // Deliveries to the dropped subscription trigger the client to
    // unsubscribe; eventually the server-side handle dies too.
    for i in 0..20 {
        broker
            .publish("t", None, payload(&format!("m{i}")))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    // No assertion beyond "nothing wedged": a fresh subscription works.
    let fresh = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    remote.publish("t", None, payload("after")).unwrap();
    assert_eq!(
        fresh
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .payload_str(),
        "after"
    );
}

#[test]
fn oversized_publish_is_rejected_client_side() {
    let (server, _broker) = serve_log();
    let remote = client(&server);
    let huge = Bytes::from(vec![0u8; ginflow_mq::wire::MAX_FRAME + 1]);
    assert!(remote.publish("t", None, huge).is_err());
    // The connection survives the refused frame.
    remote.publish("t", None, payload("ok")).unwrap();
}

// --- pipelined publish (publish_nowait / flush) -----------------------

#[test]
fn pipelined_publishes_deliver_in_order_and_flush_drains() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    for i in 0..200 {
        remote
            .publish_nowait("t", None, payload(&format!("m{i}")))
            .unwrap();
    }
    // Flush blocks until every ack is consumed: afterwards the log
    // provably holds everything.
    remote.flush().unwrap();
    assert_eq!(broker.retained("t"), 200);
    for i in 0..200 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload_str(),
            format!("m{i}"),
            "pipelining must not reorder"
        );
    }
}

#[test]
fn a_batch_item_the_codec_refuses_fails_alone() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    let huge = Bytes::from(vec![0u8; ginflow_mq::wire::MAX_FRAME + 1]);
    let batch = vec![
        ("t".to_owned(), None, payload("before")),
        ("t".to_owned(), None, huge),
        ("t".to_owned(), None, payload("after")),
    ];
    // The call reports the refused item…
    match remote.publish_many_nowait(batch) {
        Err(MqError::Remote { .. }) => {}
        other => panic!("the oversized item was not reported: {other:?}"),
    }
    // …which was never in flight, so the ledger is clean, and its
    // neighbours were queued all the same, in order.
    remote.flush().unwrap();
    let kept: Vec<String> = broker
        .fetch("t", 0, 0, 10)
        .unwrap()
        .iter()
        .map(|m| m.payload_str().into_owned())
        .collect();
    assert_eq!(kept, ["before", "after"]);
}

#[test]
fn a_batch_wider_than_the_window_queues_what_it_reserved_before_it_waits() {
    // Six 1 MiB items against the 4 MiB window: the fifth finds the
    // window full of this very batch's reservations. Their acks are
    // what drains it, and acks only come for frames that left — so the
    // batch must hand over what it holds before it blocks, or it waits
    // out the whole reconnect grace and loses the rest.
    let (server, broker) = serve_log();
    let remote = client(&server);
    let item = |i: u8| ("wide".to_owned(), None, Bytes::from(vec![i; 1 << 20]));
    remote
        .publish_many_nowait((0..6).map(item).collect())
        .unwrap();
    remote.flush().unwrap();
    let firsts: Vec<u8> = broker
        .fetch("wide", 0, 0, 10)
        .unwrap()
        .iter()
        .map(|m| m.payload[0])
        .collect();
    assert_eq!(firsts, [0, 1, 2, 3, 4, 5]);
}

#[test]
fn pipelined_and_blocking_publishes_interleave_in_order() {
    let (server, _broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    for i in 0..50 {
        if i % 2 == 0 {
            remote
                .publish_nowait("t", None, payload(&format!("m{i}")))
                .unwrap();
        } else {
            // The blocking publish waits for its receipt, which the
            // server only sends after processing every pipelined frame
            // queued before it — one socket, FIFO.
            let r = remote
                .publish("t", None, payload(&format!("m{i}")))
                .unwrap();
            assert_eq!(r.offset, i as u64, "receipts see pipelined predecessors");
        }
    }
    remote.flush().unwrap();
    for i in 0..50 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
}

/// The daemon acks a turn's publishes to several topics with one
/// RECEIPT_LIST; a blocking publish that rides in one behind a pipelined
/// fan-out must still get its own partition and offset out of it.
#[test]
fn a_blocking_publish_behind_a_pipelined_fan_out_gets_its_exact_offset() {
    let (server, broker) = serve_log();
    let remote = client(&server);
    const ROUNDS: u64 = 100;
    for i in 0..ROUNDS {
        let fan_out = ["a", "b", "c"]
            .map(|t| (t.to_owned(), None, payload(&format!("{t}{i}"))))
            .to_vec();
        remote.publish_many_nowait(fan_out).unwrap();
        let r = remote.publish("b", None, payload("tail")).unwrap();
        assert_eq!((r.partition, r.offset), (0, 2 * i + 1), "round {i}");
    }
    remote.flush().unwrap();
    let retained = ["a", "b", "c"].map(|t| broker.retained(t));
    assert_eq!(retained, [ROUNDS, 2 * ROUNDS, ROUNDS]);
}

#[test]
fn exactly_once_replay_survives_pipelined_publishing() {
    // The PR-3 reconnect contract, now with the publisher pipelined:
    // sever the connection mid-stream; the subscription replays the
    // outage window exactly once.
    let (server, broker) = serve_log();
    let remote = client(&server);
    let sub = remote.subscribe("t", SubscribeMode::Beginning).unwrap();
    for i in 0..10 {
        remote
            .publish_nowait("t", None, payload(&format!("m{i}")))
            .unwrap();
    }
    remote.flush().unwrap();
    server.drop_connections();
    broker.publish("t", None, payload("m10")).unwrap();
    // After the redial, pipelined publishing keeps working…
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sent = remote
            .publish_nowait("t", None, payload("m11"))
            .and_then(|()| remote.flush());
        match sent {
            Ok(()) => break,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("pipelined publish never recovered: {e}"),
        }
    }
    // …and the subscriber sees every message exactly once, in order.
    for i in 0..12 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
    assert_eq!(sub.backlog(), 0, "no duplicates from the replay");
}

#[test]
fn pipelined_losses_surface_on_flush_not_silently() {
    // Sever the connection in the middle of a pipelined stream, then
    // check conservation: every one of the 500 publishes is either
    // retained by the broker, returned as a send error to the caller,
    // or reported lost by the flush ledger. Nothing vanishes silently.
    let (server, broker) = serve_log();
    let remote = client(&server);
    let mut send_errors = 0u64;
    for i in 0..500 {
        if remote
            .publish_nowait("t", None, payload(&format!("m{i}")))
            .is_err()
        {
            send_errors += 1;
        }
        if i == 250 {
            server.drop_connections();
        }
    }
    let lost = match remote.flush() {
        Ok(()) => 0,
        Err(MqError::Remote { message }) => {
            // "<n> pipelined publish(es) lost before acknowledgement"
            message
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparseable loss report: {message}"))
        }
        Err(e) => panic!("unexpected flush error: {e}"),
    };
    let retained = broker.retained("t");
    assert!(retained <= 500);
    assert!(
        retained + send_errors + lost >= 500,
        "silent loss: retained {retained} + send errors {send_errors} + flush-reported {lost} < 500"
    );
}

/// The loss-ledger contract, made deterministic with a scripted daemon:
/// it completes the INFO handshake, swallows exactly one pipelined
/// publish without acking, and severs — then refuses redials. The
/// publish must latch on the ledger (reported by the next flush,
/// exactly once) and must NOT be replayed.
#[test]
fn unacked_pipelined_publish_latches_on_loss_ledger() {
    use ginflow_mq::wire::{read_frame, write_frame, Frame};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let script = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // Dropping the listener now makes every redial fail fast.
        drop(listener);
        let mut reader = std::io::BufReader::new(sock.try_clone().unwrap());
        let mut swallowed = 0u32;
        loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Info { seq, .. })) => {
                    write_frame(
                        &mut sock,
                        &Frame::InfoReply {
                            seq,
                            persistent: true,
                            partitions: 1,
                            retained: 0,
                        },
                    )
                    .unwrap();
                }
                Ok(Some(Frame::Publish { .. })) => {
                    swallowed += 1;
                    return swallowed; // sever without acking
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => return swallowed,
            }
        }
    });
    let remote = RemoteBroker::connect(&addr).unwrap();
    remote.publish_nowait("t", None, payload("doomed")).unwrap();
    // The daemon reads the frame and severs; the client notices the
    // EOF, fails the in-flight waiter onto the ledger, and flush
    // reports it.
    match remote.flush() {
        Err(MqError::Remote { message }) => {
            assert!(
                message.starts_with("1 pipelined publish"),
                "unexpected ledger report: {message}"
            )
        }
        other => panic!("loss not reported by flush: {other:?}"),
    }
    // The ledger resets once reported, and the publish is gone for
    // good — no replay rode a reconnect attempt.
    assert!(remote.flush().is_ok(), "ledger must reset");
    assert_eq!(script.join().unwrap(), 1);
    remote.shutdown();
}

/// A request's frame and its waiter live and die together: a publish
/// that was queued on a connection the client then declares lost is
/// failed (here: onto the loss ledger) *and* its bytes are discarded.
/// Were the bytes to survive in the outbound buffer, the redialed
/// connection would deliver a publish its caller was told had failed —
/// and a caller that retries would put it in the log twice.
///
/// The interleaving is forced, not hoped for: a subscription's waker
/// runs on the client's loop thread, so a waker that blocks parks the
/// loop at a known point (briefly stalling the other tests' clients,
/// which share the loop, and nothing else). A waker fires once per
/// idle→pending edge and these never drain, so each of two
/// subscriptions parks the loop once.
#[test]
fn publish_failed_by_a_connection_loss_is_not_resent_after_the_redial() {
    let (server, broker) = serve_log();
    let server = Arc::new(server);
    let s = server.clone();
    let remote = RemoteBroker::connect_with(Box::new(move || s.connect_in_process())).unwrap();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let parking = || {
        let (parked_tx, release_rx) = (parked_tx.clone(), release_rx.clone());
        move || {
            let _ = parked_tx.send(());
            // Returns on a release, and at once when the releaser is gone.
            let _ = release_rx.lock().unwrap().recv();
        }
    };
    let first = remote.subscribe("in", SubscribeMode::Latest).unwrap();
    first.set_waker(parking());
    let second = remote.subscribe("in2", SubscribeMode::Latest).unwrap();
    second.set_waker(parking());
    let wait_parked = || parked_rx.recv_timeout(Duration::from_secs(10)).unwrap();

    // 1. A first delivery parks the loop, the connection still healthy.
    broker.publish("in", None, payload("e1")).unwrap();
    wait_parked();
    // 2. Behind its back the daemon pushes an event to the second
    //    subscription and hangs up (`drop_connections` returns once it
    //    has): the socket now holds an EVENTS followed by EOF.
    broker.publish("in2", None, payload("e2")).unwrap();
    server.drop_connections();
    // 3. Released, the loop reads both in one turn, notes the EOF, and
    //    parks again delivering e2 — before acting on the EOF.
    release_tx.send(()).unwrap();
    wait_parked();
    // 4. A publish queued now sits in the outbound buffer of a
    //    connection about to be declared lost.
    remote
        .publish_nowait("out", None, payload("doomed"))
        .unwrap();
    drop(release_tx);

    // The loss handling failed its waiter, so flush reports it lost…
    match remote.flush() {
        Err(MqError::Remote { message }) => assert!(
            message.starts_with("1 pipelined publish"),
            "unexpected ledger report: {message}"
        ),
        other => panic!("loss not reported by flush: {other:?}"),
    }
    // …and lost it must stay. `retained` is a round trip over the
    // redialed connection, queued behind whatever survived the outage,
    // so its answer accounts for every such frame.
    assert_eq!(
        remote.retained("out"),
        0,
        "a publish reported lost was delivered by the next connection"
    );
    remote.shutdown();
    server.stop();
}

/// Bulk subscribe, through the trait's default: N subscriptions, all of
/// them live.
#[test]
fn bulk_subscribe_opens_every_subscription() {
    let (server, _broker) = serve_log();
    let remote = client(&server);
    let requests: Vec<(String, SubscribeMode)> = (0..100)
        .map(|i| (format!("bulk/{i}"), SubscribeMode::Latest))
        .collect();
    let subs = remote.subscribe_many(&requests).unwrap();
    assert_eq!(subs.len(), 100);
    let publisher = client(&server);
    for i in 0..100 {
        publisher
            .publish(&format!("bulk/{i}"), None, payload(&format!("m{i}")))
            .unwrap();
    }
    for (i, sub) in subs.iter().enumerate() {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
}

// --- batched EVENTS push ---------------------------------------------

#[test]
fn replayed_history_arrives_as_one_coalesced_events_frame() {
    use ginflow_mq::wire::{read_frame, write_frame, Frame};
    // 50 retained messages are queued into the server-side subscription
    // before its pump waker arms, so the first pump drain must coalesce
    // them into a single EVENTS frame. Speak the wire protocol raw to
    // observe the actual frames.
    let (server, broker) = serve_log();
    for i in 0..50 {
        broker
            .publish("t", None, payload(&format!("m{i}")))
            .unwrap();
    }
    let mut socket = std::net::TcpStream::connect(server.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut socket,
        &Frame::Subscribe {
            seq: 1,
            topic: "t".into(),
            mode: SubscribeMode::Beginning,
        },
    )
    .unwrap();
    let mut reader = std::io::BufReader::new(socket.try_clone().unwrap());
    assert!(matches!(
        read_frame(&mut reader).unwrap(),
        Some(Frame::Subscribed { seq: 1, .. })
    ));
    // Collect frames until all 50 messages arrived; count the frames.
    let mut frames = 0usize;
    let mut got = Vec::new();
    while got.len() < 50 {
        match read_frame(&mut reader).unwrap() {
            Some(Frame::Events { messages, .. }) => {
                frames += 1;
                got.extend(messages);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(got.len(), 50);
    for (i, m) in got.iter().enumerate() {
        assert_eq!(
            m.payload_str(),
            format!("m{i}"),
            "batching must not reorder"
        );
        assert_eq!(m.offset, i as u64);
    }
    assert_eq!(
        frames, 1,
        "a fully queued backlog must coalesce into one EVENTS frame"
    );
}

/// Each direction of delivery has one frame. A lone PUBLISH is answered
/// by exactly one RECEIPT_LIST (0x93) holding its one receipt, and the
/// one delivery it causes arrives as exactly one EVENTS (0x91) holding
/// its one message; an INFO behind them proves nothing else was sent.
/// The retired RECEIPT (0x81), EVENT (0x90) and RECEIPTS (0x92) opcodes
/// decode as no frame at all.
#[test]
fn the_wire_carries_one_ack_frame_and_one_push_frame() {
    use ginflow_mq::wire::{write_frame, Frame, WireError};
    use std::io::Read;
    let (server, _broker) = serve_log();
    let mut socket = std::net::TcpStream::connect(server.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(socket.try_clone().unwrap());
    // One frame body, undecoded: the opcode is its first byte.
    let mut next_body = || {
        let mut len = [0u8; 4];
        reader.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        reader.read_exact(&mut body).unwrap();
        body
    };
    let mut send = |frame: Frame| write_frame(&mut socket, &frame).unwrap();

    send(Frame::Subscribe {
        seq: 1,
        topic: "t".into(),
        mode: SubscribeMode::Latest,
    });
    assert_eq!(next_body()[0], 0x82, "SUBSCRIBED");
    send(Frame::Publish {
        seq: 2,
        topic: "t".into(),
        key: None,
        payload: payload("m"),
    });
    let ack = next_body();
    assert_eq!(ack[0], 0x93);
    match Frame::decode(&ack).unwrap() {
        Frame::ReceiptList {
            seq_first,
            receipts,
        } => assert_eq!((seq_first, receipts.len()), (2, 1)),
        other => panic!("ack {other:?}"),
    }
    let push = next_body();
    assert_eq!(push[0], 0x91);
    match Frame::decode(&push).unwrap() {
        Frame::Events { sub, messages } => {
            assert_eq!((sub, messages.len()), (1, 1));
            assert_eq!(messages[0].payload_str(), "m");
        }
        other => panic!("push {other:?}"),
    }
    send(Frame::Info {
        seq: 3,
        topic: "t".into(),
    });
    assert_eq!(next_body()[0], 0x84, "INFO_REPLY, with nothing in between");

    // The retired frames as the protocol once laid them out.
    let seq = 7u64.to_be_bytes();
    let receipt = [&[0x81][..], &seq, &0u32.to_be_bytes(), &seq].concat();
    let event = [&[0x90][..], &seq, &push[13..]].concat();
    let range = [
        &[0x92][..],
        &seq,
        &2u32.to_be_bytes(),
        &0u32.to_be_bytes(),
        &seq,
    ]
    .concat();
    for body in [receipt, event, range] {
        assert!(
            matches!(Frame::decode(&body), Err(WireError::UnknownOpcode(op)) if op == body[0]),
            "opcode 0x{:02x}",
            body[0]
        );
    }
}

#[test]
fn burst_fanout_is_delivered_completely_under_batching() {
    // End-to-end: a publish burst through one client reaches another
    // client's subscription complete and ordered, however the daemon's
    // drains split it into EVENTS frames.
    let (server, _broker) = serve_log();
    let consumer = client(&server);
    let sub = consumer.subscribe("t", SubscribeMode::Latest).unwrap();
    let producer = client(&server);
    for i in 0..500 {
        producer
            .publish_nowait("t", None, payload(&format!("m{i}")))
            .unwrap();
    }
    producer.flush().unwrap();
    for i in 0..500 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
}

#[test]
fn stats_counters_advance_across_a_publish_storm() {
    let (server, _broker) = serve_log();
    let remote = client(&server);
    let sum = |rows: &[ginflow_mq::wire::StatRow], name: &str| -> u64 {
        rows.iter()
            .filter(|r| r.name == name)
            .map(|r| r.value)
            .sum()
    };

    let before = remote.stats().unwrap();
    const STORM: u64 = 200;
    let sub = remote
        .subscribe("run/stats-storm/status", SubscribeMode::Latest)
        .unwrap();
    for i in 0..STORM {
        remote
            .publish_nowait("run/stats-storm/status", None, payload(&format!("m{i}")))
            .unwrap();
    }
    remote.flush().unwrap();
    for _ in 0..STORM {
        sub.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let after = remote.stats().unwrap();

    // Counters are process-global (other tests share them), so assert
    // on deltas and lower bounds only.
    let delta = |name: &str| sum(&after, name).saturating_sub(sum(&before, name));
    assert!(
        delta("gf_broker_publish_total") >= STORM,
        "publish counter only advanced by {}",
        delta("gf_broker_publish_total")
    );
    assert!(
        delta("gf_broker_publish_bytes_total") >= STORM,
        "publish byte counter stuck"
    );
    assert!(
        delta("gf_loop_frames_total") >= STORM,
        "frame counter stuck"
    );
    assert!(
        delta("gf_loop_fanout_messages_total") >= STORM,
        "fan-out counter stuck"
    );
    // The run-scoped families carry this run's label, and the gauges
    // are folded fresh on every STATS request.
    let labelled = |name: &str| {
        after
            .iter()
            .find(|r| r.name == name && r.label == "stats-storm")
            .map(|r| r.value)
    };
    assert!(labelled("gf_run_publish_total") >= Some(STORM));
    assert!(labelled("gf_run_topics") >= Some(1));
    assert!(labelled("gf_run_retained").is_some());
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    use std::io::{Read, Write};
    let (server, _broker) = serve_log();
    let remote = client(&server);
    remote
        .publish("run/prom/status", None, payload("x"))
        .unwrap();

    let addr = server.serve_metrics("127.0.0.1:0").unwrap();
    let fetch = |request: &str| -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    let response = fetch("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"));
    assert!(response.contains("# TYPE gf_broker_publish_total counter"));
    assert!(
        response.contains("gf_run_publish_total{run=\"prom\"}"),
        "per-run series missing from exposition"
    );
    assert!(
        response.contains("gf_run_topics{run=\"prom\"} 1"),
        "per-run gauge not folded on scrape"
    );
    assert!(fetch("GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
    assert!(fetch("POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
    server.stop();
}

// --- the wire, byte for byte ------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A transport that records what is written to it.
struct Tap {
    inner: Box<dyn ginflow_net::Transport>,
    sent: Arc<Mutex<Vec<u8>>>,
}

impl std::io::Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl std::io::Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sent.lock().unwrap().extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl ginflow_net::Transport for Tap {
    fn try_clone(&self) -> std::io::Result<Box<dyn ginflow_net::Transport>> {
        Ok(Box::new(Tap {
            inner: self.inner.try_clone()?,
            sent: self.sent.clone(),
        }))
    }

    fn shutdown(&self) -> std::io::Result<()> {
        self.inner.shutdown()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }
}

/// One exchange — subscribe, three pipelined publishes, fetch,
/// unsubscribe, a fan-out to three topics — pinned byte for byte in
/// both directions, so a change to the codec, to either loop's framing
/// or flushing, or to the daemon's batching (one RECEIPT_LIST ack per
/// read turn, one coalesced EVENTS push per drain) shows up as a diff of
/// these literals.
#[test]
fn a_recorded_exchange_is_byte_identical_in_both_directions() {
    use ginflow_mq::wire::Frame;
    use std::io::{Read, Write};
    let (server, _broker) = serve_log();
    let publish = |seq, body: &str| Frame::Publish {
        seq,
        topic: "t".into(),
        key: None,
        payload: payload(body),
    };
    let info = |seq| Frame::Info {
        seq,
        topic: "t".into(),
    };

    // The daemon's side, against a scripted peer. Each group of request
    // frames goes out in one write, so it reaches the daemon in one
    // read turn and what comes back is deterministic.
    let mut peer = server.connect_in_process().unwrap();
    let mut exchange = |requests: &[Frame], sent: &[&str], replies: &[&str]| {
        let bytes: Vec<u8> = requests.iter().flat_map(|f| f.encode().unwrap()).collect();
        assert_eq!(hex(&bytes), sent.concat(), "encoding of {requests:?}");
        peer.write_all(&bytes).unwrap();
        let mut got = vec![0u8; replies.concat().len() / 2];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(hex(&got), replies.concat(), "replies to {requests:?}");
    };
    exchange(
        &[Frame::Subscribe {
            seq: 1,
            topic: "t".into(),
            mode: SubscribeMode::Latest,
        }],
        &["0000000f020000000000000001000000017400"],
        // SUBSCRIBED seq 1: sub 1, resume 0.
        &["0000001982000000000000000100000000000000010000000000000000"],
    );
    exchange(
        &[publish(2, "a"), publish(3, "b"), publish(4, "c")],
        &[
            "000000140100000000000000020000000174000000000161",
            "000000140100000000000000030000000174000000000162",
            "000000140100000000000000040000000174000000000163",
        ],
        &[
            // RECEIPT_LIST: seqs 2.. x3; (0, 0), (0, 1), (0, 2). The
            // same publishes were once acked by a 25-byte RECEIPTS
            // range; the list spells out each receipt in 12 bytes.
            "0000003193000000000000000200000003\
             000000000000000000000000\
             000000000000000000000001\
             000000000000000000000002",
            // EVENTS on sub 1: three messages, offsets 0, 1, 2.
            "00000052910000000000000001000000030000000174000000000000\
             00000000000000000000016100000001740000000000000000000000\
             01000000000162000000017400000000000000000000000200000000\
             0163",
        ],
    );
    exchange(
        &[Frame::Fetch {
            seq: 5,
            topic: "t".into(),
            partition: 0,
            from: 1,
            max: 2,
        }],
        &["0000001e040000000000000005000000017400000000000000000000000100000002"],
        // MESSAGES seq 5: offsets 1 and 2.
        &["0000003b830000000000000005000000020000000174000000000000\
           00000000000100000000016200000001740000000000000000000000\
           02000000000163"],
    );
    // UNSUBSCRIBE is answered by silence, and the publish behind it is
    // acked but pushed to nobody: the two INFO replies are adjacent.
    exchange(
        &[
            Frame::Unsubscribe { seq: 6, sub: 1 },
            publish(7, "d"),
            info(8),
        ],
        &[
            "000000110300000000000000060000000000000001",
            "000000140100000000000000070000000174000000000164",
            "0000000e0500000000000000080000000174",
        ],
        &[
            // RECEIPT_LIST: seq 7 x1; (0, 3). A lone publish is a list of
            // one: 4 bytes (the count) more than the retired RECEIPT.
            "0000001993000000000000000700000001000000000000000000000003",
            // INFO_REPLY seq 8: persistent, 1 partition, 4 retained.
            "0000001684000000000000000801000000010000000000000004",
        ],
    );
    exchange(
        &[info(9)],
        &["0000000e0500000000000000090000000174"],
        &["0000001684000000000000000901000000010000000000000004"],
    );
    // A fan-out: three publishes to three topics in one write are acked
    // by one RECEIPT_LIST, each with its own partition and offset.
    let to = |seq, topic: &str, body: &str| Frame::Publish {
        seq,
        topic: topic.into(),
        key: None,
        payload: payload(body),
    };
    exchange(
        &[to(10, "t", "e"), to(11, "u", "f"), to(12, "v", "g")],
        &[
            "0000001401000000000000000a0000000174000000000165",
            "0000001401000000000000000b0000000175000000000166",
            "0000001401000000000000000c0000000176000000000167",
        ],
        // RECEIPT_LIST: seqs 10.. x3; (0, 4), (0, 0), (0, 0).
        &["0000003193000000000000000a00000003\
           000000000000000000000004\
           000000000000000000000000\
           000000000000000000000000"],
    );

    // The client's side: what a `RemoteBroker` writes for the same
    // calls (its INFO handshake first), through its reactor's flush.
    let tapped = Arc::new(Mutex::new(Vec::new()));
    let (server, sent) = (Arc::new(server), tapped.clone());
    let remote = RemoteBroker::connect_with(Box::new(move || {
        Ok(Box::new(Tap {
            inner: server.connect_in_process()?,
            sent: sent.clone(),
        }))
    }))
    .unwrap();
    let _sub = remote.subscribe("t", SubscribeMode::Latest).unwrap();
    for body in ["a", "b", "c"] {
        remote.publish_nowait("t", None, payload(body)).unwrap();
    }
    remote.flush().unwrap();
    assert_eq!(remote.fetch("t", 0, 1, 2).unwrap().len(), 2);
    let sent = [
        "0000000d05000000000000000100000000",
        "0000000f020000000000000002000000017400",
        "000000140100000000000000030000000174000000000161",
        "000000140100000000000000040000000174000000000162",
        "000000140100000000000000050000000174000000000163",
        "0000001e040000000000000006000000017400000000000000000000000100000002",
    ];
    assert_eq!(hex(&tapped.lock().unwrap()), sent.concat());
}
