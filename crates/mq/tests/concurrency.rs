//! Concurrency stress tests for the broker substrate: many publishers,
//! many subscribers, racing replays.

use bytes::Bytes;
use ginflow_mq::{Broker, LogBroker, Message, MqError, SubscribeMode};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn payload(i: usize) -> Bytes {
    Bytes::from(format!("m{i}").into_bytes())
}

/// Park a thread in `recv()` on a fresh `Latest` subscription to
/// `topic`, run `act` once it has had time to park, and return what the
/// parked `recv()` gave back. The wait for that answer is bounded, so a
/// lost notify fails the test instead of hanging it.
fn parked_recv(
    broker: &Arc<dyn Broker>,
    topic: &str,
    act: impl FnOnce(),
) -> Result<Message, MqError> {
    let sub = broker.subscribe(topic, SubscribeMode::Latest).unwrap();
    let (tx, rx) = mpsc::channel();
    let receiver = std::thread::spawn(move || tx.send(sub.recv()).unwrap());
    std::thread::sleep(Duration::from_millis(50));
    act();
    let got = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the parked recv() was never woken");
    receiver.join().unwrap();
    got
}

#[test]
fn a_parked_recv_gets_a_message_published_from_another_thread() {
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let publisher = broker.clone();
    let got = parked_recv(&broker, "t", move || {
        std::thread::spawn(move || publisher.publish("t", None, payload(7)).unwrap())
            .join()
            .unwrap();
    })
    .expect("a message, not a disconnect");
    assert_eq!(got.payload_str(), "m7");
}

#[test]
fn a_parked_recv_on_a_deleted_topic_is_disconnected() {
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let deleter = broker.clone();
    let got = parked_recv(&broker, "t", move || assert!(deleter.delete_topic("t")));
    assert!(matches!(got, Err(MqError::Disconnected)), "{got:?}");
}

#[test]
fn recv_timeout_on_an_empty_live_subscription_times_out() {
    let broker: Arc<dyn Broker> = Arc::new(LogBroker::new());
    let sub = broker.subscribe("t", SubscribeMode::Latest).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(sub.recv_timeout(Duration::from_millis(20)))
            .unwrap()
    });
    let got = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("recv_timeout never returned");
    assert!(matches!(got, Err(MqError::Timeout)), "{got:?}");
}

#[test]
fn concurrent_publishers_on_log_broker_keep_dense_offsets() {
    let broker = Arc::new(LogBroker::new());
    let mut handles = Vec::new();
    for t in 0..8 {
        let b = broker.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..250 {
                b.publish("t", None, payload(t * 1000 + i)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(broker.retained("t"), 2000);
    let all = broker.fetch("t", 0, 0, 5000).unwrap();
    assert_eq!(all.len(), 2000);
    for (i, m) in all.iter().enumerate() {
        assert_eq!(m.offset, i as u64, "offsets must be dense and ordered");
    }
}

#[test]
fn subscribers_see_every_message_once_each() {
    let broker = Arc::new(LogBroker::new());
    let subs: Vec<_> = (0..4)
        .map(|_| broker.subscribe("t", SubscribeMode::Latest).unwrap())
        .collect();
    let b = broker.clone();
    let publisher = std::thread::spawn(move || {
        for i in 0..500 {
            b.publish("t", None, payload(i)).unwrap();
        }
    });
    publisher.join().unwrap();
    for sub in &subs {
        let mut count = 0;
        while let Ok(m) = sub.recv_timeout(Duration::from_millis(100)) {
            assert_eq!(m.payload_str(), format!("m{count}"));
            count += 1;
            if count == 500 {
                break;
            }
        }
        assert_eq!(count, 500);
    }
}

#[test]
fn replay_races_with_live_publishing() {
    // Subscribers attach from the beginning while a publisher is running:
    // each must see a gapless, duplicate-free prefix-order stream.
    let broker = Arc::new(LogBroker::new());
    for i in 0..100 {
        broker.publish("t", None, payload(i)).unwrap();
    }
    let b = broker.clone();
    let publisher = std::thread::spawn(move || {
        for i in 100..400 {
            b.publish("t", None, payload(i)).unwrap();
            if i % 50 == 0 {
                std::thread::yield_now();
            }
        }
    });
    let mut subscribers = Vec::new();
    for _ in 0..4 {
        subscribers.push(broker.subscribe("t", SubscribeMode::Beginning).unwrap());
        std::thread::yield_now();
    }
    publisher.join().unwrap();
    for sub in &subscribers {
        let mut next = 0usize;
        while next < 400 {
            let m = sub
                .recv_timeout(Duration::from_secs(2))
                .expect("gapless stream");
            assert_eq!(m.payload_str(), format!("m{next}"), "no gaps, no dupes");
            next += 1;
        }
    }
}

#[test]
fn keyed_routing_is_consistent_under_concurrency() {
    let broker = Arc::new(LogBroker::with_default_partitions(4));
    let mut handles = Vec::new();
    for t in 0..4 {
        let b = broker.clone();
        handles.push(std::thread::spawn(move || {
            let key = Bytes::from(format!("agent-{t}").into_bytes());
            let mut partitions = std::collections::HashSet::new();
            for i in 0..200 {
                let r = b.publish("t", Some(key.clone()), payload(i)).unwrap();
                partitions.insert(r.partition);
            }
            partitions
        }));
    }
    for h in handles {
        let partitions = h.join().unwrap();
        assert_eq!(partitions.len(), 1, "a key must always hit one partition");
    }
}
