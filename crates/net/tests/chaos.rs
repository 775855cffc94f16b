//! Seeded chaos properties over the **real** wire protocol: an
//! unmodified `BrokerServer` and unmodified `RemoteBroker`s run through
//! `ginflow_net::fault`'s seeded chaos relay —
//! latency, severs (clean and mid-frame), partitions, reconnect storms
//! — while these tests check the delivery contracts as properties:
//!
//! * **exactly-once inbox delivery** — per-partition offsets strictly
//!   increase at the subscriber (the offset-watermark dedupe absorbs
//!   reconnect replay) and the received set equals the published set;
//! * **loss-ledger accuracy** — after a chaotic pipelined storm,
//!   `sent - reported_lost ≤ retained ≤ sent` against the broker
//!   oracle (the ledger may over-report: a publish whose RECEIPT died
//!   with the connection was still appended);
//! * **bounded flush** — a stalled connection surfaces
//!   `MqError::FlushTimeout`, never a hang;
//! * **completion or structured failure, never a hang** — every
//!   scenario runs under a watchdog deadline.
//!
//! Every failure message carries the seed: re-run any failing property
//! with `GINFLOW_FAULT_SEED=<n> GINFLOW_CHAOS_SEEDS=1` to replay its
//! schedule. `GINFLOW_CHAOS_SEEDS=<k>` widens the sweep (each property
//! runs seeds `base..base+k`; CI prints the base it chose).
//!
//! The `#[ignore]`d `dedupe_regression_is_caught` test is the
//! harness's own validation: it disables the watermark dedupe (a
//! deliberately injected regression) and asserts the exactly-once
//! property *fails* with a printed one-line repro. CI runs it
//! explicitly via `-- --ignored`.

use bytes::Bytes;
use ginflow_mq::{Broker, MqError, SubscribeMode};
use ginflow_net::fault::{seed_from_env, ChaosHarness, ChaosNet, FaultPlan};
use ginflow_net::RemoteBroker;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chaos scenarios share the process-global metrics registry, the
/// reactor thread and (in the regression test) the dedupe switch —
/// serialize them.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    // Chaos churns connections orders of magnitude faster than a real
    // daemon outage; a tight backoff cap keeps redial sleeps from
    // dominating wall clock (read once per process — set before the
    // first client is built, unless the operator pinned their own).
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var_os("GINFLOW_RECONNECT_CAP_MS").is_none() {
            std::env::set_var("GINFLOW_RECONNECT_CAP_MS", "100");
        }
        // One EVENT frame per message: push coalescing would fold a
        // whole subscription stream into a handful of jumbo frames,
        // starving the per-frame fault schedule of decision points.
        // Unbatched, every message is a place the plan can drop,
        // corrupt, delay or cut.
        std::env::set_var("GINFLOW_NET_UNBATCHED", "1");
    });
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Seeds to sweep per property: `base..base + count`, with
/// `base` from `GINFLOW_FAULT_SEED` (default 1) and `count` from
/// `GINFLOW_CHAOS_SEEDS` (default `default_count` — modest, so plain
/// `cargo test` stays fast; CI and soak runs crank it up).
fn seeds(default_count: u64) -> Vec<u64> {
    let base = seed_from_env(1);
    let count = std::env::var("GINFLOW_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(default_count);
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

/// Sever-heavy but byte-faithful plan: over TCP, bytes cannot vanish
/// without the connection dying, so the delivery properties run under
/// latency + severs + partitions with `drop_frame`/`corrupt_frame` 0.
fn sever_storm() -> FaultPlan {
    FaultPlan {
        latency_us: (0, 3_000),
        time_scale: 300,
        drop_frame: 0.0,
        corrupt_frame: 0.0,
        // The server coalesces pushes, so a 200-message stream is only
        // a handful of wire frames — keep the budget low enough that
        // severs land *inside* a batched subscription stream.
        sever_after_frames: Some((5, 12)),
        sever_after: Some((Duration::from_secs(2), Duration::from_secs(20))),
        midframe_sever: 0.5,
        partition: 0.10,
        partition_for: (Duration::from_millis(100), Duration::from_secs(1)),
        grace_frames: 4,
    }
}

/// Dial through the chaos layer until the handshake survives a link —
/// under aggressive sever schedules the *initial* connect can
/// legitimately fail (the INFO round trip rides a link that may die
/// under it); production shards retry exactly the same way.
fn connect_client(h: &ChaosHarness, name: &str) -> Result<RemoteBroker, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match h.client(name) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!(
                    "client {name} never connected: {e} \
                     (repro: GINFLOW_FAULT_SEED={})",
                    h.seed()
                ));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The exactly-once property, factored so the dedupe-regression test
/// can run the same scenario and expect it to fail. Publishes `total`
/// keyed messages into a 2-partition topic straight into the broker
/// (the oracle side), consumes them through a chaos-wrapped
/// subscriber, and checks: per-partition offsets strictly increase
/// (no duplicate, no reorder) and the received set equals the
/// published set (no loss, no invention).
fn exactly_once_run(seed: u64, total: u64) -> Result<(), String> {
    let h = ChaosHarness::new(seed, sever_storm()).map_err(|e| format!("harness: {e}"))?;
    h.broker().create_topic("inbox", 2);
    let subscriber = connect_client(&h, "subscriber")?;
    let sub = subscriber
        .subscribe("inbox", SubscribeMode::Beginning)
        .map_err(|e| format!("subscribe: {e} (repro: GINFLOW_FAULT_SEED={seed})"))?;

    // Publish on the oracle side (no chaos): the test is about the
    // subscriber's chaotic inbox, and the receipts are ground truth.
    //
    // Probe for one key per partition, then publish in two long
    // per-partition bursts. At any sever point the partition
    // watermarks are maximally skewed, so the reconnect resume
    // (`FromOffset` of the *lowest* watermark) replays a long prefix
    // of the finished partition — the watermark dedupe filter has to
    // absorb all of it, and a broken filter trips the property on
    // essentially every seed that severs mid-stream.
    let mut expected: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut key_for: std::collections::HashMap<u32, String> = std::collections::HashMap::new();
    let mut probes = 0u64;
    while key_for.len() < 2 {
        let key = format!("k{probes}");
        let r = h
            .broker()
            .publish(
                "inbox",
                Some(Bytes::from(key.clone())),
                Bytes::from(probes.to_string()),
            )
            .map_err(|e| format!("oracle publish: {e}"))?;
        key_for.entry(r.partition).or_insert(key);
        expected.insert((r.partition, r.offset));
        probes += 1;
        if probes > 64 {
            return Err("probe keys never landed on both partitions".into());
        }
    }
    let keys: Vec<String> = key_for.into_values().collect();
    for i in probes..total {
        let key = keys[usize::from(i >= total / 2)].clone();
        let r = h
            .broker()
            .publish("inbox", Some(Bytes::from(key)), Bytes::from(i.to_string()))
            .map_err(|e| format!("oracle publish: {e}"))?;
        expected.insert((r.partition, r.offset));
    }

    let n = expected.len();
    let seed_for_err = seed;
    let outcome = h.with_deadline("exactly-once", Duration::from_secs(90), move || {
        let mut received: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        while received.len() < n {
            let m = sub.recv_timeout(Duration::from_secs(20)).map_err(|e| {
                format!(
                    "inbox went quiet before completion: {e} \
                     (delivered {}/{n})",
                    received.len()
                )
            })?;
            if let Some(prev) = last.get(&m.partition) {
                if m.offset <= *prev {
                    return Err(format!(
                        "duplicate or reordered delivery: partition {} offset {} \
                         after {} — exactly-once violated",
                        m.partition, m.offset, prev
                    ));
                }
            }
            last.insert(m.partition, m.offset);
            received.insert((m.partition, m.offset));
        }
        Ok(received)
    });
    let received =
        outcome?.map_err(|e| format!("{e} (repro: GINFLOW_FAULT_SEED={seed_for_err})"))?;
    if received != expected {
        return Err(format!(
            "received set diverged from published set \
             (repro: GINFLOW_FAULT_SEED={seed_for_err})"
        ));
    }
    let stats = h.net().stats();
    if stats.links < 1 {
        return Err(format!("chaos layer saw no links (seed {seed_for_err})"));
    }
    Ok(())
}

#[test]
fn exactly_once_inbox_delivery_under_sever_storms() {
    let _g = gate();
    for seed in seeds(6) {
        println!("chaos[exactly-once] seed={seed}");
        if let Err(e) = exactly_once_run(seed, 200) {
            panic!("exactly-once violated: {e}");
        }
    }
}

#[test]
fn loss_ledger_accounts_for_every_unacked_publish() {
    let _g = gate();
    for seed in seeds(6) {
        println!("chaos[loss-ledger] seed={seed}");
        let h = ChaosHarness::new(seed, sever_storm()).unwrap();
        let client = connect_client(&h, "publisher").unwrap_or_else(|e| panic!("loss-ledger: {e}"));
        let client = Arc::new(client);
        let publisher = client.clone();
        let sent = h
            .with_deadline("ledger-publish", Duration::from_secs(120), move || {
                let mut ok = 0u64;
                for i in 0..400u64 {
                    if publisher
                        .publish_nowait("ledger", None, Bytes::from(i.to_string()))
                        .is_ok()
                    {
                        ok += 1;
                    }
                }
                ok
            })
            .unwrap_or_else(|hang| panic!("{hang}"));

        // Heal the network, then drain the pipeline, summing every
        // ledger report until a clean flush.
        h.net().heal();
        let flusher = client.clone();
        let seed_c = seed;
        let lost = h
            .with_deadline("ledger-flush", Duration::from_secs(60), move || {
                let mut lost = 0u64;
                loop {
                    match flusher.flush() {
                        Ok(()) => return Ok(lost),
                        Err(MqError::Remote { message }) => {
                            let n: u64 = message
                                .split_whitespace()
                                .next()
                                .and_then(|w| w.parse().ok())
                                .ok_or(format!("unparseable ledger report: {message}"))?;
                            lost += n;
                        }
                        Err(MqError::FlushTimeout { .. }) | Err(MqError::Timeout) => {}
                        Err(e) => {
                            return Err(format!(
                                "flush failed structurally: {e} \
                                 (repro: GINFLOW_FAULT_SEED={seed_c})"
                            ))
                        }
                    }
                }
            })
            .unwrap_or_else(|hang| panic!("{hang}"))
            .unwrap_or_else(|e| panic!("{e}"));

        let retained = h.broker().retained("ledger");
        assert!(
            retained <= sent,
            "broker retained {retained} > {sent} sent — publishes duplicated \
             (repro: GINFLOW_FAULT_SEED={seed})"
        );
        assert!(
            retained >= sent.saturating_sub(lost),
            "ledger under-reported: {sent} sent, {lost} reported lost, but only \
             {retained} retained (repro: GINFLOW_FAULT_SEED={seed})"
        );
    }
}

#[test]
fn flush_surfaces_structured_timeout_instead_of_hanging() {
    let _g = gate();
    // Deterministic stall: the handshake passes inside the grace
    // window, then every frame is delayed far past the flush budget.
    // Exactly one grace frame per direction: the INFO handshake round
    // trip passes clean, the PUBLISH after it stalls for 30 s.
    let stalled = FaultPlan {
        latency_us: (30_000_000, 30_000_000),
        time_scale: 1,
        grace_frames: 1,
        ..FaultPlan::calm()
    };
    let h = ChaosHarness::new(11, stalled).unwrap();
    let client = h.client("staller").unwrap();
    client.set_flush_timeout(Duration::from_millis(300));
    client
        .publish_nowait("t", None, Bytes::from_static(b"stuck"))
        .unwrap();
    let started = Instant::now();
    match client.flush() {
        Err(MqError::FlushTimeout {
            inflight,
            waited_ms,
        }) => {
            assert!(inflight >= 1, "timed out with nothing in flight");
            assert!(
                (250..30_000).contains(&waited_ms),
                "waited_ms={waited_ms} outside the configured budget"
            );
        }
        other => panic!("expected FlushTimeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "flush did not respect its bound"
    );
}

#[test]
fn reconnect_storms_are_counted_and_bounded() {
    let _g = gate();
    let metric = ginflow_mq::metrics::global().counter(
        "gf_client_reconnects_total",
        "Connections re-established by the client after a drop",
    );
    let before = metric.get();
    let h = ChaosHarness::new(13, sever_storm()).unwrap();
    let client = connect_client(&h, "stormer").unwrap_or_else(|e| panic!("reconnect-storm: {e}"));
    let client = Arc::new(client);
    let driver = client.clone();
    // Keep traffic flowing until the chaos layer has severed the
    // link several times; each recovery is a reconnect.
    let net: Arc<ChaosNet> = h.net().clone();
    h.with_deadline("storm", Duration::from_secs(60), move || {
        let mut i = 0u64;
        while net.stats().severs < 5 {
            let _ = driver.publish("t", None, Bytes::from(i.to_string()));
            i += 1;
        }
    })
    .unwrap_or_else(|hang| panic!("{hang}"));
    h.net().heal();
    // The healed client must still work (the backoff cap bounds
    // how stale a storm can leave it)…
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if client
            .publish("t", None, Bytes::from_static(b"post"))
            .is_ok()
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "client wedged after reconnect storm"
        );
    }
    // …and the storm must be visible on the shared counter.
    assert!(
        metric.get() > before,
        "gf_client_reconnects_total never moved during a sever storm"
    );
}

#[test]
fn corruption_blast_radius_is_one_connection() {
    let _g = gate();
    for seed in seeds(4) {
        println!("chaos[blast-radius] seed={seed}");
        let corrupting = FaultPlan {
            latency_us: (0, 500),
            time_scale: 100,
            corrupt_frame: 0.3,
            // Severs unstick connections wedged by a corrupted length
            // prefix (a too-large length just waits for bytes that
            // never come — over real TCP only a FIN resolves that).
            sever_after_frames: Some((20, 80)),
            sever_after: Some((Duration::from_millis(500), Duration::from_secs(2))),
            midframe_sever: 0.5,
            grace_frames: 4,
            ..FaultPlan::calm()
        };
        let h = ChaosHarness::new(seed, corrupting).unwrap();

        // The victim: a production client on a *clean* in-process
        // connection to the same daemon (no chaos in its path).
        let server = h.server().clone();
        let clean = RemoteBroker::connect_with(Box::new(move || server.connect_in_process()))
            .expect("clean connect");
        let clean_sub = clean.subscribe("clean", SubscribeMode::Beginning).unwrap();

        // The attacker: a chaos client whose frames are corrupted in
        // both directions. Its own calls may fail arbitrarily; the
        // process and the daemon must shrug.
        if let Ok(noisy) = connect_client(&h, "corruptor") {
            std::thread::spawn(move || {
                let stop = Instant::now() + Duration::from_millis(1500);
                let mut i = 0u64;
                while Instant::now() < stop {
                    let _ = noisy.publish_nowait("noise", None, Bytes::from(i.to_string()));
                    let _ = noisy.flush();
                    i += 1;
                }
                noisy.shutdown();
            });
        }

        // Meanwhile every operation on the clean connection succeeds.
        for i in 0..50u64 {
            clean
                .publish("clean", None, Bytes::from(i.to_string()))
                .unwrap_or_else(|e| {
                    panic!(
                        "clean connection failed while a peer was corrupted: {e} \
                         (repro: GINFLOW_FAULT_SEED={seed})"
                    )
                });
            let m = clean_sub
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| {
                    panic!(
                        "clean subscription starved during corruption storm: {e} \
                         (repro: GINFLOW_FAULT_SEED={seed})"
                    )
                });
            assert_eq!(m.payload_str(), i.to_string(), "seed {seed}");
        }
        let stats = h.net().stats();
        assert!(
            stats.corrupted > 0 || stats.severs > 0,
            "corruption plan injected nothing (seed {seed})"
        );
    }
}

/// Validation of the harness itself: break the watermark dedupe (the
/// deliberately injected regression from the acceptance criteria) and
/// the exactly-once property must fail, printing a one-line repro.
/// `#[ignore]`d so ordinary runs keep the production dedupe untouched;
/// CI runs it as its own process via `-- --ignored dedupe`.
#[test]
#[ignore = "deliberately breaks the dedupe filter; run explicitly"]
fn dedupe_regression_is_caught() {
    let _g = gate();
    ginflow_net::client::set_watermark_dedupe(false);
    let mut caught = None;
    for seed in seeds(12) {
        println!("chaos[dedupe-regression] seed={seed}");
        if let Err(e) = exactly_once_run(seed, 200) {
            println!(
                "regression caught: {e}\n\
                 repro: GINFLOW_FAULT_SEED={seed} cargo test -p ginflow-net \
                 --test chaos exactly_once"
            );
            caught = Some(e);
            break;
        }
    }
    ginflow_net::client::set_watermark_dedupe(true);
    assert!(
        caught.is_some(),
        "disabling the watermark dedupe was not detected by the exactly-once \
         property — the chaos suite lost its teeth"
    );
}
