//! Seeded chaos soak: the exactly-once property of the real wire
//! protocol, verified across many fault schedules with per-seed
//! accounting. Every byte between an unmodified `RemoteBroker` and an
//! unmodified `BrokerServer` crosses the seeded fault relay
//! (`ginflow_net::fault`), which severs links mid-frame, delays frames
//! and refuses dials on a deterministic per-seed schedule, while the
//! subscriber must still see every published message exactly once, in
//! per-partition order.
//!
//! Any violated seed is a one-line repro:
//! `GINFLOW_FAULT_SEED=<n> cargo test -p ginflow-net --test chaos exactly_once`.

use bytes::Bytes;
use ginflow_mq::{Broker, SubscribeMode};
use ginflow_net::fault::{ChaosHarness, FaultPlan};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn usage() -> ! {
    println!("chaos_soak: exactly-once delivery under seeded sever storms, many seeds");
    println!("usage: chaos_soak [--seeds N] [--msgs M] [--base S]");
    println!("  --seeds N   fault schedules (default 10)");
    println!("  --msgs M    messages per schedule (default 400)");
    println!("  --base S    first seed (default GINFLOW_FAULT_SEED or 1)");
    std::process::exit(0);
}

/// The storm plan of the chaos test suite: repeated severs (half of
/// them mid-frame), latency jitter and dial-refusing partition windows
/// on a 300x compressed virtual clock.
fn storm() -> FaultPlan {
    FaultPlan {
        latency_us: (0, 3_000),
        time_scale: 300,
        drop_frame: 0.0,
        corrupt_frame: 0.0,
        sever_after_frames: Some((5, 12)),
        sever_after: Some((Duration::from_secs(2), Duration::from_secs(20))),
        midframe_sever: 0.5,
        partition: 0.10,
        partition_for: (Duration::from_millis(100), Duration::from_secs(1)),
        grace_frames: 4,
    }
}

struct SeedReport {
    seed: u64,
    wall: Duration,
    msgs: usize,
    links: u64,
    severs: u64,
    midframe: u64,
    frames: u64,
}

/// One exactly-once run under one schedule; Err carries the repro line.
fn soak_one(seed: u64, total: u64) -> Result<SeedReport, String> {
    let start = Instant::now();
    let h = ChaosHarness::new(seed, storm()).map_err(|e| format!("harness: {e}"))?;
    h.broker().create_topic("inbox", 2);
    let give_up = Instant::now() + Duration::from_secs(30);
    let subscriber = loop {
        match h.client("soak") {
            Ok(c) => break c,
            Err(e) if Instant::now() >= give_up => return Err(format!("never connected: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let sub = subscriber
        .subscribe("inbox", SubscribeMode::Beginning)
        .map_err(|e| format!("subscribe: {e}"))?;

    // Oracle-side burst publishes: one key per partition, so partition
    // watermarks are maximally skewed at every sever and each
    // reconnect's replay stresses the dedupe filter hardest.
    let mut expected: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut key_for: std::collections::HashMap<u32, String> = std::collections::HashMap::new();
    let mut i = 0u64;
    while key_for.len() < 2 || i < total {
        let key = if key_for.len() < 2 {
            format!("k{i}")
        } else {
            key_for[&u32::from(i >= total / 2)].clone()
        };
        let r = h
            .broker()
            .publish(
                "inbox",
                Some(Bytes::from(key.clone())),
                Bytes::from(i.to_string()),
            )
            .map_err(|e| format!("oracle publish: {e}"))?;
        key_for.entry(r.partition).or_insert(key);
        expected.insert((r.partition, r.offset));
        i += 1;
    }

    let n = expected.len();
    let outcome = h.with_deadline("soak", Duration::from_secs(120), move || {
        let mut received: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        while received.len() < n {
            let m = sub
                .recv_timeout(Duration::from_secs(20))
                .map_err(|e| format!("inbox went quiet: {e}"))?;
            if let Some(prev) = last.get(&m.partition) {
                if m.offset <= *prev {
                    return Err(format!(
                        "duplicate or reordered delivery: partition {} offset {} after {}",
                        m.partition, m.offset, prev
                    ));
                }
            }
            last.insert(m.partition, m.offset);
            received.insert((m.partition, m.offset));
        }
        Ok(received)
    });
    let received = outcome??;
    if received != expected {
        return Err("received set diverged from published set".into());
    }
    let stats = h.net().stats();
    Ok(SeedReport {
        seed,
        wall: start.elapsed(),
        msgs: n,
        links: stats.links,
        severs: stats.severs,
        midframe: stats.midframe_severs,
        frames: stats.frames,
    })
}

fn main() {
    // Read once per process: a tight backoff cap keeps redial sleeps
    // from dominating the soak, unbatched pushes give the fault
    // schedule one decision point per message.
    if std::env::var_os("GINFLOW_RECONNECT_CAP_MS").is_none() {
        std::env::set_var("GINFLOW_RECONNECT_CAP_MS", "100");
    }
    std::env::set_var("GINFLOW_NET_UNBATCHED", "1");

    let mut seeds = 10u64;
    let mut msgs = 400u64;
    let mut base = ginflow_net::fault::seed_from_env(1);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match a.as_str() {
            "--seeds" => seeds = num("--seeds").max(1),
            "--msgs" => msgs = num("--msgs").max(8),
            "--base" => base = num("--base"),
            _ => usage(),
        }
    }

    println!(
        "chaos soak: seeds {base}..{}, {msgs} msgs each",
        base + seeds
    );
    println!(
        "{:>10} {:>6} {:>9} {:>7} {:>7} {:>9} {:>9}",
        "seed", "msgs", "wall (s)", "links", "severs", "midframe", "frames"
    );
    let mut failures = Vec::new();
    for seed in base..base + seeds {
        match soak_one(seed, msgs) {
            Ok(r) => println!(
                "{:>10} {:>6} {:>9.3} {:>7} {:>7} {:>9} {:>9}",
                r.seed,
                r.msgs,
                r.wall.as_secs_f64(),
                r.links,
                r.severs,
                r.midframe,
                r.frames
            ),
            Err(e) => {
                println!("seed={seed} VIOLATION: {e}");
                failures.push((seed, e));
            }
        }
    }
    if failures.is_empty() {
        println!("all {seeds} schedules delivered exactly-once");
    } else {
        for (seed, e) in &failures {
            eprintln!(
                "FAILED seed {seed}: {e} \
                 (repro: GINFLOW_FAULT_SEED={seed} cargo test -p ginflow-net --test chaos exactly_once)"
            );
        }
        std::process::exit(1);
    }
}
