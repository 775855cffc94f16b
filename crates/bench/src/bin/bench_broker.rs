//! Broker transport A/B: a wide fan-out/fan-in over the in-process
//! `LogBroker` vs the same log behind the `ginflow-net` TCP daemon on
//! loopback (one engine, two sharded engines, and two concurrent
//! independent runs multiplexed on one daemon), plus a publish storm
//! isolating raw publish cost (blocking round trip vs pipelined
//! fire-and-forget) with msgs/sec and p50/p99 publish latency. Writes
//! `results/BENCH_net.csv`, then runs the durability sweep (in-memory
//! log vs the segment-backed log per fsync policy, same storm) into
//! `results/BENCH_durability.csv`.

use ginflow_bench::workload::{csv_rows, Sample, CSV_HEADER};
use ginflow_bench::{broker_net, csv, durability};

fn usage() -> ! {
    println!("bench_broker: in-process log broker vs TCP remote broker on a wide fan-out/fan-in");
    println!("usage: bench_broker [--quick] [--tasks N]");
    println!("  --quick     reduced scale (CI-sized, 202 tasks)");
    println!(
        "  --tasks N   total task count (default 1002); the publish storms run 10x N messages"
    );
    std::process::exit(0);
}

fn print_table(samples: &[Sample]) {
    println!(
        "{:<24} {:>7} {:>8} {:>10} {:>9} {:>10} {:>12} {:>9} {:>9} {:>9} {:>8}  metrics delta",
        "mode",
        "tasks",
        "workers",
        "wall (s)",
        "cpu (s)",
        "completed",
        "msgs/s",
        "p50 (us)",
        "p99 (us)",
        "rss (MiB)",
        "threads",
    );
    for s in samples {
        // The registry's view of the scenario next to the measured row:
        // daemon-side publish counts/bytes, store fsyncs and lag drops
        // observed while it ran (blank when no probe was taken).
        let delta = s
            .metrics
            .map(|d| {
                format!(
                    "msgs={} bytes={} fsyncs={} lagged={}",
                    d.msgs, d.bytes, d.fsyncs, d.lag_drops
                )
            })
            .unwrap_or_default();
        println!(
            "{:<24} {:>7} {:>8} {:>10.3} {:>9.3} {:>10} {:>12} {:>9} {:>9} {:>9} {:>8}  {}",
            s.mode,
            s.tasks,
            s.workers,
            s.wall_secs,
            s.cpu_secs,
            s.completed,
            s.msgs_per_sec
                .map(|v| format!("{v:.0}"))
                .unwrap_or_default(),
            s.p50_us.map(|v| format!("{v:.2}")).unwrap_or_default(),
            s.p99_us.map(|v| format!("{v:.2}")).unwrap_or_default(),
            s.rss_mib.map(|v| format!("{v:.1}")).unwrap_or_default(),
            s.threads.map(|t| t.to_string()).unwrap_or_default(),
            delta,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Internal re-exec: hold N silent connections open from a separate
    // process, so a 10k-connection storm's client fds don't count
    // against the measuring process's fd limit.
    if args.first().map(String::as_str) == Some("__idle_conns") {
        let addr = args.get(1).expect("__idle_conns ADDR N");
        let n: usize = args
            .get(2)
            .and_then(|v| v.parse().ok())
            .expect("conn count");
        broker_net::idle_conns_helper(addr, n);
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let mut tasks = if args.iter().any(|a| a == "--quick") {
        202
    } else {
        1002
    };
    if let Some(at) = args.iter().position(|a| a == "--tasks") {
        match args.get(at + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 3 => tasks = n,
            _ => {
                eprintln!("--tasks needs an integer argument >= 3");
                std::process::exit(2);
            }
        }
    }
    let samples = broker_net::run_with_tasks(tasks);
    print_table(&samples);
    let find = |mode: &str| samples.iter().find(|s| s.mode == mode);
    if let (Some(local), Some(remote)) = (find("local_log"), find("remote_1shard")) {
        if local.completed && remote.completed {
            println!(
                "\nnetwork membrane cost: {:.2}x wall vs in-process",
                remote.wall_secs / local.wall_secs.max(1e-9),
            );
        }
    }
    if let (Some(rtt), Some(pipelined)) = (find("storm_remote_rtt"), find("storm_remote_pipelined"))
    {
        println!(
            "pipelined publish: {:.1}x throughput vs blocking round trip ({:.0} vs {:.0} msgs/s)",
            pipelined.msgs_per_sec.unwrap_or(0.0) / rtt.msgs_per_sec.unwrap_or(f64::MAX),
            pipelined.msgs_per_sec.unwrap_or(0.0),
            rtt.msgs_per_sec.unwrap_or(0.0),
        );
    }
    if let (Some(on), Some(off)) = (
        find("storm_remote_pipelined"),
        find("storm_remote_nometrics"),
    ) {
        println!(
            "metrics overhead: instrumented pipelined storm runs at {:.2}x the uninstrumented rate ({:.0} vs {:.0} msgs/s)",
            on.msgs_per_sec.unwrap_or(0.0) / off.msgs_per_sec.unwrap_or(f64::MAX),
            on.msgs_per_sec.unwrap_or(0.0),
            off.msgs_per_sec.unwrap_or(0.0),
        );
    }
    let conn = |idle: usize| {
        samples
            .iter()
            .find(|s| s.mode == "connection_storm" && s.workers == idle)
    };
    if let Some(base) = conn(10) {
        for scale in [1000usize, 10_000] {
            if let Some(s) = conn(scale) {
                println!(
                    "connection storm @ {} idle conns: {:.2}x wall vs 10 ({:.0} msgs/s, rss {:.0} MiB)",
                    scale,
                    s.wall_secs / base.wall_secs.max(1e-9),
                    s.msgs_per_sec.unwrap_or(0.0),
                    s.rss_mib.unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(s) = samples
        .iter()
        .find(|s| s.mode == "client_scale" && s.workers == 128)
    {
        println!(
            "client scale @ 128 conns: {} process threads, {:.0} msgs/s",
            s.threads.map(|t| t.to_string()).unwrap_or_default(),
            s.msgs_per_sec.unwrap_or(0.0),
        );
    }
    csv::write_csv("results/BENCH_net.csv", &CSV_HEADER, &csv_rows(&samples))
        .expect("write results/BENCH_net.csv");
    println!("\nwrote results/BENCH_net.csv");

    // Durability sweep: the same publish storm against the in-memory
    // log and the segment-backed log per fsync policy. Floored at 20k
    // messages: the CI gate divides two throughputs, and a sub-ms
    // timed window at smoke scale is too noisy to hold a ratio steady.
    println!();
    let mut durability = durability::run_with_msgs((tasks * 10).max(20_000));
    // Cold-read fetch latency on a large sealed segment, old 64-record
    // index stride vs the current 16 — the read-path A/B row pair.
    durability.extend(durability::run_read_path((tasks * 10).max(20_000), 2_000));
    print_table(&durability);
    let dfind = |mode: &str| durability.iter().find(|s| s.mode == mode);
    if let (Some(memory), Some(interval)) = (dfind("durable_memory"), dfind("durable_interval")) {
        println!(
            "\ninterval-fsync durability: {:.2}x the in-memory publish rate ({:.0} vs {:.0} msgs/s)",
            interval.msgs_per_sec.unwrap_or(0.0) / memory.msgs_per_sec.unwrap_or(f64::MAX),
            interval.msgs_per_sec.unwrap_or(0.0),
            memory.msgs_per_sec.unwrap_or(0.0),
        );
    }
    if let (Some(always), Some(never)) = (dfind("durable_always"), dfind("durable_never")) {
        println!(
            "per-publish msync (always) costs {:.1}x vs never ({:.0} vs {:.0} msgs/s)",
            never.msgs_per_sec.unwrap_or(0.0) / always.msgs_per_sec.unwrap_or(f64::MAX),
            always.msgs_per_sec.unwrap_or(0.0),
            never.msgs_per_sec.unwrap_or(0.0),
        );
    }
    if let (Some(coarse), Some(fine)) = (dfind("read_seek_64"), dfind("read_seek_16")) {
        println!(
            "cold-read index stride: 16-record index fetches at {:.2}x the 64-record p50 ({:.2} vs {:.2} us)",
            coarse.p50_us.unwrap_or(0.0) / fine.p50_us.unwrap_or(f64::MAX),
            fine.p50_us.unwrap_or(0.0),
            coarse.p50_us.unwrap_or(0.0),
        );
    }
    csv::write_csv(
        "results/BENCH_durability.csv",
        &CSV_HEADER,
        &csv_rows(&durability),
    )
    .expect("write results/BENCH_durability.csv");
    println!("\nwrote results/BENCH_durability.csv");
}
