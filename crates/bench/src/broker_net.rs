//! Broker-transport A/B: the same fan-out/fan-in coordination workload
//! over (a) the in-process persistent log, (b) the same log behind the
//! `ginflow-net` TCP daemon on loopback, one process-equivalent engine,
//! (c) two sharded engines splitting the agents over that daemon, and
//! (d) two *independent concurrent runs* (distinct run-scoped topic
//! namespaces) multiplexed onto one daemon — plus a **publish storm**
//! isolating raw publish cost: the same message count through the
//! in-process log, the blocking RECEIPT-round-trip remote path, and the
//! pipelined fire-and-forget remote path (`publish_nowait` + `flush`).
//!
//! Every workflow task is a zero-work tracing stub, so the numbers
//! isolate what the network membrane costs (publish round trips, EVENT
//! push latency), what sharding buys back once agents are split across
//! engines, and what multi-run tenancy costs a standing daemon versus
//! serving one run. The storm rows add msgs/sec throughput and p50/p99
//! per-publish latency; the **connection storm** rows re-run the
//! pipelined storm with 10 / 1k / 10k idle connections parked on the
//! daemon's event loop, adding process RSS — the flat-memory,
//! flat-throughput claim at 10k+ connections. Emits
//! `results/BENCH_net.csv`.

use crate::workload::{fan_out_fan_in, process_cpu, process_threads, MetricsProbe, Sample};
use ginflow_core::ServiceRegistry;
use ginflow_engine::{Backend, Engine, RunId};
use ginflow_mq::{Broker, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry() -> Arc<ServiceRegistry> {
    Arc::new(ServiceRegistry::tracing_for(["s"]))
}

fn sample(
    mode: &str,
    width: usize,
    workers: usize,
    wall: Duration,
    cpu: Duration,
    ok: bool,
) -> Sample {
    Sample::workflow(mode, width + 2, workers, wall, cpu, ok)
}

/// (a) the baseline: one engine over the in-process log broker.
pub fn run_local(width: usize, workers: usize, timeout: Duration) -> Sample {
    let wf = fan_out_fan_in(width);
    let engine = Engine::builder()
        .broker(Arc::new(LogBroker::new()) as Arc<dyn Broker>)
        .registry(registry())
        .workers(workers)
        .deadline(timeout)
        .build();
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let report = engine.launch(&wf).join();
    let mut out = sample(
        "local_log",
        width,
        workers,
        report.wall,
        process_cpu().saturating_sub(cpu0),
        report.completed,
    );
    out.metrics = Some(probe.delta());
    out
}

/// (b) the same log behind the TCP daemon, one engine (1 "shard").
pub fn run_remote(width: usize, workers: usize, timeout: Duration) -> Sample {
    let wf = fan_out_fan_in(width);
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let remote = RemoteBroker::connect(&server.local_addr().to_string()).expect("connect");
    let engine = Engine::builder()
        .broker(Arc::new(remote))
        .registry(registry())
        .workers(workers)
        .deadline(timeout)
        .build();
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let report = engine.launch(&wf).join();
    let mut out = sample(
        "remote_1shard",
        width,
        workers,
        report.wall,
        process_cpu().saturating_sub(cpu0),
        report.completed,
    );
    out.metrics = Some(probe.delta());
    server.stop();
    out
}

/// (c) two sharded engines splitting the agents, one TCP daemon between
/// them. Wall time is launch → both engines observing completion.
pub fn run_remote_sharded(width: usize, workers: usize, timeout: Duration) -> Sample {
    let wf = fan_out_fan_in(width);
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let engine = |shard: u32| {
        let remote =
            RemoteBroker::connect(&server.local_addr().to_string()).expect("connect shard");
        Engine::builder()
            .broker(Arc::new(remote))
            .registry(registry())
            .workers(workers)
            .run_id(RunId::new("bench-sharded").expect("valid run id"))
            .backend(Backend::Sharded { shard, of: 2 })
            .deadline(timeout)
            .build()
    };
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let started = Instant::now();
    let run0 = engine(0).launch(&wf);
    let run1 = engine(1).launch(&wf);
    let report0 = run0.join();
    let report1 = run1.join();
    let wall = started.elapsed();
    let mut out = sample(
        "remote_2shard",
        width,
        workers,
        wall,
        process_cpu().saturating_sub(cpu0),
        report0.completed && report1.completed,
    );
    out.metrics = Some(probe.delta());
    server.stop();
    out
}

/// (d) two *concurrent independent runs* on one daemon: same workload
/// twice, each under its own run-scoped topic namespace, racing on the
/// shared log. Wall time is launch → both runs observing completion;
/// each run's tasks count separately (the daemon handles 2× traffic).
/// Compares against [`run_remote`] to price multi-run tenancy.
pub fn run_two_runs(width: usize, workers: usize, timeout: Duration) -> Sample {
    let wf = fan_out_fan_in(width);
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let engine = |run: &str| {
        let remote = RemoteBroker::connect(&server.local_addr().to_string()).expect("connect run");
        Engine::builder()
            .broker(Arc::new(remote))
            .registry(registry())
            .workers(workers)
            .run_id(RunId::new(run).expect("valid run id"))
            .deadline(timeout)
            .build()
    };
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let started = Instant::now();
    let run_a = engine("bench-run-a").launch(&wf);
    let run_b = engine("bench-run-b").launch(&wf);
    let report_a = run_a.join();
    let report_b = run_b.join();
    let wall = started.elapsed();
    let ok = report_a.completed
        && report_b.completed
        // Isolation: neither run observed the other's tasks or events.
        && report_a.tasks.len() == wf.dag().len()
        && report_b.tasks.len() == wf.dag().len();
    let cpu = process_cpu().saturating_sub(cpu0);
    let mut out = sample("remote_2runs", width, workers, wall, cpu, ok);
    out.metrics = Some(probe.delta());
    server.stop();
    out
}

/// 64-byte storm payload — the size class of a real status update.
fn storm_payload() -> bytes::Bytes {
    bytes::Bytes::from_static(&[0x42; 64])
}

/// Drive `msgs` publishes through `publish_one`, timing each; a final
/// `flush` closes the pipeline before the clock stops, so fire-and-
/// forget paths are charged for their whole in-flight window. Publish
/// and flush errors mark the row `completed=false` — a transport that
/// fails fast must not report as a fast transport.
fn storm(
    mode: &str,
    msgs: usize,
    broker: &dyn Broker,
    publish_one: impl Fn(&dyn Broker, &str, bytes::Bytes) -> bool,
) -> Sample {
    let mut latencies_us = Vec::with_capacity(msgs);
    let mut errors = 0usize;
    let probe = MetricsProbe::start();
    let cpu0 = process_cpu();
    let started = Instant::now();
    for _ in 0..msgs {
        let t0 = Instant::now();
        if !publish_one(broker, "run/storm/status", storm_payload()) {
            errors += 1;
        }
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let flushed = broker.flush().is_ok();
    let wall = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let mut out = Sample::storm(
        mode,
        msgs,
        wall,
        cpu,
        errors == 0 && flushed,
        &mut latencies_us,
    );
    out.metrics = Some(probe.delta());
    out
}

/// The publish storm: raw publish cost of the three paths, same
/// message count each — (1) in-process log, (2) remote **blocking**
/// publish (one RECEIPT round trip per message: the pre-pipelining hot
/// path, kept as the A/B baseline), (3) remote **pipelined**
/// `publish_nowait` (windowed fire-and-forget, acks consumed
/// asynchronously, one `flush` at the end).
pub fn run_publish_storm(msgs: usize) -> Vec<Sample> {
    let local = LogBroker::new();
    let mut out = vec![storm("storm_local_log", msgs, &local, |b, t, p| {
        b.publish(t, None, p).is_ok()
    })];

    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let remote = RemoteBroker::connect(&server.local_addr().to_string()).expect("connect");
    out.push(storm("storm_remote_rtt", msgs, &remote, |b, t, p| {
        b.publish(t, None, p).is_ok()
    }));
    out.push(storm("storm_remote_pipelined", msgs, &remote, |b, t, p| {
        b.publish_nowait(t, None, p).is_ok()
    }));
    // The same pipelined storm with instrumentation writes switched off
    // — the A/B that prices the relaxed-atomic hot path. CI gates the
    // instrumented row at >= 0.9x this one's throughput.
    let was = ginflow_mq::metrics::set_enabled(false);
    out.push(storm("storm_remote_nometrics", msgs, &remote, |b, t, p| {
        b.publish_nowait(t, None, p).is_ok()
    }));
    ginflow_mq::metrics::set_enabled(was);
    server.stop();
    out
}

/// Raise this process's fd soft limit towards `want` (capped by the
/// hard limit) — a 10k-connection storm holds both ends of every
/// socket in one process, and default soft limits (often 1024) are far
/// too small. Best-effort; the storm surfaces any residual shortfall
/// as failed connects.
fn raise_fd_limit(want: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut r = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut r) != 0 || r.cur >= want {
            return;
        }
        if r.max < want {
            // Raising the hard limit needs CAP_SYS_RESOURCE; try it,
            // then re-read whatever the kernel actually granted.
            let bigger = Rlimit {
                cur: want,
                max: want,
            };
            let _ = setrlimit(RLIMIT_NOFILE, &bigger);
            if getrlimit(RLIMIT_NOFILE, &mut r) != 0 || r.cur >= want {
                return;
            }
        }
        r.cur = want.min(r.max);
        let _ = setrlimit(RLIMIT_NOFILE, &r);
    }
}

fn current_fd_limit() -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    }
    let mut r = Rlimit { cur: 0, max: 0 };
    if unsafe { getrlimit(7, &mut r) } != 0 {
        return u64::MAX;
    }
    r.cur
}

/// The silent clients of a connection storm. In-process raw sockets
/// when the fd budget allows (both socket ends count against this
/// process); past that, a child process (`bench_broker __idle_conns`)
/// holds the client ends, so only the daemon-side fds land in our
/// table — how 10k connections fit under a 20k hard fd limit.
enum IdlePopulation {
    /// Held only to keep the sockets open for the storm's duration.
    #[allow(dead_code)]
    InProcess(Vec<std::net::TcpStream>),
    Child(std::process::Child),
}

impl IdlePopulation {
    fn connect(addr: std::net::SocketAddr, idle: usize) -> IdlePopulation {
        raise_fd_limit(idle as u64 * 2 + 512);
        if idle as u64 * 2 + 512 <= current_fd_limit() {
            return IdlePopulation::InProcess(
                (0..idle)
                    .map(|_| std::net::TcpStream::connect(addr).expect("idle connect"))
                    .collect(),
            );
        }
        let exe = std::env::current_exe().expect("current_exe for idle-conn helper");
        let mut child = std::process::Command::new(exe)
            .args(["__idle_conns", &addr.to_string(), &idle.to_string()])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn idle-conn helper");
        // The helper prints one line once every socket is connected.
        let mut ready = String::new();
        std::io::BufRead::read_line(
            &mut std::io::BufReader::new(child.stdout.take().expect("helper stdout")),
            &mut ready,
        )
        .expect("helper readiness");
        assert_eq!(ready.trim(), "ready", "idle-conn helper failed to connect");
        IdlePopulation::Child(child)
    }
}

impl Drop for IdlePopulation {
    fn drop(&mut self) {
        if let IdlePopulation::Child(child) = self {
            // Closing its stdin unblocks the helper; reap it.
            drop(child.stdin.take());
            let _ = child.wait();
        }
    }
}

/// The idle-conn helper body, called by `bench_broker` when invoked as
/// `__idle_conns ADDR N`: connect `n` silent sockets, report readiness
/// on stdout, hold them open until stdin closes.
pub fn idle_conns_helper(addr: &str, n: usize) {
    raise_fd_limit(n as u64 + 512);
    let conns: Vec<std::net::TcpStream> = (0..n)
        .map(|_| std::net::TcpStream::connect(addr).expect("helper connect"))
        .collect();
    println!("ready");
    let mut sink = String::new();
    let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
    drop(conns);
}

/// The connection storm: `idle` connected-but-silent raw sockets parked
/// on the daemon, then the pipelined publish storm from one live client
/// — does the hot path stay flat as the fd table grows? One set of
/// connections serves all `REPEAT` storm repetitions (reconnecting
/// 10k sockets per repetition would measure TIME_WAIT churn, not the
/// daemon), the row keeps the best repetition, the `workers` column
/// carries the idle-connection count, and `rss_mib` records this
/// process's resident set with every connection still open — the
/// daemon side of the flat-memory claim in one number.
pub fn run_connection_storm(idle: usize, msgs: usize) -> Sample {
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let addr = server.local_addr();
    let idles = IdlePopulation::connect(addr, idle);
    let remote = RemoteBroker::connect(&addr.to_string()).expect("connect");
    let mut best = (0..REPEAT)
        .map(|_| {
            storm("connection_storm", msgs, &remote, |b, t, p| {
                b.publish_nowait(t, None, p).is_ok()
            })
        })
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .expect("REPEAT >= 1");
    best.workers = idle;
    best.rss_mib = crate::workload::process_rss_mib();
    drop(idles);
    server.stop();
    best
}

/// The client-scale storm: `n` live `RemoteBroker`s in *one* process,
/// all publishing a pipelined storm round-robin, then sitting idle
/// while the row is stamped. The `workers` column carries `n`, and
/// `threads` records `/proc/self/status` with every client still
/// connected — under the shared reactor that count stays flat in `n`
/// (one loop thread however many connections). CI gates the
/// 128-connection row at ≤ 6 process threads.
pub fn run_client_scale(n: usize, msgs: usize) -> Sample {
    raise_fd_limit(n as u64 * 2 + 512);
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .expect("bind loopback broker");
    let addr = server.local_addr().to_string();
    let clients: Vec<RemoteBroker> = (0..n)
        .map(|_| RemoteBroker::connect(&addr).expect("connect client-scale client"))
        .collect();
    // One connection set serves all repetitions — reconnect churn is
    // not what this row measures.
    let mut best = (0..REPEAT)
        .map(|_| {
            let mut latencies_us = Vec::with_capacity(msgs);
            let mut errors = 0usize;
            let cpu0 = process_cpu();
            let started = Instant::now();
            for i in 0..msgs {
                let t0 = Instant::now();
                if clients[i % n]
                    .publish_nowait("run/storm/status", None, storm_payload())
                    .is_err()
                {
                    errors += 1;
                }
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let flushed = clients.iter().all(|c| c.flush().is_ok());
            let wall = started.elapsed();
            let cpu = process_cpu().saturating_sub(cpu0);
            Sample::storm(
                "client_scale",
                msgs,
                wall,
                cpu,
                errors == 0 && flushed,
                &mut latencies_us,
            )
        })
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .expect("REPEAT >= 1");
    best.workers = n;
    best.rss_mib = crate::workload::process_rss_mib();
    best.threads = process_threads();
    drop(clients);
    server.stop();
    best
}

/// How often each scenario runs; the reported row is the repetition
/// with the lowest wall time. Scheduling noise on a shared box only
/// ever *adds* time, so the minimum is the cleanest view of what the
/// transport itself costs.
pub(crate) const REPEAT: usize = 5;

pub(crate) fn best_of(f: impl Fn() -> Sample) -> Sample {
    (0..REPEAT)
        .map(|_| f())
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
        .expect("REPEAT >= 1")
}

/// The whole campaign at one scale: the four workflow transports plus
/// the publish storm at 10× the task count, each scenario the best of
/// `REPEAT` repetitions.
pub fn run_with_tasks(tasks: usize) -> Vec<Sample> {
    let width = tasks.saturating_sub(2).max(1);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let timeout = Duration::from_secs(600);
    let mut samples = vec![
        best_of(|| run_local(width, workers, timeout)),
        best_of(|| run_remote(width, workers, timeout)),
        best_of(|| run_remote_sharded(width, workers, timeout)),
        best_of(|| run_two_runs(width, workers, timeout)),
    ];
    // The storm scenarios repeat as a set (each repetition shares one
    // daemon), then the best repetition is picked per mode. Floored at
    // 20k messages like the durability sweep: CI divides storm
    // throughputs (pipelined/rtt, instrumented/uninstrumented), and a
    // low-single-digit-ms timed window is too noisy to hold a ratio.
    let storms: Vec<Vec<Sample>> = (0..REPEAT)
        .map(|_| run_publish_storm((tasks * 10).max(20_000)))
        .collect();
    for mode_idx in 0..storms[0].len() {
        let best = storms
            .iter()
            .map(|rep| rep[mode_idx].clone())
            .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
            .expect("REPEAT >= 1");
        samples.push(best);
    }
    // Connection storms: the same pipelined publish load with a growing
    // population of idle connections. 10 is the baseline, 1k the CI
    // regression gate, 10k the headline scale (full runs only — opening
    // 10k sockets is itself seconds of work).
    for idle in [10usize, 1000, 10_000] {
        if idle == 10_000 && tasks < 1002 {
            continue;
        }
        samples.push(run_connection_storm(idle, tasks * 10));
    }
    // Client scale: N live clients sharing one process; the rows at
    // 1/16/128 connections show the flat thread count.
    let scale_msgs = (tasks * 10).max(20_000);
    for n in [1usize, 16, 128] {
        samples.push(run_client_scale(n, scale_msgs));
    }
    samples
}

/// [`run_with_tasks`] at the default scale (1002 tasks; 202 with
/// `quick`).
pub fn run(quick: bool) -> Vec<Sample> {
    run_with_tasks(if quick { 202 } else { 1002 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_transports_complete_a_small_fanout() {
        for s in run_small() {
            assert!(s.completed, "{} did not complete", s.mode);
            assert_eq!(s.tasks, 18);
        }
    }

    #[test]
    fn publish_storm_reports_throughput_and_latency() {
        for s in run_publish_storm(200) {
            assert!(s.completed);
            assert_eq!(s.tasks, 200);
            let rate = s.msgs_per_sec.expect("storm rows carry throughput");
            assert!(rate > 0.0, "{}: rate {rate}", s.mode);
            let (p50, p99) = (s.p50_us.unwrap(), s.p99_us.unwrap());
            assert!(p50 <= p99, "{}: p50 {p50} > p99 {p99}", s.mode);
        }
    }

    #[test]
    fn client_scale_reports_threads() {
        let s = run_client_scale(8, 200);
        assert!(s.completed, "client-scale storm failed");
        assert_eq!(s.mode, "client_scale");
        assert_eq!(s.workers, 8);
        assert!(s.threads.expect("threads column measured") > 0);
    }

    #[test]
    fn connection_storm_reports_rss_and_idle_population() {
        let s = run_connection_storm(50, 200);
        assert!(s.completed, "storm failed with 50 idle connections");
        assert_eq!(s.workers, 50);
        assert_eq!(s.tasks, 200);
        assert!(s.msgs_per_sec.unwrap() > 0.0);
        assert!(s.rss_mib.unwrap() > 1.0, "rss: {:?}", s.rss_mib);
    }

    fn run_small() -> Vec<Sample> {
        let timeout = Duration::from_secs(60);
        vec![
            run_local(16, 2, timeout),
            run_remote(16, 2, timeout),
            run_remote_sharded(16, 2, timeout),
            run_two_runs(16, 2, timeout),
        ]
    }
}
