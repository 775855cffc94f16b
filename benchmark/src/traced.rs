//! The traced pass: a few live runs with the interposers on, the same
//! agents and messages replayed layer by layer, the program's own
//! counters read around each run, and the checks that the replay is
//! faithful to the live run.

use crate::harness::{run_once, set_up, Infra, Plan, Traced};
use crate::replay::{core_replay, log_replay, net_replay, store_replay, CoreReplay};
use crate::report::{Outcome, Values};
use crate::stats;
use crate::sys;
use crate::trace::{RunTrace, Tracer};
use crate::workloads::{Shape, Sizes, Transport, Workload};
use std::collections::BTreeMap;

/// The process-global metrics registry, summed over labels.
fn counters() -> BTreeMap<String, u64> {
    let mut sums = BTreeMap::new();
    for row in ginflow_mq::metrics::global().snapshot() {
        *sums.entry(row.name).or_insert(0) += row.value;
    }
    sums
}

/// Growth of the registry between two snapshots, by metric name.
#[derive(Default)]
struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    fn add(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        for (name, value) in after {
            let grown = value.saturating_sub(before.get(name).copied().unwrap_or(0));
            *self.0.entry(name.clone()).or_insert(0) += grown;
        }
    }

    /// A counter the program no longer has reads 0.
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean observation of a histogram, from its `_sum` and `_count`.
    fn mean(&self, histogram: &str) -> f64 {
        let count = self.get(&format!("{histogram}_count"));
        if count == 0.0 {
            0.0
        } else {
            self.get(&format!("{histogram}_sum")) / count
        }
    }
}

/// The ROADMAP quadratic as two numbers: how HOCL matching weight and
/// how live wall grow when a fan-in doubles. 2.0 and 1.0 are linear.
fn fanin_probe(
    (half, full): (usize, usize),
    seed: u64,
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let span = tracer.open("probe.fanin", None);
    let infra = Infra::start(Transport::InProcess)?;
    let measure = |width| -> Result<(f64, f64), String> {
        let plan = Plan::new(Shape::FanIn { width }, seed);
        let weight = core_replay(&plan, tracer, Some(span))?.weight_scanned as f64;
        let run = run_once(&infra, &plan, None);
        match run.failure {
            Some(why) => Err(format!("fan-in probe at {width}: run {why}")),
            None => Ok((weight, run.wall)),
        }
    };
    let (half_weight, half_wall) = measure(half)?;
    let (full_weight, full_wall) = measure(full)?;
    tracer.close(span);
    Ok((full_weight / half_weight, (full_wall / half_wall).log2()))
}

pub fn traced_pass(w: &Workload, sizes: &Sizes, seed: u64) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(why) = measure(w, sizes, seed, &mut outcome) {
        outcome.wrong = Some(why);
    }
    outcome
}

fn measure(w: &Workload, sizes: &Sizes, seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new();
    let setup = set_up(sizes.shape, w.transport, seed, sizes.warmup_runs)?;

    // Live runs, untraced and traced in turn so both see the same
    // machine.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut traces: Vec<RunTrace> = Vec::new();
    let mut deltas = Deltas::default();
    let mut tasks_completed = 0;
    for i in 0..sizes.traced_runs {
        let plain = run_once(&setup.infra, &setup.plan, None);
        let before = counters();
        let seen = run_once(
            &setup.infra,
            &setup.plan,
            Some(Traced {
                tracer: &tracer,
                record_messages: i == 0,
            }),
        );
        deltas.add(&before, &counters());
        outcome.attempted += 2;
        for run in [&plain, &seen] {
            if let Some(why) = &run.failure {
                outcome.failed += 1;
                return Err(format!("run {why}"));
            }
        }
        untraced.push(plain.wall);
        traced.push(seen.wall);
        tasks_completed = seen.tasks_completed;
        traces.push(seen.trace.expect("a traced run returns its trace"));
    }
    let plan = setup.plan;
    drop(setup.infra);
    let messages = std::mem::take(&mut traces[0].messages);

    // The same agents with no broker and no thread, twice: the counts
    // must not depend on when the replay ran.
    let root = tracer.open("replay", None);
    let core = core_replay(&plan, &tracer, Some(root))?;
    let again = core_replay(&plan, &tracer, Some(root))?;
    if core.exact_counts() != again.exact_counts() {
        return Err(format!(
            "two replays disagree on their counts: {core:?} vs {again:?}"
        ));
    }
    check_faithful(&core, &traces)?;
    // The counts are the same; for the times, keep the replay the
    // machine disturbed less.
    let core = if again.core_s < core.core_s {
        again
    } else {
        core
    };

    // The run's own publishes into each broker layer.
    let (log, _) = tracer.span("replay.mq.log", Some(root), || log_replay(&messages));
    let before = counters();
    let (store, _) = tracer.span("replay.mq.store", Some(root), || store_replay(&messages));
    let mut store_deltas = Deltas::default();
    store_deltas.add(&before, &counters());
    let (net, _) = tracer.span("replay.net", Some(root), || net_replay(&messages));
    let (log, store, net) = (log?, store?, net?);
    tracer.close(root);
    let (weight_ratio, scale_exp) = fanin_probe(sizes.probe_widths, seed, &tracer)?;

    let n = traces.len() as f64;
    let per_run = |f: fn(&RunTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64 / n;
    let secs_per_run = |f: fn(&RunTrace) -> u64| per_run(f) / 1e9;
    let hops: Vec<f64> = traces
        .iter()
        .flat_map(|t| {
            t.invokes
                .windows(2)
                .map(|p| p[1].0.saturating_sub(p[0].1) as f64 / 1e3)
        })
        .collect();
    let (first_invoke, last_result): (Vec<f64>, Vec<f64>) = traces
        .iter()
        .filter_map(|t| {
            let (first, last) = (t.invokes.first()?, t.invokes.last()?);
            Some((
                (first.0 - t.start_ns) as f64 / 1e9,
                (t.end_ns - last.1) as f64 / 1e9,
            ))
        })
        .unzip();
    let traced_wall = stats::mean(&traced);
    let broker_s = secs_per_run(RunTrace::broker_ns);
    let service_s = secs_per_run(RunTrace::service_ns);

    outcome.values = Values::from([
        ("hoclflow.compile_s", core.compile_s),
        ("hoclflow.programs", core.programs as f64),
        ("agent.core.replay_s", core.core_s),
        ("agent.core.busiest_agent_s", core.busiest_agent_s),
        ("agent.core.handles", core.handles as f64),
        ("hocl.applications", core.applications as f64),
        ("hocl.match_attempts", core.match_attempts as f64),
        ("hocl.weight_scanned", core.weight_scanned as f64),
        ("hocl.fanin_weight_ratio", weight_ratio),
        ("agent.message.count", core.messages as f64),
        ("agent.message.status_updates", core.status_updates as f64),
        ("agent.message.bytes", core.bytes as f64),
        ("agent.message.encode_s", core.encode_s),
        ("agent.message.decode_s", core.decode_s),
        // The untraced runs of this pass. p99 is the maximum below 100
        // runs, which is every workload but stream-d4x4.
        ("run.wall_p50_s", stats::median(&untraced)),
        ("run.wall_p99_s", stats::percentile(&untraced, 99.0)),
        ("run.traced_wall_s", traced_wall),
        ("mq.broker.publish_calls", per_run(|t| t.publish_calls)),
        ("mq.broker.publish_s", secs_per_run(|t| t.publish_ns)),
        ("mq.broker.flush_s", secs_per_run(|t| t.flush_ns)),
        ("mq.broker.subscribe_s", secs_per_run(|t| t.subscribe_ns)),
        ("mq.broker.fetch_s", secs_per_run(|t| t.fetch_ns)),
        ("run.service_s", service_s),
        // What is left of the run once the layers measured on their
        // own are taken out: scheduler queueing, wake-ups, RunTracker,
        // and on TCP the wait for the wire and the daemon.
        (
            "run.residual_s",
            traced_wall - core.core_s - broker_s - service_s,
        ),
        ("run.hop_p50_us", stats::median(&hops)),
        ("run.hop_p99_us", stats::percentile(&hops, 99.0)),
        ("run.launch_to_first_invoke_s", stats::median(&first_invoke)),
        ("run.last_result_to_join_s", stats::median(&last_result)),
        ("run.fanin_scale_exp", scale_exp),
        (
            "trace.overhead_ratio",
            stats::median(&traced) / stats::median(&untraced),
        ),
        ("mq.log.publish_us", log.publish_us),
        ("mq.log.deliver_us", log.deliver_us),
        ("mq.store.open_s", store.open_s),
        ("mq.store.topic_create_us", store.topic_create_us),
        ("mq.store.append_us", store.append_us),
        ("mq.store.topic_delete_us", store.topic_delete_us),
        (
            "mq.store.appends",
            store_deltas.get("gf_store_appends_total"),
        ),
        ("mq.store.fsyncs", store_deltas.get("gf_store_fsyncs_total")),
        ("net.connect_s", net.connect_s),
        (
            "net.client.subscribe_us_per_topic",
            net.subscribe_us_per_topic,
        ),
        ("net.client.pipelined_msgs_per_s", net.pipelined_msgs_per_s),
        ("net.client.publish_rtt_us", net.publish_rtt_us),
        ("net.push_p50_us", net.push_p50_us),
        ("net.client.close_gc_s", net.close_gc_s),
        (
            "agent.scheduler.wakeups",
            deltas.get("gf_sched_wakeups_total") / n,
        ),
        (
            "agent.scheduler.wakeup_batch_mean",
            deltas.mean("gf_sched_wakeup_batch"),
        ),
        (
            "net.event_loop.frames",
            deltas.get("gf_loop_frames_total") / n,
        ),
        (
            "net.event_loop.fanout_messages",
            deltas.get("gf_loop_fanout_messages_total") / n,
        ),
        (
            "net.event_loop.fanout_batch_mean",
            deltas.mean("gf_loop_fanout_batch"),
        ),
        (
            "net.event_loop.backpressure_parks",
            deltas.get("gf_loop_backpressure_parks_total") / n,
        ),
        (
            "net.client.reactor_wakeups",
            deltas.get("gf_client_reactor_wakeups_total") / n,
        ),
        (
            "net.client.frames_per_turn_mean",
            deltas.mean("gf_client_reactor_frames_turn"),
        ),
        (
            "mq.broker.publish_total",
            deltas.get("gf_broker_publish_total") / n,
        ),
        (
            "mq.broker.publish_bytes",
            deltas.get("gf_broker_publish_bytes_total") / n,
        ),
        ("run.inbox_publishes", per_run(|t| t.inbox_publishes)),
        ("run.status_publishes", per_run(|t| t.status_publishes)),
        ("run.tasks_completed", tasks_completed as f64),
        ("run.traced_runs", n),
    ]);

    println!("span self time (a span's duration minus what its child spans cover):");
    for (name, secs) in tracer.self_times() {
        println!("  {name:<36} {secs:>16.6} s");
    }
    let path = sys::out_dir().join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(sys::out_dir())
        .and_then(|()| tracer.write_chrome(&path))
        .map(|spans| println!("{spans} spans written to {}", path.display()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The replay stands for the live run only if it moved the same
/// messages: exactly as many to agent inboxes, and no more status
/// updates than the status topic saw (the runtime may add markers of
/// its own there).
fn check_faithful(core: &CoreReplay, traces: &[RunTrace]) -> Result<(), String> {
    for (i, t) in traces.iter().enumerate() {
        if t.inbox_publishes != core.messages {
            return Err(format!(
                "traced run {i} published {} inbox messages, the replay sent {}",
                t.inbox_publishes, core.messages
            ));
        }
        if t.status_publishes < core.status_updates {
            return Err(format!(
                "traced run {i} published {} status updates, the replay {}",
                t.status_publishes, core.status_updates
            ));
        }
    }
    Ok(())
}
