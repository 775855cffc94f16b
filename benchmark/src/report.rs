//! The metrics the benchmark reports — their names, units and bounds in
//! one place — and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse;
    /// only end-to-end metrics have one.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload, from the untraced
/// pass. Failed runs are not a metric here: they are the result line's
/// `failed` over `attempted`, and any of them makes `correct` false.
pub const END_TO_END: [Spec; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("run_wall_s", "s", "lower", 0.25),
    e2e("tasks_per_s", "1/s", "higher", 0.25),
    e2e("cpu_per_run_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
];

/// One number per layer boundary, from the traced pass. README.md says
/// which end-to-end metric each should move, on which workload.
pub const PER_LAYER: [Spec; 58] = [
    // Sans-I/O replay of the workload's own agents.
    layer("hoclflow.compile_s", "s", "lower"),
    layer("hoclflow.programs", "count", "lower"),
    layer("agent.core.replay_s", "s", "lower"),
    layer("agent.core.busiest_agent_s", "s", "lower"),
    layer("agent.core.handles", "count", "lower"),
    layer("hocl.applications", "count", "lower"),
    layer("hocl.match_attempts", "count", "lower"),
    layer("hocl.weight_scanned", "count", "lower"),
    layer("hocl.fanin_weight_ratio", "ratio", "lower"),
    layer("agent.message.count", "count", "lower"),
    layer("agent.message.status_updates", "count", "lower"),
    layer("agent.message.bytes", "B", "lower"),
    layer("agent.message.encode_s", "s", "lower"),
    layer("agent.message.decode_s", "s", "lower"),
    // The live run, seen through the Broker and Service interposers.
    layer("run.wall_p50_s", "s", "lower"),
    layer("run.wall_p99_s", "s", "lower"),
    layer("run.traced_wall_s", "s", "lower"),
    layer("mq.broker.publish_calls", "count", "lower"),
    layer("mq.broker.publish_s", "s", "lower"),
    layer("mq.broker.flush_s", "s", "lower"),
    layer("mq.broker.subscribe_s", "s", "lower"),
    layer("mq.broker.fetch_s", "s", "lower"),
    layer("run.service_s", "s", "lower"),
    layer("run.residual_s", "s", "lower"),
    layer("run.hop_p50_us", "us", "lower"),
    layer("run.hop_p99_us", "us", "lower"),
    layer("run.launch_to_first_invoke_s", "s", "lower"),
    layer("run.last_result_to_join_s", "s", "lower"),
    layer("run.fanin_scale_exp", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    // The run's message sequence, replayed into each broker layer.
    layer("mq.log.publish_us", "us", "lower"),
    layer("mq.log.deliver_us", "us", "lower"),
    layer("mq.store.open_s", "s", "lower"),
    layer("mq.store.topic_create_us", "us", "lower"),
    layer("mq.store.append_us", "us", "lower"),
    layer("mq.store.topic_delete_us", "us", "lower"),
    layer("mq.store.appends", "count", "lower"),
    layer("mq.store.fsyncs", "count", "lower"),
    layer("net.connect_s", "s", "lower"),
    layer("net.client.subscribe_us_per_topic", "us", "lower"),
    layer("net.client.pipelined_msgs_per_s", "1/s", "higher"),
    layer("net.client.publish_rtt_us", "us", "lower"),
    layer("net.push_p50_us", "us", "lower"),
    layer("net.client.close_gc_s", "s", "lower"),
    // The program's own counters, per live run.
    layer("agent.scheduler.wakeups", "count", "lower"),
    layer("agent.scheduler.wakeup_batch_mean", "count", "higher"),
    layer("net.event_loop.frames", "count", "lower"),
    layer("net.event_loop.fanout_messages", "count", "lower"),
    layer("net.event_loop.fanout_batch_mean", "count", "higher"),
    layer("net.event_loop.backpressure_parks", "count", "lower"),
    layer("net.client.reactor_wakeups", "count", "lower"),
    layer("net.client.frames_per_turn_mean", "count", "higher"),
    layer("mq.broker.publish_total", "count", "lower"),
    layer("mq.broker.publish_bytes", "B", "lower"),
    // What the live run's interposers counted, for the cross-checks.
    layer("run.inbox_publishes", "count", "lower"),
    layer("run.status_publishes", "count", "lower"),
    layer("run.tasks_completed", "count", "higher"),
    layer("run.traced_runs", "count", "higher"),
];

/// Per-layer counts that must be identical between two runs of the
/// same code on the same seed.
pub const EXACT_COUNTS: [&str; 9] = [
    "hoclflow.programs",
    "agent.core.handles",
    "hocl.applications",
    "hocl.match_attempts",
    "hocl.weight_scanned",
    "hocl.fanin_weight_ratio",
    "agent.message.count",
    "agent.message.status_updates",
    "agent.message.bytes",
];

pub type Values = BTreeMap<&'static str, f64>;

/// What one pass over one workload found.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    /// Why the outputs are not correct, if they are not.
    pub wrong: Option<String>,
}

/// The table a person reads: every metric by name, with its unit.
pub fn table(specs: &[Spec], values: &Values) -> String {
    let mut out = String::new();
    for s in specs {
        let _ = writeln!(
            out,
            "  {:<36} {:>16.6} {:<6} ({} is better)",
            s.name, values[s.name], s.unit, s.better
        );
    }
    out
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every metric of `specs` and no other.
///
/// # Panics
///
/// When `values` and `specs` disagree on the names, or a value is not
/// finite — both are bugs in the benchmark.
pub fn result_line(specs: &[Spec], outcome: &Outcome) -> String {
    assert_eq!(
        outcome.values.len(),
        specs.len(),
        "metrics reported and declared differ"
    );
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let value = outcome.values[s.name];
            assert!(value.is_finite(), "{} is {value}", s.name);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong.is_none() && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The metrics of a result line this program wrote (read back by
/// `--check` from a child's output): the inverse of [`result_line`].
pub fn parse_result_line(line: &str) -> Option<BTreeMap<String, f64>> {
    const VALUE: &str = "\": {\"value\": ";
    let mut rest = &line[line.find("\"metrics\": {")?..];
    let mut metrics = BTreeMap::new();
    while let Some(at) = rest.find(VALUE) {
        let name = &rest[rest[..at].rfind('"')? + 1..at];
        let after = &rest[at + VALUE.len()..];
        let end = after.find(',')?;
        metrics.insert(name.to_owned(), after[..end].parse().ok()?);
        rest = &after[end..];
    }
    Some(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name, 0.1 + i as f64 * 1234.5678))
            .collect();
        let outcome = Outcome {
            values: values.clone(),
            attempted: 9,
            failed: 0,
            wrong: None,
        };
        let line = result_line(&END_TO_END, &outcome);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\"setup_s\""
        ));
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!(parsed.len(), values.len());
        for (name, value) in values {
            assert_eq!(parsed[name], value);
        }
        let failed = Outcome {
            wrong: Some("sink differs".into()),
            ..outcome
        };
        assert!(result_line(&END_TO_END, &failed).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                s.unit.len() <= 16 && ["lower", "higher"].contains(&s.better),
                "{}",
                s.name
            );
        }
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        assert!(EXACT_COUNTS
            .iter()
            .all(|n| PER_LAYER.iter().any(|s| s.name == *n)));
        assert!(END_TO_END.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; it must name what the code
    /// reports.
    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for w in &crate::workloads::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)),
                "{}",
                w.name
            );
        }
        for s in &END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
                s.name, s.unit, s.better, s.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for s in &PER_LAYER {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name, s.unit, s.better
            );
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            5 + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
