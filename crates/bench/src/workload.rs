//! Shared benchmark machinery: the fan-out/fan-in coordination
//! workload `bench_broker` drives, the common [`Sample`] row format, process-CPU
//! measurement, and publish-latency statistics.

use ginflow_core::{Value, Workflow, WorkflowBuilder};
use std::time::Duration;

/// One measured execution (a row of `results/BENCH_*.csv`).
#[derive(Clone, Debug)]
pub struct Sample {
    /// Scenario label (`local_log`, `storm_remote_pipelined`, …).
    pub mode: String,
    /// Total task count for workflow scenarios; message count for
    /// publish storms.
    pub tasks: usize,
    /// Worker threads driving the agents.
    pub workers: usize,
    /// Observed makespan (s).
    pub wall_secs: f64,
    /// Process CPU time consumed during the run (s).
    pub cpu_secs: f64,
    /// Did the workload complete in time?
    pub completed: bool,
    /// Publish throughput — publish-storm scenarios only.
    pub msgs_per_sec: Option<f64>,
    /// Median single-publish latency, microseconds — storm only.
    pub p50_us: Option<f64>,
    /// 99th-percentile single-publish latency, microseconds — storm only.
    pub p99_us: Option<f64>,
    /// Process resident set size at scenario end, MiB — connection-storm
    /// scenarios only (daemon + clients share the process on loopback,
    /// so this is the whole-stack memory footprint at N connections).
    pub rss_mib: Option<f64>,
    /// Process thread count at scenario end (`/proc/self/status`) —
    /// client-scale scenarios only, where it proves N connections
    /// share one reactor thread.
    pub threads: Option<usize>,
    /// What the metrics registry observed during the scenario — printed
    /// next to the row (not a CSV column), so a bench run doubles as an
    /// instrumentation smoke test. `None` where no probe was taken.
    pub metrics: Option<MetricsDelta>,
}

/// Delta of the key metric families across one scenario. Daemon and
/// client share the process in these benches, so daemon-side counters
/// (`gf_broker_*`) land in the same global registry; purely in-process
/// scenarios legitimately read 0 there.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsDelta {
    /// `gf_broker_publish_total` (all shards).
    pub msgs: u64,
    /// `gf_broker_publish_bytes_total` (all shards).
    pub bytes: u64,
    /// `gf_store_fsyncs_total`.
    pub fsyncs: u64,
    /// `gf_run_lagged` (all runs) — slow-subscriber drops.
    pub lag_drops: u64,
}

/// A before-snapshot of those families; [`MetricsProbe::delta`] reads
/// the registry again and differences.
pub struct MetricsProbe(MetricsDelta);

impl MetricsProbe {
    pub fn start() -> MetricsProbe {
        MetricsProbe(metric_totals())
    }

    pub fn delta(&self) -> MetricsDelta {
        let now = metric_totals();
        MetricsDelta {
            msgs: now.msgs.saturating_sub(self.0.msgs),
            bytes: now.bytes.saturating_sub(self.0.bytes),
            fsyncs: now.fsyncs.saturating_sub(self.0.fsyncs),
            lag_drops: now.lag_drops.saturating_sub(self.0.lag_drops),
        }
    }
}

fn metric_totals() -> MetricsDelta {
    let mut t = MetricsDelta::default();
    for row in ginflow_mq::metrics::global().snapshot() {
        match row.name.as_str() {
            "gf_broker_publish_total" => t.msgs += row.value,
            "gf_broker_publish_bytes_total" => t.bytes += row.value,
            "gf_store_fsyncs_total" => t.fsyncs += row.value,
            "gf_run_lagged" => t.lag_drops += row.value,
            _ => {}
        }
    }
    t
}

impl Sample {
    /// A workflow-execution row (no publish-latency columns).
    pub fn workflow(
        mode: &str,
        tasks: usize,
        workers: usize,
        wall: Duration,
        cpu: Duration,
        completed: bool,
    ) -> Sample {
        Sample {
            mode: mode.to_owned(),
            tasks,
            workers,
            wall_secs: wall.as_secs_f64(),
            cpu_secs: cpu.as_secs_f64(),
            completed,
            msgs_per_sec: None,
            p50_us: None,
            p99_us: None,
            rss_mib: None,
            threads: None,
            metrics: None,
        }
    }

    /// A publish-storm row: `msgs` publishes in `wall`, with the
    /// per-publish latency distribution summarised as p50/p99.
    /// `completed` must be false when any publish (or the closing
    /// flush) errored — a failing transport must not masquerade as a
    /// fast one.
    pub fn storm(
        mode: &str,
        msgs: usize,
        wall: Duration,
        cpu: Duration,
        completed: bool,
        latencies_us: &mut [f64],
    ) -> Sample {
        Sample {
            mode: mode.to_owned(),
            tasks: msgs,
            workers: 1,
            wall_secs: wall.as_secs_f64(),
            cpu_secs: cpu.as_secs_f64(),
            completed,
            msgs_per_sec: Some(msgs as f64 / wall.as_secs_f64().max(1e-9)),
            p50_us: percentile(latencies_us, 0.50),
            p99_us: percentile(latencies_us, 0.99),
            rss_mib: None,
            threads: None,
            metrics: None,
        }
    }
}

/// The `p`-th percentile (0..=1) of `values`; sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((values.len() - 1) as f64 * p).round() as usize;
    Some(values[rank.min(values.len() - 1)])
}

/// Source → `width` parallel tasks → sink: the scheduler's worst
/// nightmare and the paper's §V spirit at 10× scale — N+2 agents,
/// pure coordination, no service work.
pub fn fan_out_fan_in(width: usize) -> Workflow {
    let mut b = WorkflowBuilder::new(format!("fan-{width}"));
    b.task("src", "s").input(Value::str("input"));
    let mids: Vec<String> = (0..width).map(|i| format!("t{i}")).collect();
    for mid in &mids {
        b.task(mid, "s").after(["src"]);
    }
    b.task("sink", "s").after(mids.iter().map(String::as_str));
    b.build().expect("fan-out/fan-in is a valid DAG")
}

/// Process CPU time (user + system) — Linux `/proc/self/stat`; zero on
/// other platforms (wall-clock comparison still stands there). Public so
/// the scheduler's integration tests measure with the same parser.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // utime/stime are fields 14/15 (1-based); the comm field (2) is
    // parenthesised and may contain spaces, so parse after the last ')'.
    let Some(after_comm) = stat.rsplit(')').next() else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 (state): utime is index 11, stime 12.
    let (Some(utime), Some(stime)) = (
        fields.get(11).and_then(|f| f.parse::<u64>().ok()),
        fields.get(12).and_then(|f| f.parse::<u64>().ok()),
    ) else {
        return Duration::ZERO;
    };
    // USER_HZ is 100 on every mainstream Linux configuration.
    Duration::from_millis((utime + stime) * 10)
}

/// Process resident set size in MiB — Linux `/proc/self/statm` (second
/// field, resident pages × 4 KiB); `None` on other platforms.
pub fn process_rss_mib() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// Process thread count — Linux `/proc/self/status` `Threads:` line;
/// `None` on other platforms. The `client_scale` scenario records this
/// to prove N connections multiplex onto one reactor thread.
pub fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

/// The common CSV header of `results/BENCH_scheduler.csv` and
/// `results/BENCH_net.csv`. Latency columns are empty for workflow
/// scenarios; `threads` only fills for client-scale scenarios. New
/// columns append at the end so positional gates (the CI awk scripts)
/// keep their indices.
pub const CSV_HEADER: [&str; 11] = [
    "mode",
    "tasks",
    "workers",
    "wall_secs",
    "cpu_secs",
    "completed",
    "msgs_per_sec",
    "p50_us",
    "p99_us",
    "rss_mib",
    "threads",
];

fn opt_cell(v: Option<f64>, precision: usize) -> String {
    v.map(|v| format!("{v:.precision$}")).unwrap_or_default()
}

/// CSV rows matching [`CSV_HEADER`].
pub fn csv_rows(samples: &[Sample]) -> Vec<Vec<String>> {
    samples
        .iter()
        .map(|s| {
            vec![
                s.mode.clone(),
                s.tasks.to_string(),
                s.workers.to_string(),
                format!("{:.4}", s.wall_secs),
                format!("{:.4}", s.cpu_secs),
                s.completed.to_string(),
                opt_cell(s.msgs_per_sec, 0),
                opt_cell(s.p50_us, 2),
                opt_cell(s.p99_us, 2),
                opt_cell(s.rss_mib, 1),
                s.threads.map(|t| t.to_string()).unwrap_or_default(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_fan_in_shape() {
        let wf = fan_out_fan_in(3);
        assert_eq!(wf.dag().len(), 5);
    }

    #[test]
    fn percentiles() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut v, 0.50), Some(51.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn csv_cells_blank_latency_for_workflow_rows() {
        let rows = csv_rows(&[Sample::workflow(
            "m",
            3,
            1,
            Duration::from_millis(10),
            Duration::ZERO,
            true,
        )]);
        assert_eq!(rows[0][6], "");
        let mut lats = vec![1.0, 2.0, 3.0];
        let rows = csv_rows(&[Sample::storm(
            "s",
            3,
            Duration::from_millis(10),
            Duration::ZERO,
            true,
            &mut lats,
        )]);
        assert_eq!(rows[0][6], "300");
        assert_eq!(rows[0][7], "2.00");
        assert_eq!(rows[0][9], "", "rss blank unless measured");
        assert_eq!(rows[0][10], "", "threads blank unless measured");
    }

    #[test]
    fn rss_and_thread_cells_render_when_measured() {
        let mut s = Sample::workflow("m", 1, 1, Duration::from_millis(1), Duration::ZERO, true);
        s.rss_mib = Some(12.34);
        s.threads = Some(4);
        let row = &csv_rows(&[s])[0];
        assert_eq!(row.len(), CSV_HEADER.len());
        assert_eq!(row[9], "12.3");
        assert_eq!(row[10], "4");
        let rss = process_rss_mib().expect("linux statm");
        assert!(rss > 1.0, "a running test binary is resident: {rss}");
        let threads = process_threads().expect("linux status");
        assert!(threads >= 1, "at least the main thread: {threads}");
    }
}
