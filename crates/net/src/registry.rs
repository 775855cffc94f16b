//! Per-run topic accounting for a standing daemon. Fed from the
//! request path: any publish or subscribe touching a `run/<id>/…` topic
//! registers the topic under its run. No side channel — the topic name
//! itself is the account key, so even a client that never speaks the
//! `RUN_*` verbs is accounted correctly.

use crate::metrics::daemon_metrics;
use ginflow_mq::wire::RunStat;
use ginflow_mq::{namespace, Broker, LagProbe};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One run as the registry sees it: the run-scoped topics touched so
/// far, the lag probes of its live subscriptions, and when (if) a
/// client marked the run completed.
#[derive(Default)]
struct RunEntry {
    topics: HashSet<String>,
    /// Drop-oldest counters of every subscription opened on the run's
    /// topics — folded into the `gf_run_lagged` gauge at snapshot time.
    probes: Vec<LagProbe>,
    completed_at: Option<Instant>,
}

pub(crate) struct RunRegistry {
    broker: Arc<dyn Broker>,
    runs: Mutex<HashMap<String, RunEntry>>,
}

impl RunRegistry {
    pub(crate) fn new(broker: Arc<dyn Broker>) -> RunRegistry {
        RunRegistry {
            broker,
            runs: Mutex::new(HashMap::new()),
        }
    }

    /// Account `topic` to its run, if it is run-scoped.
    pub(crate) fn observe(&self, topic: &str) {
        if let Some(run) = namespace::run_of(topic) {
            // Steady state (every publish after the first on a topic)
            // allocates nothing: look up by borrowed keys and only
            // clone the strings when the run or topic is new.
            let mut runs = self.runs.lock();
            match runs.get_mut(run) {
                Some(entry) => {
                    if !entry.topics.contains(topic) {
                        entry.topics.insert(topic.to_owned());
                    }
                }
                None => {
                    runs.entry(run.to_owned())
                        .or_default()
                        .topics
                        .insert(topic.to_owned());
                }
            }
        }
    }

    /// Remember a subscription's lag counter under its topic's run (a
    /// no-op for non-run-scoped topics). The probe is a detached
    /// `Arc`-backed reader, so it stays accurate after the subscription
    /// moves into the server's fan-out machinery and keeps its final
    /// value once the subscription drops.
    pub(crate) fn attach_lag_probe(&self, topic: &str, probe: LagProbe) {
        if let Some(run) = namespace::run_of(topic) {
            let mut runs = self.runs.lock();
            match runs.get_mut(run) {
                Some(entry) => entry.probes.push(probe),
                None => runs.entry(run.to_owned()).or_default().probes.push(probe),
            }
        }
    }

    /// Refresh the per-run gauge families (`gf_run_topics`,
    /// `gf_run_retained`, `gf_run_lagged`) from the registry's current
    /// accounting — called before a STATS or `/metrics` snapshot so
    /// snapshot-derived gauges are as fresh as the counters.
    pub(crate) fn fold_into_metrics(&self) {
        let m = daemon_metrics();
        let runs = self.runs.lock();
        for (run, entry) in runs.iter() {
            m.run_topics.with(run).set(entry.topics.len() as u64);
            m.run_retained
                .with(run)
                .set(entry.topics.iter().map(|t| self.broker.retained(t)).sum());
            m.run_lagged
                .with(run)
                .set(entry.probes.iter().map(LagProbe::get).sum());
        }
    }

    /// Every known run with its topic accounting, sorted by run id.
    pub(crate) fn list(&self) -> Vec<RunStat> {
        let runs = self.runs.lock();
        let mut out: Vec<RunStat> = runs
            .iter()
            .map(|(run, entry)| RunStat {
                run: run.clone(),
                topics: entry.topics.len() as u32,
                retained: entry.topics.iter().map(|t| self.broker.retained(t)).sum(),
                completed: entry.completed_at.is_some(),
            })
            .collect();
        out.sort_by(|a, b| a.run.cmp(&b.run));
        out
    }

    /// Mark a run completed (reclaimable). Returns whether the run is
    /// known. Idempotent: re-closing keeps the original completion time.
    pub(crate) fn close(&self, run: &str) -> bool {
        match self.runs.lock().get_mut(run) {
            Some(entry) => {
                entry.completed_at.get_or_insert_with(Instant::now);
                true
            }
            None => false,
        }
    }

    /// When the earliest completed-but-unreclaimed run becomes eligible
    /// under a `window` retention — the deadline the event loop's timer
    /// wheel sleeps towards. `None` while nothing is closed: an idle
    /// daemon arms no timer at all.
    pub(crate) fn next_gc_deadline(&self, window: Duration) -> Option<Instant> {
        self.runs
            .lock()
            .values()
            .filter_map(|e| e.completed_at)
            .min()
            .map(|at| at + window)
    }

    /// Reclaim every run completed at least `min_age` ago: drop its
    /// topics from the broker and forget the run. Returns the ids of
    /// the runs reclaimed and how many topics went with them.
    pub(crate) fn gc(&self, min_age: Duration) -> (Vec<String>, u32) {
        // Collect under the lock, delete outside it: delete_topic
        // disconnects subscriptions, whose teardown must not contend
        // with request-path accounting.
        let victims: Vec<(String, HashSet<String>)> = {
            let mut runs = self.runs.lock();
            let expired: Vec<String> = runs
                .iter()
                .filter(|(_, e)| e.completed_at.is_some_and(|at| at.elapsed() >= min_age))
                .map(|(run, _)| run.clone())
                .collect();
            expired
                .into_iter()
                .filter_map(|run| runs.remove(&run).map(|e| (run, e.topics)))
                .collect()
        };
        let mut topics = 0u32;
        let mut runs = Vec::with_capacity(victims.len());
        for (run, run_topics) in victims {
            for topic in run_topics {
                if self.broker.delete_topic(&topic) {
                    topics += 1;
                }
            }
            // Drop the reclaimed run's per-run metric series with it,
            // so a standing daemon's registry stays bounded by *live*
            // runs, not every run it has ever served.
            ginflow_mq::metrics::global().remove_label(&run);
            runs.push(run);
        }
        (runs, topics)
    }
}
