//! The daemon's run registry: the runs it has seen, and when each was
//! closed. Fed from the request
//! path: any publish or subscribe touching a `run/<id>/…` topic makes
//! sure its run has an entry. No side channel — the topic name itself
//! is the account key, so even a client that never speaks the `RUN_*`
//! verbs is accounted correctly. The registry keeps no list of a run's
//! topics: they are the broker's topics in the run's namespace
//! ([`namespace::run_of`]), read whenever a run is listed, folded into
//! the metrics or reclaimed.

use crate::metrics::daemon_metrics;
use ginflow_mq::wire::RunStat;
use ginflow_mq::{namespace, Broker};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One run as the registry sees it: when (if) a client marked the run
/// completed.
#[derive(Default)]
struct RunEntry {
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

    /// Make sure `topic`'s run has an entry, if the topic is run-scoped.
    pub(crate) fn observe(&self, topic: &str) {
        if let Some(run) = namespace::run_of(topic) {
            let mut runs = self.runs.lock();
            if !runs.contains_key(run) {
                runs.insert(run.to_owned(), RunEntry::default());
            }
        }
    }

    /// Per run: how many topics the broker holds in its namespace, and
    /// how many messages they retain.
    fn counts(&self) -> HashMap<String, (u32, u64)> {
        let mut counts: HashMap<String, (u32, u64)> = HashMap::new();
        for topic in self.broker.topic_names() {
            if let Some(run) = namespace::run_of(&topic) {
                let (topics, retained) = counts.entry(run.to_owned()).or_default();
                *topics += 1;
                *retained += self.broker.retained(&topic);
            }
        }
        counts
    }

    /// Refresh the per-run gauge families (`gf_run_topics`,
    /// `gf_run_retained`) from the broker's topics — called before a
    /// STATS or `/metrics` snapshot so snapshot-derived gauges are as
    /// fresh as the counters.
    pub(crate) fn fold_into_metrics(&self) {
        let m = daemon_metrics();
        let counts = self.counts();
        let runs = self.runs.lock();
        for run in runs.keys() {
            let (topics, retained) = counts.get(run).copied().unwrap_or_default();
            m.run_topics.with(run).set(u64::from(topics));
            m.run_retained.with(run).set(retained);
        }
    }

    /// Every known run with its topic accounting, sorted by run id.
    pub(crate) fn list(&self) -> Vec<RunStat> {
        let counts = self.counts();
        let runs = self.runs.lock();
        let mut out: Vec<RunStat> = runs
            .iter()
            .map(|(run, entry)| {
                let (topics, retained) = counts.get(run).copied().unwrap_or_default();
                RunStat {
                    run: run.clone(),
                    topics,
                    retained,
                    completed: entry.completed_at.is_some(),
                }
            })
            .collect();
        out.sort_by(|a, b| a.run.cmp(&b.run));
        out
    }

    /// Mark a run completed (reclaimable) at `now`. Returns whether the
    /// run is known. Idempotent: re-closing keeps the original
    /// completion time.
    pub(crate) fn close(&self, run: &str, now: Instant) -> bool {
        match self.runs.lock().get_mut(run) {
            Some(entry) => {
                entry.completed_at.get_or_insert(now);
                true
            }
            None => false,
        }
    }

    /// When the earliest completed-but-unreclaimed run becomes eligible
    /// under a `window` retention — the deadline the daemon sleeps
    /// towards. `None` while nothing is closed: an idle daemon arms no
    /// timer at all.
    pub(crate) fn next_gc_deadline(&self, window: Duration) -> Option<Instant> {
        self.runs
            .lock()
            .values()
            .filter_map(|e| e.completed_at)
            .min()
            .map(|at| at + window)
    }

    /// Reclaim every run completed at least `min_age` before `now`: drop
    /// its topics from the broker and forget the run. Returns the ids of
    /// the runs reclaimed and how many topics went with them.
    pub(crate) fn gc(&self, min_age: Duration, now: Instant) -> (Vec<String>, u32) {
        // Collect under the lock, delete outside it: delete_topic
        // disconnects subscriptions, whose teardown must not contend
        // with request-path accounting.
        let runs: Vec<String> = {
            let mut runs = self.runs.lock();
            let expired: Vec<String> = runs
                .iter()
                .filter(|(_, e)| e.completed_at.is_some_and(|at| now - at >= min_age))
                .map(|(run, _)| run.clone())
                .collect();
            for run in &expired {
                runs.remove(run);
            }
            expired
        };
        if runs.is_empty() {
            return (runs, 0);
        }
        let mut topics = 0u32;
        for topic in self.broker.topic_names() {
            let expired =
                namespace::run_of(&topic).is_some_and(|run| runs.iter().any(|r| r == run));
            if expired && self.broker.delete_topic(&topic) {
                topics += 1;
            }
        }
        for run in &runs {
            // Drop the reclaimed run's per-run metric series with it,
            // so a standing daemon's registry stays bounded by *live*
            // runs, not every run it has ever served.
            ginflow_mq::metrics::global().remove_label(run);
        }
        (runs, topics)
    }
}
