//! Run-scoped topic namespaces.
//!
//! The coordination substrate used to name topics globally (`sa.<task>`,
//! `status`), which welded one broker to one workflow run: a second run
//! against a warm `ginflow broker serve` daemon replayed the first run's
//! retained history. This module introduces the [`RunId`] and the
//! [`TopicNamespace`] derived from it, under which every topic of a run
//! lives:
//!
//! ```text
//! run/<id>/sa.inbox      the run's inbox: every message between its
//!                        agents, keyed by the destination task
//! run/<id>/status        the run's shared status topic
//! ```
//!
//! A run is two topics however many tasks it has: an agent owns a *key*
//! of the inbox, not a topic, and the scheduler demultiplexes the inbox
//! by key into its agents' queues. Two different run ids on one broker
//! never see each other's messages; N shard processes joining the
//! *same* run id share one namespace. Run ids are validated at this
//! boundary ([`RunId::new`]) and task names, which become inbox keys, at
//! launch ([`validate_segment`]): an empty segment or one containing `/`
//! (or control characters) would silently collide or split namespaces,
//! so it is rejected with [`MqError::InvalidTopic`] instead.

use crate::error::MqError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading topic-path component of every run-scoped topic.
const RUN_PREFIX: &str = "run/";

/// Final path component of a run's shared status topic.
const STATUS_SEGMENT: &str = "status";

/// Final path component of a run's inbox topic. Inbox leaves keep the
/// `sa.` prefix agent inboxes have always had, so tools that classify a
/// run's topics by leaf still recognise it.
const INBOX_SEGMENT: &str = "sa.inbox";

/// Check one topic-path segment (a run id or a task name). Rejects the
/// empty segment and `/` (both would collide or split namespaces) and
/// control characters (which would corrupt listings and logs); interior
/// spaces are fine — task names like `"load data"` stay legal.
pub fn validate_segment(what: &'static str, segment: &str) -> Result<(), MqError> {
    let reason = if segment.is_empty() {
        "must not be empty"
    } else if segment.contains('/') {
        "must not contain '/'"
    } else if segment.chars().any(char::is_control) {
        "must not contain control characters"
    } else {
        return Ok(());
    };
    Err(MqError::InvalidTopic {
        what,
        name: segment.to_owned(),
        reason,
    })
}

/// The identity of one workflow run — the namespace key every one of the
/// run's topics is prefixed with. Validated on construction: see
/// [`validate_segment`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunId(String);

impl RunId {
    /// A run id from a caller-chosen string (e.g. `ginflow run
    /// --run-id`). Rejects empty segments and `/`-containing strings
    /// with [`MqError::InvalidTopic`] — both would collide or split the
    /// topic namespace silently.
    pub fn new(id: impl Into<String>) -> Result<RunId, MqError> {
        let id = id.into();
        validate_segment("run id", &id)?;
        Ok(RunId(id))
    }

    /// A fresh, effectively unique run id: wall clock and process id
    /// mixed into one hex word, plus the *full* process-local counter
    /// as its own component — so ids from one process can never repeat
    /// (whatever the platform's clock granularity), and collisions
    /// across processes need the same pid in the same nanosecond.
    pub fn generate() -> RunId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        let count = COUNTER.fetch_add(1, Ordering::Relaxed);
        RunId(format!("r{:x}-{count:x}", nanos ^ (pid << 40)))
    }

    /// The id as a plain string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The topic names of one run: every topic the run's agents publish or
/// subscribe to is derived here, so the naming scheme has exactly one
/// definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicNamespace {
    run: RunId,
    /// Precomputed `run/<id>/status` (hot path: every status publish).
    status: String,
    /// Precomputed `run/<id>/sa.inbox` (hot path: every message sent).
    inbox: String,
}

impl TopicNamespace {
    /// The namespace of `run`.
    pub fn new(run: RunId) -> TopicNamespace {
        let status = format!("{RUN_PREFIX}{}/{STATUS_SEGMENT}", run.0);
        let inbox = format!("{RUN_PREFIX}{}/{INBOX_SEGMENT}", run.0);
        TopicNamespace { run, status, inbox }
    }

    /// The run this namespace belongs to.
    pub fn run_id(&self) -> &RunId {
        &self.run
    }

    /// The run's inbox topic: `run/<id>/sa.inbox`. Every message to an
    /// agent is published here with the destination task's name as its
    /// key, so one task's messages stay in order on one partition.
    pub fn inbox(&self) -> &str {
        &self.inbox
    }

    /// The run's shared status topic: `run/<id>/status`.
    pub fn status(&self) -> &str {
        &self.status
    }
}

/// The run id a topic belongs to, if it is run-scoped (`run/<id>/…`
/// with a non-empty id and a non-empty remainder) — how a standing
/// broker daemon accounts topics to runs without any side channel.
pub fn run_of(topic: &str) -> Option<&str> {
    let rest = topic.strip_prefix(RUN_PREFIX)?;
    let (id, remainder) = rest.split_once('/')?;
    (!id.is_empty() && !remainder.is_empty()).then_some(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_shapes_topics() {
        let ns = TopicNamespace::new(RunId::new("alpha").unwrap());
        assert_eq!(ns.inbox(), "run/alpha/sa.inbox");
        assert_eq!(ns.status(), "run/alpha/status");
        assert_eq!(run_of(ns.inbox()), Some("alpha"));
        assert_eq!(ns.run_id().as_str(), "alpha");
    }

    #[test]
    fn distinct_runs_never_share_topics() {
        let a = TopicNamespace::new(RunId::new("a").unwrap());
        let b = TopicNamespace::new(RunId::new("b").unwrap());
        assert_ne!(a.inbox(), b.inbox());
        assert_ne!(a.status(), b.status());
    }

    #[test]
    fn invalid_segments_are_rejected_with_a_clear_error() {
        for bad in ["", "a/b", "/", "tab\there", "nl\n"] {
            let err = RunId::new(bad).unwrap_err();
            assert!(
                matches!(err, MqError::InvalidTopic { what: "run id", .. }),
                "{bad:?} → {err:?}"
            );
            assert!(
                matches!(
                    validate_segment("task name", bad),
                    Err(MqError::InvalidTopic {
                        what: "task name",
                        ..
                    })
                ),
                "task {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn interior_spaces_stay_legal() {
        // Task names with spaces were always accepted by the workflow
        // builder and work as inbox keys; run scoping must not break them.
        assert!(validate_segment("task name", "load data").is_ok());
        assert!(RunId::new("load data").is_ok());
    }

    #[test]
    fn slash_rejection_prevents_namespace_forgery() {
        // Without validation, run id "a/status" would put its topics
        // under run "a" (`run/a/status/status`), so listings and GC would
        // account them to the wrong run, and "b/../a"-style ids could
        // alias. Task names, the inbox's keys, obey the same rule. The
        // rule is simply: one segment, no separators.
        assert!(RunId::new("a/status").is_err());
        assert!(RunId::new("b/../a").is_err());
        assert!(validate_segment("task name", "x/../y").is_err());
    }

    #[test]
    fn generated_ids_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = RunId::generate();
            assert!(validate_segment("run id", id.as_str()).is_ok());
            assert!(
                seen.insert(id.as_str().to_owned()),
                "duplicate generated id"
            );
        }
    }

    #[test]
    fn run_of_parses_only_run_scoped_topics() {
        assert_eq!(run_of("run/alpha/sa.inbox"), Some("alpha"));
        assert_eq!(run_of("run/alpha/status"), Some("alpha"));
        assert_eq!(run_of("status"), None);
        assert_eq!(run_of("sa.T1"), None);
        assert_eq!(run_of("run/"), None);
        assert_eq!(run_of("run//status"), None);
        assert_eq!(run_of("run/alpha"), None, "no remainder, not run-scoped");
        assert_eq!(run_of("run/alpha/"), None, "empty remainder");
    }

    #[test]
    fn display_roundtrips() {
        let id = RunId::new("alpha").unwrap();
        assert_eq!(id.to_string(), "alpha");
        assert_eq!(RunId::new(id.to_string()).unwrap(), id);
    }
}
