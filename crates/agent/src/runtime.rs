//! Runtime configuration ([`RunOptions`]) and the error a wait on a run
//! can end in ([`WaitError`]).

use crate::engine::RunFailure;
use ginflow_core::TaskState;
use ginflow_mq::RunId;

/// Runtime tuning of the [`Scheduler`](crate::Scheduler).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Worker threads of the event-driven scheduler. `0` (the default)
    /// resolves to the machine's available parallelism.
    ///
    /// Service invocations run inline on the workers, so long-blocking
    /// services serialize per shard: raise this for workloads dominated
    /// by slow external services.
    pub workers: usize,
    /// Automatically respawn dead agents (§IV-B recovery: the worker
    /// that observes a death starts the replacement). Requires a
    /// persistent broker to be useful.
    pub auto_recover: bool,
    /// Multi-process sharding: `Some((index, count))` makes this
    /// process run only the agents whose FNV name-hash lands in shard
    /// `index` of `count`. All shards must share one **persistent**
    /// broker (in practice a `ginflow-net` remote broker on the log
    /// profile): a sharded process subscribes with full replay, which
    /// is both how a process that starts after its peers catches up on
    /// their progress and how a killed-and-respawned shard rebuilds its
    /// agents' state. The shared status topic is the cross-shard
    /// membrane, so waits and reports still cover the whole workflow.
    /// `ginflow-engine` enforces the persistence requirement at
    /// `Engine::build`; driving the `Scheduler` directly with a
    /// transient broker and a shard set loses cross-shard messages
    /// published before this process subscribed.
    pub shard: Option<(u32, u32)>,
    /// The run id every topic of the launch is namespaced under
    /// (`run/<id>/sa.<task>`, `run/<id>/status`). `None` (the default)
    /// generates a fresh id per launch, so runs sharing a broker are
    /// isolated from each other. Pin it for multi-process sharding:
    /// every shard of one run must join the *same* namespace
    /// (`ginflow-engine` enforces this at `Engine::build`; `ginflow run
    /// --shard` requires `--run-id`).
    pub run_id: Option<RunId>,
}

impl RunOptions {
    /// The worker count to use: explicit, or the machine's parallelism.
    pub(crate) fn resolve_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

/// Waiting for a workflow failed.
#[derive(Debug)]
pub enum WaitError {
    /// The wait's timeout passed; the snapshot shows where execution
    /// stood.
    Timeout {
        /// Task states at the timeout.
        statuses: Vec<(String, TaskState)>,
    },
    /// The *run's* deadline expired while waiting; the run has been
    /// cancelled and torn down.
    Deadline {
        /// Task states at the deadline.
        statuses: Vec<(String, TaskState)>,
    },
    /// The run was cancelled (or torn down) while waiting.
    Cancelled,
    /// The run failed on its own — an unwatched sink failed, or
    /// execution stalled — so no amount of waiting will produce its
    /// results.
    Failed(RunFailure),
    /// A sink reached `Completed` without publishing a result — a
    /// protocol violation that used to be silently dropped from the
    /// result map.
    MissingResult {
        /// The sink with no result.
        task: String,
    },
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dump = |f: &mut std::fmt::Formatter<'_>, statuses: &[(String, TaskState)]| {
            for (t, s) in statuses {
                write!(f, "{t}={s} ")?;
            }
            Ok(())
        };
        match self {
            WaitError::Timeout { statuses } => {
                write!(f, "workflow did not complete in time; states: ")?;
                dump(f, statuses)
            }
            WaitError::Deadline { statuses } => {
                write!(f, "run deadline expired (run cancelled); states: ")?;
                dump(f, statuses)
            }
            WaitError::Cancelled => f.write_str("run was cancelled"),
            WaitError::Failed(failure) => write!(f, "run failed: {failure:?}"),
            WaitError::MissingResult { task } => {
                write!(f, "sink {task:?} completed without publishing a result")
            }
        }
    }
}

impl std::error::Error for WaitError {}
