//! Tasks: the nodes of a workflow DAG.

use crate::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense task identifier: an index into the workflow's task table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// As a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Static description of one task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    /// Unique name (the paper's `T1`, `T2′`, `mProject_17`, …).
    pub name: String,
    /// Name of the service implementing the task, resolved against a
    /// [`crate::ServiceRegistry`] at execution time.
    pub service: String,
    /// Workflow-initial inputs (the `IN : ⟨input⟩` of Fig 3).
    pub inputs: Vec<Value>,
    /// `Some(adaptation)` marks a *standby* task: it belongs to the
    /// replacement sub-workflow of that adaptation and only activates when
    /// the adaptation triggers.
    pub standby_for: Option<crate::AdaptationId>,
}

impl TaskSpec {
    /// A plain active task.
    pub fn new(name: impl Into<String>, service: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            service: service.into(),
            inputs: Vec::new(),
            standby_for: None,
        }
    }

    /// Is this a standby (replacement) task?
    pub fn is_standby(&self) -> bool {
        self.standby_for.is_some()
    }
}

/// Lifecycle of a task as observed through the shared space (the legend of
/// the paper's Fig 1, plus the failure state).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TaskState {
    /// Waiting on dependencies (or standby).
    Idle,
    /// Service invocation in flight.
    Running,
    /// Result obtained.
    Completed,
    /// Service signalled an error (an `ERROR` atom appeared in `RES`).
    Failed,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Idle => "idle",
            TaskState::Running => "running",
            TaskState::Completed => "completed",
            TaskState::Failed => "failed",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_basics() {
        let mut t = TaskSpec::new("T1", "s1");
        assert!(!t.is_standby());
        t.standby_for = Some(crate::AdaptationId(0));
        assert!(t.is_standby());
        assert_eq!(format!("{}", TaskId(3)), "#3");
    }

    #[test]
    fn state_display() {
        assert_eq!(TaskState::Running.to_string(), "running");
        assert_eq!(TaskState::Failed.to_string(), "failed");
    }
}
