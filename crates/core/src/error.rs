use std::fmt;

/// Errors produced by reg-cluster mining entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A mining parameter is out of its valid domain.
    InvalidParams(String),
    /// A worker thread panicked; the message is the captured panic payload.
    /// The panic is contained — no other worker's results are lost — but the
    /// run's output is discarded because the panicking subtree is
    /// incomplete. When the run carried a
    /// [`CheckpointPlan`](crate::checkpoint::CheckpointPlan), a final
    /// checkpoint (including the panicking node) was flushed before this
    /// error was raised, so the run can be resumed.
    WorkerPanic(String),
    /// Checkpointing failed: a resume checkpoint did not match this run
    /// (different parameters, dimensions, or matrix content) or the
    /// [`CheckpointSink`](crate::checkpoint::CheckpointSink) could not
    /// persist a snapshot. A run that cannot honor its durability contract
    /// aborts rather than continuing un-checkpointed.
    Checkpoint(String),
    /// Delta mining could not reuse the previous run: the root-fingerprint
    /// vectors are incomparable (different condition counts) or the
    /// previous run's provenance is unusable. The remedy is a full
    /// re-mine; this error never silently degrades into one.
    Delta(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParams(msg) => write!(f, "invalid mining parameters: {msg}"),
            CoreError::WorkerPanic(msg) => write!(f, "mining worker panicked: {msg}"),
            CoreError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            CoreError::Delta(msg) => write!(f, "delta mining error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}
