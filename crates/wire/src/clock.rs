//! Wall-clock deadline for the TCP transport's bounded ack wait.
//!
//! [`crate::sender::BeaconSender`] is clock-agnostic (every method takes
//! `now_us`), but a real socket wait that a signal interrupts must
//! re-derive how much of its budget is left. This is the crate's only
//! wall-clock read.

use std::time::{Duration, Instant};

/// A monotonic point in time a wait must not outlast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Instant);

impl Deadline {
    /// The deadline `budget` from now.
    pub(crate) fn after(budget: Duration) -> Deadline {
        Deadline(Instant::now() + budget)
    }

    /// Time left until the deadline; zero once it has passed.
    pub(crate) fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}
