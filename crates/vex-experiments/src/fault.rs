//! Fault-injection plan for exercising the sweep runner's isolation and
//! crash-resume machinery from tests. Production sweeps never
//! construct one; the hooks cost a few `Option` checks per point.
//!
//! Faults address points by their **flat expansion index** (the order
//! `SweepSpec::expand` yields, which is also the order of
//! `SweepOutcome::points`). A *simulated crash* needs no hook here: tests
//! cut the journal file at an arbitrary byte themselves, which is exactly
//! what a real `kill -9` leaves behind.

/// Which points fail, and how.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Panic while simulating this point.
    pub panic_at: Option<usize>,
    /// Return a structured error from this point.
    pub error_at: Option<usize>,
}

impl FaultPlan {
    /// A plan that panics at flat point index `i`.
    pub fn panic_at(i: usize) -> FaultPlan {
        FaultPlan {
            panic_at: Some(i),
            ..Default::default()
        }
    }

    /// A plan that fails flat point index `i` with an error.
    pub fn error_at(i: usize) -> FaultPlan {
        FaultPlan {
            error_at: Some(i),
            ..Default::default()
        }
    }
}
