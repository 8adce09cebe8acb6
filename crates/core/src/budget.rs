//! Resource governance for bounded solving.
//!
//! A [`Budget`] caps a worklist drain along three independent axes — fuel
//! (worklist steps), wall-clock time (through an injectable [`Clock`], so
//! deadlines are deterministic under test), and solved-form memory (term
//! and entry counts). The solver checks the budget *before* popping each
//! fact, so an interrupted solve leaves the pending worklist intact: the
//! caller can resume under a fresh budget (converging to the same fixpoint
//! — closure is monotone) or roll back with [`crate::System::pop_epoch`]
//! to the last consistent snapshot.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A millisecond time source for deadline budgets.
///
/// Injectable so tests (and the devtools fault harness) can drive
/// deadlines deterministically; production callers use [`MonotonicClock`].
/// The solver consults the clock once per worklist step while a deadline
/// is set.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Milliseconds elapsed since an arbitrary fixed origin.
    fn now_millis(&self) -> u64;
}

/// The default [`Clock`]: milliseconds since the clock's creation, backed
/// by [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_millis(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Why a bounded solve stopped before reaching the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The step (fuel) budget ran out.
    Steps,
    /// The wall-clock deadline passed.
    Deadline,
    /// The solved form outgrew the term or entry cap.
    Memory,
}

impl InterruptReason {
    /// A stable machine-readable code (used by the batch protocol).
    pub fn code(self) -> &'static str {
        match self {
            InterruptReason::Steps => "steps",
            InterruptReason::Deadline => "deadline",
            InterruptReason::Memory => "memory",
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            InterruptReason::Steps => "step budget exhausted",
            InterruptReason::Deadline => "deadline exceeded",
            InterruptReason::Memory => "memory cap exceeded",
        };
        f.write_str(msg)
    }
}

/// The result of a bounded solve ([`crate::System::solve_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The worklist drained to the fixpoint.
    Complete,
    /// The budget ran out first; the pending worklist is intact.
    Interrupted(InterruptReason),
}

impl Outcome {
    /// Whether the solve reached the fixpoint.
    pub fn is_complete(self) -> bool {
        matches!(self, Outcome::Complete)
    }
}

/// Resource limits for one bounded solve. All axes default to unlimited;
/// builder methods tighten them independently.
///
/// ```
/// use rasc_core::Budget;
///
/// let budget = Budget::unlimited()
///     .with_steps(10_000)
///     .with_deadline_millis(50)
///     .with_max_entries(1_000_000);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_steps: Option<u64>,
    max_millis: Option<u64>,
    max_terms: Option<usize>,
    max_entries: Option<usize>,
    clock: Option<Arc<dyn Clock>>,
}

impl Budget {
    /// A budget with no limits: `solve_bounded` behaves like `solve`.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the number of worklist steps (fuel).
    pub fn with_steps(mut self, max_steps: u64) -> Budget {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets a wall-clock deadline, measured from the start of each bounded
    /// solve (a resumed solve gets a fresh window).
    pub fn with_deadline_millis(mut self, max_millis: u64) -> Budget {
        self.max_millis = Some(max_millis);
        self
    }

    /// Caps the number of interned terms (variables + sources + sinks).
    pub fn with_max_terms(mut self, max_terms: usize) -> Budget {
        self.max_terms = Some(max_terms);
        self
    }

    /// Caps the number of solved-form entries (annotated edges plus lower
    /// and upper bounds) — the solver's dominant memory dimension.
    pub fn with_max_entries(mut self, max_entries: usize) -> Budget {
        self.max_entries = Some(max_entries);
        self
    }

    /// Replaces the deadline time source (defaults to [`MonotonicClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Budget {
        self.clock = Some(clock);
        self
    }

    /// Whether no axis is limited (the clock alone does not count: it is
    /// only consulted when a deadline is set).
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.max_millis.is_none()
            && self.max_terms.is_none()
            && self.max_entries.is_none()
    }

    /// The element-wise tightest combination of two budgets: each axis
    /// takes the smaller of the two caps (an unset axis imposes nothing),
    /// so a caller can tighten an embedder's budget but never loosen it.
    /// The clock is `self`'s, or else `other`'s.
    pub fn min_with(&self, other: &Budget) -> Budget {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Budget {
            max_steps: tighter(self.max_steps, other.max_steps),
            max_millis: tighter(self.max_millis, other.max_millis),
            max_terms: tighter(self.max_terms, other.max_terms),
            max_entries: tighter(self.max_entries, other.max_entries),
            clock: self.clock.clone().or_else(|| other.clock.clone()),
        }
    }

    /// The step cap, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// The deadline in milliseconds, if any.
    pub fn max_millis(&self) -> Option<u64> {
        self.max_millis
    }

    /// The term cap, if any.
    pub fn max_terms(&self) -> Option<usize> {
        self.max_terms
    }

    /// The solved-form entry cap, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Starts metering one bounded solve: snapshots the deadline and
    /// resets the step count.
    pub(crate) fn start(&self) -> BudgetMeter<'_> {
        let deadline = self.max_millis.map(|ms| {
            let clock: Arc<dyn Clock> = match &self.clock {
                Some(c) => Arc::clone(c),
                None => Arc::new(MonotonicClock::new()),
            };
            let at = clock.now_millis().saturating_add(ms);
            (clock, at)
        });
        BudgetMeter {
            budget: self,
            deadline,
            steps: 0,
        }
    }
}

/// Per-solve metering state for a [`Budget`].
pub(crate) struct BudgetMeter<'a> {
    budget: &'a Budget,
    /// `(clock, absolute deadline)` — present only when a deadline is set.
    deadline: Option<(Arc<dyn Clock>, u64)>,
    steps: u64,
}

impl BudgetMeter<'_> {
    /// Checks every axis against the current solver dimensions. Called
    /// before each worklist pop; `None` means "keep going".
    pub(crate) fn check(&self, terms: usize, entries: usize) -> Option<InterruptReason> {
        if let Some(max) = self.budget.max_steps {
            if self.steps >= max {
                return Some(InterruptReason::Steps);
            }
        }
        if let Some((clock, at)) = &self.deadline {
            if clock.now_millis() >= *at {
                return Some(InterruptReason::Deadline);
            }
        }
        if let Some(max) = self.budget.max_terms {
            if terms > max {
                return Some(InterruptReason::Memory);
            }
        }
        if let Some(max) = self.budget.max_entries {
            if entries > max {
                return Some(InterruptReason::Memory);
            }
        }
        None
    }

    /// Records one worklist step.
    pub(crate) fn step(&mut self) {
        self.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct FixedClock(u64);
    impl Clock for FixedClock {
        fn now_millis(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        let meter = budget.start();
        assert_eq!(meter.check(usize::MAX, usize::MAX), None);
        assert!(budget.is_unlimited());
    }

    #[test]
    fn each_axis_trips_with_its_reason() {
        let b = Budget::unlimited().with_steps(2);
        let mut m = b.start();
        assert_eq!(m.check(0, 0), None);
        m.step();
        m.step();
        assert_eq!(m.check(0, 0), Some(InterruptReason::Steps));

        let b = Budget::unlimited()
            .with_deadline_millis(0)
            .with_clock(Arc::new(FixedClock(7)));
        assert_eq!(b.start().check(0, 0), Some(InterruptReason::Deadline));

        let b = Budget::unlimited().with_max_terms(10);
        assert_eq!(b.start().check(11, 0), Some(InterruptReason::Memory));
        assert_eq!(b.start().check(10, 0), None);

        let b = Budget::unlimited().with_max_entries(5);
        assert_eq!(b.start().check(0, 6), Some(InterruptReason::Memory));
    }

    #[test]
    fn limits_min_with_covers_every_edge() {
        let unset = Budget::unlimited();
        // all-None on both sides stays all-None.
        assert!(unset.min_with(&unset).is_unlimited());
        let tight = Budget::unlimited()
            .with_steps(1)
            .with_deadline_millis(2)
            .with_max_terms(3)
            .with_max_entries(4);
        // An unset side imposes nothing, in either direction.
        for combined in [unset.min_with(&tight), tight.min_with(&unset)] {
            assert_eq!(combined.max_steps(), Some(1));
            assert_eq!(combined.max_millis(), Some(2));
            assert_eq!(combined.max_terms(), Some(3));
            assert_eq!(combined.max_entries(), Some(4));
            assert!(!combined.is_unlimited());
        }
        // Element-wise minimum on every field, whichever side is tighter.
        let looser = Budget::unlimited()
            .with_steps(100)
            .with_deadline_millis(1) // tighter than `tight` on this axis only
            .with_max_entries(400);
        let combined = tight.min_with(&looser);
        assert_eq!(combined.max_steps(), Some(1));
        assert_eq!(combined.max_millis(), Some(1));
        assert_eq!(combined.max_terms(), Some(3));
        assert_eq!(combined.max_entries(), Some(4));
        assert_eq!(
            looser.min_with(&tight).max_millis(),
            Some(1),
            "min_with must be symmetric"
        );
        // Zero is a valid (maximally tight) cap, not an unset marker.
        let zero = Budget::unlimited().with_steps(0);
        assert!(!zero.is_unlimited());
        assert_eq!(tight.min_with(&zero).max_steps(), Some(0));
    }

    #[test]
    fn reason_codes_are_stable() {
        assert_eq!(InterruptReason::Steps.code(), "steps");
        assert_eq!(InterruptReason::Deadline.code(), "deadline");
        assert_eq!(InterruptReason::Memory.code(), "memory");
        assert!(Outcome::Complete.is_complete());
        assert!(!Outcome::Interrupted(InterruptReason::Steps).is_complete());
    }
}
