//! Deterministic fault injection for the solver's resource governor.
//!
//! A [`FaultPlan`] names a governor axis and a step count; materializing
//! it ([`FaultPlan::budget`]) yields a [`Budget`] that interrupts a solve
//! at (or within one step of) the planned worklist step — with no real
//! clocks or threads, so property tests composing plans with the
//! [`crate::Rng`] harness replay bit-for-bit from a seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rasc_core::{Budget, Clock};

use crate::rng::Rng;

/// Which governor axis a [`FaultPlan`] trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The step (fuel) budget runs out.
    StepExhaustion,
    /// The wall-clock deadline passes (driven by a stepped fake clock).
    Deadline,
}

/// A deterministic plan to interrupt a bounded solve at the `at_step`-th
/// worklist step via the chosen mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The axis to trip.
    pub kind: FaultKind,
    /// The worklist step at which to trip it. `0` interrupts before any
    /// fact is processed.
    pub at_step: u64,
}

impl FaultPlan {
    /// A plan tripping `kind` at worklist step `at_step`.
    pub fn new(kind: FaultKind, at_step: u64) -> FaultPlan {
        FaultPlan { kind, at_step }
    }

    /// Draws a random plan (uniform kind, step in `0..max_step`) — for
    /// composing with the [`crate::forall`] property harness.
    pub fn arbitrary(rng: &mut Rng, max_step: u64) -> FaultPlan {
        let kind = if rng.gen_bool(0.5) {
            FaultKind::StepExhaustion
        } else {
            FaultKind::Deadline
        };
        FaultPlan::new(kind, rng.gen_range(0..max_step.max(1) as usize) as u64)
    }

    /// Materializes the plan as a [`Budget`]. Each call builds a fresh
    /// clock, so one plan can bound many solves independently.
    ///
    /// The solver consults the budget once per worklist step, which is
    /// what makes the fake clock step-deterministic: `StepExhaustion`
    /// trips exactly at `at_step`; `Deadline` trips within one step of
    /// it.
    pub fn budget(&self) -> Budget {
        match self.kind {
            FaultKind::StepExhaustion => Budget::unlimited().with_steps(self.at_step),
            FaultKind::Deadline => Budget::unlimited()
                .with_deadline_millis(self.at_step)
                .with_clock(Arc::new(SteppedClock::default())),
        }
    }
}

impl crate::prop::Shrink for FaultPlan {
    fn shrink(&self) -> Vec<FaultPlan> {
        let mut out: Vec<FaultPlan> = self
            .at_step
            .shrink()
            .into_iter()
            .map(|s| FaultPlan::new(self.kind, s))
            .collect();
        // Step exhaustion is the simplest mechanism; prefer it.
        if self.kind != FaultKind::StepExhaustion {
            out.push(FaultPlan::new(FaultKind::StepExhaustion, self.at_step));
        }
        out
    }
}

/// A fake clock advancing one millisecond per consultation.
#[derive(Debug, Default)]
pub struct SteppedClock {
    ticks: AtomicU64,
}

impl Clock for SteppedClock {
    fn now_millis(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a: Vec<FaultPlan> = {
            let mut rng = Rng::new(42);
            (0..32)
                .map(|_| FaultPlan::arbitrary(&mut rng, 100))
                .collect()
        };
        let b: Vec<FaultPlan> = {
            let mut rng = Rng::new(42);
            (0..32)
                .map(|_| FaultPlan::arbitrary(&mut rng, 100))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn budgets_trip_the_planned_axis() {
        // Exercise the materialized budgets through their public shape:
        // a steps plan produces a steps cap, a deadline plan a deadline.
        let b = FaultPlan::new(FaultKind::StepExhaustion, 7).budget();
        assert_eq!(b.max_steps(), Some(7));
        let b = FaultPlan::new(FaultKind::Deadline, 7).budget();
        assert_eq!(b.max_millis(), Some(7));
    }
}
