//! One execution of an application run under one schedule, observed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use carlos_apps::{launch_with, Reference, Spec};
use carlos_check::{Checker, Violation};
use carlos_sim::time::secs;
use carlos_sim::{SchedulePlan, SimConfig};

/// How one execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The run completed and the answer matched the reference.
    Ok,
    /// The run completed with an answer that contradicts the reference.
    WrongAnswer,
    /// The run did not complete: stall, abort, runaway, or panic.
    Crashed(String),
}

/// Everything the explorer learns from one execution.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Outcome of the run.
    pub status: RunStatus,
    /// Oracle violations the checker recorded.
    pub violations: Vec<Violation>,
    /// The checker's wire-delivery log (frontier and fingerprint input).
    pub deliveries: Vec<carlos_check::DeliveryEvent>,
}

impl Observation {
    /// True when this execution is a counterexample: the oracle objected,
    /// the answer was wrong, or the run did not finish.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.status != RunStatus::Ok || !self.violations.is_empty()
    }
}

/// The simulator configuration an exploration execution perturbs: the
/// spec's own, or `fast_test` with a 10-virtual-second runaway cap. Clean
/// `fast_test` runs of every application finish in well under a virtual
/// second; the cap turns livelocked counterexamples (which otherwise burn
/// the full 7200-virtual-second budget) into promptly detected crashes.
#[must_use]
pub fn base_sim(spec: &Spec) -> SimConfig {
    spec.sim.clone().unwrap_or_else(|| {
        let mut sim = SimConfig::fast_test();
        sim.max_virtual_time = Some(secs(10));
        sim
    })
}

/// `spec` under the targeted delivery perturbations of `plan`.
#[must_use]
pub fn planned(spec: &Spec, plan: &SchedulePlan) -> Spec {
    Spec {
        sim: Some(base_sim(spec).with_schedule(plan.clone())),
        ..spec.clone()
    }
}

/// Runs `spec` once under a fresh checker and judges its answer against
/// `reference`. Node panics are contained and reported as
/// [`RunStatus::Crashed`], so a seeded bug that trips a runtime assertion
/// still yields an observation instead of unwinding the explorer.
#[must_use]
pub fn observe(spec: &Spec, reference: &Reference) -> Observation {
    let check = Checker::new(spec.n);
    let outcome = catch_unwind(AssertUnwindSafe(|| launch_with(spec, Some(check.clone()), None)));
    let status = match outcome {
        Ok(Ok(run)) if run.verdict(reference).is_ok() => RunStatus::Ok,
        Ok(Ok(_)) => RunStatus::WrongAnswer,
        Ok(Err(e)) => RunStatus::Crashed(e.to_string()),
        Err(p) => RunStatus::Crashed(format!("panic: {}", panic_text(&p))),
    };
    Observation {
        status,
        violations: check.violations(),
        deliveries: check.deliveries(),
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
