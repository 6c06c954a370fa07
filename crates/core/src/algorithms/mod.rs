//! Update schedulers.
//!
//! All schedulers implement [`UpdateScheduler`]: instance in, round
//! schedule out. The demo paper's two headliners are here —
//!
//! * [`WayUp`] (HotNets'14): transient **waypoint enforcement** plus
//!   loop freedom in greedy rounds, with an automatic fallback to
//!   tag-based two-phase commit where no replacement order exists
//!   (instances with crossing switches);
//! * [`Peacock`] (PODC'15): **relaxed loop freedom** in few rounds via
//!   maximal safe sets, exploiting that switches off the committed path
//!   can update for free —
//!
//! alongside three baselines:
//!
//! * [`OneShot`] — everything in one round (what a naive controller
//!   does; transiently unsafe, the motivation for the paper);
//! * [`SlfGreedy`] — maximal rounds under **strong** loop freedom
//!   (needs Θ(n) rounds on reversal instances);
//! * [`TwoPhaseCommit`] — Reitblatt-style per-packet versioning
//!   (always consistent, but doubles rules and ignores rule-space
//!   cost).
//!
//! The greedy schedulers are (properties, candidate ordering)
//! configurations of one internal engine, and share its admission
//! path: it opens a stateful
//! [`AdmissionProbe`](crate::checker::AdmissionProbe) session per
//! *schedule* and carries it across rounds
//! ([`AdmissionProbe::commit_round`](crate::checker::AdmissionProbe::commit_round)
//! re-seeds the incremental state from each committed round's deltas),
//! so safety probing scales to n = 4096 reversal schedules in a few
//! hundred milliseconds (see `exp_rounds_scaling` and the
//! `schedulers` bench).

mod greedy;
mod oneshot;
mod peacock;
mod slf_greedy;
mod two_phase;
mod wayup;

pub use greedy::CandidateOrdering;
pub use oneshot::OneShot;
pub use peacock::Peacock;
pub use slf_greedy::SlfGreedy;
pub use two_phase::TwoPhaseCommit;
pub use wayup::WayUp;

use std::fmt;

use sdn_types::DpId;

use crate::model::{NodeRole, UpdateInstance};
use crate::schedule::{Round, RuleOp, Schedule};

/// Errors a scheduler can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// The algorithm requires a waypoint but the instance has none.
    NoWaypoint,
    /// No admissible candidate remains although updates are pending.
    /// WayUp never returns it: it answers the HotNets'14 impossibility
    /// (crossing switches) with its two-phase-commit fallback.
    Stuck {
        /// Switches that could not be scheduled.
        remaining: Vec<DpId>,
    },
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::NoWaypoint => write!(f, "instance has no waypoint"),
            SchedulerError::Stuck { remaining } => {
                write!(f, "no admissible candidate; {} pending:", remaining.len())?;
                for v in remaining {
                    write!(f, " {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// A consistent-update scheduling algorithm.
pub trait UpdateScheduler {
    /// Human-readable algorithm name (used in schedules and reports).
    fn name(&self) -> &'static str;

    /// Compute a round-based schedule for the instance.
    fn schedule(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError>;
}

/// The preliminary round installing rules at new-only switches. These
/// carry no traffic until a shared switch activates, so installing them
/// all at once is safe under every property. Returns `None` when the
/// instance has no new-only switches.
pub(crate) fn new_only_round(inst: &UpdateInstance) -> Option<Round> {
    let ops: Vec<RuleOp> = inst
        .nodes_with_role(NodeRole::NewOnly)
        .into_iter()
        .map(RuleOp::Activate)
        .collect();
    if ops.is_empty() {
        None
    } else {
        Some(Round::new(ops))
    }
}

/// The final cleanup round removing stale old rules at old-only
/// switches, dispatched only after the data plane has fully converged
/// to the new policy (the switches are unreachable by then). Returns
/// `None` when there is nothing to clean up.
pub(crate) fn cleanup_round(inst: &UpdateInstance) -> Option<Round> {
    let ops: Vec<RuleOp> = inst
        .nodes_with_role(NodeRole::OldOnly)
        .into_iter()
        .filter(|&v| v != inst.dst())
        .map(RuleOp::RemoveOld)
        .collect();
    if ops.is_empty() {
        None
    } else {
        Some(Round::new(ops))
    }
}

/// Shared switches that need activation (every shared switch except
/// the destination, which stores no forwarding rule for this flow).
pub(crate) fn pending_shared(inst: &UpdateInstance) -> Vec<DpId> {
    inst.nodes_with_role(NodeRole::Shared)
        .into_iter()
        .filter(|&v| v != inst.dst())
        .collect()
}

/// Assemble a replacement schedule: new-only installs, the algorithm's
/// activation rounds, cleanup.
pub(crate) fn assemble(
    name: &str,
    inst: &UpdateInstance,
    activation_rounds: Vec<Round>,
) -> Schedule {
    let mut rounds = Vec::new();
    if let Some(r) = new_only_round(inst) {
        rounds.push(r);
    }
    rounds.extend(activation_rounds.into_iter().filter(|r| !r.is_empty()));
    if let Some(r) = cleanup_round(inst) {
        rounds.push(r);
    }
    Schedule::replacement(name, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::route::RoutePath;

    fn inst(old: &[u64], new: &[u64]) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn helper_rounds() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4]);
        let no = new_only_round(&i).unwrap();
        assert_eq!(no.ops, vec![RuleOp::Activate(DpId(5))]);
        let cl = cleanup_round(&i).unwrap();
        assert_eq!(cl.ops, vec![RuleOp::RemoveOld(DpId(2))]);
        assert_eq!(pending_shared(&i), vec![DpId(1), DpId(3)]);
    }

    #[test]
    fn helpers_return_none_when_empty() {
        let i = inst(&[1, 2, 3], &[1, 2, 3]);
        assert!(new_only_round(&i).is_none());
        assert!(cleanup_round(&i).is_none());
    }

    #[test]
    fn assemble_skips_empty_rounds() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4]);
        let s = assemble(
            "t",
            &i,
            vec![
                Round::default(),
                Round::new(vec![RuleOp::Activate(DpId(1))]),
            ],
        );
        assert_eq!(s.round_count(), 3); // new-only, activation, cleanup
        assert!(s.validate(&i).is_ok());
    }

    #[test]
    fn scheduler_error_display() {
        let e = SchedulerError::Stuck {
            remaining: vec![DpId(2), DpId(3)],
        };
        assert!(e.to_string().contains("s2"));
        assert_eq!(
            SchedulerError::NoWaypoint.to_string(),
            "instance has no waypoint"
        );
    }
}
