//! Round-based update schedules.
//!
//! A [`Schedule`] is an ordered list of [`Round`]s; each round is a set
//! of [`RuleOp`]s the controller may dispatch concurrently. The
//! controller closes a round with OpenFlow barrier request/reply before
//! opening the next (the demo's §2 mechanism), so the only uncertainty
//! is *which subset of the current round* has already taken effect.
//!
//! Two schedule kinds exist:
//!
//! * [`ScheduleKind::Replacement`] — switches atomically swap their old
//!   rule for the new one (WayUp, Peacock, SLF-greedy, one-shot);
//! * [`ScheduleKind::Tagged`] — Reitblatt-style two-phase commit using
//!   packet version tags (the fallback when rule replacement cannot
//!   preserve waypoint enforcement).

use std::collections::BTreeSet;
use std::fmt;

use sdn_types::DpId;

use crate::config::{ACTIVATED, OLD_REMOVED, TAGGED};
use crate::model::{NodeRole, UpdateInstance};

/// One rule operation at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleOp {
    /// Replacement semantics: a shared switch swaps old → new; a
    /// new-only switch installs its new rule.
    Activate(DpId),
    /// Remove the (stale) old rule at a switch — cleanup rounds.
    RemoveOld(DpId),
    /// Two-phase commit: install the new rule matching the NEW version
    /// tag at a switch, leaving the untagged old rule in place.
    InstallTagged(DpId),
    /// Two-phase commit: the ingress switch starts stamping packets
    /// with the NEW tag and forwarding per the new policy.
    FlipIngress,
}

impl RuleOp {
    /// The switch this operation touches. `FlipIngress` touches the
    /// instance's source switch, which the op itself does not name;
    /// callers resolve it via [`RuleOp::switch_on`].
    pub fn switch(&self) -> Option<DpId> {
        match self {
            RuleOp::Activate(v) | RuleOp::RemoveOld(v) | RuleOp::InstallTagged(v) => Some(*v),
            RuleOp::FlipIngress => None,
        }
    }

    /// The switch this operation names and the [`ConfigState`] flag it
    /// sets there; `None` for `FlipIngress`.
    ///
    /// [`ConfigState`]: crate::config::ConfigState
    pub(crate) fn flag(&self) -> Option<(DpId, u8)> {
        match *self {
            RuleOp::Activate(v) => Some((v, ACTIVATED)),
            RuleOp::RemoveOld(v) => Some((v, OLD_REMOVED)),
            RuleOp::InstallTagged(v) => Some((v, TAGGED)),
            RuleOp::FlipIngress => None,
        }
    }

    /// The switch this operation touches, resolving `FlipIngress`
    /// against the instance.
    pub fn switch_on(&self, inst: &UpdateInstance) -> DpId {
        match self {
            RuleOp::Activate(v) | RuleOp::RemoveOld(v) | RuleOp::InstallTagged(v) => *v,
            RuleOp::FlipIngress => inst.src(),
        }
    }
}

impl fmt::Display for RuleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleOp::Activate(v) => write!(f, "activate({v})"),
            RuleOp::RemoveOld(v) => write!(f, "remove-old({v})"),
            RuleOp::InstallTagged(v) => write!(f, "install-tagged({v})"),
            RuleOp::FlipIngress => write!(f, "flip-ingress"),
        }
    }
}

/// A set of operations dispatched concurrently, closed by a barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Round {
    /// Operations of this round (order is presentation-only; delivery
    /// is asynchronous).
    pub ops: Vec<RuleOp>,
}

impl Round {
    /// A round from a list of operations.
    pub fn new(ops: Vec<RuleOp>) -> Self {
        Round { ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the round has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Switches touched by this round.
    pub fn switches(&self, inst: &UpdateInstance) -> BTreeSet<DpId> {
        self.ops.iter().map(|op| op.switch_on(inst)).collect()
    }
}

/// Rule semantics of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Plain rule replacement.
    Replacement,
    /// Tag-based two-phase commit.
    Tagged,
}

/// Validation errors for schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// An operation references a switch outside the instance.
    UnknownSwitch(DpId),
    /// The same operation appears twice.
    DuplicateOp(RuleOp),
    /// `Activate` on an old-only switch (it has no new rule).
    ActivateOldOnly(DpId),
    /// `RemoveOld` on a new-only switch (it has no old rule).
    RemoveOldNewOnly(DpId),
    /// Tagged ops in a replacement schedule or vice versa.
    KindMismatch(RuleOp),
    /// A round is empty.
    EmptyRound(usize),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnknownSwitch(v) => write!(f, "op touches unknown switch {v}"),
            ScheduleError::DuplicateOp(op) => write!(f, "duplicate operation {op}"),
            ScheduleError::ActivateOldOnly(v) => {
                write!(f, "activate on old-only switch {v} (no new rule)")
            }
            ScheduleError::RemoveOldNewOnly(v) => {
                write!(f, "remove-old on new-only switch {v} (no old rule)")
            }
            ScheduleError::KindMismatch(op) => {
                write!(f, "operation {op} inconsistent with schedule kind")
            }
            ScheduleError::EmptyRound(i) => write!(f, "round {i} is empty"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete round-based schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Rule semantics.
    pub kind: ScheduleKind,
    /// The rounds, executed in order with barriers between them.
    pub rounds: Vec<Round>,
    /// Name of the algorithm that produced the schedule.
    pub algorithm: String,
    /// Whether the algorithm fell back to two-phase commit (WayUp on
    /// instances with crossing switches).
    pub fallback: bool,
}

impl Schedule {
    /// New replacement-kind schedule.
    pub fn replacement(algorithm: impl Into<String>, rounds: Vec<Round>) -> Self {
        Schedule {
            kind: ScheduleKind::Replacement,
            rounds,
            algorithm: algorithm.into(),
            fallback: false,
        }
    }

    /// New tagged-kind schedule.
    pub fn tagged(algorithm: impl Into<String>, rounds: Vec<Round>) -> Self {
        Schedule {
            kind: ScheduleKind::Tagged,
            rounds,
            algorithm: algorithm.into(),
            fallback: false,
        }
    }

    /// Number of rounds (each costs one barrier sweep).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of rule operations.
    pub fn op_count(&self) -> usize {
        self.rounds.iter().map(|r| r.ops.len()).sum()
    }

    /// All operations in round order.
    pub fn all_ops(&self) -> impl Iterator<Item = (usize, &RuleOp)> {
        self.rounds
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.ops.iter().map(move |op| (i, op)))
    }

    /// Validate the schedule against an instance: every op touches a
    /// participating switch with the right role, no op repeats, and op
    /// kinds match the schedule kind.
    pub fn validate(&self, inst: &UpdateInstance) -> Result<(), ScheduleError> {
        // Ops seen so far: per participant, the flag bit of each op
        // kind (an op at a foreign switch is rejected on first sight).
        let mut seen = vec![0u8; inst.node_count()];
        let mut flip_seen = false;
        for (i, round) in self.rounds.iter().enumerate() {
            if round.is_empty() {
                return Err(ScheduleError::EmptyRound(i));
            }
            for op in &round.ops {
                let repeated = match op.flag() {
                    Some((v, bit)) => inst.index(v).is_some_and(|k| {
                        let before = seen[k];
                        seen[k] |= bit;
                        before & bit != 0
                    }),
                    None => std::mem::replace(&mut flip_seen, true),
                };
                if repeated {
                    return Err(ScheduleError::DuplicateOp(*op));
                }
                match (self.kind, op) {
                    (ScheduleKind::Replacement, RuleOp::InstallTagged(_))
                    | (ScheduleKind::Replacement, RuleOp::FlipIngress)
                    | (ScheduleKind::Tagged, RuleOp::Activate(_)) => {
                        return Err(ScheduleError::KindMismatch(*op));
                    }
                    _ => {}
                }
                match op {
                    RuleOp::Activate(v) => match inst.role(*v) {
                        None => return Err(ScheduleError::UnknownSwitch(*v)),
                        Some(NodeRole::OldOnly) => return Err(ScheduleError::ActivateOldOnly(*v)),
                        _ => {}
                    },
                    RuleOp::RemoveOld(v) => match inst.role(*v) {
                        None => return Err(ScheduleError::UnknownSwitch(*v)),
                        Some(NodeRole::NewOnly) => return Err(ScheduleError::RemoveOldNewOnly(*v)),
                        _ => {}
                    },
                    RuleOp::InstallTagged(v) => {
                        if inst.role(*v).is_none() {
                            return Err(ScheduleError::UnknownSwitch(*v));
                        }
                    }
                    RuleOp::FlipIngress => {}
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule by {} ({:?}, {} rounds, {} ops{})",
            self.algorithm,
            self.kind,
            self.round_count(),
            self.op_count(),
            if self.fallback { ", fallback" } else { "" }
        )?;
        for (i, r) in self.rounds.iter().enumerate() {
            write!(f, "  round {}:", i + 1)?;
            for op in &r.ops {
                write!(f, " {op}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::route::RoutePath;

    fn inst() -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(&[1, 2, 3, 4]).unwrap(),
            RoutePath::from_raw(&[1, 5, 3, 4]).unwrap(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn counts() {
        let s = Schedule::replacement(
            "test",
            vec![
                Round::new(vec![RuleOp::Activate(DpId(5))]),
                Round::new(vec![RuleOp::Activate(DpId(1)), RuleOp::Activate(DpId(3))]),
            ],
        );
        assert_eq!(s.round_count(), 2);
        assert_eq!(s.op_count(), 3);
        assert_eq!(s.all_ops().count(), 3);
        assert_eq!(s.all_ops().next().unwrap().0, 0);
    }

    #[test]
    fn validate_accepts_good_schedule() {
        let i = inst();
        let s = Schedule::replacement(
            "test",
            vec![
                Round::new(vec![RuleOp::Activate(DpId(5))]),
                Round::new(vec![RuleOp::Activate(DpId(1))]),
                Round::new(vec![RuleOp::RemoveOld(DpId(2))]),
            ],
        );
        assert!(s.validate(&i).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_switch() {
        let i = inst();
        let s = Schedule::replacement("t", vec![Round::new(vec![RuleOp::Activate(DpId(99))])]);
        assert_eq!(s.validate(&i), Err(ScheduleError::UnknownSwitch(DpId(99))));
    }

    #[test]
    fn validate_rejects_duplicate() {
        let i = inst();
        let s = Schedule::replacement(
            "t",
            vec![
                Round::new(vec![RuleOp::Activate(DpId(1))]),
                Round::new(vec![RuleOp::Activate(DpId(1))]),
            ],
        );
        assert_eq!(
            s.validate(&i),
            Err(ScheduleError::DuplicateOp(RuleOp::Activate(DpId(1))))
        );
    }

    #[test]
    fn validate_rejects_role_mismatch() {
        let i = inst();
        let bad_activate =
            Schedule::replacement("t", vec![Round::new(vec![RuleOp::Activate(DpId(2))])]);
        assert_eq!(
            bad_activate.validate(&i),
            Err(ScheduleError::ActivateOldOnly(DpId(2)))
        );
        let bad_remove =
            Schedule::replacement("t", vec![Round::new(vec![RuleOp::RemoveOld(DpId(5))])]);
        assert_eq!(
            bad_remove.validate(&i),
            Err(ScheduleError::RemoveOldNewOnly(DpId(5)))
        );
    }

    #[test]
    fn validate_rejects_kind_mismatch() {
        let i = inst();
        let s = Schedule::replacement("t", vec![Round::new(vec![RuleOp::FlipIngress])]);
        assert_eq!(
            s.validate(&i),
            Err(ScheduleError::KindMismatch(RuleOp::FlipIngress))
        );
        let s2 = Schedule::tagged("t", vec![Round::new(vec![RuleOp::Activate(DpId(1))])]);
        assert_eq!(
            s2.validate(&i),
            Err(ScheduleError::KindMismatch(RuleOp::Activate(DpId(1))))
        );
    }

    #[test]
    fn validate_rejects_empty_round() {
        let i = inst();
        let s = Schedule::replacement("t", vec![Round::default()]);
        assert_eq!(s.validate(&i), Err(ScheduleError::EmptyRound(0)));
    }

    #[test]
    fn round_switches_resolves_flip() {
        let i = inst();
        let r = Round::new(vec![RuleOp::FlipIngress, RuleOp::InstallTagged(DpId(3))]);
        let sws = r.switches(&i);
        assert!(sws.contains(&DpId(1))); // src
        assert!(sws.contains(&DpId(3)));
    }

    #[test]
    fn display_lists_rounds() {
        let s = Schedule::replacement("peacock", vec![Round::new(vec![RuleOp::Activate(DpId(5))])]);
        let out = s.to_string();
        assert!(out.contains("peacock"));
        assert!(out.contains("round 1: activate(s5)"));
    }
}
