//! WayUp: transiently waypoint-enforcing updates (HotNets'14).
//!
//! The waypoint (firewall, IDS) must be traversed by *every* packet,
//! including those in flight while the update is half-applied. WayUp's
//! structure ("Good Network Updates for Bad Packets"):
//!
//! 1. install the rules of new-only switches (no traffic yet);
//! 2. **suffix phase** — update the switches at or after the waypoint
//!    (old-route order). Packets still travel the intact old prefix,
//!    hence through the waypoint, before they can meet any changed
//!    rule;
//! 3. **prefix phase** — update the switches before the waypoint. On
//!    crossing-free instances every new prefix rule keeps packets on
//!    the waypoint's near side, so they still reach it;
//! 4. cleanup.
//!
//! Each phase is internally scheduled loop-free by the greedy engine
//! under the *combined* waypoint-enforcement + loop-freedom oracle
//! (one [`AdmissionProbe`](crate::checker::AdmissionProbe) session per
//! round, including the waypoint-detour reachability check), so phase
//! membership is a heuristic for round quality while correctness is
//! enforced per round. The demo pairs WayUp's waypoint enforcement
//! with Peacock's weak loop freedom ("ensuring waypoint enforcement
//! \[5\], weak loop freedom \[4\]") — the default here; strong loop
//! freedom is available as an option.
//!
//! **Fallback.** When the instance has *crossing switches* (before the
//! waypoint on one route, after it on the other), a rule-replacement
//! schedule preserving waypoint enforcement may not exist (HotNets'14
//! impossibility). If a phase gets stuck, WayUp returns the tag-based
//! [`TwoPhaseCommit`] schedule instead, marked with
//! [`Schedule::fallback`] = `true` — matching operator expectations:
//! the update always completes, the mechanism is reported.

use sdn_types::DpId;

use crate::config::ConfigState;
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet};
use crate::schedule::Schedule;

use super::greedy::{greedy_rounds, CandidateOrdering};
use super::{assemble, pending_shared, SchedulerError, TwoPhaseCommit, UpdateScheduler};

/// The waypoint-enforcing scheduler.
#[derive(Debug, Clone, Copy)]
pub struct WayUp {
    /// Loop-freedom strength inside phases: `false` (default) uses
    /// relaxed loop freedom (the demo's pairing with \[4\]); `true`
    /// additionally enforces strong loop freedom.
    pub strong_loop_freedom: bool,
    /// Candidate ordering inside phases.
    pub ordering: CandidateOrdering,
}

impl Default for WayUp {
    fn default() -> Self {
        WayUp {
            strong_loop_freedom: false,
            ordering: CandidateOrdering::OffPathFirst,
        }
    }
}

impl WayUp {
    fn props(&self) -> PropertySet {
        let p = PropertySet::transiently_secure();
        if self.strong_loop_freedom {
            p.with(Property::StrongLoopFreedom)
        } else {
            p
        }
    }

    fn try_replacement(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        let w = inst.waypoint().ok_or(SchedulerError::NoWaypoint)?;
        let wo = inst
            .old_position(w)
            .expect("validated: waypoint on old route");
        let props = self.props();

        let mut base = ConfigState::initial(inst);
        if let Some(r) = super::new_only_round(inst) {
            base.apply_all(&r.ops);
        }

        let (suffix, prefix): (Vec<DpId>, Vec<DpId>) = pending_shared(inst)
            .into_iter()
            .partition(|&v| inst.old_position(v).expect("shared is on old route") >= wo);

        let mut rounds = Vec::new();
        for phase in [suffix, prefix] {
            if phase.is_empty() {
                continue;
            }
            let phase_rounds = greedy_rounds(inst, &mut base, phase, &props, self.ordering, true)?;
            rounds.extend(phase_rounds);
        }
        Ok(assemble(self.name(), inst, rounds))
    }
}

impl UpdateScheduler for WayUp {
    fn name(&self) -> &'static str {
        "wayup"
    }

    fn schedule(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        match self.try_replacement(inst) {
            Ok(s) => Ok(s),
            Err(SchedulerError::Stuck { .. }) => {
                let mut s = TwoPhaseCommit.schedule(inst)?;
                s.algorithm = "wayup+2pc-fallback".to_string();
                s.fallback = true;
                Ok(s)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::verify_schedule;
    use sdn_topo::gen;
    use sdn_topo::route::RoutePath;
    use sdn_types::DetRng;

    fn inst(old: &[u64], new: &[u64], wp: u64) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            Some(DpId(wp)),
        )
        .unwrap()
    }

    #[test]
    fn requires_waypoint() {
        let i = UpdateInstance::new(
            RoutePath::from_raw(&[1, 2, 3]).unwrap(),
            RoutePath::from_raw(&[1, 4, 3]).unwrap(),
            None,
        )
        .unwrap();
        assert_eq!(
            WayUp::default().schedule(&i),
            Err(SchedulerError::NoWaypoint)
        );
    }

    #[test]
    fn crossing_free_detour_verifies_transiently_secure() {
        // Figure-1 shape: shared only src, waypoint, dst.
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 7, 3, 8, 9, 6], 3);
        let s = WayUp::default().schedule(&i).unwrap();
        assert!(!s.fallback, "crossing-free must not fall back:\n{s}");
        let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn suffix_updates_before_prefix() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 7, 3, 8, 9, 6], 3);
        let s = WayUp::default().schedule(&i).unwrap();
        // find activation rounds of shared switches: 3 (suffix, = wp)
        // must be activated no later than 1 (prefix/src).
        let mut round_of = std::collections::BTreeMap::new();
        for (ri, op) in s.all_ops() {
            if let crate::schedule::RuleOp::Activate(v) = op {
                round_of.insert(*v, ri);
            }
        }
        assert!(round_of[&DpId(3)] <= round_of[&DpId(1)]);
    }

    #[test]
    fn crossing_instance_falls_back_to_2pc() {
        // 2 and 4 cross waypoint 3: replacement WPE is impossible.
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], 3);
        let s = WayUp::default().schedule(&i).unwrap();
        assert!(s.fallback, "expected fallback:\n{s}");
        assert_eq!(s.kind, crate::schedule::ScheduleKind::Tagged);
        let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn random_crossing_free_instances_verify() {
        let mut rng = DetRng::new(777);
        for trial in 0..25 {
            let n = 5 + rng.index(8) as u64;
            let pair = gen::waypointed(n, false, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
            let s = WayUp::default().schedule(&i).unwrap();
            let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
            assert!(r.is_ok(), "trial {trial} ({i}): {r}");
            assert!(
                !s.fallback,
                "trial {trial}: unexpected fallback for {i}\n{s}"
            );
        }
    }

    #[test]
    fn random_crossing_instances_still_complete() {
        let mut rng = DetRng::new(778);
        for trial in 0..15 {
            let n = 6 + rng.index(6) as u64;
            let pair = gen::waypointed(n, true, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
            let s = WayUp::default().schedule(&i).unwrap();
            let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
            assert!(r.is_ok(), "trial {trial} ({i}): {r}");
        }
    }

    #[test]
    fn strong_mode_verifies_all_properties() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 7, 3, 8, 9, 6], 3);
        let s = WayUp {
            strong_loop_freedom: true,
            ..WayUp::default()
        }
        .schedule(&i)
        .unwrap();
        let r = verify_schedule(&i, &s, PropertySet::all());
        assert!(r.is_ok(), "{r}");
    }
}
