//! WayUp: transiently waypoint-enforcing updates (HotNets'14).
//!
//! The waypoint (firewall, IDS) must be traversed by *every* packet,
//! including those in flight while the update is half-applied. WayUp
//! ("Good Network Updates for Bad Packets") installs the rules of
//! new-only switches first (no traffic reaches them yet), then
//! activates the shared switches, then cleans up.
//!
//! The activation rounds are one pass of the greedy engine over every
//! pending shared switch, off-path first, under the *combined*
//! waypoint-enforcement + loop-freedom oracle (one
//! [`AdmissionProbe`](crate::checker::AdmissionProbe) session for the
//! schedule, including the waypoint-detour reachability check), so
//! each round is admitted only if no packet in flight can skip the
//! waypoint, loop or blackhole. The demo pairs WayUp's waypoint
//! enforcement with Peacock's weak loop freedom ("ensuring waypoint
//! enforcement \[5\], weak loop freedom \[4\]") — the default here;
//! strong loop freedom is available as an option.
//!
//! **Fallback.** When the instance has *crossing switches* (before the
//! waypoint on one route, after it on the other), a rule-replacement
//! schedule preserving waypoint enforcement may not exist (HotNets'14
//! impossibility). If the greedy pass gets stuck, WayUp returns the
//! tag-based [`TwoPhaseCommit`] schedule instead, marked with
//! [`Schedule::fallback`] = `true` — matching operator expectations:
//! the update always completes, the mechanism is reported.

use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet};
use crate::schedule::Schedule;

use super::greedy::{greedy_schedule, CandidateOrdering};
use super::{SchedulerError, TwoPhaseCommit, UpdateScheduler};

/// The waypoint-enforcing scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct WayUp {
    /// Loop-freedom strength: `false` (default) uses relaxed loop
    /// freedom (the demo's pairing with \[4\]); `true` additionally
    /// enforces strong loop freedom.
    pub strong_loop_freedom: bool,
}

impl UpdateScheduler for WayUp {
    fn name(&self) -> &'static str {
        "wayup"
    }

    fn schedule(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        inst.waypoint().ok_or(SchedulerError::NoWaypoint)?;
        let mut props = PropertySet::transiently_secure();
        if self.strong_loop_freedom {
            props = props.with(Property::StrongLoopFreedom);
        }
        let ordering = CandidateOrdering::OffPathFirst;
        match greedy_schedule(self.name(), inst, props, ordering) {
            Err(SchedulerError::Stuck { .. }) => {
                let mut s = TwoPhaseCommit.schedule(inst)?;
                s.algorithm = "wayup+2pc-fallback".to_string();
                s.fallback = true;
                Ok(s)
            }
            result => result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::verify_schedule;
    use sdn_topo::gen;
    use sdn_topo::route::RoutePath;
    use sdn_types::{DetRng, DpId};

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
    fn waypoint_activates_no_later_than_source() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 7, 3, 8, 9, 6], 3);
        let s = WayUp::default().schedule(&i).unwrap();
        // the source's new rule skips the old prefix and leads to the
        // waypoint 3, so 3 must already forward on its new rule.
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
            assert!(
                !s.fallback,
                "trial {trial}: replacement exists for {i}\n{s}"
            );
        }
    }

    #[test]
    fn strong_mode_verifies_all_properties() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 7, 3, 8, 9, 6], 3);
        let s = WayUp {
            strong_loop_freedom: true,
        }
        .schedule(&i)
        .unwrap();
        let r = verify_schedule(&i, &s, PropertySet::all());
        assert!(r.is_ok(), "{r}");
    }
}
