//! Peacock: relaxed-loop-freedom scheduling (PODC'15).
//!
//! Strong loop freedom pays for cycles no packet can traverse. Peacock
//! relaxes the requirement to the packet's actual walk — and suddenly
//! every switch *off the committed path* can update in the current
//! round for free, because no packet reaches it to notice. PODC'15
//! ("Scheduling Loop-Free Network Updates: It's Good to Relax!") shows
//! O(log n) rounds always suffice this way, versus Θ(n) for strong
//! loop freedom.
//!
//! This implementation (see DESIGN.md, *Algorithm reconstruction
//! notes*) realizes the relaxation as a maximal-safe-set greedy:
//! candidates are proposed off-path first, then forward jumps, then
//! backward jumps deepest-first, and admitted while the round passes
//! the relaxed-loop-freedom oracle — the greedy engine's stateful
//! [`AdmissionProbe`](crate::checker::AdmissionProbe) session, carried
//! across the rounds, whose cached reachability makes the common case
//! (an off-path switch no packet reaches) an O(1) admission. On the
//! canonical reversal instances it needs 3 activation rounds
//! independent of n; experiment E3 measures the scaling against the
//! SLF baseline.

use crate::model::UpdateInstance;
use crate::properties::PropertySet;
use crate::schedule::Schedule;

use super::greedy::{greedy_schedule, CandidateOrdering};
use super::{SchedulerError, UpdateScheduler};

/// The relaxed-loop-freedom round scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peacock {
    /// Candidate ordering (default off-path-first; ablation E6-a).
    pub ordering: CandidateOrdering,
}

impl UpdateScheduler for Peacock {
    fn name(&self) -> &'static str {
        "peacock"
    }

    fn schedule(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        greedy_schedule(
            self.name(),
            inst,
            PropertySet::loop_free_relaxed(),
            self.ordering,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::verify_schedule;
    use crate::metrics::ScheduleStats;
    use sdn_topo::gen;
    use sdn_types::DetRng;

    #[test]
    fn reversal_constant_rounds() {
        for n in [6u64, 12, 24, 48] {
            let pair = gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let s = Peacock::default().schedule(&i).unwrap();
            let stats = ScheduleStats::of(&s);
            // 3 activation rounds + cleanup-free (no old-only nodes)
            assert!(
                stats.rounds <= 4,
                "n={n}: relaxed reversal should be O(1) rounds, got\n{s}"
            );
            let r = verify_schedule(&i, &s, PropertySet::loop_free_relaxed());
            assert!(r.is_ok(), "n={n}: {r}");
        }
    }

    #[test]
    fn large_reversal_stays_constant_rounds() {
        let pair = gen::reversal(512);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = Peacock::default().schedule(&i).unwrap();
        assert!(
            s.round_count() <= 4,
            "n=512 reversal should still be O(1) rounds, got {}",
            s.round_count()
        );
        let total: usize = s.rounds.iter().map(|r| r.len()).sum();
        assert_eq!(total, 511);
    }

    #[test]
    fn beats_slf_on_reversal() {
        use crate::algorithms::SlfGreedy;
        let pair = gen::reversal(16);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let p = Peacock::default().schedule(&i).unwrap();
        let g = SlfGreedy.schedule(&i).unwrap();
        assert!(
            p.round_count() < g.round_count(),
            "peacock {} vs slf {}",
            p.round_count(),
            g.round_count()
        );
    }

    #[test]
    fn random_permutations_verify_and_stay_small() {
        let mut rng = DetRng::new(31337);
        for trial in 0..30 {
            let n = 5 + rng.index(12) as u64;
            let pair = gen::random_permutation(n, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let s = Peacock::default().schedule(&i).unwrap();
            let r = verify_schedule(&i, &s, PropertySet::loop_free_relaxed());
            assert!(r.is_ok(), "trial {trial} ({i}): {r}");
            // generous logarithmic-ish bound
            let bound = 2 * (64 - n.leading_zeros() as usize) + 4;
            assert!(
                s.round_count() <= bound,
                "trial {trial}: n={n} took {} rounds:\n{s}",
                s.round_count()
            );
        }
    }

    #[test]
    fn forward_only_single_round() {
        let mut rng = DetRng::new(7);
        let pair = gen::random_subsequence(15, 0.4, &mut rng);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = Peacock::default().schedule(&i).unwrap();
        // one activation round + cleanup
        assert!(s.round_count() <= 2, "{s}");
        assert!(verify_schedule(&i, &s, PropertySet::loop_free_relaxed()).is_ok());
    }

    #[test]
    fn waypointed_instance_ignores_waypoint() {
        // Peacock alone does not protect waypoints; the schedule
        // verifies under RLF but may bypass the waypoint transiently.
        let mut rng = DetRng::new(3);
        let pair = gen::waypointed(9, false, &mut rng);
        let i = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
        let s = Peacock::default().schedule(&i).unwrap();
        assert!(verify_schedule(&i, &s, PropertySet::loop_free_relaxed()).is_ok());
    }
}
