//! The strong-loop-freedom greedy baseline.
//!
//! In every round, admit a maximal set of switches such that the
//! *choice graph* — new rules of everything admitted so far, old rules
//! of everything not yet committed — stays acyclic. By the
//! simple-cycle/consistent-subset correspondence this is exactly
//! strong-loop-freedom safety, checked in polynomial time.
//!
//! Strong loop freedom forbids even cycles no packet can reach, which
//! is why reversal-style updates degenerate to one switch per round
//! (Θ(n) rounds) — the behaviour Peacock's relaxation eliminates
//! (PODC'15, reproduced in experiment E3).
//!
//! Admission runs on the greedy engine's
//! [`AdmissionProbe`](crate::checker::AdmissionProbe) session: the
//! choice graph's topological order is maintained incrementally across
//! probes and rounds, an accepted edge moving only the smaller side of
//! a two-way search, and a candidate blocked by one uncommitted switch
//! is parked until that switch commits. A reversal's Θ(n) rounds so
//! take Θ(n) probes of O(1) work each, and n = 4096 instances schedule
//! in about 3 ms (see `exp_rounds_scaling`).

use crate::model::UpdateInstance;
use crate::properties::PropertySet;
use crate::schedule::Schedule;

use super::greedy::{greedy_schedule, CandidateOrdering};
use super::{SchedulerError, UpdateScheduler};

/// Greedy maximal rounds under blackhole freedom + strong loop
/// freedom (+ relaxed loop freedom, which strong implies on walks),
/// proposing candidates in reverse new-route order — always safe, and
/// the order whose blocked candidates the engine can park.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlfGreedy;

impl UpdateScheduler for SlfGreedy {
    fn name(&self) -> &'static str {
        "slf-greedy"
    }

    fn schedule(&self, inst: &UpdateInstance) -> Result<Schedule, SchedulerError> {
        greedy_schedule(
            self.name(),
            inst,
            PropertySet::loop_free_strong(),
            CandidateOrdering::NewRouteReverse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::verify_schedule;
    use sdn_topo::route::RoutePath;
    use sdn_types::{DetRng, DpId};

    fn inst(old: &[u64], new: &[u64], wp: Option<u64>) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            wp.map(DpId),
        )
        .unwrap()
    }

    #[test]
    fn schedule_verifies_under_slf() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        let s = SlfGreedy.schedule(&i).unwrap();
        let r = verify_schedule(&i, &s, PropertySet::loop_free_strong());
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn reversal_needs_linear_rounds() {
        for n in [6u64, 10, 14] {
            let pair = sdn_topo::gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let s = SlfGreedy.schedule(&i).unwrap();
            // interior reversal forces ~one backward switch per round
            let expect_min = (n as usize - 2) / 2;
            assert!(
                s.round_count() >= expect_min,
                "n={n}: got {} rounds",
                s.round_count()
            );
            let r = verify_schedule(&i, &s, PropertySet::loop_free_strong());
            assert!(r.is_ok(), "{r}");
        }
    }

    #[test]
    fn large_reversal_schedules_completely() {
        // The session oracle must keep large reversals tractable: all
        // interior switches scheduled, linear round growth intact.
        let n = 256u64;
        let pair = sdn_topo::gen::reversal(n);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = SlfGreedy.schedule(&i).unwrap();
        let total: usize = s.rounds.iter().map(|r| r.len()).sum();
        assert_eq!(total, n as usize - 1, "every shared switch activated");
        assert!(
            s.round_count() >= (n as usize - 2) / 2,
            "reversal must still cost ~linear rounds, got {}",
            s.round_count()
        );
    }

    #[test]
    fn random_instances_always_verify() {
        let mut rng = DetRng::new(99);
        for _ in 0..25 {
            let n = 4 + rng.index(8) as u64;
            let pair = sdn_topo::gen::random_permutation(n, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let s = SlfGreedy.schedule(&i).unwrap();
            let r = verify_schedule(&i, &s, PropertySet::loop_free_strong());
            assert!(r.is_ok(), "{i}: {r}");
        }
    }

    #[test]
    fn forward_only_instances_finish_in_one_activation_round() {
        let mut rng = DetRng::new(5);
        let pair = sdn_topo::gen::random_subsequence(12, 0.5, &mut rng);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = SlfGreedy.schedule(&i).unwrap();
        // rounds: [activations] + [cleanup]; forward jumps never
        // conflict under SLF
        assert!(
            s.round_count() <= 2,
            "forward-only should be 1 activation round, got\n{s}"
        );
    }
}
