//! The maximal-safe-set greedy engine shared by the round schedulers.
//!
//! Each round, candidates are proposed in an algorithm-specific order
//! and admitted while the round stays safe according to the property
//! oracle. The engine opens **one [`AdmissionProbe`] session per
//! schedule** and grows each round's candidate set one operation at a
//! time: the session maintains the choice graph, the topological
//! order (incremental cycle detection) and the walk state across
//! probes, and [`AdmissionProbe::commit_round`] re-seeds those
//! structures from the committed round's deltas instead of rebuilding
//! them — so a full greedy schedule costs O(total probes · amortized
//! polylog) instead of the former O(rounds × n) session re-opens
//! (which capped reversal workloads near n ≈ 1024). A probe costs the
//! region it affects, and under the static orderings a candidate whose
//! rejection the session can pin on one uncommitted switch is parked
//! until that switch commits, so the Θ(n) one-switch rounds strong
//! loop freedom forces on a reversal take Θ(n) probes in all. The
//! decisions are identical — the stateless
//! [`round_admissible`](crate::checker::round_admissible) remains the
//! cross-validation reference. The conservative (polynomial) oracle is
//! consulted first; if a whole round would come out empty, the engine
//! retries with a fresh exact-oracle probe before declaring the
//! instance stuck, then advances the conservative session past the
//! exact round — so conservative over-rejection can cost rounds,
//! never correctness or spurious failure.
//!
//! Progress argument (no-waypoint case): the *deepest pending switch in
//! new-route order* is always admissible — all its new-route successors
//! are already activated, so once a packet crosses its new rule it
//! rides committed new rules straight to the destination, and if the
//! rule is not yet applied the walk is the committed walk, loop-free by
//! induction. Hence the engine terminates with a complete schedule.
//! With waypoint enforcement the argument holds per WayUp phase on
//! crossing-free instances; otherwise the engine reports
//! [`SchedulerError::Stuck`] and WayUp falls back to two-phase commit.

use std::collections::{BTreeMap, BTreeSet};

use sdn_types::DpId;

use crate::checker::{AdmissionProbe, OracleMode};
use crate::config::ConfigState;
use crate::model::UpdateInstance;
use crate::properties::PropertySet;
use crate::schedule::{Round, RuleOp};

use super::SchedulerError;

/// Candidate orderings for the greedy engine (ablation experiment
/// E6-a evaluates these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrdering {
    /// Switches *off the committed walk* first (they update for free
    /// under relaxed loop freedom), then on-path forward jumps by
    /// position, then backward jumps deepest-first. Peacock's default.
    #[default]
    OffPathFirst,
    /// Reverse new-route order (the always-safe order; tends to
    /// produce more, smaller rounds).
    NewRouteReverse,
    /// Old-route position order (a naive order).
    OldRoutePosition,
    /// PODC'15-style halving intent: off-path first, forward jumps,
    /// then *every other* backward jump (deepest first), so that each
    /// round retires roughly half the remaining backward edges.
    AlternatingBackward,
}

/// Order the pending switches for one greedy round.
pub(crate) fn order_candidates(
    ordering: CandidateOrdering,
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    pending: &[DpId],
) -> Vec<DpId> {
    match ordering {
        CandidateOrdering::OldRoutePosition => {
            let mut v = pending.to_vec();
            v.sort_by_key(|&x| inst.old_position(x).unwrap_or(usize::MAX));
            v
        }
        CandidateOrdering::NewRouteReverse => {
            let mut v = pending.to_vec();
            v.sort_by_key(|&x| std::cmp::Reverse(inst.new_position(x).unwrap_or(0)));
            v
        }
        CandidateOrdering::OffPathFirst | CandidateOrdering::AlternatingBackward => {
            let alternating = ordering == CandidateOrdering::AlternatingBackward;
            let walk = base.walk();
            // Position of each switch's *first* visit on the committed
            // walk, indexed once — classifying the pending set was
            // O(n²) when every switch rescanned the walk.
            let mut walk_pos = vec![usize::MAX; inst.node_count()];
            for (p, &y) in walk.visited.iter().enumerate() {
                let slot = &mut walk_pos[inst.index(y).expect("walks stay on the routes")];
                *slot = (*slot).min(p);
            }
            let pos_on_walk = |x: DpId| {
                inst.index(x)
                    .map(|i| walk_pos[i])
                    .filter(|&p| p != usize::MAX)
            };
            let mut off: Vec<DpId> = Vec::new();
            let mut fwd: Vec<(usize, DpId)> = Vec::new();
            let mut back: Vec<(usize, DpId)> = Vec::new();
            for &v in pending {
                match pos_on_walk(v) {
                    None => off.push(v),
                    Some(p) => {
                        let target_fwd = inst
                            .new_next(v)
                            .and_then(pos_on_walk)
                            .is_some_and(|tp| tp > p);
                        if target_fwd {
                            fwd.push((p, v));
                        } else {
                            back.push((p, v));
                        }
                    }
                }
            }
            fwd.sort_by_key(|&(p, _)| p);
            // deepest-first: the deepest pending backward switch is the
            // provably-safe one
            back.sort_by_key(|&(p, _)| std::cmp::Reverse(p));
            let back: Vec<DpId> = if alternating {
                // interleave: every other backward switch first, the
                // skipped ones afterwards — the halving pattern
                let (evens, odds): (Vec<_>, Vec<_>) =
                    back.iter().enumerate().partition(|(i, _)| i % 2 == 0);
                evens
                    .into_iter()
                    .chain(odds)
                    .map(|(_, &(_, v))| v)
                    .collect()
            } else {
                back.into_iter().map(|(_, v)| v).collect()
            };
            off.into_iter()
                .chain(fwd.into_iter().map(|(_, v)| v))
                .chain(back)
                .collect()
        }
    }
}

/// Run the greedy engine to completion: returns the activation rounds
/// (not including new-only installs or cleanup) and leaves `base`
/// advanced past all of them.
pub(crate) fn greedy_rounds(
    inst: &UpdateInstance,
    base: &mut ConfigState<'_>,
    mut pending: Vec<DpId>,
    props: &PropertySet,
    ordering: CandidateOrdering,
    prefer_conservative: bool,
) -> Result<Vec<Round>, SchedulerError> {
    let mut rounds = Vec::new();
    if pending.is_empty() {
        return Ok(rounds);
    }
    let primary = if prefer_conservative {
        OracleMode::Conservative
    } else {
        OracleMode::Exact
    };
    // One session for the whole schedule: `commit_round` re-seeds it
    // from each round's deltas instead of re-opening per round.
    let mut session = AdmissionProbe::open(inst, base, *props, primary);
    // Base-independent orderings are sorted once and only shrink;
    // walk-dependent orderings are recomputed per round.
    let static_order = matches!(
        ordering,
        CandidateOrdering::NewRouteReverse | CandidateOrdering::OldRoutePosition
    );
    if static_order {
        pending = order_candidates(ordering, inst, base, &pending);
    }
    // Under a static order, a rejected candidate the session names a
    // blocker for is parked (blocker → candidate; a switch blocks only
    // its new-route predecessor) and sits out the rounds until the
    // blocker is committed — a reversal's Θ(n) one-switch rounds then
    // cost Θ(n) probes, not Θ(n²). Walk-dependent orderings re-rank
    // the whole pending set every round and take few rounds: they
    // keep probing everything.
    let mut parked: BTreeMap<DpId, DpId> = BTreeMap::new();
    while !(pending.is_empty() && parked.is_empty()) {
        let reordered = (!static_order).then(|| order_candidates(ordering, inst, base, &pending));
        // Leaving `pending` this round: activated or newly parked.
        let mut leaving: BTreeSet<DpId> = BTreeSet::new();
        for &v in reordered.as_deref().unwrap_or(&pending) {
            if !session.try_push(RuleOp::Activate(v)) && static_order {
                if let Some(blocker) = session.blocker(v) {
                    parked.insert(blocker, v);
                    leaving.insert(v);
                }
            }
        }
        let ops = if !session.is_empty() {
            session.commit_round()
        } else {
            // An empty round ends in the exact retry or in `Stuck`;
            // both speak for every candidate, parked ones included.
            if !parked.is_empty() {
                pending.retain(|v| !leaving.contains(v));
                pending.extend(parked.values());
                pending = order_candidates(ordering, inst, base, &pending);
                parked.clear();
                leaving.clear();
            }
            if !prefer_conservative {
                return Err(SchedulerError::Stuck { remaining: pending });
            }
            // Conservative over-rejection emptied the round: retry it
            // with a fresh exact probe, then advance the conservative
            // session past the exactly-decided round.
            let mut exact = AdmissionProbe::open(inst, base, *props, OracleMode::Exact);
            for &v in reordered.as_deref().unwrap_or(&pending) {
                exact.try_push(RuleOp::Activate(v));
            }
            if exact.is_empty() {
                return Err(SchedulerError::Stuck { remaining: pending });
            }
            let ops = exact.into_ops();
            session.advance(&ops);
            ops
        };
        // Remove all of the round's activations in one pass (a retain
        // per activated op made this quadratic per round), then let
        // the candidates they were blocking back in.
        let activated = ops.iter().filter_map(|op| match op {
            RuleOp::Activate(v) => Some(*v),
            _ => None,
        });
        leaving.extend(activated.clone());
        pending.retain(|v| !leaving.contains(v));
        let before = pending.len();
        pending.extend(activated.filter_map(|v| parked.remove(&v)));
        if pending.len() > before {
            pending = order_candidates(ordering, inst, base, &pending);
        }
        base.apply_all(&ops);
        rounds.push(Round::new(ops));
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pending_shared;
    use sdn_topo::route::RoutePath;

    fn inst(old: &[u64], new: &[u64], wp: Option<u64>) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            wp.map(DpId),
        )
        .unwrap()
    }

    #[test]
    fn greedy_completes_reversal_under_rlf() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 5, 4, 3, 2, 6], None);
        let mut base = ConfigState::initial(&i);
        let rounds = greedy_rounds(
            &i,
            &mut base,
            pending_shared(&i),
            &PropertySet::loop_free_relaxed(),
            CandidateOrdering::OffPathFirst,
            true,
        )
        .unwrap();
        // relaxed loop freedom should need very few rounds
        assert!(rounds.len() <= 4, "got {} rounds", rounds.len());
        // everything activated
        let total: usize = rounds.iter().map(|r| r.len()).sum();
        assert_eq!(total, pending_shared(&i).len());
    }

    #[test]
    fn greedy_reversal_under_slf_needs_many_rounds() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 5, 4, 3, 2, 6], None);
        let mut base = ConfigState::initial(&i);
        let rounds = greedy_rounds(
            &i,
            &mut base,
            pending_shared(&i),
            &PropertySet::loop_free_strong(),
            CandidateOrdering::NewRouteReverse,
            true,
        )
        .unwrap();
        assert!(
            rounds.len() >= 3,
            "SLF should cost rounds, got {}",
            rounds.len()
        );
    }

    /// The engine without its session reuse and parking: every round
    /// opens a fresh probe and offers it every pending candidate.
    fn rounds_probing_everything(
        i: &UpdateInstance,
        mut pending: Vec<DpId>,
        props: &PropertySet,
        ordering: CandidateOrdering,
    ) -> Result<Vec<Round>, SchedulerError> {
        let mut base = ConfigState::initial(i);
        let mut rounds = Vec::new();
        while !pending.is_empty() {
            let ordered = order_candidates(ordering, i, &base, &pending);
            let mut ops = Vec::new();
            for mode in [OracleMode::Conservative, OracleMode::Exact] {
                let mut probe = AdmissionProbe::open(i, &base, *props, mode);
                for &v in &ordered {
                    probe.try_push(RuleOp::Activate(v));
                }
                ops = probe.into_ops();
                if !ops.is_empty() {
                    break;
                }
            }
            if ops.is_empty() {
                return Err(SchedulerError::Stuck { remaining: ordered });
            }
            pending.retain(|v| !ops.contains(&RuleOp::Activate(*v)));
            base.apply_all(&ops);
            rounds.push(Round::new(ops));
        }
        Ok(rounds)
    }

    /// Parking a candidate until its blocker commits must not change a
    /// single decision: under the static orderings (the ones that
    /// park), schedules — and `Stuck` verdicts — are op for op those of
    /// an engine that re-probes every candidate every round.
    #[test]
    fn parked_candidates_change_no_decision() {
        use sdn_topo::gen;
        let mut rng = sdn_types::DetRng::new(0x9a4c);
        let mut pairs = vec![
            gen::reversal(5),
            gen::reversal(24),
            gen::comb(17),
            gen::rotation(20, 9),
        ];
        for _ in 0..30 {
            let n = 4 + rng.index(20) as u64;
            pairs.push(gen::random_permutation(n, &mut rng));
            pairs.push(gen::waypointed(n.max(5), rng.chance(0.5), &mut rng));
        }
        let mut parked_rounds = 0;
        for pair in pairs {
            let i = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
            for props in [PropertySet::loop_free_strong(), PropertySet::all()] {
                for ordering in [
                    CandidateOrdering::NewRouteReverse,
                    CandidateOrdering::OldRoutePosition,
                ] {
                    let mut base = ConfigState::initial(&i);
                    let got =
                        greedy_rounds(&i, &mut base, pending_shared(&i), &props, ordering, true);
                    let want = rounds_probing_everything(&i, pending_shared(&i), &props, ordering);
                    assert_eq!(got, want, "{i} {props:?} {ordering:?}");
                    parked_rounds += got.map_or(0, |r| r.len().saturating_sub(3));
                }
            }
        }
        assert!(parked_rounds > 0, "no instance took enough rounds to park");
    }

    /// Peacock's rounds on a reversal, driven by hand to read the
    /// session's work counter afterwards.
    fn peacock_reversal_work(n: u64) -> u64 {
        let pair = sdn_topo::gen::reversal(n);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let mut base = ConfigState::initial(&i);
        let mut pending = pending_shared(&i);
        let props = PropertySet::loop_free_relaxed();
        let mut session = AdmissionProbe::open(&i, &base, props, OracleMode::Conservative);
        while !pending.is_empty() {
            let ordering = CandidateOrdering::OffPathFirst;
            for v in order_candidates(ordering, &i, &base, &pending) {
                session.try_push(RuleOp::Activate(v));
            }
            let ops = session.commit_round();
            assert!(!ops.is_empty(), "greedy must make progress");
            pending.retain(|v| !ops.contains(&RuleOp::Activate(*v)));
            base.apply_all(&ops);
        }
        session.work()
    }

    /// Scaling without a clock: a probe pays for the region it
    /// affects, so doubling the reversal may not even triple the
    /// oracle's work (one traversal of the instance per probe at a
    /// reachable switch quadruples it).
    #[test]
    fn oracle_work_grows_linearly_on_reversals() {
        let (small, large) = (peacock_reversal_work(1024), peacock_reversal_work(2048));
        assert!(small >= 1024, "the counter counts: {small}");
        assert!(large < 3 * small, "work {small} @1024 -> {large} @2048");
    }

    #[test]
    fn ordering_off_path_first_classification() {
        // old 1-2-3-4-5, new 1-4-3-2-5, after committing activate(1):
        // committed walk 1-4-5; pending 2,3 off-walk; 4 on-walk.
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        let mut base = ConfigState::initial(&i);
        base.apply(&RuleOp::Activate(DpId(1)));
        let ordered = order_candidates(
            CandidateOrdering::OffPathFirst,
            &i,
            &base,
            &[DpId(2), DpId(3), DpId(4)],
        );
        // off-path switches (2 and 3) come before on-path switch 4
        let p4 = ordered.iter().position(|&v| v == DpId(4)).unwrap();
        assert_eq!(p4, 2);
    }

    #[test]
    fn ordering_new_route_reverse() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let base = ConfigState::initial(&i);
        let ordered = order_candidates(
            CandidateOrdering::NewRouteReverse,
            &i,
            &base,
            &[DpId(1), DpId(2), DpId(3)],
        );
        assert_eq!(ordered, vec![DpId(2), DpId(3), DpId(1)]);
    }

    #[test]
    fn single_switch_instance_one_round() {
        let i = inst(&[1, 2], &[1, 2], None);
        let mut base = ConfigState::initial(&i);
        let rounds = greedy_rounds(
            &i,
            &mut base,
            pending_shared(&i),
            &PropertySet::loop_free_relaxed(),
            CandidateOrdering::OffPathFirst,
            true,
        )
        .unwrap();
        assert_eq!(rounds.len(), 1);
    }
}
