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
//! loop freedom forces on a reversal take Θ(n) probes in all. An
//! accepted edge moves only the smaller side of the order's two-way
//! search — one switch per round on a reversal — so those probes cost
//! O(1) each and the whole schedule grows linearly in n (pinned, on
//! the session's work counter, by `slf_work_grows_linearly_on_reversals`).
//! The decisions are identical — the stateless
//! [`round_admissible`](crate::checker::round_admissible) remains the
//! cross-validation reference — and exact: the session's reachability
//! over the choice graph is the transient-state check itself (see
//! [`choice_graph`](crate::checker::choice_graph)), so a round the
//! session leaves empty has no admissible candidate, and the instance
//! is stuck.
//!
//! Progress argument (no-waypoint case): the *deepest pending switch in
//! new-route order* is always admissible — all its new-route successors
//! are already activated, so once a packet crosses its new rule it
//! rides committed new rules straight to the destination, and if the
//! rule is not yet applied the walk is the committed walk, loop-free by
//! induction. Hence the engine terminates with a complete schedule.
//! Waypoint enforcement breaks the argument: the deepest switch may
//! let packets skip the waypoint, and some instances (HotNets'14's
//! crossing example) have no safe replacement order at all. Then the
//! engine reports [`SchedulerError::Stuck`] and WayUp falls back to
//! two-phase commit.

use sdn_types::DpId;

use crate::checker::AdmissionProbe;
use crate::config::ConfigState;
use crate::model::UpdateInstance;
use crate::properties::PropertySet;
use crate::schedule::{Round, RuleOp, Schedule};

use super::{assemble, new_only_round, pending_shared, SchedulerError};

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

/// Run the greedy engine over one instance: the new-only round, the
/// activation rounds of every pending shared switch under `props` in
/// `ordering`, and cleanup.
pub(crate) fn greedy_schedule(
    name: &str,
    inst: &UpdateInstance,
    props: PropertySet,
    ordering: CandidateOrdering,
) -> Result<Schedule, SchedulerError> {
    let mut base = ConfigState::initial(inst);
    if let Some(r) = new_only_round(inst) {
        base.apply_all(&r.ops);
    }
    // One session for the whole schedule: `commit_round` re-seeds it
    // from each round's deltas instead of re-opening per round.
    let mut session = AdmissionProbe::open(inst, &base, props);
    let rounds = rounds_in_session(&mut session, inst, base, ordering)?;
    Ok(assemble(name, inst, rounds))
}

/// [`greedy_schedule`]'s activation rounds, in a session opened on
/// `base`.
fn rounds_in_session(
    session: &mut AdmissionProbe<'_>,
    inst: &UpdateInstance,
    mut base: ConfigState<'_>,
    ordering: CandidateOrdering,
) -> Result<Vec<Round>, SchedulerError> {
    let mut pending = pending_shared(inst);
    let mut rounds = Vec::new();
    // Base-independent orderings are sorted once and only shrink;
    // walk-dependent orderings are recomputed per round.
    let static_order = matches!(
        ordering,
        CandidateOrdering::NewRouteReverse | CandidateOrdering::OldRoutePosition
    );
    if static_order {
        pending = order_candidates(ordering, inst, &base, &pending);
    }
    // Under a static order, a rejected candidate the session names a
    // blocker for is parked (blocker → candidate; a switch blocks only
    // its new-route predecessor) and sits out the rounds until the
    // blocker is committed — a reversal's Θ(n) one-switch rounds then
    // cost Θ(n) probes, not Θ(n²). Walk-dependent orderings re-rank
    // the whole pending set every round and take few rounds: they
    // keep probing everything.
    //
    // Both tables are indexed by the instance's switch index: `parked`
    // by blocker (iterated in that order, which is dpid order), and
    // `leaving` — activated or newly parked this round — by candidate;
    // each `retain` over `pending` below resets the flags it reads.
    let ix = |v: DpId| inst.index(v).expect("candidates are participants");
    let mut parked: Vec<Option<DpId>> = vec![None; inst.node_count()];
    let mut parked_count = 0usize;
    let mut leaving = vec![false; inst.node_count()];
    while !(pending.is_empty() && parked_count == 0) {
        let reordered = (!static_order).then(|| order_candidates(ordering, inst, &base, &pending));
        for &v in reordered.as_deref().unwrap_or(&pending) {
            if !session.try_push(RuleOp::Activate(v)) && static_order {
                if let Some(blocker) = session.blocker(v) {
                    parked_count += usize::from(parked[ix(blocker)].replace(v).is_none());
                    leaving[ix(v)] = true;
                }
            }
        }
        if session.is_empty() {
            // `Stuck` speaks for every candidate, parked ones included.
            if parked_count != 0 {
                pending.retain(|&v| !std::mem::take(&mut leaving[ix(v)]));
                pending.extend(parked.iter_mut().filter_map(Option::take));
                pending = order_candidates(ordering, inst, &base, &pending);
            }
            return Err(SchedulerError::Stuck { remaining: pending });
        }
        let ops = session.commit_round();
        // Remove all of the round's activations in one pass (a retain
        // per activated op made this quadratic per round), then let
        // the candidates they were blocking back in.
        let activated = ops.iter().filter_map(|op| match op {
            RuleOp::Activate(v) => Some(*v),
            _ => None,
        });
        for v in activated.clone() {
            leaving[ix(v)] = true;
        }
        pending.retain(|&v| !std::mem::take(&mut leaving[ix(v)]));
        let before = pending.len();
        pending.extend(activated.filter_map(|v| parked[ix(v)].take()));
        parked_count -= pending.len() - before;
        if pending.len() > before {
            pending = order_candidates(ordering, inst, &base, &pending);
        }
        base.apply_all(&ops);
        rounds.push(Round::new(ops));
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // no new-only or old-only switches: every round activates
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 5, 4, 3, 2, 6], None);
        let s = greedy_schedule(
            "t",
            &i,
            PropertySet::loop_free_relaxed(),
            CandidateOrdering::OffPathFirst,
        )
        .unwrap();
        // relaxed loop freedom should need very few rounds
        assert!(s.round_count() <= 4, "got {} rounds", s.round_count());
        // everything activated
        let total: usize = s.rounds.iter().map(|r| r.len()).sum();
        assert_eq!(total, pending_shared(&i).len());
    }

    #[test]
    fn greedy_reversal_under_slf_needs_many_rounds() {
        let i = inst(&[1, 2, 3, 4, 5, 6], &[1, 5, 4, 3, 2, 6], None);
        let s = greedy_schedule(
            "t",
            &i,
            PropertySet::loop_free_strong(),
            CandidateOrdering::NewRouteReverse,
        )
        .unwrap();
        assert!(
            s.round_count() >= 3,
            "SLF should cost rounds, got {}",
            s.round_count()
        );
    }

    /// The engine without its session reuse and parking: every round
    /// opens a fresh probe and offers it every pending candidate.
    fn schedule_probing_everything(
        i: &UpdateInstance,
        props: PropertySet,
        ordering: CandidateOrdering,
    ) -> Result<Schedule, SchedulerError> {
        let mut base = ConfigState::initial(i);
        if let Some(r) = new_only_round(i) {
            base.apply_all(&r.ops);
        }
        let mut pending = pending_shared(i);
        let mut rounds = Vec::new();
        while !pending.is_empty() {
            let ordered = order_candidates(ordering, i, &base, &pending);
            let mut probe = AdmissionProbe::open(i, &base, props);
            for &v in &ordered {
                probe.try_push(RuleOp::Activate(v));
            }
            let ops = probe.into_ops();
            if ops.is_empty() {
                return Err(SchedulerError::Stuck { remaining: ordered });
            }
            pending.retain(|v| !ops.contains(&RuleOp::Activate(*v)));
            base.apply_all(&ops);
            rounds.push(Round::new(ops));
        }
        Ok(assemble("t", i, rounds))
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
                    let got = greedy_schedule("t", &i, props, ordering);
                    let want = schedule_probing_everything(&i, props, ordering);
                    assert_eq!(got, want, "{i} {props:?} {ordering:?}");
                    parked_rounds += got.map_or(0, |s| s.round_count().saturating_sub(3));
                }
            }
        }
        assert!(parked_rounds > 0, "no instance took enough rounds to park");
    }

    /// Peacock's rounds, driven by hand to read the session's work
    /// counter afterwards.
    fn peacock_work(pair: sdn_topo::gen::UpdatePair) -> u64 {
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let mut base = ConfigState::initial(&i);
        let mut pending = pending_shared(&i);
        let props = PropertySet::loop_free_relaxed();
        let mut session = AdmissionProbe::open(&i, &base, props);
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
        let reversal = sdn_topo::gen::reversal;
        let (small, large) = (peacock_work(reversal(1024)), peacock_work(reversal(2048)));
        assert!(small >= 1024, "the counter counts: {small}");
        assert!(large < 3 * small, "work {small} @1024 -> {large} @2048");
    }

    /// SLF-greedy's rounds, returning its session's work counter (the
    /// instances here have no new-only switches, so the scheduler's
    /// whole job is this engine call).
    fn slf_greedy_work(pair: sdn_topo::gen::UpdatePair) -> u64 {
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let base = ConfigState::initial(&i);
        let props = PropertySet::loop_free_strong();
        let mut session = AdmissionProbe::open(&i, &base, props);
        let ordering = CandidateOrdering::NewRouteReverse;
        rounds_in_session(&mut session, &i, base, ordering).unwrap();
        session.work()
    }

    /// The work of an SLF-only session carried across the
    /// rounds of SLF-greedy's schedule the way `verify_schedule`
    /// carries it: push every operation of a round, then advance.
    fn slf_verify_work(pair: sdn_topo::gen::UpdatePair) -> u64 {
        use crate::algorithms::{SlfGreedy, UpdateScheduler};
        use crate::properties::Property;
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let schedule = SlfGreedy.schedule(&i).unwrap();
        let slf = PropertySet::none().with(Property::StrongLoopFreedom);
        let base = ConfigState::initial(&i);
        let mut session = AdmissionProbe::open(&i, &base, slf);
        for round in &schedule.rounds {
            for &op in &round.ops {
                assert!(session.try_push(op), "SLF-greedy's rounds verify");
            }
            session.advance(&round.ops);
        }
        session.work()
    }

    /// Each of a reversal's Θ(n) one-switch rounds under strong loop
    /// freedom costs what it changes, so doubling the reversal may not
    /// even triple the session's work — in the scheduler or in the
    /// verifier. (Entering each round's edge by walking the chain
    /// built so far made it grow as n²: 17 009 at n = 128, 1 053 681
    /// at n = 1024.)
    #[test]
    fn slf_work_grows_linearly_on_reversals() {
        use sdn_topo::gen::reversal;
        for (what, work) in [
            ("slf-greedy", slf_greedy_work as fn(_) -> u64),
            ("verify", slf_verify_work),
        ] {
            let (small, large) = (work(reversal(1024)), work(reversal(2048)));
            assert!(small >= 1024, "{what}: the counter counts: {small}");
            assert!(
                large < 3 * small,
                "{what}: work {small} @1024 -> {large} @2048"
            );
        }
    }

    /// On the shapes whose rounds are few and wide the order's work
    /// may not grow: the pinned values are what the one-sided full
    /// search it replaced counted (SLF-greedy, then Peacock; the new
    /// order counts about half).
    #[test]
    fn order_work_on_wide_rounds_stays_within_the_one_sided_search() {
        use sdn_topo::gen::{comb, random_permutation};
        let mut rng = sdn_types::DetRng::new(0xc0b);
        let pairs = [
            ("comb(1024)", comb(1024), [527_871, 529_919]),
            (
                "random_permutation(1024)",
                random_permutation(1024, &mut rng),
                [167_417, 94_111],
            ),
        ];
        for (what, pair, [slf_before, peacock_before]) in pairs {
            let slf = slf_greedy_work(pair.clone());
            assert!(slf <= slf_before, "{what}: slf-greedy work {slf}");
            let peacock = peacock_work(pair);
            assert!(peacock <= peacock_before, "{what}: peacock work {peacock}");
        }
    }

    /// WayUp's greedy pass on a reversal whose waypoint is its middle
    /// switch gets stuck (every switch before the waypoint crosses it)
    /// after at most two probes per switch: an empty round ends the
    /// pass, where an exact retry of every candidate made it Θ(n²).
    #[test]
    fn wayup_pass_on_a_crossing_reversal_stops_within_2n_probes() {
        use crate::algorithms::{UpdateScheduler, WayUp};
        for n in [16u64, 128, 1024, 4096] {
            let pair = sdn_topo::gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, Some(DpId(n / 2))).unwrap();
            let base = ConfigState::initial(&i);
            let props = PropertySet::transiently_secure();
            let mut session = AdmissionProbe::open(&i, &base, props);
            let ordering = CandidateOrdering::OffPathFirst;
            let rounds = rounds_in_session(&mut session, &i, base, ordering);
            assert!(
                matches!(rounds, Err(SchedulerError::Stuck { .. })),
                "n={n}: {rounds:?}"
            );
            assert!(
                session.probes() <= 2 * n,
                "n={n}: {} probes",
                session.probes()
            );
            assert!(WayUp::default().schedule(&i).unwrap().fallback, "n={n}");
        }
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
        let s = greedy_schedule(
            "t",
            &i,
            PropertySet::loop_free_relaxed(),
            CandidateOrdering::OffPathFirst,
        )
        .unwrap();
        assert_eq!(s.round_count(), 1);
    }
}
