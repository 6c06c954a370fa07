//! Cross-validation of the checker engines on randomized instances
//! and rounds: the exact engines must agree with brute force, the
//! conservative oracle must never accept what brute force rejects
//! (soundness), the stateful [`AdmissionProbe`] session must make
//! exactly the decisions of the stateless [`round_admissible`] oracle
//! in both oracle modes — per round *and* carried across rounds
//! through `commit_round`/`advance` along full greedy trajectories —
//! while a rejected push leaves no trace in the structures it patches
//! in place, and [`verify_schedule`] (strong loop freedom through its
//! cross-round session) must report exactly the violations of a
//! stateless per-round rebuild on permutation, reversal, rotation,
//! comb, waypointed and fat-tree workloads, violating schedules
//! included.

use proptest::prelude::*;

use sdn_topo::route::RoutePath;
use sdn_types::{DetRng, DpId};
use update_core::algorithms::{
    OneShot, Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp,
};
use update_core::checker::choice_graph::{check_round_slf, round_safe_conservative};
use update_core::checker::decision_walk::check_round;
use update_core::checker::exhaustive::check_round_exhaustive;
use update_core::checker::{
    round_admissible, verify_schedule, AdmissionProbe, OracleMode, Violation,
};
use update_core::config::ConfigState;
use update_core::model::{NodeRole, UpdateInstance};
use update_core::properties::{
    check_config, Property, PropertySet, PropertyViolation, ViolationKind,
};
use update_core::schedule::{Round, RuleOp, Schedule};

/// Build a random instance plus a random (base, round) split of its
/// shared activations, with optional waypoint.
fn random_setup(
    seed: u64,
    n: u64,
    with_waypoint: bool,
) -> (UpdateInstance, Vec<RuleOp>, Vec<RuleOp>) {
    let mut rng = DetRng::new(seed);
    let pair = if with_waypoint {
        sdn_topo::gen::waypointed(n.max(5), rng.chance(0.5), &mut rng)
    } else {
        sdn_topo::gen::random_permutation(n, &mut rng)
    };
    let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
    let mut base_ops = Vec::new();
    let mut round_ops = Vec::new();
    for (v, role) in inst.nodes() {
        if v == inst.dst() {
            continue;
        }
        match role {
            NodeRole::Shared | NodeRole::NewOnly => match rng.index(3) {
                0 => base_ops.push(RuleOp::Activate(v)),
                1 => round_ops.push(RuleOp::Activate(v)),
                _ => {}
            },
            NodeRole::OldOnly => {}
        }
    }
    (inst, base_ops, round_ops)
}

fn apply_base<'a>(inst: &'a UpdateInstance, base_ops: &[RuleOp]) -> ConfigState<'a> {
    let mut c = ConfigState::initial(inst);
    c.apply_all(base_ops);
    c
}

/// Build an instance from one of the six workload families plus a
/// random (committed base, candidate sequence) split — the candidate
/// sequence mixes activations with removals, tagged installs and the
/// occasional ingress flip, so every session code path is exercised.
fn probe_setup(seed: u64, n: u64, family: u8) -> (UpdateInstance, Vec<RuleOp>, Vec<RuleOp>) {
    let mut rng = DetRng::new(seed);
    let pair = match family {
        0 => sdn_topo::gen::random_permutation(n, &mut rng),
        1 => sdn_topo::gen::reversal(n),
        2 => sdn_topo::gen::waypointed(n.max(5), rng.chance(0.5), &mut rng),
        3 => sdn_topo::gen::rotation(n.max(6), 1 + rng.index(3) as u64),
        4 => sdn_topo::gen::comb(n.max(6)),
        _ => sdn_topo::gen::fat_tree_flows(4, 1, &mut rng)
            .pop()
            .expect("one flow"),
    };
    let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
    let mut base_ops = Vec::new();
    let mut candidates = Vec::new();
    for (v, role) in inst.nodes() {
        if v == inst.dst() {
            continue;
        }
        match role {
            NodeRole::Shared | NodeRole::NewOnly => match rng.index(4) {
                0 => base_ops.push(RuleOp::Activate(v)),
                1 | 2 => candidates.push(RuleOp::Activate(v)),
                _ => {}
            },
            NodeRole::OldOnly => {
                if rng.chance(0.25) {
                    candidates.push(RuleOp::RemoveOld(v));
                }
            }
        }
        if role == NodeRole::Shared && rng.chance(0.15) {
            candidates.push(RuleOp::InstallTagged(v));
        }
        // Occasionally start from a base that already carries tagged
        // rules, so sessions open onto non-trivial NEW-class state.
        if role == NodeRole::Shared && rng.chance(0.1) {
            base_ops.push(RuleOp::InstallTagged(v));
        }
    }
    if rng.chance(0.25) {
        candidates.push(RuleOp::FlipIngress);
    }
    // Occasionally the base is already flipped: the session must then
    // open with the NEW tag class only (and treat further flips as
    // no-ops), matching the stateless oracle.
    if rng.chance(0.15) {
        base_ops.push(RuleOp::FlipIngress);
    }
    rng.shuffle(&mut candidates);
    (inst, base_ops, candidates)
}

/// A session freshly opened on `base` that admitted exactly `accepted`
/// — what a session that also saw rejected candidates must be
/// indistinguishable from.
fn replayed<'a>(
    inst: &'a UpdateInstance,
    base: &ConfigState<'a>,
    accepted: &[RuleOp],
    props: PropertySet,
    mode: OracleMode,
) -> AdmissionProbe<'a> {
    let mut fresh = AdmissionProbe::open(inst, base, props, mode);
    for &op in accepted {
        assert!(fresh.try_push(op), "replaying an admitted op {op:?}");
    }
    fresh
}

/// One instance from each of the four workload families, paired with
/// the property set its schedulers target.
fn instance_of_family(family: u8, n: u64, rng: &mut DetRng) -> (UpdateInstance, PropertySet) {
    match family {
        0 => {
            let pair = sdn_topo::gen::random_permutation(n, rng);
            (
                UpdateInstance::new(pair.old, pair.new, None).unwrap(),
                PropertySet::loop_free_relaxed(),
            )
        }
        1 => {
            let pair = sdn_topo::gen::reversal(n);
            (
                UpdateInstance::new(pair.old, pair.new, None).unwrap(),
                PropertySet::loop_free_strong(),
            )
        }
        2 => {
            let crossing = rng.chance(0.5);
            let pair = sdn_topo::gen::waypointed(n.max(5), crossing, rng);
            (
                UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap(),
                PropertySet::transiently_secure(),
            )
        }
        _ => {
            let pair = sdn_topo::gen::fat_tree_flows(4, 1, rng)
                .pop()
                .expect("one flow");
            let props = if pair.waypoint.is_some() {
                PropertySet::transiently_secure()
            } else {
                PropertySet::loop_free_relaxed()
            };
            (
                UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap(),
                props,
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decision-walk == exhaustive for the walk properties.
    #[test]
    fn decision_walk_matches_exhaustive(seed in 0u64..1_000_000, n in 4u64..9, wp: bool) {
        let (inst, base_ops, round_ops) = random_setup(seed, n, wp);
        prop_assume!(!round_ops.is_empty() && round_ops.len() <= 12);
        let base = apply_base(&inst, &base_ops);
        let props = if inst.waypoint().is_some() {
            PropertySet::transiently_secure()
        } else {
            PropertySet::loop_free_relaxed()
        };
        let exact = check_round(&inst, &base, &round_ops, &props).is_ok();
        let brute = check_round_exhaustive(&inst, &base, &round_ops, &props).is_ok();
        prop_assert_eq!(exact, brute, "{} base={:?} round={:?}", inst, base_ops, round_ops);
    }

    /// Choice-graph SLF == exhaustive SLF.
    #[test]
    fn choice_graph_slf_matches_exhaustive(seed in 0u64..1_000_000, n in 4u64..9) {
        let (inst, base_ops, round_ops) = random_setup(seed, n, false);
        prop_assume!(!round_ops.is_empty() && round_ops.len() <= 12);
        let base = apply_base(&inst, &base_ops);
        let slf = PropertySet::none().with(Property::StrongLoopFreedom);
        let exact = check_round_slf(&inst, &base, &round_ops).is_ok();
        let brute = check_round_exhaustive(&inst, &base, &round_ops, &slf).is_ok();
        prop_assert_eq!(exact, brute, "{} base={:?} round={:?}", inst, base_ops, round_ops);
    }

    /// The conservative oracle never accepts a round brute force
    /// rejects (soundness; it may reject safe rounds).
    #[test]
    fn conservative_oracle_is_sound(seed in 0u64..1_000_000, n in 4u64..9, wp: bool) {
        let (inst, base_ops, round_ops) = random_setup(seed, n, wp);
        prop_assume!(!round_ops.is_empty() && round_ops.len() <= 12);
        let base = apply_base(&inst, &base_ops);
        let props = if inst.waypoint().is_some() {
            PropertySet::transiently_secure()
        } else {
            PropertySet::loop_free_relaxed()
        };
        if round_safe_conservative(&inst, &base, &round_ops, &props) {
            let brute = check_round_exhaustive(&inst, &base, &round_ops, &props);
            prop_assert!(
                brute.is_ok(),
                "conservative accepted an unsafe round: {} base={:?} round={:?}\n{}",
                inst, base_ops, round_ops, brute
            );
        }
    }

    /// The stateful session oracle makes exactly the stateless
    /// decisions, in both oracle modes, across the six workload
    /// families (random permutation, reversal, waypointed, rotation,
    /// comb, fat-tree) — and every rejected push rolls its in-place
    /// patches (reach sets, order, blackhole bits, edges) back to
    /// exactly the state of a session that never saw the candidate.
    #[test]
    fn admission_probe_matches_stateless_oracle(
        seed in 0u64..1_000_000,
        n in 4u64..9,
        family in 0u8..6,
    ) {
        let (inst, base_ops, candidates) = probe_setup(seed, n, family);
        prop_assume!(!candidates.is_empty());
        let base = apply_base(&inst, &base_ops);
        let mut prop_sets = vec![
            PropertySet::loop_free_relaxed(),
            PropertySet::loop_free_strong(),
            // the session `verify_schedule` opens
            PropertySet::none().with(Property::StrongLoopFreedom),
        ];
        if inst.waypoint().is_some() {
            prop_sets.push(PropertySet::transiently_secure());
            prop_sets.push(PropertySet::all());
        }
        for props in prop_sets {
            for mode in [OracleMode::Conservative, OracleMode::Exact] {
                let mut probe = AdmissionProbe::open(&inst, &base, props, mode);
                let mut accepted: Vec<RuleOp> = Vec::new();
                for &op in &candidates {
                    let mut trial = accepted.clone();
                    trial.push(op);
                    let expect = round_admissible(&inst, &base, &trial, &props, mode);
                    let got = probe.try_push(op);
                    prop_assert_eq!(
                        got, expect,
                        "mode {:?} props {:?}: {} base={:?} accepted={:?} op={:?}",
                        mode, props, inst, base_ops, accepted, op
                    );
                    if got {
                        accepted.push(op);
                    } else {
                        prop_assert_eq!(
                            probe.state_dump(),
                            replayed(&inst, &base, &accepted, props, mode).state_dump(),
                            "mode {:?} props {:?}: {} base={:?} accepted={:?} rejected {:?} left a trace",
                            mode, props, inst, base_ops, accepted, op
                        );
                    }
                }
                prop_assert_eq!(probe.ops(), accepted.as_slice());
                // The admitted set must itself be admissible.
                if !accepted.is_empty() {
                    prop_assert!(round_admissible(&inst, &base, &accepted, &props, mode));
                }
            }
        }
    }

    /// The cross-round session must make exactly the decisions of a
    /// session freshly opened on the advanced base, round after round,
    /// along full greedy trajectories over all four workload families
    /// (random permutation, reversal, waypointed, fat-tree).
    #[test]
    fn cross_round_session_matches_fresh_sessions(
        seed in 0u64..1_000_000,
        n in 5u64..11,
        family in 0u8..4,
        exact: bool,
    ) {
        let mut rng = DetRng::new(seed);
        let (inst, props) = instance_of_family(family, n, &mut rng);
        let mode = if exact { OracleMode::Exact } else { OracleMode::Conservative };
        let mut base = ConfigState::initial(&inst);
        let mut session = AdmissionProbe::open(&inst, &base, props, mode);
        let mut pending: Vec<DpId> = inst
            .nodes_with_role(NodeRole::Shared)
            .into_iter()
            .chain(inst.nodes_with_role(NodeRole::NewOnly))
            .filter(|&v| v != inst.dst())
            .collect();
        pending.sort_by_key(|&v| std::cmp::Reverse(inst.new_position(v).unwrap_or(0)));
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            prop_assert!(guard <= 64, "trajectory did not converge");
            let mut fresh = AdmissionProbe::open(&inst, &base, props, mode);
            for &v in &pending {
                let op = RuleOp::Activate(v);
                let got = session.try_push(op);
                let expect = fresh.try_push(op);
                prop_assert_eq!(
                    got, expect,
                    "mode {:?} family {} round {} candidate {}: cross-round vs fresh",
                    mode, family, guard, v
                );
            }
            let ops = session.commit_round();
            prop_assert_eq!(&ops, &fresh.into_ops(), "round {} admitted sets", guard);
            if ops.is_empty() {
                // Conservative over-rejection can stall a trajectory
                // (the greedy engine would fall back to the exact
                // oracle here); equality is all this test asserts.
                break;
            }
            base.apply_all(&ops);
            pending.retain(|&v| !ops.contains(&RuleOp::Activate(v)));
        }
    }

    /// `verify_schedule` must report exactly the verdict and
    /// violations of the stateless per-round rebuild
    /// ([`stateless_violations`]) on real scheduler output — including
    /// violating schedules (one-shot; Peacock audited under strong loop
    /// freedom, which exercises the session's witness-rebuild path).
    #[test]
    fn verifier_matches_stateless_reference(
        seed in 0u64..1_000_000,
        n in 4u64..10,
        family in 0u8..4,
    ) {
        let mut rng = DetRng::new(seed ^ 0x5eed);
        let (inst, props) = instance_of_family(family, n, &mut rng);
        let slf = PropertySet::none().with(Property::StrongLoopFreedom);
        let one_shot = OneShot.schedule(&inst).unwrap();
        let two_phase = TwoPhaseCommit.schedule(&inst).unwrap();
        let peacock = Peacock::default().schedule(&inst).unwrap();
        let mut cases: Vec<(Schedule, PropertySet)> = vec![
            // Shuffled across rounds, violating rounds are followed by
            // rounds the session must check from the forced-through base.
            (scrambled(&one_shot, &mut rng), slf),
            (scrambled(&one_shot, &mut rng), props.with(Property::StrongLoopFreedom)),
            (scrambled(&two_phase, &mut rng), PropertySet::loop_free_strong()),
            (one_shot.clone(), props),
            (one_shot, slf),
            (two_phase, props),
            (SlfGreedy.schedule(&inst).unwrap(), PropertySet::loop_free_strong()),
            // Auditing a relaxed schedule under SLF props yields
            // rule-cycle violations: the witness-rebuild path must
            // match too.
            (peacock.clone(), PropertySet::loop_free_strong()),
            (peacock.clone(), slf),
            (peacock, PropertySet::loop_free_relaxed()),
        ];
        if inst.waypoint().is_some() {
            cases.push((WayUp::default().schedule(&inst).unwrap(), PropertySet::transiently_secure()));
        }
        for (schedule, props) in cases {
            let reference = stateless_violations(&inst, &schedule, props);
            let report = verify_schedule(&inst, &schedule, props);
            prop_assert_eq!(
                report.is_ok(), reference.is_empty(),
                "{} schedule {} props {:?}", inst, schedule.algorithm, props
            );
            prop_assert_eq!(
                &report.violations, &reference,
                "{} schedule {} props {:?}", inst, schedule.algorithm, props
            );
            prop_assert_eq!(report.rounds_checked, schedule.rounds.len());
        }
    }
}

/// `schedule`'s operations shuffled and cut into up to four rounds.
fn scrambled(schedule: &Schedule, rng: &mut DetRng) -> Schedule {
    let mut ops: Vec<RuleOp> = schedule.all_ops().map(|(_, &op)| op).collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.index(i + 1));
    }
    let per_round = ops.len().div_ceil(1 + rng.index(4));
    Schedule {
        rounds: ops
            .chunks(per_round)
            .map(|c| Round::new(c.to_vec()))
            .collect(),
        algorithm: format!("scrambled {}", schedule.algorithm),
        ..schedule.clone()
    }
}

/// The stateless whole-schedule reference: every round rebuilt from its
/// base — strong loop freedom through the choice graph, then the walk
/// properties through the decision walk — and the final configuration
/// checked against every property and the new route.
fn stateless_violations(
    inst: &UpdateInstance,
    schedule: &Schedule,
    props: PropertySet,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut base = ConfigState::initial(inst);
    let walk_props = props.without(Property::StrongLoopFreedom);
    for (ri, round) in schedule.rounds.iter().enumerate() {
        let mut round_violations = Vec::new();
        if props.contains(Property::StrongLoopFreedom) {
            round_violations.extend(check_round_slf(inst, &base, &round.ops).violations);
        }
        if !walk_props.is_empty() {
            round_violations.extend(check_round(inst, &base, &round.ops, &walk_props).violations);
        }
        for mut v in round_violations {
            v.round = Some(ri);
            out.push(v);
        }
        base.apply_all(&round.ops);
    }
    let final_violation = |violation| Violation {
        round: None,
        witness: Vec::new(),
        violation,
    };
    out.extend(check_config(&base, &props).into_iter().map(final_violation));
    let walk = base.walk();
    if walk.visited != inst.new_route().hops() {
        out.push(final_violation(PropertyViolation {
            property: Property::RelaxedLoopFreedom,
            kind: ViolationKind::BadWalk(walk),
        }));
    }
    out
}

/// Deterministic session-vs-stateless audit along a realistic greedy
/// trajectory: schedule a reversal instance round by round exactly as
/// the greedy engine would (reverse new-route candidate order,
/// committed base advancing each round), asserting every single probe
/// decision against the stateless oracle in both modes.
#[test]
fn admission_probe_matches_along_greedy_reversal_schedule() {
    let pair = sdn_topo::gen::reversal(24);
    let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
    let props = PropertySet::loop_free_strong();
    for mode in [OracleMode::Conservative, OracleMode::Exact] {
        let mut base = ConfigState::initial(&inst);
        let mut pending: Vec<DpId> = inst
            .nodes_with_role(NodeRole::Shared)
            .into_iter()
            .filter(|&v| v != inst.dst())
            .collect();
        pending.sort_by_key(|&v| std::cmp::Reverse(inst.new_position(v).unwrap_or(0)));
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            assert!(guard <= 64, "schedule did not converge");
            let mut probe = AdmissionProbe::open(&inst, &base, props, mode);
            let mut accepted: Vec<RuleOp> = Vec::new();
            for &v in &pending {
                let op = RuleOp::Activate(v);
                let mut trial = accepted.clone();
                trial.push(op);
                let expect = round_admissible(&inst, &base, &trial, &props, mode);
                let got = probe.try_push(op);
                assert_eq!(got, expect, "round {guard} mode {mode:?} candidate {v}");
                if got {
                    accepted.push(op);
                }
            }
            assert!(!accepted.is_empty(), "greedy must make progress");
            base.apply_all(&accepted);
            pending.retain(|&v| !accepted.contains(&RuleOp::Activate(v)));
        }
    }
}

/// Drive `candidates` through a conservative session and the stateless
/// oracle side by side, returning the admitted set; every rejected
/// push must leave the session as a replay of the admitted ops.
fn audited_round(
    inst: &UpdateInstance,
    base_ops: &[RuleOp],
    candidates: &[RuleOp],
    props: PropertySet,
) -> Vec<RuleOp> {
    let mode = OracleMode::Conservative;
    let base = apply_base(inst, base_ops);
    let mut probe = AdmissionProbe::open(inst, &base, props, mode);
    let mut accepted: Vec<RuleOp> = Vec::new();
    for &op in candidates {
        let mut trial = accepted.clone();
        trial.push(op);
        let expect = round_admissible(inst, &base, &trial, &props, mode);
        assert_eq!(probe.try_push(op), expect, "{inst} {op:?} on {accepted:?}");
        if expect {
            accepted.push(op);
        } else {
            assert_eq!(
                probe.state_dump(),
                replayed(inst, &base, &accepted, props, mode).state_dump(),
                "{inst}: rejected {op:?} left a trace"
            );
        }
    }
    accepted
}

/// One push makes a long chain newly reachable. On a rotation
/// ⟨1, 2+k, …, n−1, 2, …, 1+k, n⟩ with the ingress committed, switches
/// 2..=1+k hang off the walk; activating n−1 reaches all of them at
/// once. While the chain's last switch may still forward to 2+k, its
/// way out leads back into the walk and on to n−1 — a cycle closed
/// *through the boundary* of the new region, internally acyclic; once
/// that exit is committed the same push is safe and the whole chain
/// joins the reachable order. Run as generated (the chain ascends in
/// switch index, so adopting it keeps its order slots where they are)
/// and with the chain numbered downwards (adopting it permutes them).
#[test]
fn growth_region_cycle_through_the_boundary() {
    let (n, k) = (48u64, 30u64);
    let walk: Vec<u64> = (2 + k..n).collect();
    let act = |v: u64| RuleOp::Activate(DpId(v));
    for chain in [
        (2..=1 + k).collect::<Vec<u64>>(),
        (2..=1 + k).rev().collect(),
    ] {
        let route = |parts: [&[u64]; 4]| RoutePath::from_raw(&parts.concat()).unwrap();
        let old = route([&[1], &chain, &walk, &[n]]);
        let new = route([&[1], &walk, &chain, &[n]]);
        let inst = UpdateInstance::new(old, new, None).unwrap();
        let (exit, mid) = (chain[chain.len() - 1], chain[3]);
        for props in [
            PropertySet::loop_free_relaxed(),
            PropertySet::loop_free_strong(),
        ] {
            // The chain's exit still points into the walk: rejected,
            // with or without the exit's own activation pending.
            for candidates in [vec![act(n - 1)], vec![act(exit), act(n - 1), act(mid)]] {
                let accepted = audited_round(&inst, &[act(1)], &candidates, props);
                assert!(!accepted.contains(&act(n - 1)), "{props:?}: {accepted:?}");
            }
            // Exit committed: the chain is adopted, and from then on
            // counts as reachable — a switch on it may no longer lose
            // its rule, just as a chain holding such a switch cannot
            // be reached.
            let committed = [act(1), act(exit)];
            let drop = RuleOp::RemoveOld(DpId(mid));
            let accepted = audited_round(&inst, &committed, &[act(n - 1), drop, act(mid)], props);
            assert_eq!(accepted, vec![act(n - 1), act(mid)], "{props:?}");
            let accepted = audited_round(&inst, &committed, &[drop, act(n - 1)], props);
            assert_eq!(accepted, vec![drop], "{props:?}");
        }
    }
}

/// The same growth, with the cycle *inside* the new region: on a
/// reversal whose first round {1, 2} is committed, the interior hangs
/// off the walk and its pending activations are free — until n−1 is
/// offered, which would reach all of them and every k ⇄ k−1 pair with
/// it.
#[test]
fn growth_region_cycle_inside_the_region() {
    let n = 40u64;
    let pair = sdn_topo::gen::reversal(n);
    let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
    let act = |v: u64| RuleOp::Activate(DpId(v));
    let mut candidates: Vec<RuleOp> = (3..=n - 2).rev().map(act).collect();
    candidates.push(act(n - 1));
    candidates.push(RuleOp::RemoveOld(DpId(7)));
    let accepted = audited_round(
        &inst,
        &[act(1), act(2)],
        &candidates,
        PropertySet::loop_free_relaxed(),
    );
    // Everything off the walk is admitted (7's removal included: no
    // packet reaches it); n−1 alone is refused.
    candidates.retain(|&op| op != act(n - 1));
    assert_eq!(accepted, candidates);
}

/// Exhaustive-enumeration soundness audit on a fixed reversal
/// instance: over *every* (committed base, candidate round) split of
/// the shared switches, the conservative oracle never accepts a round
/// the exact engine rejects. (On some instances the two coincide
/// exactly; the proptests above cover the randomized space.)
#[test]
fn conservative_oracle_sound_on_full_enumeration() {
    let inst = UpdateInstance::new(
        RoutePath::from_raw(&[1, 2, 3, 4, 5]).unwrap(),
        RoutePath::from_raw(&[1, 4, 3, 2, 5]).unwrap(),
        None,
    )
    .unwrap();
    let props = PropertySet::loop_free_relaxed();
    let shared: Vec<DpId> = inst
        .nodes_with_role(NodeRole::Shared)
        .into_iter()
        .filter(|&v| v != inst.dst())
        .collect();
    let k = shared.len();
    let mut agreements = 0u32;
    let mut over_rejections = 0u32;
    for base_mask in 0u32..(1 << k) {
        for round_mask in 0u32..(1 << k) {
            if base_mask & round_mask != 0 || round_mask == 0 {
                continue;
            }
            let base_ops: Vec<RuleOp> = (0..k)
                .filter(|i| base_mask & (1 << i) != 0)
                .map(|i| RuleOp::Activate(shared[i]))
                .collect();
            let round_ops: Vec<RuleOp> = (0..k)
                .filter(|i| round_mask & (1 << i) != 0)
                .map(|i| RuleOp::Activate(shared[i]))
                .collect();
            let base = apply_base(&inst, &base_ops);
            let conservative = round_safe_conservative(&inst, &base, &round_ops, &props);
            let exact = check_round(&inst, &base, &round_ops, &props).is_ok();
            assert!(
                exact || !conservative,
                "UNSOUND: conservative accepted unsafe round at base={base_ops:?} round={round_ops:?}"
            );
            if conservative == exact {
                agreements += 1;
            } else {
                over_rejections += 1;
            }
        }
    }
    // every split audited; report shape for the record
    assert!(agreements > 0);
    // over-rejection is permitted but must not be the common case
    assert!(
        over_rejections <= agreements,
        "oracle over-rejects {over_rejections} vs {agreements} agreements"
    );
}
