//! Cross-validation of the checker on randomized instances and rounds:
//! the choice graph's checks must agree with brute force, property by
//! property, on rounds of every operation kind; the stateful
//! [`AdmissionProbe`] session must make exactly the decisions of the
//! stateless [`round_admissible`] oracle — per round *and* carried
//! across rounds through `commit_round`/`advance` along full greedy
//! trajectories — while a rejected push leaves no trace in the
//! structures it patches in place; [`verify_schedule`] (strong loop
//! freedom through its cross-round session) must report exactly the
//! violations of a stateless per-round rebuild on permutation,
//! reversal, rotation, comb, waypointed and fat-tree workloads,
//! violating schedules included; and every walk witness it reports must
//! replay: applied to its round's base, it walks the reported walk.

use proptest::prelude::*;

use sdn_topo::route::RoutePath;
use sdn_types::{DetRng, DpId};
use update_core::algorithms::{
    OneShot, Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp,
};
use update_core::checker::choice_graph::{check_round_slf, check_round_walks};
use update_core::checker::exhaustive::check_round_exhaustive;
use update_core::checker::{round_admissible, verify_schedule, AdmissionProbe, Violation};
use update_core::config::{ConfigState, WalkOutcome};
use update_core::model::{NodeRole, UpdateInstance};
use update_core::properties::{
    check_config, Property, PropertySet, PropertyViolation, ViolationKind,
};
use update_core::schedule::{Round, RuleOp, Schedule};

/// Build a random instance plus a random (base, round) split of its
/// operations, with optional waypoint: every activation, tagged
/// install, old-rule removal and the ingress flip is either already in
/// the base, pending in the round, or neither.
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
    let mut split = |rng: &mut DetRng, op: RuleOp, chance: f64| {
        if rng.chance(chance) {
            if rng.chance(0.5) {
                base_ops.push(op);
            } else {
                round_ops.push(op);
            }
        }
    };
    for (v, role) in inst.nodes() {
        if v == inst.dst() {
            continue;
        }
        match role {
            NodeRole::Shared | NodeRole::NewOnly => split(&mut rng, RuleOp::Activate(v), 0.67),
            NodeRole::OldOnly => split(&mut rng, RuleOp::RemoveOld(v), 0.3),
        }
        if role == NodeRole::Shared {
            split(&mut rng, RuleOp::InstallTagged(v), 0.3);
            split(&mut rng, RuleOp::RemoveOld(v), 0.1);
        }
    }
    split(&mut rng, RuleOp::FlipIngress, 0.3);
    rng.shuffle(&mut round_ops);
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
) -> AdmissionProbe<'a> {
    let mut fresh = AdmissionProbe::open(inst, base, props);
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

    /// For each walk property on its own, the choice graph's search
    /// verdict equals brute force, and so does the stateless oracle;
    /// the session, fed the round one operation at a time, makes the
    /// stateless oracle's decision on every push.
    #[test]
    fn walk_check_matches_exhaustive(seed in 0u64..1_000_000, n in 4u64..9, wp: bool) {
        let (inst, base_ops, round_ops) = random_setup(seed, n, wp);
        prop_assume!(!round_ops.is_empty() && round_ops.len() <= 12);
        let base = apply_base(&inst, &base_ops);
        let mut walk_props = vec![Property::BlackholeFreedom, Property::RelaxedLoopFreedom];
        if inst.waypoint().is_some() {
            walk_props.push(Property::WaypointEnforcement);
        }
        for p in walk_props {
            let props = PropertySet::none().with(p);
            let brute = check_round_exhaustive(&inst, &base, &round_ops, &props).is_ok();
            let walks = check_round_walks(&inst, &base, &round_ops, &props).is_ok();
            prop_assert_eq!(walks, brute, "{:?}: {} base={:?} round={:?}", p, inst, base_ops, round_ops);
            let oracle = round_admissible(&inst, &base, &round_ops, &props);
            prop_assert_eq!(oracle, brute, "{:?}: {} base={:?} round={:?}", p, inst, base_ops, round_ops);
            let mut probe = AdmissionProbe::open(&inst, &base, props);
            let mut accepted: Vec<RuleOp> = Vec::new();
            for &op in &round_ops {
                let mut trial = accepted.clone();
                trial.push(op);
                let expect = round_admissible(&inst, &base, &trial, &props);
                prop_assert_eq!(
                    probe.try_push(op), expect,
                    "{:?}: {} base={:?} accepted={:?} op={:?}", p, inst, base_ops, accepted, op
                );
                if expect {
                    accepted.push(op);
                }
            }
        }
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

    /// The round oracle — named for when it was only conservative —
    /// never accepts a round brute force rejects, under the property
    /// sets the schedulers use, strong loop freedom included.
    #[test]
    fn conservative_oracle_is_sound(seed in 0u64..1_000_000, n in 4u64..9, wp: bool) {
        let (inst, base_ops, round_ops) = random_setup(seed, n, wp);
        prop_assume!(!round_ops.is_empty() && round_ops.len() <= 12);
        let base = apply_base(&inst, &base_ops);
        let props = if inst.waypoint().is_some() {
            PropertySet::all()
        } else {
            PropertySet::loop_free_strong()
        };
        if round_admissible(&inst, &base, &round_ops, &props) {
            let brute = check_round_exhaustive(&inst, &base, &round_ops, &props);
            prop_assert!(
                brute.is_ok(),
                "the oracle accepted an unsafe round: {} base={:?} round={:?}\n{}",
                inst, base_ops, round_ops, brute
            );
        }
    }

    /// The stateful session oracle makes exactly the stateless
    /// decisions across the six workload
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
            let mut probe = AdmissionProbe::open(&inst, &base, props);
            let mut accepted: Vec<RuleOp> = Vec::new();
            for &op in &candidates {
                let mut trial = accepted.clone();
                trial.push(op);
                let expect = round_admissible(&inst, &base, &trial, &props);
                let got = probe.try_push(op);
                prop_assert_eq!(
                    got, expect,
                    "props {:?}: {} base={:?} accepted={:?} op={:?}",
                    props, inst, base_ops, accepted, op
                );
                if got {
                    accepted.push(op);
                } else {
                    prop_assert_eq!(
                        probe.state_dump(),
                        replayed(&inst, &base, &accepted, props).state_dump(),
                        "props {:?}: {} base={:?} accepted={:?} rejected {:?} left a trace",
                        props, inst, base_ops, accepted, op
                    );
                }
            }
            prop_assert_eq!(probe.ops(), accepted.as_slice());
            // The admitted set must itself be admissible.
            if !accepted.is_empty() {
                prop_assert!(round_admissible(&inst, &base, &accepted, &props));
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
    ) {
        let mut rng = DetRng::new(seed);
        let (inst, props) = instance_of_family(family, n, &mut rng);
        let mut base = ConfigState::initial(&inst);
        let mut session = AdmissionProbe::open(&inst, &base, props);
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
            let mut fresh = AdmissionProbe::open(&inst, &base, props);
            for &v in &pending {
                let op = RuleOp::Activate(v);
                let got = session.try_push(op);
                let expect = fresh.try_push(op);
                prop_assert_eq!(
                    got, expect,
                    "family {} round {} candidate {}: cross-round vs fresh",
                    family, guard, v
                );
            }
            let ops = session.commit_round();
            prop_assert_eq!(&ops, &fresh.into_ops(), "round {} admitted sets", guard);
            if ops.is_empty() {
                // A waypoint can leave no admissible candidate (the
                // greedy engine is stuck then); equality is all this
                // test asserts.
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
/// base — strong loop freedom through the choice graph's cycle check,
/// then the walk properties through fresh searches — and the final configuration
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
            round_violations
                .extend(check_round_walks(inst, &base, &round.ops, &walk_props).violations);
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
/// decision against the stateless oracle.
#[test]
fn admission_probe_matches_along_greedy_reversal_schedule() {
    let pair = sdn_topo::gen::reversal(24);
    let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
    let props = PropertySet::loop_free_strong();
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
        let mut probe = AdmissionProbe::open(&inst, &base, props);
        let mut accepted: Vec<RuleOp> = Vec::new();
        for &v in &pending {
            let op = RuleOp::Activate(v);
            let mut trial = accepted.clone();
            trial.push(op);
            let expect = round_admissible(&inst, &base, &trial, &props);
            let got = probe.try_push(op);
            assert_eq!(got, expect, "round {guard} candidate {v}");
            if got {
                accepted.push(op);
            }
        }
        assert!(!accepted.is_empty(), "greedy must make progress");
        base.apply_all(&accepted);
        pending.retain(|&v| !accepted.contains(&RuleOp::Activate(v)));
    }
}

/// Every walk witness `verify_schedule` reports replays: applied to
/// its round's base, the witness walks exactly the reported walk — the
/// loop, the blackhole or the waypoint bypass. Over the schedules of
/// the verifier's golden report, one-shot schedules of random
/// permutations and waypointed instances, and scrambled two-phase
/// schedules (whose witnesses run in the NEW tag class).
#[test]
fn walk_witnesses_replay() {
    let mut cases: Vec<(UpdateInstance, Schedule, PropertySet)> = Vec::new();
    let rev = sdn_topo::gen::reversal(8);
    let wp = sdn_topo::gen::waypointed(11, true, &mut DetRng::new(0x77));
    let (relaxed, strong) = (
        PropertySet::loop_free_relaxed(),
        PropertySet::loop_free_strong(),
    );
    let (secure, all) = (PropertySet::transiently_secure(), PropertySet::all());
    for pair in [rev, wp] {
        let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
        let schedulers: [(&dyn UpdateScheduler, &[PropertySet]); 5] = [
            (&OneShot, &[relaxed, all]),
            (&TwoPhaseCommit, &[all]),
            (&SlfGreedy, &[strong]),
            (&Peacock::default(), &[relaxed]),
            (&WayUp::default(), &[secure, all]),
        ];
        for (scheduler, prop_sets) in schedulers {
            let Ok(schedule) = scheduler.schedule(&inst) else {
                continue;
            };
            for &props in prop_sets {
                cases.push((inst.clone(), schedule.clone(), props));
            }
        }
    }
    let mut rng = DetRng::new(0x1e55);
    for _ in 0..40 {
        let n = 4 + rng.index(12) as u64;
        let pair = if rng.chance(0.5) {
            sdn_topo::gen::random_permutation(n, &mut rng)
        } else {
            sdn_topo::gen::waypointed(n.max(5), rng.chance(0.5), &mut rng)
        };
        let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
        let two_phase = scrambled(&TwoPhaseCommit.schedule(&inst).unwrap(), &mut rng);
        cases.push((inst.clone(), OneShot.schedule(&inst).unwrap(), all));
        cases.push((inst, two_phase, all));
    }
    let mut replayed = [0u32; 3];
    for (inst, schedule, props) in &cases {
        let report = verify_schedule(inst, schedule, *props);
        for v in &report.violations {
            let (Some(r), ViolationKind::BadWalk(walk)) = (v.round, &v.violation.kind) else {
                continue;
            };
            let round = &schedule.rounds[r].ops;
            assert!(v.witness.iter().all(|op| round.contains(op)), "{v}");
            let mut config = ConfigState::initial(inst);
            for earlier in &schedule.rounds[..r] {
                config.apply_all(&earlier.ops);
            }
            config.apply_all(&v.witness);
            assert_eq!(&config.walk(), walk, "{inst} {}: {v}", schedule.algorithm);
            let kind = match walk.outcome {
                WalkOutcome::Blackhole { .. } => 0,
                WalkOutcome::Looped { .. } => 1,
                WalkOutcome::Delivered { .. } => 2,
            };
            let property = [
                Property::BlackholeFreedom,
                Property::RelaxedLoopFreedom,
                Property::WaypointEnforcement,
            ][kind];
            assert_eq!(v.violation.property, property, "{v}");
            replayed[kind] += 1;
        }
    }
    // blackholes, loops and bypasses all replayed
    assert!(replayed.iter().all(|&k| k > 0), "{replayed:?}");
}

/// Drive `candidates` through a session and the stateless oracle side
/// by side, returning the admitted set; every rejected push must leave
/// the session as a replay of the admitted ops.
fn audited_round(
    inst: &UpdateInstance,
    base_ops: &[RuleOp],
    candidates: &[RuleOp],
    props: PropertySet,
) -> Vec<RuleOp> {
    let base = apply_base(inst, base_ops);
    let mut probe = AdmissionProbe::open(inst, &base, props);
    let mut accepted: Vec<RuleOp> = Vec::new();
    for &op in candidates {
        let mut trial = accepted.clone();
        trial.push(op);
        let expect = round_admissible(inst, &base, &trial, &props);
        assert_eq!(probe.try_push(op), expect, "{inst} {op:?} on {accepted:?}");
        if expect {
            accepted.push(op);
        } else {
            assert_eq!(
                probe.state_dump(),
                replayed(inst, &base, &accepted, props).state_dump(),
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

/// Exhaustive-enumeration audit on a fixed reversal instance: over
/// *every* split of its operations — each shared switch's activation,
/// the tagged installs of two of them and the ingress flip, each
/// committed, pending or neither — the choice graph accepts exactly
/// the rounds brute force accepts, property by property. (Sound, as the
/// name has asked since the oracle was only conservative, and
/// complete.)
#[test]
fn conservative_oracle_sound_on_full_enumeration() {
    let inst = UpdateInstance::new(
        RoutePath::from_raw(&[1, 2, 3, 4, 5]).unwrap(),
        RoutePath::from_raw(&[1, 4, 3, 2, 5]).unwrap(),
        Some(DpId(3)),
    )
    .unwrap();
    let mut ops: Vec<RuleOp> = inst
        .nodes_with_role(NodeRole::Shared)
        .into_iter()
        .filter(|&v| v != inst.dst())
        .map(RuleOp::Activate)
        .collect();
    ops.extend([
        RuleOp::InstallTagged(DpId(2)),
        RuleOp::InstallTagged(DpId(4)),
        RuleOp::FlipIngress,
    ]);
    let props = [
        Property::BlackholeFreedom,
        Property::RelaxedLoopFreedom,
        Property::WaypointEnforcement,
    ];
    let (mut safe, mut unsafe_) = (0u32, 0u32);
    for split in 0..3u32.pow(ops.len() as u32) {
        let (mut base_ops, mut round_ops) = (Vec::new(), Vec::new());
        let mut code = split;
        for &op in &ops {
            match code % 3 {
                1 => base_ops.push(op),
                2 => round_ops.push(op),
                _ => {}
            }
            code /= 3;
        }
        let base = apply_base(&inst, &base_ops);
        for p in props {
            let props = PropertySet::none().with(p);
            let brute = check_round_exhaustive(&inst, &base, &round_ops, &props).is_ok();
            let walks = check_round_walks(&inst, &base, &round_ops, &props).is_ok();
            assert_eq!(walks, brute, "{p:?} base={base_ops:?} round={round_ops:?}");
            *if brute { &mut safe } else { &mut unsafe_ } += 1;
        }
    }
    // both verdicts were exercised
    assert!(safe > 0 && unsafe_ > 0, "{safe} safe, {unsafe_} unsafe");
}
