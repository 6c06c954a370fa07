//! Property-based correctness net: every scheduler's output must pass
//! the exact transient checker on randomized instances, across the
//! whole workload space the generators cover.

use proptest::prelude::*;

use sdn_types::DetRng;
use update_core::algorithms::{Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp};
use update_core::checker::verify_schedule;
use update_core::contract::Contracted;
use update_core::metrics::ScheduleStats;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peacock_always_verifies_on_permutations(n in 4u64..24, seed in 0u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_permutation(n, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = Peacock::default().schedule(&inst).unwrap();
        let r = verify_schedule(&inst, &s, PropertySet::loop_free_relaxed());
        prop_assert!(r.is_ok(), "{inst}: {r}");
    }

    #[test]
    fn slf_greedy_always_verifies_strongly(n in 4u64..20, seed in 0u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_permutation(n, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = SlfGreedy.schedule(&inst).unwrap();
        let r = verify_schedule(&inst, &s, PropertySet::loop_free_strong());
        prop_assert!(r.is_ok(), "{inst}: {r}");
    }

    #[test]
    fn wayup_always_transiently_secure(n in 5u64..20, seed in 0u64..1_000_000, crossing: bool) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::waypointed(n, crossing, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
        let s = WayUp::default().schedule(&inst).unwrap();
        let r = verify_schedule(&inst, &s, PropertySet::transiently_secure());
        prop_assert!(r.is_ok(), "{inst}: {r}");
        // crossing-free instances must not pay the 2PC rule-space tax
        if inst.crossing_nodes().is_empty() {
            prop_assert!(!s.fallback, "{inst} fell back needlessly:\n{s}");
        }
    }

    #[test]
    fn two_phase_always_verifies_everything(n in 4u64..20, seed in 0u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_permutation(n, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = TwoPhaseCommit.schedule(&inst).unwrap();
        let r = verify_schedule(&inst, &s, PropertySet::all());
        prop_assert!(r.is_ok(), "{inst}: {r}");
    }

    #[test]
    fn subsequence_workloads_are_single_round_for_peacock(
        n in 5u64..30, keep in 0.0f64..1.0, seed in 0u64..1_000_000
    ) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_subsequence(n, keep, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = Peacock::default().schedule(&inst).unwrap();
        // order-preserving subsets have only forward jumps: one
        // activation round (+ optional cleanup)
        let stats = ScheduleStats::of(&s);
        prop_assert!(stats.rounds <= 2, "{inst} took {} rounds:\n{s}", stats.rounds);
        prop_assert!(verify_schedule(&inst, &s, PropertySet::loop_free_relaxed()).is_ok());
    }

    #[test]
    fn schedulers_cover_every_switch_exactly_once(n in 4u64..16, seed in 0u64..1_000_000) {
        use std::collections::BTreeSet;
        use update_core::schedule::RuleOp;
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_permutation(n, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        for s in [
            Peacock::default().schedule(&inst).unwrap(),
            SlfGreedy.schedule(&inst).unwrap(),
        ] {
            let mut activated = BTreeSet::new();
            for (_, op) in s.all_ops() {
                if let RuleOp::Activate(v) = op {
                    prop_assert!(activated.insert(*v), "{v} activated twice in\n{s}");
                }
            }
            // every shared switch except dst must be activated
            let expected: BTreeSet<_> = inst
                .nodes_with_role(update_core::model::NodeRole::Shared)
                .into_iter()
                .filter(|&v| v != inst.dst())
                .collect();
            for v in expected {
                prop_assert!(activated.contains(&v), "{v} never activated in\n{s}");
            }
        }
    }

    #[test]
    fn contraction_preserves_jump_counts(n in 4u64..24, seed in 0u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        let pair = sdn_topo::gen::random_permutation(n, &mut rng);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let c = Contracted::of(&inst);
        // jumps = |new path| - 1 (all switches shared in permutations)
        prop_assert_eq!(c.jumps.len(), inst.new_route().len() - 1);
        prop_assert_eq!(
            c.forward_count() + c.backward_count(),
            c.jumps.len()
        );
        prop_assert_eq!(c.old_len(), n as usize);
    }
}

/// Comb workloads interleave the interior halves so backward jumps
/// overlap; Peacock must still verify and finish in few rounds.
#[test]
fn peacock_handles_comb_workloads() {
    for n in [6u64, 12, 24, 48, 96] {
        let pair = sdn_topo::gen::comb(n);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let s = Peacock::default().schedule(&inst).unwrap();
        let r = verify_schedule(&inst, &s, PropertySet::loop_free_relaxed());
        assert!(r.is_ok(), "n={n}: {r}");
        let bound = 2 * (64 - n.leading_zeros() as usize) + 6;
        assert!(
            s.round_count() <= bound,
            "n={n}: {} rounds exceeds {bound}:\n{s}",
            s.round_count()
        );
    }
}

/// Schedules must also be *structurally* valid (no duplicate ops, role
/// mismatches, kind mixing) — checked by Schedule::validate inside the
/// verifier, exercised here on the fallback path explicitly.
#[test]
fn fallback_schedules_are_tagged_kind() {
    let mut rng = DetRng::new(99);
    let mut pairs: Vec<_> = (0..10)
        .map(|_| sdn_topo::gen::waypointed(9, true, &mut rng))
        .collect();
    // HotNets'14's crossing instance: the one here with no replacement
    pairs.push(sdn_topo::gen::UpdatePair {
        waypoint: Some(sdn_types::DpId(3)),
        ..sdn_topo::gen::reversal(5)
    });
    let mut fallbacks = 0;
    for pair in pairs {
        let inst = UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap();
        let s = WayUp::default().schedule(&inst).unwrap();
        if s.fallback {
            fallbacks += 1;
            assert_eq!(s.kind, update_core::schedule::ScheduleKind::Tagged);
            assert!(s.validate(&inst).is_ok());
        }
    }
    assert!(fallbacks > 0, "the fallback path ran");
}
