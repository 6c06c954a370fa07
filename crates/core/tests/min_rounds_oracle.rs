//! The greedy schedulers judged against an exact search.
//!
//! Finding the fewest rounds is hard in general (Amiri et al., "Being
//! Greedy is Hard"), so the schedulers are greedy; this test measures
//! how far from the optimum they land on small instances. The optimum
//! is a breadth-first search over the sets of activation operations
//! already applied (bitmasks over the instance's pending shared
//! switches, with the new-only installs applied first, as every
//! replacement schedule does): a round from set `S` is any non-empty
//! set `T` of the remaining operations that
//! the exact [`round_admissible`] accepts on top of `S`.
//! Subsets of an admissible round are admissible (each of their
//! transient states is one of the round's), so the search extends a
//! candidate round only while it stays admissible.
//!
//! It asserts, on `gen::waypointed` instances (n from 5 to 9, with and
//! without a crossing switch) and on HotNets'14's crossing instance:
//!
//! * soundness — no WayUp, Peacock or SLF-greedy replacement schedule
//!   takes fewer activation rounds than the optimum under its own
//!   properties, and each of its rounds is admissible;
//! * completeness — WayUp falls back to two-phase commit only where the
//!   search finds no replacement schedule at all, and on the HotNets
//!   instance it finds none;
//!
//! and pins, per scheduler, how many instances take more rounds than
//! the optimum.

use std::collections::VecDeque;

use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DetRng, DpId};
use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler, WayUp};
use update_core::checker::round_admissible;
use update_core::config::ConfigState;
use update_core::model::{NodeRole, UpdateInstance};
use update_core::properties::PropertySet;
use update_core::schedule::{RuleOp, Schedule};

/// The activation operations of a replacement schedule: every shared
/// switch but the destination.
fn activation_ops(inst: &UpdateInstance) -> Vec<RuleOp> {
    inst.nodes_with_role(NodeRole::Shared)
        .into_iter()
        .filter(|&v| v != inst.dst())
        .map(RuleOp::Activate)
        .collect()
}

/// The configuration after the new-only installs and the operations of
/// `mask`.
fn config<'a>(inst: &'a UpdateInstance, ops: &[RuleOp], mask: u32) -> ConfigState<'a> {
    let mut c = ConfigState::initial(inst);
    c.apply_all(
        &inst
            .nodes_with_role(NodeRole::NewOnly)
            .into_iter()
            .map(RuleOp::Activate)
            .collect::<Vec<_>>(),
    );
    c.apply_all(
        (0..ops.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| &ops[i]),
    );
    c
}

/// Every admissible round from `mask`, as the mask of its operations.
fn rounds_from(inst: &UpdateInstance, ops: &[RuleOp], props: &PropertySet, mask: u32) -> Vec<u32> {
    let base = config(inst, ops, mask);
    let remaining: Vec<usize> = (0..ops.len()).filter(|i| mask >> i & 1 == 0).collect();
    let mut out = Vec::new();
    // depth-first over subsets in index order, extending admissible ones
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some((round, from)) = stack.pop() {
        for (k, &i) in remaining.iter().enumerate().skip(from) {
            let next = round | 1 << i;
            let round_ops: Vec<RuleOp> = (0..ops.len())
                .filter(|j| next >> j & 1 == 1)
                .map(|j| ops[j])
                .collect();
            if round_admissible(inst, &base, &round_ops, props) {
                out.push(next);
                stack.push((next, k + 1));
            }
        }
    }
    out
}

/// The fewest activation rounds under `props`, or `None` when no
/// replacement schedule exists.
fn min_rounds(inst: &UpdateInstance, props: &PropertySet) -> Option<usize> {
    let ops = activation_ops(inst);
    assert!(
        ops.len() <= 16,
        "the search is exponential in the operations"
    );
    let full = (1u32 << ops.len()) - 1;
    let mut dist = vec![usize::MAX; 1 << ops.len()];
    dist[0] = 0;
    let mut queue = VecDeque::from([0u32]);
    while let Some(mask) = queue.pop_front() {
        if mask == full {
            return Some(dist[mask as usize]);
        }
        for round in rounds_from(inst, &ops, props, mask) {
            let next = mask | round;
            if dist[next as usize] == usize::MAX {
                dist[next as usize] = dist[mask as usize] + 1;
                queue.push_back(next);
            }
        }
    }
    None
}

/// The rounds of a replacement schedule that activate shared switches,
/// each asserted admissible on the configuration before it.
fn activation_rounds(inst: &UpdateInstance, s: &Schedule, props: &PropertySet) -> usize {
    let ops = activation_ops(inst);
    let mut mask = 0u32;
    let mut rounds = 0;
    for (r, round) in s.rounds.iter().enumerate() {
        let ixs: Vec<usize> = round
            .ops
            .iter()
            .filter_map(|op| ops.iter().position(|o| o == op))
            .collect();
        if ixs.is_empty() {
            continue;
        }
        let round_ops: Vec<RuleOp> = ixs.iter().map(|&i| ops[i]).collect();
        let base = config(inst, &ops, mask);
        assert!(
            round_admissible(inst, &base, &round_ops, props),
            "{}: round {r} of {inst} is not admissible:\n{s}",
            s.algorithm
        );
        mask |= ixs.iter().map(|&i| 1u32 << i).sum::<u32>();
        rounds += 1;
    }
    assert_eq!(
        mask.count_ones() as usize,
        ops.len(),
        "{inst}: all activated:\n{s}"
    );
    rounds
}

fn instances() -> Vec<(String, UpdateInstance)> {
    let mut out = Vec::new();
    let mut rng = DetRng::new(0x0b7);
    for n in 5..=9u64 {
        for crossing in [false, true] {
            for trial in 0..6 {
                let pair = gen::waypointed(n, crossing, &mut rng);
                let label = format!("waypointed({n}, {crossing}) #{trial}");
                out.push((label, instance(pair)));
            }
        }
    }
    // old ⟨1,2,3,4,5⟩, new ⟨1,4,3,2,5⟩, waypoint 3
    let hotnets = UpdatePair {
        waypoint: Some(DpId(3)),
        ..gen::reversal(5)
    };
    out.push(("HotNets'14".to_string(), instance(hotnets)));
    out
}

fn instance(pair: UpdatePair) -> UpdateInstance {
    UpdateInstance::new(pair.old, pair.new, pair.waypoint).unwrap()
}

#[test]
fn greedy_schedulers_against_the_optimum() {
    let schedulers: [(&dyn UpdateScheduler, PropertySet, usize); 3] = [
        (&WayUp::default(), PropertySet::transiently_secure(), 1),
        (&Peacock::default(), PropertySet::loop_free_relaxed(), 0),
        (&SlfGreedy, PropertySet::loop_free_strong(), 0),
    ];
    let instances = instances();
    let mut above = [0usize; 3];
    for (label, inst) in &instances {
        for (k, (scheduler, props, _)) in schedulers.iter().enumerate() {
            let optimum = min_rounds(inst, props);
            let s = scheduler.schedule(inst).unwrap();
            if s.fallback {
                assert_eq!(
                    optimum, None,
                    "{label}: {} fell back needlessly:\n{s}",
                    s.algorithm
                );
                continue;
            }
            let optimum = optimum.unwrap_or_else(|| panic!("{label}: the search missed\n{s}"));
            let rounds = activation_rounds(inst, &s, props);
            assert!(
                rounds >= optimum,
                "{label}: {rounds} < optimum {optimum}:\n{s}"
            );
            above[k] += usize::from(rounds > optimum);
        }
    }
    let (_, hotnets) = instances.last().unwrap();
    assert_eq!(
        min_rounds(hotnets, &PropertySet::transiently_secure()),
        None
    );
    assert!(WayUp::default().schedule(hotnets).unwrap().fallback);
    for (k, (scheduler, ..)) in schedulers.iter().enumerate() {
        println!(
            "{}: {} of {} instances above the optimum",
            scheduler.name(),
            above[k],
            instances.len()
        );
    }
    for (k, (scheduler, _, pinned)) in schedulers.iter().enumerate() {
        assert!(
            above[k] <= *pinned,
            "{}: {} above, pinned {pinned}",
            scheduler.name(),
            above[k]
        );
    }
}
