//! Commutativity of conflict-analyzer-admitted concurrency.
//!
//! Property: when the conflict analyzer declares a set of compiled
//! updates footprint-disjoint, **any** interleaving of their control
//! messages (each update's own round order preserved — that is what
//! barriers enforce — everything across updates arbitrary) drives the
//! switches to the *same* committed flow tables as executing the
//! updates serially, i.e. the concurrent execution is equivalent to a
//! serial order. Cross-validated against `verify_schedule`: each
//! flow's schedule is transiently safe in isolation, and since
//! disjoint footprints touch disjoint (switch, flow-class) slices,
//! those per-flow guarantees carry to the merged trace unchanged.
//!
//! A negative control checks the analyzer *does* flag same-flow
//! overlap, where the committed state genuinely depends on order.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use sdn_ctrl::compile::{compile_schedule, CompiledRound, CompiledUpdate, FlowSpec};
use sdn_ctrl::runtime::{
    ConcurrentRuntime, ConflictGraph, FlowClass, Footprint, JobId, RuntimeConfig,
};
use sdn_openflow::flow::FlowMatch;
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DetRng, DpId, HostId, SimDuration, Xid};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::checker::verify_schedule;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;

/// Build `k` disjoint flows of `n` switches each. With `shared`, all
/// flows run over the *same* switches (flow-class disjointness only);
/// otherwise each flow gets its own dpid range (switch disjointness).
fn disjoint_flows(n: u64, k: usize, shared: bool, rng: &mut DetRng) -> Vec<UpdatePair> {
    (0..k)
        .map(|i| {
            let base = gen::random_permutation(n, rng);
            if shared {
                base
            } else {
                gen::shift(&base, (i as u64) * (n + 3))
            }
        })
        .collect()
}

/// Compile each flow against the shared batch topology, verifying its
/// schedule statically on the way.
fn compile_flows(pairs: &[UpdatePair]) -> Vec<CompiledUpdate> {
    let topo = gen::materialize_batch(pairs);
    pairs
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let (src, dst) = gen::batch_hosts(i);
            let spec = FlowSpec { src, dst };
            let inst =
                UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
            let sched = SlfGreedy.schedule(&inst).unwrap();
            let report = verify_schedule(&inst, &sched, PropertySet::loop_free_strong());
            assert!(report.is_ok(), "per-flow schedule must verify: {report}");
            compile_schedule(&topo, &inst, &sched, &spec).unwrap()
        })
        .collect()
}

/// All switches any update touches.
fn all_switches(updates: &[CompiledUpdate]) -> Vec<DpId> {
    let mut dps: Vec<DpId> = updates
        .iter()
        .flat_map(|u| u.rounds.iter().flat_map(|r| r.msgs.iter().map(|(d, _)| *d)))
        .collect();
    dps.sort();
    dps.dedup();
    dps
}

/// Apply a message sequence to fresh switches; return each switch's
/// committed table as a sorted fingerprint.
fn run_sequence(
    switches: &[DpId],
    seq: &[(DpId, sdn_openflow::messages::OfMessage)],
) -> Vec<(DpId, Vec<String>)> {
    let mut sws: Vec<SoftSwitch> = switches.iter().map(|&d| SoftSwitch::new(d, 64)).collect();
    let mut xid = Xid(1);
    for (dp, msg) in seq {
        let sw = sws.iter_mut().find(|s| s.dpid() == *dp).unwrap();
        sw.handle_control(Envelope::new(xid, msg.clone()));
        xid = xid.next();
    }
    sws.iter()
        .map(|s| {
            // fingerprint the forwarding-relevant fields only —
            // `installed_seq`/`packets` are bookkeeping and naturally
            // differ between interleavings
            let mut rules: Vec<String> = s
                .table()
                .iter()
                .map(|e| {
                    format!(
                        "{}|{:?}|{:?}|{}",
                        e.priority, e.matcher, e.actions, e.cookie
                    )
                })
                .collect();
            rules.sort();
            (s.dpid(), rules)
        })
        .collect()
}

/// Random merge of the updates' message streams, preserving each
/// stream's internal order.
fn random_interleaving(
    updates: &[CompiledUpdate],
    rng: &mut DetRng,
) -> Vec<(DpId, sdn_openflow::messages::OfMessage)> {
    let mut streams: Vec<std::collections::VecDeque<_>> = updates
        .iter()
        .map(|u| {
            u.rounds
                .iter()
                .flat_map(|r| r.msgs.iter().cloned())
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    loop {
        let nonempty: Vec<usize> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, _)| i)
            .collect();
        if nonempty.is_empty() {
            return out;
        }
        let pick = nonempty[rng.index(nonempty.len())];
        out.push(streams[pick].pop_front().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn admitted_interleavings_commute_to_a_serial_order(
        n in 4u64..9,
        k in 2usize..4,
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let pairs = disjoint_flows(n, k, shared, &mut rng);
        let updates = compile_flows(&pairs);

        // the analyzer must admit the whole set concurrently
        let fps: Vec<Footprint> = updates.iter().map(Footprint::of).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                prop_assert!(
                    fps[i].disjoint(&fps[j]),
                    "flows {i}/{j} must be footprint-disjoint (shared={shared})"
                );
            }
        }

        // serial reference: update 0 fully, then 1, ...
        let dps = all_switches(&updates);
        let serial: Vec<_> = updates
            .iter()
            .flat_map(|u| u.rounds.iter().flat_map(|r| r.msgs.iter().cloned()))
            .collect();
        let reference = run_sequence(&dps, &serial);

        // any admitted interleaving commits the same configuration
        for _ in 0..4 {
            let merged = random_interleaving(&updates, &mut rng);
            prop_assert_eq!(merged.len(), serial.len());
            let got = run_sequence(&dps, &merged);
            prop_assert_eq!(&got, &reference, "interleaving must commute");
        }
    }

    #[test]
    fn same_flow_overlap_is_flagged_as_conflict(
        n in 4u64..9,
        seed in any::<u64>(),
    ) {
        // Two updates of the SAME flow (same dst host, same switches):
        // committed state depends on order, and the analyzer must say
        // so instead of admitting them concurrently.
        let mut rng = DetRng::new(seed);
        let pair_a = gen::random_permutation(n, &mut rng);
        let pair_b = UpdatePair {
            old: pair_a.new.clone(),
            new: pair_a.old.clone(),
            waypoint: None,
        };
        let topo = gen::materialize_batch(std::slice::from_ref(&pair_a));
        let (src, dst) = gen::batch_hosts(0);
        let spec = FlowSpec { src, dst };
        let compiled: Vec<CompiledUpdate> = [&pair_a, &pair_b]
            .iter()
            .map(|p| {
                let inst =
                    UpdateInstance::new(p.old.clone(), p.new.clone(), None).unwrap();
                let sched = SlfGreedy.schedule(&inst).unwrap();
                compile_schedule(&topo, &inst, &sched, &spec).unwrap()
            })
            .collect();
        let fa = Footprint::of(&compiled[0]);
        let fb = Footprint::of(&compiled[1]);
        prop_assert!(fa.conflicts(&fb), "same-flow updates must conflict");
    }
}

/// The pairwise reference the flat footprint and the class-keyed
/// index are checked against: per switch, the set of classes, compared
/// switch by switch with no index at all.
type RefFootprint = BTreeMap<DpId, BTreeSet<FlowClass>>;

fn ref_conflicts(a: &RefFootprint, b: &RefFootprint) -> bool {
    a.iter().any(|(dp, ca)| {
        b.get(dp).is_some_and(|cb| {
            ca.contains(&FlowClass::Wildcard)
                || cb.contains(&FlowClass::Wildcard)
                || !ca.is_disjoint(cb)
        })
    })
}

/// Switch universes the cross-check draws from: small dense ids, then
/// sparse and extreme ids, then ids that agree in their low 32 bits or
/// differ only in the byte above a MAC-style prefix — the holder lists
/// are keyed by a hash of the dpid, and these share the bits a weak
/// hash would bucket by.
const UNIVERSES: [[u64; 5]; 3] = [
    [1, 2, 3, 4, 5],
    [0, 1 << 48, 2 << 48, u64::MAX, 1],
    [
        1 << 32,
        3 << 32,
        0x0000_0200_0000_0100,
        0x0000_0200_0000_0200,
        1 << 63,
    ],
];

/// A random update over a universe small enough (5 switches, 3 hosts,
/// ≈ 1 wildcard in 7) that shared switches, shared classes and
/// wildcards all occur, spread over two rounds with repeats.
fn random_update(rng: &mut DetRng, universe: &[u64; 5]) -> (CompiledUpdate, RefFootprint) {
    let mut reference = RefFootprint::new();
    let mut rounds = vec![CompiledRound::default(), CompiledRound::default()];
    rounds[1].pre_delay = SimDuration::from_millis(1);
    for k in 0..rng.index(6) {
        let dp = DpId(universe[rng.index(5)]);
        let (class, matcher) = if rng.chance(0.15) {
            (FlowClass::Wildcard, FlowMatch::ANY)
        } else {
            let h = HostId(1 + rng.index(3) as u32);
            (FlowClass::Dst(h), FlowMatch::dst_host(h))
        };
        reference.entry(dp).or_default().insert(class);
        let msg = OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher,
            actions: vec![],
            cookie: 0,
        });
        // every other message twice, once per round: `of` must dedup
        rounds[k % 2].msgs.push((dp, msg.clone()));
        if rng.chance(0.5) {
            rounds[(k + 1) % 2].msgs.push((dp, msg));
        }
    }
    let update = CompiledUpdate {
        label: "r".into(),
        rounds,
    };
    (update, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_and_flat_footprint_agree_with_the_pairwise_reference(
        steps in 8usize..48,
        seed in any::<u64>(),
    ) {
        // the same walk over each universe, from the same seed
        for universe in &UNIVERSES {
            let mut rng = DetRng::new(seed);
            // two mirrors of the same model: a bare graph taking inserts,
            // reserves and removes, and a runtime's graph driven through
            // admits_footprint / reserve / release
            let mut graph = ConflictGraph::new();
            let mut held: BTreeMap<JobId, RefFootprint> = BTreeMap::new();
            let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
            let mut reserved: BTreeMap<JobId, RefFootprint> = BTreeMap::new();
            let mut seen: Vec<(Footprint, RefFootprint)> = Vec::new();
            for step in 0..steps {
                let id = JobId(step as u64 + 1);
                let (update, reference) = random_update(&mut rng, universe);
                let fp = Footprint::of(&update);

                // the footprint itself
                prop_assert_eq!(
                    fp.switches().collect::<Vec<_>>(),
                    reference.keys().copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(fp.switch_count(), reference.len());
                prop_assert_eq!(fp.is_empty(), reference.is_empty());
                let odd = |dp: DpId| dp.0 % 2 == 1;
                let mut kept = update.clone();
                for r in &mut kept.rounds {
                    r.msgs.retain(|(dp, _)| odd(*dp));
                }
                prop_assert_eq!(fp.slice(odd), Footprint::of(&kept));
                for (other, other_ref) in &seen {
                    let want = ref_conflicts(&reference, other_ref);
                    prop_assert_eq!(fp.conflicts(other), want);
                    prop_assert_eq!(other.conflicts(&fp), want);
                }

                // the graph's answers about it
                let want: BTreeSet<JobId> = held
                    .iter()
                    .filter(|(_, h)| ref_conflicts(&reference, h))
                    .map(|(&id, _)| id)
                    .collect();
                prop_assert_eq!(graph.admits(&fp), want.is_empty());
                prop_assert_eq!(&graph.conflicts_with(&fp), &want);
                // insert regardless (overlapping holders coexist: the
                // graph records, its caller decides) or only if admitted
                if want.is_empty() || rng.chance(0.5) {
                    graph.insert(id, fp.clone());
                    held.insert(id, reference.clone());
                }

                // the runtime's three methods over the same index
                let free = reserved.values().all(|h| !ref_conflicts(&reference, h));
                prop_assert_eq!(rt.admits_footprint(&fp), free);
                prop_assert_eq!(rt.reserve(id, &fp), free);
                if free {
                    reserved.insert(id, reference.clone());
                }

                // drop a random holder from each mirror (sometimes an
                // unknown id, which both must ignore)
                if rng.chance(0.4) {
                    let pick = |m: &BTreeMap<JobId, RefFootprint>, rng: &mut DetRng| {
                        if m.is_empty() || rng.chance(0.1) {
                            JobId(10_000)
                        } else {
                            *m.keys().nth(rng.index(m.len())).unwrap()
                        }
                    };
                    let victim = pick(&held, &mut rng);
                    graph.remove(victim);
                    held.remove(&victim);
                    let victim = pick(&reserved, &mut rng);
                    rt.release(victim);
                    reserved.remove(&victim);
                }
                prop_assert_eq!(graph.len(), held.len());
                prop_assert_eq!(graph.is_empty(), held.is_empty());
                seen.push((fp, reference));
            }
        }
    }
}

/// Non-proptest sanity: the drain grace on cleanup rounds never hides
/// messages from the footprint (every round contributes, including
/// the old-only switches whose rules only appear in RemoveOld rounds).
#[test]
fn footprint_includes_cleanup_round_switches() {
    // disjoint detour: switches 2,4,5,6 are old-only, touched *only*
    // by the trailing cleanup round's deletes
    let pair = gen::disjoint_detour(7, 2);
    let topo = gen::materialize_batch(std::slice::from_ref(&pair));
    let (src, dst) = gen::batch_hosts(0);
    let spec = FlowSpec { src, dst };
    let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
    let sched = SlfGreedy.schedule(&inst).unwrap();
    let compiled = compile_schedule(&topo, &inst, &sched, &spec).unwrap();
    let fp = Footprint::of(&compiled);
    for dp in [2u64, 4, 5, 6].map(DpId) {
        assert!(
            fp.switches().any(|d| d == dp),
            "old-only switch {dp} (cleanup round) missing from footprint"
        );
    }
}
