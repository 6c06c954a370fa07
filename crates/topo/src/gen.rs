//! Workload generators: old/new route pairs for update experiments.
//!
//! The scheduling literature evaluates round complexity on *route
//! permutation* workloads: the old policy is a line ⟨1,…,n⟩ and the new
//! policy revisits a subset of those switches in a different order.
//! This module generates the canonical families:
//!
//! * [`reversal`] — the new route traverses the old route backwards;
//!   the worst case for strong loop freedom (Θ(n) rounds) and the
//!   showcase for Peacock's relaxed scheduling (O(1) rounds here);
//! * [`random_permutation`] — uniformly random interior order;
//! * [`random_subsequence`] — order-preserving random subset (all
//!   forward jumps; the easy case);
//! * [`waypointed`] — routes sharing a waypoint, optionally with a
//!   *crossing* switch (before the waypoint on one route, after it on
//!   the other), which may make pure rule-replacement WayUp infeasible
//!   and leave it the two-phase-commit fallback;
//! * [`disjoint_detour`] — new route disjoint from old except at the
//!   endpoints and waypoint (the Figure 1 shape, parameterized);
//! * [`fat_tree_flows`] — a *multi-flow batch* of k-ary fat-tree
//!   re-routes (core and uplink re-routes, some waypointed), the
//!   datacenter-scale throughput workload.
//!
//! [`materialize`] builds a [`Topology`] containing exactly the links
//! both routes need (plus host attachment points), so generated pairs
//! can drive the full controller/switch simulation, not just the
//! abstract scheduler.

use sdn_types::{DetRng, DpId, HostId, SimDuration};

use crate::builders::{DEFAULT_HOST_LATENCY, DEFAULT_LINK_LATENCY};
use crate::graph::Topology;
use crate::route::RoutePath;

/// An update workload: old route, new route, optional waypoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePair {
    /// Current (old) policy.
    pub old: RoutePath,
    /// Target (new) policy.
    pub new: RoutePath,
    /// Waypoint on both routes, if the workload enforces one.
    pub waypoint: Option<DpId>,
}

impl UpdatePair {
    fn plain(old: RoutePath, new: RoutePath) -> Self {
        UpdatePair {
            old,
            new,
            waypoint: None,
        }
    }
}

/// Old ⟨1,…,n⟩, new ⟨1, n−1, n−2, …, 2, n⟩ (n ≥ 3): full reversal of
/// the interior. Strong loop freedom needs Θ(n) rounds here; relaxed
/// loop freedom needs only 3.
pub fn reversal(n: u64) -> UpdatePair {
    assert!(n >= 3, "reversal needs n >= 3");
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let mut ids = vec![1];
    ids.extend((2..n).rev());
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair::plain(old, new)
}

/// Old ⟨1,…,n⟩; new route visits a uniformly shuffled permutation of
/// the interior switches (all of them), keeping endpoints fixed.
pub fn random_permutation(n: u64, rng: &mut DetRng) -> UpdatePair {
    assert!(n >= 3, "permutation needs n >= 3");
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let mut interior: Vec<u64> = (2..n).collect();
    rng.shuffle(&mut interior);
    let mut ids = vec![1];
    ids.extend(interior);
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair::plain(old, new)
}

/// Old ⟨1,…,n⟩; new route keeps each interior switch with probability
/// `keep` in the *old order* (only forward jumps — the easy case every
/// scheduler should finish in few rounds).
pub fn random_subsequence(n: u64, keep: f64, rng: &mut DetRng) -> UpdatePair {
    assert!(n >= 3, "subsequence needs n >= 3");
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let mut ids = vec![1];
    for i in 2..n {
        if rng.chance(keep) {
            ids.push(i);
        }
    }
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair::plain(old, new)
}

/// A waypointed instance on `n ≥ 5` switches.
///
/// Old route: ⟨1,…,n⟩ with waypoint `w = ⌈n/2⌉`. The new route keeps
/// the waypoint and shuffles each side's interior independently, so
/// every shared switch stays on the same side of the waypoint — the
/// *crossing-free* case where a pure rule-replacement WayUp schedule
/// exists (HotNets'14).
///
/// With `crossing = true`, one switch from before the waypoint (old
/// order) is moved after it on the new route, creating a crossing
/// switch; transient waypoint enforcement then may need the tag-based
/// fallback: HotNets'14's ⟨1,2,3,4,5⟩ → ⟨1,4,3,2,5⟩ with waypoint 3
/// does, ⟨1,…,7⟩ → ⟨1,3,4,2,6,5,7⟩ with waypoint 4 does not.
pub fn waypointed(n: u64, crossing: bool, rng: &mut DetRng) -> UpdatePair {
    assert!(n >= 5, "waypointed needs n >= 5");
    let w = n.div_ceil(2);
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");

    let mut before: Vec<u64> = (2..w).collect();
    let mut after: Vec<u64> = (w + 1..n).collect();
    rng.shuffle(&mut before);
    rng.shuffle(&mut after);

    if crossing {
        // Move one pre-waypoint switch to the post-waypoint side.
        let moved = before.pop().unwrap_or_else(|| {
            panic!("need at least one interior switch before the waypoint (n={n})")
        });
        let at = if after.is_empty() {
            0
        } else {
            rng.index(after.len() + 1)
        };
        after.insert(at, moved);
    }

    let mut ids = vec![1];
    ids.extend(before);
    ids.push(w);
    ids.extend(after);
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair {
        old,
        new,
        waypoint: Some(DpId(w)),
    }
}

/// Old ⟨1,…,n⟩; new route interleaves the two halves of the interior:
/// ⟨1, m+1, 2, m+2, 3, …, n⟩ with `m = n/2`. Every second jump is
/// backward with overlapping spans, which defeats the "one deep
/// backward switch per round" shortcut and stresses relaxed-loop-
/// freedom schedulers harder than reversals do.
pub fn comb(n: u64) -> UpdatePair {
    assert!(n >= 6, "comb needs n >= 6");
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let m = (n - 2) / 2; // interior split point
    let lows: Vec<u64> = (2..2 + m).collect();
    let highs: Vec<u64> = (2 + m..n).collect();
    let mut ids = vec![1];
    let mut li = 0;
    let mut hi = 0;
    // interleave high, low, high, low ... to maximize span overlap
    while li < lows.len() || hi < highs.len() {
        if hi < highs.len() {
            ids.push(highs[hi]);
            hi += 1;
        }
        if li < lows.len() {
            ids.push(lows[li]);
            li += 1;
        }
    }
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair::plain(old, new)
}

/// Old ⟨1,…,n⟩; new route rotates the interior left by `k`:
/// ⟨1, 2+k, 3+k, …, n−1, 2, 3, …, 1+k, n⟩. Every switch in the moved
/// suffix jumps backward by n−2−k positions with overlapping spans —
/// a tunable middle ground between the all-backward [`reversal`] and
/// the all-forward [`random_subsequence`], used by the scheduler
/// scaling experiments at n ≥ 256.
pub fn rotation(n: u64, k: u64) -> UpdatePair {
    assert!(n >= 4, "rotation needs n >= 4");
    let interior = n - 2; // switches 2..=n-1
    let k = k % interior;
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let mut ids = vec![1];
    ids.extend(2 + k..n);
    ids.extend(2..2 + k);
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair::plain(old, new)
}

/// A batch of fat-tree-routed flow re-routes: the datacenter-scale
/// multi-flow workload (`exp_rounds_scaling`'s `fat_tree` family).
///
/// Models a `k`-ary fat tree (`k` even, ≥ 4): `(k/2)²` core switches,
/// `k/2` aggregation switches per pod, `k/2` edge switches per pod,
/// `k` pods. Core `(a, j)` (for `j < k/2`) connects to aggregation
/// switch `a` of every pod, so any inter-pod path is
/// ⟨edge, agg `a`, core `(a, j)`, agg `a`, edge⟩ for some uplink `a`
/// and core offset `j`. Dpids: cores first, then aggregations, then
/// edges, each layer numbered contiguously from 1.
///
/// Each generated flow picks two distinct pods and re-routes:
///
/// * **core re-route** (half the flows, ECMP rebalance): the new
///   route keeps both aggregation switches and changes only the core
///   — the interior is *shared*, so the schedulers must order the
///   switch updates transiently safely. One in four of these keeps a
///   waypoint at the source-side aggregation switch (a pod firewall).
/// * **uplink re-route** (the other half): the new route changes the
///   aggregation pair, sharing only the endpoints — the easy,
///   disjoint-detour case.
pub fn fat_tree_flows(k: u64, flows: usize, rng: &mut DetRng) -> Vec<UpdatePair> {
    assert!(k >= 4 && k.is_multiple_of(2), "fat tree needs even k >= 4");
    let half = k / 2;
    let cores = half * half;
    let aggs = k * half;
    let core = |a: u64, j: u64| DpId(1 + a * half + j);
    let agg = |pod: u64, a: u64| DpId(1 + cores + pod * half + a);
    let edge = |pod: u64, e: u64| DpId(1 + cores + aggs + pod * half + e);

    let mut out = Vec::with_capacity(flows);
    for _ in 0..flows {
        let ps = rng.index(k as usize) as u64;
        let mut pd = rng.index((k - 1) as usize) as u64;
        if pd >= ps {
            pd += 1;
        }
        let es = edge(ps, rng.index(half as usize) as u64);
        let ed = edge(pd, rng.index(half as usize) as u64);
        let a1 = rng.index(half as usize) as u64;
        let j1 = rng.index(half as usize) as u64;
        let old = RoutePath::from_raw(&[es.0, agg(ps, a1).0, core(a1, j1).0, agg(pd, a1).0, ed.0])
            .expect("distinct layers");
        if rng.chance(0.5) {
            // Core re-route: same uplink, different core offset.
            let mut j2 = rng.index((half - 1) as usize) as u64;
            if j2 >= j1 {
                j2 += 1;
            }
            let new =
                RoutePath::from_raw(&[es.0, agg(ps, a1).0, core(a1, j2).0, agg(pd, a1).0, ed.0])
                    .expect("distinct layers");
            let waypoint = rng.chance(0.25).then_some(agg(ps, a1));
            out.push(UpdatePair { old, new, waypoint });
        } else {
            // Uplink re-route: different aggregation pair (and core).
            let mut a2 = rng.index((half - 1) as usize) as u64;
            if a2 >= a1 {
                a2 += 1;
            }
            let j2 = rng.index(half as usize) as u64;
            let new =
                RoutePath::from_raw(&[es.0, agg(ps, a2).0, core(a2, j2).0, agg(pd, a2).0, ed.0])
                    .expect("distinct layers");
            out.push(UpdatePair::plain(old, new));
        }
    }
    out
}

/// A parameterized Figure-1 shape: old route ⟨1,…,k,…,n⟩, new route
/// that shares only the source, waypoint `k` and destination, detouring
/// through fresh switches `n+1, n+2, …` elsewhere.
pub fn disjoint_detour(n: u64, waypoint_pos: u64) -> UpdatePair {
    assert!(n >= 3, "detour needs n >= 3");
    assert!(
        waypoint_pos >= 1 && waypoint_pos < n - 1,
        "waypoint must be interior"
    );
    let w = waypoint_pos + 1; // dpid at that old-route position (1-based ids)
    let old = RoutePath::from_raw(&(1..=n).collect::<Vec<_>>()).expect("valid");
    let mut ids = vec![1];
    let mut fresh = n + 1;
    // one detour switch before the waypoint
    ids.push(fresh);
    fresh += 1;
    ids.push(w);
    // detour switches after the waypoint (match old suffix length)
    let suffix = (n - w).max(2) - 1;
    for _ in 0..suffix {
        ids.push(fresh);
        fresh += 1;
    }
    ids.push(n);
    let new = RoutePath::from_raw(&ids).expect("valid");
    UpdatePair {
        old,
        new,
        waypoint: Some(DpId(w)),
    }
}

/// Build a topology containing every switch and link the two routes
/// need, and attach `h1` to the shared source and `h2` to the shared
/// destination. Panics if the routes disagree on endpoints (workloads
/// generated by this module never do).
pub fn materialize(pair: &UpdatePair) -> Topology {
    materialize_with(pair, DEFAULT_LINK_LATENCY)
}

/// Translate every dpid of a pair by `offset` — the standard way to
/// stamp out switch-disjoint copies of one workload for concurrent
/// multi-update experiments (`shift(reversal(8), 10*i)` gives flow `i`
/// its own dpid range).
pub fn shift(pair: &UpdatePair, offset: u64) -> UpdatePair {
    let mv = |r: &RoutePath| {
        RoutePath::from_raw(&r.raw().iter().map(|d| d + offset).collect::<Vec<_>>())
            .expect("translation preserves validity")
    };
    UpdatePair {
        old: mv(&pair.old),
        new: mv(&pair.new),
        waypoint: pair.waypoint.map(|w| DpId(w.0 + offset)),
    }
}

/// Build one topology covering a whole *batch* of update pairs — the
/// multi-flow worlds the concurrent runtime executes against. Switches
/// and links are deduplicated across flows; flow `i` (0-based) gets
/// source host `2i+1` attached at its shared source switch and
/// destination host `2i+2` at its shared destination switch, so every
/// flow's FlowMods match a distinct destination host even where routes
/// share switches.
pub fn materialize_batch(pairs: &[UpdatePair]) -> Topology {
    let mut t = Topology::new();
    for pair in pairs {
        assert_eq!(pair.old.src(), pair.new.src(), "routes must share source");
        assert_eq!(
            pair.old.dst(),
            pair.new.dst(),
            "routes must share destination"
        );
        for &dp in pair.old.hops().iter().chain(pair.new.hops()) {
            if !t.has_switch(dp) {
                t.add_switch(dp).expect("deduplicated");
            }
        }
        for (a, b) in pair.old.edges().chain(pair.new.edges()) {
            if !t.adjacent(a, b) {
                t.add_link(a, b, DEFAULT_LINK_LATENCY).expect("valid link");
            }
        }
    }
    for (i, pair) in pairs.iter().enumerate() {
        let i = i as u32;
        t.attach_host(HostId(2 * i + 1), pair.old.src(), DEFAULT_HOST_LATENCY)
            .expect("src exists");
        t.attach_host(HostId(2 * i + 2), pair.old.dst(), DEFAULT_HOST_LATENCY)
            .expect("dst exists");
    }
    t
}

/// The host pair [`materialize_batch`] attaches for flow `i`.
pub fn batch_hosts(i: usize) -> (HostId, HostId) {
    let i = i as u32;
    (HostId(2 * i + 1), HostId(2 * i + 2))
}

/// [`materialize`] with an explicit link latency.
pub fn materialize_with(pair: &UpdatePair, latency: SimDuration) -> Topology {
    assert_eq!(pair.old.src(), pair.new.src(), "routes must share source");
    assert_eq!(
        pair.old.dst(),
        pair.new.dst(),
        "routes must share destination"
    );
    let mut t = Topology::new();
    for &dp in pair.old.hops().iter().chain(pair.new.hops()) {
        if !t.has_switch(dp) {
            t.add_switch(dp).expect("deduplicated");
        }
    }
    for (a, b) in pair.old.edges().chain(pair.new.edges()) {
        if !t.adjacent(a, b) {
            t.add_link(a, b, latency).expect("valid link");
        }
    }
    t.attach_host(HostId(1), pair.old.src(), DEFAULT_HOST_LATENCY)
        .expect("src exists");
    t.attach_host(HostId(2), pair.old.dst(), DEFAULT_HOST_LATENCY)
        .expect("dst exists");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xfeed)
    }

    #[test]
    fn reversal_shape() {
        let p = reversal(5);
        assert_eq!(p.old.raw(), vec![1, 2, 3, 4, 5]);
        assert_eq!(p.new.raw(), vec![1, 4, 3, 2, 5]);
        assert_eq!(p.waypoint, None);
    }

    #[test]
    fn reversal_minimum() {
        let p = reversal(3);
        assert_eq!(p.new.raw(), vec![1, 2, 3]); // single interior: unchanged
    }

    #[test]
    fn permutation_is_permutation() {
        let mut r = rng();
        let p = random_permutation(10, &mut r);
        let mut interior: Vec<u64> = p.new.raw()[1..9].to_vec();
        interior.sort_unstable();
        assert_eq!(interior, (2..10).collect::<Vec<_>>());
        assert_eq!(p.new.src(), DpId(1));
        assert_eq!(p.new.dst(), DpId(10));
    }

    #[test]
    fn subsequence_preserves_order() {
        let mut r = rng();
        for _ in 0..20 {
            let p = random_subsequence(12, 0.5, &mut r);
            let raw = p.new.raw();
            let mut sorted = raw.clone();
            sorted.sort_unstable();
            assert_eq!(raw, sorted, "subsequence must be increasing");
        }
    }

    #[test]
    fn subsequence_extreme_probabilities() {
        let mut r = rng();
        let all = random_subsequence(8, 1.0, &mut r);
        assert_eq!(all.new, all.old);
        let none = random_subsequence(8, 0.0, &mut r);
        assert_eq!(none.new.raw(), vec![1, 8]);
    }

    #[test]
    fn waypointed_crossing_free_sides_consistent() {
        let mut r = rng();
        for n in [5u64, 8, 13] {
            let p = waypointed(n, false, &mut r);
            let w = p.waypoint.unwrap();
            let wo = p.old.position(w).unwrap();
            let wn = p.new.position(w).unwrap();
            for &dp in p.new.hops() {
                if dp == w {
                    continue;
                }
                if let (Some(po), Some(pn)) = (p.old.position(dp), p.new.position(dp)) {
                    assert_eq!(po < wo, pn < wn, "switch {dp} crossed the waypoint (n={n})");
                }
            }
        }
    }

    #[test]
    fn waypointed_crossing_creates_a_crossing() {
        let mut r = rng();
        let p = waypointed(9, true, &mut r);
        let w = p.waypoint.unwrap();
        let wo = p.old.position(w).unwrap();
        let wn = p.new.position(w).unwrap();
        let crossings = p
            .new
            .hops()
            .iter()
            .filter(|&&dp| {
                dp != w
                    && p.old.position(dp).is_some_and(|po| {
                        let pn = p.new.position(dp).unwrap();
                        (po < wo) != (pn < wn)
                    })
            })
            .count();
        assert!(crossings >= 1);
    }

    #[test]
    fn disjoint_detour_shares_only_endpoints_and_waypoint() {
        let p = disjoint_detour(7, 2);
        let w = p.waypoint.unwrap();
        assert_eq!(w, DpId(3));
        let shared: Vec<u64> = p
            .new
            .raw()
            .into_iter()
            .filter(|&x| p.old.contains(DpId(x)))
            .collect();
        assert_eq!(shared, vec![1, 3, 7]);
    }

    #[test]
    fn materialize_covers_both_routes() {
        let mut r = rng();
        let p = waypointed(9, true, &mut r);
        let t = materialize(&p);
        p.old.validate_on(&t).unwrap();
        p.new.validate_on(&t).unwrap();
        assert!(t.host(HostId(1)).is_some());
        assert!(t.host(HostId(2)).is_some());
        assert_eq!(t.host(HostId(1)).unwrap().attached_to, p.old.src());
    }

    #[test]
    fn materialize_figure1_like_detour() {
        let p = disjoint_detour(12, 2);
        let t = materialize(&p);
        p.old.validate_on(&t).unwrap();
        p.new.validate_on(&t).unwrap();
    }

    #[test]
    fn rotation_shape() {
        let p = rotation(8, 3);
        assert_eq!(p.old.raw(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(p.new.raw(), vec![1, 5, 6, 7, 2, 3, 4, 8]);
    }

    #[test]
    fn rotation_visits_every_switch_once() {
        for n in [4u64, 9, 33, 257] {
            for k in [0u64, 1, 5, n] {
                let p = rotation(n, k);
                let mut ids = p.new.raw();
                ids.sort_unstable();
                assert_eq!(ids, (1..=n).collect::<Vec<_>>(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn rotation_zero_is_identity() {
        let p = rotation(6, 0);
        assert_eq!(p.new, p.old);
    }

    #[test]
    fn comb_interleaves_halves() {
        let p = comb(8);
        assert_eq!(p.old.raw(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // interior 2..=7, m=3: lows [2,3,4], highs [5,6,7]
        assert_eq!(p.new.raw(), vec![1, 5, 2, 6, 3, 7, 4, 8]);
    }

    #[test]
    fn comb_visits_every_switch_once() {
        for n in [6u64, 9, 16, 33] {
            let p = comb(n);
            let mut ids = p.new.raw();
            ids.sort_unstable();
            assert_eq!(ids, (1..=n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        assert_eq!(random_permutation(9, &mut a), random_permutation(9, &mut b));
        assert_eq!(waypointed(9, true, &mut a), waypointed(9, true, &mut b));
        assert_eq!(fat_tree_flows(8, 20, &mut a), fat_tree_flows(8, 20, &mut b));
    }

    #[test]
    fn fat_tree_flows_are_valid_inter_pod_paths() {
        let mut r = rng();
        for k in [4u64, 8, 16] {
            let half = k / 2;
            let cores = half * half;
            let aggs = k * half;
            let layer = |dp: DpId| -> u8 {
                if dp.0 <= cores {
                    0 // core
                } else if dp.0 <= cores + aggs {
                    1 // aggregation
                } else {
                    2 // edge
                }
            };
            for (i, p) in fat_tree_flows(k, 40, &mut r).into_iter().enumerate() {
                for route in [&p.old, &p.new] {
                    let layers: Vec<u8> = route.hops().iter().map(|&d| layer(d)).collect();
                    assert_eq!(layers, vec![2, 1, 0, 1, 2], "k={k} flow {i}: {route}");
                }
                assert_eq!(p.old.src(), p.new.src(), "k={k} flow {i}");
                assert_eq!(p.old.dst(), p.new.dst(), "k={k} flow {i}");
                assert_ne!(p.old, p.new, "k={k} flow {i}: re-route must change");
                // Endpoints live in different pods.
                let pod_of_edge = |dp: DpId| (dp.0 - 1 - cores - aggs) / half;
                assert_ne!(
                    pod_of_edge(p.old.src()),
                    pod_of_edge(p.old.dst()),
                    "k={k} flow {i}"
                );
                if let Some(w) = p.waypoint {
                    assert!(p.old.contains(w) && p.new.contains(w), "k={k} flow {i}");
                    assert_eq!(layer(w), 1, "waypoint is an aggregation switch");
                }
            }
        }
    }

    #[test]
    fn fat_tree_flows_mix_shared_and_disjoint_interiors() {
        let mut r = rng();
        let flows = fat_tree_flows(8, 100, &mut r);
        let shared_interior = |p: &UpdatePair| {
            p.new
                .hops()
                .iter()
                .skip(1)
                .take(3)
                .any(|&d| p.old.contains(d))
        };
        let shared = flows.iter().filter(|p| shared_interior(p)).count();
        // Both re-route styles must be well represented.
        assert!(shared >= 20, "core re-routes too rare: {shared}/100");
        assert!(shared <= 80, "uplink re-routes too rare: {shared}/100");
    }

    #[test]
    fn shift_translates_every_switch_and_the_waypoint() {
        let mut r = rng();
        let p = waypointed(7, false, &mut r);
        let s = shift(&p, 100);
        assert_eq!(
            s.old.raw(),
            p.old.raw().iter().map(|d| d + 100).collect::<Vec<_>>()
        );
        assert_eq!(s.waypoint, p.waypoint.map(|w| DpId(w.0 + 100)));
        // disjoint from the original
        assert!(s.new.hops().iter().all(|d| !p.old.contains(*d)));
    }

    #[test]
    fn materialize_batch_covers_every_flow_with_distinct_hosts() {
        let mut r = rng();
        let pairs = fat_tree_flows(4, 6, &mut r);
        let t = materialize_batch(&pairs);
        for (i, p) in pairs.iter().enumerate() {
            p.old.validate_on(&t).unwrap();
            p.new.validate_on(&t).unwrap();
            let (src, dst) = batch_hosts(i);
            assert_eq!(t.host(src).unwrap().attached_to, p.old.src());
            assert_eq!(t.host(dst).unwrap().attached_to, p.old.dst());
        }
    }

    #[test]
    fn fat_tree_flows_materialize() {
        let mut r = rng();
        for p in fat_tree_flows(4, 10, &mut r) {
            let t = materialize(&p);
            p.old.validate_on(&t).unwrap();
            p.new.validate_on(&t).unwrap();
        }
    }
}
