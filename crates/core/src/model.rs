//! The two-path update model.
//!
//! Following Ludwig et al. (HotNets'14, PODC'15, SIGMETRICS'16), a
//! policy update is a pair of simple routes with common endpoints —
//! the **old** route currently installed and the **new** route to
//! migrate to — plus an optional **waypoint** (firewall/IDS) that must
//! lie on both routes and must never be bypassed, even transiently.
//!
//! Every switch on the old route stores an *old rule* (its successor on
//! the old route); every switch on the new route has a *new rule* (its
//! successor on the new route). "Updating" a switch replaces old by new
//! atomically at that switch; the scheduling problem is the order in
//! which switches may be updated.

use std::fmt;

use sdn_topo::route::RoutePath;
use sdn_types::DpId;

/// Errors from instance construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// Old and new routes must share their source switch.
    SourceMismatch(DpId, DpId),
    /// Old and new routes must share their destination switch.
    DestMismatch(DpId, DpId),
    /// The waypoint must lie on the old route.
    WaypointNotOnOld(DpId),
    /// The waypoint must lie on the new route.
    WaypointNotOnNew(DpId),
    /// The waypoint must be an interior switch (not source/destination);
    /// a waypoint at an endpoint is enforced trivially and rejected to
    /// keep the schedulers' preconditions crisp.
    WaypointAtEndpoint(DpId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::SourceMismatch(a, b) => {
                write!(f, "old route starts at {a} but new route starts at {b}")
            }
            InstanceError::DestMismatch(a, b) => {
                write!(f, "old route ends at {a} but new route ends at {b}")
            }
            InstanceError::WaypointNotOnOld(w) => write!(f, "waypoint {w} not on old route"),
            InstanceError::WaypointNotOnNew(w) => write!(f, "waypoint {w} not on new route"),
            InstanceError::WaypointAtEndpoint(w) => {
                write!(f, "waypoint {w} must be an interior switch")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// How a switch participates in the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// On both routes: holds an old rule now and swaps to a new rule.
    Shared,
    /// Only on the old route: keeps its old rule until the final
    /// cleanup round removes it.
    OldOnly,
    /// Only on the new route: has no rule yet; the update installs one.
    NewOnly,
}

/// A validated two-path update instance.
///
/// The instance owns the crate's one dense switch index: its
/// participants, sorted once, are numbered by position, and every
/// per-switch fact — role, successor and position on either route — is
/// a table indexed by that number, so a lookup is O(1) (a binary search
/// when the ids are sparse). At n = 1024 switches the greedy schedulers
/// issue millions of these queries per schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateInstance {
    old: RoutePath,
    new: RoutePath,
    waypoint: Option<DpId>,
    /// The participants in dpid order; a switch's dense index is its
    /// position here.
    ids: Vec<DpId>,
    /// `dpid − min` → dense index when the ids are compact (generated
    /// workloads use 1..=n); empty means binary search over `ids`.
    lookup: Vec<u32>,
    min: u64,
    /// Per dense index: positions and successors on both routes.
    slots: Vec<Slot>,
}

/// "Not on this route" / "no successor" in a [`Slot`].
const NONE: u32 = u32::MAX;
/// Route indices into a [`Slot`]'s pairs.
const OLD: usize = 0;
const NEW: usize = 1;

/// One participant's place on the two routes: its position on each
/// and the dense index of its successor there (`NONE` where absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pos: [u32; 2],
    next: [u32; 2],
}

impl Slot {
    fn role(&self) -> NodeRole {
        match (self.pos[OLD] != NONE, self.pos[NEW] != NONE) {
            (true, true) => NodeRole::Shared,
            (true, false) => NodeRole::OldOnly,
            _ => NodeRole::NewOnly,
        }
    }
}

fn present(x: u32) -> Option<usize> {
    (x != NONE).then_some(x as usize)
}

impl UpdateInstance {
    /// Validate and build an instance.
    pub fn new(
        old: RoutePath,
        new: RoutePath,
        waypoint: Option<DpId>,
    ) -> Result<Self, InstanceError> {
        if old.src() != new.src() {
            return Err(InstanceError::SourceMismatch(old.src(), new.src()));
        }
        if old.dst() != new.dst() {
            return Err(InstanceError::DestMismatch(old.dst(), new.dst()));
        }
        if let Some(w) = waypoint {
            if !old.contains(w) {
                return Err(InstanceError::WaypointNotOnOld(w));
            }
            if !new.contains(w) {
                return Err(InstanceError::WaypointNotOnNew(w));
            }
            if w == old.src() || w == old.dst() {
                return Err(InstanceError::WaypointAtEndpoint(w));
            }
        }
        let mut ids: Vec<DpId> = old.hops().iter().chain(new.hops()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        let min = ids.first().map_or(0, |v| v.0);
        // Dpids arrive from requests: the span of two of them can
        // exceed `usize` (0 and u64::MAX are both valid), in which
        // case — as for any sparse id set — binary search answers.
        let span = ids
            .last()
            .and_then(|max| (max.0 - min).checked_add(1))
            .and_then(|span| usize::try_from(span).ok())
            .filter(|&span| span <= ids.len().saturating_mul(8));
        let mut lookup = Vec::new();
        if let Some(span) = span {
            lookup = vec![NONE; span];
            for (i, v) in ids.iter().enumerate() {
                lookup[(v.0 - min) as usize] = i as u32;
            }
        }
        let mut inst = UpdateInstance {
            old,
            new,
            waypoint,
            ids,
            lookup,
            min,
            slots: Vec::new(),
        };
        let mut slots = vec![
            Slot {
                pos: [NONE; 2],
                next: [NONE; 2],
            };
            inst.ids.len()
        ];
        for (r, route) in [&inst.old, &inst.new].into_iter().enumerate() {
            let mut prev: Option<usize> = None;
            for (p, &v) in route.hops().iter().enumerate() {
                let i = inst.index(v).expect("every hop is a participant");
                slots[i].pos[r] = p as u32;
                if let Some(q) = prev {
                    slots[q].next[r] = i as u32;
                }
                prev = Some(i);
            }
        }
        inst.slots = slots;
        Ok(inst)
    }

    /// The old (currently installed) route.
    pub fn old(&self) -> &RoutePath {
        &self.old
    }

    /// The new (target) route.
    pub fn new_route(&self) -> &RoutePath {
        &self.new
    }

    /// The waypoint, if the update must enforce one.
    pub fn waypoint(&self) -> Option<DpId> {
        self.waypoint
    }

    /// Common source switch.
    pub fn src(&self) -> DpId {
        self.old.src()
    }

    /// Common destination switch.
    pub fn dst(&self) -> DpId {
        self.old.dst()
    }

    /// The dense index of a participating switch: its position in
    /// [`participants`](Self::participants). O(1) through the compact
    /// table, O(log n) by binary search when the ids are sparse.
    pub(crate) fn index(&self, v: DpId) -> Option<usize> {
        if self.lookup.is_empty() {
            return self.ids.binary_search(&v).ok();
        }
        let off = usize::try_from(v.0.checked_sub(self.min)?).ok()?;
        self.lookup.get(off).copied().and_then(present)
    }

    /// Dense index of the switch's old-route successor.
    pub(crate) fn old_next_at(&self, i: usize) -> Option<usize> {
        present(self.slots[i].next[OLD])
    }

    /// Dense index of the switch's new-route successor.
    pub(crate) fn new_next_at(&self, i: usize) -> Option<usize> {
        present(self.slots[i].next[NEW])
    }

    /// Role of a switch in this update, if it participates.
    pub fn role(&self, v: DpId) -> Option<NodeRole> {
        self.index(v).map(|i| self.slots[i].role())
    }

    /// All switches participating in the update, in dpid order.
    pub fn nodes(&self) -> impl Iterator<Item = (DpId, NodeRole)> + '_ {
        self.ids
            .iter()
            .zip(&self.slots)
            .map(|(&v, s)| (v, s.role()))
    }

    /// Number of participating switches.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// All participating switches as a sorted slice; a switch's
    /// position here is its dense index.
    pub fn participants(&self) -> &[DpId] {
        &self.ids
    }

    /// Switches with the given role, in dpid order.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<DpId> {
        self.nodes()
            .filter(|&(_, r)| r == role)
            .map(|(v, _)| v)
            .collect()
    }

    /// The switch's successor under the old policy (its old rule).
    /// `None` for the destination and for new-only switches.
    pub fn old_next(&self, v: DpId) -> Option<DpId> {
        self.old_next_at(self.index(v)?).map(|t| self.ids[t])
    }

    /// The switch's successor under the new policy (its new rule).
    /// `None` for the destination and for old-only switches.
    pub fn new_next(&self, v: DpId) -> Option<DpId> {
        self.new_next_at(self.index(v)?).map(|t| self.ids[t])
    }

    /// Position of a switch on the old route (a table lookup).
    pub fn old_position(&self, v: DpId) -> Option<usize> {
        present(self.slots[self.index(v)?].pos[OLD])
    }

    /// Position of a switch on the new route (a table lookup).
    pub fn new_position(&self, v: DpId) -> Option<usize> {
        present(self.slots[self.index(v)?].pos[NEW])
    }

    /// Whether the switch's new rule jumps **forward** with respect to
    /// old-route order (both the switch and its new successor are on
    /// the old route and the successor lies strictly ahead). Forward
    /// rules can never close a loop with old rules alone.
    pub fn is_forward(&self, v: DpId) -> bool {
        match (
            self.old_position(v),
            self.new_next(v).and_then(|t| self.old_position(t)),
        ) {
            (Some(pv), Some(pt)) => pt > pv,
            _ => false,
        }
    }

    /// Shared switches that lie on *opposite sides of the waypoint* on
    /// the two routes ("crossing" switches). If any exist, a pure
    /// rule-replacement schedule preserving waypoint enforcement may
    /// not exist (HotNets'14), and WayUp falls back to two-phase
    /// commit. Empty when no waypoint is set.
    pub fn crossing_nodes(&self) -> Vec<DpId> {
        let Some(w) = self.waypoint else {
            return Vec::new();
        };
        let wo = self.old_position(w).expect("validated");
        let wn = self.new_position(w).expect("validated");
        self.nodes()
            .filter(|&(v, r)| {
                r == NodeRole::Shared && v != w && {
                    let po = self.old_position(v).expect("shared");
                    let pn = self.new_position(v).expect("shared");
                    (po < wo) != (pn < wn)
                }
            })
            .map(|(v, _)| v)
            .collect()
    }

    /// Whether the update is a no-op (identical routes).
    pub fn is_trivial(&self) -> bool {
        self.old == self.new
    }
}

impl fmt::Display for UpdateInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "old {} -> new {}", self.old, self.new)?;
        if let Some(w) = self.waypoint {
            write!(f, " via waypoint {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigState;
    use crate::schedule::RuleOp;
    use proptest::prelude::*;
    use sdn_types::DetRng;

    fn path(ids: &[u64]) -> RoutePath {
        RoutePath::from_raw(ids).unwrap()
    }

    fn inst(old: &[u64], new: &[u64], wp: Option<u64>) -> UpdateInstance {
        UpdateInstance::new(path(old), path(new), wp.map(DpId)).unwrap()
    }

    #[test]
    fn roles_classified() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        assert_eq!(i.role(DpId(1)), Some(NodeRole::Shared));
        assert_eq!(i.role(DpId(2)), Some(NodeRole::OldOnly));
        assert_eq!(i.role(DpId(5)), Some(NodeRole::NewOnly));
        assert_eq!(i.role(DpId(3)), Some(NodeRole::Shared));
        assert_eq!(i.role(DpId(4)), Some(NodeRole::Shared));
        assert_eq!(i.role(DpId(9)), None);
        assert_eq!(i.node_count(), 5);
    }

    #[test]
    fn participants_sorted_and_complete() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        assert_eq!(
            i.participants(),
            &[DpId(1), DpId(2), DpId(3), DpId(4), DpId(5)]
        );
        let from_nodes: Vec<DpId> = i.nodes().map(|(v, _)| v).collect();
        assert_eq!(i.participants(), from_nodes.as_slice());
    }

    #[test]
    fn nodes_with_role_sorted() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        assert_eq!(
            i.nodes_with_role(NodeRole::Shared),
            vec![DpId(1), DpId(3), DpId(4)]
        );
        assert_eq!(i.nodes_with_role(NodeRole::OldOnly), vec![DpId(2)]);
        assert_eq!(i.nodes_with_role(NodeRole::NewOnly), vec![DpId(5)]);
    }

    #[test]
    fn old_and_new_rules() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        assert_eq!(i.old_next(DpId(2)), Some(DpId(3)));
        assert_eq!(i.new_next(DpId(2)), Some(DpId(4)));
        assert_eq!(i.old_next(DpId(4)), None);
        assert_eq!(i.new_next(DpId(4)), None);
        assert_eq!(i.old_next(DpId(9)), None);
    }

    #[test]
    fn precomputed_positions_match_route_scans() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        for v in 1u64..=6 {
            let v = DpId(v);
            assert_eq!(i.old_position(v), i.old().position(v));
            assert_eq!(i.new_position(v), i.new_route().position(v));
            assert_eq!(i.old_next(v), i.old().next_hop(v));
            assert_eq!(i.new_next(v), i.new_route().next_hop(v));
        }
    }

    #[test]
    fn endpoint_mismatch_rejected() {
        assert!(matches!(
            UpdateInstance::new(path(&[1, 2, 3]), path(&[2, 3]), None),
            Err(InstanceError::SourceMismatch(..))
        ));
        assert!(matches!(
            UpdateInstance::new(path(&[1, 2, 3]), path(&[1, 2]), None),
            Err(InstanceError::DestMismatch(..))
        ));
    }

    #[test]
    fn waypoint_validation() {
        assert!(matches!(
            UpdateInstance::new(path(&[1, 2, 3]), path(&[1, 4, 3]), Some(DpId(2))),
            Err(InstanceError::WaypointNotOnNew(..))
        ));
        assert!(matches!(
            UpdateInstance::new(path(&[1, 2, 3]), path(&[1, 4, 3]), Some(DpId(4))),
            Err(InstanceError::WaypointNotOnOld(..))
        ));
        assert!(matches!(
            UpdateInstance::new(path(&[1, 2, 3]), path(&[1, 2, 3]), Some(DpId(1))),
            Err(InstanceError::WaypointAtEndpoint(..))
        ));
        assert!(UpdateInstance::new(path(&[1, 2, 3]), path(&[1, 2, 3]), Some(DpId(2))).is_ok());
    }

    #[test]
    fn forward_detection() {
        // old 1-2-3-4-5; new 1-4-2-5: 1's new rule jumps fwd to 4;
        // 4's new rule jumps back to 2; 2's new rule jumps fwd to 5.
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 2, 5], None);
        assert!(i.is_forward(DpId(1)));
        assert!(!i.is_forward(DpId(4)));
        assert!(i.is_forward(DpId(2)));
        // destination has no rule
        assert!(!i.is_forward(DpId(5)));
        // old-only has no new rule
        assert!(!i.is_forward(DpId(3)));
    }

    #[test]
    fn crossing_nodes_detected() {
        // old 1-2-3-4-5 with waypoint 3; new 1-4-3-2-5.
        // Switch 4: before w on new, after w on old -> crossing.
        // Switch 2: before w on old, after w on new -> crossing.
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], Some(3));
        assert_eq!(i.crossing_nodes(), vec![DpId(2), DpId(4)]);
    }

    #[test]
    fn crossing_free_instance() {
        // old 1-2-3-4-5 wp 3; new 1-2-3-4-5 trivially, and a detour
        // new 1-6-3-7-5 (6,7 new-only; shared 1,3,5 consistent sides).
        let i = inst(&[1, 2, 3, 4, 5], &[1, 6, 3, 7, 5], Some(3));
        assert!(i.crossing_nodes().is_empty());
        assert!(!i.is_trivial());
    }

    #[test]
    fn no_waypoint_no_crossings() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        assert!(i.crossing_nodes().is_empty());
    }

    #[test]
    fn trivial_instance() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], None);
        assert!(i.is_trivial());
    }

    #[test]
    fn display_mentions_waypoint() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], Some(2));
        assert!(i.to_string().contains("waypoint s2"));
    }

    #[test]
    fn dense_sparse_and_extreme_ids_index_alike() {
        // Sparse dpids force the binary-search fallback; dense ones use
        // the direct table. Both must answer identically.
        let dense = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        let sparse = inst(
            &[1, 1000, 2_000_000, 3_000_000_000],
            &[1, 3_000_000_000],
            None,
        );
        // A span that does not fit `usize` (both ids are valid u64
        // dpids) must fall back too, not wrap to an empty table.
        let extreme = inst(&[0, 7, u64::MAX], &[0, u64::MAX], None);
        assert!(!dense.lookup.is_empty());
        assert!(sparse.lookup.is_empty() && extreme.lookup.is_empty());
        for i in [&dense, &sparse, &extreme] {
            for (k, &v) in i.participants().iter().enumerate() {
                assert_eq!(i.index(v), Some(k), "{i} {v}");
            }
            assert_eq!(i.index(DpId(999_999_999_999)), None);
            assert_eq!(i.index(DpId(6)), None);
        }
    }

    /// A random route pair over `p` distinct ids drawn from one of
    /// three regimes — compact (the lookup table), spread wider than
    /// 8 × p (binary search), or holding both 0 and `u64::MAX` — every
    /// id on at least one route, with a shared waypoint now and then.
    fn random_pair(rng: &mut DetRng, p: usize, regime: u8) -> (Vec<u64>, Vec<u64>, Option<u64>) {
        let base = rng.range_u64(0, 1 << 40);
        let mut ids: Vec<u64> = match regime {
            0 => (0..p as u64).map(|k| base + k).collect(),
            1 => (0..p as u64).map(|k| base + k * 1000).collect(),
            _ => [0, u64::MAX]
                .into_iter()
                .chain((2..p as u64).map(|k| base + k * 7))
                .collect(),
        };
        rng.shuffle(&mut ids);
        let (mut old, mut new, mut both) = (Vec::new(), Vec::new(), Vec::new());
        for &v in &ids[2..] {
            match rng.index(3) {
                0 => old.push(v),
                1 => new.push(v),
                _ => {
                    old.push(v);
                    new.push(v);
                    both.push(v);
                }
            }
        }
        rng.shuffle(&mut new);
        let route = |mid: Vec<u64>| [vec![ids[0]], mid, vec![ids[1]]].concat();
        let wp = if rng.chance(0.3) {
            rng.choose(&both).copied()
        } else {
            None
        };
        (route(old), route(new), wp)
    }

    /// The walk of the ordered-set configuration the flag bytes
    /// replaced.
    fn reference_walk(
        i: &UpdateInstance,
        sets: &[std::collections::BTreeSet<DpId>; 3],
        flipped: bool,
    ) -> Vec<DpId> {
        let [activated, removed, tagged] = sets;
        let untagged = |v: DpId| {
            if activated.contains(&v) {
                i.new_next(v)
            } else if removed.contains(&v) {
                None
            } else {
                i.old_next(v)
            }
        };
        let mut visited = vec![i.src()];
        let mut next = if flipped {
            i.new_next(i.src())
        } else {
            untagged(i.src())
        };
        while let Some(v) = next {
            visited.push(v);
            if v == i.dst() || visited[..visited.len() - 1].contains(&v) {
                break;
            }
            next = if flipped && tagged.contains(&v) {
                i.new_next(v)
            } else {
                untagged(v)
            };
        }
        visited
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every accessor of the dense instance, and every answer of a
        /// configuration over it, equals an ordered-map reference built
        /// straight from the routes — participants or not.
        #[test]
        fn dense_model_matches_ordered_map_reference(
            seed in 0u64..1_000_000,
            p in 3usize..40,
            regime in 0u8..3,
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let mut rng = DetRng::new(seed);
            let (old, new, wp) = random_pair(&mut rng, p, regime);
            let i = inst(&old, &new, wp);
            prop_assert_eq!(i.lookup.is_empty(), regime != 0);

            let mut roles = BTreeMap::new();
            for &v in &old {
                roles.insert(DpId(v), NodeRole::OldOnly);
            }
            for &v in &new {
                let r = roles.entry(DpId(v)).or_insert(NodeRole::NewOnly);
                if *r == NodeRole::OldOnly {
                    *r = NodeRole::Shared;
                }
            }
            let next = |route: &[u64], v: DpId| {
                let at = route.iter().position(|&x| x == v.0)?;
                route.get(at + 1).map(|&t| DpId(t))
            };
            let pos = |route: &[u64], v: DpId| route.iter().position(|&x| x == v.0);
            let nodes: Vec<(DpId, NodeRole)> = i.nodes().collect();
            let expected: Vec<(DpId, NodeRole)> = roles.iter().map(|(&v, &r)| (v, r)).collect();
            prop_assert_eq!(nodes, expected);
            prop_assert_eq!(i.node_count(), roles.len());

            // every participant, its neighbours in id space and the
            // extremes of it
            let mut probes: Vec<DpId> = roles.keys().copied().collect();
            for &DpId(v) in roles.keys() {
                probes.extend([v.wrapping_sub(1), v.wrapping_add(1)].map(DpId));
            }
            probes.extend([0, 1, u64::MAX, u64::MAX - 1, rng.range_u64(0, u64::MAX)].map(DpId));
            for &v in &probes {
                prop_assert_eq!(i.role(v), roles.get(&v).copied(), "{} {}", i, v);
                prop_assert_eq!(i.index(v).map(|k| i.participants()[k]), roles.contains_key(&v).then_some(v));
                prop_assert_eq!(i.old_next(v), next(&old, v));
                prop_assert_eq!(i.new_next(v), next(&new, v));
                prop_assert_eq!(i.old_position(v), pos(&old, v));
                prop_assert_eq!(i.new_position(v), pos(&new, v));
            }

            // random ops, foreign switches included, against three
            // ordered sets holding only participants
            let mut c = ConfigState::initial(&i);
            let mut sets: [BTreeSet<DpId>; 3] = Default::default();
            let mut flipped = false;
            for _ in 0..rng.index(3 * p) {
                let v = probes[rng.index(probes.len())];
                let op = match rng.index(7) {
                    0..=2 => RuleOp::Activate(v),
                    3 => RuleOp::RemoveOld(v),
                    4 | 5 => RuleOp::InstallTagged(v),
                    _ => RuleOp::FlipIngress,
                };
                c.apply(&op);
                match op.flag() {
                    Some(_) if !roles.contains_key(&v) => {}
                    Some((_, bit)) => {
                        sets[bit.trailing_zeros() as usize].insert(v);
                    }
                    None => flipped = true,
                }
            }
            for &v in &probes {
                prop_assert_eq!(c.is_activated(v), sets[0].contains(&v));
                prop_assert_eq!(c.is_old_removed(v), sets[1].contains(&v));
                prop_assert_eq!(c.is_tagged_installed(v), sets[2].contains(&v));
            }
            prop_assert_eq!(c.is_flipped(), flipped);
            prop_assert_eq!(c.walk().visited, reference_walk(&i, &sets, flipped), "{}", i);
        }
    }
}
