//! Transient configuration semantics.
//!
//! A [`ConfigState`] captures which [`RuleOp`]s have taken effect on
//! the data plane and answers the only question that matters for
//! transient consistency: *where does a packet entering at the source
//! go?* The walk semantics cover both schedule kinds:
//!
//! * **Replacement**: a switch forwards per its new rule once
//!   activated, else per its old rule (if it still has one).
//! * **Tagged** (two-phase commit): the ingress stamps packets with a
//!   version tag once flipped. A NEW-tagged packet matches a switch's
//!   tagged rule when installed, falling back to the untagged rule
//!   otherwise (tagged rules have higher priority, as in Reitblatt et
//!   al.). Untagged packets use untagged rules only.

use std::fmt;

use sdn_types::{DpId, VersionTag};

use crate::model::UpdateInstance;
use crate::schedule::RuleOp;

/// Result of walking a packet from the source under a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The packet reached the destination.
    Delivered {
        /// Whether it traversed the waypoint (always `true` when the
        /// instance has no waypoint).
        via_waypoint: bool,
    },
    /// The packet revisited a switch: a forwarding loop.
    Looped {
        /// The first switch visited twice.
        at: DpId,
    },
    /// The packet reached a switch with no matching rule.
    Blackhole {
        /// The ruleless switch.
        at: DpId,
    },
}

impl WalkOutcome {
    /// Whether the packet was delivered (regardless of waypoint).
    pub fn delivered(&self) -> bool {
        matches!(self, WalkOutcome::Delivered { .. })
    }
}

/// A packet walk: the visited switches and the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Switches in visit order, starting at the source.
    pub visited: Vec<DpId>,
    /// How the walk ended.
    pub outcome: WalkOutcome,
}

impl fmt::Display for Walk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.visited.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{v}")?;
        }
        match &self.outcome {
            WalkOutcome::Delivered { via_waypoint } => {
                write!(
                    f,
                    " [delivered{}]",
                    if *via_waypoint {
                        ", via wp"
                    } else {
                        ", BYPASSED WP"
                    }
                )
            }
            WalkOutcome::Looped { at } => write!(f, " [LOOP at {at}]"),
            WalkOutcome::Blackhole { at } => write!(f, " [BLACKHOLE at {at}]"),
        }
    }
}

/// Flag bits of one switch's rule state in a [`ConfigState`]; a
/// [`RuleOp`] other than the ingress flip sets exactly one of them.
pub(crate) const ACTIVATED: u8 = 1;
pub(crate) const OLD_REMOVED: u8 = 2;
pub(crate) const TAGGED: u8 = 4;

/// Where switch `i` (a dense index of `inst`) forwards a packet of
/// class `tag` when its rule state is `flags`: a NEW-tagged packet
/// matches an installed tagged rule first; otherwise the new rule once
/// activated, else the old rule unless removed. The destination has no
/// rule on either route, so it never forwards.
#[inline]
pub(crate) fn forward(
    inst: &UpdateInstance,
    i: usize,
    flags: u8,
    tag: VersionTag,
) -> Option<usize> {
    if (tag == VersionTag::NEW && flags & TAGGED != 0) || flags & ACTIVATED != 0 {
        inst.new_next_at(i)
    } else if flags & OLD_REMOVED != 0 {
        None
    } else {
        inst.old_next_at(i)
    }
}

/// The data-plane state reached after some set of operations applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigState<'a> {
    inst: &'a UpdateInstance,
    /// One flag byte per participant, by the instance's dense index.
    flags: Vec<u8>,
    ingress_flipped: bool,
}

impl<'a> ConfigState<'a> {
    /// The initial configuration: pure old policy.
    pub fn initial(inst: &'a UpdateInstance) -> Self {
        ConfigState {
            inst,
            flags: vec![0; inst.node_count()],
            ingress_flipped: false,
        }
    }

    /// The instance this state belongs to.
    pub fn instance(&self) -> &'a UpdateInstance {
        self.inst
    }

    /// Apply one operation. An operation at a switch outside the
    /// instance cannot affect any walk, and is ignored.
    pub fn apply(&mut self, op: &RuleOp) {
        match op.flag() {
            Some((v, bit)) => {
                if let Some(i) = self.inst.index(v) {
                    self.flags[i] |= bit;
                }
            }
            None => self.ingress_flipped = true,
        }
    }

    /// Apply every operation of an iterator.
    pub fn apply_all<'b>(&mut self, ops: impl IntoIterator<Item = &'b RuleOp>) {
        for op in ops {
            self.apply(op);
        }
    }

    /// The flag byte of the participant with dense index `i`.
    pub(crate) fn flags_at(&self, i: usize) -> u8 {
        self.flags[i]
    }

    fn has(&self, v: DpId, bit: u8) -> bool {
        self.inst.index(v).is_some_and(|i| self.flags[i] & bit != 0)
    }

    /// Whether a switch has been activated (replacement semantics).
    pub fn is_activated(&self, v: DpId) -> bool {
        self.has(v, ACTIVATED)
    }

    /// Whether a switch's old rule has been removed.
    pub fn is_old_removed(&self, v: DpId) -> bool {
        self.has(v, OLD_REMOVED)
    }

    /// Whether a switch has its NEW-tagged rule installed.
    pub fn is_tagged_installed(&self, v: DpId) -> bool {
        self.has(v, TAGGED)
    }

    /// Whether the ingress has flipped to the new tagged policy.
    pub fn is_flipped(&self) -> bool {
        self.ingress_flipped
    }

    fn next_at(&self, i: usize, tag: VersionTag) -> Option<usize> {
        forward(self.inst, i, self.flags[i], tag)
    }

    /// Where a packet with tag `tag` is forwarded at `v`, or `None`
    /// when no rule matches (blackhole). The destination never
    /// forwards.
    pub fn next_hop(&self, v: DpId, tag: VersionTag) -> Option<DpId> {
        let t = self.next_at(self.inst.index(v)?, tag)?;
        Some(self.inst.participants()[t])
    }

    /// Walk a packet from the source until delivery, loop or blackhole.
    pub fn walk(&self) -> Walk {
        let ids = self.inst.participants();
        let src = self
            .inst
            .index(self.inst.src())
            .expect("the source participates");
        let wp = self.inst.waypoint();
        // A walk visits each switch at most once, plus the revisit.
        let mut visited = Vec::with_capacity(ids.len() + 1);
        visited.push(ids[src]);
        let mut seen = vec![false; ids.len()];
        seen[src] = true;
        let mut via_waypoint = wp.is_none_or(|w| w == ids[src]);

        // The ingress stamps the packet's tag class and, once flipped,
        // forwards by its new rule.
        let (tag, mut next) = if self.ingress_flipped {
            (VersionTag::NEW, self.inst.new_next_at(src))
        } else {
            (VersionTag::OLD, self.next_at(src, VersionTag::OLD))
        };
        let mut current = src;
        loop {
            let Some(i) = next else {
                return Walk {
                    visited,
                    outcome: WalkOutcome::Blackhole { at: ids[current] },
                };
            };
            let v = ids[i];
            visited.push(v);
            if wp == Some(v) {
                via_waypoint = true;
            }
            if v == self.inst.dst() {
                return Walk {
                    visited,
                    outcome: WalkOutcome::Delivered { via_waypoint },
                };
            }
            if std::mem::replace(&mut seen[i], true) {
                return Walk {
                    visited,
                    outcome: WalkOutcome::Looped { at: v },
                };
            }
            current = i;
            next = self.next_at(i, tag);
        }
    }

    /// The tag classes packets can actually carry under this
    /// configuration: NEW once the ingress has flipped, OLD otherwise.
    /// (During the flip round both arise, but the checker enumerates
    /// the flipped and unflipped configurations separately, each with
    /// its own class; packets are assumed to drain between rounds —
    /// barriers dominate path latency, which the simulator validates.)
    pub fn relevant_classes(&self) -> &'static [VersionTag] {
        if self.ingress_flipped {
            &[VersionTag::NEW]
        } else {
            &[VersionTag::OLD]
        }
    }

    /// Directed rule edges traversable by a packet of the given tag
    /// class — the graph on which strong loop freedom is defined.
    ///
    /// For [`VersionTag::OLD`], each switch contributes its untagged
    /// rule. For [`VersionTag::NEW`], a switch contributes its tagged
    /// rule when installed, else its untagged rule (the fall-through a
    /// NEW-tagged packet would take).
    pub fn class_edges(&self, tag: VersionTag) -> Vec<(DpId, DpId)> {
        let ids = self.inst.participants();
        (0..ids.len())
            .filter_map(|i| self.next_at(i, tag).map(|t| (ids[i], ids[t])))
            .collect()
    }

    /// Whether the per-class rule graph contains a directed cycle
    /// (strong-loop-freedom violation for that class).
    pub fn class_has_cycle(&self, tag: VersionTag) -> Option<Vec<DpId>> {
        // Functional graph: each node has at most one out-edge, so
        // cycle detection is pointer chasing with three colors, started
        // from every switch with a rule edge in dpid order.
        let ids = self.inst.participants();
        let mut color = vec![0u8; ids.len()]; // 0 white 1 gray 2 black
        let mut path = Vec::new();
        for start in 0..ids.len() {
            if color[start] != 0 || self.next_at(start, tag).is_none() {
                continue;
            }
            path.clear();
            let mut v = start;
            loop {
                match color[v] {
                    1 => {
                        // found a cycle: the portion of `path` from v
                        let pos = path.iter().position(|&x| x == v).expect("on path");
                        return Some(path[pos..].iter().map(|&x| ids[x]).collect());
                    }
                    2 => break,
                    _ => {
                        color[v] = 1;
                        path.push(v);
                        match self.next_at(v, tag) {
                            Some(t) => v = t,
                            None => break,
                        }
                    }
                }
            }
            for &n in &path {
                color[n] = 2;
            }
        }
        None
    }
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
    fn initial_walk_follows_old_route() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], Some(3));
        let c = ConfigState::initial(&i);
        let w = c.walk();
        assert_eq!(w.visited, vec![DpId(1), DpId(2), DpId(3), DpId(4)]);
        assert_eq!(w.outcome, WalkOutcome::Delivered { via_waypoint: true });
    }

    #[test]
    fn fully_activated_walk_follows_new_route() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], Some(3));
        let mut c = ConfigState::initial(&i);
        for v in [1u64, 5, 3] {
            c.apply(&RuleOp::Activate(DpId(v)));
        }
        let w = c.walk();
        assert_eq!(w.visited, vec![DpId(1), DpId(5), DpId(3), DpId(4)]);
        assert!(w.outcome.delivered());
    }

    #[test]
    fn blackhole_on_uninstalled_new_only() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        // activate src only: packet goes to 5 which has no rule yet
        c.apply(&RuleOp::Activate(DpId(1)));
        let w = c.walk();
        assert_eq!(w.outcome, WalkOutcome::Blackhole { at: DpId(5) });
        assert_eq!(w.visited, vec![DpId(1), DpId(5)]);
    }

    #[test]
    fn loop_detected() {
        // old 1-2-3-4, new 1-3-2-4: activating only 3 creates
        // 3 -> 2 (new) while 2 -> 3 (old): a 2-cycle.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::Activate(DpId(3)));
        let w = c.walk();
        assert!(matches!(w.outcome, WalkOutcome::Looped { .. }));
        // walk: 1 -> 2 -> 3 -> 2(revisit)
        assert_eq!(w.visited, vec![DpId(1), DpId(2), DpId(3), DpId(2)]);
    }

    #[test]
    fn waypoint_bypass_detected() {
        // old 1-2-3-4 wp 2; new 1-3-2-4... wp must be on both: it is
        // (2 on both). Activating 1 only: 1 -> 3 (new), 3 -> 4 (old):
        // delivered but bypassing waypoint 2.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], Some(2));
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::Activate(DpId(1)));
        let w = c.walk();
        assert_eq!(
            w.outcome,
            WalkOutcome::Delivered {
                via_waypoint: false
            }
        );
    }

    #[test]
    fn remove_old_creates_blackhole_if_reachable() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::RemoveOld(DpId(2)));
        let w = c.walk();
        assert_eq!(w.outcome, WalkOutcome::Blackhole { at: DpId(2) });
    }

    #[test]
    fn tagged_walk_before_flip_uses_old_path() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        for v in [5u64, 3] {
            c.apply(&RuleOp::InstallTagged(DpId(v)));
        }
        let w = c.walk();
        assert_eq!(w.visited, vec![DpId(1), DpId(2), DpId(3), DpId(4)]);
    }

    #[test]
    fn tagged_walk_after_flip_uses_new_path() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        for v in [5u64, 3] {
            c.apply(&RuleOp::InstallTagged(DpId(v)));
        }
        c.apply(&RuleOp::FlipIngress);
        let w = c.walk();
        assert_eq!(w.visited, vec![DpId(1), DpId(5), DpId(3), DpId(4)]);
        assert!(w.outcome.delivered());
    }

    #[test]
    fn tagged_fallthrough_on_missing_install() {
        // Flip without installing tagged rules: NEW packet at 5 has no
        // rule at all -> blackhole at 5.
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::FlipIngress);
        let w = c.walk();
        assert_eq!(w.outcome, WalkOutcome::Blackhole { at: DpId(5) });
    }

    #[test]
    fn tagged_fallthrough_uses_untagged_rule_on_shared() {
        // old 1-2-3-4, new 1-3-2-4 (shared interior, reordered).
        // Flip + install tagged at 3 only: packet 1-(new)->3,
        // 3 tagged -> 2, 2 falls through to old rule -> 3: loop.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::FlipIngress);
        c.apply(&RuleOp::InstallTagged(DpId(3)));
        let w = c.walk();
        assert!(matches!(w.outcome, WalkOutcome::Looped { at } if at == DpId(3)));
    }

    #[test]
    fn class_edges_distinguish_tags() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::InstallTagged(DpId(3)));
        let old_edges = c.class_edges(VersionTag::OLD);
        let new_edges = c.class_edges(VersionTag::NEW);
        assert!(old_edges.contains(&(DpId(3), DpId(4)))); // old rule 3->4
        assert!(new_edges.contains(&(DpId(3), DpId(4)))); // new rule 3->4 too
                                                          // 2's rule identical in both classes (no tagged install)
        assert!(old_edges.contains(&(DpId(2), DpId(3))));
        assert!(new_edges.contains(&(DpId(2), DpId(3))));
    }

    #[test]
    fn class_cycle_detection() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let mut c = ConfigState::initial(&i);
        assert!(c.class_has_cycle(VersionTag::OLD).is_none());
        c.apply(&RuleOp::Activate(DpId(3)));
        let cyc = c.class_has_cycle(VersionTag::OLD).expect("2-3 cycle");
        let mut cyc_sorted = cyc.clone();
        cyc_sorted.sort();
        assert_eq!(cyc_sorted, vec![DpId(2), DpId(3)]);
    }

    #[test]
    fn destination_never_forwards() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], None);
        let mut c = ConfigState::initial(&i);
        c.apply(&RuleOp::Activate(DpId(1)));
        c.apply(&RuleOp::Activate(DpId(2)));
        assert_eq!(c.next_hop(DpId(3), VersionTag::OLD), None);
        assert_eq!(c.next_hop(DpId(3), VersionTag::NEW), None);
    }

    #[test]
    fn walk_display_readable() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], None);
        let c = ConfigState::initial(&i);
        let s = c.walk().to_string();
        assert!(s.contains("s1 -> s2 -> s3"));
        assert!(s.contains("delivered"));
    }
}
