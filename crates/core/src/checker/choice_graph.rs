//! The choice-graph checker: one polynomial engine for every property
//! of a round.
//!
//! For a round with committed base configuration `B` and pending
//! operations `S`, the **choice graph** of a tag class contains, for
//! every switch, *every rule edge the switch could expose* to a packet
//! of that class while `S` is in flight: its current edge and, if an
//! operation in `S` touches it, its post-operation edges. A NEW-tagged
//! packet was stamped by a flipped ingress, which forwards it by its
//! new rule: in the NEW class the ingress has that one edge and can
//! never lose its rule.
//!
//! **Why the check is exact.** A switch's rule state depends only on
//! its *own* pending operations, and a simple path, a simple path
//! closed by one edge back onto itself (a lasso) and a simple cycle
//! each use exactly one out-edge per switch. So every such structure in
//! the choice graph is realized by a consistent transient subset of `S`
//! — per switch on it, the operations that produce its edge — and every
//! concrete transient walk or rule cycle is one of them. Hence, per tag
//! class packets can carry during the round:
//!
//! * **strong loop freedom** ([`check_round_slf`]) ⟺ the class graph
//!   is acyclic;
//! * **relaxed loop freedom** ⟺ no cycle is reachable from the source;
//! * **blackhole freedom** ⟺ no switch reachable from the source can
//!   lose its rule;
//! * **waypoint enforcement** ⟺ the destination is unreachable once the
//!   waypoint is removed.
//!
//! The three walk properties are one colored depth-first search per tag
//! class ([`check_round_walks`]), plus one that avoids the waypoint,
//! over flat per-switch tables a caller checking many rounds keeps
//! (`WalkBuffers`). The search's stack is the path from the source,
//! so a violation's witness is read off it: the walk, and the round's
//! operations that walk applies.

use std::collections::{BTreeMap, BTreeSet};

use sdn_types::{DpId, VersionTag};

use crate::config::{forward, ConfigState, Walk, WalkOutcome};
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet, PropertyViolation, ViolationKind};
use crate::schedule::RuleOp;

use super::{CheckReport, Violation};

/// One cell of a flat adjacency array: the neighbours of one switch.
/// Both routes are simple paths, so a switch has at most one old-route
/// and one new-route successor, and at most one predecessor on each —
/// two entries always suffice, in either direction.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Adj {
    t: [u32; 2],
    len: u8,
}

impl Adj {
    pub(crate) fn push(&mut self, t: u32) {
        self.t[self.len as usize] = t;
        self.len += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.t[self.len as usize])
    }

    /// Remove `t`, keeping the order of what remains.
    pub(crate) fn remove(&mut self, t: u32) -> bool {
        match self.as_slice().iter().position(|&x| x == t) {
            Some(0) => {
                self.t[0] = self.t[1];
                self.len -= 1;
                true
            }
            Some(_) => {
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.t[..self.len as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn contains(&self, t: u32) -> bool {
        self.as_slice().contains(&t)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// By value: the copy lets callers mutate the array the cell came
    /// from while walking it.
    pub(crate) fn iter(self) -> impl Iterator<Item = u32> {
        (0..self.len as usize).map(move |k| self.t[k])
    }
}

/// The forwarding targets one switch could expose for a tag class —
/// at most two distinct successors (old rule, new rule) plus the
/// possibility of having no rule.
#[derive(Clone, Copy, Default)]
pub(crate) struct LocalNexts {
    pub(crate) targets: Adj,
    pub(crate) none: bool,
}

impl LocalNexts {
    fn push(&mut self, t: u32) {
        if !self.targets.contains(t) {
            self.targets.push(t);
        }
    }
}

/// Every rule edge switch `i` (a dense index) could expose to class
/// `tag` while its `pending` flags are in flight on top of its
/// `committed` ones: the choice graph's out-edges of `i`. `ends` are
/// the source's and the destination's dense indices. The destination
/// never forwards; in the NEW class the ingress forwards by its new
/// rule only.
#[inline]
pub(crate) fn local_nexts(
    inst: &UpdateInstance,
    (src, dst): (u32, u32),
    i: u32,
    tag: VersionTag,
    committed: u8,
    pending: u8,
) -> LocalNexts {
    let mut nexts = LocalNexts::default();
    if i == dst {
        return nexts;
    }
    if tag == VersionTag::NEW && i == src {
        if let Some(t) = inst.new_next_at(i as usize) {
            nexts.push(t as u32);
        }
        return nexts;
    }
    // Every subset of the pending flags, in ascending order (0 first).
    let mut mask = 0u8;
    loop {
        match forward(inst, i as usize, committed | mask, tag) {
            Some(t) => nexts.push(t as u32),
            None => nexts.none = true,
        }
        if mask == pending {
            return nexts;
        }
        mask = (mask | !pending).wrapping_add(1) & pending;
    }
}

/// The possible forwarding targets of `v` for tag class `tag`, across
/// all 2^k states of the pending operations touching `v`. `None` in
/// the result set means "could have no matching rule" (blackhole).
///
/// The SLF class graphs are built from it; [`local_nexts`] is its
/// dense form, which differs only at the ingress of the NEW class (an
/// ingress no rule points at, so on no cycle).
pub(crate) fn possible_nexts(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    v: DpId,
    tag: VersionTag,
) -> BTreeSet<Option<DpId>> {
    let mut outs = BTreeSet::new();
    if v == inst.dst() {
        return outs; // destination never forwards
    }
    let pend_activate = ops.contains(&RuleOp::Activate(v));
    let pend_remove = ops.contains(&RuleOp::RemoveOld(v));
    let pend_tagged = ops.contains(&RuleOp::InstallTagged(v));

    let activated_states: &[bool] = if pend_activate {
        &[false, true]
    } else {
        &[false]
    };
    let removed_states: &[bool] = if pend_remove {
        &[false, true]
    } else {
        &[false]
    };
    let tagged_states: &[bool] = if pend_tagged {
        &[false, true]
    } else {
        &[false]
    };

    for &act in activated_states {
        for &rem in removed_states {
            for &tg in tagged_states {
                let activated = base.is_activated(v) || act;
                let removed = base.is_old_removed(v) || rem;
                let tagged = base.is_tagged_installed(v) || tg;
                let next = if (tag == VersionTag::NEW && tagged) || activated {
                    inst.new_next(v)
                } else if removed {
                    None
                } else {
                    inst.old_next(v)
                };
                outs.insert(next);
            }
        }
    }
    outs
}

/// Adjacency of the choice graph for one tag class.
fn class_adjacency(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    tag: VersionTag,
) -> BTreeMap<DpId, Vec<DpId>> {
    let mut adj: BTreeMap<DpId, Vec<DpId>> = BTreeMap::new();
    for (v, _) in inst.nodes() {
        let outs = possible_nexts(inst, base, ops, v, tag);
        let targets: Vec<DpId> = outs.into_iter().flatten().collect();
        adj.insert(v, targets);
    }
    adj
}

/// Find any directed cycle in a small adjacency map. Returns the
/// switches on the cycle.
fn find_cycle(adj: &BTreeMap<DpId, Vec<DpId>>) -> Option<Vec<DpId>> {
    // Iterative DFS with colors; graph is tiny (route lengths).
    let mut color: BTreeMap<DpId, u8> = BTreeMap::new();
    for &start in adj.keys() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // stack of (node, next-child-index), plus the current path
        let mut stack: Vec<(DpId, usize)> = vec![(start, 0)];
        let mut path: Vec<DpId> = vec![start];
        color.insert(start, 1);
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&v).map(|c| c.as_slice()).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match color.get(&child).copied().unwrap_or(0) {
                    0 => {
                        color.insert(child, 1);
                        stack.push((child, 0));
                        path.push(child);
                    }
                    1 => {
                        // found a back edge: cycle = path from child
                        let pos = path.iter().position(|&x| x == child).expect("gray on path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            } else {
                color.insert(v, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Exact strong-loop-freedom check of one round.
///
/// Only tag classes packets can carry during this round are checked:
/// OLD while the ingress may still stamp OLD, NEW once the ingress has
/// flipped or may flip within the round. Tagged rules installed ahead
/// of the flip are invisible to traffic — the two-phase-commit
/// invariant.
pub fn check_round_slf(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
) -> CheckReport {
    let mut report = CheckReport::default();
    let flip_pending = ops.contains(&RuleOp::FlipIngress);
    let mut classes: Vec<VersionTag> = Vec::new();
    if !base.is_flipped() {
        classes.push(VersionTag::OLD);
    }
    if base.is_flipped() || flip_pending {
        classes.push(VersionTag::NEW);
    }
    for tag in classes {
        let adj = class_adjacency(inst, base, ops, tag);
        report.configs_checked += 1;
        if let Some(cycle) = find_cycle(&adj) {
            // Reconstruct a witness subset: for each switch on the
            // cycle, the operation states that produce its cycle edge.
            let witness = witness_for_cycle(inst, base, ops, &cycle, tag);
            report.violations.push(Violation {
                round: None,
                witness,
                violation: PropertyViolation {
                    property: Property::StrongLoopFreedom,
                    kind: ViolationKind::RuleCycle { class: tag, cycle },
                },
            });
        }
    }
    report
}

/// For each cycle switch, pick pending-op decisions realizing its cycle
/// edge, and return the applied ops as a witness subset.
fn witness_for_cycle(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    cycle: &[DpId],
    tag: VersionTag,
) -> Vec<RuleOp> {
    let mut applied = Vec::new();
    for (i, &v) in cycle.iter().enumerate() {
        let want = cycle[(i + 1) % cycle.len()];
        // try the 2^k local combinations and keep the first that works
        'search: for mask in 0u8..8 {
            let act = mask & 1 != 0 && ops.contains(&RuleOp::Activate(v));
            let rem = mask & 2 != 0 && ops.contains(&RuleOp::RemoveOld(v));
            let tg = mask & 4 != 0 && ops.contains(&RuleOp::InstallTagged(v));
            let activated = base.is_activated(v) || act;
            let removed = base.is_old_removed(v) || rem;
            let tagged = base.is_tagged_installed(v) || tg;
            let next = if (tag == VersionTag::NEW && tagged) || activated {
                inst.new_next(v)
            } else if removed {
                None
            } else {
                inst.old_next(v)
            };
            if next == Some(want) {
                if act {
                    applied.push(RuleOp::Activate(v));
                }
                if rem {
                    applied.push(RuleOp::RemoveOld(v));
                }
                if tg {
                    applied.push(RuleOp::InstallTagged(v));
                }
                break 'search;
            }
        }
    }
    applied
}

/// Exact check of one round for the walk properties in `props`
/// (strong loop freedom is [`check_round_slf`]'s): one witness at most
/// per tag class and property.
pub fn check_round_walks(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
) -> CheckReport {
    WalkBuffers::default().check_round(inst, base, ops, props)
}

/// The walk check's per-switch tables, kept across the rounds one
/// caller checks against one instance: a round resets only the
/// switches its operations name, and a search's colors expire with its
/// epoch, so a one-switch round costs its searches, not a table of
/// every switch.
#[derive(Default)]
pub(crate) struct WalkBuffers {
    /// Per switch: the round's pending flags (zero between rounds).
    pending: Vec<u8>,
    /// Per switch: the search's color — `epoch` while on the stack,
    /// `epoch + 1` once left, anything lower if never reached.
    mark: Vec<u64>,
    /// Two per search, so every earlier search's marks read as white.
    epoch: u64,
    /// Per switch: the flags a witness applies there (zero between
    /// witnesses; empty until the first).
    applied: Vec<u8>,
    /// The search's stack, i.e. the path from the source: a switch, the
    /// edges it exposes and how many of them were followed.
    stack: Vec<(u32, LocalNexts, u8)>,
}

/// One round under check, in one tag class.
struct Class<'r, 'a> {
    inst: &'a UpdateInstance,
    base: &'r ConfigState<'a>,
    ops: &'r [RuleOp],
    tag: VersionTag,
    /// The source's and the destination's dense indices.
    ends: (u32, u32),
}

impl WalkBuffers {
    /// [`check_round_walks`] on these buffers.
    pub(crate) fn check_round(
        &mut self,
        inst: &UpdateInstance,
        base: &ConfigState<'_>,
        ops: &[RuleOp],
        props: &PropertySet,
    ) -> CheckReport {
        let mut report = CheckReport::default();
        let n = inst.node_count();
        if self.pending.len() != n {
            self.pending = vec![0; n];
            self.mark = vec![0; n];
            self.applied.clear();
            self.stack = Vec::with_capacity(n);
        }
        let idx = |v| inst.index(v).expect("route switches participate") as u32;
        let ends = (idx(inst.src()), idx(inst.dst()));
        let mut flip = false;
        for op in ops {
            match op.flag() {
                // An op at a switch outside the instance is never walked.
                Some((v, bit)) => {
                    if let Some(i) = inst.index(v) {
                        self.pending[i] |= bit;
                    }
                }
                None => flip = true,
            }
        }
        let waypoint = inst
            .waypoint()
            .filter(|_| props.contains(Property::WaypointEnforcement))
            .map(idx);
        let walks = props.contains(Property::BlackholeFreedom)
            || props.contains(Property::RelaxedLoopFreedom);
        // OLD while the ingress may still stamp OLD, NEW once it has
        // flipped or may flip within the round.
        let flipped = base.is_flipped();
        let classes = [
            (VersionTag::OLD, !flipped),
            (VersionTag::NEW, flipped || flip),
        ];
        for (tag, _) in classes.into_iter().filter(|&(_, live)| live) {
            let cx = Class {
                inst,
                base,
                ops,
                tag,
                ends,
            };
            if walks {
                self.search(&cx, None, props, &mut report);
            }
            if waypoint.is_some() {
                self.search(&cx, waypoint, props, &mut report);
            }
        }
        for (v, _) in ops.iter().filter_map(RuleOp::flag) {
            if let Some(i) = inst.index(v) {
                self.pending[i] = 0;
            }
        }
        report
    }

    /// Depth-first search of the class graph from the source, never
    /// entering `avoid`. Without `avoid` it looks for a switch that can
    /// lose its rule and for an edge back onto the stack (a loop); with
    /// the waypoint to avoid, for the destination. It records the first
    /// witness of each and stops once nothing is left to look for.
    fn search(
        &mut self,
        cx: &Class<'_, '_>,
        avoid: Option<u32>,
        props: &PropertySet,
        report: &mut CheckReport,
    ) {
        let (src, dst) = cx.ends;
        let mut blackhole = avoid.is_none() && props.contains(Property::BlackholeFreedom);
        let mut looped = avoid.is_none() && props.contains(Property::RelaxedLoopFreedom);
        let mut bypass = avoid.is_some();
        self.epoch += 2;
        let (gray, black) = (self.epoch, self.epoch + 1);
        let mut reached = 0;
        let mut next = (avoid != Some(src)).then_some(src);
        loop {
            if let Some(v) = next.take() {
                reached += 1;
                if v == dst && !bypass {
                    // Delivered: nothing to search past the destination.
                    self.mark[v as usize] = black;
                } else {
                    self.mark[v as usize] = gray;
                    let (committed, pending) =
                        (cx.base.flags_at(v as usize), self.pending[v as usize]);
                    let nexts = local_nexts(cx.inst, cx.ends, v, cx.tag, committed, pending);
                    self.stack.push((v, nexts, 0));
                    if bypass && v == dst {
                        self.record(cx, Property::WaypointEnforcement, None, report);
                        bypass = false;
                    }
                    if blackhole && nexts.none {
                        self.record(cx, Property::BlackholeFreedom, None, report);
                        blackhole = false;
                    }
                }
            }
            if !(blackhole || looped || bypass) {
                break;
            }
            let Some(top) = self.stack.last_mut() else {
                break;
            };
            let Some(&t) = top.1.targets.as_slice().get(top.2 as usize) else {
                let u = top.0;
                self.stack.pop();
                self.mark[u as usize] = black;
                continue;
            };
            top.2 += 1;
            if Some(t) == avoid {
                continue;
            }
            let mark = self.mark[t as usize];
            if mark < gray {
                next = Some(t);
            } else if mark == gray && looped {
                self.record(cx, Property::RelaxedLoopFreedom, Some(t), report);
                looped = false;
            }
        }
        report.configs_checked += reached;
        self.stack.clear();
    }

    /// Record the violation the stack shows: the walk along it — to
    /// `revisit`, the switch a loop closes on, or ending where the
    /// stack ends — and the round's operations that walk applies.
    fn record(
        &mut self,
        cx: &Class<'_, '_>,
        property: Property,
        revisit: Option<u32>,
        report: &mut CheckReport,
    ) {
        let (src, _) = cx.ends;
        // (A round that records nothing never asks for this table.)
        self.applied.resize(cx.inst.node_count(), 0);
        for k in 0..self.stack.len() {
            let u = self.stack[k].0 as usize;
            if cx.tag == VersionTag::NEW && u == src as usize {
                continue; // the stamping ingress forwards by its new rule
            }
            let next = self.stack.get(k + 1).map(|e| e.0).or(revisit);
            let (committed, pending) = (cx.base.flags_at(u), self.pending[u]);
            self.applied[u] = (0u8..8)
                .filter(|&m| m & !pending == 0)
                .find(|&m| forward(cx.inst, u, committed | m, cx.tag) == next.map(|t| t as usize))
                .expect("some of the switch's ops expose the edge the search followed");
        }
        let stamps = cx.tag == VersionTag::NEW && !cx.base.is_flipped();
        let witness = cx
            .ops
            .iter()
            .filter(|op| match op.flag() {
                Some((v, bit)) => cx.inst.index(v).is_some_and(|i| self.applied[i] & bit != 0),
                None => stamps,
            })
            .copied()
            .collect();
        let ids = cx.inst.participants();
        let mut visited: Vec<DpId> = self.stack.iter().map(|e| ids[e.0 as usize]).collect();
        for e in &self.stack {
            self.applied[e.0 as usize] = 0;
        }
        let outcome = match (property, revisit) {
            (_, Some(t)) => {
                visited.push(ids[t as usize]);
                WalkOutcome::Looped {
                    at: ids[t as usize],
                }
            }
            (Property::BlackholeFreedom, None) => WalkOutcome::Blackhole {
                at: *visited.last().expect("the walk starts at the source"),
            },
            _ => WalkOutcome::Delivered {
                via_waypoint: false,
            },
        };
        report.violations.push(Violation {
            round: None,
            witness,
            violation: PropertyViolation {
                property,
                kind: ViolationKind::BadWalk(Walk { visited, outcome }),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::round_admissible;
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
    fn slf_detects_pairwise_cycle() {
        // old 1-2-3-4; new 1-3-2-4. Round {activate 2, activate 3}:
        // transient {3 applied, 2 not} has cycle 2->3 (old), 3->2 (new).
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(3))];
        let rep = check_round_slf(&i, &base, &ops);
        assert!(!rep.is_ok());
        let v = &rep.violations[0];
        assert_eq!(v.violation.property, Property::StrongLoopFreedom);
        // witness realizes the cycle: exactly one of the two activates
        assert_eq!(v.witness.len(), 1);
    }

    #[test]
    fn slf_accepts_forward_jump() {
        // new edge 1->3 is forward; updating 1 alone is SLF-safe.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 4], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        assert!(check_round_slf(&i, &base, &ops).is_ok());
    }

    #[test]
    fn slf_is_exact_wrt_exhaustive_on_small_instances() {
        use crate::checker::exhaustive::check_round_exhaustive;
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 2, 3, 4], vec![1, 3, 2, 4]),
            (vec![1, 2, 3, 4, 5], vec![1, 4, 3, 2, 5]),
            (vec![1, 2, 3, 4, 5], vec![1, 3, 5]),
            (vec![1, 2, 3], vec![1, 3]),
        ];
        for (old, new) in cases {
            let i = inst(&old, &new, None);
            let base = ConfigState::initial(&i);
            let shared: Vec<RuleOp> = i
                .nodes_with_role(crate::model::NodeRole::Shared)
                .into_iter()
                .filter(|&v| v != i.dst())
                .map(RuleOp::Activate)
                .collect();
            let slf_only = PropertySet::none().with(Property::StrongLoopFreedom);
            let exact = check_round_slf(&i, &base, &shared).is_ok();
            let brute = check_round_exhaustive(&i, &base, &shared, &slf_only).is_ok();
            assert_eq!(exact, brute, "mismatch on old={old:?} new={new:?}");
        }
    }

    // The `conservative_` tests keep the names they had while the walk
    // check was only sound.
    #[test]
    fn conservative_accepts_new_only_installs() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 6, 4], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(5)), RuleOp::Activate(DpId(6))];
        assert!(round_admissible(&i, &base, &ops, &PropertySet::all()));
    }

    #[test]
    fn conservative_rejects_blackhole_risk() {
        let i = inst(&[1, 2, 3, 4], &[1, 5, 3, 4], None);
        let base = ConfigState::initial(&i);
        // activating the source while 5 is not installed risks a
        // blackhole at 5
        let ops = [RuleOp::Activate(DpId(1)), RuleOp::Activate(DpId(5))];
        let props = PropertySet::loop_free_relaxed();
        assert!(!round_admissible(&i, &base, &ops, &props));
    }

    #[test]
    fn conservative_rejects_waypoint_bypass() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], Some(2));
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        let props = PropertySet::transiently_secure();
        assert!(!round_admissible(&i, &base, &ops, &props));
    }

    #[test]
    fn conservative_accepts_unreachable_updates() {
        // old 1-2-3-4-5; new 1-4-3-2-5; commit activate(1) first:
        // current path 1->4->5(old). Switches 2,3 are unreachable; their
        // updates are safe under relaxed loop freedom.
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], None);
        let mut base = ConfigState::initial(&i);
        base.apply(&RuleOp::Activate(DpId(1)));
        let ops = [RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(3))];
        let relaxed = PropertySet::loop_free_relaxed();
        assert!(round_admissible(&i, &base, &ops, &relaxed));
        // ... but not under strong loop freedom (2<->3 cycle exists).
        let strong = PropertySet::loop_free_strong();
        assert!(!round_admissible(&i, &base, &ops, &strong));
    }

    #[test]
    fn find_cycle_none_on_dag() {
        let mut adj: BTreeMap<DpId, Vec<DpId>> = BTreeMap::new();
        adj.insert(DpId(1), vec![DpId(2), DpId(3)]);
        adj.insert(DpId(2), vec![DpId(3)]);
        adj.insert(DpId(3), vec![]);
        assert!(find_cycle(&adj).is_none());
    }

    #[test]
    fn find_cycle_self_loopless_triangle() {
        let mut adj: BTreeMap<DpId, Vec<DpId>> = BTreeMap::new();
        adj.insert(DpId(1), vec![DpId(2)]);
        adj.insert(DpId(2), vec![DpId(3)]);
        adj.insert(DpId(3), vec![DpId(1)]);
        let c = find_cycle(&adj).unwrap();
        assert_eq!(c.len(), 3);
    }

    /// The walk a violation reports.
    fn walk_of(v: &Violation) -> &Walk {
        match &v.violation.kind {
            ViolationKind::BadWalk(w) => w,
            other => panic!("not a walk: {other:?}"),
        }
    }

    #[test]
    fn finds_blackhole_witness() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4)), RuleOp::Activate(DpId(1))];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        assert!(!rep.is_ok());
        let v = rep
            .violations
            .iter()
            .find(|v| v.violation.property == Property::BlackholeFreedom)
            .expect("blackhole found");
        assert_eq!(v.witness, vec![RuleOp::Activate(DpId(1))]);
        assert_eq!(walk_of(v).to_string(), "s1 -> s4 [BLACKHOLE at s4]");
    }

    #[test]
    fn accepts_safe_round() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok());
        // the search never reaches 4: it visits the old route only
        assert_eq!(rep.configs_checked, 3);
    }

    #[test]
    fn finds_loop_with_consistent_decisions() {
        // old 1-2-3-4, new 1-3-2-4; round {activate 2, activate 3}.
        // Loop witness: 3 applied, 2 not: 1->2->3->2.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(3))];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        let v = rep
            .violations
            .iter()
            .find(|v| v.violation.property == Property::RelaxedLoopFreedom)
            .expect("loop found");
        assert_eq!(v.witness, vec![RuleOp::Activate(DpId(3))]);
        assert_eq!(walk_of(v).to_string(), "s1 -> s2 -> s3 -> s2 [LOOP at s2]");
    }

    #[test]
    fn consistency_no_false_loop() {
        // old 1-2-3, new 1-3: activating just {1}: the walk 1->3 is
        // fine; no state may use 1's old and new rule simultaneously.
        let i = inst(&[1, 2, 3], &[1, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok(), "{rep}");
        // every switch reached once: 1, 2 (old), 3
        assert_eq!(rep.configs_checked, 3);
    }

    #[test]
    fn waypoint_bypass_found() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], Some(2));
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::transiently_secure());
        let v = rep
            .violations
            .iter()
            .find(|v| v.violation.property == Property::WaypointEnforcement)
            .expect("bypass found");
        assert_eq!(v.witness, vec![RuleOp::Activate(DpId(1))]);
        assert_eq!(
            walk_of(v).to_string(),
            "s1 -> s3 -> s4 [delivered, BYPASSED WP]"
        );
    }

    #[test]
    fn flip_ingress_branches() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let mut base = ConfigState::initial(&i);
        base.apply(&RuleOp::InstallTagged(DpId(4)));
        let ops = [RuleOp::FlipIngress];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok(), "{rep}");
        // unflipped: 1, 2, 3; flipped: 1, 4, 3
        assert_eq!(rep.configs_checked, 6);
    }

    #[test]
    fn flip_without_install_blackholes() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::FlipIngress];
        let rep = check_round_walks(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        assert!(!rep.is_ok());
        let v = &rep.violations[0];
        assert_eq!(v.violation.property, Property::BlackholeFreedom);
        assert_eq!(v.witness, vec![RuleOp::FlipIngress]);
    }

    /// A stamped packet leaves the ingress by its new rule only: the
    /// ingress' untagged rule — old, or none once removed — is no edge
    /// of the NEW class.
    #[test]
    fn stamped_packets_take_the_ingress_new_rule_only() {
        use crate::checker::exhaustive::check_round_exhaustive;
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let mut base = ConfigState::initial(&i);
        base.apply_all(&[RuleOp::InstallTagged(DpId(4)), RuleOp::FlipIngress]);
        let ops = [RuleOp::RemoveOld(DpId(1)), RuleOp::RemoveOld(DpId(2))];
        let props = PropertySet::loop_free_relaxed();
        assert!(check_round_exhaustive(&i, &base, &ops, &props).is_ok());
        let rep = check_round_walks(&i, &base, &ops, &props);
        assert!(rep.is_ok(), "{rep}");
        assert_eq!(rep.configs_checked, 3); // 1, 4, 3
    }

    /// One set of buffers carried through many rounds of one instance
    /// reports, round by round, exactly what fresh buffers report.
    #[test]
    fn kept_buffers_match_fresh_ones() {
        use sdn_types::DetRng;
        let mut rng = DetRng::new(0xb0f);
        for _ in 0..30 {
            let n = 4 + rng.index(8) as u64;
            let pair = sdn_topo::gen::random_permutation(n, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let mut base = ConfigState::initial(&i);
            let mut bufs = WalkBuffers::default();
            for _ in 0..6 {
                let mut ops = Vec::new();
                for (v, _) in i.nodes() {
                    match rng.index(6) {
                        0 => ops.push(RuleOp::Activate(v)),
                        1 => ops.push(RuleOp::RemoveOld(v)),
                        2 => ops.push(RuleOp::InstallTagged(v)),
                        _ => {}
                    }
                }
                if rng.chance(0.2) {
                    ops.push(RuleOp::FlipIngress);
                }
                let props = PropertySet::all();
                let kept = bufs.check_round(&i, &base, &ops, &props);
                let fresh = check_round_walks(&i, &base, &ops, &props);
                assert_eq!(format!("{kept:?}"), format!("{fresh:?}"), "{i} {ops:?}");
                // Advance by part of the round, as a schedule would.
                base.apply_all(&ops[..ops.len() / 2]);
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_random_small_rounds() {
        use crate::checker::exhaustive::check_round_exhaustive;
        use sdn_types::DetRng;
        let mut rng = DetRng::new(2024);
        for trial in 0..40 {
            let n = 4 + rng.index(4) as u64; // 4..7
            let pair = sdn_topo::gen::random_permutation(n, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            // random base: activate a random subset of shared nodes
            let mut base = ConfigState::initial(&i);
            let shared = i.nodes_with_role(crate::model::NodeRole::Shared);
            let mut round_ops = Vec::new();
            for v in shared {
                if v == i.dst() {
                    continue;
                }
                match rng.index(3) {
                    0 => base.apply(&RuleOp::Activate(v)),
                    1 => round_ops.push(RuleOp::Activate(v)),
                    _ => {}
                }
            }
            if round_ops.is_empty() {
                continue;
            }
            let props = PropertySet::loop_free_relaxed();
            let exact = check_round_walks(&i, &base, &round_ops, &props).is_ok();
            let brute = check_round_exhaustive(&i, &base, &round_ops, &props).is_ok();
            assert_eq!(
                exact, brute,
                "trial {trial}: mismatch on {i} round {round_ops:?}"
            );
        }
    }
}
