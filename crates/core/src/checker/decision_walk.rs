//! The exact decision-walk checker for walk-based properties.
//!
//! A transient configuration within a round is a subset of the round's
//! operations. A packet walk only cares about the operations at the
//! switches it *visits* — so instead of enumerating all `2^|round|`
//! subsets, the checker walks from the source and **branches on each
//! pending operation the first time the walk reaches its switch**,
//! remembering the decision (a switch cannot be both updated and not
//! updated for the same packet... nor for the same static
//! configuration, which is what rounds expose). Every leaf of the
//! decision tree is a consistent concrete configuration restricted to
//! the switches that matter, making the check exact for blackhole
//! freedom, relaxed loop freedom and waypoint enforcement.
//!
//! The cost is `O(2^b · n)` where `b` is the number of *pending
//! switches on the walk* — typically far smaller than the round. A
//! configurable leaf budget guards against adversarial blowup; the
//! report flags when it is hit.
//!
//! Every per-switch question indexes the instance's dense switch
//! index: the round's operations are chained per switch in one table,
//! "already on the walk" is an O(1) mark, and a walk's switch list and
//! witness are materialised only when a violation is recorded. The
//! tables live in `WalkBuffers`, which a caller checking many rounds
//! of one instance keeps: a round then allocates nothing unless it
//! records a violation, and resets only the switches its operations
//! set.

use sdn_types::VersionTag;

use crate::config::{forward, ConfigState, Walk, WalkOutcome};
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet, PropertyViolation, ViolationKind};
use crate::schedule::RuleOp;

use super::{CheckReport, Violation};

/// Default bound on explored decision leaves per round.
pub const DEFAULT_LEAF_BUDGET: u64 = 1 << 20;

/// Maximum violation witnesses recorded per round.
const MAX_WITNESSES: usize = 16;

/// End of an op chain / no op of a kind.
const NONE: u32 = u32::MAX;

/// Exact check of one round for the walk-based properties in `props`
/// (StrongLoopFreedom is ignored here; see
/// [`choice_graph::check_round_slf`](super::choice_graph::check_round_slf)).
pub fn check_round(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
) -> CheckReport {
    WalkBuffers::default().check_round(inst, base, ops, props)
}

/// The round's operations at one switch, and the walk's mark on it.
#[derive(Clone, Copy)]
struct SwitchOps {
    /// First op index at this switch of each kind, by flag bit
    /// position (activate, remove-old, install-tagged).
    first: [u32; 3],
    /// First op index at this switch; `Explorer::chain` continues it
    /// in round order.
    head: u32,
    /// The switch is on the current walk.
    on_path: bool,
}

impl SwitchOps {
    /// No operation at the switch, and the walk is elsewhere.
    const IDLE: SwitchOps = SwitchOps {
        first: [NONE; 3],
        head: NONE,
        on_path: false,
    };
}

/// The explorer's tables, kept across the rounds one caller checks
/// against one instance: a round resets only the switches its
/// operations set, so checking a one-switch round costs the walk, not
/// a table of every switch.
#[derive(Default)]
pub(crate) struct WalkBuffers {
    /// Per participant (dense index); [`SwitchOps::IDLE`] between
    /// rounds.
    at: Vec<SwitchOps>,
    chain: Vec<u32>,
    decisions: Vec<Option<bool>>,
    path: Vec<usize>,
}

impl WalkBuffers {
    /// [`check_round`] on these buffers.
    pub(crate) fn check_round(
        &mut self,
        inst: &UpdateInstance,
        base: &ConfigState<'_>,
        ops: &[RuleOp],
        props: &PropertySet,
    ) -> CheckReport {
        self.explore(inst, base, ops, props, DEFAULT_LEAF_BUDGET, None)
    }

    /// [`check_round`] that additionally marks, in `touched` (indexed
    /// by the instance's dense switch index), every switch any
    /// explored branch visited. The stateful
    /// [`super::incremental::AdmissionProbe`] uses this set to skip
    /// re-exploration for candidate operations at switches no walk
    /// can reach: behaviour at unvisited switches cannot influence any
    /// branch, so both the verdict and the touched set are provably
    /// unchanged.
    ///
    /// Exploration stops at the first violating leaf — the probe
    /// session only needs a verdict, not witnesses. The touched set is
    /// then truncated, which is sound for the session's memo: a
    /// failing verdict rejects every further candidate regardless of
    /// the touched set (any superset round still contains the
    /// violating transient subset), and a passing verdict never stops
    /// early.
    pub(crate) fn check_round_collecting(
        &mut self,
        inst: &UpdateInstance,
        base: &ConfigState<'_>,
        ops: &[RuleOp],
        props: &PropertySet,
        touched: &mut [bool],
    ) -> CheckReport {
        self.explore(inst, base, ops, props, DEFAULT_LEAF_BUDGET, Some(touched))
    }

    /// Explore one round's decision tree; collecting a touched set
    /// also stops at the first violation.
    fn explore(
        &mut self,
        inst: &UpdateInstance,
        base: &ConfigState<'_>,
        ops: &[RuleOp],
        props: &PropertySet,
        leaf_budget: u64,
        touched: Option<&mut [bool]>,
    ) -> CheckReport {
        let n = inst.node_count();
        let idx = |v| inst.index(v).expect("route switches participate");
        let mut at = std::mem::take(&mut self.at);
        at.resize(n, SwitchOps::IDLE);
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        chain.resize(ops.len(), NONE);
        // Backwards, so every chain and first-of-kind ends up in round
        // order. An op at a switch outside the instance is never
        // walked.
        for (i, op) in ops.iter().enumerate().rev() {
            let Some((v, bit)) = op.flag() else { continue };
            let Some(sw) = inst.index(v).map(|s| &mut at[s]) else {
                continue;
            };
            chain[i] = sw.head;
            sw.head = i as u32;
            sw.first[bit.trailing_zeros() as usize] = i as u32;
        }
        let mut decisions = std::mem::take(&mut self.decisions);
        decisions.clear();
        decisions.resize(ops.len(), None);
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        path.reserve(n + 1);
        let mut ex = Explorer {
            inst,
            base,
            ops,
            at,
            chain,
            src: idx(inst.src()),
            dst: idx(inst.dst()),
            waypoint: inst.waypoint().map(idx),
            decisions,
            path,
            props,
            report: CheckReport::default(),
            leaves_left: leaf_budget,
            fail_fast: touched.is_some(),
            touched,
        };

        // The ingress flip (if pending) is the first decision: it
        // selects the packet's tag class.
        match ops.iter().position(|o| matches!(o, RuleOp::FlipIngress)) {
            Some(fi) if !ex.base.is_flipped() => {
                for applied in [false, true] {
                    ex.decisions[fi] = Some(applied);
                    ex.start_walk(applied);
                }
                ex.decisions[fi] = None;
            }
            _ => ex.start_walk(ex.base.is_flipped()),
        }
        // Every walk has unwound (no switch is on a path any more):
        // only the switches with operations need resetting.
        for (v, _) in ops.iter().filter_map(RuleOp::flag) {
            if let Some(s) = inst.index(v) {
                ex.at[s] = SwitchOps::IDLE;
            }
        }
        self.at = ex.at;
        self.chain = ex.chain;
        self.decisions = ex.decisions;
        self.path = ex.path;
        ex.report
    }
}

struct Explorer<'a, 'b, 'c> {
    inst: &'a UpdateInstance,
    base: &'b ConfigState<'a>,
    ops: &'b [RuleOp],
    /// Per participant (dense index).
    at: Vec<SwitchOps>,
    /// Per op: the next op index at the same switch, or `NONE`.
    chain: Vec<u32>,
    src: usize,
    dst: usize,
    waypoint: Option<usize>,
    /// Per op: undecided, or whether the branch applied it.
    decisions: Vec<Option<bool>>,
    /// The walk so far, as dense indices, source first.
    path: Vec<usize>,
    props: &'b PropertySet,
    report: CheckReport,
    leaves_left: u64,
    fail_fast: bool,
    touched: Option<&'c mut [bool]>,
}

impl Explorer<'_, '_, '_> {
    /// First pending, undecided op (in round order) that influences
    /// forwarding at `v` for tag class `tag`.
    fn first_relevant_undecided(&self, v: usize, tag: VersionTag) -> Option<usize> {
        let mut i = self.at[v].head;
        while i != NONE {
            let k = i as usize;
            let relevant = match self.ops[k] {
                RuleOp::Activate(_) | RuleOp::RemoveOld(_) => true,
                RuleOp::InstallTagged(_) => tag == VersionTag::NEW,
                RuleOp::FlipIngress => false, // decided up front
            };
            if relevant && self.decisions[k].is_none() {
                return Some(k);
            }
            i = self.chain[k];
        }
        None
    }

    /// Forwarding at `v` once every relevant op is decided.
    fn effective_next(&self, v: usize, tag: VersionTag, flipped: bool) -> Option<usize> {
        if v == self.dst {
            return None;
        }
        if v == self.src && flipped {
            return self.inst.new_next_at(v);
        }
        let mut flags = self.base.flags_at(v);
        for (kind, &first) in self.at[v].first.iter().enumerate() {
            if first != NONE && self.decisions[first as usize] == Some(true) {
                flags |= 1 << kind;
            }
        }
        forward(self.inst, v, flags, tag)
    }

    fn start_walk(&mut self, flipped: bool) {
        let tag = if flipped {
            VersionTag::NEW
        } else {
            VersionTag::OLD
        };
        let src = self.src;
        self.path.push(src);
        self.at[src].on_path = true;
        self.walk(src, tag, flipped);
        self.at[src].on_path = false;
        self.path.pop();
    }

    fn walk(&mut self, v: usize, tag: VersionTag, flipped: bool) {
        if self.fail_fast && !self.report.violations.is_empty() {
            return;
        }
        if let Some(t) = self.touched.as_deref_mut() {
            t[v] = true;
        }
        if self.leaves_left == 0 {
            self.report.budget_exhausted = true;
            return;
        }
        // Branch on the first relevant undecided op, if any.
        if let Some(i) = self.first_relevant_undecided(v, tag) {
            for applied in [false, true] {
                self.decisions[i] = Some(applied);
                self.walk(v, tag, flipped);
            }
            self.decisions[i] = None;
            return;
        }
        // Deterministic step.
        let Some(t) = self.effective_next(v, tag, flipped) else {
            return self.leaf(WalkEnd::Blackhole(v));
        };
        self.path.push(t);
        if t == self.dst {
            let via_wp = self.waypoint.is_none_or(|w| self.at[w].on_path);
            self.leaf(WalkEnd::Delivered { via_wp });
        } else if self.at[t].on_path {
            self.leaf(WalkEnd::Looped(t));
        } else {
            self.at[t].on_path = true;
            self.walk(t, tag, flipped);
            self.at[t].on_path = false;
        }
        self.path.pop();
    }

    fn leaf(&mut self, end: WalkEnd) {
        self.leaves_left = self.leaves_left.saturating_sub(1);
        self.report.configs_checked += 1;
        if self.report.violations.len() >= MAX_WITNESSES {
            return;
        }
        let ids = self.inst.participants();
        let (property, outcome) = match end {
            WalkEnd::Blackhole(at) if self.props.contains(Property::BlackholeFreedom) => (
                Property::BlackholeFreedom,
                WalkOutcome::Blackhole { at: ids[at] },
            ),
            WalkEnd::Looped(at) if self.props.contains(Property::RelaxedLoopFreedom) => (
                Property::RelaxedLoopFreedom,
                WalkOutcome::Looped { at: ids[at] },
            ),
            WalkEnd::Delivered { via_wp: false }
                if self.props.contains(Property::WaypointEnforcement) =>
            {
                (
                    Property::WaypointEnforcement,
                    WalkOutcome::Delivered {
                        via_waypoint: false,
                    },
                )
            }
            _ => return,
        };
        let witness = self
            .ops
            .iter()
            .zip(&self.decisions)
            .filter(|(_, d)| **d == Some(true))
            .map(|(op, _)| *op)
            .collect();
        let visited = self.path.iter().map(|&i| ids[i]).collect();
        self.report.violations.push(Violation {
            round: None,
            witness,
            violation: PropertyViolation {
                property,
                kind: ViolationKind::BadWalk(Walk { visited, outcome }),
            },
        });
    }
}

enum WalkEnd {
    Delivered { via_wp: bool },
    Looped(usize),
    Blackhole(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::route::RoutePath;
    use sdn_types::DpId;

    fn inst(old: &[u64], new: &[u64], wp: Option<u64>) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            wp.map(DpId),
        )
        .unwrap()
    }

    #[test]
    fn finds_blackhole_witness() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4)), RuleOp::Activate(DpId(1))];
        let rep = check_round(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        assert!(!rep.is_ok());
        let v = rep
            .violations
            .iter()
            .find(|v| v.violation.property == Property::BlackholeFreedom)
            .expect("blackhole found");
        assert_eq!(v.witness, vec![RuleOp::Activate(DpId(1))]);
    }

    #[test]
    fn accepts_safe_round() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let rep = check_round(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok());
        // walk never reaches 4, so a single leaf suffices
        assert_eq!(rep.configs_checked, 1);
    }

    #[test]
    fn finds_loop_with_consistent_decisions() {
        // old 1-2-3-4, new 1-3-2-4; round {activate 2, activate 3}.
        // Loop witness: 3 applied, 2 not: 1->2->3->2.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(3))];
        let rep = check_round(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        assert!(!rep.is_ok());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.violation.property == Property::RelaxedLoopFreedom));
    }

    #[test]
    fn consistency_no_false_loop() {
        // old 1-2-3, new 1-3: activating just {1}: the walk 1->3 is
        // fine; no branch may use 1's old and new rule simultaneously.
        let i = inst(&[1, 2, 3], &[1, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        let rep = check_round(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok(), "{rep}");
        // two leaves: 1 updated / not
        assert_eq!(rep.configs_checked, 2);
    }

    #[test]
    fn waypoint_bypass_found() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], Some(2));
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(1))];
        let rep = check_round(&i, &base, &ops, &PropertySet::transiently_secure());
        let v = rep
            .violations
            .iter()
            .find(|v| v.violation.property == Property::WaypointEnforcement)
            .expect("bypass found");
        assert_eq!(v.witness, vec![RuleOp::Activate(DpId(1))]);
    }

    #[test]
    fn flip_ingress_branches() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let mut base = ConfigState::initial(&i);
        base.apply(&RuleOp::InstallTagged(DpId(4)));
        let ops = [RuleOp::FlipIngress];
        let rep = check_round(&i, &base, &ops, &PropertySet::all());
        assert!(rep.is_ok(), "{rep}");
        assert_eq!(rep.configs_checked, 2); // flipped / not flipped
    }

    #[test]
    fn flip_without_install_blackholes() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::FlipIngress];
        let rep = check_round(&i, &base, &ops, &PropertySet::loop_free_relaxed());
        assert!(!rep.is_ok());
        assert_eq!(
            rep.violations[0].violation.property,
            Property::BlackholeFreedom
        );
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 3, 2, 4, 5], None);
        let base = ConfigState::initial(&i);
        let ops = [
            RuleOp::Activate(DpId(1)),
            RuleOp::Activate(DpId(2)),
            RuleOp::Activate(DpId(3)),
            RuleOp::Activate(DpId(4)),
        ];
        let rep = WalkBuffers::default().explore(&i, &base, &ops, &PropertySet::all(), 1, None);
        assert!(rep.budget_exhausted);
    }

    #[test]
    fn collecting_reports_visited_switches() {
        // old 1-2-3, new 1-4-3 with only 4 pending: the walk stays on
        // the old route, so 4 is never touched.
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let mut touched = vec![false; i.node_count()];
        let rep = WalkBuffers::default().check_round_collecting(
            &i,
            &base,
            &ops,
            &PropertySet::all(),
            &mut touched,
        );
        assert!(rep.is_ok());
        let was_touched = |v| touched[i.index(DpId(v)).unwrap()];
        assert!(was_touched(1));
        assert!(was_touched(2));
        assert!(!was_touched(4));
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
                let fresh = check_round(&i, &base, &ops, &props);
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
            let wp = None;
            let i = UpdateInstance::new(pair.old.clone(), pair.new.clone(), wp).unwrap();
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
            let exact = check_round(&i, &base, &round_ops, &props).is_ok();
            let brute = check_round_exhaustive(&i, &base, &round_ops, &props).is_ok();
            assert_eq!(
                exact, brute,
                "trial {trial}: mismatch on {i} round {round_ops:?}"
            );
        }
    }
}
