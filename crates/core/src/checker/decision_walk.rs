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

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use sdn_types::{DpId, VersionTag};

use crate::config::{ConfigState, Walk, WalkOutcome};
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet, PropertyViolation, ViolationKind};
use crate::schedule::RuleOp;

use super::{CheckReport, Violation};

/// Default bound on explored decision leaves per round.
pub const DEFAULT_LEAF_BUDGET: u64 = 1 << 20;

/// Maximum violation witnesses recorded per round.
const MAX_WITNESSES: usize = 16;

/// Exact check of one round for the walk-based properties in `props`
/// (StrongLoopFreedom is ignored here; see
/// [`choice_graph::check_round_slf`](super::choice_graph::check_round_slf)).
pub fn check_round(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
) -> CheckReport {
    check_round_with_budget(inst, base, ops, props, DEFAULT_LEAF_BUDGET)
}

/// [`check_round`] with an explicit leaf budget.
fn check_round_with_budget(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
    leaf_budget: u64,
) -> CheckReport {
    explore(inst, base, ops, props, leaf_budget, false, None)
}

/// [`check_round_with_budget`] that additionally records, into
/// `touched`, every switch any explored branch visited. The stateful
/// [`super::incremental::AdmissionProbe`] uses this set to skip
/// re-exploration for candidate operations at switches no walk can
/// reach: behaviour at unvisited switches cannot influence any branch,
/// so both the verdict and the touched set are provably unchanged.
///
/// With `fail_fast`, exploration stops at the first violating leaf —
/// the probe session only needs a verdict, not witnesses. The touched
/// set is then truncated, which is sound for the session's memo: a
/// failing verdict rejects every further candidate regardless of the
/// touched set (any superset round still contains the violating
/// transient subset), and a passing verdict never fails fast.
pub(crate) fn check_round_collecting(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
    leaf_budget: u64,
    fail_fast: bool,
    touched: &mut BTreeSet<DpId>,
) -> CheckReport {
    explore(
        inst,
        base,
        ops,
        props,
        leaf_budget,
        fail_fast,
        Some(touched),
    )
}

/// Per-switch index of the round's operations, preserving ops order,
/// so the walk resolves "which pending ops matter at `v`" in O(log n)
/// instead of rescanning the whole round per step.
struct OpIndex {
    by_switch: BTreeMap<DpId, SwitchOps>,
}

#[derive(Default, Clone)]
struct SwitchOps {
    /// Indices into `ops` touching this switch, ascending.
    list: Vec<usize>,
    /// First index of each op kind at this switch, if present.
    activate: Option<usize>,
    remove: Option<usize>,
    tagged: Option<usize>,
}

impl OpIndex {
    fn build(ops: &[RuleOp]) -> Self {
        let mut by_switch: BTreeMap<DpId, SwitchOps> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let Some(v) = op.switch() else { continue };
            let entry = by_switch.entry(v).or_default();
            entry.list.push(i);
            let slot = match op {
                RuleOp::Activate(_) => &mut entry.activate,
                RuleOp::RemoveOld(_) => &mut entry.remove,
                RuleOp::InstallTagged(_) => &mut entry.tagged,
                RuleOp::FlipIngress => unreachable!("has no switch"),
            };
            if slot.is_none() {
                *slot = Some(i);
            }
        }
        OpIndex { by_switch }
    }

    fn at(&self, v: DpId) -> Option<&SwitchOps> {
        self.by_switch.get(&v)
    }
}

fn explore(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    props: &PropertySet,
    leaf_budget: u64,
    fail_fast: bool,
    touched: Option<&mut BTreeSet<DpId>>,
) -> CheckReport {
    let mut ex = Explorer {
        inst,
        base,
        ops,
        index: OpIndex::build(ops),
        props,
        report: CheckReport::default(),
        leaves_left: leaf_budget,
        fail_fast,
        touched,
    };
    let mut decisions: Vec<Option<bool>> = vec![None; ops.len()];

    // The ingress flip (if pending) is the first decision: it selects
    // the packet's tag class.
    match ops.iter().position(|o| matches!(o, RuleOp::FlipIngress)) {
        Some(fi) if !ex.base.is_flipped() => {
            for applied in [false, true] {
                decisions[fi] = Some(applied);
                ex.start_walk(&mut decisions);
            }
            decisions[fi] = None;
        }
        _ => ex.start_walk(&mut decisions),
    }
    ex.report
}

struct Explorer<'a, 'b, 'c> {
    inst: &'a UpdateInstance,
    base: &'b ConfigState<'a>,
    ops: &'b [RuleOp],
    index: OpIndex,
    props: &'b PropertySet,
    report: CheckReport,
    leaves_left: u64,
    fail_fast: bool,
    touched: Option<&'c mut BTreeSet<DpId>>,
}

impl Explorer<'_, '_, '_> {
    fn decided(&self, decisions: &[Option<bool>], op: RuleOp) -> Option<bool> {
        if let RuleOp::FlipIngress = op {
            return self
                .ops
                .iter()
                .position(|o| matches!(o, RuleOp::FlipIngress))
                .and_then(|i| decisions[i]);
        }
        let v = op.switch().expect("non-flip op names a switch");
        let sw = self.index.at(v)?;
        let first = match op {
            RuleOp::Activate(_) => sw.activate,
            RuleOp::RemoveOld(_) => sw.remove,
            RuleOp::InstallTagged(_) => sw.tagged,
            RuleOp::FlipIngress => unreachable!(),
        };
        first.and_then(|i| decisions[i])
    }

    /// First pending, undecided op (in round order) that influences
    /// forwarding at `v` for tag class `tag`.
    fn first_relevant_undecided(
        &self,
        decisions: &[Option<bool>],
        v: DpId,
        tag: VersionTag,
    ) -> Option<usize> {
        let sw = self.index.at(v)?;
        sw.list.iter().copied().find(|&i| {
            decisions[i].is_none()
                && match self.ops[i] {
                    RuleOp::Activate(_) | RuleOp::RemoveOld(_) => true,
                    RuleOp::InstallTagged(_) => tag == VersionTag::NEW,
                    RuleOp::FlipIngress => false, // decided up front
                }
        })
    }

    /// Forwarding at `v` once every relevant op is decided.
    fn effective_next(
        &self,
        decisions: &[Option<bool>],
        v: DpId,
        tag: VersionTag,
        flipped: bool,
    ) -> Option<DpId> {
        if v == self.inst.dst() {
            return None;
        }
        if v == self.inst.src() && flipped {
            return self.inst.new_next(v);
        }
        let activated =
            self.base.is_activated(v) || self.decided(decisions, RuleOp::Activate(v)) == Some(true);
        let removed = self.base.is_old_removed(v)
            || self.decided(decisions, RuleOp::RemoveOld(v)) == Some(true);
        let tagged = self.base.is_tagged_installed(v)
            || self.decided(decisions, RuleOp::InstallTagged(v)) == Some(true);
        if tag == VersionTag::NEW && tagged {
            return self.inst.new_next(v);
        }
        if activated {
            return self.inst.new_next(v);
        }
        if removed {
            return None;
        }
        self.inst.old_next(v)
    }

    fn start_walk(&mut self, decisions: &mut Vec<Option<bool>>) {
        let src = self.inst.src();
        let flipped =
            self.base.is_flipped() || self.decided(decisions, RuleOp::FlipIngress) == Some(true);
        let tag = if flipped {
            VersionTag::NEW
        } else {
            VersionTag::OLD
        };
        let mut visited = vec![src];
        self.walk(src, tag, flipped, &mut visited, decisions);
    }

    fn walk(
        &mut self,
        v: DpId,
        tag: VersionTag,
        flipped: bool,
        visited: &mut Vec<DpId>,
        decisions: &mut Vec<Option<bool>>,
    ) {
        if self.fail_fast && !self.report.violations.is_empty() {
            return;
        }
        if let Some(t) = self.touched.as_deref_mut() {
            t.insert(v);
        }
        if self.leaves_left == 0 {
            self.report.budget_exhausted = true;
            return;
        }
        // Branch on the first relevant undecided op, if any.
        if let Some(i) = self.first_relevant_undecided(decisions, v, tag) {
            for applied in [false, true] {
                decisions[i] = Some(applied);
                self.walk(v, tag, flipped, visited, decisions);
            }
            decisions[i] = None;
            return;
        }
        // Deterministic step.
        match self.effective_next(decisions, v, tag, flipped) {
            None => {
                self.leaf(decisions, visited, WalkEnd::Blackhole(v), visited.clone());
            }
            Some(t) => {
                visited.push(t);
                if t == self.inst.dst() {
                    let via_wp = self
                        .inst
                        .waypoint()
                        .map(|w| visited.contains(&w))
                        .unwrap_or(true);
                    let snapshot = visited.clone();
                    self.leaf(decisions, visited, WalkEnd::Delivered { via_wp }, snapshot);
                } else if visited[..visited.len() - 1].contains(&t) {
                    let snapshot = visited.clone();
                    self.leaf(decisions, visited, WalkEnd::Looped(t), snapshot);
                } else {
                    self.walk(t, tag, flipped, visited, decisions);
                }
                visited.pop();
            }
        }
    }

    fn leaf(
        &mut self,
        decisions: &[Option<bool>],
        _visited: &mut Vec<DpId>,
        end: WalkEnd,
        snapshot: Vec<DpId>,
    ) {
        self.leaves_left = self.leaves_left.saturating_sub(1);
        self.report.configs_checked += 1;
        if self.report.violations.len() >= MAX_WITNESSES {
            return;
        }
        let witness: Vec<RuleOp> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| decisions[*i] == Some(true))
            .map(|(_, op)| *op)
            .collect();
        let violation = match end {
            WalkEnd::Blackhole(at) if self.props.contains(Property::BlackholeFreedom) => {
                Some(PropertyViolation {
                    property: Property::BlackholeFreedom,
                    kind: ViolationKind::BadWalk(Walk {
                        visited: snapshot,
                        outcome: WalkOutcome::Blackhole { at },
                    }),
                })
            }
            WalkEnd::Looped(at) if self.props.contains(Property::RelaxedLoopFreedom) => {
                Some(PropertyViolation {
                    property: Property::RelaxedLoopFreedom,
                    kind: ViolationKind::BadWalk(Walk {
                        visited: snapshot,
                        outcome: WalkOutcome::Looped { at },
                    }),
                })
            }
            WalkEnd::Delivered { via_wp: false }
                if self.props.contains(Property::WaypointEnforcement) =>
            {
                Some(PropertyViolation {
                    property: Property::WaypointEnforcement,
                    kind: ViolationKind::BadWalk(Walk {
                        visited: snapshot,
                        outcome: WalkOutcome::Delivered {
                            via_waypoint: false,
                        },
                    }),
                })
            }
            _ => None,
        };
        if let Some(violation) = violation {
            self.report.violations.push(Violation {
                round: None,
                witness,
                violation,
            });
        }
    }
}

enum WalkEnd {
    Delivered { via_wp: bool },
    Looped(DpId),
    Blackhole(DpId),
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
        let rep = check_round_with_budget(&i, &base, &ops, &PropertySet::all(), 1);
        assert!(rep.budget_exhausted);
    }

    #[test]
    fn collecting_reports_visited_switches() {
        // old 1-2-3, new 1-4-3 with only 4 pending: the walk stays on
        // the old route, so 4 is never touched.
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let mut touched = BTreeSet::new();
        let rep = check_round_collecting(
            &i,
            &base,
            &ops,
            &PropertySet::all(),
            DEFAULT_LEAF_BUDGET,
            false,
            &mut touched,
        );
        assert!(rep.is_ok());
        assert!(touched.contains(&DpId(1)));
        assert!(touched.contains(&DpId(2)));
        assert!(!touched.contains(&DpId(4)));
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
