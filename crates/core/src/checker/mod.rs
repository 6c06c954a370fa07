//! Transient-state verification.
//!
//! Given a round-based schedule, the controller guarantees (via
//! barriers) that at any instant the set of applied operations is
//! `rounds[..i]` plus an arbitrary subset of `rounds[i]`. A schedule is
//! correct for a property set iff **every** such configuration
//! satisfies every property.
//!
//! Three verification engines are provided, trading cost for
//! generality:
//!
//! * [`choice_graph`] — polynomial. Exact for strong loop freedom
//!   (a simple cycle in the "choice graph" uses exactly one out-edge
//!   per switch, hence always corresponds to a consistent transient
//!   subset); *conservative* (sound, may over-reject) for the
//!   walk-based properties.
//! * [`decision_walk`] — exact for the walk-based properties
//!   (blackhole, relaxed loop freedom, waypoint enforcement): explores
//!   both rule states of a pending switch the first time the walk
//!   reaches it, so the cost is exponential only in the number of
//!   *choices actually on the walk*.
//! * [`exhaustive`] — brute force over all `2^|round|` subsets; the
//!   reference the other two are cross-validated against in tests.
//!
//! Two whole-schedule verifiers run the exact per-round check (SLF
//! through the choice graph, then the walk properties through the
//! decision walk) and the final-configuration check:
//! [`verify_schedule`] on every round, from scratch;
//! [`verify_schedule_incremental`] only on the rounds a cross-round
//! [`AdmissionProbe`] session rejects, so the two report identical
//! violations. [`round_admissible`] exposes the per-round machinery as
//! a *stateless* safety oracle, and [`incremental::AdmissionProbe`] is
//! its stateful session form: the greedy schedulers open one probe per
//! round and grow the candidate set one operation at a time against
//! incrementally maintained choice-graph, cycle-detection and walk
//! state — the decisions are identical (cross-validated in
//! `tests/checker_cross_validation.rs`), the cost per probe drops from
//! a full re-verification to amortized polylogarithmic work.

pub mod choice_graph;
pub mod decision_walk;
pub mod exhaustive;
pub mod incremental;

pub use incremental::AdmissionProbe;

use std::fmt;

use crate::config::ConfigState;
use crate::model::UpdateInstance;
use crate::properties::{check_config, Property, PropertySet, PropertyViolation};
use crate::schedule::{RuleOp, Schedule};

pub use crate::properties::ViolationKind;

/// A violation found while verifying a schedule: the round, the
/// witnessing subset of that round's operations, and the property
/// evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Round index (0-based) in which the violation occurs; `None`
    /// means the *final* configuration is wrong.
    pub round: Option<usize>,
    /// The subset of the round's operations applied in the witness
    /// configuration.
    pub witness: Vec<RuleOp>,
    /// What went wrong.
    pub violation: PropertyViolation,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.round {
            Some(r) => write!(f, "round {} with {{", r + 1)?,
            None => write!(f, "final config with {{")?,
        }
        for (i, op) in self.witness.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}} applied: {}", self.violation)
    }
}

/// Outcome of verifying a schedule.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All violations found (empty means the schedule is correct).
    pub violations: Vec<Violation>,
    /// Set when the schedule is structurally invalid (duplicate ops,
    /// wrong roles, kind mismatch); no transient analysis is run then.
    pub structural_error: Option<String>,
    /// Number of concrete configurations examined.
    pub configs_checked: u64,
    /// Number of rounds examined.
    pub rounds_checked: usize,
    /// Set when an exact engine hit its exploration budget; the report
    /// is then only complete up to the budget.
    pub budget_exhausted: bool,
}

impl CheckReport {
    /// Whether the schedule passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.structural_error.is_none()
    }

    fn merge(&mut self, other: CheckReport) {
        self.violations.extend(other.violations);
        self.configs_checked += other.configs_checked;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(e) = &self.structural_error {
            return write!(f, "structurally invalid schedule: {e}");
        }
        if self.is_ok() {
            write!(
                f,
                "OK ({} rounds, {} configurations checked)",
                self.rounds_checked, self.configs_checked
            )
        } else {
            writeln!(
                f,
                "{} violation(s) over {} rounds / {} configurations:",
                self.violations.len(),
                self.rounds_checked,
                self.configs_checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Verify a schedule against a property set, using the exact engines.
///
/// The walk-based properties are checked with [`decision_walk`]
/// (exact); strong loop freedom with [`choice_graph`] (exact). The
/// final configuration is additionally required to deliver along the
/// new route (and via the waypoint, when one is set).
pub fn verify_schedule(
    inst: &UpdateInstance,
    schedule: &Schedule,
    props: PropertySet,
) -> CheckReport {
    let mut report = CheckReport::default();
    if let Err(e) = schedule.validate(inst) {
        report.structural_error = Some(e.to_string());
        return report;
    }

    let mut base = ConfigState::initial(inst);
    for (ri, round) in schedule.rounds.iter().enumerate() {
        report.rounds_checked += 1;
        check_round_exact(inst, &base, &round.ops, ri, &props, &mut report);
        base.apply_all(&round.ops);
    }

    final_config_checks(inst, &base, &props, &mut report);
    report
}

/// The exact check of round `ri` on `base`, merged into `report`:
/// strong loop freedom through [`choice_graph::check_round_slf`], then
/// the walk properties through [`decision_walk::check_round`], every
/// violation stamped with the round index.
fn check_round_exact(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    ops: &[RuleOp],
    ri: usize,
    props: &PropertySet,
    report: &mut CheckReport,
) {
    let mut merge = |mut sub: CheckReport| {
        for v in &mut sub.violations {
            v.round = Some(ri);
        }
        report.merge(sub);
    };
    if props.contains(Property::StrongLoopFreedom) {
        merge(choice_graph::check_round_slf(inst, base, ops));
    }
    let walk_props = props.without(Property::StrongLoopFreedom);
    if !walk_props.is_empty() {
        merge(decision_walk::check_round(inst, base, ops, &walk_props));
    }
}

/// Final-configuration checks shared by both whole-schedule verifiers:
/// all properties must hold, and the packet must follow the *new*
/// route (policy conformance).
fn final_config_checks(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    props: &PropertySet,
    report: &mut CheckReport,
) {
    report.configs_checked += 1;
    for pv in check_config(base, props) {
        report.violations.push(Violation {
            round: None,
            witness: Vec::new(),
            violation: pv,
        });
    }
    let final_walk = base.walk();
    let expected: Vec<_> = inst.new_route().hops().to_vec();
    if final_walk.visited != expected {
        report.violations.push(Violation {
            round: None,
            witness: Vec::new(),
            violation: PropertyViolation {
                property: Property::RelaxedLoopFreedom,
                kind: ViolationKind::BadWalk(final_walk),
            },
        });
    }
}

/// Incremental whole-schedule verification: round-to-round state reuse
/// instead of `verify_schedule`'s per-round rebuilds.
///
/// One exact-mode [`AdmissionProbe`] session is carried across the
/// whole schedule. Each round's operations are pushed into it one by
/// one. If every push is admitted, the round as a whole is exactly safe
/// (the admitted set *is* the round). If any push is rejected, the
/// round is provably unsafe — a round's transient states are all
/// subsets of its operation set, so the subset that made the push
/// inadmissible is a transient state of the full round too — and the
/// round is re-checked by the stateless engines to reconstruct the
/// exact violation witnesses, which makes the reported violations
/// **identical** to [`verify_schedule`]'s. Either way the session then
/// advances past the *full* round (violating schedules apply their
/// rounds regardless), reusing the maintained topological order,
/// touched sets and reach caches, so verifying an n-round schedule
/// costs O(total deltas · polylog) instead of O(rounds × n).
///
/// The stateless verifier remains the cross-validation reference
/// (`checker_cross_validation.rs`). `configs_checked` counts probe
/// evaluations rather than explored leaves, so only the verdict and
/// violations are comparable between the two verifiers.
pub fn verify_schedule_incremental(
    inst: &UpdateInstance,
    schedule: &Schedule,
    props: PropertySet,
) -> CheckReport {
    let mut report = CheckReport::default();
    if let Err(e) = schedule.validate(inst) {
        report.structural_error = Some(e.to_string());
        return report;
    }
    let initial = ConfigState::initial(inst);
    let mut session = AdmissionProbe::open(inst, &initial, props, OracleMode::Exact);
    for (ri, round) in schedule.rounds.iter().enumerate() {
        report.rounds_checked += 1;
        if !round.ops.iter().all(|&op| session.try_push(op)) {
            check_round_exact(inst, session.base(), &round.ops, ri, &props, &mut report);
        }
        session.advance(&round.ops);
    }
    // Probes are the incremental analogue of examined configurations.
    report.configs_checked += session.probes();
    report.budget_exhausted |= session.walk_budget_exhausted();
    final_config_checks(inst, session.base(), &props, &mut report);
    report
}

/// Oracle mode for the greedy schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// Polynomial conservative check (sound; may reject safe sets).
    Conservative,
    /// Exact check (decision walk + choice graph).
    #[default]
    Exact,
}

/// Would dispatching `candidate_ops` as the next round (after `base`)
/// preserve `props` in every transient state?
///
/// With [`OracleMode::Conservative`] the answer `true` is always
/// trustworthy, `false` may be spurious. With [`OracleMode::Exact`]
/// both answers are exact.
pub fn round_admissible(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    candidate_ops: &[RuleOp],
    props: &PropertySet,
    mode: OracleMode,
) -> bool {
    match mode {
        OracleMode::Conservative => {
            choice_graph::round_safe_conservative(inst, base, candidate_ops, props)
        }
        OracleMode::Exact => {
            if props.contains(Property::StrongLoopFreedom)
                && !choice_graph::check_round_slf(inst, base, candidate_ops).is_ok()
            {
                return false;
            }
            let walk_props = props.without(Property::StrongLoopFreedom);
            if walk_props.is_empty() {
                return true;
            }
            decision_walk::check_round(inst, base, candidate_ops, &walk_props).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Round;
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
    fn verify_accepts_safe_two_round_schedule() {
        // old 1-2-3, new 1-4-3: install 4, then activate 1, cleanup 2.
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let s = Schedule::replacement(
            "manual",
            vec![
                Round::new(vec![RuleOp::Activate(DpId(4))]),
                Round::new(vec![RuleOp::Activate(DpId(1))]),
                Round::new(vec![RuleOp::RemoveOld(DpId(2))]),
            ],
        );
        let r = verify_schedule(&i, &s, PropertySet::all());
        assert!(r.is_ok(), "{r}");
        assert_eq!(r.rounds_checked, 3);
    }

    #[test]
    fn verify_rejects_one_shot_blackhole() {
        // Installing 4 and flipping 1 in the same round exposes the
        // transient where 1 is updated but 4 is not: blackhole at 4.
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let s = Schedule::replacement(
            "oneshot",
            vec![Round::new(vec![
                RuleOp::Activate(DpId(4)),
                RuleOp::Activate(DpId(1)),
            ])],
        );
        let r = verify_schedule(&i, &s, PropertySet::all());
        assert!(!r.is_ok());
        assert!(r
            .violations
            .iter()
            .any(|v| v.violation.property == Property::BlackholeFreedom));
        // witness must contain activate(1) but not activate(4)
        let w = r
            .violations
            .iter()
            .find(|v| v.violation.property == Property::BlackholeFreedom)
            .unwrap();
        assert!(w.witness.contains(&RuleOp::Activate(DpId(1))));
        assert!(!w.witness.contains(&RuleOp::Activate(DpId(4))));
    }

    #[test]
    fn verify_flags_incomplete_final_config() {
        // Schedule forgets to activate the source: final walk stays on
        // the old route.
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let s = Schedule::replacement(
            "incomplete",
            vec![Round::new(vec![RuleOp::Activate(DpId(4))])],
        );
        let r = verify_schedule(&i, &s, PropertySet::all());
        assert!(!r.is_ok());
        assert!(r.violations.iter().any(|v| v.round.is_none()));
    }

    #[test]
    fn round_admissible_exact_vs_conservative_agree_on_simple() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let props = PropertySet::all();
        assert!(round_admissible(&i, &base, &ops, &props, OracleMode::Exact));
        assert!(round_admissible(
            &i,
            &base,
            &ops,
            &props,
            OracleMode::Conservative
        ));
        let bad = [RuleOp::Activate(DpId(4)), RuleOp::Activate(DpId(1))];
        assert!(!round_admissible(
            &i,
            &base,
            &bad,
            &props,
            OracleMode::Exact
        ));
        assert!(!round_admissible(
            &i,
            &base,
            &bad,
            &props,
            OracleMode::Conservative
        ));
    }

    #[test]
    fn report_display() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let s = Schedule::replacement(
            "manual",
            vec![
                Round::new(vec![RuleOp::Activate(DpId(4))]),
                Round::new(vec![RuleOp::Activate(DpId(1))]),
            ],
        );
        let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
        assert!(r.to_string().starts_with("OK"));
    }

    /// Every scheduler's schedule on two instances, verified by both
    /// whole-schedule verifiers: rounds, configurations, budget flag
    /// (stateless/incremental) and the text of every violation.
    fn golden_report() -> String {
        use crate::algorithms::{
            OneShot, Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp,
        };
        use std::fmt::Write;

        let rev = sdn_topo::gen::reversal(8);
        let rev = UpdateInstance::new(rev.old, rev.new, None).unwrap();
        let wp = sdn_topo::gen::waypointed(11, true, &mut sdn_types::DetRng::new(0x77));
        let wp = UpdateInstance::new(wp.old, wp.new, wp.waypoint).unwrap();
        let relaxed = ("relaxed", PropertySet::loop_free_relaxed());
        let strong = ("strong", PropertySet::loop_free_strong());
        let secure = ("secure", PropertySet::transiently_secure());
        let all = ("all", PropertySet::all());
        type Case<'a> = (
            &'a str,
            &'a dyn UpdateScheduler,
            &'a [(&'a str, PropertySet)],
        );
        let schedulers: [Case<'_>; 5] = [
            ("oneshot", &OneShot, &[relaxed, all]),
            ("two-phase", &TwoPhaseCommit, &[all]),
            ("slf-greedy", &SlfGreedy::default(), &[strong]),
            ("peacock", &Peacock::default(), &[relaxed]),
            ("wayup", &WayUp::default(), &[secure, all]),
        ];
        let mut out = String::new();
        for (iname, inst) in [("reversal8", &rev), ("waypointed11", &wp)] {
            for (sname, scheduler, prop_sets) in schedulers {
                let s = match scheduler.schedule(inst) {
                    Ok(s) => s,
                    Err(e) => {
                        writeln!(out, "{iname} {sname}: {e}").unwrap();
                        continue;
                    }
                };
                for &(pname, props) in prop_sets {
                    let a = verify_schedule(inst, &s, props);
                    let b = verify_schedule_incremental(inst, &s, props);
                    assert_eq!(a.violations, b.violations, "{iname} {sname} {pname}");
                    writeln!(
                        out,
                        "{iname} {sname} {pname}: rounds {}/{} configs {}/{} budget {}/{}",
                        a.rounds_checked,
                        b.rounds_checked,
                        a.configs_checked,
                        b.configs_checked,
                        a.budget_exhausted,
                        b.budget_exhausted
                    )
                    .unwrap();
                    for v in &a.violations {
                        writeln!(out, "  {v}").unwrap();
                    }
                }
            }
        }
        out
    }

    /// Recorded before the checker's entry points were consolidated;
    /// a refactor of either verifier must leave every line alone.
    #[test]
    fn golden_verifier_counts() {
        let got = golden_report();
        let want = include_str!("verifier_golden.txt");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "verifier_golden.txt line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }
}
