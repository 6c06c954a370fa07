//! Transient-state verification.
//!
//! Given a round-based schedule, the controller guarantees (via
//! barriers) that at any instant the set of applied operations is
//! `rounds[..i]` plus an arbitrary subset of `rounds[i]`. A schedule is
//! correct for a property set iff **every** such configuration
//! satisfies every property.
//!
//! One polynomial engine answers that for every property:
//!
//! * [`choice_graph`] — per tag class, the graph of every rule edge a
//!   switch could expose while the round is in flight. A switch's rule
//!   state depends only on its own operations, so every simple path,
//!   lasso and cycle of that graph is a consistent transient state:
//!   strong loop freedom is acyclicity, and the walk properties
//!   (blackhole, relaxed loop freedom, waypoint enforcement) are
//!   reachability from the source — exact, in time linear in the
//!   switches reached.
//! * [`exhaustive`] — brute force over all `2^|round|` subsets; the
//!   reference the choice graph is cross-validated against in tests.
//!
//! One whole-schedule verifier, [`verify_schedule`], checks every round
//! — the walk properties through [`choice_graph::check_round_walks`]'s
//! searches on buffers kept across rounds, strong loop freedom through
//! a cross-round [`AdmissionProbe`] session that rebuilds the class
//! graphs only on the rounds it rejects, for their witnesses — and the
//! final configuration. [`round_admissible`] is the per-round check as
//! a *stateless* safety oracle, and [`incremental::AdmissionProbe`] is
//! its stateful session form: the greedy schedulers grow each round's
//! candidate set one operation at a time against incrementally
//! maintained class graphs, reach sets and topological orders — the
//! decisions are identical (cross-validated in
//! `tests/checker_cross_validation.rs`), the cost per probe drops from
//! a full re-check to the region the candidate affects.

pub mod choice_graph;
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
    /// Number of checks made. The walk properties count one per switch
    /// a round's searches reached — per tag class, once for blackholes
    /// and loops and once more avoiding the waypoint; each such switch
    /// stands for every transient state whose packet gets there — and
    /// one for the final configuration. Under strong loop freedom it
    /// also counts one per operation pushed into the cross-round
    /// session (each push is one probe of a candidate set) and one per
    /// tag-class choice graph rebuilt on a rejected round. (The
    /// exhaustive reference counts one per subset.)
    pub configs_checked: u64,
    /// Number of rounds examined.
    pub rounds_checked: usize,
}

impl CheckReport {
    /// Whether the schedule passed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.structural_error.is_none()
    }

    fn merge(&mut self, other: CheckReport) {
        self.violations.extend(other.violations);
        self.configs_checked += other.configs_checked;
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

/// Verify a schedule against a property set.
///
/// The walk-based properties are checked round by round with
/// [`choice_graph::check_round_walks`]'s searches, on buffers kept
/// across the rounds. Strong loop freedom is checked through one
/// SLF-only [`AdmissionProbe`] carried across the whole schedule: each round's operations are pushed into it one by
/// one, and a round whose every push is admitted is safe (the admitted
/// set *is* the round). A rejected push proves the round unsafe — every
/// transient state of the pushed prefix is one of the round's — and
/// only then is the round rebuilt by [`choice_graph::check_round_slf`]
/// (exact) for its violation witnesses. Either way the session then
/// advances past the full round, reusing its class graphs and
/// topological order, so an n-round SLF schedule costs O(total deltas ·
/// polylog) instead of a choice-graph rebuild per round. Without strong
/// loop freedom no session is opened. A round's SLF violations are
/// reported before its walk violations. The final configuration is
/// additionally required to deliver along the new route (and via the
/// waypoint, when one is set).
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
    let slf = PropertySet::none().with(Property::StrongLoopFreedom);
    let mut session = props
        .contains(Property::StrongLoopFreedom)
        .then(|| AdmissionProbe::open(inst, &base, slf));
    let walk_props = props.without(Property::StrongLoopFreedom);
    let mut walks = choice_graph::WalkBuffers::default();
    for (ri, round) in schedule.rounds.iter().enumerate() {
        report.rounds_checked += 1;
        let mut merge = |mut sub: CheckReport| {
            for v in &mut sub.violations {
                v.round = Some(ri);
            }
            report.merge(sub);
        };
        if let Some(session) = &mut session {
            if !round.ops.iter().all(|&op| session.try_push(op)) {
                merge(choice_graph::check_round_slf(inst, &base, &round.ops));
            }
            session.advance(&round.ops);
        }
        if !walk_props.is_empty() {
            merge(walks.check_round(inst, &base, &round.ops, &walk_props));
        }
        base.apply_all(&round.ops);
    }
    report.configs_checked += session.map_or(0, |s| s.probes());

    // The final configuration: every property must hold, and the
    // packet must follow the *new* route (policy conformance).
    report.configs_checked += 1;
    for pv in check_config(&base, &props) {
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
    report
}

/// Would dispatching `candidate_ops` as the next round (after `base`)
/// preserve `props` in every transient state? Exact: strong loop
/// freedom through [`choice_graph::check_round_slf`], the walk
/// properties through [`choice_graph::check_round_walks`].
pub fn round_admissible(
    inst: &UpdateInstance,
    base: &ConfigState<'_>,
    candidate_ops: &[RuleOp],
    props: &PropertySet,
) -> bool {
    if props.contains(Property::StrongLoopFreedom)
        && !choice_graph::check_round_slf(inst, base, candidate_ops).is_ok()
    {
        return false;
    }
    let walk_props = props.without(Property::StrongLoopFreedom);
    walk_props.is_empty()
        || choice_graph::check_round_walks(inst, base, candidate_ops, &walk_props).is_ok()
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
    fn round_admissible_on_simple() {
        let i = inst(&[1, 2, 3], &[1, 4, 3], None);
        let base = ConfigState::initial(&i);
        let ops = [RuleOp::Activate(DpId(4))];
        let props = PropertySet::all();
        assert!(round_admissible(&i, &base, &ops, &props));
        let bad = [RuleOp::Activate(DpId(4)), RuleOp::Activate(DpId(1))];
        assert!(!round_admissible(&i, &base, &bad, &props));
    }

    /// Two-phase commit's rounds on a reversal leave every switch with
    /// several pending operations at once; the check reaches each
    /// switch a bounded number of times per round, so it completes and
    /// its count grows linearly in n.
    #[test]
    fn two_phase_verifies_reversals_in_linear_checks() {
        use crate::algorithms::{TwoPhaseCommit, UpdateScheduler};
        let checks = |n: u64| {
            let pair = sdn_topo::gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let s = TwoPhaseCommit.schedule(&i).unwrap();
            let r = verify_schedule(&i, &s, PropertySet::transiently_secure());
            assert!(r.is_ok(), "n={n}: {r}");
            r.configs_checked
        };
        let (small, large) = (checks(512), checks(1024));
        assert!(small >= 512, "the count counts: {small}");
        assert!(large <= 2 * small + 8, "{small} @512 -> {large} @1024");
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

    /// Every scheduler's schedule on two instances, verified: rounds,
    /// checks and the text of every violation.
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
            ("slf-greedy", &SlfGreedy, &[strong]),
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
                    let r = verify_schedule(inst, &s, props);
                    writeln!(
                        out,
                        "{iname} {sname} {pname}: rounds {} configs {}",
                        r.rounds_checked, r.configs_checked
                    )
                    .unwrap();
                    for v in &r.violations {
                        writeln!(out, "  {v}").unwrap();
                    }
                }
            }
        }
        out
    }

    /// Recorded before the checker's entry points were consolidated
    /// (the configuration counts of the SLF rows re-recorded when
    /// strong loop freedom moved to the cross-round session, the two
    /// `waypointed11 wayup` rows when WayUp's single greedy pass found
    /// a replacement schedule for that crossing instance instead of
    /// falling back, and every count and walk witness when the choice
    /// graph's searches replaced the decision tree — one witness per
    /// tag class and property, over the same (round, property) pairs);
    /// a refactor of the verifier must leave every line alone.
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
