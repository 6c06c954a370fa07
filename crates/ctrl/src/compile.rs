//! Compile abstract schedules into concrete FlowMods.
//!
//! The scheduling layer speaks in switches and rule swaps; the data
//! plane speaks in matches, priorities and ports. This module bridges
//! them for one unidirectional flow (the demo's h1 → h2):
//!
//! | rule                    | priority | match                  | actions                   |
//! |-------------------------|----------|------------------------|----------------------------|
//! | baseline routing        | 100      | dst = h2               | output(next hop)           |
//! | two-phase tagged        | 200      | dst = h2, tag = NEW    | output(new next hop)       |
//! | two-phase ingress flip  | 300      | dst = h2               | set-tag(NEW), output(new)  |
//!
//! `Activate` replaces the baseline rule in place (same match +
//! priority ⇒ OpenFlow Add-replace, atomic per switch); `RemoveOld`
//! deletes it; tagged rules sit at higher priority so flipping the
//! ingress atomically moves the whole path, per Reitblatt. Tagged
//! packets reaching the destination match its baseline rule (tag
//! wildcard) and are delivered still tagged; hosts ignore tags.

use std::fmt;

use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
use sdn_topo::algo::route_latency;
use sdn_topo::graph::Topology;
use sdn_topo::route::RoutePath;
use sdn_types::{DpId, HostId, PortNo, SimDuration, VersionTag};
use update_core::model::UpdateInstance;
use update_core::schedule::{RuleOp, Schedule};

/// Priority of baseline routing rules.
pub const BASE_PRIORITY: u16 = 100;
/// Priority of NEW-tagged rules (two-phase commit).
pub const TAGGED_PRIORITY: u16 = 200;
/// Priority of the ingress flip rule.
pub const FLIP_PRIORITY: u16 = 300;

/// Cookie marking baseline (old-generation) rules.
pub const OLD_COOKIE: u64 = 0x1;
/// Cookie marking replacement (new-generation) rules.
pub const NEW_COOKIE: u64 = 0x2;
/// Cookie marking two-phase tagged rules.
pub const TAG_COOKIE: u64 = 0x3;
/// Cookie marking the ingress flip rule.
pub const FLIP_COOKIE: u64 = 0x4;

/// The flow being updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host (h1 in the demo).
    pub src: HostId,
    /// Destination host (h2 in the demo).
    pub dst: HostId,
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Two consecutive route switches are not linked.
    MissingLink(DpId, DpId),
    /// The destination host is not attached where the route ends.
    BadHostAttachment(HostId, DpId),
    /// The host does not exist in the topology.
    UnknownHost(HostId),
    /// A rule operation names a switch the topology lacks.
    UnknownSwitch(DpId),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::MissingLink(a, b) => write!(f, "no link {a} -> {b}"),
            CompileError::BadHostAttachment(h, dp) => {
                write!(f, "host {h} is not attached to {dp}")
            }
            CompileError::UnknownHost(h) => write!(f, "unknown host {h}"),
            CompileError::UnknownSwitch(dp) => write!(f, "unknown switch {dp}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One lowered round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledRound {
    /// The messages for each switch (a switch may receive several).
    pub msgs: Vec<(DpId, OfMessage)>,
    /// Grace period the executor must wait *before* dispatching this
    /// round. Non-zero on rule-removing (cleanup) rounds: packets that
    /// entered the network before the previous round completed may
    /// still be traversing the old rules, and deleting those rules
    /// under them would blackhole traffic the static analysis already
    /// proved safe. Reitblatt-style garbage collection.
    pub pre_delay: SimDuration,
}

/// A schedule lowered to per-round FlowMods.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUpdate {
    /// Human-readable label: the algorithm, the route's end switches
    /// and its length — bounded, whatever the route.
    pub label: String,
    /// The rounds.
    pub rounds: Vec<CompiledRound>,
}

impl CompiledUpdate {
    /// Number of rounds.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total FlowMods.
    pub fn message_count(&self) -> usize {
        self.rounds.iter().map(|r| r.msgs.len()).sum()
    }
}

/// Drain grace before cleanup rounds: several end-to-end traversals of
/// either route, plus slack. Adapts to the topology's latency scale.
pub fn cleanup_grace(topo: &Topology, inst: &UpdateInstance) -> SimDuration {
    let old = route_latency(topo, inst.old()).unwrap_or(SimDuration::from_millis(5));
    let new = route_latency(topo, inst.new_route()).unwrap_or(SimDuration::from_millis(5));
    (old + new).saturating_mul(8) + SimDuration::from_millis(10)
}

fn egress(topo: &Topology, from: DpId, to: DpId) -> Result<PortNo, CompileError> {
    topo.egress_port(from, to)
        .ok_or(CompileError::MissingLink(from, to))
}

fn host_port(topo: &Topology, host: HostId, at: DpId) -> Result<PortNo, CompileError> {
    let h = topo.host(host).ok_or(CompileError::UnknownHost(host))?;
    if h.attached_to != at {
        return Err(CompileError::BadHostAttachment(host, at));
    }
    Ok(h.port)
}

fn out_port_for(
    topo: &Topology,
    route: &RoutePath,
    v: DpId,
    spec: &FlowSpec,
) -> Result<PortNo, CompileError> {
    match route.next_hop(v) {
        Some(next) => egress(topo, v, next),
        None => host_port(topo, spec.dst, v), // v is the egress switch
    }
}

fn add_rule(priority: u16, matcher: FlowMatch, out: PortNo, cookie: u64) -> OfMessage {
    OfMessage::FlowMod(FlowMod {
        command: FlowModCommand::Add,
        priority,
        matcher,
        actions: vec![Action::Output(out)],
        cookie,
    })
}

/// The baseline configuration: one routing rule per old-route switch,
/// delivering to the destination host at the egress. Installed before
/// the experiment starts.
pub fn initial_flowmods(
    topo: &Topology,
    old_route: &RoutePath,
    spec: &FlowSpec,
) -> Result<Vec<(DpId, OfMessage)>, CompileError> {
    let matcher = FlowMatch::dst_host(spec.dst);
    let mut out = Vec::new();
    for &v in old_route.hops() {
        let port = out_port_for(topo, old_route, v, spec)?;
        out.push((v, add_rule(BASE_PRIORITY, matcher, port, OLD_COOKIE)));
    }
    Ok(out)
}

/// Lower one rule operation.
fn compile_op(
    topo: &Topology,
    inst: &UpdateInstance,
    spec: &FlowSpec,
    op: &RuleOp,
) -> Result<(DpId, OfMessage), CompileError> {
    let matcher = FlowMatch::dst_host(spec.dst);
    match op {
        RuleOp::Activate(v) => {
            let next = inst
                .new_next(*v)
                .expect("validated: activate only on switches with a new rule");
            let port = egress(topo, *v, next)?;
            Ok((*v, add_rule(BASE_PRIORITY, matcher, port, NEW_COOKIE)))
        }
        // the other ops fail in `egress` when their switch is unknown
        RuleOp::RemoveOld(v) if !topo.has_switch(*v) => Err(CompileError::UnknownSwitch(*v)),
        RuleOp::RemoveOld(v) => Ok((
            *v,
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Delete,
                priority: BASE_PRIORITY,
                matcher,
                actions: vec![],
                cookie: 0,
            }),
        )),
        RuleOp::InstallTagged(v) => {
            let next = inst
                .new_next(*v)
                .expect("validated: tagged install on new-route switches");
            let port = egress(topo, *v, next)?;
            Ok((
                *v,
                add_rule(
                    TAGGED_PRIORITY,
                    FlowMatch::dst_host_tagged(spec.dst, VersionTag::NEW),
                    port,
                    TAG_COOKIE,
                ),
            ))
        }
        RuleOp::FlipIngress => {
            let src = inst.src();
            let next = inst
                .new_next(src)
                .expect("source always has a new rule on a non-trivial route");
            let port = egress(topo, src, next)?;
            Ok((
                src,
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Add,
                    priority: FLIP_PRIORITY,
                    matcher,
                    actions: vec![Action::SetTag(VersionTag::NEW), Action::Output(port)],
                    cookie: FLIP_COOKIE,
                }),
            ))
        }
    }
}

/// Lower a full schedule. Rule-removing rounds get a drain grace
/// period (see [`cleanup_grace`]), computed only when a round needs it.
pub fn compile_schedule(
    topo: &Topology,
    inst: &UpdateInstance,
    schedule: &Schedule,
    spec: &FlowSpec,
) -> Result<CompiledUpdate, CompileError> {
    let mut grace = None;
    let mut rounds = Vec::with_capacity(schedule.rounds.len());
    for round in &schedule.rounds {
        let mut msgs = Vec::with_capacity(round.ops.len());
        let mut removes = false;
        for op in &round.ops {
            removes |= matches!(op, RuleOp::RemoveOld(_));
            msgs.push(compile_op(topo, inst, spec, op)?);
        }
        rounds.push(CompiledRound {
            msgs,
            pre_delay: if removes {
                *grace.get_or_insert_with(|| cleanup_grace(topo, inst))
            } else {
                SimDuration::ZERO
            },
        });
    }
    Ok(CompiledUpdate {
        label: format!(
            "{} ({} -> {}, {} hops)",
            schedule.algorithm,
            inst.src(),
            inst.dst(),
            inst.new_route().len()
        ),
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::builders::figure1;
    use update_core::algorithms::{TwoPhaseCommit, UpdateScheduler, WayUp};

    fn setup() -> (sdn_topo::Figure1, UpdateInstance, FlowSpec) {
        let f = figure1();
        let inst = UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint))
            .unwrap();
        let spec = FlowSpec {
            src: f.h1,
            dst: f.h2,
        };
        (f, inst, spec)
    }

    #[test]
    fn initial_rules_cover_old_route() {
        let (f, _inst, spec) = setup();
        let mods = initial_flowmods(&f.topo, &f.old_route, &spec).unwrap();
        assert_eq!(mods.len(), f.old_route.len());
        // egress switch outputs toward the host port
        let (dp, msg) = mods.last().unwrap();
        assert_eq!(*dp, DpId(12));
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        let host_port = f.topo.host(f.h2).unwrap().port;
        assert_eq!(fm.actions, vec![Action::Output(host_port)]);
    }

    #[test]
    fn wayup_schedule_compiles() {
        let (f, inst, spec) = setup();
        let s = WayUp::default().schedule(&inst).unwrap();
        let c = compile_schedule(&f.topo, &inst, &s, &spec).unwrap();
        assert_eq!(c.round_count(), s.round_count());
        assert_eq!(c.message_count(), s.op_count());
        assert_eq!(c.label, format!("{} (s1 -> s12, 8 hops)", s.algorithm));
        assert!(c.label.contains("wayup"));
    }

    #[test]
    fn a_rest_route_through_an_unknown_switch_does_not_compile() {
        let (f, _inst, spec) = setup();
        // figure 1's old route with s2 swapped for a switch it lacks
        let doc = r#"{"oldpath": [1, 99, 3, 4, 5, 6, 12], "newpath": [1, 7, 3, 8, 9, 10, 11, 12]}"#;
        let inst = crate::rest::request::UpdateRequest::parse(doc)
            .unwrap()
            .to_instance()
            .unwrap();
        let s = TwoPhaseCommit.schedule(&inst).unwrap();
        let err = compile_schedule(&f.topo, &inst, &s, &spec).unwrap_err();
        assert_eq!(err, CompileError::UnknownSwitch(DpId(99)));
        assert_eq!(err.to_string(), "unknown switch s99");
    }

    #[test]
    fn activate_points_to_new_next_hop() {
        let (f, inst, spec) = setup();
        let (dp, msg) = compile_op(&f.topo, &inst, &spec, &RuleOp::Activate(DpId(1))).unwrap();
        assert_eq!(dp, DpId(1));
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.command, FlowModCommand::Add);
        assert_eq!(fm.priority, BASE_PRIORITY);
        // s1's new next hop is s7
        let expect = f.topo.egress_port(DpId(1), DpId(7)).unwrap();
        assert_eq!(fm.actions, vec![Action::Output(expect)]);
    }

    #[test]
    fn remove_old_is_a_delete() {
        let (f, inst, spec) = setup();
        let (_, msg) = compile_op(&f.topo, &inst, &spec, &RuleOp::RemoveOld(DpId(2))).unwrap();
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.command, FlowModCommand::Delete);
        assert_eq!(fm.priority, BASE_PRIORITY);
    }

    #[test]
    fn two_phase_compiles_tagged_rules() {
        let (f, inst, spec) = setup();
        let s = TwoPhaseCommit.schedule(&inst).unwrap();
        let c = compile_schedule(&f.topo, &inst, &s, &spec).unwrap();
        // round 1: tagged installs at new-route interior switches
        for (_, msg) in &c.rounds[0].msgs {
            let OfMessage::FlowMod(fm) = msg else {
                panic!()
            };
            assert_eq!(fm.priority, TAGGED_PRIORITY);
            assert_eq!(fm.matcher.tag, Some(VersionTag::NEW));
        }
        // round 2: the flip at the source
        let (dp, msg) = &c.rounds[1].msgs[0];
        assert_eq!(*dp, DpId(1));
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.priority, FLIP_PRIORITY);
        assert_eq!(fm.actions[0], Action::SetTag(VersionTag::NEW));
    }

    #[test]
    fn missing_link_is_reported() {
        let (f, _inst, spec) = setup();
        // a bogus route using a non-adjacent hop
        let bogus = RoutePath::from_raw(&[1, 12]).unwrap();
        let err = initial_flowmods(&f.topo, &bogus, &spec).unwrap_err();
        assert_eq!(err, CompileError::MissingLink(DpId(1), DpId(12)));
    }

    #[test]
    fn unknown_host_is_reported() {
        let (f, _inst, _spec) = setup();
        let bad_spec = FlowSpec {
            src: HostId(1),
            dst: HostId(99),
        };
        let err = initial_flowmods(&f.topo, &f.old_route, &bad_spec).unwrap_err();
        assert_eq!(err, CompileError::UnknownHost(HostId(99)));
    }
}
