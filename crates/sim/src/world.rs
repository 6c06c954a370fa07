//! The simulation world.
//!
//! Owns the topology, the switches, the controller, the channel and the
//! virtual clock; advances by draining the event queue. All randomness
//! derives from one seed — identical configurations replay identical
//! histories, which the tests rely on to pin down specific transient
//! interleavings.

use std::collections::{BTreeMap, BTreeSet};

use sdn_channel::config::ChannelConfig;
use sdn_channel::sim::{ConnId, SimChannel};
use sdn_channel::transport::Transport;
use sdn_ctrl::compile::CompiledUpdate;
use sdn_ctrl::controller::CtrlOutput;
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{
    ConcurrentRuntime, FabricConfig, FabricCoordinator, RuntimeConfig, RuntimeHandle, StatusReport,
    SubmitOutcome, SubmitRequest,
};
use sdn_obs::{DumpReason, Event as ObsEvent, EventKind, HistId, Obs};
use sdn_openflow::codec::{decode, encode};
use sdn_openflow::flow::PacketMeta;
use sdn_openflow::messages::OfMessage;
use sdn_switch::SoftSwitch;
use sdn_topo::graph::{PortPeer, Topology};
use sdn_types::{DetRng, DpId, HostId, SimDuration, SimTime};

use crate::chaos::FaultKind;
use crate::event::{Event, EventQueue};
use crate::report::{AuditReport, PacketOutcome, PacketRecord, SimReport};

/// Serial processing time per control message at a switch — the
/// flow-table update time the demo measures.
const FLOWMOD_PROC_DELAY: SimDuration = SimDuration::from_micros(100);
/// Per-hop pipeline latency for data packets.
const PACKET_PROC_DELAY: SimDuration = SimDuration::from_micros(10);
/// Hop budget before a packet is declared looping.
const MAX_HOPS: usize = 64;

/// World tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Control channel behaviour.
    pub channel: ChannelConfig,
    /// Round execution (barrier timeout, retries, payload acks) of
    /// the serial controller core [`World::new`] builds; a core handed
    /// to the builder carries its own.
    pub exec: ExecConfig,
    /// Controller poll period (drives timeout retransmissions).
    pub poll_interval: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            channel: ChannelConfig::lan(),
            exec: ExecConfig::default(),
            poll_interval: SimDuration::from_millis(10),
            seed: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct PacketInFlight {
    injected_at: SimTime,
    /// Index of the [`InjectPlan`] that launched this packet — the
    /// flow its violations are windowed under.
    plan: usize,
    path: Vec<DpId>,
    /// Waypoint this packet is judged against (captured from the
    /// active waypoint when its flow was planned).
    waypoint: Option<DpId>,
    finished: Option<(SimTime, PacketOutcome)>,
}

#[derive(Debug, Clone)]
struct InjectPlan {
    src: HostId,
    dst: HostId,
    interval: SimDuration,
    remaining: u64,
    waypoint: Option<DpId>,
}

/// The simulator.
pub struct World {
    cfg: WorldConfig,
    topo: Topology,
    switches: BTreeMap<DpId, SoftSwitch>,
    busy_until: BTreeMap<DpId, SimTime>,
    controller: Box<dyn RuntimeHandle>,
    channel: SimChannel,
    rng: DetRng,
    queue: EventQueue,
    now: SimTime,
    packets: BTreeMap<u64, PacketInFlight>,
    next_packet_id: u64,
    injects: Vec<InjectPlan>,
    waypoint: Option<DpId>,
    decode_errors: u64,
    polling: bool,
    /// Per-switch connection epoch; a teardown bumps it and in-flight
    /// frames stamped with the old epoch die on delivery.
    epochs: BTreeMap<DpId, u64>,
    /// Per-switch process incarnation; a reboot bumps it and wipes the
    /// serial processing queue.
    boots: BTreeMap<DpId, u64>,
    /// Switches whose control connection is currently down.
    down: BTreeSet<DpId>,
    fault_severed: u64,
    fault_disconnects: u64,
    fault_reconnects: u64,
    controller_crashes: u64,
    /// Observability sink (disabled by default). The world emits fault
    /// and violation events and measures per-flow violation windows;
    /// the runtime carries its own clone.
    obs: Obs,
    /// Per-plan `(first, last)` violating completion times — the
    /// transient-violation window the paper is about.
    violation_spans: BTreeMap<usize, (SimTime, SimTime)>,
    /// Plans whose window width has been flushed to the histogram.
    violation_flushed: BTreeSet<usize>,
}

/// Step-by-step [`World`] construction: pick the controller core (a
/// [`ConcurrentRuntime`] or the sharded fabric) and the configuration
/// fluently, then [`build`](WorldBuilder::build). Until a core is
/// picked the builder holds the paper's one-at-a-time controller,
/// [`RuntimeConfig::serial`] over the default [`ExecConfig`].
///
/// ```ignore
/// let world = World::builder(topo)
///     .config(cfg)
///     .fabric(FabricConfig { shards: 4, ..FabricConfig::default() })
///     .build();
/// ```
pub struct WorldBuilder {
    topo: Topology,
    cfg: WorldConfig,
    runtime: Box<dyn RuntimeHandle>,
    obs: Obs,
}

impl WorldBuilder {
    /// Override the world configuration (defaults to
    /// [`WorldConfig::default`]).
    pub fn config(mut self, cfg: WorldConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Drive the world with a [`ConcurrentRuntime`].
    pub fn concurrent(self, config: RuntimeConfig) -> Self {
        self.runtime_handle(Box::new(ConcurrentRuntime::new(config)))
    }

    /// Drive the world with a sharded [`FabricCoordinator`].
    pub fn fabric(self, config: FabricConfig) -> Self {
        self.runtime_handle(Box::new(FabricCoordinator::new(config)))
    }

    /// Drive the world with an explicit controller core.
    pub fn runtime_handle(mut self, runtime: Box<dyn RuntimeHandle>) -> Self {
        self.runtime = runtime;
        self
    }

    /// Attach an observability sink: the runtime gets a clone (via
    /// [`RuntimeHandle::attach_obs`]) and the world itself emits fault
    /// and transient-violation events into the same sink.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Construct the world.
    pub fn build(self) -> World {
        let mut runtime = self.runtime;
        if self.obs.is_enabled() {
            runtime.attach_obs(self.obs.clone());
        }
        let mut w = World::over(self.topo, self.cfg, runtime);
        w.obs = self.obs;
        w
    }
}

impl World {
    /// Start building a world over a topology.
    pub fn builder(topo: Topology) -> WorldBuilder {
        let cfg = WorldConfig::default();
        WorldBuilder {
            topo,
            runtime: Box::new(ConcurrentRuntime::new(RuntimeConfig::serial(cfg.exec))),
            cfg,
            obs: Obs::disabled(),
        }
    }

    /// Build a world over a topology, driven by the paper's
    /// one-at-a-time controller: [`RuntimeConfig::serial`] over
    /// [`WorldConfig::exec`].
    pub fn new(topo: Topology, cfg: WorldConfig) -> Self {
        let serial = ConcurrentRuntime::new(RuntimeConfig::serial(cfg.exec));
        World::over(topo, cfg, Box::new(serial))
    }

    fn over(topo: Topology, cfg: WorldConfig, runtime: Box<dyn RuntimeHandle>) -> Self {
        let switches: BTreeMap<DpId, SoftSwitch> = topo
            .switches()
            .map(|s| {
                (
                    s.dpid,
                    SoftSwitch::new(s.dpid, 64), // generous port budget
                )
            })
            .collect();
        let rng = DetRng::new(cfg.seed);
        World {
            controller: runtime,
            channel: SimChannel::new(cfg.channel),
            switches,
            busy_until: BTreeMap::new(),
            rng: rng.derive("world", 0),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            packets: BTreeMap::new(),
            next_packet_id: 0,
            injects: Vec::new(),
            waypoint: None,
            decode_errors: 0,
            polling: false,
            epochs: BTreeMap::new(),
            boots: BTreeMap::new(),
            down: BTreeSet::new(),
            fault_severed: 0,
            fault_disconnects: 0,
            fault_reconnects: 0,
            controller_crashes: 0,
            obs: Obs::disabled(),
            violation_spans: BTreeMap::new(),
            violation_flushed: BTreeSet::new(),
            topo,
            cfg,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inspect a switch (tests, experiments).
    pub fn switch(&self, dp: DpId) -> Option<&SoftSwitch> {
        self.switches.get(&dp)
    }

    /// The waypoint against which deliveries are judged.
    pub fn set_waypoint(&mut self, wp: Option<DpId>) {
        self.waypoint = wp;
    }

    /// Apply the baseline configuration directly (pre-experiment
    /// state; not part of the measured update). The controller is told
    /// about each rule ([`RuntimeHandle::note_installed`]) so its
    /// shadow tables and journal cover the baseline — without this, a
    /// rebooted switch could only be repaired up to the rules the
    /// controller itself sent.
    pub fn install_initial(&mut self, mods: &[(DpId, OfMessage)]) {
        let mut xid = sdn_types::Xid(0xffff_0000);
        for (dp, msg) in mods {
            if let Some(sw) = self.switches.get_mut(dp) {
                let _ = sw.handle_control(sdn_openflow::messages::Envelope::new(xid, msg.clone()));
                self.controller.note_installed(*dp, msg);
                xid = xid.next();
            }
        }
    }

    /// Enqueue an update job on the controller. Panics if the runtime
    /// refuses it — use [`World::submit`] when backpressure is part of
    /// the experiment.
    pub fn enqueue_update(&mut self, update: CompiledUpdate) {
        let out = self.submit(SubmitRequest::new(update));
        assert!(out.is_ok(), "runtime rejected the update: {out:?}");
    }

    /// Offer a submission to the controller runtime, surfacing the
    /// outcome (bounded queues may refuse, tenant budgets may be
    /// spent, deadlines may have passed).
    pub fn submit(&mut self, req: SubmitRequest) -> SubmitOutcome {
        let out = self.controller.submit_request(req, self.now);
        if out.is_ok() && !self.polling {
            self.polling = true;
            self.queue.push(self.now, Event::CtrlPoll);
        }
        out
    }

    /// The controller core, for inspection (stats, reports, status).
    pub fn runtime(&self) -> &dyn RuntimeHandle {
        self.controller.as_ref()
    }

    /// The observability sink this world emits into (the disabled
    /// no-op handle unless one was attached at build time).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The live `GET /status` snapshot: queue depth, active jobs,
    /// outstanding payload acks, counters, and the per-switch RTO
    /// table with straggler flags. Render with
    /// [`sdn_ctrl::rest::status::status_response`].
    pub fn status(&self) -> StatusReport {
        self.controller.status_report()
    }

    /// Shape the control link of one switch in *both* directions:
    /// `Some(config)` models a slow or flaky switch (straggler),
    /// `None` restores the default profile.
    pub fn set_link_profile(&mut self, dp: DpId, profile: Option<ChannelConfig>) {
        let t: &mut dyn Transport = &mut self.channel;
        match profile {
            Some(config) => {
                t.set_conn_config(ConnId::to_switch(dp), config);
                t.set_conn_config(ConnId::to_controller(dp), config);
            }
            None => {
                t.clear_conn_config(ConnId::to_switch(dp));
                t.clear_conn_config(ConnId::to_controller(dp));
            }
        }
    }

    /// Script a control-plane fault at `at` (see
    /// [`crate::chaos::ChaosPlan`] for building whole schedules).
    pub fn schedule_fault(&mut self, at: SimTime, fault: FaultKind) {
        self.queue.push(at, Event::Fault { fault });
    }

    /// Controller crashes injected so far.
    pub fn controller_crashes(&self) -> u64 {
        self.controller_crashes
    }

    /// Compare every switch's installed flow table against the
    /// controller's intended state ([`RuntimeHandle::intended_hashes`]).
    /// The ground-truth convergence check of the chaos experiments:
    /// after the dust settles, `audit().is_clean()` says the control
    /// plane's picture and the data plane agree, rule for rule.
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport::default();
        for (&dp, sw) in &self.switches {
            match self.controller.intended_hashes(dp) {
                None => report.untracked += 1,
                Some(want) => {
                    if sw.table().rule_hashes() == want {
                        report.in_sync += 1;
                    } else {
                        report.divergent.push(dp);
                    }
                }
            }
        }
        report
    }

    /// Plan probe injection: `count` packets from `src` to `dst`,
    /// spaced `interval` apart, starting at `start`. Several plans may
    /// run concurrently (multiple flows); each flow's packets are
    /// judged against the waypoint active when the plan was created.
    pub fn plan_injection(
        &mut self,
        src: HostId,
        dst: HostId,
        interval: SimDuration,
        count: u64,
        start: SimTime,
    ) {
        assert!(self.topo.host(src).is_some(), "unknown source host");
        assert!(self.topo.host(dst).is_some(), "unknown destination host");
        let plan = self.injects.len();
        self.injects.push(InjectPlan {
            src,
            dst,
            interval,
            remaining: count,
            waypoint: self.waypoint,
        });
        if count > 0 {
            self.queue.push(start, Event::Inject { plan, seq: 0 });
        }
    }

    /// Drain events until the queue empties or `horizon` passes.
    /// Returns the report as of the horizon. Events beyond the horizon
    /// stay queued, so the run is resumable: calling again with a later
    /// horizon continues the same timeline, so a caller can inspect
    /// the world (status, tables, obs) between two horizons.
    pub fn run(&mut self, horizon: SimTime) -> SimReport {
        while self.queue.peek_time().is_some_and(|at| at <= horizon) {
            let (at, event) = self.queue.pop().expect("peeked event");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.handle(event);
        }
        self.finish_report()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::CtrlPoll => {
                let outs = self.controller.poll(self.now);
                self.dispatch(outs);
                if self.controller.is_idle() {
                    self.polling = false;
                } else {
                    self.queue
                        .push(self.now + self.cfg.poll_interval, Event::CtrlPoll);
                }
            }
            Event::FrameAtSwitch { dp, frame, epoch } => {
                if self.down.contains(&dp) || self.epoch(dp) != epoch {
                    self.fault_severed += 1;
                    return;
                }
                match decode(&frame) {
                    Ok(env) => {
                        let start = self
                            .busy_until
                            .get(&dp)
                            .copied()
                            .unwrap_or(SimTime::ZERO)
                            .max(self.now);
                        let done = start + FLOWMOD_PROC_DELAY;
                        self.busy_until.insert(dp, done);
                        let boot = self.boot(dp);
                        self.queue
                            .push(done, Event::ApplyAtSwitch { dp, env, boot });
                    }
                    Err(_) => self.decode_errors += 1,
                }
            }
            Event::ApplyAtSwitch { dp, env, boot } => {
                // a reboot wipes the serial processing queue
                if self.boot(dp) != boot {
                    return;
                }
                let Some(sw) = self.switches.get_mut(&dp) else {
                    return;
                };
                let replies = sw.handle_control(env);
                let epoch = self.epoch(dp);
                for reply in replies {
                    // replies die on a torn-down connection
                    if self.down.contains(&dp) {
                        self.fault_severed += 1;
                        continue;
                    }
                    let frame = encode(&reply);
                    for (at, bytes) in
                        self.channel
                            .send(ConnId::to_controller(dp), self.now, frame, &mut self.rng)
                    {
                        self.queue.push(
                            at,
                            Event::FrameAtController {
                                dp,
                                frame: bytes,
                                epoch,
                            },
                        );
                    }
                }
            }
            Event::FrameAtController { dp, frame, epoch } => {
                if self.down.contains(&dp) || self.epoch(dp) != epoch {
                    self.fault_severed += 1;
                    return;
                }
                match decode(&frame) {
                    Ok(env) => {
                        let outs = self.controller.on_message(self.now, dp, &env);
                        self.dispatch(outs);
                    }
                    Err(_) => self.decode_errors += 1,
                }
            }
            Event::Fault { fault } => self.apply_fault(fault),
            Event::Inject { plan, seq } => self.inject_probe(plan, seq),
            Event::PacketAtSwitch { id, dp, meta } => self.packet_at_switch(id, dp, meta),
            Event::PacketAtHost { id } => {
                if let Some(p) = self.packets.get_mut(&id) {
                    let via_waypoint = p.waypoint.is_none_or(|w| p.path.contains(&w));
                    p.finished = Some((self.now, PacketOutcome::Delivered { via_waypoint }));
                    let plan = p.plan;
                    if !via_waypoint {
                        self.note_violation(plan, None, 1);
                    }
                }
            }
        }
    }

    /// The connection epoch of a switch.
    fn epoch(&self, dp: DpId) -> u64 {
        self.epochs.get(&dp).copied().unwrap_or(0)
    }

    /// The process incarnation of a switch.
    fn boot(&self, dp: DpId) -> u64 {
        self.boots.get(&dp).copied().unwrap_or(0)
    }

    /// Record one injected fault as a typed event whose `aux` codes
    /// the fault (1 link-down, 2 link-up, 3 reboot,
    /// 4 controller crash).
    fn note_fault(&mut self, dp: Option<DpId>, kind: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        let mut ev = ObsEvent::new(self.now, EventKind::Fault).aux(kind);
        if let Some(dp) = dp {
            ev = ev.dp(dp.0);
        }
        self.obs.emit(ev);
    }

    /// Record a probe's violating completion: the event, the
    /// per-flow window bookkeeping, and a flight-recorder dump on the
    /// flow's first violation. `aux` codes the violation class
    /// (1 waypoint bypass, 2 blackhole, 3 loop).
    fn note_violation(&mut self, plan: usize, at_dp: Option<DpId>, aux: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        let mut ev = ObsEvent::new(self.now, EventKind::Violation).aux(aux);
        if let Some(dp) = at_dp {
            ev = ev.dp(dp.0);
        }
        self.obs.emit(ev);
        let first = !self.violation_spans.contains_key(&plan);
        let span = self
            .violation_spans
            .entry(plan)
            .or_insert((self.now, self.now));
        span.1 = self.now;
        if first {
            // dump once per flow, at the moment the window opens
            self.obs.dump(DumpReason::Violation, self.now);
        }
    }

    fn apply_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::LinkDown(dp) => {
                if !self.switches.contains_key(&dp) || !self.down.insert(dp) {
                    return;
                }
                self.note_fault(Some(dp), 1);
                *self.epochs.entry(dp).or_default() += 1;
                self.fault_disconnects += 1;
                self.controller.on_disconnect(dp, self.now);
            }
            FaultKind::LinkUp(dp) => {
                if !self.down.remove(&dp) {
                    return;
                }
                self.note_fault(Some(dp), 2);
                self.fault_reconnects += 1;
                let outs = self.controller.on_reconnect(dp, self.now);
                self.dispatch(outs);
            }
            FaultKind::Reboot(dp) => {
                if !self.switches.contains_key(&dp) {
                    return;
                }
                self.note_fault(Some(dp), 3);
                // process restart: table and processing queue wiped,
                // connection re-established under a fresh epoch
                *self.boots.entry(dp).or_default() += 1;
                *self.epochs.entry(dp).or_default() += 1;
                self.switches.insert(dp, SoftSwitch::new(dp, 64));
                self.busy_until.remove(&dp);
                if !self.down.remove(&dp) {
                    self.fault_disconnects += 1;
                }
                self.fault_reconnects += 1;
                self.controller.on_disconnect(dp, self.now);
                let outs = self.controller.on_reconnect(dp, self.now);
                self.dispatch(outs);
            }
            FaultKind::CrashController => {
                self.note_fault(None, 4);
                self.controller_crashes += 1;
                // the crash tears down every control connection
                let dps: Vec<DpId> = self.switches.keys().copied().collect();
                for dp in dps {
                    *self.epochs.entry(dp).or_default() += 1;
                }
                self.controller.recover_from_crash(self.now);
                if !self.controller.is_idle() && !self.polling {
                    self.polling = true;
                    self.queue
                        .push(self.now + self.cfg.poll_interval, Event::CtrlPoll);
                }
            }
        }
    }

    fn dispatch(&mut self, outs: Vec<CtrlOutput>) {
        for CtrlOutput::Send(dp, env) in outs {
            if self.down.contains(&dp) {
                self.fault_severed += 1;
                continue;
            }
            let epoch = self.epoch(dp);
            let frame = encode(&env);
            for (at, bytes) in
                self.channel
                    .send(ConnId::to_switch(dp), self.now, frame, &mut self.rng)
            {
                self.queue.push(
                    at,
                    Event::FrameAtSwitch {
                        dp,
                        frame: bytes,
                        epoch,
                    },
                );
            }
        }
        // controller may have more work (next job) — keep polling alive
        if !self.controller.is_idle() && !self.polling {
            self.polling = true;
            self.queue
                .push(self.now + self.cfg.poll_interval, Event::CtrlPoll);
        }
    }

    fn inject_probe(&mut self, plan_idx: usize, seq: u64) {
        let Some(plan) = self.injects.get(plan_idx).cloned() else {
            return;
        };
        if plan.remaining == 0 {
            return;
        }
        let src_host = self.topo.host(plan.src).expect("validated").clone();
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        self.packets.insert(
            id,
            PacketInFlight {
                injected_at: self.now,
                plan: plan_idx,
                path: Vec::new(),
                waypoint: plan.waypoint,
                finished: None,
            },
        );
        let meta = PacketMeta {
            in_port: src_host.port,
            src: plan.src,
            dst: plan.dst,
            tag: None,
        };
        self.queue.push(
            self.now + src_host.latency,
            Event::PacketAtSwitch {
                id,
                dp: src_host.attached_to,
                meta,
            },
        );
        // schedule the next probe of this plan
        let interval = plan.interval;
        let more = {
            let p = &mut self.injects[plan_idx];
            p.remaining -= 1;
            p.remaining > 0
        };
        if more {
            self.queue.push(
                self.now + interval,
                Event::Inject {
                    plan: plan_idx,
                    seq: seq + 1,
                },
            );
        }
    }

    fn packet_at_switch(&mut self, id: u64, dp: DpId, meta: PacketMeta) {
        let plan = {
            let Some(p) = self.packets.get_mut(&id) else {
                return;
            };
            if p.finished.is_some() {
                return;
            }
            p.path.push(dp);
            if p.path.len() > MAX_HOPS {
                p.finished = Some((self.now, PacketOutcome::Looped));
                let plan = p.plan;
                self.note_violation(plan, Some(dp), 3);
                return;
            }
            p.plan
        };
        let Some(sw) = self.switches.get_mut(&dp) else {
            return;
        };
        let result = sw.process_packet(meta);
        if result.dropped || result.emitted.is_empty() {
            if let Some(p) = self.packets.get_mut(&id) {
                p.finished = Some((self.now, PacketOutcome::Dropped { at: dp }));
            }
            self.note_violation(plan, Some(dp), 2);
            return;
        }
        // unicast routing rules: forward the first emitted copy
        let (port, out_meta) = result.emitted[0];
        match self.topo.port_peer(dp, port) {
            Some(PortPeer::Switch(nb, lat)) => {
                let in_port = self
                    .topo
                    .egress_port(nb, dp)
                    .expect("links are bidirectional");
                let meta2 = PacketMeta {
                    in_port,
                    ..out_meta
                };
                self.queue.push(
                    self.now + PACKET_PROC_DELAY + lat,
                    Event::PacketAtSwitch {
                        id,
                        dp: nb,
                        meta: meta2,
                    },
                );
            }
            Some(PortPeer::Host(_h, lat)) => {
                self.queue.push(
                    self.now + PACKET_PROC_DELAY + lat,
                    Event::PacketAtHost { id },
                );
            }
            None => {
                // rule points at an unwired port: drop
                if let Some(p) = self.packets.get_mut(&id) {
                    p.finished = Some((self.now, PacketOutcome::Dropped { at: dp }));
                }
                self.note_violation(plan, Some(dp), 2);
            }
        }
    }

    fn finish_report(&mut self) -> SimReport {
        // flush per-flow transient-violation windows: width = first to
        // last violating completion of one injection plan (0 for a
        // single violation), observed once per flow
        if self.obs.is_enabled() {
            for (&plan, &(first, last)) in &self.violation_spans {
                if self.violation_flushed.insert(plan) {
                    self.obs.observe(
                        HistId::ViolationWindowNs,
                        last.saturating_since(first).as_nanos(),
                    );
                }
            }
        }
        let mut packets: Vec<PacketRecord> = self
            .packets
            .iter()
            .map(|(&id, p)| PacketRecord {
                id,
                injected_at: p.injected_at,
                finished_at: p.finished.as_ref().map(|(t, _)| *t),
                path: p.path.clone(),
                outcome: p
                    .finished
                    .as_ref()
                    .map(|(_, o)| o.clone())
                    .unwrap_or(PacketOutcome::InFlight),
            })
            .collect();
        packets.sort_by_key(|p| p.id);
        let violations = SimReport::tally(&packets);
        // frames the world severed at its fault boundaries (connection
        // down, stale epoch) fold into the channel's own severed count
        let mut channel = self.channel.stats();
        channel.severed += self.fault_severed;
        channel.disconnects += self.fault_disconnects;
        channel.reconnects += self.fault_reconnects;
        SimReport {
            updates: self.controller.reports().to_vec(),
            packets,
            violations,
            channel,
            decode_errors: self.decode_errors,
            finished_at: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_ctrl::compile::{compile_schedule, initial_flowmods, FlowSpec};
    use sdn_topo::builders::figure1;
    use sdn_types::SimDuration;
    use update_core::algorithms::{OneShot, UpdateScheduler, WayUp};
    use update_core::model::UpdateInstance;

    fn horizon() -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(600)
    }

    fn fig1_world(cfg: WorldConfig) -> (World, UpdateInstance, FlowSpec) {
        let f = figure1();
        let inst = UpdateInstance::new(f.old_route.clone(), f.new_route.clone(), Some(f.waypoint))
            .unwrap();
        let spec = FlowSpec {
            src: f.h1,
            dst: f.h2,
        };
        let mut w = World::new(f.topo.clone(), cfg);
        w.set_waypoint(Some(f.waypoint));
        let init = initial_flowmods(&f.topo, &f.old_route, &spec).unwrap();
        w.install_initial(&init);
        (w, inst, spec)
    }

    #[test]
    fn steady_state_delivery_on_old_route() {
        let (mut w, _inst, _spec) = fig1_world(WorldConfig::default());
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_millis(1),
            20,
            SimTime::ZERO,
        );
        let r = w.run(horizon());
        assert_eq!(r.violations.total, 20);
        assert_eq!(r.violations.delivered, 20);
        assert!(!r.violations.any(), "{}", r.violations);
        // every probe followed the old route
        for p in &r.packets {
            assert_eq!(p.path.len(), 7, "path {:?}", p.path);
        }
    }

    #[test]
    fn wayup_update_completes_and_switches_route() {
        let (mut w, inst, spec) = fig1_world(WorldConfig::default());
        let sched = WayUp::default().schedule(&inst).unwrap();
        let f = figure1();
        let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
        let n_rounds = c.round_count();
        w.enqueue_update(c);
        let r = w.run(horizon());
        assert_eq!(r.updates.len(), 1);
        let u = &r.updates[0];
        assert!(u.completed.is_some(), "update must finish");
        assert_eq!(u.rounds.len(), n_rounds);
        assert!(u.duration().unwrap() > SimDuration::ZERO);

        // data plane converged to the new route: probe it
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_millis(1),
            5,
            w.now(),
        );
        let r2 = w.run(horizon());
        let last = r2.packets.last().unwrap();
        assert_eq!(
            last.path,
            f.new_route.hops().to_vec(),
            "must follow the new route"
        );
    }

    #[test]
    fn wayup_under_traffic_has_no_violations() {
        let cfg = WorldConfig {
            channel: ChannelConfig::jittery(SimDuration::from_millis(5)),
            seed: 42,
            ..WorldConfig::default()
        };
        let (mut w, inst, spec) = fig1_world(cfg);
        let f = figure1();
        let sched = WayUp::default().schedule(&inst).unwrap();
        let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
        w.enqueue_update(c);
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_micros(200),
            500,
            SimTime::ZERO,
        );
        let r = w.run(horizon());
        assert!(r.updates[0].completed.is_some());
        assert_eq!(r.violations.total, 500);
        assert!(
            !r.violations.any(),
            "WayUp must be transiently secure: {}",
            r.violations
        );
    }

    #[test]
    fn oneshot_under_jitter_violates() {
        // Find a seed exposing the race; determinism makes it stable.
        let mut any_violation = false;
        for seed in 0..12 {
            let cfg = WorldConfig {
                channel: ChannelConfig::jittery(SimDuration::from_millis(20)),
                seed,
                ..WorldConfig::default()
            };
            let (mut w, inst, spec) = fig1_world(cfg);
            let f = figure1();
            let sched = OneShot.schedule(&inst).unwrap();
            let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
            w.enqueue_update(c);
            w.plan_injection(
                HostId(1),
                HostId(2),
                SimDuration::from_micros(100),
                1500,
                SimTime::ZERO,
            );
            let r = w.run(horizon());
            if r.violations.any() {
                any_violation = true;
                break;
            }
        }
        assert!(
            any_violation,
            "one-shot under heavy jitter should expose at least one transient violation"
        );
    }

    #[test]
    fn lossy_channel_still_converges() {
        let cfg = WorldConfig {
            channel: ChannelConfig::lossy(0.2),
            seed: 7,
            ..WorldConfig::default()
        };
        let (mut w, inst, spec) = fig1_world(cfg);
        let f = figure1();
        let sched = WayUp::default().schedule(&inst).unwrap();
        let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
        w.enqueue_update(c);
        let r = w.run(horizon());
        assert!(
            r.updates[0].completed.is_some(),
            "barrier retransmission must push the update through"
        );
        // losses happened (statistically certain with 20% drop)
        assert!(r.channel.dropped > 0);
        // retransmissions occurred
        assert!(r.updates[0].rounds.iter().any(|t| t.attempts > 1));
    }

    #[test]
    fn corrupted_frames_are_counted_not_fatal() {
        let cfg = WorldConfig {
            channel: ChannelConfig::lan().with_corruption(0.3),
            seed: 3,
            ..WorldConfig::default()
        };
        let (mut w, inst, spec) = fig1_world(cfg);
        let f = figure1();
        let sched = WayUp::default().schedule(&inst).unwrap();
        let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
        w.enqueue_update(c);
        let r = w.run(horizon());
        assert!(
            r.decode_errors > 0,
            "corruption should surface as decode errors"
        );
        assert!(r.updates[0].completed.is_some());
    }

    #[test]
    fn truncated_horizon_reports_in_flight_probes() {
        let (mut w, _inst, _spec) = fig1_world(WorldConfig::default());
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_millis(1),
            10,
            SimTime::ZERO,
        );
        // stop before anything can traverse the 7-hop path
        let r = w.run(SimTime::ZERO + SimDuration::from_micros(150));
        assert!(r
            .packets
            .iter()
            .any(|p| p.outcome == crate::report::PacketOutcome::InFlight));
        assert!(r.finished_at <= SimTime::ZERO + SimDuration::from_micros(150));
    }

    #[test]
    fn ttl_exceeded_is_classified_as_loop() {
        // Install a deliberate 2-cycle between s1 and s2 and inject.
        use sdn_openflow::flow::{Action, FlowMatch};
        use sdn_openflow::messages::{FlowMod, FlowModCommand};
        let f = figure1();
        let mut w = World::new(f.topo.clone(), WorldConfig::default());
        let p12 = f.topo.egress_port(DpId(1), DpId(2)).unwrap();
        let p21 = f.topo.egress_port(DpId(2), DpId(1)).unwrap();
        let mk = |out| {
            sdn_openflow::messages::OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Add,
                priority: 10,
                matcher: FlowMatch::dst_host(HostId(2)),
                actions: vec![Action::Output(out)],
                cookie: 0,
            })
        };
        w.install_initial(&[(DpId(1), mk(p12)), (DpId(2), mk(p21))]);
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_millis(1),
            1,
            SimTime::ZERO,
        );
        let r = w.run(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(r.violations.loops, 1, "{}", r.violations);
        let p = &r.packets[0];
        assert!(p.path.len() > 60, "TTL must bound the walk");
    }

    #[test]
    fn probes_after_horizonless_drain_leave_empty_queue() {
        let (mut w, _inst, _spec) = fig1_world(WorldConfig::default());
        w.plan_injection(
            HostId(1),
            HostId(2),
            SimDuration::from_millis(2),
            5,
            SimTime::ZERO,
        );
        let r1 = w.run(SimTime::ZERO + SimDuration::from_secs(600));
        assert_eq!(r1.violations.total, 5);
        // a second run with nothing planned terminates immediately
        let r2 = w.run(SimTime::ZERO + SimDuration::from_secs(1200));
        assert_eq!(r2.violations.total, 5, "no new probes appear");
    }

    #[test]
    fn deterministic_replay() {
        let run_once = || {
            let cfg = WorldConfig {
                channel: ChannelConfig::jittery(SimDuration::from_millis(3)),
                seed: 11,
                ..WorldConfig::default()
            };
            let (mut w, inst, spec) = fig1_world(cfg);
            let f = figure1();
            let sched = WayUp::default().schedule(&inst).unwrap();
            let c = compile_schedule(&f.topo, &inst, &sched, &spec).unwrap();
            w.enqueue_update(c);
            w.plan_injection(
                HostId(1),
                HostId(2),
                SimDuration::from_millis(1),
                50,
                SimTime::ZERO,
            );
            let r = w.run(horizon());
            (
                r.finished_at,
                r.updates[0].completed,
                r.violations,
                r.packets.len(),
            )
        };
        assert_eq!(run_once(), run_once());
    }
}
