//! The fabric coordinator: shard routing plus the two-phase protocol.
//!
//! Single-shard updates forward straight into the owning shard's
//! runtime and never synchronise with anything else. Cross-shard
//! updates go through **prepare** — reserve the per-shard slice of the
//! footprint in every involved shard's conflict graph, all-or-nothing —
//! and **commit** — hand the update to a coordinator-owned runtime
//! that executes it with the usual global round fencing. While the
//! reservations are held, conflicting shard-local work queues behind
//! them exactly as it would behind an active local job, which is what
//! makes the shard-local serialisation argument compose: every
//! runtime's conflict graph sees *some* owner for every flow class a
//! cross-shard update touches.
//!
//! A refused reservation releases everything already taken (no
//! hold-and-wait, hence no deadlock) and parks the update in a bounded
//! prepare queue retried each [`poll`](RuntimeHandle::poll). The
//! fabric's own write-ahead journal records `Admitted` → `Prepared` →
//! `XCommitted` (or `Aborted`); recovery replays it to re-queue
//! unprepared updates, abort updates caught between prepare and
//! commit, and re-establish reservations for updates the recovered
//! coordinator runtime still has in flight.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdn_obs::{DumpReason, Event, EventKind, HistId, Obs};
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimTime};
use update_core::partition::ShardAssignment;

use crate::compile::CompiledUpdate;
use crate::controller::{CtrlOutput, FailReason, UpdateReport};
use crate::runtime::admission::Priority;
use crate::runtime::conflict::{Footprint, JobId};
use crate::runtime::dispatch::{ConcurrentRuntime, RuntimeConfig};
use crate::runtime::journal::{Journal, JournalRecord};
use crate::runtime::submit::{SubmitError, SubmitOutcome, SubmitRequest, SubmitTicket, TenantId};
use crate::runtime::{RuntimeHandle, RuntimeStats, ShardStatus, StatusReport, TenantStatus};

use super::tenant::TenantPolicy;
use super::ShardId;

/// Shard `i` allocates xids from `[(i + 1) << 24, (i + 2) << 24)`.
const SHARD_XID_STRIDE: u32 = 1 << 24;
/// The coordinator runtime allocates xids from here to the end of the
/// xid space.
const COORD_XID_BASE: u32 = 0xF000_0000;
/// Shard `i` assigns job ids from `(i + 1) << 32`.
const SHARD_JOB_STRIDE: u64 = 1 << 32;
/// Fabric tickets for cross-shard updates start here.
const TICKET_BASE: u64 = 1 << 56;
/// The coordinator runtime assigns job ids from here.
const COORD_JOB_BASE: u64 = 1 << 57;
/// Reservations appear in shard conflict graphs as `RESERVE_BASE | ticket`.
const RESERVE_BASE: u64 = 1 << 62;
/// Hard cap on shard count (keeps the xid ranges disjoint).
const MAX_SHARDS: u32 = 128;

/// The xid range shard `i` allocates from, as `(first, count)`.
fn shard_xid_range(i: u32) -> (u32, u32) {
    ((i + 1) * SHARD_XID_STRIDE, SHARD_XID_STRIDE)
}

fn reserve_id(ticket: JobId) -> JobId {
    JobId(RESERVE_BASE | ticket.0)
}

/// Fabric construction parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Shard count (clamped to `1..=128`).
    pub shards: u32,
    /// Template runtime tuning applied to every shard and to the
    /// coordinator runtime (xid and job-id bases are overridden per
    /// runtime). Tenant budgets are the fabric's alone, via `tenants`.
    pub runtime: RuntimeConfig,
    /// Per-tenant budgets and priority boosts.
    pub tenants: TenantPolicy,
    /// Journal everything (per-shard WALs, the coordinator runtime's
    /// WAL, and the fabric's own two-phase log) in memory, enabling
    /// [`RuntimeHandle::recover_from_crash`].
    pub journal: bool,
    /// Bound on cross-shard updates waiting for a successful prepare.
    pub xqueue_capacity: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            shards: 4,
            runtime: RuntimeConfig::default(),
            tenants: TenantPolicy::default(),
            journal: false,
            xqueue_capacity: 64,
        }
    }
}

/// A cross-shard update waiting for its prepare to succeed.
#[derive(Debug, Clone)]
struct XPending {
    id: JobId,
    update: CompiledUpdate,
    footprint: Footprint,
    /// Involved shards, ascending.
    involved: Vec<u32>,
    priority: Priority,
    tenant: TenantId,
    deadline: Option<SimTime>,
    submitted: SimTime,
    /// Prepare attempts so far (observability: the prepare-rounds
    /// histogram records this at commit).
    attempts: u32,
}

/// A committed cross-shard update: reservations held until the
/// coordinator runtime finishes the job.
#[derive(Debug, Clone)]
struct XActive {
    coord: JobId,
    involved: Vec<u32>,
}

/// Outcome of one prepare-and-commit attempt.
enum Attempt {
    /// Reservations held, update handed to the coordinator runtime.
    Committed,
    /// Some reservation refused; everything taken was released.
    Blocked,
    /// Reservations succeeded but the coordinator runtime refused the
    /// job — reservations released, `Aborted` journalled, terminal.
    Refused,
}

/// The sharded controller fabric (see the [module docs](super)).
#[derive(Debug, Clone)]
pub struct FabricCoordinator {
    assign: ShardAssignment,
    tenants: TenantPolicy,
    shards: Vec<ConcurrentRuntime>,
    /// Executes cross-shard updates under global round fencing.
    coord: ConcurrentRuntime,
    /// The fabric's own write-ahead log (two-phase records).
    journal: Journal,
    next_ticket: u64,
    xqueue: VecDeque<XPending>,
    xqueue_capacity: usize,
    xactive: BTreeMap<JobId, XActive>,
    /// Merged completion reports, fabric order, moved out of the
    /// sub-runtimes' logs as they appear.
    reports: Vec<UpdateReport>,
    /// Fabric-level counters for work no sub-runtime has on its books
    /// (quota/deadline rejections, queued prepares, fabric aborts), and
    /// the fabric-wide high-water mark of executing updates.
    overlay: RuntimeStats,
    /// Observability sink, stamped with the coordinator's own shard
    /// tag (one past the last shard); shards carry per-shard clones.
    obs: Obs,
}

impl FabricCoordinator {
    /// A fabric with modulo switch assignment over `config.shards`.
    pub fn new(config: FabricConfig) -> Self {
        let shards = config.shards.clamp(1, MAX_SHARDS);
        Self::with_assignment(config, ShardAssignment::modulo(shards))
    }

    /// A fabric over an explicit switch assignment (e.g. one pinning
    /// switches with [`ShardAssignment::with_overrides`]). A switch's
    /// shard is fixed here for the fabric's lifetime.
    ///
    /// # Panics
    ///
    /// If `assign` has more than 128 shards: the xid carve has room for
    /// no more, and every shard the assignment names must exist.
    pub fn with_assignment(config: FabricConfig, assign: ShardAssignment) -> Self {
        let n = assign.shards();
        assert!(
            n <= MAX_SHARDS,
            "a fabric has at most {MAX_SHARDS} shards, the assignment names {n}"
        );
        let journal_of = |on: bool| {
            if on {
                Journal::mem()
            } else {
                Journal::Disabled
            }
        };
        let mut shards = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut rc = config.runtime;
            rc.xid_range = shard_xid_range(i);
            rc.job_id_base = (i as u64 + 1) * SHARD_JOB_STRIDE;
            shards.push(ConcurrentRuntime::with_journal(
                rc,
                journal_of(config.journal),
            ));
        }
        let mut cc = config.runtime;
        cc.xid_range = (COORD_XID_BASE, u32::MAX - COORD_XID_BASE + 1);
        cc.job_id_base = COORD_JOB_BASE;
        FabricCoordinator {
            assign,
            tenants: config.tenants,
            coord: ConcurrentRuntime::with_journal(cc, journal_of(config.journal)),
            journal: journal_of(config.journal),
            next_ticket: TICKET_BASE,
            xqueue: VecDeque::new(),
            xqueue_capacity: config.xqueue_capacity,
            xactive: BTreeMap::new(),
            reports: Vec::new(),
            overlay: RuntimeStats::default(),
            obs: Obs::disabled(),
            shards,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard owning `dp`.
    pub fn shard_of(&self, dp: DpId) -> ShardId {
        ShardId(self.assign.shard_of(dp))
    }

    /// The switch assignment in force.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assign
    }

    /// Shard `i`'s runtime (diagnostics). Its `reports()` holds only
    /// reports the fabric has not merged yet — the fabric moves them into
    /// its own log after every call, so no caller reads it.
    pub fn shard(&self, i: u32) -> Option<&ConcurrentRuntime> {
        self.shards.get(i as usize)
    }

    /// In-flight jobs charged to `tenant`, fabric-wide.
    pub fn tenant_usage(&self, tenant: TenantId) -> u32 {
        let queued = self.xqueue.iter().filter(|x| x.tenant == tenant).count() as u32;
        self.shards
            .iter()
            .chain(std::iter::once(&self.coord))
            .map(|r| r.tenant_usage(tenant))
            .sum::<u32>()
            + queued
    }

    /// The shards owning `footprint`'s switches, ascending.
    fn involved(&self, footprint: &Footprint) -> Vec<u32> {
        let shards = footprint.switches().map(|dp| self.assign.shard_of(dp));
        shards.collect::<BTreeSet<u32>>().into_iter().collect()
    }

    /// One prepare-and-commit attempt for `x`.
    fn attempt(&mut self, x: &XPending, now: SimTime) -> Attempt {
        let rid = reserve_id(x.id);
        self.obs.emit(
            Event::new(now, EventKind::XPrepare)
                .span(x.id.0)
                .aux(x.involved.len() as u64),
        );
        let mut taken: Vec<u32> = Vec::new();
        for &s in &x.involved {
            let slice = x.footprint.slice(|dp| self.assign.shard_of(dp) == s);
            if self.shards[s as usize].reserve(rid, &slice) {
                taken.push(s);
            } else {
                // all-or-nothing: unwind immediately, retry later
                for &t in &taken {
                    self.shards[t as usize].release(rid);
                }
                self.obs
                    .emit(Event::new(now, EventKind::XPrepareAck).span(x.id.0).aux(0));
                return Attempt::Blocked;
            }
        }
        self.obs
            .emit(Event::new(now, EventKind::XPrepareAck).span(x.id.0).aux(1));
        self.journal.append(&JournalRecord::Prepared {
            id: x.id,
            shards: x.involved.clone(),
            at: now,
        });
        let mut req = SubmitRequest::new(x.update.clone())
            .tenant(x.tenant)
            .priority(x.priority);
        if let Some(d) = x.deadline {
            req = req.deadline(d);
        }
        match self
            .coord
            .submit_prepared(req, Some(x.footprint.clone()), now)
        {
            Ok(t) => {
                self.journal.append(&JournalRecord::XCommitted {
                    id: x.id,
                    coord: t.job,
                    at: now,
                });
                self.xactive.insert(
                    x.id,
                    XActive {
                        coord: t.job,
                        involved: x.involved.clone(),
                    },
                );
                self.obs
                    .observe(HistId::PrepareRounds, x.attempts.max(1) as u64);
                self.obs.emit(
                    Event::new(now, EventKind::XCommit)
                        .span(x.id.0)
                        .aux(t.job.0),
                );
                Attempt::Committed
            }
            Err(_) => {
                for &s in &x.involved {
                    self.shards[s as usize].release(rid);
                }
                self.journal
                    .append(&JournalRecord::Aborted { id: x.id, at: now });
                Attempt::Refused
            }
        }
    }

    /// Mirror coordinator-sent FlowMods into the owning shard's shadow
    /// table, so per-switch intent (audits, resync) stays with the
    /// shard that owns the switch. FlowMods are idempotent, so
    /// re-mirroring a retransmission is harmless.
    fn mirror(&mut self, cmds: &[CtrlOutput]) {
        for CtrlOutput::Send(dp, env) in cmds {
            if matches!(env.msg, OfMessage::FlowMod(_)) {
                let s = self.assign.shard_of(*dp) as usize;
                self.shards[s].note_installed(*dp, &env.msg);
            }
        }
    }

    /// Release reservations of finished coordinator jobs and pull
    /// freshly completed reports into the merged log. Called after
    /// every message, so the common case — no job finished, nothing
    /// cross-shard in flight — must touch nothing.
    fn settle(&mut self) {
        let grew = self
            .shards
            .iter()
            .chain(std::iter::once(&self.coord))
            .any(|src| !src.reports().is_empty());
        if !grew && self.xactive.is_empty() {
            return;
        }
        let done: Vec<JobId> = self
            .xactive
            .iter()
            .filter(|(_, a)| !self.coord.job_in_flight(a.coord))
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            if let Some(a) = self.xactive.remove(&id) {
                for &s in &a.involved {
                    self.shards[s as usize].release(reserve_id(id));
                }
            }
        }
        if grew {
            self.harvest();
        }
    }

    fn harvest(&mut self) {
        for src in self
            .shards
            .iter_mut()
            .chain(std::iter::once(&mut self.coord))
        {
            self.reports.extend(src.take_reports());
        }
    }

    /// Fold the updates executing now into `peak_active`: per-shard
    /// peaks reached at different times do not add up to a fabric peak.
    fn note_peak(&mut self) {
        let active = self.active_count() as u64;
        self.overlay.peak_active = self.overlay.peak_active.max(active);
    }

    fn push_failed(&mut self, label: String, submitted: SimTime, failure: Option<FailReason>) {
        self.overlay.failed += 1;
        self.reports.push(UpdateReport {
            label,
            submitted,
            started: submitted,
            completed: None,
            failure,
            rounds: Vec::new(),
        });
    }
}

impl RuntimeHandle for FabricCoordinator {
    fn submit_request(&mut self, req: SubmitRequest, now: SimTime) -> SubmitOutcome {
        if req.deadline.is_some_and(|d| now > d) {
            self.overlay.submitted += 1;
            self.overlay.rejected += 1;
            self.obs.emit(Event::new(now, EventKind::Reject).aux(1));
            return Err(SubmitError::DeadlineExpired);
        }
        if let Some(limit) = self.tenants.quota_for(req.tenant) {
            let in_flight = self.tenant_usage(req.tenant);
            if in_flight >= limit {
                self.overlay.submitted += 1;
                self.overlay.rejected += 1;
                self.obs.emit(Event::new(now, EventKind::Reject).aux(2));
                return Err(SubmitError::QuotaExceeded {
                    tenant: req.tenant,
                    limit,
                    in_flight,
                });
            }
        }
        let priority = self.tenants.priority_for(req.tenant, req.priority);
        let footprint = Footprint::of(&req.update);
        let involved = self.involved(&footprint);
        if involved.len() <= 1 {
            // single-shard (or empty): the owning shard handles it
            // alone — this is the scaling path
            let s = involved.first().copied().unwrap_or(0);
            let fwd = SubmitRequest { priority, ..req };
            return self.shards[s as usize]
                .submit_prepared(fwd, Some(footprint), now)
                .map(|t| SubmitTicket {
                    shard: Some(s),
                    ..t
                });
        }
        let id = JobId(self.next_ticket);
        self.next_ticket += 1;
        self.journal.append(&JournalRecord::Admitted {
            id,
            update: req.update.clone(),
            priority,
            tenant: req.tenant,
            deadline: req.deadline,
            at: now,
        });
        self.obs.emit(
            Event::new(now, EventKind::Submit)
                .span(id.0)
                .aux(self.xqueue.len() as u64),
        );
        let x = XPending {
            id,
            update: req.update,
            footprint,
            involved,
            priority,
            tenant: req.tenant,
            deadline: req.deadline,
            submitted: now,
            attempts: 1,
        };
        match self.attempt(&x, now) {
            Attempt::Committed => Ok(SubmitTicket {
                job: id,
                shard: None,
                queued: 0,
                cross_shard: true,
            }),
            Attempt::Blocked => {
                if self.xqueue.len() >= self.xqueue_capacity {
                    self.journal.append(&JournalRecord::Aborted { id, at: now });
                    self.overlay.submitted += 1;
                    self.overlay.rejected += 1;
                    return Err(SubmitError::QueueFull);
                }
                self.overlay.submitted += 1;
                self.overlay.accepted += 1;
                self.xqueue.push_back(x);
                Ok(SubmitTicket {
                    job: id,
                    shard: None,
                    queued: self.xqueue.len(),
                    cross_shard: true,
                })
            }
            // the coordinator runtime's own books carry the rejection
            Attempt::Refused => Err(SubmitError::QueueFull),
        }
    }

    fn poll(&mut self, now: SimTime) -> Vec<CtrlOutput> {
        let mut out = Vec::new();
        for s in &mut self.shards {
            s.poll_into(now, &mut out);
        }
        // retry parked prepares (and expire stale ones)
        let parked = std::mem::take(&mut self.xqueue);
        for mut x in parked {
            if x.deadline.is_some_and(|d| now > d) {
                self.journal
                    .append(&JournalRecord::Aborted { id: x.id, at: now });
                self.overlay.submitted = self.overlay.submitted.saturating_sub(1);
                self.overlay.accepted = self.overlay.accepted.saturating_sub(1);
                self.push_failed(
                    x.update.label.clone(),
                    x.submitted,
                    Some(FailReason::DeadlineExpired),
                );
                continue;
            }
            x.attempts += 1;
            match self.attempt(&x, now) {
                Attempt::Committed | Attempt::Refused => {
                    // either way the coordinator runtime's books carry
                    // it now; the fabric overlay lets go
                    self.overlay.submitted = self.overlay.submitted.saturating_sub(1);
                    self.overlay.accepted = self.overlay.accepted.saturating_sub(1);
                }
                Attempt::Blocked => self.xqueue.push_back(x),
            }
        }
        let start = out.len();
        self.coord.poll_into(now, &mut out);
        self.mirror(&out[start..]);
        self.settle();
        self.note_peak();
        out
    }

    fn on_message(&mut self, now: SimTime, from: DpId, env: &Envelope) -> Vec<CtrlOutput> {
        // xids name their owning runtime by range
        let (xid, mut out) = (env.xid.0, Vec::new());
        if xid >= COORD_XID_BASE {
            self.coord.on_message_into(now, from, env, &mut out);
            self.mirror(&out);
        } else {
            let idx = (xid / SHARD_XID_STRIDE) as usize;
            let i = if idx >= 1 && idx - 1 < self.shards.len() {
                idx - 1
            } else {
                // out-of-range xid (e.g. pre-crash traffic): the owner
                // of the sending switch decides what to do with it
                self.assign.shard_of(from) as usize
            };
            self.shards[i].on_message_into(now, from, env, &mut out);
        }
        self.settle();
        self.note_peak();
        out
    }

    fn is_idle(&self) -> bool {
        self.xqueue.is_empty()
            && self.xactive.is_empty()
            && self.coord.is_idle()
            && self.shards.iter().all(|s| s.is_idle())
    }

    fn reports(&self) -> &[UpdateReport] {
        &self.reports
    }

    fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queued()).sum::<usize>()
            + self.coord.queued()
            + self.xqueue.len()
    }

    fn active_count(&self) -> usize {
        self.shards.iter().map(|s| s.active_count()).sum::<usize>() + self.coord.active_count()
    }

    fn stats(&self) -> RuntimeStats {
        let mut s = self.overlay;
        for sub in self.shards.iter().chain(std::iter::once(&self.coord)) {
            let t = sub.stats();
            s.submitted += t.submitted;
            s.accepted += t.accepted;
            s.rejected += t.rejected;
            s.completed += t.completed;
            s.failed += t.failed;
            s.retransmissions += t.retransmissions;
            s.stragglers += t.stragglers;
            s.reconnects += t.reconnects;
            s.resyncs += t.resyncs;
            s.resynced_rules += t.resynced_rules;
            s.quarantined += t.quarantined;
        }
        // one crash = one recovery, however many runtimes rebuilt
        s.recoveries = self.coord.stats().recoveries;
        s
    }

    fn status_report(&self) -> StatusReport {
        let mut switches = BTreeMap::new();
        let mut quarantined = BTreeSet::new();
        let mut pending_acks = 0;
        let mut journal_len = self.journal.len();
        let mut shard_rows = Vec::with_capacity(self.shards.len());
        // the shards, then the coordinator runtime (no shard row)
        for (i, sub) in self.shards.iter().chain([&self.coord]).enumerate() {
            let r = sub.status_report();
            pending_acks += r.pending_acks;
            journal_len += r.journal_len;
            quarantined.extend(r.quarantined.iter().copied());
            for sw in r.switches {
                switches.entry(sw.dp).or_insert(sw);
            }
            if i < self.shards.len() {
                shard_rows.push(ShardStatus {
                    shard: i as u32,
                    queued: r.queued,
                    active: r.active,
                    switches: sub.shadowed_switches(),
                });
            }
        }
        let mut usage: BTreeMap<TenantId, u32> = BTreeMap::new();
        for sub in self.shards.iter().chain(std::iter::once(&self.coord)) {
            for (t, n) in sub.tenants_in_flight() {
                *usage.entry(t).or_insert(0) += n;
            }
        }
        for x in &self.xqueue {
            *usage.entry(x.tenant).or_insert(0) += 1;
        }
        let tenants = usage
            .into_iter()
            .map(|(tenant, in_flight)| TenantStatus {
                tenant,
                in_flight,
                quota: self.tenants.quota_for(tenant),
            })
            .collect();
        StatusReport {
            queued: self.queued(),
            active: self.active_count(),
            pending_acks,
            stats: self.stats(),
            switches: switches.into_values().collect(),
            journal_len,
            quarantined: quarantined.into_iter().collect(),
            shards: shard_rows,
            tenants,
            xshard_queued: self.xqueue.len(),
            xshard_active: self.xactive.len(),
        }
    }

    fn on_disconnect(&mut self, dp: DpId, now: SimTime) {
        let s = self.assign.shard_of(dp) as usize;
        self.shards[s].on_disconnect(dp, now);
        // the coordinator holds no shadow for dp, but any audit-free
        // cleanup it keeps (aborting probes) is still correct
        self.coord.on_disconnect(dp, now);
    }

    fn on_reconnect(&mut self, dp: DpId, now: SimTime) -> Vec<CtrlOutput> {
        // only the owning shard audits: its shadow holds the merged
        // per-switch intent (local jobs + mirrored cross-shard rules)
        let s = self.assign.shard_of(dp) as usize;
        self.shards[s].on_reconnect(dp, now)
    }

    fn note_installed(&mut self, dp: DpId, msg: &OfMessage) {
        let s = self.assign.shard_of(dp) as usize;
        self.shards[s].note_installed(dp, msg);
    }

    fn intended_hashes(&self, dp: DpId) -> Option<Vec<u64>> {
        self.shards[self.assign.shard_of(dp) as usize].intended_hashes(dp)
    }

    fn attach_obs(&mut self, obs: Obs) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.attach_obs(obs.for_shard(i as u32));
        }
        // the coordinator runtime and the fabric itself share the tag
        // one past the last shard, keeping their rings separate from
        // shard-local traffic
        let coord_tag = self.shards.len() as u32;
        self.coord.attach_obs(obs.for_shard(coord_tag));
        self.obs = obs.for_shard(coord_tag);
    }

    fn recover_from_crash(&mut self, now: SimTime) -> bool {
        if !self.journal.is_enabled() {
            return false;
        }
        let replayed = self.journal.len() as u64;
        for s in &mut self.shards {
            s.recover_from_crash(now);
        }
        self.coord.recover_from_crash(now);
        // volatile fabric state died with the process
        self.xqueue.clear();
        self.xactive.clear();
        self.reports.clear();
        self.overlay = RuntimeStats::default();

        #[derive(Default)]
        struct XRec {
            update: Option<CompiledUpdate>,
            priority: Priority,
            tenant: TenantId,
            deadline: Option<SimTime>,
            submitted: SimTime,
            prepared: bool,
            coord: Option<JobId>,
            aborted: bool,
        }
        let mut xjobs: BTreeMap<u64, XRec> = BTreeMap::new();
        for rec in self.journal.records() {
            match rec {
                JournalRecord::Admitted {
                    id,
                    update,
                    priority,
                    tenant,
                    deadline,
                    at,
                } => {
                    let x = xjobs.entry(id.0).or_default();
                    x.update = Some(update);
                    x.priority = priority;
                    x.tenant = tenant;
                    x.deadline = deadline;
                    x.submitted = at;
                }
                JournalRecord::Prepared { id, .. } => {
                    xjobs.entry(id.0).or_default().prepared = true;
                }
                JournalRecord::XCommitted { id, coord, .. } => {
                    xjobs.entry(id.0).or_default().coord = Some(coord);
                }
                JournalRecord::Aborted { id, .. } => {
                    xjobs.entry(id.0).or_default().aborted = true;
                }
                _ => {}
            }
        }
        let mut aborts: Vec<JobId> = Vec::new();
        for (&idu, x) in &xjobs {
            self.next_ticket = self.next_ticket.max(idu + 1);
            let id = JobId(idu);
            let Some(update) = x.update.clone() else {
                continue;
            };
            if x.aborted {
                // terminal before the crash; keep the books consistent
                self.push_failed(update.label, x.submitted, None);
                continue;
            }
            let footprint = Footprint::of(&update);
            let involved = self.involved(&footprint);
            match x.coord {
                Some(cid) => {
                    if self.coord.job_in_flight(cid) {
                        // the recovered coordinator will re-run it:
                        // put its reservations back before anything
                        // shard-local can launch into the gap
                        let rid = reserve_id(id);
                        for &s in &involved {
                            let slice = footprint.slice(|dp| self.assign.shard_of(dp) == s);
                            let ok = self.shards[s as usize].reserve(rid, &slice);
                            debug_assert!(ok, "recovered reservation conflicts");
                        }
                        self.xactive.insert(
                            id,
                            XActive {
                                coord: cid,
                                involved,
                            },
                        );
                    }
                }
                None if x.prepared => {
                    // caught between prepare and commit: the protocol's
                    // answer is abort — reservations died with the
                    // process, nothing executed, the client retries
                    aborts.push(id);
                    self.push_failed(update.label, x.submitted, None);
                }
                None => {
                    // still waiting for a successful prepare: re-queue
                    self.overlay.submitted += 1;
                    self.overlay.accepted += 1;
                    self.xqueue.push_back(XPending {
                        id,
                        update,
                        footprint,
                        involved,
                        priority: x.priority,
                        tenant: x.tenant,
                        deadline: x.deadline,
                        submitted: x.submitted,
                        attempts: 0,
                    });
                }
            }
        }
        for id in aborts {
            self.journal.append(&JournalRecord::Aborted { id, at: now });
        }
        self.harvest();
        self.obs
            .emit(Event::new(now, EventKind::JournalReplay).aux(replayed));
        self.obs.emit(Event::new(now, EventKind::CrashRecover));
        self.obs.dump(DumpReason::CrashRecovery, now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledRound;
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand};
    use sdn_types::{HostId, SimDuration, Xid};

    fn flowmod(dst: u32) -> OfMessage {
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host(HostId(dst)),
            actions: vec![],
            cookie: 0,
        })
    }

    fn job(label: &str, dst: u32, rounds: Vec<Vec<u64>>) -> CompiledUpdate {
        CompiledUpdate {
            label: label.into(),
            rounds: rounds
                .into_iter()
                .map(|dps| CompiledRound {
                    msgs: dps.into_iter().map(|d| (DpId(d), flowmod(dst))).collect(),
                    pre_delay: SimDuration::ZERO,
                })
                .collect(),
        }
    }

    fn barriers_of(cmds: &[CtrlOutput]) -> Vec<(DpId, Xid)> {
        cmds.iter()
            .filter_map(|CtrlOutput::Send(dp, env)| {
                (env.msg == OfMessage::BarrierRequest).then_some((*dp, env.xid))
            })
            .collect()
    }

    /// Answer every outstanding barrier until the fabric goes idle.
    fn drain(fab: &mut FabricCoordinator, mut cmds: Vec<CtrlOutput>, mut t: u64) -> u64 {
        for _ in 0..64 {
            let mut next = Vec::new();
            for (dp, xid) in barriers_of(&cmds) {
                t += 1;
                next.extend(fab.on_message(
                    SimTime(t),
                    dp,
                    &Envelope::new(xid, OfMessage::BarrierReply),
                ));
            }
            t += 1;
            next.extend(fab.poll(SimTime(t)));
            if fab.is_idle() && barriers_of(&next).is_empty() {
                return t;
            }
            cmds = next;
        }
        panic!("fabric did not drain");
    }

    fn fabric(shards: u32) -> FabricCoordinator {
        FabricCoordinator::new(FabricConfig {
            shards,
            ..FabricConfig::default()
        })
    }

    #[test]
    fn single_shard_update_routes_directly() {
        let mut fab = fabric(2);
        // dp2 and dp4 are both shard 0 under modulo 2
        let t = fab
            .submit(
                job("local", 2, vec![vec![2], vec![4]]),
                SimTime(0),
                Priority::Normal,
            )
            .expect("admitted");
        assert_eq!(t.shard, Some(0));
        assert!(!t.cross_shard);
        let cmds = fab.poll(SimTime(0));
        let b = barriers_of(&cmds);
        assert_eq!(b.len(), 1);
        // shard 0 xids live in [1<<24, 2<<24)
        assert!(b[0].1 .0 >= 1 << 24 && b[0].1 .0 < 2 << 24);
        drain(&mut fab, cmds, 0);
        assert_eq!(fab.reports().len(), 1);
        assert!(fab.reports()[0].completed.is_some());
        assert_eq!(fab.stats().completed, 1);
    }

    /// A shard that outlives its 2²⁴ xids must wrap inside its own
    /// range: one step past it the replies would route to shard 1.
    #[test]
    fn shard_xids_wrap_inside_the_carve() {
        let (first, count) = shard_xid_range(0);
        let mut xids = crate::executor::XidAlloc::with_range(first, count);
        for k in 0..(1u32 << 24) + 10 {
            let xid = xids.alloc().0;
            assert_eq!(xid / SHARD_XID_STRIDE, 1, "allocation {k} = {xid:#x}");
        }
    }

    #[test]
    fn cross_shard_update_commits_and_blocks_local_conflicts() {
        let mut fab = fabric(2);
        // dp1 is shard 1, dp2 is shard 0 → cross-shard
        let t = fab
            .submit(job("xs", 7, vec![vec![1, 2]]), SimTime(0), Priority::Normal)
            .expect("admitted");
        assert!(t.cross_shard);
        assert_eq!(t.shard, None);
        assert_eq!(fab.status_report().xshard_active, 1);
        // a conflicting local update on dp1 queues behind the reservation
        let _ = fab.submit(job("local", 7, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = fab.poll(SimTime(0));
        let b = barriers_of(&cmds);
        assert_eq!(b.len(), 2, "only the coordinator's round is out");
        assert!(b.iter().all(|(_, x)| x.0 >= COORD_XID_BASE));
        assert_eq!(fab.shard(1).unwrap().queued(), 1);
        drain(&mut fab, cmds, 0);
        assert_eq!(fab.reports().len(), 2);
        assert!(fab.reports().iter().all(|r| r.completed.is_some()));
        assert_eq!(fab.status_report().xshard_active, 0);
    }

    #[test]
    fn blocked_prepare_parks_and_retries() {
        let mut fab = fabric(2);
        // occupy dp2 with an active local job
        let _ = fab.submit(job("hold", 7, vec![vec![2]]), SimTime(0), Priority::Normal);
        let held = fab.poll(SimTime(0));
        assert_eq!(barriers_of(&held).len(), 1);
        // the cross-shard update cannot prepare while dp2 is busy
        let t = fab
            .submit(job("xs", 7, vec![vec![1, 2]]), SimTime(1), Priority::Normal)
            .expect("parked");
        assert!(t.cross_shard);
        assert_eq!(fab.status_report().xshard_queued, 1);
        // finish the holder; the retry then commits and completes
        let t_end = drain(&mut fab, held, 1);
        assert_eq!(fab.status_report().xshard_queued, 0);
        let _ = t_end;
        assert_eq!(fab.reports().len(), 2);
        assert!(fab.reports().iter().all(|r| r.completed.is_some()));
    }

    #[test]
    fn tenant_quota_enforced_fabric_wide() {
        let mut fab = FabricCoordinator::new(FabricConfig {
            shards: 2,
            tenants: TenantPolicy::with_quota(1),
            ..FabricConfig::default()
        });
        let alice = TenantId(1);
        let bob = TenantId(2);
        let ok = fab.submit_request(
            SubmitRequest::new(job("a1", 2, vec![vec![2]])).tenant(alice),
            SimTime(0),
        );
        assert!(ok.is_ok());
        let over = fab.submit_request(
            SubmitRequest::new(job("a2", 3, vec![vec![4]])).tenant(alice),
            SimTime(0),
        );
        assert_eq!(
            over,
            Err(SubmitError::QuotaExceeded {
                tenant: alice,
                limit: 1,
                in_flight: 1
            })
        );
        // another tenant is unaffected
        assert!(fab
            .submit_request(
                SubmitRequest::new(job("b1", 4, vec![vec![4]])).tenant(bob),
                SimTime(0),
            )
            .is_ok());
        let s = fab.status_report();
        assert_eq!(s.tenants.len(), 2);
        assert!(s
            .tenants
            .iter()
            .all(|t| t.in_flight == 1 && t.quota == Some(1)));
        // draining frees the budget
        let cmds = fab.poll(SimTime(0));
        drain(&mut fab, cmds, 0);
        assert!(fab
            .submit_request(
                SubmitRequest::new(job("a3", 5, vec![vec![2]])).tenant(alice),
                SimTime(9),
            )
            .is_ok());
    }

    #[test]
    fn peak_active_is_not_a_sum_of_shard_peaks() {
        let mut fab = fabric(2);
        // one job on dp2 (shard 0), drained before one on dp1 (shard 1)
        for (dp, t) in [(2, 0), (1, 100)] {
            let job = job("solo", 7, vec![vec![dp]]);
            fab.submit(job, SimTime(t), Priority::Normal).unwrap();
            let cmds = fab.poll(SimTime(t));
            drain(&mut fab, cmds, t);
        }
        assert_eq!(fab.stats().completed, 2);
        assert_eq!(fab.stats().peak_active, 1, "never two at once");
    }

    #[test]
    fn parked_cross_shard_update_expires_at_deadline() {
        let mut fab = fabric(2);
        let _ = fab.submit(job("hold", 7, vec![vec![2]]), SimTime(0), Priority::Normal);
        let _held = fab.poll(SimTime(0));
        let t = fab.submit_request(
            SubmitRequest::new(job("xs", 7, vec![vec![1, 2]])).deadline(SimTime(5)),
            SimTime(1),
        );
        assert!(t.is_ok());
        // deadline passes while parked; the next poll aborts it
        let _ = fab.poll(SimTime(10));
        let r = fab
            .reports()
            .iter()
            .find(|r| r.label == "xs")
            .expect("abort report");
        assert_eq!(r.failure, Some(FailReason::DeadlineExpired));
        assert_eq!(fab.status_report().xshard_queued, 0);
        assert_eq!(fab.stats().failed, 1);
    }

    #[test]
    fn recovery_requeues_parked_and_rereserves_committed() {
        let mut fab = FabricCoordinator::new(FabricConfig {
            shards: 2,
            journal: true,
            ..FabricConfig::default()
        });
        // committed cross-shard job (in flight at the coordinator)
        let _ = fab.submit(job("xs", 7, vec![vec![1, 2]]), SimTime(0), Priority::Normal);
        let _ = fab.poll(SimTime(0));
        // parked cross-shard job (conflicts with the first)
        let parked = fab
            .submit(
                job("xs2", 7, vec![vec![1, 4]]),
                SimTime(1),
                Priority::Normal,
            )
            .expect("parked");
        assert!(parked.cross_shard);
        assert_eq!(fab.status_report().xshard_queued, 1);

        assert!(fab.recover_from_crash(SimTime(2)));
        // the committed job kept its reservation, the parked one its slot
        assert_eq!(fab.status_report().xshard_active, 1);
        assert_eq!(fab.status_report().xshard_queued, 1);
        assert_eq!(fab.stats().recoveries, 1);
        // a conflicting local job still cannot jump the fence
        let _ = fab.submit(job("local", 7, vec![vec![1]]), SimTime(3), Priority::Normal);
        let cmds = fab.poll(SimTime(3));
        assert!(barriers_of(&cmds)
            .iter()
            .all(|(_, x)| x.0 >= COORD_XID_BASE));
        // everything still drains to completion
        drain(&mut fab, cmds, 3);
        assert_eq!(fab.reports().len(), 3);
        assert!(fab.reports().iter().all(|r| r.completed.is_some()));
    }

    #[test]
    fn crash_between_prepare_and_commit_aborts_on_recovery() {
        let mut fab = FabricCoordinator::new(FabricConfig {
            shards: 2,
            journal: true,
            ..FabricConfig::default()
        });
        // forge the torn window the in-process path can never produce:
        // Admitted + Prepared with no XCommitted
        let update = job("torn", 7, vec![vec![1, 2]]);
        fab.journal.append(&JournalRecord::Admitted {
            id: JobId(TICKET_BASE),
            update,
            priority: Priority::Normal,
            tenant: TenantId(3),
            deadline: None,
            at: SimTime(0),
        });
        fab.journal.append(&JournalRecord::Prepared {
            id: JobId(TICKET_BASE),
            shards: vec![0, 1],
            at: SimTime(0),
        });
        assert!(fab.recover_from_crash(SimTime(1)));
        // aborted: a failure report, no reservations, journal says so
        assert_eq!(fab.status_report().xshard_active, 0);
        assert_eq!(fab.status_report().xshard_queued, 0);
        let r = fab.reports().iter().find(|r| r.label == "torn").unwrap();
        assert!(r.completed.is_none());
        assert!(fab
            .journal
            .records()
            .iter()
            .any(|rec| matches!(rec, JournalRecord::Aborted { id, .. } if id.0 == TICKET_BASE)));
        // the shards are untouched: a local job on dp1 launches freely
        let _ = fab.submit(job("local", 7, vec![vec![1]]), SimTime(2), Priority::Normal);
        let cmds = fab.poll(SimTime(2));
        assert_eq!(barriers_of(&cmds).len(), 1);
        drain(&mut fab, cmds, 2);
    }

    #[test]
    fn shard_rows_count_switches_across_a_crash() {
        let mut fab = FabricCoordinator::new(FabricConfig {
            shards: 2,
            journal: true,
            ..FabricConfig::default()
        });
        // dp2 and dp4 are both shard 0 under modulo 2
        let _ = fab.submit(
            job("two", 7, vec![vec![2, 4]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = fab.poll(SimTime(0));
        let t = drain(&mut fab, cmds, 0);
        let rows = |fab: &FabricCoordinator| -> Vec<usize> {
            let r = fab.status_report();
            r.shards.iter().map(|s| s.switches).collect()
        };
        assert_eq!(rows(&fab), vec![2, 0]);
        assert!(fab.recover_from_crash(SimTime(t + 1)));
        assert!(fab.intended_hashes(DpId(2)).is_some());
        assert!(fab.intended_hashes(DpId(4)).is_some());
        assert_eq!(rows(&fab), vec![2, 0], "recovery keeps the switch count");
    }

    #[test]
    #[should_panic(expected = "at most 128 shards")]
    fn more_than_128_shards_are_refused_at_construction() {
        let _ = FabricCoordinator::with_assignment(
            FabricConfig::default(),
            ShardAssignment::modulo(MAX_SHARDS + 1),
        );
    }

    #[test]
    fn the_largest_fabric_routes_every_shard() {
        let mut fab = FabricCoordinator::with_assignment(
            FabricConfig::default(),
            ShardAssignment::modulo(MAX_SHARDS),
        );
        let t = fab
            .submit(
                job("last", 7, vec![vec![255]]),
                SimTime(0),
                Priority::Normal,
            )
            .expect("admitted");
        assert_eq!(t.shard, Some(MAX_SHARDS - 1));
    }
}
