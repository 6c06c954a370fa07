//! The dispatcher: the one controller core.
//!
//! [`ConcurrentRuntime`] drives every update the controller executes.
//! Every footprint-disjoint update in the admission queue executes
//! **concurrently**, each behind its own [`RoundExecutor`], over the
//! shared control channel; conflicting updates wait in the bounded
//! [`AdmissionQueue`] until their conflict set drains. The paper's
//! one-at-a-time message queue is the same machine with one execution
//! slot ([`RuntimeConfig::serial`]), and the sharded
//! [`FabricCoordinator`](super::FabricCoordinator) is several of these
//! behind one [`RuntimeHandle`].
//!
//! Two things live here and nowhere else: **time** — the executors are
//! clock-free; the per-slot timers `poll` walks are the only
//! retransmission engine ([`RoundExecutor::retransmit`] when one fires,
//! [`RoundExecutor::force_fail`] when a switch's budget is gone) — and
//! **reply matching**, in the route table of [`XidAlloc`]. A route hit
//! proves the reply answers an outstanding transmission of that job's
//! current round to that switch, so the executor is handed *which slot
//! answered*, never an xid; every routed reply is an RTT sample.
//!
//! What one message touches is flat: one ring cell indexed by xid (live
//! exactly while the transmission counts — a barrier's until its slot
//! fences or is done, an echo's until its payload is acknowledged — so a
//! wrapped allocator skips it), one job lookup, one slot of the executor's
//! round, and the caller's one output buffer. Two invariants, kept at
//! the state transitions themselves, make bookkeeping cost what an event
//! touches rather than what is active:
//!
//! * **every terminal transition is filed in the call that causes it**,
//!   so `reap` drains that list (in ascending id: report order is
//!   observable) and never scans;
//! * **a job is in the wake index iff it is in `WaitingGrace` or has a
//!   round in flight**, under its grace expiry or under a *bound* no
//!   deadline of its timers can precede however the RTO estimates move
//!   (`runtime/timers.rs`). `poll` wakes only the jobs whose
//!   expiry or bound has passed and runs the exact deadline test over
//!   their slots, in ascending id (xid allocation and send order feed
//!   the channel's RNG draws): a skipped job has no due timer, so every
//!   timer fires at the poll a walk over all of them would fire it at,
//!   and an idle `poll` touches no job and allocates nothing.

use std::collections::{BTreeMap, BTreeSet};

use sdn_obs::{DumpReason, Event, EventKind, HistId, Obs};
use sdn_openflow::codec;
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimDuration, SimTime, Xid};

use crate::compile::CompiledUpdate;
use crate::controller::{CtrlOutput, FailReason, UpdateReport};
use crate::executor::{ExecConfig, ExecState, RoundExecutor, XidAlloc};
use crate::resync::ResyncManager;
use crate::runtime::admission::{AdmissionQueue, Priority, QueuedJob};
use crate::runtime::conflict::{ConflictGraph, Footprint, JobId};
use crate::runtime::journal::{Journal, JournalRecord};
use crate::runtime::rto::{RtoConfig, RtoTable};
use crate::runtime::submit::{SubmitError, SubmitOutcome, SubmitRequest, SubmitTicket, TenantId};
use crate::runtime::timers::WakeIndex;
use crate::runtime::{RuntimeHandle, RuntimeStats, StatusReport, SwitchStatus, TenantStatus};

/// How the runtime times retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransMode {
    /// One fixed per-switch timeout ([`ExecConfig::barrier_timeout`])
    /// per transmission — the serial configuration's policy, and the
    /// baseline the adaptive timers are compared against.
    Fixed,
    /// Per-switch EWMA RTT + variance with exponential backoff.
    Adaptive(RtoConfig),
}

impl Default for RetransMode {
    fn default() -> Self {
        RetransMode::Adaptive(RtoConfig::default())
    }
}

/// Runtime tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Per-executor settings. `max_attempts` is the per-switch
    /// transmission budget; `barrier_timeout` is only consulted in
    /// [`RetransMode::Fixed`].
    pub exec: ExecConfig,
    /// Waiting-queue capacity (jobs beyond this are refused with
    /// [`SubmitError::QueueFull`]).
    pub queue_capacity: usize,
    /// Maximum concurrently executing updates.
    pub max_active: usize,
    /// Retransmission timing.
    pub retrans: RetransMode,
    /// Job failures attributed to one switch before it is
    /// quarantined (0 disables quarantine).
    pub quarantine_strikes: u32,
    /// Deadline before an unanswered digest probe is re-sent.
    pub resync_probe_timeout: SimDuration,
    /// Probe transmissions per audit before the switch is abandoned
    /// to quarantine.
    pub resync_attempts: u32,
    /// The transaction ids this runtime allocates, as `(first, count)`;
    /// it wraps inside the range. Runtimes sharing a transport (fabric
    /// shards + coordinator) carve disjoint ranges so replies route to
    /// their owner by xid value alone.
    pub xid_range: (u32, u32),
    /// First job id this runtime assigns. Fabric shards carve disjoint
    /// ranges so a ticket's job id is unique fabric-wide and names its
    /// owning runtime by value alone — no translation table to lose in
    /// a crash.
    pub job_id_base: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            exec: ExecConfig::default(),
            queue_capacity: 64,
            max_active: 16,
            retrans: RetransMode::default(),
            quarantine_strikes: 2,
            resync_probe_timeout: SimDuration::from_millis(200),
            resync_attempts: 8,
            xid_range: (1, u32::MAX),
            job_id_base: 1,
        }
    }
}

impl RuntimeConfig {
    /// The paper's controller — "a message queue … processed one at a
    /// time" — as a configuration of this runtime: one execution slot,
    /// the fixed [`ExecConfig::barrier_timeout`] per transmission, no
    /// quarantine, and a queue that never refuses.
    pub fn serial(exec: ExecConfig) -> Self {
        RuntimeConfig {
            exec,
            queue_capacity: usize::MAX,
            max_active: 1,
            retrans: RetransMode::Fixed,
            quarantine_strikes: 0,
            ..RuntimeConfig::default()
        }
    }
}

/// One executing update.
#[derive(Debug, Clone)]
struct ActiveJob {
    ex: RoundExecutor,
    submitted: SimTime,
    started: SimTime,
    /// Whose budget this job occupies until reaped.
    tenant: TenantId,
    /// Why the job was force-failed, when it was.
    failure: Option<FailReason>,
    /// Its key in the wake index's timer bounds, while filed there.
    bound: Option<SimTime>,
}

/// The concurrent update runtime.
#[derive(Debug, Clone)]
pub struct ConcurrentRuntime {
    config: RuntimeConfig,
    queue: AdmissionQueue,
    graph: ConflictGraph,
    active: BTreeMap<JobId, ActiveJob>,
    wake: WakeIndex,
    /// Jobs `poll` and `reap` have looked at (see `dispatch_work`).
    visited: u64,
    /// The xid allocator and the route table.
    xids: XidAlloc,
    rto: RtoTable,
    reports: Vec<UpdateReport>,
    stats: RuntimeStats,
    next_id: u64,
    /// Shadow tables + the audit-and-repair state machine.
    resync: ResyncManager,
    /// Write-ahead log for crash recovery.
    journal: Journal,
    /// Switches withdrawn from service after repeated failures.
    quarantined: BTreeSet<DpId>,
    /// Per-switch failure count feeding quarantine.
    strikes: BTreeMap<DpId, u32>,
    /// Observability sink (disabled by default; see
    /// [`RuntimeHandle::attach_obs`]).
    obs: Obs,
}

impl ConcurrentRuntime {
    /// A runtime with the given configuration and no journal.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_journal(config, Journal::Disabled)
    }

    /// A runtime logging admission and progress to `journal` so
    /// [`ConcurrentRuntime::recover`] can rebuild it after a crash.
    pub fn with_journal(config: RuntimeConfig, journal: Journal) -> Self {
        let rto = match config.retrans {
            RetransMode::Adaptive(cfg) => RtoTable::new(cfg),
            RetransMode::Fixed => RtoTable::default(),
        };
        ConcurrentRuntime {
            queue: AdmissionQueue::new(config.queue_capacity),
            graph: ConflictGraph::new(),
            active: BTreeMap::new(),
            wake: WakeIndex::new(config),
            visited: 0,
            xids: XidAlloc::with_range(config.xid_range.0, config.xid_range.1),
            rto,
            reports: Vec::new(),
            stats: RuntimeStats::default(),
            next_id: config.job_id_base.max(1),
            resync: ResyncManager::new(),
            journal,
            quarantined: BTreeSet::new(),
            strikes: BTreeMap::new(),
            obs: Obs::disabled(),
            config,
        }
    }

    /// Rebuild a runtime from its journal after a crash.
    ///
    /// Terminal jobs re-enter the report log; every unfinished job is
    /// re-queued in its original admission order with a `resume_round`
    /// pointing past its last journalled commit, so the next
    /// [`poll`](RuntimeHandle::poll) re-dispatches from there through
    /// the normal launch machinery. Rounds at or before the commit
    /// cursor are known fenced network-wide and are replayed into the
    /// resync shadow (not the network); a round the journal
    /// under-reported is simply re-sent — FlowMods are idempotent, so
    /// over-sending is correct and only costs messages. Xids restart
    /// at the base of [`RuntimeConfig::xid_range`]: replies to
    /// pre-crash transmissions no longer route and are ignored, and the
    /// retransmission timers re-drive anything lost in the gap.
    pub fn recover(config: RuntimeConfig, journal: Journal) -> Self {
        struct Recovered {
            update: CompiledUpdate,
            priority: Priority,
            tenant: TenantId,
            deadline: Option<SimTime>,
            submitted: SimTime,
            started: Option<SimTime>,
            committed: Option<usize>,
            terminal: bool,
        }
        let mut rt = Self::new(config);
        let mut jobs: BTreeMap<u64, Recovered> = BTreeMap::new();
        for rec in journal.records() {
            let completed = matches!(rec, JournalRecord::Completed { .. });
            match rec {
                JournalRecord::Baseline { dp, frame } => {
                    if let Ok(env) = codec::decode(&frame) {
                        if let OfMessage::FlowMod(fm) = &env.msg {
                            rt.resync.record(dp, fm);
                        }
                    }
                }
                JournalRecord::Admitted {
                    id,
                    update,
                    priority,
                    tenant,
                    deadline,
                    at,
                } => {
                    jobs.insert(
                        id.0,
                        Recovered {
                            update,
                            priority,
                            tenant,
                            deadline,
                            submitted: at,
                            started: None,
                            committed: None,
                            terminal: false,
                        },
                    );
                }
                JournalRecord::Started { id, at } => {
                    if let Some(j) = jobs.get_mut(&id.0) {
                        j.started = Some(at);
                    }
                }
                JournalRecord::RoundCommitted { id, round, .. } => {
                    if let Some(j) = jobs.get_mut(&id.0) {
                        j.committed = Some(j.committed.map_or(round, |c| c.max(round)));
                    }
                }
                JournalRecord::Completed { id, at } | JournalRecord::Failed { id, at } => {
                    if let Some(j) = jobs.get_mut(&id.0) {
                        j.terminal = true;
                        if completed {
                            j.committed = Some(j.update.rounds.len().saturating_sub(1));
                            rt.stats.completed += 1;
                        } else {
                            rt.stats.failed += 1;
                        }
                        rt.reports.push(UpdateReport {
                            label: j.update.label.clone(),
                            submitted: j.submitted,
                            started: j.started.unwrap_or(j.submitted),
                            completed: completed.then_some(at),
                            failure: None,
                            rounds: Vec::new(),
                        });
                    }
                }
                // Two-phase records live in the fabric's own journal; a
                // runtime journal never carries them, but tolerate them
                // like any other foreign line.
                JournalRecord::Prepared { .. }
                | JournalRecord::XCommitted { .. }
                | JournalRecord::Aborted { .. } => {}
            }
        }
        // Rounds up to the commit cursor are fenced: their rules are on
        // the switches, so the shadow must know them.
        let replay = |resync: &mut ResyncManager, job: &Recovered| {
            let fenced = job
                .update
                .rounds
                .iter()
                .take(job.committed.map_or(0, |c| c + 1));
            for (dp, msg) in fenced.flat_map(|r| &r.msgs) {
                if let OfMessage::FlowMod(fm) = msg {
                    resync.record(*dp, fm);
                }
            }
        };
        for (&id, job) in &jobs {
            rt.stats.submitted += 1;
            rt.stats.accepted += 1;
            rt.next_id = rt.next_id.max(id + 1);
            if job.terminal {
                continue;
            }
            replay(&mut rt.resync, job);
            let resume_round = job.committed.map_or(0, |c| c + 1);
            let footprint = Footprint::of(&job.update);
            rt.queue.offer(QueuedJob {
                id: JobId(id),
                update: job.update.clone(),
                footprint,
                submitted: job.submitted,
                priority: job.priority,
                tenant: job.tenant,
                deadline: job.deadline,
                resume_round,
            });
        }
        // Completed jobs' rules are on the switches too.
        for job in jobs.values().filter(|j| j.terminal) {
            replay(&mut rt.resync, job);
        }
        rt.stats.recoveries = 1;
        rt.journal = journal;
        rt
    }

    /// The per-switch RTO table (diagnostics).
    pub fn rto_table(&self) -> &RtoTable {
        &self.rto
    }

    /// Switches this runtime holds intended rules for: its resync
    /// shadows, which crash recovery rebuilds from the journal.
    pub(crate) fn shadowed_switches(&self) -> usize {
        self.resync.shadowed()
    }

    /// Jobs `poll` and `reap` looked at plus conflict-index entries
    /// admission probed: clock-free cost, for the scaling tests.
    #[doc(hidden)]
    pub fn dispatch_work(&self) -> u64 {
        self.visited + self.graph.probed()
    }

    /// Jobs currently executing, with their current round (diagnostics).
    pub fn active_jobs(&self) -> impl Iterator<Item = (JobId, &str, usize)> + '_ {
        self.active
            .iter()
            .map(|(&id, j)| (id, j.ex.label(), j.ex.current_round()))
    }

    /// In-flight (queued + active) job counts per tenant. The fabric
    /// reads this after a crash recovery to rebuild its quota ledger
    /// without re-parsing shard journals.
    pub fn tenants_in_flight(&self) -> BTreeMap<TenantId, u32> {
        let mut usage: BTreeMap<TenantId, u32> = BTreeMap::new();
        for job in self.queue.iter() {
            *usage.entry(job.tenant).or_insert(0) += 1;
        }
        for job in self.active.values() {
            *usage.entry(job.tenant).or_insert(0) += 1;
        }
        usage
    }

    /// In-flight job count for one tenant.
    pub fn tenant_usage(&self, tenant: TenantId) -> u32 {
        self.queue.iter().filter(|j| j.tenant == tenant).count() as u32
            + self.active.values().filter(|j| j.tenant == tenant).count() as u32
    }

    /// Whether `footprint` conflicts with no active job or reservation
    /// (a dry-run of [`ConcurrentRuntime::reserve`]).
    pub fn admits_footprint(&self, footprint: &Footprint) -> bool {
        self.graph.admits(footprint)
    }

    /// Reserve a footprint slice in this runtime's conflict graph on
    /// behalf of an external owner (the fabric's two-phase prepare).
    /// While held, conflicting local jobs wait in the admission queue
    /// exactly as they would behind an active job. Returns `false` —
    /// reserving nothing — when the slice conflicts with an active job
    /// or an earlier reservation, or touches a quarantined switch.
    pub fn reserve(&mut self, id: JobId, footprint: &Footprint) -> bool {
        if !self.graph.admits(footprint)
            || footprint
                .switches()
                .any(|dp| self.quarantined.contains(&dp))
        {
            return false;
        }
        self.graph.insert(id, footprint.clone());
        true
    }

    /// Release a reservation taken by [`ConcurrentRuntime::reserve`]
    /// (two-phase commit or abort). Unknown ids are ignored, so a
    /// coordinator may release unconditionally while unwinding.
    pub fn release(&mut self, id: JobId) {
        self.graph.remove(id);
    }

    /// Whether `dp` is currently quarantined.
    pub fn is_quarantined(&self, dp: DpId) -> bool {
        self.quarantined.contains(&dp)
    }

    /// Whether `id` is still queued or executing here. The fabric
    /// polls this to learn when a committed cross-shard job reached a
    /// terminal state and its shard reservations can be released.
    pub fn job_in_flight(&self, id: JobId) -> bool {
        self.active.contains_key(&id) || self.queue.iter().any(|j| j.id == id)
    }

    /// What every send site does with the commands it appended: mirror
    /// the FlowMods into the resync shadow — the controller's picture of
    /// every switch stays in lock-step with what it sent (recording a
    /// retransmitted rule again is a no-op) — and trace them.
    fn sent(&mut self, id: JobId, round: usize, now: SimTime, cmds: &[CtrlOutput]) {
        for CtrlOutput::Send(dp, env) in cmds {
            if let OfMessage::FlowMod(fm) = &env.msg {
                self.resync.record(*dp, fm);
                let event = Event::new(now, EventKind::FlowModSend).span(id.0);
                self.obs.emit(event.dp(dp.0).round(round));
            }
        }
    }

    /// Withdraw `dp` from service: new jobs touching it fail fast at
    /// launch, and the next poll aborts active jobs still waiting on
    /// it. Reconnection lifts the quarantine.
    fn quarantine(&mut self, dp: DpId, now: SimTime) {
        if self.quarantined.insert(dp) {
            self.stats.quarantined += 1;
            self.obs
                .emit(Event::new(now, EventKind::Quarantine).dp(dp.0));
            self.obs.dump(DumpReason::Quarantine, now);
        }
    }

    /// Move finished/failed jobs to the report log and release their
    /// conflict-graph slots and routes.
    fn reap(&mut self, now: SimTime) {
        if self.wake.finished.is_empty() {
            return; // most messages finish nothing
        }
        // ascending id: report order is observable
        let mut done = std::mem::take(&mut self.wake.finished);
        done.sort_unstable();
        done.dedup();
        for id in done.drain(..) {
            let job = self.active.remove(&id).expect("finished jobs are active");
            self.visited += 1;
            job.ex.retire_routes(&mut self.xids);
            self.graph.remove(id);
            let done = job.ex.state() == ExecState::Done;
            let (label, rounds) = job.ex.finish();
            let completed = if done {
                self.stats.completed += 1;
                Some(rounds.last().and_then(|t| t.completed).unwrap_or(now))
            } else {
                self.stats.failed += 1;
                None
            };
            match completed {
                Some(at) => {
                    self.journal.append(&JournalRecord::Completed { id, at });
                    let latency = at.saturating_since(job.submitted);
                    self.obs
                        .observe(HistId::SubmitToCommitNs, latency.as_nanos());
                    self.obs.emit(
                        Event::new(at, EventKind::Commit)
                            .span(id.0)
                            .aux(latency.as_nanos()),
                    );
                }
                None => {
                    self.journal.append(&JournalRecord::Failed { id, at: now });
                    self.obs.emit(Event::new(now, EventKind::Abort).span(id.0));
                    // A budget exhausted against one switch is a strike
                    // against it; enough strikes quarantine the switch
                    // so later jobs fail fast instead of burning their
                    // budgets against a peer known dead.
                    if let Some(FailReason::Exhausted(dp)) = job.failure {
                        let strikes = self.strikes.entry(dp).or_insert(0);
                        *strikes += 1;
                        if self.config.quarantine_strikes > 0
                            && *strikes >= self.config.quarantine_strikes
                        {
                            self.quarantine(dp, now);
                        }
                    }
                }
            }
            self.reports.push(UpdateReport {
                label,
                submitted: job.submitted,
                started: job.started,
                completed,
                // an executor fails only through `force_fail`, and every
                // call site names the reason first
                failure: job.failure,
                rounds,
            });
        }
        self.wake.finished = done; // emptied; keeps its capacity
    }

    /// Launch queued jobs whose conflict sets are clear, up to the
    /// parallelism cap. Jobs touching a quarantined switch fail fast
    /// with a typed reason instead of burning a retransmission budget.
    fn launch(&mut self, now: SimTime, out: &mut Vec<CtrlOutput>) {
        while self.active.len() < self.config.max_active {
            let Some(qj) = self.queue.pop_dispatchable(&self.graph) else {
                break;
            };
            let QueuedJob {
                id,
                update,
                footprint,
                submitted,
                tenant,
                deadline,
                resume_round,
                ..
            } = qj;
            // a deadline that lapsed while queued (stale intent is not
            // worth the network churn) or a quarantined switch
            let dead = footprint
                .switches()
                .find(|dp| self.quarantined.contains(dp));
            let failure = match dead {
                _ if deadline.is_some_and(|d| now > d) => Some(FailReason::DeadlineExpired),
                Some(dp) => Some(FailReason::Quarantined(dp)),
                None => None,
            };
            if let Some(failure) = failure {
                self.stats.failed += 1;
                self.journal.append(&JournalRecord::Failed { id, at: now });
                let abort = Event::new(now, EventKind::Abort).span(id.0);
                self.obs.emit(match failure {
                    FailReason::Quarantined(dp) => abort.dp(dp.0),
                    _ => abort,
                });
                self.reports.push(UpdateReport {
                    label: update.label,
                    submitted,
                    started: now,
                    completed: None,
                    failure: Some(failure),
                    rounds: Vec::new(),
                });
                continue;
            }
            let mut ex = RoundExecutor::resume(id, update, self.config.exec, resume_round);
            let start = out.len();
            ex.start(now, &mut self.xids, out);
            self.graph.insert(id, footprint);
            let mut job = ActiveJob {
                ex,
                submitted,
                started: now,
                tenant,
                failure: None,
                bound: None,
            };
            self.journal.append(&JournalRecord::Started { id, at: now });
            self.obs.emit(
                Event::new(now, EventKind::RoundDispatch)
                    .span(id.0)
                    .round(job.ex.current_round())
                    .aux(job.ex.current_round_width() as u64),
            );
            let round = job.ex.current_round();
            self.wake.file(id, &job.ex, &mut job.bound);
            self.active.insert(id, job);
            self.sent(id, round, now, &out[start..]);
            self.stats.peak_active = self.stats.peak_active.max(self.active.len() as u64);
        }
        // instantly-done (empty) updates release their slots right away
        self.reap(now);
    }

    /// [`RuntimeHandle::submit_request`] for a caller that already
    /// extracted the update's footprint (the fabric routes by it), so
    /// each update's footprint is built once.
    pub(crate) fn submit_prepared(
        &mut self,
        req: SubmitRequest,
        footprint: Option<Footprint>,
        now: SimTime,
    ) -> SubmitOutcome {
        self.stats.submitted += 1;
        // refuse before burning an id: an expired deadline is the
        // caller's problem, not queue pressure
        if req.deadline.is_some_and(|d| now > d) {
            self.stats.rejected += 1;
            self.obs.emit(Event::new(now, EventKind::Reject).aux(1));
            return Err(SubmitError::DeadlineExpired);
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.obs.emit(
            Event::new(now, EventKind::Submit)
                .span(id.0)
                .aux(self.queue.len() as u64),
        );
        self.obs
            .observe(HistId::QueueDepthAtSubmit, self.queue.len() as u64);
        let footprint = footprint.unwrap_or_else(|| Footprint::of(&req.update));
        // the record clones the whole update: build it only when a
        // journal is actually attached
        let admitted = self.journal.is_enabled().then(|| JournalRecord::Admitted {
            id,
            update: req.update.clone(),
            priority: req.priority,
            tenant: req.tenant,
            deadline: req.deadline,
            at: now,
        });
        let queued = self.queue.offer(QueuedJob {
            id,
            update: req.update,
            footprint,
            submitted: now,
            priority: req.priority,
            tenant: req.tenant,
            deadline: req.deadline,
            resume_round: 0,
        });
        if !queued {
            self.stats.rejected += 1;
            self.obs
                .emit(Event::new(now, EventKind::Reject).span(id.0).aux(3));
            return Err(SubmitError::QueueFull);
        }
        self.stats.accepted += 1;
        self.obs.emit(Event::new(now, EventKind::Admit).span(id.0));
        if let Some(rec) = &admitted {
            self.journal.append(rec);
        }
        Ok(SubmitTicket::local(id, self.queue.len()))
    }
}

impl ConcurrentRuntime {
    /// [`RuntimeHandle::poll`], appending to the caller's buffer.
    pub(crate) fn poll_into(&mut self, now: SimTime, out: &mut Vec<CtrlOutput>) {
        // Abort active jobs still waiting on a switch that was
        // quarantined since their dispatch: fail fast with a typed
        // reason, releasing their conflict reservations.
        if !self.quarantined.is_empty() {
            for (&id, job) in self.active.iter_mut() {
                self.visited += 1;
                if job.failure.is_some() {
                    continue;
                }
                let dead = job
                    .ex
                    .pending_switches()
                    .find(|dp| self.quarantined.contains(dp));
                if let Some(dp) = dead {
                    job.failure = Some(FailReason::Quarantined(dp));
                    job.ex.force_fail();
                    self.wake.file(id, &job.ex, &mut job.bound);
                }
            }
        }
        // Drive the executors whose grace ended or one of whose timers
        // may be due — grace transitions and per-switch retransmission
        // timers — in ascending id order: xid allocation and send
        // order are observable.
        let woken = self.wake.wake(now);
        for &id in &woken {
            let job = self.active.get_mut(&id).expect("woken jobs are active");
            self.visited += 1;
            job.bound = None; // unfiled by `wake`
            let start = out.len();
            // woken jobs are waiting out a grace or have a round in flight
            let fired = match job.ex.state() {
                ExecState::WaitingGrace => Ok(false),
                _ => self.wake.fire(&mut job.ex, &self.rto, now, &mut self.stats),
            };
            match fired {
                Err(dp) => {
                    job.failure = Some(FailReason::Exhausted(dp));
                    job.ex.force_fail();
                }
                Ok(true) => job.ex.retransmit(now, &mut self.xids, out),
                Ok(false) => job.ex.end_grace(now, &mut self.xids, out),
            }
            let round = job.ex.current_round();
            self.wake.file(id, &job.ex, &mut job.bound);
            self.sent(id, round, now, &out[start..]);
        }
        self.wake.woken = woken;
        self.wake.woken.clear();
        // Re-probe unanswered audits; switches that exhaust the probe
        // budget are quarantined (reconnect lifts it and re-audits).
        let (reprobes, give_up) = self.resync.on_tick(
            now,
            self.config.resync_probe_timeout,
            self.config.resync_attempts,
            &mut self.xids,
        );
        out.extend(
            reprobes
                .into_iter()
                .map(|(dp, env)| CtrlOutput::Send(dp, env)),
        );
        for dp in give_up {
            self.quarantine(dp, now);
        }
        self.reap(now);
        self.launch(now, out);
    }

    /// [`RuntimeHandle::on_message`], appending to the caller's buffer.
    pub(crate) fn on_message_into(
        &mut self,
        now: SimTime,
        from: DpId,
        env: &Envelope,
        out: &mut Vec<CtrlOutput>,
    ) {
        // `None`: a barrier reply; `Some`: an echo reply's payload.
        let echoed = match &env.msg {
            OfMessage::BarrierReply => None,
            OfMessage::EchoReply(payload) => Some(payload),
            _ => return, // errors, stats: not routed
        };
        // Digest-probe replies belong to the resync state machine, not
        // to any job. The repair FlowMods come straight from the shadow
        // (recording them again would be a no-op).
        if let Some(payload) = echoed {
            if self.resync.owns(from, env.xid) {
                let repairs = self.resync.on_report(from, payload, now, &mut self.xids);
                out.extend(repairs.into_iter().map(|e| CtrlOutput::Send(from, e)));
                if !self.resync.audit_in_flight(from) {
                    self.obs.emit(
                        Event::new(now, EventKind::ResyncDone)
                            .dp(from.0)
                            .aux(self.resync.stats().rules_replayed),
                    );
                }
                return;
            }
        }
        let Some(route) = self.xids.route(from, env.xid) else {
            return; // retired (superseded, fenced, accepted) or unknown
        };
        let (id, slot) = (route.job, route.slot as usize);
        let Some(job) = self.active.get_mut(&id) else {
            return;
        };
        let (before, prev_round) = (job.ex.state(), job.ex.current_round());
        let start = out.len();
        // Retransmissions re-key, so the route names the exact
        // transmission: a clean RTT sample, no Karn ambiguity. Echoes are
        // sampled too: in ack mode a switch can be done before its
        // barrier reply routes.
        let rtt = now.saturating_since(route.sent_at);
        self.rto.observe(from, rtt);
        if let Some(echoed) = echoed {
            // Payload (echo) acks match by exact xid and bytes — every
            // transmission's echo stays valid until one is accepted.
            self.obs.emit(
                Event::new(now, EventKind::FlowModAck)
                    .span(id.0)
                    .dp(from.0)
                    .round(prev_round),
            );
            job.ex
                .on_echo(now, from, slot, env.xid, echoed, &mut self.xids, out);
        } else {
            self.obs.observe(HistId::BarrierRttNs, rtt.as_nanos());
            self.obs.emit(
                Event::new(now, EventKind::BarrierFence)
                    .span(id.0)
                    .dp(from.0)
                    .round(prev_round)
                    .aux(rtt.as_nanos()),
            );
            // The route hit is the match: a reply to ANY outstanding
            // transmission fences the round's content at this switch
            // (identical FlowMods precede every barrier). In ack mode it
            // may also reveal lost echoes, resent at once against the
            // switch's budget as a timer would resend them.
            match job
                .ex
                .on_barrier(now, from, slot, route.attempt, &mut self.xids, out)
            {
                Ok(resent) => self.stats.retransmissions += u64::from(resent),
                Err(dp) => {
                    job.failure = Some(FailReason::Exhausted(dp));
                    job.ex.force_fail();
                }
            }
        }
        let round = job.ex.current_round();
        if (job.ex.state(), round) != (before, prev_round) {
            self.wake.file(id, &job.ex, &mut job.bound);
        }
        // Every round crossed by this message is fenced network-wide:
        // journal the commits so recovery resumes past them.
        for r in prev_round..round {
            self.journal.append(&JournalRecord::RoundCommitted {
                id,
                round: r,
                at: now,
            });
            self.obs
                .emit(Event::new(now, EventKind::RoundCommit).span(id.0).round(r));
        }
        if round != prev_round && !matches!(job.ex.state(), ExecState::Done | ExecState::Failed) {
            self.obs.emit(
                Event::new(now, EventKind::RoundDispatch)
                    .span(id.0)
                    .round(round)
                    .aux(job.ex.current_round_width() as u64),
            );
        }
        self.sent(id, round, now, &out[start..]);
        self.reap(now);
        // a completed job may unblock queued conflicting jobs
        self.launch(now, out);
    }

    /// Drain the report log by move (the fabric merges it into its own).
    pub(crate) fn take_reports(&mut self) -> std::vec::Drain<'_, UpdateReport> {
        self.reports.drain(..)
    }
}

impl RuntimeHandle for ConcurrentRuntime {
    fn submit_request(&mut self, req: SubmitRequest, now: SimTime) -> SubmitOutcome {
        self.submit_prepared(req, None, now)
    }

    fn poll(&mut self, now: SimTime) -> Vec<CtrlOutput> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    fn on_message(&mut self, now: SimTime, from: DpId, env: &Envelope) -> Vec<CtrlOutput> {
        let mut out = Vec::new();
        self.on_message_into(now, from, env, &mut out);
        out
    }

    fn is_idle(&self) -> bool {
        // in-flight resync audits count as work: polling must continue
        // so their probe timeouts (and give-up bound) can fire
        self.active.is_empty() && self.queue.is_empty() && self.resync.auditing() == 0
    }

    fn reports(&self) -> &[UpdateReport] {
        &self.reports
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn stats(&self) -> RuntimeStats {
        let mut s = self.stats;
        let r = self.resync.stats();
        s.resyncs = r.completed;
        s.resynced_rules = r.rules_replayed;
        s
    }

    fn on_disconnect(&mut self, dp: DpId, now: SimTime) {
        self.obs
            .emit(Event::new(now, EventKind::Disconnect).dp(dp.0));
        // probes in the pipe died with the connection; the next
        // reconnect restarts the audit cleanly
        self.resync.abort(dp);
    }

    fn on_reconnect(&mut self, dp: DpId, now: SimTime) -> Vec<CtrlOutput> {
        self.stats.reconnects += 1;
        self.obs
            .emit(Event::new(now, EventKind::Reconnect).dp(dp.0));
        // the switch is back: clean slate, then audit-and-repair
        self.quarantined.remove(&dp);
        self.strikes.remove(&dp);
        if !self.resync.knows(dp) {
            return Vec::new(); // nothing was ever intended for it
        }
        let probe = self.resync.begin(dp, now, &mut self.xids);
        self.obs
            .emit(Event::new(now, EventKind::ResyncBegin).dp(dp.0));
        vec![CtrlOutput::Send(dp, probe)]
    }

    fn note_installed(&mut self, dp: DpId, msg: &OfMessage) {
        if let OfMessage::FlowMod(fm) = msg {
            self.resync.record(dp, fm);
            self.journal.append(&JournalRecord::Baseline {
                dp,
                frame: codec::encode(&Envelope::new(Xid(0), msg.clone())).to_vec(),
            });
        }
    }

    fn intended_hashes(&self, dp: DpId) -> Option<Vec<u64>> {
        self.resync.intended_hashes(dp)
    }

    fn recover_from_crash(&mut self, now: SimTime) -> bool {
        if !self.journal.is_enabled() {
            return false;
        }
        let obs = self.obs.clone();
        let replayed = self.journal.len() as u64;
        let journal = std::mem::take(&mut self.journal);
        let prior = self.stats.recoveries;
        *self = Self::recover(self.config, journal);
        self.stats.recoveries += prior;
        // the sink survives the rebuild: its ring still holds the
        // pre-crash events the dump below exists to preserve
        self.obs = obs;
        self.obs
            .emit(Event::new(now, EventKind::JournalReplay).aux(replayed));
        self.obs.emit(Event::new(now, EventKind::CrashRecover));
        self.obs.dump(DumpReason::CrashRecovery, now);
        true
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn status_report(&self) -> StatusReport {
        // Every sampled switch, plus any unsampled one that currently
        // carries a timer (it may already be flagged a straggler).
        let row = |dp| SwitchStatus {
            dp,
            srtt: self.rto.srtt(dp),
            rto: self.rto.rto(dp),
            straggler: false,
        };
        let mut switches: BTreeMap<DpId, SwitchStatus> =
            self.rto.switches().map(|dp| (dp, row(dp))).collect();
        for s in self.active.values().flat_map(|j| &j.ex.slots) {
            if !s.done {
                switches.entry(s.dp).or_insert_with(|| row(s.dp)).straggler |= s.timer.straggler;
            }
        }
        StatusReport {
            queued: self.queue.len(),
            active: self.active.len(),
            pending_acks: self.active.values().map(|j| j.ex.pending_acks()).sum(),
            stats: self.stats(),
            switches: switches.into_values().collect(),
            journal_len: self.journal.len(),
            quarantined: self.quarantined.iter().copied().collect(),
            shards: Vec::new(),
            tenants: self
                .tenants_in_flight()
                .into_iter()
                .map(|(tenant, in_flight)| TenantStatus {
                    tenant,
                    in_flight,
                    quota: None,
                })
                .collect(),
            xshard_queued: 0,
            xshard_active: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand};
    use sdn_types::{HostId, SimDuration};

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
                .map(|dps| crate::compile::CompiledRound {
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

    fn reply(rt: &mut ConcurrentRuntime, now: SimTime, dp: DpId, xid: Xid) -> Vec<CtrlOutput> {
        rt.on_message(now, dp, &Envelope::new(xid, OfMessage::BarrierReply))
    }

    impl ConcurrentRuntime {
        /// The wake-index invariant, checked from scratch: between
        /// calls every active job is filed exactly where its state
        /// says, under a bound no deadline of its timers precedes, and
        /// nothing terminal is left unreaped.
        fn assert_wake_index_exact(&self) {
            for (&id, job) in &self.active {
                let state = job.ex.state();
                let filed = job
                    .bound
                    .is_some_and(|b| self.wake.timers.contains(&(b, id)));
                assert_eq!(
                    filed,
                    state == ExecState::AwaitingBarriers,
                    "{id} is {state:?}"
                );
                assert_eq!(
                    self.wake.grace.contains(&(job.ex.grace_until(), id)),
                    state == ExecState::WaitingGrace,
                    "{id} is {state:?}"
                );
                let Some(bound) = job.bound else { continue };
                for s in job.ex.slots.iter().filter(|s| !s.done) {
                    let t = s.timer;
                    let deadline = match self.config.retrans {
                        RetransMode::Fixed => t.latest_sent + self.config.exec.barrier_timeout,
                        RetransMode::Adaptive(_) => {
                            t.latest_sent + self.rto.backoff(s.dp, t.attempts)
                        }
                    };
                    assert!(bound <= deadline, "{id}: bound {bound:?} past {deadline:?}");
                }
            }
            assert_eq!(
                self.wake.timers.len() + self.wake.grace.len(),
                self.active.len(),
                "no stale entry, no terminal job left active"
            );
            assert!(self.wake.finished.is_empty(), "reaped in the same call");
            assert_eq!(self.graph.len(), self.active.len());
        }
    }

    #[test]
    fn wake_index_tracks_every_state_transition() {
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                max_attempts: 3,
                ..ExecConfig::default()
            },
            retrans: RetransMode::Adaptive(RtoConfig {
                initial: SimDuration::from_millis(4),
                min: SimDuration::from_millis(1),
                max: SimDuration::from_millis(50),
                straggler_attempts: 2,
            }),
            max_active: 4,
            quarantine_strikes: 1,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        // Eight two-round jobs, the second round behind a 3 ms grace.
        // Switch 9 never answers: j3 exhausts its budget against it
        // (one strike quarantines), j7 is aborted while waiting on it.
        for i in 0..8u32 {
            let second = if i % 4 == 3 { 9 } else { 2 };
            let mut u = job(&format!("j{i}"), 10 + i, vec![vec![1, second], vec![3]]);
            u.rounds[1].pre_delay = SimDuration::from_millis(3);
            let _ = rt.submit(u, SimTime(0), Priority::Normal);
        }
        let answered = |out: &[CtrlOutput]| -> Vec<(DpId, Xid)> {
            let mut b = barriers_of(out);
            b.retain(|(dp, _)| *dp != DpId(9));
            b
        };
        let mut inbox = Vec::new();
        for ms in 0..100 {
            let now = SimTime(0) + SimDuration::from_millis(ms);
            for (dp, xid) in std::mem::take(&mut inbox) {
                let out = reply(&mut rt, now, dp, xid);
                rt.assert_wake_index_exact();
                inbox.extend(answered(&out));
            }
            let out = rt.poll(now);
            rt.assert_wake_index_exact();
            inbox.extend(answered(&out));
        }
        assert!(rt.is_idle());
        assert_eq!((rt.stats().completed, rt.stats().failed), (6, 2));
        let failure = |label: &str| {
            let r = rt.reports().iter().find(|r| r.label == label).unwrap();
            (r.failure, r.rounds.len())
        };
        assert_eq!(failure("j3"), (Some(FailReason::Exhausted(DpId(9))), 1));
        assert_eq!(failure("j7"), (Some(FailReason::Quarantined(DpId(9))), 1));
    }

    /// `n` jobs parked in a one-second grace wait on switch 1 (a flow
    /// each, so all of them run); returns the bookkeeping work of an
    /// idle poll beside them, and of admitting, running and reaping
    /// one more job on the same switch.
    fn work_beside_grace_waiters(n: u32) -> (u64, u64) {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig {
            queue_capacity: n as usize,
            max_active: n as usize + 1,
            ..RuntimeConfig::default()
        });
        for i in 0..n {
            let mut u = job(&format!("w{i}"), 10 + i, vec![vec![1]]);
            u.rounds[0].pre_delay = SimDuration::from_secs(1);
            let _ = rt.submit(u, SimTime(0), Priority::Normal);
        }
        rt.poll(SimTime(0));
        assert_eq!(rt.active_count(), n as usize, "all parked in grace");
        let start = rt.dispatch_work();
        assert!(rt.poll(SimTime(1)).is_empty());
        let idle = rt.dispatch_work() - start;
        let _ = rt.submit(job("x", 5, vec![vec![1]]), SimTime(2), Priority::Normal);
        let cmds = rt.poll(SimTime(2));
        rt.poll(SimTime(3));
        for (dp, xid) in barriers_of(&cmds) {
            reply(&mut rt, SimTime(4), dp, xid);
        }
        assert_eq!(rt.reports().len(), 1, "x ran to completion");
        (idle, rt.dispatch_work() - start - idle)
    }

    #[test]
    fn bookkeeping_work_does_not_grow_with_the_active_set() {
        let (idle_16, one_16) = work_beside_grace_waiters(16);
        let (idle_1024, one_1024) = work_beside_grace_waiters(1024);
        assert_eq!((idle_16, idle_1024), (0, 0), "an idle poll touches no job");
        // two admission probes (x's class, the switch's wildcard) and
        // one reap; `poll` does not visit x while its round is in flight,
        // because no timer of it can be due before the 2 ms RTO floor
        assert_eq!(one_16, 3);
        assert_eq!(one_1024, one_16, "identical beside 16 or 1024 waiters");
    }

    #[test]
    fn disjoint_jobs_run_concurrently() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        let _ = rt.submit(
            job("a", 2, vec![vec![1], vec![2]]),
            SimTime(0),
            Priority::Normal,
        );
        let _ = rt.submit(
            job("b", 4, vec![vec![5], vec![6]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = rt.poll(SimTime(0));
        // both round-0 dispatches go out together
        let b = barriers_of(&cmds);
        assert_eq!(b.len(), 2);
        assert_eq!(rt.active_count(), 2);
        assert_eq!(rt.stats().peak_active, 2);
        // finish both, interleaved
        let next_a = reply(&mut rt, SimTime(1), b[0].0, b[0].1);
        let next_b = reply(&mut rt, SimTime(2), b[1].0, b[1].1);
        for cmds in [next_a, next_b] {
            for (dp, xid) in barriers_of(&cmds) {
                reply(&mut rt, SimTime(3), dp, xid);
            }
        }
        assert!(rt.is_idle());
        assert_eq!(rt.reports().len(), 2);
        assert!(rt.reports().iter().all(|r| r.completed.is_some()));
    }

    #[test]
    fn conflicting_job_waits_for_the_active_one() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        let _ = rt.submit(job("a", 2, vec![vec![1, 2]]), SimTime(0), Priority::Normal);
        let _ = rt.submit(job("b", 2, vec![vec![2, 3]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        assert_eq!(rt.active_count(), 1, "b conflicts with a at s2");
        assert_eq!(rt.queued(), 1);
        // completing a releases b
        let mut launched = Vec::new();
        for (dp, xid) in barriers_of(&cmds) {
            launched.extend(reply(&mut rt, SimTime(1), dp, xid));
        }
        assert_eq!(rt.active_count(), 1);
        assert_eq!(rt.queued(), 0);
        assert!(!barriers_of(&launched).is_empty(), "b dispatched");
        let r = &rt.reports()[0];
        assert_eq!(r.label, "a");
        assert!(r.completed.is_some());
    }

    #[test]
    fn flow_disjoint_jobs_share_a_switch_concurrently() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        let _ = rt.submit(job("a", 2, vec![vec![1, 2]]), SimTime(0), Priority::Normal);
        let _ = rt.submit(job("b", 4, vec![vec![2, 3]]), SimTime(0), Priority::Normal);
        rt.poll(SimTime(0));
        assert_eq!(rt.active_count(), 2, "distinct dst hosts commute at s2");
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let cfg = RuntimeConfig {
            queue_capacity: 2,
            max_active: 1,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        // all conflict (same flow, same switch): only one runs
        for i in 0..4u32 {
            let out = rt.submit(
                job(&format!("j{i}"), 2, vec![vec![1]]),
                SimTime(0),
                Priority::Normal,
            );
            if i < 2 {
                assert!(out.is_ok(), "j{i} fits the queue");
            }
        }
        let stats = rt.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 2);
    }

    #[test]
    fn adaptive_retransmission_uses_learned_rto() {
        let cfg = RuntimeConfig {
            retrans: RetransMode::Adaptive(RtoConfig {
                initial: SimDuration::from_millis(100),
                min: SimDuration::from_millis(1),
                max: SimDuration::from_secs(1),
                straggler_attempts: 3,
            }),
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        // Round 1 teaches the runtime that s1 answers in ~2 ms.
        let _ = rt.submit(
            job("a", 2, vec![vec![1], vec![1]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = rt.poll(SimTime(0));
        let b = barriers_of(&cmds);
        let t1 = SimTime(0) + SimDuration::from_millis(2);
        let next = reply(&mut rt, t1, b[0].0, b[0].1);
        assert!(!barriers_of(&next).is_empty(), "round 2 dispatched");
        // Round 2's barrier is lost. The learned RTO (~2 ms srtt +
        // 4 ms var = ~6 ms) should fire far sooner than the 100 ms
        // initial value.
        let before = rt.stats().retransmissions;
        let polled = rt.poll(t1 + SimDuration::from_millis(20));
        assert!(
            !barriers_of(&polled).is_empty(),
            "adaptive timer must have fired within 20 ms"
        );
        assert_eq!(rt.stats().retransmissions, before + 1);
    }

    #[test]
    fn per_switch_attempt_budget_fails_the_job() {
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts: 2,
                flowmod_acks: false,
            },
            retrans: RetransMode::Fixed,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(
            job("doomed", 2, vec![vec![1]]),
            SimTime(0),
            Priority::Normal,
        );
        rt.poll(SimTime(0));
        rt.poll(SimTime(0) + SimDuration::from_millis(11)); // attempt 2
        rt.poll(SimTime(0) + SimDuration::from_millis(22)); // budget gone
        assert!(rt.is_idle());
        assert_eq!(rt.reports().len(), 1);
        assert_eq!(rt.reports()[0].completed, None);
        assert_eq!(rt.stats().failed, 1);
    }

    #[test]
    fn any_outstanding_barrier_reply_completes_the_switch() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig {
            retrans: RetransMode::Fixed,
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(5),
                max_attempts: 8,
                flowmod_acks: false,
            },
            ..RuntimeConfig::default()
        });
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let b0 = barriers_of(&cmds)[0];
        // timeout fires; a new xid goes out, but the old transmission
        // stays valid (its barrier fenced identical FlowMods)
        let re = rt.poll(SimTime(0) + SimDuration::from_millis(6));
        let b1 = barriers_of(&re)[0];
        assert_ne!(b0.1, b1.1);
        // an unknown xid does nothing...
        assert!(reply(&mut rt, SimTime(6_500_000), b0.0, Xid(0xdead)).is_empty());
        assert_eq!(rt.active_count(), 1);
        // ...but the late reply to the OLDER outstanding barrier
        // completes the switch — no livelock when RTO < RTT
        reply(&mut rt, SimTime(7_000_000), b0.0, b0.1);
        assert!(rt.is_idle());
        // the fresh xid is retired with the job: replaying it is a no-op
        assert!(reply(&mut rt, SimTime(8_000_000), b1.0, b1.1).is_empty());
        assert_eq!(rt.reports().len(), 1);
        assert!(rt.reports()[0].completed.is_some());
    }

    #[test]
    fn superseded_barrier_xid_fences_and_later_replies_change_nothing() {
        // The route table is the only reply matcher: the executor is
        // told which switch fenced and never sees an xid.
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::serial(ExecConfig {
            barrier_timeout: SimDuration::from_millis(5),
            ..ExecConfig::default()
        }));
        let _ = rt.submit(
            job("a", 2, vec![vec![1, 2], vec![1]]),
            SimTime(0),
            Priority::Normal,
        );
        let first = barriers_of(&rt.poll(SimTime(0)));
        let (old1, old2) = (first[0], first[1]);
        assert_eq!((old1.0, old2.0), (DpId(1), DpId(2)));
        // both time out: each gets a fresh xid, the old ones stay valid
        let re = barriers_of(&rt.poll(SimTime(0) + SimDuration::from_millis(6)));
        let (new1, new2) = (re[0], re[1]);
        assert!(old1.1 != new1.1 && old2.1 != new2.1);
        // s1 answers its SUPERSEDED barrier: fenced, round still open
        assert!(reply(&mut rt, SimTime(7_000_000), old1.0, old1.1).is_empty());
        let (_, _, round) = rt.active_jobs().next().expect("still active");
        assert_eq!(round, 0);
        // the reply to s1's newer barrier arrives after s1 is done: no
        // output, no progress, no second RTT sample
        let samples = rt.rto_table().sampled();
        assert!(reply(&mut rt, SimTime(7_500_000), new1.0, new1.1).is_empty());
        assert_eq!(rt.rto_table().sampled(), samples);
        assert_eq!(rt.active_jobs().next().map(|j| j.2), Some(0));
        // s2's fence (newest xid) completes round 0 and dispatches round 1
        let next = barriers_of(&reply(&mut rt, SimTime(8_000_000), new2.0, new2.1));
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].0, DpId(1));
        // round 0's leftovers cannot fence round 1
        assert!(reply(&mut rt, SimTime(8_500_000), old2.0, old2.1).is_empty());
        assert!(reply(&mut rt, SimTime(8_600_000), new1.0, new1.1).is_empty());
        assert_eq!(rt.active_count(), 1);
        reply(&mut rt, SimTime(9_000_000), next[0].0, next[0].1);
        assert!(rt.is_idle());
        let r = &rt.reports()[0];
        assert_eq!(r.rounds[0].completed, Some(SimTime(8_000_000)));
        assert_eq!((r.rounds[0].attempts, r.rounds[1].attempts), (2, 1));
    }

    #[test]
    fn straggler_detection_counts_slow_switch() {
        let cfg = RuntimeConfig {
            retrans: RetransMode::Adaptive(RtoConfig {
                initial: SimDuration::from_millis(5),
                min: SimDuration::from_millis(1),
                max: SimDuration::from_secs(1),
                straggler_attempts: 2,
            }),
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(job("a", 2, vec![vec![1, 2]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let b = barriers_of(&cmds);
        // s1 acks fast; s2 stays silent past its (backed-off) deadlines
        reply(&mut rt, SimTime(1), b[0].0, b[0].1);
        rt.poll(SimTime(0) + SimDuration::from_millis(6));
        rt.poll(SimTime(0) + SimDuration::from_millis(30));
        assert!(rt.stats().stragglers >= 1, "s2 should be flagged");
    }

    #[test]
    fn high_priority_overtakes_normal_in_queue() {
        let cfg = RuntimeConfig {
            max_active: 1,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(
            job("running", 2, vec![vec![1]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = rt.poll(SimTime(0));
        let _ = rt.submit(
            job("patient", 4, vec![vec![5]]),
            SimTime(1),
            Priority::Normal,
        );
        let _ = rt.submit(job("urgent", 6, vec![vec![9]]), SimTime(2), Priority::High);
        // finish the running job; the High job launches first
        for (dp, xid) in barriers_of(&cmds) {
            reply(&mut rt, SimTime(3), dp, xid);
        }
        let (_, label, _) = rt.active_jobs().next().expect("one active");
        assert_eq!(label, "urgent");
    }

    fn echoes_of(cmds: &[CtrlOutput]) -> Vec<(DpId, Xid, Vec<u8>)> {
        cmds.iter()
            .filter_map(|CtrlOutput::Send(dp, env)| match &env.msg {
                OfMessage::EchoRequest(p) => Some((*dp, env.xid, p.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ack_mode_timer_outlives_barrier_and_retransmits_payload() {
        // The RTO machinery must drive PAYLOAD retransmission, not just
        // barriers: a barrier reply with the payload ack still missing
        // keeps the per-switch timer alive, and its next firing resends
        // the FlowMod + echo pair (no barrier — that one is fenced).
        let cfg = RuntimeConfig {
            retrans: RetransMode::Fixed,
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts: 8,
                flowmod_acks: true,
            },
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let b = barriers_of(&cmds);
        assert_eq!(echoes_of(&cmds).len(), 1);
        // barrier fenced, payload ack lost: the job must stay active
        reply(&mut rt, SimTime(1), b[0].0, b[0].1);
        assert_eq!(rt.active_count(), 1, "payload ack still outstanding");
        // the surviving timer fires and resends the payload pair only
        let re = rt.poll(SimTime(0) + SimDuration::from_millis(11));
        assert!(barriers_of(&re).is_empty(), "fenced barrier not re-sent");
        let e = echoes_of(&re);
        assert_eq!(e.len(), 1, "unacked payload retransmitted");
        // the echo ack (exact xid, exact payload) completes the job
        let out = rt.on_message(
            SimTime(0) + SimDuration::from_millis(12),
            e[0].0,
            &Envelope::new(e[0].1, OfMessage::EchoReply(e[0].2.clone())),
        );
        let _ = out;
        assert!(rt.is_idle());
        assert!(rt.reports()[0].completed.is_some());
    }

    fn complete_all(rt: &mut ConcurrentRuntime, mut cmds: Vec<CtrlOutput>, mut now: SimTime) {
        let mut hops = 0;
        while !cmds.is_empty() && hops < 32 {
            let mut next = Vec::new();
            for (dp, xid) in barriers_of(&cmds) {
                next.extend(reply(rt, now, dp, xid));
            }
            for (dp, xid, payload) in echoes_of(&cmds) {
                next.extend(rt.on_message(
                    now,
                    dp,
                    &Envelope::new(xid, OfMessage::EchoReply(payload)),
                ));
            }
            cmds = next;
            now += SimDuration::from_millis(1);
            hops += 1;
        }
    }

    fn digest_report(fms: &[(u32, OfMessage)]) -> Vec<u8> {
        let mut t = sdn_switch::FlowTable::new();
        for (_, msg) in fms {
            if let OfMessage::FlowMod(fm) = msg {
                t.apply(fm);
            }
        }
        sdn_switch::resync::encode_digest_report(&t)
    }

    #[test]
    fn reconnect_probes_audits_and_repairs() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        complete_all(&mut rt, cmds, SimTime(1));
        assert!(rt.is_idle());
        // the switch reboots: empty table, same dpid
        let t = SimTime(0) + SimDuration::from_secs(1);
        let probe = rt.on_reconnect(DpId(1), t);
        assert_eq!(rt.stats().reconnects, 1);
        let CtrlOutput::Send(dp, env) = &probe[0];
        assert_eq!(*dp, DpId(1));
        let OfMessage::EchoRequest(_) = &env.msg else {
            panic!("reconnect must open with a digest probe");
        };
        // empty-table report: the lost rule is replayed + re-probed
        let repair = rt.on_message(
            t + SimDuration::from_millis(1),
            DpId(1),
            &Envelope::new(env.xid, OfMessage::EchoReply(digest_report(&[]))),
        );
        let fm_count = repair
            .iter()
            .filter(|CtrlOutput::Send(_, e)| matches!(e.msg, OfMessage::FlowMod(_)))
            .count();
        assert_eq!(fm_count, 1, "exactly the missing rule is replayed");
        let CtrlOutput::Send(_, reprobe) = repair.last().unwrap();
        // the verification report now matches the shadow: audit done
        let done = rt.on_message(
            t + SimDuration::from_millis(2),
            DpId(1),
            &Envelope::new(
                reprobe.xid,
                OfMessage::EchoReply(digest_report(&[(1, flowmod(2))])),
            ),
        );
        assert!(done.is_empty());
        let stats = rt.stats();
        assert_eq!(stats.resyncs, 1);
        assert_eq!(stats.resynced_rules, 1);
    }

    #[test]
    fn reconnect_of_unknown_switch_skips_the_audit() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        assert!(rt.on_reconnect(DpId(9), SimTime(0)).is_empty());
        assert_eq!(rt.stats().reconnects, 1);
    }

    #[test]
    fn repeated_exhaustion_quarantines_and_fails_fast() {
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts: 1,
                flowmod_acks: false,
            },
            retrans: RetransMode::Fixed,
            quarantine_strikes: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        // two jobs against a dead switch burn their budgets (strikes)
        let _ = rt.submit(job("j1", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        rt.poll(SimTime(0));
        rt.poll(SimTime(0) + SimDuration::from_millis(11));
        let _ = rt.submit(
            job("j2", 2, vec![vec![1]]),
            SimTime(0) + SimDuration::from_millis(12),
            Priority::Normal,
        );
        rt.poll(SimTime(0) + SimDuration::from_millis(12));
        rt.poll(SimTime(0) + SimDuration::from_millis(23));
        assert_eq!(rt.stats().failed, 2);
        assert_eq!(rt.stats().quarantined, 1);
        assert_eq!(
            rt.reports()[1].failure,
            Some(FailReason::Exhausted(DpId(1)))
        );
        // the third job fails fast at launch — no budget burned
        let before = rt.stats().retransmissions;
        let _ = rt.submit(
            job("j3", 2, vec![vec![1]]),
            SimTime(0) + SimDuration::from_millis(24),
            Priority::Normal,
        );
        rt.poll(SimTime(0) + SimDuration::from_millis(24));
        assert!(rt.is_idle());
        assert_eq!(rt.stats().retransmissions, before);
        assert_eq!(
            rt.reports()[2].failure,
            Some(FailReason::Quarantined(DpId(1)))
        );
        assert_eq!(rt.status_report().quarantined, vec![DpId(1)]);
        // reconnection lifts the quarantine
        rt.on_reconnect(DpId(1), SimTime(0) + SimDuration::from_millis(30));
        assert!(rt.status_report().quarantined.is_empty());
    }

    #[test]
    fn quarantine_aborts_active_jobs_waiting_on_the_switch() {
        // quarantine arrives via resync-probe exhaustion while a job
        // is mid-flight against the same switch
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_secs(10),
                max_attempts: 100,
                flowmod_acks: false,
            },
            retrans: RetransMode::Fixed,
            resync_probe_timeout: SimDuration::from_millis(5),
            resync_attempts: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        complete_all(&mut rt, cmds, SimTime(1));
        // an audit of s1 that never answers exhausts its probe budget
        rt.on_reconnect(DpId(1), SimTime(10));
        let _ = rt.submit(job("b", 2, vec![vec![1]]), SimTime(11), Priority::Normal);
        rt.poll(SimTime(11));
        assert_eq!(rt.active_count(), 1);
        rt.poll(SimTime(10) + SimDuration::from_millis(6)); // probe 2
        rt.poll(SimTime(10) + SimDuration::from_millis(12)); // budget gone
        rt.poll(SimTime(10) + SimDuration::from_millis(13)); // abort sweep
        assert!(rt.is_idle(), "active job aborted by quarantine");
        let last = rt.reports().last().unwrap();
        assert_eq!(last.failure, Some(FailReason::Quarantined(DpId(1))));
    }

    #[test]
    fn jobs_finishing_in_one_poll_are_reported_in_id_order() {
        // The abort sweep runs before the timer walk, so the aborted
        // job (higher id) is noted first; reports still come out in
        // ascending id, as when reap scanned the active set.
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(20),
                max_attempts: 1,
                flowmod_acks: false,
            },
            retrans: RetransMode::Fixed,
            resync_probe_timeout: SimDuration::from_millis(5),
            resync_attempts: 2,
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        complete_all(&mut rt, cmds, SimTime(1));
        // s1's audit is never answered: its probe budget runs out
        rt.on_reconnect(DpId(1), SimTime(10));
        let _ = rt.submit(job("low", 2, vec![vec![2]]), SimTime(11), Priority::Normal);
        let _ = rt.submit(job("high", 4, vec![vec![1]]), SimTime(11), Priority::Normal);
        rt.poll(SimTime(11));
        assert_eq!(rt.active_count(), 2);
        rt.poll(SimTime(10) + SimDuration::from_millis(6)); // probe 2
        rt.poll(SimTime(10) + SimDuration::from_millis(12)); // s1 quarantined
        assert!(rt.is_quarantined(DpId(1)));
        // one poll aborts "high" and exhausts "low"
        let before = rt.dispatch_work();
        rt.poll(SimTime(11) + SimDuration::from_millis(21));
        assert!(rt.is_idle());
        let last: Vec<_> = rt.reports()[1..].iter().map(|r| &r.label[..]).collect();
        assert_eq!(last, ["low", "high"]);
        // the sweep looks at both active jobs, the walk at the one still
        // in flight (the aborted one left the wake index), the reaper at
        // both finished ones
        assert_eq!(rt.dispatch_work() - before, 5);
    }

    #[test]
    fn crash_recovery_resumes_after_the_committed_round() {
        let mut rt = ConcurrentRuntime::with_journal(RuntimeConfig::default(), Journal::mem());
        let _ = rt.submit(
            job("two-round", 2, vec![vec![1], vec![2]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = rt.poll(SimTime(0));
        let b = barriers_of(&cmds);
        assert_eq!(b, vec![(DpId(1), b[0].1)]);
        // round 0 commits; round 1 dispatches to s2 — then we crash
        let r1 = reply(&mut rt, SimTime(1), b[0].0, b[0].1);
        assert_eq!(barriers_of(&r1)[0].0, DpId(2));
        assert!(rt.recover_from_crash(SimTime(2)));
        assert_eq!(rt.stats().recoveries, 1);
        assert_eq!(rt.active_count(), 0);
        assert_eq!(rt.queued(), 1);
        // relaunch resumes at round 1: only s2 is addressed
        let resumed = rt.poll(SimTime(3));
        let rb = barriers_of(&resumed);
        assert_eq!(rb.len(), 1);
        assert_eq!(rb[0].0, DpId(2), "fenced round 0 is not re-sent");
        reply(&mut rt, SimTime(4), rb[0].0, rb[0].1);
        assert!(rt.is_idle());
        let r = rt.reports().last().unwrap();
        assert_eq!(r.label, "two-round");
        assert!(r.completed.is_some());
        // round 0's rule survived the crash in the shadow
        assert_eq!(
            rt.intended_hashes(DpId(1)).map(|h| h.len()),
            Some(1),
            "recovered shadow knows the fenced round's rule"
        );
    }

    #[test]
    fn recovery_without_a_journal_is_refused() {
        let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        rt.poll(SimTime(0));
        assert!(!rt.recover_from_crash(SimTime(1)));
        assert_eq!(rt.active_count(), 1, "nothing was discarded");
    }

    #[test]
    fn recovery_preserves_terminal_reports() {
        let mut rt = ConcurrentRuntime::with_journal(RuntimeConfig::default(), Journal::mem());
        let _ = rt.submit(job("done", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        complete_all(&mut rt, cmds, SimTime(1));
        assert_eq!(rt.reports().len(), 1);
        assert!(rt.recover_from_crash(SimTime(5)));
        assert!(rt.is_idle(), "completed job not revived");
        assert_eq!(rt.reports().len(), 1);
        assert_eq!(rt.reports()[0].label, "done");
        assert!(rt.reports()[0].completed.is_some());
        assert_eq!(rt.stats().completed, 1);
    }

    #[test]
    fn ack_mode_echo_reply_routes_to_owning_job() {
        // Echo acks route by exact xid and switch, with no translation;
        // a barrier-only runtime ignores stray echo replies entirely.
        let cfg = RuntimeConfig {
            exec: ExecConfig {
                flowmod_acks: true,
                ..ExecConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let mut rt = ConcurrentRuntime::new(cfg);
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let b = barriers_of(&cmds);
        let e = echoes_of(&cmds);
        // payload ack first: the switch was sent only FlowMods, each now
        // proven installed, so the job completes without its barrier
        rt.on_message(
            SimTime(1),
            e[0].0,
            &Envelope::new(e[0].1, OfMessage::EchoReply(e[0].2.clone())),
        );
        assert_eq!(rt.active_count(), 0, "no barrier reply needed");
        // an unknown echo xid is ignored, not misrouted
        assert!(rt
            .on_message(
                SimTime(2),
                e[0].0,
                &Envelope::new(Xid(0xbeef), OfMessage::EchoReply(vec![1, 2, 3])),
            )
            .is_empty());
        // the barrier reply that follows routes nowhere
        assert!(reply(&mut rt, SimTime(3), b[0].0, b[0].1).is_empty());
        assert!(rt.is_idle());
        assert!(rt.reports()[0].completed.is_some());
    }

    #[test]
    fn corrupted_echo_then_intact_duplicate_acks_without_retransmission() {
        // Every transmission's echo stays valid until one is accepted: a
        // corrupted reply must not retire the route its intact duplicate
        // (the channel duplicated the frame) still answers.
        let mut rt = ConcurrentRuntime::new(RuntimeConfig {
            retrans: RetransMode::Fixed,
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts: 8,
                flowmod_acks: true,
            },
            ..RuntimeConfig::default()
        });
        let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let e = echoes_of(&cmds).remove(0);
        let echo = |payload| Envelope::new(e.1, OfMessage::EchoReply(payload));
        let mut bad = e.2.clone();
        bad[0] ^= 1;
        assert!(rt.on_message(SimTime(2), e.0, &echo(bad)).is_empty());
        assert_eq!(
            rt.active_count(),
            1,
            "a corrupted round trip proves nothing"
        );
        rt.on_message(SimTime(3), e.0, &echo(e.2.clone()));
        assert!(rt.is_idle(), "the intact duplicate is the acknowledgement");
        assert!(rt.reports()[0].completed.is_some());
        assert_eq!(rt.stats().retransmissions, 0);
    }

    fn ack_runtime(max_attempts: u32) -> ConcurrentRuntime {
        ConcurrentRuntime::new(RuntimeConfig {
            retrans: RetransMode::Fixed,
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(10),
                max_attempts,
                flowmod_acks: true,
            },
            ..RuntimeConfig::default()
        })
    }

    fn echo_reply(
        rt: &mut ConcurrentRuntime,
        now: SimTime,
        e: &(DpId, Xid, Vec<u8>),
    ) -> Vec<CtrlOutput> {
        rt.on_message(
            now,
            e.0,
            &Envelope::new(e.1, OfMessage::EchoReply(e.2.clone())),
        )
    }

    #[test]
    fn a_barrier_reply_that_overtook_an_echo_resends_that_payload_once() {
        // s1 gets two FlowMods; the first is acknowledged, the second's
        // echo is lost. The barrier reply proves it lost: exactly that
        // payload, its echo and one barrier go out again, once.
        let mut rt = ack_runtime(8);
        let mut u = job("a", 2, vec![vec![1]]);
        u.rounds[0].msgs.push((DpId(1), flowmod(3)));
        let _ = rt.submit(u, SimTime(0), Priority::Normal);
        let cmds = rt.poll(SimTime(0));
        let (b, e) = (barriers_of(&cmds)[0], echoes_of(&cmds));
        echo_reply(&mut rt, SimTime(1), &e[0]);
        let re = reply(&mut rt, SimTime(2), b.0, b.1);
        assert_eq!(re.len(), 3, "{re:?}");
        let CtrlOutput::Send(_, fm) = &re[0];
        assert_eq!(fm.msg, flowmod(3), "the unacknowledged payload");
        assert_eq!((echoes_of(&re).len(), barriers_of(&re).len()), (1, 1));
        assert_eq!(rt.stats().retransmissions, 1);
        // the duplicate of the reply routes nowhere
        assert!(reply(&mut rt, SimTime(3), b.0, b.1).is_empty());
        assert_eq!(rt.stats().retransmissions, 1);
        // no timer resends it meanwhile, and its echo completes the job
        assert!(rt.poll(SimTime(4)).is_empty());
        echo_reply(&mut rt, SimTime(5), &echoes_of(&re)[0]);
        assert!(rt.is_idle());
        let r = &rt.reports()[0];
        assert_eq!((r.completed, r.rounds[0].attempts), (Some(SimTime(5)), 2));
    }

    #[test]
    fn a_late_barrier_reply_after_an_ack_completed_the_round_routes_nowhere() {
        // Both rounds address s1 alone, at slot 0. Round 0 completes on
        // its echo; its barrier reply, arriving after round 1 went out,
        // must neither fence round 1 nor reveal a loss there.
        let mut rt = ack_runtime(8);
        let _ = rt.submit(
            job("a", 2, vec![vec![1], vec![1]]),
            SimTime(0),
            Priority::Normal,
        );
        let cmds = rt.poll(SimTime(0));
        let (b0, e0) = (barriers_of(&cmds)[0], echoes_of(&cmds));
        let next = echo_reply(&mut rt, SimTime(1), &e0[0]);
        assert_eq!(barriers_of(&next).len(), 1, "round 1 dispatched");
        assert!(reply(&mut rt, SimTime(2), b0.0, b0.1).is_empty());
        assert_eq!(rt.active_jobs().next().map(|j| j.2), Some(1));
        assert_eq!(rt.status_report().pending_acks, 1);
        assert_eq!(rt.stats().retransmissions, 0);
        echo_reply(&mut rt, SimTime(3), &echoes_of(&next)[0]);
        assert!(rt.is_idle());
        let r = &rt.reports()[0];
        assert_eq!(r.rounds[0].completed, Some(SimTime(1)));
        assert_eq!(r.rounds[1].completed, Some(SimTime(3)));
    }

    #[test]
    fn early_resends_spend_the_attempt_budget_like_timer_resends() {
        // Budget 3: the dispatch, then two resends, then the switch is
        // exhausted — whether losses are revealed by barrier replies or
        // by the timer.
        for early in [true, false] {
            let mut rt = ack_runtime(3);
            let _ = rt.submit(job("a", 2, vec![vec![1]]), SimTime(0), Priority::Normal);
            let mut cmds = rt.poll(SimTime(0));
            for k in 1..=3u64 {
                let now = SimTime(0) + SimDuration::from_millis(11 * k);
                cmds = match (early, barriers_of(&cmds).first()) {
                    (true, Some(&(dp, xid))) => reply(&mut rt, now, dp, xid),
                    _ => rt.poll(now),
                };
            }
            assert!(rt.is_idle(), "early: {early}");
            let r = &rt.reports()[0];
            assert_eq!(
                r.failure,
                Some(FailReason::Exhausted(DpId(1))),
                "early: {early}"
            );
            assert_eq!(r.rounds[0].attempts, 3, "early: {early}");
            assert_eq!(rt.stats().retransmissions, 2, "early: {early}");
        }
    }

    #[test]
    fn a_wrapped_xid_range_skips_the_live_xid_and_the_late_reply_fences_its_own_job() {
        // 32 xids; switch 9 delays one barrier reply while forty other
        // jobs on the same switch (other flows) wrap the range twice.
        let mut rt = ConcurrentRuntime::new(RuntimeConfig {
            xid_range: (100, 32),
            retrans: RetransMode::Fixed,
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_secs(10),
                ..ExecConfig::default()
            },
            ..RuntimeConfig::default()
        });
        let _ = rt.submit(job("late", 1, vec![vec![9]]), SimTime(0), Priority::Normal);
        let late = barriers_of(&rt.poll(SimTime(0)))[0];
        let mut handed = Vec::new();
        for i in 0..40u32 {
            let now = SimTime(u64::from(i) + 1);
            let _ = rt.submit(
                job(&format!("f{i}"), 2 + i, vec![vec![9]]),
                now,
                Priority::Normal,
            );
            let cmds = rt.poll(now);
            handed.extend(cmds.iter().map(|CtrlOutput::Send(_, env)| env.xid));
            for (dp, xid) in barriers_of(&cmds) {
                assert!(reply(&mut rt, now, dp, xid).is_empty());
            }
        }
        assert_eq!(handed.len(), 80, "the range wrapped twice");
        assert!(
            !handed.contains(&late.1),
            "the live xid is never handed out"
        );
        assert_eq!((rt.active_count(), rt.reports().len()), (1, 40));
        reply(&mut rt, SimTime(100), late.0, late.1);
        assert!(rt.is_idle(), "the late reply fenced the job that sent it");
        assert_eq!(rt.reports()[40].label, "late");
        assert!(rt.reports().iter().all(|r| r.completed.is_some()));
        assert_eq!(rt.stats().retransmissions, 0);
    }
}
