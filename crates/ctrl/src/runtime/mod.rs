//! The controller runtime: one core, two configurations.
//!
//! Every update the controller executes is driven by a
//! [`ConcurrentRuntime`], built from:
//!
//! * [`conflict`] — footprint extraction and the dynamic conflict
//!   graph: footprint-disjoint updates commute, so they execute
//!   concurrently; overlapping ones queue behind their conflict set
//!   (ez-Segway's independence insight at flow granularity);
//! * [`admission`] — a bounded two-lane queue that refuses when full,
//!   surfaced through the REST layer as backpressure;
//! * [`rto`] — per-switch adaptive retransmission timeouts;
//! * [`dispatch`] — the scheduler driving many clock-free
//!   [`RoundExecutor`](crate::executor::RoundExecutor)s over the shared
//!   channel. It owns what no other layer may duplicate: *time* (the
//!   per-slot timers, `timers.rs`) and *reply matching* (the xid-indexed
//!   route table, `routes.rs`).
//!
//! The two configurations are values of [`RuntimeConfig`]: the default
//! (many updates in flight, adaptive timers, quarantine, a bounded
//! queue) and [`RuntimeConfig::serial`] — the paper's "message queue …
//! processed one at a time". The sharded [`FabricCoordinator`] composes
//! several runtimes behind the same [`RuntimeHandle`], which is what the
//! simulator, the experiments, the REST layer and the benchmark driver
//! hold. Submissions go through [`SubmitRequest`] → [`SubmitTicket`].

pub mod admission;
pub mod conflict;
pub mod dispatch;
pub mod fabric;
pub mod journal;
pub(crate) mod routes;
pub mod rto;
pub mod seat;
pub mod submit;
pub(crate) mod timers;

pub use admission::Priority;
pub use conflict::{ConflictGraph, FlowClass, Footprint, JobId};
pub use dispatch::{ConcurrentRuntime, RetransMode, RuntimeConfig};
pub use fabric::{FabricConfig, FabricCoordinator, MigrateError, RebalanceReport, ShardId};
pub use journal::{Journal, JournalRecord};
pub use rto::{RtoConfig, RtoTable};
pub use seat::SwitchSeat;
pub use submit::{SubmitError, SubmitOutcome, SubmitRequest, SubmitTicket, TenantId};

use sdn_obs::Obs;
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimDuration, SimTime};

use crate::compile::CompiledUpdate;
use crate::controller::{CtrlOutput, UpdateReport};

/// Aggregate runtime counters (monotone; snapshot via
/// [`RuntimeHandle::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Updates offered through [`RuntimeHandle::submit`].
    pub submitted: u64,
    /// Updates that entered the queue.
    pub accepted: u64,
    /// Updates refused (backpressure).
    pub rejected: u64,
    /// Updates that completed every round.
    pub completed: u64,
    /// Updates that exhausted a retransmission budget.
    pub failed: u64,
    /// Retransmissions to one switch across all updates: one per timer
    /// that fired, and in ack mode one per barrier reply that revealed
    /// a lost echo.
    pub retransmissions: u64,
    /// Switches flagged as stragglers (slow while the rest of their
    /// round had acknowledged).
    pub stragglers: u64,
    /// Highest number of simultaneously executing updates observed.
    pub peak_active: u64,
    /// Switch reconnects observed (via [`RuntimeHandle::on_reconnect`]).
    pub reconnects: u64,
    /// Resynchronization audits that converged.
    pub resyncs: u64,
    /// Missing rules replayed by resynchronization.
    pub resynced_rules: u64,
    /// Switches quarantined after repeated failures.
    pub quarantined: u64,
    /// Crash recoveries this runtime instance was rebuilt through.
    pub recoveries: u64,
    /// Online seat migrations committed (fabric runtimes only).
    pub migrations: u64,
    /// Online seat migrations unwound — rejected at apply time or
    /// rolled back to the source by crash recovery.
    pub migration_aborts: u64,
}

impl RuntimeStats {
    /// Fraction of submissions refused.
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }
}

/// Per-switch retransmission state for [`StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchStatus {
    /// The switch.
    pub dp: DpId,
    /// Smoothed RTT, when at least one barrier sample exists.
    pub srtt: Option<SimDuration>,
    /// Current base retransmission timeout.
    pub rto: SimDuration,
    /// Flagged slow while the rest of its round had acknowledged.
    pub straggler: bool,
}

/// Per-shard depth figures for [`StatusReport`] (fabric runtimes only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard.
    pub shard: u32,
    /// Jobs waiting in the shard's admission queue.
    pub queued: usize,
    /// Jobs the shard is executing.
    pub active: usize,
    /// Switches the shard owns.
    pub switches: usize,
}

/// Per-tenant budget usage for [`StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStatus {
    /// The tenant.
    pub tenant: submit::TenantId,
    /// Jobs it has queued or executing.
    pub in_flight: u32,
    /// Its configured budget (`None` = unlimited).
    pub quota: Option<u32>,
}

/// A live snapshot of the runtime for `GET /status` — the operator's
/// view that experiments and tests previously scraped from internal
/// accessors. Rendered to JSON by
/// [`status_response`](crate::rest::status::status_response).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusReport {
    /// Jobs waiting for dispatch (admission-queue depth).
    pub queued: usize,
    /// Jobs currently executing.
    pub active: usize,
    /// Outstanding per-payload acknowledgements across active jobs
    /// (0 when [`ExecConfig::flowmod_acks`](crate::executor::ExecConfig)
    /// is off).
    pub pending_acks: usize,
    /// Aggregate counters.
    pub stats: RuntimeStats,
    /// Per-switch RTO estimates and straggler flags (every switch a
    /// barrier reply has sampled or a timer currently runs for).
    pub switches: Vec<SwitchStatus>,
    /// Records in the write-ahead journal (0 when journalling is
    /// disabled or the runtime has none).
    pub journal_len: usize,
    /// Switches currently quarantined, in dpid order.
    pub quarantined: Vec<DpId>,
    /// Per-shard queue and active depths (empty for single-runtime
    /// controllers).
    pub shards: Vec<ShardStatus>,
    /// Per-tenant in-flight counts against their budgets (empty when
    /// no tenant has work in flight).
    pub tenants: Vec<TenantStatus>,
    /// Cross-shard jobs waiting for their two-phase prepare.
    pub xshard_queued: usize,
    /// Cross-shard jobs currently executing under the coordinator.
    pub xshard_active: usize,
    /// Switches mid-migration (seat still fenced on its source shard),
    /// in dpid order. Empty for single-runtime controllers.
    pub migrating: Vec<DpId>,
}

/// A controller core that accepts compiled updates and drives them to
/// completion over a message transport. Implemented by
/// [`ConcurrentRuntime`] — the paper's one-at-a-time queue is its
/// [`RuntimeConfig::serial`] configuration — and by the sharded
/// [`FabricCoordinator`] over several of them.
pub trait RuntimeHandle {
    /// Offer an update for execution. Admission may refuse it (bounded
    /// queue, tenant quota, expired deadline); an accepted request
    /// yields a [`SubmitTicket`] carrying the assigned job id.
    fn submit_request(&mut self, req: submit::SubmitRequest, now: SimTime)
        -> submit::SubmitOutcome;

    /// Positional convenience over [`RuntimeHandle::submit_request`]:
    /// default tenant, no deadline.
    fn submit(
        &mut self,
        update: CompiledUpdate,
        now: SimTime,
        priority: Priority,
    ) -> submit::SubmitOutcome {
        self.submit_request(submit::SubmitRequest::new(update).priority(priority), now)
    }

    /// Drive timers and dispatch: start queued jobs, retransmit, end
    /// grace waits. Call regularly (each simulator step or timer
    /// tick). Returns transport commands.
    fn poll(&mut self, now: SimTime) -> Vec<CtrlOutput>;

    /// Feed a message arriving from a switch.
    fn on_message(&mut self, now: SimTime, from: DpId, env: &Envelope) -> Vec<CtrlOutput>;

    /// Whether nothing is executing or waiting.
    fn is_idle(&self) -> bool;

    /// Completed (or failed) job reports, in completion order.
    fn reports(&self) -> &[UpdateReport];

    /// Jobs waiting for dispatch.
    fn queued(&self) -> usize;

    /// Jobs currently executing.
    fn active_count(&self) -> usize;

    /// Counter snapshot.
    fn stats(&self) -> RuntimeStats;

    /// Live snapshot for the `GET /status` endpoint: queue and active
    /// depths, counters, per-switch RTOs and straggler flags, payload
    /// acks, quarantine and (for a fabric) per-shard rows.
    fn status_report(&self) -> StatusReport;

    /// The transport reports `dp`'s connection died. In-flight
    /// messages to and from it are gone (the retransmission timers
    /// cover those); any resync audit in progress is aborted.
    fn on_disconnect(&mut self, dp: DpId, now: SimTime);

    /// The transport reports `dp` reconnected (same datapath id,
    /// fresh connection — possibly a reboot with an empty table).
    /// Lifts any quarantine and starts the audit-and-repair handshake;
    /// the commands returned open the audit.
    fn on_reconnect(&mut self, dp: DpId, now: SimTime) -> Vec<CtrlOutput>;

    /// A rule was installed at `dp` outside any update job (initial
    /// table population). Recorded in the shadow tables (and the
    /// journal) so a later audit knows the baseline.
    fn note_installed(&mut self, dp: DpId, msg: &OfMessage);

    /// The intended rule-hash list for `dp` (ascending) — what the
    /// switch must converge to; `None` for a switch the runtime never
    /// sent or was told of a rule for. The simulator's auditor compares
    /// tables against this.
    fn intended_hashes(&self, dp: DpId) -> Option<Vec<u64>>;

    /// Rebuild state after a controller crash from the write-ahead
    /// journal. Returns whether a recovery happened: `false` without a
    /// journal, and then nothing is discarded.
    fn recover_from_crash(&mut self, now: SimTime) -> bool;

    /// Attach an observability sink: lifecycle events, metrics and
    /// flight-recorder rings flow into `obs` from here on.
    fn attach_obs(&mut self, obs: Obs);

    /// Start moving the per-switch seat of `dp` to shard `to`, when
    /// this runtime is a sharded fabric. Returns whether a migration
    /// actually began; a fabric that refuses the move (unknown switch,
    /// same shard, already migrating) answers `false`, and so does the
    /// default, for the unsharded runtime.
    fn begin_seat_migration(&mut self, _dp: DpId, _to: u32, _now: SimTime) -> bool {
        false
    }
}
