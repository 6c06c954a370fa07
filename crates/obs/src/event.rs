//! The structured trace event: a fixed-size, `Copy` record stamped
//! with virtual time.
//!
//! Every lifecycle edge of an update — submission, admission verdict,
//! round dispatch, per-switch sends and acks, barrier fences, commit
//! or abort, cross-shard prepares, resync, quarantine, journal
//! replay — emits one [`Event`]. Events carry no
//! heap data, so recording one is a handful of integer stores: the
//! hot path never allocates, and two runs over the same virtual-time
//! schedule produce byte-identical event streams.

use sdn_types::SimTime;

/// The per-update trace identifier. Spans are keyed by the runtime's
/// job id, so a span groups every event of one update's lifecycle —
/// across rounds, switches, and (for cross-shard jobs) shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// No span: events about the control plane itself (faults, resync,
/// crash recovery) rather than any one update.
pub const NO_SPAN: SpanId = SpanId(u64::MAX);

/// What happened. The taxonomy is closed on purpose: a fixed enum
/// keeps [`Event`] `Copy`, keeps dump schemas stable, and forces new
/// instrumentation through review here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An update was offered to the runtime (`aux` = queue depth
    /// after the verdict).
    Submit,
    /// Admission accepted it into the queue.
    Admit,
    /// Admission refused it (`aux` = reject-reason ordinal).
    Reject,
    /// A round began dispatching (`round` = its index, `aux` = its
    /// width in switches).
    RoundDispatch,
    /// A FlowMod+barrier envelope left for `dp`.
    FlowModSend,
    /// `dp` acknowledged a per-payload FlowMod.
    FlowModAck,
    /// `dp`'s barrier reply fenced its round slice (`aux` = RTT in
    /// nanoseconds).
    BarrierFence,
    /// Every switch of `round` acknowledged; the round is durable.
    RoundCommit,
    /// The whole update completed (`aux` = submit→commit latency in
    /// nanoseconds).
    Commit,
    /// The update failed or was cancelled.
    Abort,
    /// The fabric coordinator asked a shard to prepare a cross-shard
    /// slice.
    XPrepare,
    /// A shard answered a prepare (`aux` = 1 committed, 0 refused).
    XPrepareAck,
    /// All shards prepared; the cross-shard job committed its ticket.
    XCommit,
    /// An audit-and-repair resync opened against `dp`.
    ResyncBegin,
    /// The resync converged (`aux` = rules replayed).
    ResyncDone,
    /// `dp` was quarantined after repeated failures.
    Quarantine,
    /// Crash recovery replayed the write-ahead journal (`aux` =
    /// records replayed).
    JournalReplay,
    /// The chaos harness injected a fault (`aux` = fault ordinal).
    Fault,
    /// A controller crash-recovery cycle completed.
    CrashRecover,
    /// The transport reports `dp` connected or reconnected.
    Reconnect,
    /// The transport reports `dp`'s connection died.
    Disconnect,
    /// A probe packet crossed the network in violation of the
    /// waypoint policy (`aux` = the injection plan index).
    Violation,
}

impl EventKind {
    /// Every kind, in ordinal order (`ALL[k as usize] == k`): the
    /// registry keeps one count per entry.
    pub const ALL: [EventKind; 22] = [
        EventKind::Submit,
        EventKind::Admit,
        EventKind::Reject,
        EventKind::RoundDispatch,
        EventKind::FlowModSend,
        EventKind::FlowModAck,
        EventKind::BarrierFence,
        EventKind::RoundCommit,
        EventKind::Commit,
        EventKind::Abort,
        EventKind::XPrepare,
        EventKind::XPrepareAck,
        EventKind::XCommit,
        EventKind::ResyncBegin,
        EventKind::ResyncDone,
        EventKind::Quarantine,
        EventKind::JournalReplay,
        EventKind::Fault,
        EventKind::CrashRecover,
        EventKind::Reconnect,
        EventKind::Disconnect,
        EventKind::Violation,
    ];

    /// Stable lower-snake name used in dumps, traces, docs and the
    /// `kind` label of `sdn_events_total`.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::RoundDispatch => "round_dispatch",
            EventKind::FlowModSend => "flowmod_send",
            EventKind::FlowModAck => "flowmod_ack",
            EventKind::BarrierFence => "barrier_fence",
            EventKind::RoundCommit => "round_commit",
            EventKind::Commit => "commit",
            EventKind::Abort => "abort",
            EventKind::XPrepare => "xprepare",
            EventKind::XPrepareAck => "xprepare_ack",
            EventKind::XCommit => "xcommit",
            EventKind::ResyncBegin => "resync_begin",
            EventKind::ResyncDone => "resync_done",
            EventKind::Quarantine => "quarantine",
            EventKind::JournalReplay => "journal_replay",
            EventKind::Fault => "fault",
            EventKind::CrashRecover => "crash_recover",
            EventKind::Reconnect => "reconnect",
            EventKind::Disconnect => "disconnect",
            EventKind::Violation => "violation",
        }
    }
}

/// One trace record. `dp`, `round` and `aux` are kind-dependent (see
/// [`EventKind`]); unused fields stay zero. `u64::MAX` in `dp` means
/// "no switch".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual-time stamp.
    pub at: SimTime,
    /// Which shard's flight-recorder ring this lands in (0 for
    /// unsharded runtimes).
    pub shard: u32,
    /// What happened.
    pub kind: EventKind,
    /// The update this belongs to, or [`NO_SPAN`].
    pub span: SpanId,
    /// The switch involved, or `u64::MAX`.
    pub dp: u64,
    /// The round index, where one applies.
    pub round: u32,
    /// Kind-dependent payload (latency in ns, counts, ordinals).
    pub aux: u64,
}

/// Sentinel for "no switch involved".
pub const NO_DP: u64 = u64::MAX;

impl Event {
    /// A minimal event; chain the builders for the rest.
    #[inline]
    pub fn new(at: SimTime, kind: EventKind) -> Self {
        Event {
            at,
            shard: 0,
            kind,
            span: NO_SPAN,
            dp: NO_DP,
            round: 0,
            aux: 0,
        }
    }

    /// Tag the owning update.
    #[inline]
    pub fn span(mut self, job: u64) -> Self {
        self.span = SpanId(job);
        self
    }

    /// Tag the switch.
    #[inline]
    pub fn dp(mut self, dp: u64) -> Self {
        self.dp = dp;
        self
    }

    /// Tag the round index.
    #[inline]
    pub fn round(mut self, round: usize) -> Self {
        self.round = round as u32;
        self
    }

    /// Attach the kind-dependent payload.
    #[inline]
    pub fn aux(mut self, aux: u64) -> Self {
        self.aux = aux;
        self
    }

    /// Route to a shard's ring.
    #[inline]
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// Render as one JSON object (the dump/trace line format).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"at_ns\":");
        s.push_str(&self.at.as_nanos().to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        if self.span != NO_SPAN {
            s.push_str(",\"job\":");
            s.push_str(&self.span.0.to_string());
        }
        if self.dp != NO_DP {
            s.push_str(",\"dp\":");
            s.push_str(&self.dp.to_string());
        }
        if self.round != 0 {
            s.push_str(",\"round\":");
            s.push_str(&self.round.to_string());
        }
        if self.aux != 0 {
            s.push_str(",\"aux\":");
            s.push_str(&self.aux.to_string());
        }
        if self.shard != 0 {
            s.push_str(",\"shard\":");
            s.push_str(&self.shard.to_string());
        }
        s.push('}');
        s
    }
}
