//! The round executor: barrier-synchronized round dispatch.
//!
//! Mirrors the demo's §2 word for word: *"In the current round, there
//! are a set of switches which have to be updated. The SDN controller
//! retrieves the corresponding OpenFlow message for every switch in the
//! set and sends them out to the switches. Later, the SDN controller
//! sends a barrier request to every switch of the set and waits for
//! barrier replies. For every barrier reply received by the SDN
//! controller, it determines the source switch. This switch is removed
//! from the set of switches of the current round... If the set is
//! empty, the current round finishes."*
//!
//! The executor is that state machine and nothing else. It owns no
//! clock and no barrier xid: **time belongs to the runtime** — its
//! per-switch timers decide when [`RoundExecutor::retransmit`] resends
//! (FlowMods are idempotent, Add-replace / exact Delete, so resending
//! to the unacknowledged switches is safe) and when the budget is gone
//! ([`RoundExecutor::force_fail`]) — and **a barrier reply is matched
//! to a transmission in exactly one place**, the runtime's
//! `(switch, xid)` route table, which then tells the executor *which
//! switch fenced* ([`RoundExecutor::on_barrier`]). Only the payload-ack
//! echo keeps an xid and a byte comparison here: that one is a
//! corruption check, not bookkeeping.

use std::collections::BTreeMap;

use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimDuration, SimTime, Xid};

use crate::compile::CompiledUpdate;

/// Allocates transaction ids from a range it never leaves.
#[derive(Debug, Clone)]
pub struct XidAlloc {
    next: Xid,
    /// First xid of the range (never 0) and the first one past it.
    base: u32,
    end: u64,
}

impl Default for XidAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl XidAlloc {
    /// The whole xid space, from 1 (0 is reserved for unsolicited
    /// messages).
    pub fn new() -> Self {
        Self::with_range(1, u32::MAX)
    }

    /// Allocate from `[base, base + len)` (clamped to the xid space,
    /// `base` to at least 1), wrapping back to `base`. Runtimes sharing
    /// a transport — the fabric's shards and its coordinator — carve
    /// the xid space into disjoint ranges so a reply routes to its
    /// owner by value, however long the runtime lives.
    pub fn with_range(base: u32, len: u32) -> Self {
        let base = base.max(1);
        let end = (u64::from(base) + u64::from(len.max(1))).min(1 << 32);
        XidAlloc {
            next: Xid(base),
            base,
            end,
        }
    }

    /// Allocate the next xid.
    pub fn alloc(&mut self) -> Xid {
        let x = self.next;
        self.next = if u64::from(x.0) + 1 < self.end {
            Xid(x.0 + 1)
        } else {
            Xid(self.base)
        };
        x
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// How long the runtime waits for a switch's barrier reply before
    /// retransmitting to it, under
    /// [`RetransMode::Fixed`](crate::runtime::RetransMode).
    pub barrier_timeout: SimDuration,
    /// Transmissions per switch and round before the runtime gives the
    /// update up (1 = no retries).
    pub max_attempts: u32,
    /// Require a per-FlowMod acknowledgement in addition to the round
    /// barrier. Each FlowMod is paired with an [`OfMessage::EchoRequest`]
    /// whose payload is the encoded FlowMod frame; the switch applies
    /// the payload before echoing, so the echo reply *proves* the rule
    /// is installed. This closes the reliable-delivery hole where a
    /// dropped FlowMod's barrier survives: the barrier fences only
    /// what *arrived*, so a barrier reply alone cannot confirm
    /// installation on a lossy channel. Off by default to keep the
    /// barrier-only baseline comparable; the live transport suites
    /// turn it on.
    pub flowmod_acks: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            barrier_timeout: SimDuration::from_millis(250),
            max_attempts: 8,
            flowmod_acks: false,
        }
    }
}

/// Executor lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecState {
    /// Not started.
    Idle,
    /// Waiting out a drain grace period before dispatching the next
    /// (rule-removing) round.
    WaitingGrace,
    /// A round is in flight, waiting for barrier replies.
    AwaitingBarriers,
    /// All rounds acknowledged.
    Done,
    /// Aborted by the runtime ([`RoundExecutor::force_fail`]): a
    /// switch exhausted its transmission budget or was quarantined.
    Failed,
}

/// Timing record of one round (feeds the update-time evaluation, E2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTiming {
    /// Round index (0-based).
    pub round: usize,
    /// When the round's messages were first dispatched.
    pub started: SimTime,
    /// When the last barrier reply arrived.
    pub completed: Option<SimTime>,
    /// Dispatch attempts (1 = no retransmissions).
    pub attempts: u32,
}

/// Whether a round message participates in per-payload
/// acknowledgement (only FlowMods carry installation state worth
/// verifying; anything else rides the barrier as before).
fn ack_eligible(msg: &OfMessage) -> bool {
    matches!(msg, OfMessage::FlowMod(_))
}

/// One outstanding payload-ack (echo) transmission.
#[derive(Debug, Clone)]
struct AckEntry {
    /// Index of the round message this echo covers.
    covered: usize,
    /// The exact bytes sent as the echo payload (the encoded FlowMod
    /// envelope). A reply only counts as an acknowledgement if it
    /// returns these bytes verbatim: a corrupted payload still gets
    /// echoed by a compliant switch, but proves nothing about
    /// installation.
    payload: Vec<u8>,
}

/// Outstanding work for one switch of the current round.
#[derive(Debug, Clone, Default)]
struct SwitchPending {
    /// Whether the switch's barrier has been answered.
    fenced: bool,
    /// Outstanding payload-ack (echo) transmissions by xid. Every
    /// transmission stays valid until the payload is acknowledged: the
    /// echo payload is the FlowMod itself, so a late reply to an older
    /// xid still proves installation.
    acks: BTreeMap<Xid, AckEntry>,
}

impl SwitchPending {
    fn done(&self) -> bool {
        self.fenced && self.acks.is_empty()
    }
}

/// The per-update round executor.
#[derive(Debug, Clone)]
pub struct RoundExecutor {
    update: CompiledUpdate,
    config: ExecConfig,
    state: ExecState,
    current: usize,
    /// Outstanding barrier/payload acknowledgements per switch for the
    /// current round.
    pending: BTreeMap<DpId, SwitchPending>,
    grace_until: SimTime,
    attempts: u32,
    /// Barrier set size of the round currently in flight (recorded at
    /// dispatch so width queries stay O(1)).
    current_width: usize,
    timings: Vec<RoundTiming>,
}

impl RoundExecutor {
    /// New executor for a compiled update.
    pub fn new(update: CompiledUpdate, config: ExecConfig) -> Self {
        RoundExecutor {
            update,
            config,
            state: ExecState::Idle,
            current: 0,
            pending: BTreeMap::new(),
            grace_until: SimTime::ZERO,
            attempts: 0,
            current_width: 0,
            timings: Vec::new(),
        }
    }

    /// An executor that resumes a recovered update at `round`
    /// (0-based): earlier rounds are taken as committed and never
    /// re-dispatched. Replaying them would be *safe* (FlowMods are
    /// idempotent) but wasteful; crash recovery trusts the journal's
    /// round-commit records instead. `start` then dispatches from
    /// `round`, or reports `Done` immediately when every round had
    /// committed before the crash.
    pub fn resume(update: CompiledUpdate, config: ExecConfig, round: usize) -> Self {
        let mut ex = Self::new(update, config);
        ex.current = round;
        ex
    }

    /// Lifecycle state.
    pub fn state(&self) -> ExecState {
        self.state
    }

    /// The update's label.
    pub fn label(&self) -> &str {
        &self.update.label
    }

    /// Per-round timing log.
    pub fn timings(&self) -> &[RoundTiming] {
        &self.timings
    }

    /// Index of the in-flight round.
    pub fn current_round(&self) -> usize {
        self.current
    }

    /// Switches of the current round still awaiting a barrier reply.
    pub fn pending_switches(&self) -> impl Iterator<Item = DpId> + '_ {
        self.pending.keys().copied()
    }

    /// Number of switches still pending in the current round.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether `dp` still owes the current round an acknowledgement.
    pub fn is_pending(&self, dp: DpId) -> bool {
        self.pending.contains_key(&dp)
    }

    /// When the grace wait ends — fixed at the moment the wait begins;
    /// meaningful in [`ExecState::WaitingGrace`] only.
    pub fn grace_until(&self) -> SimTime {
        self.grace_until
    }

    /// Size (in switches) of the round currently in flight — recorded
    /// at dispatch, so this is O(1); zero before the first dispatch
    /// and during a grace wait.
    pub fn current_round_width(&self) -> usize {
        if self.state == ExecState::AwaitingBarriers {
            self.current_width
        } else {
            0
        }
    }

    /// Total outstanding payload acknowledgements in the current
    /// round (0 unless [`ExecConfig::flowmod_acks`] is on).
    pub fn pending_acks(&self) -> usize {
        self.pending.values().map(|p| p.acks.len()).sum()
    }

    /// Resend the current round's outstanding work to those of
    /// `targets` that are still pending: unacknowledged payloads (with
    /// fresh payload-ack echoes in ack mode — older xids stay valid),
    /// then a fresh barrier unless the switch's barrier is already
    /// answered. With acks off that is all of the switch's FlowMods
    /// plus a re-keyed barrier. The runtime calls this when a
    /// per-switch timer of its own fires; the executor consults no
    /// clock. Bumps the round's attempt counter once per call that
    /// actually resends.
    pub fn retransmit(&mut self, xids: &mut XidAlloc, targets: &[DpId]) -> Vec<(DpId, Envelope)> {
        if self.state != ExecState::AwaitingBarriers {
            return Vec::new();
        }
        let acks_on = self.config.flowmod_acks;
        let round = &self.update.rounds[self.current].msgs;
        let mut out = Vec::new();
        for (j, (dp, msg)) in round.iter().enumerate() {
            if !targets.contains(dp) {
                continue;
            }
            let Some(entry) = self.pending.get_mut(dp) else {
                continue;
            };
            let tracked = acks_on && ack_eligible(msg);
            if tracked && !entry.acks.values().any(|a| a.covered == j) {
                continue; // payload already acknowledged
            }
            Self::push_payload(&mut out, entry, xids, tracked, j, *dp, msg);
        }
        for (dp, entry) in self.pending.iter_mut() {
            if !targets.contains(dp) || entry.fenced {
                continue; // fenced: only payload acks are missing
            }
            out.push((*dp, Envelope::new(xids.alloc(), OfMessage::BarrierRequest)));
        }
        if !out.is_empty() {
            self.attempts += 1;
            if let Some(t) = self.timings.last_mut() {
                t.attempts = self.attempts;
            }
        }
        out
    }

    /// Emit round message `j` to `dp`, paired in ack mode (`tracked`)
    /// with the echo that carries its encoded frame.
    fn push_payload(
        out: &mut Vec<(DpId, Envelope)>,
        entry: &mut SwitchPending,
        xids: &mut XidAlloc,
        tracked: bool,
        j: usize,
        dp: DpId,
        msg: &OfMessage,
    ) {
        let env = Envelope::new(xids.alloc(), msg.clone());
        let payload = tracked.then(|| sdn_openflow::codec::encode(&env).to_vec());
        out.push((dp, env));
        if let Some(payload) = payload {
            let echo_xid = xids.alloc();
            let ack = AckEntry {
                covered: j,
                payload: payload.clone(),
            };
            entry.acks.insert(echo_xid, ack);
            out.push((dp, Envelope::new(echo_xid, OfMessage::EchoRequest(payload))));
        }
    }

    /// Abort the update: the runtime's per-switch transmission budget
    /// ran out, or a switch it waits on was quarantined. The only way
    /// an executor fails; the job reports as failed.
    pub fn force_fail(&mut self) {
        self.state = ExecState::Failed;
    }

    /// Begin execution: dispatch round 0 (or start its grace wait).
    pub fn start(&mut self, now: SimTime, xids: &mut XidAlloc) -> Vec<(DpId, Envelope)> {
        assert_eq!(self.state, ExecState::Idle, "start() called twice");
        if self.current >= self.update.rounds.len() {
            self.state = ExecState::Done;
            return Vec::new();
        }
        self.begin_round(now, xids)
    }

    /// Enter the current round: honour its drain grace, then dispatch.
    fn begin_round(&mut self, now: SimTime, xids: &mut XidAlloc) -> Vec<(DpId, Envelope)> {
        let delay = self.update.rounds[self.current].pre_delay;
        if delay > SimDuration::ZERO {
            self.state = ExecState::WaitingGrace;
            self.grace_until = now + delay;
            Vec::new()
        } else {
            self.dispatch_current(now, xids)
        }
    }

    /// Dispatch the current round to every switch it addresses.
    fn dispatch_current(&mut self, now: SimTime, xids: &mut XidAlloc) -> Vec<(DpId, Envelope)> {
        self.state = ExecState::AwaitingBarriers;
        let acks_on = self.config.flowmod_acks;
        let round = &self.update.rounds[self.current].msgs;
        self.pending.clear();
        for (dp, _) in round {
            self.pending.entry(*dp).or_default();
        }
        let mut out = Vec::new();
        // Payloads first (each paired with its ack echo in ack mode)...
        for (j, (dp, msg)) in round.iter().enumerate() {
            let entry = self.pending.get_mut(dp).expect("inserted above");
            let tracked = acks_on && ack_eligible(msg);
            Self::push_payload(&mut out, entry, xids, tracked, j, *dp, msg);
        }
        // ...then one barrier per switch (FIFO connection ⇒ the barrier
        // fences everything above).
        for dp in self.pending.keys() {
            out.push((*dp, Envelope::new(xids.alloc(), OfMessage::BarrierRequest)));
        }
        self.current_width = self.pending.len();
        self.attempts = 1;
        self.timings.push(RoundTiming {
            round: self.current,
            started: now,
            completed: None,
            attempts: 1,
        });
        out
    }

    /// The runtime matched a barrier reply to an outstanding
    /// transmission of the current round to `from` — any of them, since
    /// every transmission carries the round's identical FlowMods — so
    /// the round's content is fenced there. Returns follow-up commands
    /// (the next round's dispatch when this one completes). A switch
    /// that already fenced, or is not pending, changes nothing.
    pub fn on_barrier(
        &mut self,
        now: SimTime,
        from: DpId,
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        if self.state != ExecState::AwaitingBarriers {
            return Vec::new();
        }
        match self.pending.get_mut(&from) {
            Some(entry) if !entry.fenced => entry.fenced = true,
            _ => return Vec::new(),
        }
        self.switch_progressed(now, from, xids)
    }

    /// A payload acknowledgement: the echo payload was the FlowMod
    /// itself, so the reply proves installation of the message it
    /// covers — retire every outstanding transmission of that payload.
    /// The proof is only as good as the round trip: a payload
    /// corrupted in either direction comes back altered (the switch
    /// echoes what it received and could not apply), so a mismatch is
    /// ignored and the retransmission timer takes over.
    pub fn on_echo(
        &mut self,
        now: SimTime,
        from: DpId,
        xid: Xid,
        echoed: &[u8],
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        if self.state != ExecState::AwaitingBarriers {
            return Vec::new();
        }
        let Some(entry) = self.pending.get_mut(&from) else {
            return Vec::new(); // switch already completed this round
        };
        let Some(ack) = entry.acks.get(&xid) else {
            return Vec::new(); // unsolicited or already-retired echo
        };
        if echoed != ack.payload {
            return Vec::new(); // corrupted round trip: no proof
        }
        let covered = ack.covered;
        entry.acks.retain(|_, a| a.covered != covered);
        self.switch_progressed(now, from, xids)
    }

    /// "it determines the source switch. This switch is removed from
    /// the set of switches of the current round... If the set is empty,
    /// the current round finishes."
    fn switch_progressed(
        &mut self,
        now: SimTime,
        from: DpId,
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        if !self.pending[&from].done() {
            return Vec::new();
        }
        self.pending.remove(&from);
        if !self.pending.is_empty() {
            return Vec::new();
        }
        if let Some(t) = self.timings.last_mut() {
            t.completed = Some(now);
        }
        self.current += 1;
        if self.current >= self.update.rounds.len() {
            self.state = ExecState::Done;
            return Vec::new();
        }
        self.begin_round(now, xids)
    }

    /// Dispatch the round whose grace wait is over; a no-op before
    /// [`RoundExecutor::grace_until`] and in every other state.
    pub fn end_grace(&mut self, now: SimTime, xids: &mut XidAlloc) -> Vec<(DpId, Envelope)> {
        if self.state != ExecState::WaitingGrace || now < self.grace_until {
            return Vec::new();
        }
        self.dispatch_current(now, xids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand};
    use sdn_types::HostId;

    fn flowmod() -> OfMessage {
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host(HostId(2)),
            actions: vec![],
            cookie: 0,
        })
    }

    #[test]
    fn xids_wrap_inside_their_range_and_skip_zero() {
        let take =
            |mut a: XidAlloc, k: usize| -> Vec<u32> { (0..k).map(|_| a.alloc().0).collect() };
        assert_eq!(take(XidAlloc::with_range(0, 3), 5), [1, 2, 3, 1, 2]);
        assert_eq!(take(XidAlloc::with_range(16, 2), 5), [16, 17, 16, 17, 16]);
        // the tail of the xid space ends at u32::MAX, not at 0
        let (m, tail) = (u32::MAX, XidAlloc::with_range(u32::MAX - 1, 10));
        assert_eq!(take(tail, 4), [m - 1, m, m - 1, m]);
        assert_eq!(take(XidAlloc::new(), 2), [1, 2]);
    }

    fn update(rounds: Vec<Vec<u64>>) -> CompiledUpdate {
        CompiledUpdate {
            label: "test".into(),
            rounds: rounds
                .into_iter()
                .map(|dps| crate::compile::CompiledRound {
                    msgs: dps.into_iter().map(|d| (DpId(d), flowmod())).collect(),
                    pre_delay: SimDuration::ZERO,
                })
                .collect(),
        }
    }

    fn barriers_of(cmds: &[(DpId, Envelope)]) -> Vec<DpId> {
        cmds.iter()
            .filter(|(_, e)| e.msg == OfMessage::BarrierRequest)
            .map(|(d, _)| *d)
            .collect()
    }

    #[test]
    fn happy_path_two_rounds() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![5], vec![1, 3]]), ExecConfig::default());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        // round 1: flowmod to s5 + barrier to s5
        assert_eq!(cmds.len(), 2);
        assert_eq!(barriers_of(&cmds), [DpId(5)]);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);

        // its fence completes round 1 and dispatches round 2
        let next = ex.on_barrier(SimTime(1), DpId(5), &mut xids);
        assert_eq!(ex.current_round(), 1);
        assert_eq!(barriers_of(&next), [DpId(1), DpId(3)]);

        // both fences finish the update
        for dp in barriers_of(&next) {
            ex.on_barrier(SimTime(2), dp, &mut xids);
        }
        assert_eq!(ex.state(), ExecState::Done);
        assert_eq!(ex.timings().len(), 2);
        assert!(ex.timings().iter().all(|t| t.completed.is_some()));
    }

    #[test]
    fn one_switch_acks_round_waits_for_other() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        let out = ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        assert!(out.is_empty());
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert!(!ex.is_pending(DpId(1)) && ex.is_pending(DpId(3)));
    }

    #[test]
    fn replies_from_unrelated_switch_ignored() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        ex.on_barrier(SimTime(1), DpId(42), &mut xids);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
    }

    #[test]
    fn fence_of_a_finished_switch_changes_nothing() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3], vec![1]]), ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        // a duplicate while the round still waits for s3
        assert!(ex.on_barrier(SimTime(2), DpId(1), &mut xids).is_empty());
        assert_eq!((ex.current_round(), ex.pending_count()), (0, 1));
        ex.on_barrier(SimTime(3), DpId(3), &mut xids);
        ex.on_barrier(SimTime(4), DpId(1), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        // ...and one after the update finished
        assert!(ex.on_barrier(SimTime(5), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.timings()[1].completed, Some(SimTime(4)));
    }

    #[test]
    fn retransmit_resends_to_pending_targets_only() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        // s1 fences, s3 does not
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        // nothing due: nothing sent, no attempt counted
        assert!(ex.retransmit(&mut xids, &[]).is_empty());
        assert_eq!(ex.timings()[0].attempts, 1);
        // both named: only s3 still owes the round anything
        let re = ex.retransmit(&mut xids, &[DpId(1), DpId(3)]);
        assert_eq!(re.len(), 2, "its FlowMod and a fresh barrier");
        assert!(re.iter().all(|(dp, _)| *dp == DpId(3)));
        assert_eq!(barriers_of(&re), [DpId(3)]);
        ex.on_barrier(SimTime(12), DpId(3), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        assert_eq!(ex.timings()[0].attempts, 2);
    }

    #[test]
    fn force_fail_is_terminal() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        ex.force_fail();
        assert_eq!(ex.state(), ExecState::Failed);
        assert!(ex.retransmit(&mut xids, &[DpId(1)]).is_empty());
        assert!(ex.on_barrier(SimTime(1), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::Failed);
        assert_eq!(ex.timings()[0].completed, None);
    }

    #[test]
    fn grace_wait_dispatches_once_it_is_over() {
        let mut xids = XidAlloc::new();
        let mut u = update(vec![vec![1], vec![2]]);
        u.rounds[1].pre_delay = SimDuration::from_millis(5);
        let mut ex = RoundExecutor::new(u, ExecConfig::default());
        ex.start(SimTime::ZERO, &mut xids);
        assert!(ex.on_barrier(SimTime(1), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::WaitingGrace);
        let due = SimTime(1) + SimDuration::from_millis(5);
        assert_eq!(ex.grace_until(), due);
        assert!(ex.end_grace(SimTime(2), &mut xids).is_empty());
        assert_eq!(barriers_of(&ex.end_grace(due, &mut xids)), [DpId(2)]);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert!(ex.end_grace(due, &mut xids).is_empty(), "dispatched once");
    }

    #[test]
    fn empty_update_is_immediately_done() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![]), ExecConfig::default());
        assert!(ex.start(SimTime::ZERO, &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn flowmods_precede_barriers_in_dispatch_order() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 1, 3]]), ExecConfig::default());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        // per switch: all flowmods before its barrier
        for dp in [DpId(1), DpId(3)] {
            let msgs: Vec<&OfMessage> = cmds
                .iter()
                .filter(|(d, _)| *d == dp)
                .map(|(_, e)| &e.msg)
                .collect();
            let barrier_pos = msgs
                .iter()
                .position(|m| **m == OfMessage::BarrierRequest)
                .unwrap();
            assert_eq!(barrier_pos, msgs.len() - 1);
        }
    }

    fn ack_cfg() -> ExecConfig {
        ExecConfig {
            flowmod_acks: true,
            ..ExecConfig::default()
        }
    }

    fn echoes_of(cmds: &[(DpId, Envelope)]) -> Vec<(DpId, Xid, Vec<u8>)> {
        cmds.iter()
            .filter_map(|(d, e)| match &e.msg {
                OfMessage::EchoRequest(p) => Some((*d, e.xid, p.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ack_mode_barrier_alone_does_not_complete_round() {
        // The dropped-FlowMod/surviving-barrier hole, closed: a barrier
        // reply without the payload ack leaves the round open.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        assert_eq!(e.len(), 1, "each FlowMod pairs with one ack echo");
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_acks(), 1);
        // the payload ack arrives: now the round completes
        ex.on_echo(SimTime(2), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn stale_xid_is_ignored() {
        // The echo path still matches its xid exactly: the right bytes
        // under an xid this round never sent prove nothing.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        ex.on_echo(SimTime(2), e[0].0, Xid(9999), &e[0].2, &mut xids);
        assert_eq!(ex.pending_acks(), 1);
        ex.on_echo(SimTime(3), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        // a duplicate of the genuine reply after completion is ignored
        let out = ex.on_echo(SimTime(4), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert!(out.is_empty());
        assert_eq!(ex.timings()[0].completed, Some(SimTime(3)));
    }

    #[test]
    fn ack_mode_corrupted_echo_payload_is_rejected() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        // an echoed payload with one bit flipped proves nothing
        let mut bad = e[0].2.clone();
        bad[0] ^= 1;
        ex.on_echo(SimTime(2), e[0].0, e[0].1, &bad, &mut xids);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_acks(), 1);
        // the intact round trip still completes the round
        ex.on_echo(SimTime(3), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn ack_mode_retransmits_unacked_payloads_without_barrier() {
        // Two FlowMods to one switch; the barrier and one payload are
        // acknowledged. A retransmission must resend only the missing
        // payload — no barrier re-key, no duplicate of the acked one.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 1]]), ack_cfg());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        assert_eq!(e.len(), 2);
        ex.on_barrier(SimTime(1), DpId(1), &mut xids);
        ex.on_echo(SimTime(2), e[0].0, e[0].1, &e[0].2, &mut xids);
        let re = ex.retransmit(&mut xids, &[DpId(1)]);
        assert!(barriers_of(&re).is_empty(), "acked barrier is not re-sent");
        let re_echo = echoes_of(&re);
        assert_eq!(re_echo.len(), 1, "only the unacked payload is resent");
        assert_eq!(
            re.len(),
            2,
            "exactly one FlowMod + its ack echo retransmitted"
        );
        let (dp, xid, payload) = &re_echo[0];
        ex.on_echo(SimTime(12), *dp, *xid, payload, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn ack_mode_late_reply_to_old_echo_xid_still_counts() {
        // Retransmissions re-key the echo, but the original payload is
        // identical — a straggling reply to the *first* transmission
        // still proves installation and retires every outstanding copy.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        let e1 = echoes_of(&cmds);
        let re = ex.retransmit(&mut xids, &[DpId(1)]);
        assert_eq!(barriers_of(&re), [DpId(1)], "unanswered barrier is re-sent");
        assert_eq!(ex.pending_acks(), 2, "both transmissions outstanding");
        ex.on_echo(SimTime(12), e1[0].0, e1[0].1, &e1[0].2, &mut xids);
        assert_eq!(ex.pending_acks(), 0, "old ack retires every copy");
        ex.on_barrier(SimTime(13), DpId(1), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn acks_off_sends_no_echoes() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        let cmds = ex.start(SimTime::ZERO, &mut xids);
        assert!(echoes_of(&cmds).is_empty());
        assert_eq!(ex.pending_acks(), 0);
    }
}
