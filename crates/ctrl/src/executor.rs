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
//! The executor is that state machine and nothing else; the set is one
//! **slot** per switch, in ascending dpid, computed once per dispatch.
//! **Time belongs to the runtime**: its walk over the slots' timers
//! decides when [`RoundExecutor::retransmit`] resends (FlowMods are
//! idempotent, so resending to unacknowledged switches is safe) and when
//! the budget is gone ([`RoundExecutor::force_fail`]). **A reply is
//! matched in exactly one place**, the route table in [`XidAlloc`]: each
//! barrier and echo is routed to its slot as it is emitted, and the
//! runtime hands a matched reply's slot back. Only the payload-ack echo
//! keeps a byte comparison here: a corruption check, not bookkeeping.
//!
//! In ack mode ([`ExecConfig::flowmod_acks`]) the connection's FIFO order
//! does the loss detection the timers would otherwise wait for: the
//! switch answers an echo before any barrier sent after it, so a barrier
//! reply that arrives while an older echo is unanswered proves that echo
//! (or its reply) lost, and the payload goes out again at once.

use sdn_openflow::codec;
use sdn_openflow::messages::{Envelope, OfMessage};
use sdn_types::{DpId, SimDuration, SimTime, Xid};

use crate::compile::CompiledUpdate;
use crate::controller::CtrlOutput;
use crate::runtime::routes::Route;
use crate::runtime::timers::SlotTimer;
use crate::runtime::JobId;

pub use crate::runtime::routes::XidAlloc;

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
    /// Require a per-FlowMod acknowledgement beside the round barrier:
    /// each FlowMod is paired with an [`OfMessage::EchoRequest`] carrying
    /// its encoded frame, which the switch applies before echoing, so
    /// the reply *proves* installation — a barrier fences only what
    /// arrived. A switch whose messages are all FlowMods is then done
    /// once every one is proven, without its barrier reply; the barrier
    /// still serves as a loss detector: on a FIFO connection its reply
    /// overtakes only echoes that were lost, so it resends at once —
    /// behind a fresh barrier — every payload whose outstanding echoes
    /// all went out before it. Off by default (the barrier-only
    /// baseline).
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
    /// When the last confirmation arrived: the barrier reply or, in
    /// ack mode, the echo reply that left no switch owing the round.
    pub completed: Option<SimTime>,
    /// Dispatch attempts (1 = no retransmissions): one more per timer
    /// firing that resent, and per barrier reply that revealed a lost
    /// echo.
    pub attempts: u32,
}

/// One outstanding payload-ack (echo) transmission.
#[derive(Debug, Clone)]
struct AckEntry {
    xid: Xid,
    /// Index of the round message this echo covers.
    covered: usize,
    /// The slot's transmission it went out with (1 = the dispatch).
    attempt: u32,
    /// The exact bytes sent (the encoded FlowMod envelope): a corrupted
    /// payload still gets echoed, but proves nothing about installation.
    payload: Vec<u8>,
}

/// One switch of the round in flight: what it still owes the round, and
/// its retransmission timer.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) dp: DpId,
    /// Whether one of the switch's barriers has been answered.
    fenced: bool,
    /// Whether the switch is done only once fenced: always in
    /// barrier-only mode, and in ack mode when it is sent a message no
    /// echo proves. Decided at dispatch.
    awaits_fence: bool,
    /// Whether it owes the round nothing more.
    pub(crate) done: bool,
    /// Outstanding payload-ack transmissions, oldest first, each valid
    /// until its payload is acknowledged (a late reply to an older one
    /// still proves installation: the payload is the FlowMod itself).
    acks: Vec<AckEntry>,
    /// The newest outstanding barrier; its route chains the older ones.
    barrier: Xid,
    pub(crate) timer: SlotTimer,
}

impl Slot {
    /// The newest echo of each unacknowledged payload.
    fn newest_echoes(&self) -> impl Iterator<Item = &AckEntry> {
        let later =
            |i: usize, a: &AckEntry| self.acks[i + 1..].iter().any(|b| b.covered == a.covered);
        self.acks
            .iter()
            .enumerate()
            .filter(move |&(i, a)| !later(i, a))
            .map(|(_, a)| a)
    }
}

/// What one `emit` sends to the slots it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// The round's dispatch: everything, to every slot.
    Dispatch,
    /// A timer fired: the due slots' unacknowledged messages, and a
    /// barrier unless the slot already fenced.
    Timeout,
    /// A barrier reply of transmission `n` overtook echoes: the payloads
    /// whose newest echo went out with transmission `n` or earlier, and
    /// a fresh barrier behind them.
    Overtaken(u32),
}

impl Emit {
    /// Whether message `j` of the round goes (again) to slot `s`;
    /// `tracked` when it is a FlowMod an echo acknowledges.
    fn sends(self, s: &Slot, j: usize, tracked: bool) -> bool {
        let newest = || s.acks.iter().rev().find(|a| a.covered == j);
        match self {
            Emit::Dispatch => true,
            Emit::Timeout => s.timer.due && (!tracked || newest().is_some()),
            Emit::Overtaken(n) => {
                s.timer.due && tracked && newest().is_some_and(|a| a.attempt <= n)
            }
        }
    }
}

/// The per-update round executor.
#[derive(Debug, Clone)]
pub struct RoundExecutor {
    /// Whose transmissions the routes name.
    id: JobId,
    update: CompiledUpdate,
    config: ExecConfig,
    state: ExecState,
    current: usize,
    /// The current round's switches, ascending dpid.
    pub(crate) slots: Vec<Slot>,
    /// Slots not yet done.
    pending: usize,
    grace_until: SimTime,
    attempts: u32,
    timings: Vec<RoundTiming>,
    /// Encoding buffer for echo payloads.
    frame: codec::BytesMut,
}

impl RoundExecutor {
    /// New executor for a compiled update.
    pub fn new(update: CompiledUpdate, config: ExecConfig) -> Self {
        Self::resume(JobId(0), update, config, 0)
    }

    /// Job `id`'s executor, resuming a recovered update at `round`
    /// (0-based): earlier rounds are taken as committed — crash recovery
    /// trusts the journal's round-commit records — and never
    /// re-dispatched. `start` then dispatches from `round`, or reports
    /// `Done` at once when every round had committed.
    pub fn resume(id: JobId, update: CompiledUpdate, config: ExecConfig, round: usize) -> Self {
        RoundExecutor {
            id,
            update,
            config,
            state: ExecState::Idle,
            current: round,
            slots: Vec::new(),
            pending: 0,
            grace_until: SimTime::ZERO,
            attempts: 0,
            timings: Vec::new(),
            frame: codec::BytesMut::new(),
        }
    }

    /// Lifecycle state.
    pub fn state(&self) -> ExecState {
        self.state
    }

    /// The update's label.
    pub fn label(&self) -> &str {
        &self.update.label
    }

    /// The label and timing log, by move (the report of a reaped job).
    pub(crate) fn finish(self) -> (String, Vec<RoundTiming>) {
        (self.update.label, self.timings)
    }

    /// Index of the in-flight round.
    pub fn current_round(&self) -> usize {
        self.current
    }

    /// Switches of the current round still owing it an acknowledgement.
    pub fn pending_switches(&self) -> impl Iterator<Item = DpId> + '_ {
        self.slots.iter().filter(|s| !s.done).map(|s| s.dp)
    }

    /// Number of switches still pending in the current round.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// `dp`'s slot in the current round.
    pub fn slot_of(&self, dp: DpId) -> Option<usize> {
        self.slots.binary_search_by_key(&dp, |s| s.dp).ok()
    }

    /// When the grace wait ends — fixed at the moment the wait begins;
    /// meaningful in [`ExecState::WaitingGrace`] only.
    pub fn grace_until(&self) -> SimTime {
        self.grace_until
    }

    /// Size (in switches) of the round currently in flight; zero before
    /// the first dispatch and during a grace wait.
    pub fn current_round_width(&self) -> usize {
        if self.state == ExecState::AwaitingBarriers {
            self.slots.len()
        } else {
            0
        }
    }

    /// Outstanding payload acknowledgements in the current round,
    /// counted per payload however often it was sent (0 unless
    /// [`ExecConfig::flowmod_acks`] is on).
    pub fn pending_acks(&self) -> usize {
        self.slots.iter().map(|s| s.newest_echoes().count()).sum()
    }

    /// Retire every route this executor's transmissions still hold: a
    /// done slot holds none, so only the current round's can.
    pub(crate) fn retire_routes(&self, xids: &mut XidAlloc) {
        for s in &self.slots {
            xids.retire_chain(s.barrier, self.id);
            for a in &s.acks {
                xids.retire(a.xid, self.id);
            }
        }
    }

    /// Resend the current round's outstanding work to the slots the
    /// runtime's timer walk marked due (the unacknowledged payloads, and a
    /// fresh barrier unless the switch already fenced).
    pub fn retransmit(&mut self, now: SimTime, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        if self.state == ExecState::AwaitingBarriers {
            self.resend(now, Emit::Timeout, xids, out)
        }
    }

    /// Emit a retransmission, bumping the round's attempt counter if it
    /// actually resent anything.
    fn resend(&mut self, now: SimTime, why: Emit, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        let start = out.len();
        self.emit(now, why, xids, out);
        if out.len() > start {
            self.attempts += 1;
            if let Some(t) = self.timings.last_mut() {
                t.attempts = self.attempts;
            }
        }
    }

    /// Append the round's work for the due slots (see [`Emit`]): their
    /// messages in round order — each FlowMod paired in ack mode with the
    /// echo that carries its encoded frame, older echo xids staying valid
    /// — then, in ascending dpid, a barrier to each (FIFO connection ⇒ it
    /// fences everything above), routed and chained to the slot's older
    /// ones.
    fn emit(&mut self, now: SimTime, why: Emit, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        if why != Emit::Dispatch {
            for s in self.slots.iter_mut().filter(|s| s.timer.due) {
                s.timer.attempts += 1;
                s.timer.latest_sent = now;
            }
        }
        let acks_on = self.config.flowmod_acks;
        for (j, (dp, msg)) in self.update.rounds[self.current].msgs.iter().enumerate() {
            let tracked = acks_on && matches!(msg, OfMessage::FlowMod(_));
            if why != Emit::Dispatch {
                let s = &self.slots[self.slot_of(*dp).expect("a slot per switch")];
                if !why.sends(s, j, tracked) {
                    continue; // not due, or its payload already acknowledged
                }
            }
            let env = Envelope::new(xids.alloc(), msg.clone());
            if !tracked {
                out.push(CtrlOutput::Send(*dp, env));
                continue;
            }
            let slot = self.slot_of(*dp).expect("a slot per switch");
            let attempt = self.slots[slot].timer.attempts;
            self.frame.clear();
            codec::try_encode_into(&env, &mut self.frame).expect("round messages encode");
            let xid = xids.routed(Route::new(*dp, self.id, slot, now, attempt, Xid(0)));
            let echo = Envelope::new(xid, OfMessage::EchoRequest(self.frame.to_vec()));
            let payload = self.frame.to_vec();
            self.slots[slot].acks.push(AckEntry {
                xid,
                covered: j,
                attempt,
                payload,
            });
            out.extend([CtrlOutput::Send(*dp, env), CtrlOutput::Send(*dp, echo)]);
        }
        for (i, s) in self
            .slots
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| s.timer.due)
        {
            s.timer.due = false;
            if !s.fenced || why != Emit::Timeout {
                let route = Route::new(s.dp, self.id, i, now, s.timer.attempts, s.barrier);
                s.barrier = xids.routed(route);
                let barrier = Envelope::new(s.barrier, OfMessage::BarrierRequest);
                out.push(CtrlOutput::Send(s.dp, barrier));
            }
        }
    }

    /// Abort the update: the runtime's per-switch transmission budget
    /// ran out, or a switch it waits on was quarantined. The only way
    /// an executor fails; the job reports as failed.
    pub fn force_fail(&mut self) {
        self.state = ExecState::Failed;
    }

    /// Begin execution: dispatch round 0 (or start its grace wait).
    pub fn start(&mut self, now: SimTime, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        assert_eq!(self.state, ExecState::Idle, "start() called twice");
        if self.current >= self.update.rounds.len() {
            self.state = ExecState::Done;
            return;
        }
        self.begin_round(now, xids, out)
    }

    /// Enter the current round: honour its drain grace, then dispatch.
    fn begin_round(&mut self, now: SimTime, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        let delay = self.update.rounds[self.current].pre_delay;
        if delay > SimDuration::ZERO {
            self.state = ExecState::WaitingGrace;
            self.grace_until = now + delay;
        } else {
            self.dispatch_current(now, xids, out)
        }
    }

    /// Dispatch the current round to every switch it addresses, one
    /// slot per switch in ascending dpid, each fresh timer due at once.
    fn dispatch_current(&mut self, now: SimTime, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        self.state = ExecState::AwaitingBarriers;
        let round = &self.update.rounds[self.current].msgs;
        let timer = SlotTimer {
            latest_sent: now,
            attempts: 1,
            straggler: false,
            due: true,
        };
        let acks_on = self.config.flowmod_acks;
        self.slots.clear();
        self.slots.extend(round.iter().map(|&(dp, _)| Slot {
            dp,
            fenced: false,
            awaits_fence: !acks_on,
            done: false,
            acks: Vec::new(),
            barrier: Xid(0),
            timer,
        }));
        self.slots.sort_unstable_by_key(|s| s.dp);
        self.slots.dedup_by_key(|s| s.dp);
        if acks_on {
            // an echo proves a FlowMod; anything else only its barrier
            for (dp, _) in round
                .iter()
                .filter(|(_, m)| !matches!(m, OfMessage::FlowMod(_)))
            {
                let i = self.slots.binary_search_by_key(dp, |s| s.dp);
                self.slots[i.expect("a slot per switch")].awaits_fence = true;
            }
        }
        self.pending = self.slots.len();
        let echoes = round.len() * usize::from(acks_on);
        out.reserve(round.len() + echoes + self.slots.len());
        self.emit(now, Emit::Dispatch, xids, out);
        self.attempts = 1;
        self.timings.push(RoundTiming {
            round: self.current,
            started: now,
            completed: None,
            attempts: 1,
        });
    }

    /// The runtime matched a barrier reply from `from` to an outstanding
    /// transmission of `slot` — any of them, since every transmission
    /// carries the round's identical FlowMods — which went out with the
    /// slot's transmission `attempt`. The round's content is fenced there
    /// and every barrier route of the slot retires. In ack mode an echo
    /// sent before that barrier and still unanswered was lost (the
    /// connection is FIFO), so every payload whose outstanding echoes
    /// all went out with transmission `attempt` or earlier is resent at
    /// once, behind a fresh barrier: `Ok(true)`, or `Err(from)` when the
    /// slot's transmission budget is spent — the caller fails the job, as
    /// when a timer finds it spent. Appends follow-up commands (the
    /// resend, or the next round's dispatch when this one completes). A
    /// slot that is done, or is not `from`'s, changes nothing.
    pub fn on_barrier(
        &mut self,
        now: SimTime,
        from: DpId,
        slot: usize,
        attempt: u32,
        xids: &mut XidAlloc,
        out: &mut Vec<CtrlOutput>,
    ) -> Result<bool, DpId> {
        if self.state != ExecState::AwaitingBarriers {
            return Ok(false);
        }
        let Some(s) = self.slots.get_mut(slot).filter(|s| s.dp == from && !s.done) else {
            return Ok(false);
        };
        s.fenced = true;
        xids.retire_chain(std::mem::take(&mut s.barrier), self.id);
        if s.newest_echoes().any(|a| a.attempt <= attempt) {
            if s.timer.attempts >= self.config.max_attempts {
                return Err(from);
            }
            s.timer.due = true;
            self.resend(now, Emit::Overtaken(attempt), xids, out);
            return Ok(true);
        }
        self.switch_progressed(now, slot, xids, out);
        Ok(false)
    }

    /// A payload acknowledgement: the echo payload was the FlowMod
    /// itself, so the reply proves installation of the message it
    /// covers — retire every outstanding transmission of that payload
    /// from the round, routes and all. The proof is only as good as the
    /// round trip: a payload corrupted in either direction comes back
    /// altered (the switch echoes what it received and could not apply),
    /// so a mismatch is ignored — its route stays live for an intact
    /// duplicate — and the next barrier reply or timer takes over.
    #[allow(clippy::too_many_arguments)]
    pub fn on_echo(
        &mut self,
        now: SimTime,
        from: DpId,
        slot: usize,
        xid: Xid,
        echoed: &[u8],
        xids: &mut XidAlloc,
        out: &mut Vec<CtrlOutput>,
    ) {
        if self.state != ExecState::AwaitingBarriers {
            return;
        }
        let Some(s) = self.slots.get_mut(slot).filter(|s| s.dp == from && !s.done) else {
            return; // switch already completed this round
        };
        let Some(ack) = s.acks.iter().find(|a| a.xid == xid) else {
            return; // unsolicited or already-retired echo
        };
        if echoed != ack.payload {
            return; // corrupted round trip: no proof
        }
        let covered = ack.covered;
        for a in s.acks.iter().filter(|a| a.covered == covered) {
            xids.retire(a.xid, self.id);
        }
        s.acks.retain(|a| a.covered != covered);
        self.switch_progressed(now, slot, xids, out)
    }

    /// "it determines the source switch. This switch is removed from
    /// the set of switches of the current round... If the set is empty,
    /// the current round finishes."
    fn switch_progressed(
        &mut self,
        now: SimTime,
        slot: usize,
        xids: &mut XidAlloc,
        out: &mut Vec<CtrlOutput>,
    ) {
        let s = &mut self.slots[slot];
        if s.awaits_fence && !s.fenced || !s.acks.is_empty() {
            return;
        }
        s.done = true;
        if s.barrier != Xid(0) {
            // proven by its echoes, or fenced before a resend: the
            // barriers still out are moot, and a late reply must not
            // fence a later round's slot here
            xids.retire_chain(std::mem::take(&mut s.barrier), self.id);
        }
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        if let Some(t) = self.timings.last_mut() {
            t.completed = Some(now);
        }
        self.current += 1;
        if self.current >= self.update.rounds.len() {
            self.state = ExecState::Done;
            return;
        }
        self.begin_round(now, xids, out)
    }

    /// Dispatch the round whose grace wait is over; a no-op before
    /// [`RoundExecutor::grace_until`] and in every other state.
    pub fn end_grace(&mut self, now: SimTime, xids: &mut XidAlloc, out: &mut Vec<CtrlOutput>) {
        if self.state == ExecState::WaitingGrace && now >= self.grace_until {
            self.dispatch_current(now, xids, out)
        }
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

    fn sends(out: Vec<CtrlOutput>) -> Vec<(DpId, Envelope)> {
        out.into_iter()
            .map(|CtrlOutput::Send(dp, env)| (dp, env))
            .collect()
    }

    fn start(ex: &mut RoundExecutor, now: SimTime, xids: &mut XidAlloc) -> Vec<(DpId, Envelope)> {
        let mut out = Vec::new();
        ex.start(now, xids, &mut out);
        sends(out)
    }

    /// A barrier reply from `dp` to the barrier it was sent with
    /// transmission `attempt`, routed to its slot as the runtime routes
    /// it (an unknown switch gets no slot).
    fn fence_of(
        ex: &mut RoundExecutor,
        now: SimTime,
        dp: DpId,
        attempt: u32,
        xids: &mut XidAlloc,
    ) -> Result<Vec<(DpId, Envelope)>, DpId> {
        let mut out = Vec::new();
        let slot = ex.slot_of(dp).unwrap_or(usize::MAX);
        ex.on_barrier(now, dp, slot, attempt, xids, &mut out)?;
        Ok(sends(out))
    }

    /// A barrier reply from `dp` to its newest transmission.
    fn fence(
        ex: &mut RoundExecutor,
        now: SimTime,
        dp: DpId,
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        let newest = ex.slot_of(dp).map_or(1, |i| ex.slots[i].timer.attempts);
        fence_of(ex, now, dp, newest, xids).expect("budget left")
    }

    fn echo(
        ex: &mut RoundExecutor,
        now: SimTime,
        dp: DpId,
        xid: Xid,
        echoed: &[u8],
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        let mut out = Vec::new();
        let slot = ex.slot_of(dp).unwrap_or(usize::MAX);
        ex.on_echo(now, dp, slot, xid, echoed, xids, &mut out);
        sends(out)
    }

    /// Fire the timers of `targets` as the runtime's walk would (pending
    /// slots only), then retransmit.
    fn resend(
        ex: &mut RoundExecutor,
        xids: &mut XidAlloc,
        targets: &[DpId],
    ) -> Vec<(DpId, Envelope)> {
        for s in &mut ex.slots {
            s.timer.due = !s.done && targets.contains(&s.dp);
        }
        let mut out = Vec::new();
        ex.retransmit(SimTime::ZERO, xids, &mut out);
        sends(out)
    }

    fn grace_over(
        ex: &mut RoundExecutor,
        now: SimTime,
        xids: &mut XidAlloc,
    ) -> Vec<(DpId, Envelope)> {
        let mut out = Vec::new();
        ex.end_grace(now, xids, &mut out);
        sends(out)
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
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        // round 1: flowmod to s5 + barrier to s5
        assert_eq!(cmds.len(), 2);
        assert_eq!(barriers_of(&cmds), [DpId(5)]);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);

        // its fence completes round 1 and dispatches round 2
        let next = fence(&mut ex, SimTime(1), DpId(5), &mut xids);
        assert_eq!(ex.current_round(), 1);
        assert_eq!(barriers_of(&next), [DpId(1), DpId(3)]);

        // both fences finish the update
        for dp in barriers_of(&next) {
            fence(&mut ex, SimTime(2), dp, &mut xids);
        }
        assert_eq!(ex.state(), ExecState::Done);
        assert_eq!(ex.timings.len(), 2);
        assert!(ex.timings.iter().all(|t| t.completed.is_some()));
    }

    #[test]
    fn one_switch_acks_round_waits_for_other() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        let out = fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        assert!(out.is_empty());
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_switches().collect::<Vec<_>>(), [DpId(3)]);
    }

    #[test]
    fn replies_from_unrelated_switch_ignored() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        fence(&mut ex, SimTime(1), DpId(42), &mut xids);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
    }

    #[test]
    fn fence_of_a_finished_switch_changes_nothing() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3], vec![1]]), ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        // a duplicate while the round still waits for s3
        assert!(fence(&mut ex, SimTime(2), DpId(1), &mut xids).is_empty());
        assert_eq!((ex.current_round(), ex.pending_count()), (0, 1));
        fence(&mut ex, SimTime(3), DpId(3), &mut xids);
        fence(&mut ex, SimTime(4), DpId(1), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        // ...and one after the update finished
        assert!(fence(&mut ex, SimTime(5), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.timings[1].completed, Some(SimTime(4)));
    }

    #[test]
    fn retransmit_resends_to_pending_targets_only() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        // s1 fences, s3 does not
        fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        // nothing due: nothing sent, no attempt counted
        assert!(resend(&mut ex, &mut xids, &[]).is_empty());
        assert_eq!(ex.timings[0].attempts, 1);
        // both named: only s3 still owes the round anything
        let re = resend(&mut ex, &mut xids, &[DpId(1), DpId(3)]);
        assert_eq!(re.len(), 2, "its FlowMod and a fresh barrier");
        assert!(re.iter().all(|(dp, _)| *dp == DpId(3)));
        assert_eq!(barriers_of(&re), [DpId(3)]);
        fence(&mut ex, SimTime(12), DpId(3), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        assert_eq!(ex.timings[0].attempts, 2);
    }

    #[test]
    fn force_fail_is_terminal() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        ex.force_fail();
        assert_eq!(ex.state(), ExecState::Failed);
        assert!(resend(&mut ex, &mut xids, &[DpId(1)]).is_empty());
        assert!(fence(&mut ex, SimTime(1), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::Failed);
        assert_eq!(ex.timings[0].completed, None);
    }

    #[test]
    fn grace_wait_dispatches_once_it_is_over() {
        let mut xids = XidAlloc::new();
        let mut u = update(vec![vec![1], vec![2]]);
        u.rounds[1].pre_delay = SimDuration::from_millis(5);
        let mut ex = RoundExecutor::new(u, ExecConfig::default());
        start(&mut ex, SimTime::ZERO, &mut xids);
        assert!(fence(&mut ex, SimTime(1), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::WaitingGrace);
        let due = SimTime(1) + SimDuration::from_millis(5);
        assert_eq!(ex.grace_until(), due);
        assert!(grace_over(&mut ex, SimTime(2), &mut xids).is_empty());
        assert_eq!(barriers_of(&grace_over(&mut ex, due, &mut xids)), [DpId(2)]);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert!(
            grace_over(&mut ex, due, &mut xids).is_empty(),
            "dispatched once"
        );
    }

    #[test]
    fn empty_update_is_immediately_done() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![]), ExecConfig::default());
        assert!(start(&mut ex, SimTime::ZERO, &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn flowmods_precede_barriers_in_dispatch_order() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 1, 3]]), ExecConfig::default());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
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
        // reply without the payload ack leaves the round open — and,
        // having overtaken the echo, sends the payload again at once.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        assert_eq!(e.len(), 1, "each FlowMod pairs with one ack echo");
        let re = fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        assert_eq!(echoes_of(&re).len(), 1, "the overtaken payload is resent");
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_acks(), 1);
        // the payload ack arrives: now the round completes
        echo(&mut ex, SimTime(2), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn stale_xid_is_ignored() {
        // The echo path still matches its xid exactly: the right bytes
        // under an xid this round never sent prove nothing.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        echo(&mut ex, SimTime(2), e[0].0, Xid(9999), &e[0].2, &mut xids);
        assert_eq!(ex.pending_acks(), 1);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        echo(&mut ex, SimTime(3), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        // a duplicate of the genuine reply after completion is ignored
        let out = echo(&mut ex, SimTime(4), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert!(out.is_empty());
        assert_eq!(ex.timings[0].completed, Some(SimTime(3)));
    }

    #[test]
    fn ack_mode_corrupted_echo_payload_is_rejected() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        // an echoed payload with one bit flipped proves nothing
        let mut bad = e[0].2.clone();
        bad[0] ^= 1;
        echo(&mut ex, SimTime(2), e[0].0, e[0].1, &bad, &mut xids);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_acks(), 1);
        // the intact round trip still completes the round
        echo(&mut ex, SimTime(3), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn ack_mode_retransmits_unacked_payloads_without_barrier() {
        // Two FlowMods to one switch; the barrier and one payload are
        // acknowledged. A retransmission must resend only the missing
        // payload — no barrier re-key, no duplicate of the acked one.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        assert_eq!(e.len(), 2);
        fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        echo(&mut ex, SimTime(2), e[0].0, e[0].1, &e[0].2, &mut xids);
        let re = resend(&mut ex, &mut xids, &[DpId(1)]);
        assert!(barriers_of(&re).is_empty(), "acked barrier is not re-sent");
        let re_echo = echoes_of(&re);
        assert_eq!(re_echo.len(), 1, "only the unacked payload is resent");
        assert_eq!(
            re.len(),
            2,
            "exactly one FlowMod + its ack echo retransmitted"
        );
        let (dp, xid, payload) = &re_echo[0];
        echo(&mut ex, SimTime(12), *dp, *xid, payload, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn ack_mode_late_reply_to_old_echo_xid_still_counts() {
        // Retransmissions re-key the echo, but the original payload is
        // identical — a straggling reply to the *first* transmission
        // still proves installation and retires every outstanding copy.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e1 = echoes_of(&cmds);
        let re = resend(&mut ex, &mut xids, &[DpId(1)]);
        assert_eq!(barriers_of(&re), [DpId(1)], "unanswered barrier is re-sent");
        assert_eq!(ex.pending_acks(), 1, "one payload, however often sent");
        let e2 = echoes_of(&re);
        assert!(xids.route(DpId(1), e2[0].1).is_some());
        echo(&mut ex, SimTime(12), e1[0].0, e1[0].1, &e1[0].2, &mut xids);
        assert_eq!(ex.pending_acks(), 0, "old ack retires every copy");
        for xid in [e1[0].1, e2[0].1] {
            assert!(xids.route(DpId(1), xid).is_none(), "{xid:?} retired");
        }
        fence(&mut ex, SimTime(13), DpId(1), &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
    }

    #[test]
    fn a_barrier_reply_resends_exactly_the_overtaken_payload_once() {
        // Two payloads to s1; the first is acknowledged, then the barrier
        // reply overtakes the second's echo: that payload, its echo and
        // one fresh barrier go out again, and the round counts it.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 1]]), ack_cfg());
        let e = echoes_of(&start(&mut ex, SimTime::ZERO, &mut xids));
        echo(&mut ex, SimTime(1), e[0].0, e[0].1, &e[0].2, &mut xids);
        let re = fence(&mut ex, SimTime(2), DpId(1), &mut xids);
        assert_eq!(re.len(), 3, "{re:?}");
        assert!(matches!(re[0].1.msg, OfMessage::FlowMod(_)));
        let resent = echoes_of(&re);
        assert_eq!(resent.len(), 1);
        let covered: Vec<usize> = ex.slots[0].acks.iter().map(|a| a.covered).collect();
        assert_eq!(covered, [1, 1], "the second payload, sent twice");
        assert_eq!(barriers_of(&re), [DpId(1)]);
        assert_eq!((ex.timings[0].attempts, ex.slots[0].timer.attempts), (2, 2));
        assert_eq!(ex.slots[0].timer.latest_sent, SimTime(2));
        // a duplicate of the same reply finds nothing older outstanding
        assert!(fence_of(&mut ex, SimTime(3), DpId(1), 1, &mut xids)
            .unwrap()
            .is_empty());
        assert_eq!(ex.timings[0].attempts, 2);
        echo(
            &mut ex,
            SimTime(4),
            DpId(1),
            resent[0].1,
            &resent[0].2,
            &mut xids,
        );
        assert_eq!(ex.state(), ExecState::Done);
        assert_eq!(ex.timings[0].completed, Some(SimTime(4)));
    }

    #[test]
    fn a_barrier_reply_older_than_the_newest_echo_resends_nothing() {
        // The timer resent the payload (transmission 2) before the reply
        // to the dispatch's barrier came in: that reply says nothing of
        // the newer echo, which may still be on its way.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1]]), ack_cfg());
        start(&mut ex, SimTime::ZERO, &mut xids);
        let re = resend(&mut ex, &mut xids, &[DpId(1)]);
        assert_eq!(echoes_of(&re).len(), 1);
        assert!(fence_of(&mut ex, SimTime(5), DpId(1), 1, &mut xids)
            .unwrap()
            .is_empty());
        assert_eq!(ex.timings[0].attempts, 2);
        assert_eq!(ex.state(), ExecState::AwaitingBarriers);
        assert_eq!(ex.pending_acks(), 1);
    }

    #[test]
    fn a_flowmod_only_slot_completes_on_its_last_ack_and_retires_its_barrier() {
        // Both rounds put s1 at slot 0. Round 0 completes on the echo
        // alone; its barrier's route retires with it, so the late reply
        // cannot reach round 1's slot 0.
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1], vec![1]]), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let (e, b) = (echoes_of(&cmds), cmds.last().unwrap().1.xid);
        assert!(xids.route(DpId(1), b).is_some());
        let next = echo(&mut ex, SimTime(1), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!((ex.current_round(), ex.slot_of(DpId(1))), (1, Some(0)));
        assert_eq!(ex.timings[0].completed, Some(SimTime(1)));
        assert_eq!(barriers_of(&next), [DpId(1)], "round 1 dispatched");
        assert!(
            xids.route(DpId(1), b).is_none(),
            "round 0's barrier retired"
        );
        assert_eq!(ex.pending_count(), 1);
    }

    #[test]
    fn a_slot_with_a_message_no_echo_proves_still_waits_for_its_barrier() {
        let mut u = update(vec![vec![1]]);
        let packet_out = OfMessage::PacketOut {
            buffer_id: u32::MAX,
            out_port: sdn_types::PortNo(1),
            data: vec![0; 4],
        };
        u.rounds[0].msgs.push((DpId(1), packet_out));
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(u.clone(), ack_cfg());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        let e = echoes_of(&cmds);
        assert_eq!(e.len(), 1, "only the FlowMod is echoed");
        echo(&mut ex, SimTime(1), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(
            (ex.state(), ex.pending_acks()),
            (ExecState::AwaitingBarriers, 0)
        );
        assert!(fence(&mut ex, SimTime(2), DpId(1), &mut xids).is_empty());
        assert_eq!(ex.state(), ExecState::Done);

        // the other order: the barrier reply fences the PacketOut and
        // resends the overtaken FlowMod behind a fresh barrier, whose
        // route retires when the resent payload's ack completes the slot
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(u, ack_cfg());
        start(&mut ex, SimTime::ZERO, &mut xids);
        let re = fence(&mut ex, SimTime(1), DpId(1), &mut xids);
        let (e, b) = (echoes_of(&re), re.last().unwrap().1.xid);
        assert_eq!((e.len(), barriers_of(&re).len(), re.len()), (1, 1, 3));
        assert!(xids.route(DpId(1), b).is_some());
        echo(&mut ex, SimTime(2), e[0].0, e[0].1, &e[0].2, &mut xids);
        assert_eq!(ex.state(), ExecState::Done);
        assert!(
            xids.route(DpId(1), b).is_none(),
            "no route outlives its slot"
        );
    }

    #[test]
    fn acks_off_sends_no_echoes() {
        let mut xids = XidAlloc::new();
        let mut ex = RoundExecutor::new(update(vec![vec![1, 3]]), ExecConfig::default());
        let cmds = start(&mut ex, SimTime::ZERO, &mut xids);
        assert!(echoes_of(&cmds).is_empty());
        assert_eq!(ex.pending_acks(), 0);
    }
}
