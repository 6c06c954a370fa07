//! Retransmission timers, one per (job, switch) slot of a round in
//! flight, and the index that lets `poll` visit only the jobs one of
//! whose timers can be due.
//!
//! A slot's deadline is `latest_sent + rto.backoff(dp, attempts)`
//! against the switch's *current* estimate, so deadlines cannot be
//! heaped. A job is filed under a **bound** instead: the minimum over
//! its pending slots of `latest_sent + floor(attempts)`, `floor` being
//! the backoff of the smallest RTO the table can return
//! (`min(RtoConfig::min, initial)`), or `barrier_timeout` exactly under
//! [`RetransMode::Fixed`]. However the estimates move no timer is due
//! before the bound, so a job `poll` skips would have fired nothing.

use std::collections::BTreeSet;

use sdn_types::{DpId, SimDuration, SimTime};

use crate::executor::{ExecState, RoundExecutor};
use crate::runtime::conflict::JobId;
use crate::runtime::dispatch::{RetransMode, RuntimeConfig};
use crate::runtime::rto::{self, RtoConfig, RtoTable};
use crate::runtime::RuntimeStats;

/// The retransmission timer of one (job, switch) slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotTimer {
    /// When the newest transmission went out (timer base).
    pub(crate) latest_sent: SimTime,
    /// Transmissions so far (1 = no retransmissions).
    pub(crate) attempts: u32,
    /// Flagged slow while the rest of its round had acknowledged.
    pub(crate) straggler: bool,
    /// Fired by the last walk: the executor's `retransmit` resends it.
    pub(crate) due: bool,
}

/// What `poll` and `reap` have to look at: a job is filed here iff it is
/// in `WaitingGrace` or has a round in flight, until it is reaped.
#[derive(Debug, Clone, Default)]
pub(crate) struct WakeIndex {
    config: RuntimeConfig,
    /// (expiry, job) of every job in `WaitingGrace`; the expiry is
    /// fixed when the wait begins, so deadline order is exact.
    pub(crate) grace: BTreeSet<(SimTime, JobId)>,
    /// (bound, job) of every job with a round in flight.
    pub(crate) timers: BTreeSet<(SimTime, JobId)>,
    /// Jobs that turned `Done`/`Failed` since the last reap.
    pub(crate) finished: Vec<JobId>,
    /// The jobs one `poll` wakes, emptied.
    pub(crate) woken: Vec<JobId>,
}

impl WakeIndex {
    pub(crate) fn new(config: RuntimeConfig) -> Self {
        let index = WakeIndex::default();
        WakeIndex { config, ..index }
    }

    /// File `id` where its executor's state says it belongs; `filed` is
    /// its key in `timers`. Called after every change of the executor's
    /// state or round. A bound that is still a lower bound stays.
    pub(crate) fn file(&mut self, id: JobId, ex: &RoundExecutor, filed: &mut Option<SimTime>) {
        let bound = (ex.state() == ExecState::AwaitingBarriers).then(|| self.bound(ex));
        if filed.is_some_and(|b| bound.is_some_and(|n| b <= n)) {
            return;
        }
        if let Some(b) = std::mem::replace(filed, bound) {
            self.timers.remove(&(b, id));
        }
        match ex.state() {
            ExecState::AwaitingBarriers => self.timers.extend(bound.map(|b| (b, id))),
            ExecState::WaitingGrace => self.grace.extend([(ex.grace_until(), id)]),
            ExecState::Done | ExecState::Failed => self.finished.push(id),
            ExecState::Idle => {}
        }
    }

    /// Unfile and return, in ascending id, every job whose grace ended
    /// or whose bound passed by `now` (each must be re-filed; hand the
    /// list back through `woken`, which keeps its capacity).
    pub(crate) fn wake(&mut self, now: SimTime) -> Vec<JobId> {
        let mut woken = std::mem::take(&mut self.woken);
        for set in [&mut self.grace, &mut self.timers] {
            while set.first().is_some_and(|&(at, _)| at <= now) {
                woken.extend(set.pop_first().map(|(_, id)| id));
            }
        }
        woken.sort_unstable();
        woken
    }

    fn floor(&self, attempts: u32) -> SimDuration {
        match self.config.retrans {
            RetransMode::Fixed => self.config.exec.barrier_timeout,
            RetransMode::Adaptive(c) => rto::backoff(c.min.min(c.initial), attempts, c.max),
        }
    }

    fn bound(&self, ex: &RoundExecutor) -> SimTime {
        ex.slots
            .iter()
            .filter(|s| !s.done)
            .map(|s| s.timer.latest_sent + self.floor(s.timer.attempts))
            .min()
            .unwrap_or(SimTime(u64::MAX))
    }

    /// The exact walk over the pending slots of a job with a round in
    /// flight, in ascending dpid: `Err(dp)` when a due switch's budget
    /// is spent, else whether it marked any slot for retransmission.
    pub(crate) fn fire(
        &self,
        ex: &mut RoundExecutor,
        rto: &RtoTable,
        now: SimTime,
        stats: &mut RuntimeStats,
    ) -> Result<bool, DpId> {
        let (width, pending) = (ex.current_round_width(), ex.pending_count());
        let stragglers_at = match self.config.retrans {
            RetransMode::Adaptive(c) => c.straggler_attempts,
            RetransMode::Fixed => RtoConfig::default().straggler_attempts,
        };
        let mut due = false;
        for s in ex.slots.iter_mut().filter(|s| !s.done) {
            let t = &mut s.timer;
            if now < t.latest_sent + self.floor(t.attempts) {
                continue;
            }
            if let RetransMode::Adaptive(_) = self.config.retrans {
                if now < t.latest_sent + rto.backoff(s.dp, t.attempts) {
                    continue;
                }
            }
            if t.attempts >= self.config.exec.max_attempts {
                return Err(s.dp);
            }
            if !t.straggler && t.attempts + 1 >= stragglers_at && pending * 2 <= width {
                t.straggler = true;
                stats.stragglers += 1;
            }
            t.due = true;
            due = true;
            stats.retransmissions += 1;
        }
        Ok(due)
    }
}
