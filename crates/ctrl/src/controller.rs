//! What a controller core hands back: transport commands and
//! completion reports.
//!
//! From the paper: *"create a message queue at the SDN controller side
//! to enqueue the REST messages in a message queue for each round of
//! network update... If the SDN controller starts to process a message,
//! it begins with the first round... If the message object does not
//! have a next round, the SDN controller deletes the message from the
//! queue and starts processing the next message."*
//!
//! That one-at-a-time queue is not a type of its own: it is
//! [`RuntimeConfig::serial`](crate::runtime::RuntimeConfig::serial), the
//! runtime with one execution slot. The tests below hold that
//! configuration to the paper's wording.

use sdn_openflow::messages::Envelope;
use sdn_types::{DpId, SimDuration, SimTime};

use crate::executor::RoundTiming;

/// A command the controller wants carried out by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlOutput {
    /// Send a message to a switch.
    Send(DpId, Envelope),
}

/// Why an update failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// This switch exhausted its transmission budget.
    Exhausted(DpId),
    /// The update touched a quarantined switch — refused (or aborted)
    /// rather than burning a retransmission budget against a switch
    /// already known dead.
    Quarantined(DpId),
    /// The submission's deadline passed before the job could launch;
    /// dispatching a stale intent would churn the network for nothing.
    DeadlineExpired,
}

/// Completion record of one update job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// Job label.
    pub label: String,
    /// When the job was submitted (queue wait = `started - submitted`).
    pub submitted: SimTime,
    /// When the first round was dispatched.
    pub started: SimTime,
    /// When the last barrier reply arrived (`None` = failed).
    pub completed: Option<SimTime>,
    /// Why the job failed; `None` for completed jobs (and for jobs
    /// recovered from a journal, which does not persist reasons).
    pub failure: Option<FailReason>,
    /// Per-round timings.
    pub rounds: Vec<RoundTiming>,
}

impl UpdateReport {
    /// Total update time (dispatch of round 1 → last barrier reply).
    pub fn duration(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.saturating_since(self.started))
    }

    /// End-to-end latency including queueing (submission → last
    /// barrier reply) — the number concurrency experiments report.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.saturating_since(self.submitted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledUpdate;
    use crate::executor::ExecConfig;
    use crate::runtime::{ConcurrentRuntime, Priority, RuntimeConfig, RuntimeHandle};
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
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

    fn job(label: &str, rounds: Vec<Vec<u64>>) -> CompiledUpdate {
        CompiledUpdate {
            label: label.into(),
            rounds: rounds
                .into_iter()
                .map(|dps| crate::compile::CompiledRound {
                    msgs: dps.into_iter().map(|d| (DpId(d), flowmod())).collect(),
                    pre_delay: sdn_types::SimDuration::ZERO,
                })
                .collect(),
        }
    }

    fn serial(exec: ExecConfig) -> ConcurrentRuntime {
        ConcurrentRuntime::new(RuntimeConfig::serial(exec))
    }

    fn enqueue(ctrl: &mut ConcurrentRuntime, update: CompiledUpdate) {
        ctrl.submit(update, SimTime::ZERO, Priority::Normal)
            .expect("the serial queue never refuses");
    }

    fn ack_all(ctrl: &mut ConcurrentRuntime, now: SimTime, cmds: &[CtrlOutput]) -> Vec<CtrlOutput> {
        let mut follow = Vec::new();
        for c in cmds {
            let CtrlOutput::Send(dp, env) = c;
            if env.msg == OfMessage::BarrierRequest {
                follow.extend(ctrl.on_message(
                    now,
                    *dp,
                    &Envelope::new(env.xid, OfMessage::BarrierReply),
                ));
            }
        }
        follow
    }

    #[test]
    fn queue_processed_in_order() {
        let mut ctrl = serial(ExecConfig::default());
        // same switch or not, same flow or not: one at a time
        enqueue(&mut ctrl, job("first", vec![vec![1]]));
        enqueue(&mut ctrl, job("second", vec![vec![2]]));
        assert_eq!(ctrl.queued(), 2);

        let cmds = ctrl.poll(SimTime(0));
        assert!(!cmds.is_empty());
        assert_eq!((ctrl.queued(), ctrl.active_count()), (1, 1));
        // the reply that finishes job 1 "starts processing the next
        // message": job 2's round goes out in the same call
        let cmds2 = ack_all(&mut ctrl, SimTime(1), &cmds);
        assert_eq!(ctrl.reports().len(), 1);
        assert_eq!(ctrl.reports()[0].label, "first");
        assert!(cmds2.iter().all(|CtrlOutput::Send(dp, _)| *dp == DpId(2)));
        assert_eq!((ctrl.queued(), ctrl.active_count()), (0, 1));

        ack_all(&mut ctrl, SimTime(3), &cmds2);
        assert_eq!(ctrl.reports().len(), 2);
        assert_eq!(ctrl.reports()[1].started, SimTime(1));
        assert!(ctrl.is_idle());
        assert_eq!(ctrl.stats().peak_active, 1);
    }

    #[test]
    fn multi_round_jobs_chain_rounds() {
        let mut ctrl = serial(ExecConfig::default());
        enqueue(&mut ctrl, job("j", vec![vec![1], vec![2], vec![3]]));
        let mut cmds = ctrl.poll(SimTime(0));
        let mut hops = 0;
        while !cmds.is_empty() && hops < 5 {
            cmds = ack_all(&mut ctrl, SimTime(hops + 1), &cmds);
            hops += 1;
        }
        assert_eq!(ctrl.reports().len(), 1);
        let r = &ctrl.reports()[0];
        assert_eq!(r.rounds.len(), 3);
        assert!(r.duration().is_some());
    }

    #[test]
    fn failed_job_reports_none_completed() {
        let mut ctrl = serial(ExecConfig {
            barrier_timeout: SimDuration::from_millis(1),
            max_attempts: 1,
            flowmod_acks: false,
        });
        enqueue(&mut ctrl, job("doomed", vec![vec![1]]));
        ctrl.poll(SimTime(0));
        // no replies ever; tick past the deadline
        ctrl.poll(SimTime(0) + SimDuration::from_millis(10));
        assert_eq!(ctrl.reports().len(), 1);
        assert_eq!(ctrl.reports()[0].completed, None);
        assert_eq!(
            ctrl.reports()[0].failure,
            Some(FailReason::Exhausted(DpId(1)))
        );
        assert!(ctrl.is_idle());
        // no quarantine in the serial configuration: the next job for
        // the same switch is dispatched, not failed fast
        enqueue(&mut ctrl, job("next", vec![vec![1]]));
        assert!(!ctrl
            .poll(SimTime(0) + SimDuration::from_millis(11))
            .is_empty());
    }

    #[test]
    fn empty_job_completes_without_traffic() {
        let mut ctrl = serial(ExecConfig::default());
        enqueue(&mut ctrl, job("noop", vec![]));
        let cmds = ctrl.poll(SimTime(7));
        assert!(cmds.is_empty());
        assert_eq!(ctrl.reports().len(), 1);
        assert_eq!(ctrl.reports()[0].completed, Some(SimTime(7)));
    }

    #[test]
    fn messages_while_idle_are_ignored() {
        let mut ctrl = serial(ExecConfig::default());
        let out = ctrl.on_message(
            SimTime(0),
            DpId(1),
            &Envelope::new(sdn_types::Xid(5), OfMessage::BarrierReply),
        );
        assert!(out.is_empty());
    }
}
