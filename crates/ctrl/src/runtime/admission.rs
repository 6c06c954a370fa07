//! Bounded admission: a two-lane queue that refuses when full.
//!
//! The paper's controller queues updates without limit (and
//! [`RuntimeConfig::serial`](super::RuntimeConfig::serial) reproduces
//! that with an unreachable capacity) — under heavy offered load that
//! is an unbounded-memory denial of service and an unbounded-latency
//! guarantee for every request behind the backlog. By default the
//! runtime instead admits through a bounded queue ([`AdmissionQueue`]).
//! A job that arrives at a full queue is refused; the runtime reports
//! [`SubmitError::QueueFull`](super::SubmitError::QueueFull), which the
//! REST layer answers with `503` backpressure, and the client retries
//! with its own policy. An accepted job is never dropped: it runs.
//!
//! Two priority lanes exist: `High` jobs (e.g. security-critical
//! waypoint changes) dispatch before `Normal` ones.

use std::collections::VecDeque;

use sdn_types::SimTime;

use crate::compile::CompiledUpdate;
use crate::runtime::conflict::{ConflictGraph, Footprint, JobId};
use crate::runtime::submit::TenantId;

/// Dispatch priority lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Default lane.
    #[default]
    Normal,
    /// Served first.
    High,
}

/// A job waiting for dispatch.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Runtime-assigned id.
    pub id: JobId,
    /// The compiled update.
    pub update: CompiledUpdate,
    /// Its precomputed footprint.
    pub footprint: Footprint,
    /// Submission time (queue wait counts toward completion latency).
    pub submitted: SimTime,
    /// Dispatch lane.
    pub priority: Priority,
    /// The submitting tenant (quota accounting).
    pub tenant: TenantId,
    /// Latest useful launch time; a job still waiting past it fails
    /// fast instead of dispatching stale intent.
    pub deadline: Option<SimTime>,
    /// First round to execute. 0 for fresh jobs; crash recovery
    /// re-queues in-flight jobs with the round after their last
    /// journalled commit, so launch skips the fenced prefix.
    pub resume_round: usize,
}

/// The bounded two-lane admission queue.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity,
            high: VecDeque::new(),
            normal: VecDeque::new(),
        }
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Whether no job waits.
    pub fn is_empty(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }

    /// Offer a job; returns whether it was queued. A full queue
    /// refuses it. `id` is pre-allocated by the runtime so refused
    /// submissions burn an id but never alias an accepted one.
    pub fn offer(&mut self, job: QueuedJob) -> bool {
        if self.len() >= self.capacity {
            return false;
        }
        self.lane(job.priority).push_back(job);
        true
    }

    fn lane(&mut self, p: Priority) -> &mut VecDeque<QueuedJob> {
        match p {
            Priority::High => &mut self.high,
            Priority::Normal => &mut self.normal,
        }
    }

    /// Take the next dispatchable job: the first (High lane first,
    /// FIFO within a lane) whose footprint conflicts neither with the
    /// active set nor with any *earlier* waiting job. The second
    /// condition keeps dispatch starvation-free: a blocked job reserves
    /// its conflict set, so a stream of later disjoint-to-active but
    /// conflicting-to-it arrivals cannot overtake it forever.
    pub fn pop_dispatchable(&mut self, active: &ConflictGraph) -> Option<QueuedJob> {
        let pick = {
            let mut reserved: Vec<&Footprint> = Vec::new();
            let mut pick: Option<(Priority, usize)> = None;
            'scan: for (lane_p, lane) in [
                (Priority::High, &self.high),
                (Priority::Normal, &self.normal),
            ] {
                for (i, job) in lane.iter().enumerate() {
                    let blocked_by_waiting = reserved.iter().any(|fp| job.footprint.conflicts(fp));
                    if !blocked_by_waiting && active.admits(&job.footprint) {
                        pick = Some((lane_p, i));
                        break 'scan;
                    }
                    reserved.push(&job.footprint);
                }
            }
            pick
        };
        let (lane_p, i) = pick?;
        self.lane(lane_p).remove(i)
    }

    /// Iterate waiting jobs (diagnostics), High lane first.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.high.iter().chain(self.normal.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, priority: Priority) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            update: CompiledUpdate {
                label: format!("u{id}"),
                rounds: vec![],
            },
            footprint: Footprint::default(),
            submitted: SimTime::ZERO,
            priority,
            tenant: TenantId(0),
            deadline: None,
            resume_round: 0,
        }
    }

    #[test]
    fn reject_new_when_full() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.offer(job(1, Priority::Normal)));
        assert!(q.offer(job(2, Priority::Normal)));
        assert!(!q.offer(job(3, Priority::Normal)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn high_lane_dispatches_first() {
        let mut q = AdmissionQueue::new(4);
        q.offer(job(1, Priority::Normal));
        q.offer(job(2, Priority::High));
        let g = ConflictGraph::new();
        assert_eq!(q.pop_dispatchable(&g).unwrap().id, JobId(2));
        assert_eq!(q.pop_dispatchable(&g).unwrap().id, JobId(1));
        assert!(q.pop_dispatchable(&g).is_none());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = AdmissionQueue::new(0);
        assert!(!q.offer(job(1, Priority::High)));
    }
}
