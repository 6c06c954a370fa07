//! Bounded admission with explicit shedding policies.
//!
//! The paper's controller queues updates without limit (and
//! [`RuntimeConfig::serial`](super::RuntimeConfig::serial) reproduces
//! that with an unreachable capacity) — under heavy offered load that
//! is an unbounded-memory denial of service and an unbounded-latency
//! guarantee for every request behind the backlog. By default the
//! runtime instead admits through a bounded two-lane queue
//! ([`AdmissionQueue`]) whose behaviour when full is an explicit
//! [`AdmissionPolicy`]:
//!
//! * **reject-new** — the arriving job is refused (the REST layer
//!   answers `503`-style backpressure; the client retries with its own
//!   policy);
//! * **drop-oldest** — the oldest *lowest-priority* waiting job is
//!   shed to make room, so fresh intent wins over stale intent.
//!
//! Two priority lanes exist in either policy: `High` jobs (e.g.
//! security-critical waypoint changes) dispatch before `Normal` ones
//! and are shed last.

use std::collections::VecDeque;
use std::fmt;

use sdn_types::SimTime;

use crate::compile::CompiledUpdate;
use crate::runtime::conflict::{ConflictGraph, Footprint, JobId};
use crate::runtime::submit::TenantId;

/// What the queue does when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse the arriving job (backpressure to the client).
    #[default]
    RejectNew,
    /// Shed the oldest waiting job of the lowest populated priority
    /// lane to make room; refuse only when the arrival itself is the
    /// lowest priority and every queued job outranks it.
    DropOldest,
}

/// Dispatch priority lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Default lane.
    #[default]
    Normal,
    /// Served first, shed last.
    High,
}

/// Why a submission was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue is at capacity (reject-new, or drop-oldest with no
    /// lower-priority job to shed).
    QueueFull,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("queue full"),
        }
    }
}

/// Outcome of a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Queued (and will start once its conflict set clears).
    Queued {
        /// The id assigned to the job.
        id: JobId,
    },
    /// Queued after shedding an older waiting job (drop-oldest).
    QueuedDisplacing {
        /// The id assigned to the job.
        id: JobId,
        /// The shed job's id and label.
        dropped: (JobId, String),
    },
    /// Refused.
    Rejected(RejectReason),
}

impl AdmitOutcome {
    /// The assigned job id, when the job was accepted.
    pub fn id(&self) -> Option<JobId> {
        match self {
            AdmitOutcome::Queued { id } | AdmitOutcome::QueuedDisplacing { id, .. } => Some(*id),
            AdmitOutcome::Rejected(_) => None,
        }
    }

    /// Whether the job entered the queue.
    pub fn accepted(&self) -> bool {
        self.id().is_some()
    }
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
    policy: AdmissionPolicy,
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` waiting jobs.
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        AdmissionQueue {
            capacity,
            policy,
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

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a job. `id` is pre-allocated by the runtime so rejected
    /// submissions burn an id but never alias an accepted one.
    pub fn offer(&mut self, job: QueuedJob) -> AdmitOutcome {
        let id = job.id;
        if self.len() >= self.capacity {
            match self.policy {
                AdmissionPolicy::RejectNew => {
                    return AdmitOutcome::Rejected(RejectReason::QueueFull)
                }
                AdmissionPolicy::DropOldest => {
                    // Shed from the normal lane first; a Normal arrival
                    // may not displace waiting High jobs.
                    let victim = if let Some(v) = self.normal.pop_front() {
                        Some(v)
                    } else if job.priority == Priority::High {
                        self.high.pop_front()
                    } else {
                        None
                    };
                    match victim {
                        Some(v) => {
                            self.lane(job.priority).push_back(job);
                            return AdmitOutcome::QueuedDisplacing {
                                id,
                                dropped: (v.id, v.update.label),
                            };
                        }
                        None => return AdmitOutcome::Rejected(RejectReason::QueueFull),
                    }
                }
            }
        }
        self.lane(job.priority).push_back(job);
        AdmitOutcome::Queued { id }
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
        let mut q = AdmissionQueue::new(2, AdmissionPolicy::RejectNew);
        assert!(q.offer(job(1, Priority::Normal)).accepted());
        assert!(q.offer(job(2, Priority::Normal)).accepted());
        assert_eq!(
            q.offer(job(3, Priority::Normal)),
            AdmitOutcome::Rejected(RejectReason::QueueFull)
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_oldest_sheds_normal_first() {
        let mut q = AdmissionQueue::new(2, AdmissionPolicy::DropOldest);
        q.offer(job(1, Priority::Normal));
        q.offer(job(2, Priority::High));
        let out = q.offer(job(3, Priority::Normal));
        match out {
            AdmitOutcome::QueuedDisplacing { id, dropped } => {
                assert_eq!(id, JobId(3));
                assert_eq!(dropped.0, JobId(1));
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn normal_cannot_displace_high() {
        let mut q = AdmissionQueue::new(1, AdmissionPolicy::DropOldest);
        q.offer(job(1, Priority::High));
        assert_eq!(
            q.offer(job(2, Priority::Normal)),
            AdmitOutcome::Rejected(RejectReason::QueueFull)
        );
        // but High displaces High when only High remain
        let out = q.offer(job(3, Priority::High));
        assert!(matches!(out, AdmitOutcome::QueuedDisplacing { .. }));
    }

    #[test]
    fn high_lane_dispatches_first() {
        let mut q = AdmissionQueue::new(4, AdmissionPolicy::RejectNew);
        q.offer(job(1, Priority::Normal));
        q.offer(job(2, Priority::High));
        let g = ConflictGraph::new();
        assert_eq!(q.pop_dispatchable(&g).unwrap().id, JobId(2));
        assert_eq!(q.pop_dispatchable(&g).unwrap().id, JobId(1));
        assert!(q.pop_dispatchable(&g).is_none());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = AdmissionQueue::new(0, AdmissionPolicy::DropOldest);
        assert!(!q.offer(job(1, Priority::High)).accepted());
    }
}
