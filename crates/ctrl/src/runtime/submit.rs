//! The redesigned submission surface: one request, one ticket.
//!
//! The runtime API accreted piecemeal — `submit(update, now, priority)`
//! here, tenant and deadline concerns nowhere, and every new dimension
//! threatening another positional parameter. [`SubmitRequest`] folds
//! the whole submission intent into one builder-style value; the
//! runtime answers with a [`SubmitTicket`] (accepted) or a typed
//! [`SubmitError`] (refused), so callers match on *why* instead of
//! decoding status-code-shaped enums.
//!
//! Tenancy is a first-class field: a [`TenantId`] rides the request
//! through admission into the fabric, whose per-tenant in-flight
//! budgets ([`TenantPolicy`](super::fabric::TenantPolicy)) are the
//! only ones (surfaced as HTTP 429 by the REST layer), and into the
//! status accounting. A full queue is [`SubmitError::QueueFull`]; an
//! accepted job is never dropped.

use std::fmt;

use sdn_types::SimTime;

use crate::compile::CompiledUpdate;
use crate::runtime::admission::Priority;
use crate::runtime::conflict::JobId;

/// A tenant: the isolation unit for admission quotas. Tenant `0` is
/// the default for callers that predate multi-tenancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Everything a caller says when offering an update: the compiled
/// update plus tenant, priority lane, and an optional deadline.
/// Built fluently:
///
/// ```ignore
/// let req = SubmitRequest::new(update)
///     .tenant(TenantId(3))
///     .high_priority()
///     .deadline(now + SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// The compiled update to execute.
    pub update: CompiledUpdate,
    /// The submitting tenant (budget accounting).
    pub tenant: TenantId,
    /// Admission lane.
    pub priority: Priority,
    /// Latest useful launch time. A job still waiting past this
    /// instant fails with
    /// [`FailReason::DeadlineExpired`](crate::controller::FailReason)
    /// instead of dispatching stale intent.
    pub deadline: Option<SimTime>,
}

impl SubmitRequest {
    /// A request with default tenant, normal priority, no deadline.
    pub fn new(update: CompiledUpdate) -> Self {
        SubmitRequest {
            update,
            tenant: TenantId::default(),
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Attribute the request to `tenant`.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Select an admission lane.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Shortcut for the high-priority lane.
    pub fn high_priority(self) -> Self {
        self.priority(Priority::High)
    }

    /// Set the latest useful launch time.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Proof of admission: the job's identity and where it landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitTicket {
    /// The id the runtime will report completion under.
    pub job: JobId,
    /// The shard that owns the job, when a fabric routed it;
    /// `None` for single-runtime controllers and for cross-shard
    /// jobs (which the coordinator owns).
    pub shard: Option<u32>,
    /// Queue depth observed right after admission (the caller's
    /// congestion signal).
    pub queued: usize,
    /// Whether the update spans shards and runs under the fabric's
    /// two-phase protocol.
    pub cross_shard: bool,
}

impl SubmitTicket {
    /// A ticket for a single-runtime admission.
    pub fn local(job: JobId, queued: usize) -> Self {
        SubmitTicket {
            job,
            shard: None,
            queued,
            cross_shard: false,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; retrying later is sound.
    QueueFull,
    /// The tenant's in-flight budget is spent (HTTP 429 upstream).
    QuotaExceeded {
        /// The over-budget tenant.
        tenant: TenantId,
        /// Its configured budget.
        limit: u32,
        /// Jobs it already has queued or executing.
        in_flight: u32,
    },
    /// The deadline had already passed at submission time.
    DeadlineExpired,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("queue full"),
            SubmitError::QuotaExceeded {
                tenant,
                limit,
                in_flight,
            } => write!(f, "{tenant} over quota ({in_flight}/{limit} in flight)"),
            SubmitError::DeadlineExpired => f.write_str("deadline already expired"),
        }
    }
}

/// What a submission comes back as.
pub type SubmitOutcome = Result<SubmitTicket, SubmitError>;

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::SimDuration;

    fn update() -> CompiledUpdate {
        CompiledUpdate {
            label: "u".into(),
            rounds: vec![],
        }
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let r = SubmitRequest::new(update());
        assert_eq!(r.tenant, TenantId(0));
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline, None);
        let d = SimTime(0) + SimDuration::from_secs(1);
        let r = SubmitRequest::new(update())
            .tenant(TenantId(7))
            .high_priority()
            .deadline(d);
        assert_eq!(r.tenant, TenantId(7));
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline, Some(d));
    }

    #[test]
    fn errors_render_for_operators() {
        let e = SubmitError::QuotaExceeded {
            tenant: TenantId(3),
            limit: 2,
            in_flight: 2,
        };
        assert_eq!(e.to_string(), "tenant3 over quota (2/2 in flight)");
        assert_eq!(SubmitError::QueueFull.to_string(), "queue full");
    }
}
