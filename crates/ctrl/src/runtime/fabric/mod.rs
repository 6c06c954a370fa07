//! The sharded multi-tenant controller fabric.
//!
//! One [`ConcurrentRuntime`](crate::runtime::ConcurrentRuntime) scales
//! until its single admission queue, conflict graph, and journal become
//! the bottleneck. The fabric partitions the switch space into
//! **shards** — each shard owns a full runtime (conflict graph,
//! two-lane admission queue, RTO table, write-ahead journal) — behind
//! one [`FabricCoordinator`] implementing the same
//! [`RuntimeHandle`](crate::runtime::RuntimeHandle) trait, so the
//! simulator and experiments swap it in with a constructor argument.
//!
//! * Updates whose footprint stays inside one shard route **directly**
//!   to that shard's runtime — no cross-shard coordination, which is
//!   where the throughput scaling comes from (shards admit and execute
//!   independently, bounded only by their own `max_active`).
//! * Updates spanning shards run a **two-phase protocol**: *prepare*
//!   reserves the per-shard slice of the footprint in every involved
//!   shard's conflict graph (all-or-nothing; a refused slice releases
//!   everything already taken), then *commit* hands the whole update
//!   to a coordinator-owned runtime that executes it with global round
//!   fencing. Abort — refused prepare, expired deadline, crash caught
//!   between prepare and commit — releases every reservation.
//! * Per-tenant budgets ([`TenantPolicy`]) gate admission fabric-wide
//!   before any shard is consulted; the REST layer surfaces a
//!   [`SubmitError::QuotaExceeded`](crate::runtime::SubmitError) as a
//!   structured `429`.
//! * The switch → shard map
//!   ([`ShardAssignment`](update_core::partition::ShardAssignment)) is
//!   fixed when the fabric is built, so a switch's shadow table, RTO
//!   estimator and quarantine record stay with one shard for the
//!   fabric's lifetime.
//!
//! Identifier spaces are carved statically so that a value alone names
//! its owner — nothing to translate, nothing to lose in a crash: shard
//! `i` allocates xids from `[(i+1) << 24, (i+2) << 24)`, wrapping
//! inside that range, and job ids from `(i+1) << 32`; the coordinator
//! runtime allocates xids from `0xF000_0000` up and job ids from
//! `1 << 57`; fabric tickets for cross-shard updates start at
//! `1 << 56`; reservations use `(1 << 62) | ticket`.

pub mod coordinator;
pub mod tenant;

pub use coordinator::{FabricConfig, FabricCoordinator};
pub use tenant::TenantPolicy;

use std::fmt;

/// A shard of the fabric (an index into its runtime vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}
