//! # update-core
//!
//! The paper's primary contribution: **transiently consistent,
//! round-based network-update scheduling** for asynchronous SDNs.
//!
//! An SDN controller cannot assume its FlowMod commands take effect in
//! order — the control channel is asynchronous. The demo paper (Shukla
//! et al., SIGCOMM'16) shows how to update a routing policy *in rounds*
//! such that **every** intermediate combination of applied/not-applied
//! updates within a round is consistent, and rounds are separated by
//! OpenFlow barriers. This crate implements:
//!
//! * the two-path update **model** ([`model`]): old route, new route,
//!   optional waypoint; per-switch old/new rules;
//! * **schedules** ([`schedule`]): rounds of rule operations, both
//!   plain rule replacement and tag-based two-phase commit;
//! * transient **configuration semantics** ([`config`]): which packets
//!   go where for any subset of applied operations, including version
//!   tags;
//! * the consistency **properties** ([`properties`]): blackhole
//!   freedom, relaxed ("weak") and strong loop freedom, and waypoint
//!   enforcement — the "transient security" of the title;
//! * an exact, polynomial **checker** ([`checker`]) that verifies a
//!   schedule against every transient state a round can expose, with
//!   brute force as its test reference;
//! * the **schedulers** ([`algorithms`]): [`algorithms::WayUp`]
//!   (waypoint enforcement, HotNets'14), [`algorithms::Peacock`]
//!   (relaxed loop freedom, PODC'15), the strong-loop-freedom greedy
//!   baseline, the naive one-shot update, and the Reitblatt-style
//!   tag-based two-phase commit;
//! * an analysis-oriented **contraction** ([`contract`]) to the
//!   positions-on-the-old-path form used by the PODC model.
//!
//! See `DESIGN.md` at the workspace root for the reconstruction notes
//! and the mapping from paper claims to experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod checker;
pub mod config;
pub mod contract;
pub mod metrics;
pub mod model;
pub mod partition;
pub mod properties;
pub mod schedule;

pub use algorithms::{OneShot, Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp};
pub use checker::{verify_schedule, CheckReport, Violation};
pub use model::{InstanceError, NodeRole, UpdateInstance};
pub use partition::ShardAssignment;
pub use properties::{Property, PropertySet};
pub use schedule::{Round, RuleOp, Schedule, ScheduleKind};
