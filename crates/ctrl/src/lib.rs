//! # sdn-ctrl
//!
//! The SDN controller of the reproduction — the Rust counterpart of the
//! demo's Ryu app `ofctl_rest_own.py` (§2 of the paper):
//!
//! * [`rest`] — the demo's REST/JSON update-request format
//!   (`"oldpath"`, `"newpath"`, `"wp"`, `"interval"`), parsed by a
//!   small hand-rolled JSON parser (no external JSON dependency);
//! * [`compile`] — turns an abstract round [`Schedule`] into concrete
//!   per-round FlowMods against a topology (ports, priorities,
//!   version-tag rules for two-phase commit);
//! * [`executor`] — the round state machine, clock-free: dispatch the
//!   FlowMods of the current round, send barrier requests, take note
//!   of which switches fenced, advance; resend to the switches the
//!   runtime names ("the barrier messages are utilized to ensure
//!   reliable network updates");
//! * [`runtime`] — the one controller core: conflict-aware admission
//!   over a bounded queue, many executors in flight at once, the
//!   per-switch timers (fixed, or adaptive EWMA RTT + variance) that
//!   are the only retransmission engine, the xid-indexed route table
//!   that is the only reply matcher, and a write-ahead journal
//!   for crash recovery. The paper's message queue of update jobs,
//!   "processed one at a time", is its [`RuntimeConfig::serial`]
//!   configuration; its [`runtime::fabric`] submodule shards switches
//!   across runtimes behind one [`FabricCoordinator`] with a
//!   two-phase protocol for cross-shard updates and per-tenant
//!   admission quotas;
//! * [`controller`] — what every core hands back: transport commands
//!   ([`CtrlOutput`]) and completion reports ([`UpdateReport`]);
//! * [`resync`] — controller-side switch resynchronization: shadow
//!   flow tables plus the digest-probe audit that replays exactly the
//!   rules a reconnected switch is missing.
//!
//! [`Schedule`]: update_core::schedule::Schedule

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod controller;
pub mod executor;
pub mod rest;
pub mod resync;
pub mod runtime;

pub use compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
pub use controller::{CtrlOutput, FailReason, UpdateReport};
pub use executor::{ExecState, RoundExecutor};
pub use rest::request::UpdateRequest;
pub use resync::ResyncManager;
pub use runtime::{
    ConcurrentRuntime, FabricConfig, FabricCoordinator, Footprint, Journal, Priority, RetransMode,
    RuntimeConfig, RuntimeHandle, RuntimeStats, ShardId, SubmitError, SubmitOutcome, SubmitRequest,
    SubmitTicket, TenantId,
};
