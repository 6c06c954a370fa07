//! # transient-updates
//!
//! Facade crate for the *Towards Transiently Secure Updates in
//! Asynchronous SDNs* reproduction (Shukla et al., SIGCOMM 2016 demo).
//!
//! The workspace implements, from scratch:
//!
//! * the round-based consistent-update schedulers the demo shows —
//!   **WayUp** (transient waypoint enforcement, HotNets'14) and
//!   **Peacock** (relaxed loop freedom, PODC'15) — plus one-shot,
//!   strong-loop-freedom greedy and tag-based two-phase-commit
//!   baselines ([`core`]);
//! * an exact, polynomial verifier for every transient state a
//!   round-based schedule can expose ([`core::checker`]);
//! * the substrate the demo ran on: an OpenFlow-style message layer
//!   with a binary codec ([`openflow`]), software switches with barrier
//!   semantics ([`switch`]), an asynchronous fault-injecting control
//!   channel ([`channel`]), a Ryu-style controller with the demo's REST
//!   request format and round executor ([`ctrl`]), and a deterministic
//!   discrete-event simulator ([`sim`]) over a topology model
//!   ([`topo`]);
//! * the controller loop over a live transport ([`live::turn`]).
//!
//! ## Quick start
//!
//! ```
//! use transient_updates::prelude::*;
//!
//! // The paper's Figure 1: 12 switches, h1@s1, h2@s12, waypoint s3.
//! let fig = sdn_topo::builders::figure1();
//! let inst = UpdateInstance::new(
//!     fig.old_route.clone(),
//!     fig.new_route.clone(),
//!     Some(fig.waypoint),
//! ).expect("valid instance");
//!
//! // Schedule the update with WayUp and verify every transient state.
//! let schedule = WayUp::default().schedule(&inst).expect("schedulable");
//! let report = verify_schedule(&inst, &schedule, PropertySet::transiently_secure());
//! assert!(report.is_ok(), "{report}");
//! ```

#![forbid(unsafe_code)]

pub use sdn_channel as channel;
pub use sdn_ctrl as ctrl;
pub use sdn_openflow as openflow;
pub use sdn_sim as sim;
pub use sdn_switch as switch;
pub use sdn_topo as topo;
pub use sdn_types as types;
pub use update_core as core;

pub mod live;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use sdn_topo;
    pub use sdn_topo::route::RoutePath;
    pub use sdn_types::{DpId, FlowId, HostId, PortNo, SimDuration, SimTime};
    pub use update_core::algorithms::{
        OneShot, Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp,
    };
    pub use update_core::checker::verify_schedule;
    pub use update_core::model::UpdateInstance;
    pub use update_core::properties::{Property, PropertySet};
    pub use update_core::schedule::Schedule;
}
