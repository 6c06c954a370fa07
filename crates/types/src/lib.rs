//! # sdn-types
//!
//! Foundational types shared by every crate in the *transient-updates*
//! workspace: switch/port/flow identifiers, virtual time for the
//! discrete-event simulator, deterministic random number generation, and
//! small shared utilities such as the id-keyed [`IdMap`].
//!
//! The types here are deliberately small, `Copy` where possible, and free
//! of behaviour that belongs to higher layers. Keeping them in one crate
//! avoids dependency cycles between the topology, protocol and scheduling
//! layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idmap;
pub mod ids;
pub mod rng;
pub mod time;

pub use idmap::{IdHasher, IdMap};
pub use ids::{DpId, FlowId, HostId, LinkId, PortNo, VersionTag, Xid};
pub use rng::{DetRng, SplitMix64};
pub use time::{SimDuration, SimTime};
