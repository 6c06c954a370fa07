//! # sdn-channel
//!
//! The asynchronous, unreliable control channel — the villain of the
//! paper. FlowMods to *different* switches race each other: each
//! connection samples its own delays, so commands dispatched together
//! take effect in arbitrary order across switches. Within one
//! connection the channel is FIFO by default (TCP semantics, which
//! OpenFlow assumes and barriers require); a non-FIFO mode exists for
//! the ablation experiment.
//!
//! Fault injection follows the smoltcp example conventions: drop
//! chance, duplicate chance, corrupt chance (one byte flipped — which
//! the codec must surface as a typed error). All sampling is
//! deterministic per seed.
//!
//! Two transports implement the unified [`transport::Transport`]
//! surface:
//!
//! * [`sim::SimChannel`] — pure planning: maps a send at time *t* to
//!   delivery events for the discrete-event simulator;
//! * [`event_loop::EventLoopTransport`] — a readiness-driven
//!   in-process transport (one event loop over real OpenFlow byte
//!   streams, turned by the thread that calls into it) that drives
//!   thousands of concurrent switch connections for integration
//!   tests and scaling benches.
//!
//! Connections are first-class and mortal: the event loop exposes live
//! `disconnect`/`reconnect`/`reboot` churn (frames in the pipe die with
//! the session) with typed send errors ([`transport::TransportError`])
//! and lifecycle events ([`transport::TransportEvent`]) the controller
//! reacts to. In the simulator, the world models the same churn with
//! its own connection epochs (`sdn_sim::chaos::FaultKind`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod event_loop;
pub mod sim;
pub mod transport;

pub use config::{ChannelConfig, DelayDist};
pub use event_loop::{EventLoopConfig, EventLoopTransport};
pub use sim::{ChannelStats, ConnId, Direction, SimChannel};
pub use transport::{FromSwitch, LiveTransport, Transport, TransportError, TransportEvent};
