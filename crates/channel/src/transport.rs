//! The unified transport abstraction.
//!
//! Both transports in this crate — the planning [`SimChannel`] and the
//! readiness-driven [`EventLoopTransport`] — inject the same faults
//! (drop, duplicate, corrupt, delay) with the same per-connection
//! override knobs, but grew separate entry points: `set_override` on
//! the simulator, constructor-only configuration on the threaded
//! transport. The [`Transport`] trait collapses those into one surface
//! so `World` and the experiments can configure a flaky switch without
//! knowing which transport carries it.
//!
//! [`LiveTransport`] extends [`Transport`] with actual message motion
//! (`send`/`recv`); the simulator does not implement it because its
//! sends *return* delivery plans instead of executing them — virtual
//! time has no blocking receive.
//!
//! [`SimChannel`]: crate::sim::SimChannel
//! [`EventLoopTransport`]: crate::event_loop::EventLoopTransport

use std::time::Duration;

use sdn_openflow::messages::Envelope;
use sdn_types::DpId;

use crate::config::ChannelConfig;
use crate::sim::{ChannelStats, ConnId, SimChannel};

/// A message arriving at the controller.
#[derive(Debug)]
pub struct FromSwitch {
    /// Originating switch.
    pub dpid: DpId,
    /// The decoded reply.
    pub env: Envelope,
}

/// Why a send could not be accepted by the transport.
///
/// Faults injected *in flight* (drop, corrupt) do not surface here —
/// the bytes were accepted and the loss is the channel's business.
/// These errors mean the bytes never left the controller, so the
/// caller can react immediately instead of waiting out an RTO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// No connection was ever registered for this dpid.
    UnknownSwitch(DpId),
    /// The connection exists but is currently torn down; it may come
    /// back via a reconnect, at which point the switch resyncs.
    Disconnected(DpId),
    /// The whole transport has shut down.
    ShutDown,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownSwitch(dp) => write!(f, "unknown switch {dp:?}"),
            TransportError::Disconnected(dp) => write!(f, "connection to {dp:?} is down"),
            TransportError::ShutDown => write!(f, "transport shut down"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A connection lifecycle change observed by the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// The connection dropped; in-flight frames (both directions) are
    /// lost and pending sends fail with
    /// [`TransportError::Disconnected`].
    Disconnected(DpId),
    /// The switch re-registered under the same dpid with fresh
    /// buffers; the controller should start a resync.
    Reconnected(DpId),
}

/// Common configuration surface over every control-channel transport.
///
/// Implementations keep one default [`ChannelConfig`] plus sparse
/// per-connection overrides, exactly the shape the experiments need:
/// a mostly-healthy network with a handful of straggler or lossy
/// connections.
pub trait Transport {
    /// Override the fault/delay profile of one connection.
    fn set_conn_config(&mut self, conn: ConnId, config: ChannelConfig);

    /// Remove a per-connection override, restoring the default profile.
    fn clear_conn_config(&mut self, conn: ConnId);

    /// Effective profile for a connection (override or default).
    fn conn_config(&self, conn: ConnId) -> ChannelConfig;

    /// Fault-injection counters accumulated so far.
    fn transport_stats(&self) -> ChannelStats;
}

/// A transport that actually moves messages between controller and
/// switches (threads, wall clock), as opposed to planning deliveries
/// in virtual time.
pub trait LiveTransport: Transport {
    /// Send a control message to a switch, encoded on the wire.
    /// Errors when the switch is unknown, its connection is down, or
    /// the transport is shut down; faults injected in flight still
    /// count as accepted.
    fn send(&self, dpid: DpId, env: &Envelope) -> Result<(), TransportError>;

    /// Receive the next switch reply, waiting up to `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Option<FromSwitch>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<FromSwitch>;

    /// Next connection lifecycle event, if any occurred since the
    /// last call. Transports without churn never report one.
    fn try_next_event(&self) -> Option<TransportEvent> {
        None
    }
}

impl Transport for SimChannel {
    fn set_conn_config(&mut self, conn: ConnId, config: ChannelConfig) {
        self.set_override(conn, config);
    }

    fn clear_conn_config(&mut self, conn: ConnId) {
        self.clear_override(conn);
    }

    fn conn_config(&self, conn: ConnId) -> ChannelConfig {
        *self.config_for(conn)
    }

    fn transport_stats(&self) -> ChannelStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::SimDuration;

    #[test]
    fn sim_channel_exposes_overrides_through_trait() {
        let mut ch = SimChannel::new(ChannelConfig::ideal(SimDuration::from_micros(10)));
        let conn = ConnId::to_switch(DpId(3));
        let lossy = ChannelConfig::lossy(0.5);
        let t: &mut dyn Transport = &mut ch;
        t.set_conn_config(conn, lossy);
        assert_eq!(t.conn_config(conn).drop_prob, 0.5);
        t.clear_conn_config(conn);
        assert_eq!(t.conn_config(conn).drop_prob, 0.0);
        assert_eq!(t.transport_stats(), ChannelStats::default());
    }
}
