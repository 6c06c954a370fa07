//! Discrete-event channel planning.
//!
//! [`SimChannel`] turns "send frame F on connection C at time t" into
//! zero or more delivery events "(t', F')" for the simulator's event
//! queue: zero when dropped, two when duplicated, `F' ≠ F` when
//! corrupted. FIFO connections clamp each new arrival to be no earlier
//! than the previous one on the same connection — exactly how TCP
//! in-order delivery turns jitter into head-of-line waiting — while
//! different connections stay fully independent, which is the
//! asynchrony the scheduling algorithms must survive.

use std::collections::BTreeMap;

use bytes::Bytes;
use sdn_types::{DetRng, DpId, SimTime};

use crate::config::ChannelConfig;

/// Direction of a control-channel connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Controller → switch.
    ToSwitch,
    /// Switch → controller.
    ToController,
}

/// A (switch, direction) connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId {
    /// The switch at the far (or near) end.
    pub dpid: DpId,
    /// Which way the bytes flow.
    pub dir: Direction,
}

impl ConnId {
    /// Controller → switch connection.
    pub fn to_switch(dpid: DpId) -> Self {
        ConnId {
            dpid,
            dir: Direction::ToSwitch,
        }
    }

    /// Switch → controller connection.
    pub fn to_controller(dpid: DpId) -> Self {
        ConnId {
            dpid,
            dir: Direction::ToController,
        }
    }
}

/// Statistics the channel keeps about its own mischief.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames accepted for transmission.
    pub sent: u64,
    /// Frames delivered (duplicates count).
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames corrupted.
    pub corrupted: u64,
    /// Frames lost to a severed connection, as opposed to random drops:
    /// a live disconnect on the transport or, in a simulator report, a
    /// frame that met a downed link or an ended connection epoch (the
    /// world counts those; `SimChannel` itself never severs).
    pub severed: u64,
    /// Connection teardowns observed.
    pub disconnects: u64,
    /// Connection re-establishments observed.
    pub reconnects: u64,
}

/// The planning channel.
#[derive(Debug, Clone)]
pub struct SimChannel {
    config: ChannelConfig,
    /// Per-connection behaviour overrides (slow/flaky switches).
    overrides: BTreeMap<ConnId, ChannelConfig>,
    /// Per-connection high-water mark of scheduled arrivals (FIFO).
    last_arrival: BTreeMap<ConnId, SimTime>,
    stats: ChannelStats,
}

impl SimChannel {
    /// A channel with the given behaviour.
    pub fn new(config: ChannelConfig) -> Self {
        SimChannel {
            config,
            overrides: BTreeMap::new(),
            last_arrival: BTreeMap::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The active default configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Override the behaviour of one connection — models a slow or
    /// flaky switch (a straggler) without touching the rest of the
    /// control network.
    pub fn set_override(&mut self, conn: ConnId, config: ChannelConfig) {
        self.overrides.insert(conn, config);
    }

    /// Drop a connection's override, reverting it to the default.
    pub fn clear_override(&mut self, conn: ConnId) {
        self.overrides.remove(&conn);
    }

    /// The configuration in effect for a connection.
    pub fn config_for(&self, conn: ConnId) -> &ChannelConfig {
        self.overrides.get(&conn).unwrap_or(&self.config)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Plan the deliveries for one frame sent at `now` on `conn`.
    ///
    /// Returns `(arrival time, frame bytes)` pairs, possibly empty
    /// (drop) or with two entries (duplicate). Corruption flips one
    /// byte of the frame copy.
    pub fn send(
        &mut self,
        conn: ConnId,
        now: SimTime,
        frame: Bytes,
        rng: &mut DetRng,
    ) -> Vec<(SimTime, Bytes)> {
        let config = *self.overrides.get(&conn).unwrap_or(&self.config);
        self.stats.sent += 1;
        if rng.chance(config.drop_prob) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let copies = if rng.chance(config.duplicate_prob) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let delay = config.delay.sample(rng);
            let mut arrival = now + delay;
            if config.fifo {
                let hwm = self
                    .last_arrival
                    .get(&conn)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                if arrival < hwm {
                    arrival = hwm;
                }
                self.last_arrival.insert(conn, arrival);
            }
            let bytes = if rng.chance(config.corrupt_prob) && !frame.is_empty() {
                self.stats.corrupted += 1;
                let mut v = frame.to_vec();
                let idx = rng.index(v.len());
                let bit = 1u8 << rng.index(8);
                v[idx] ^= bit;
                Bytes::from(v)
            } else {
                frame.clone()
            };
            self.stats.delivered += 1;
            out.push((arrival, bytes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayDist;
    use sdn_types::SimDuration;

    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn ideal_channel_constant_delay() {
        let mut ch = SimChannel::new(ChannelConfig::ideal(SimDuration::from_millis(2)));
        let mut rng = DetRng::new(1);
        let out = ch.send(
            ConnId::to_switch(DpId(1)),
            SimTime::ZERO,
            frame(8),
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(out[0].1, frame(8));
    }

    #[test]
    fn fifo_clamps_reordering_within_connection() {
        let cfg = ChannelConfig {
            delay: DelayDist::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(50),
            },
            ..ChannelConfig::lan()
        };
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(7);
        let conn = ConnId::to_switch(DpId(1));
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let now = SimTime(i * 10_000); // sends every 10 µs
            for (arr, _) in ch.send(conn, now, frame(4), &mut rng) {
                assert!(arr >= last, "FIFO violated: {arr} < {last}");
                last = arr;
            }
        }
    }

    #[test]
    fn connections_are_independent() {
        let cfg = ChannelConfig {
            delay: DelayDist::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(50),
            },
            ..ChannelConfig::lan()
        };
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(42);
        // send to s1 then to s2; find a seed-dependent case where s2's
        // message arrives before s1's: asynchrony across connections.
        let mut reordered = false;
        for i in 0..100 {
            let t = SimTime(i * 1_000_000);
            let a = ch.send(ConnId::to_switch(DpId(1)), t, frame(4), &mut rng);
            let b = ch.send(ConnId::to_switch(DpId(2)), t, frame(4), &mut rng);
            if b[0].0 < a[0].0 {
                reordered = true;
            }
        }
        assert!(reordered, "cross-connection reordering must be possible");
    }

    #[test]
    fn non_fifo_allows_within_connection_reordering() {
        let cfg = ChannelConfig {
            delay: DelayDist::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(50),
            },
            ..ChannelConfig::lan()
        }
        .without_fifo();
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(3);
        let conn = ConnId::to_switch(DpId(1));
        let mut arrivals = Vec::new();
        for i in 0..100 {
            let now = SimTime(i * 10_000);
            for (arr, _) in ch.send(conn, now, frame(4), &mut rng) {
                arrivals.push(arr);
            }
        }
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_ne!(arrivals, sorted, "non-FIFO should reorder sometimes");
    }

    #[test]
    fn drops_occur_at_configured_rate() {
        let mut ch = SimChannel::new(ChannelConfig::lossy(0.3));
        let mut rng = DetRng::new(5);
        let mut delivered = 0;
        let n = 10_000;
        for i in 0..n {
            let out = ch.send(
                ConnId::to_switch(DpId(1)),
                SimTime(i * 1000),
                frame(4),
                &mut rng,
            );
            delivered += out.len();
        }
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        assert_eq!(ch.stats().dropped + ch.stats().delivered, n);
    }

    #[test]
    fn duplicates_double_deliver() {
        let cfg = ChannelConfig::ideal(SimDuration::from_millis(1)).with_duplication(1.0);
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(6);
        let out = ch.send(
            ConnId::to_switch(DpId(1)),
            SimTime::ZERO,
            frame(4),
            &mut rng,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(ch.stats().duplicated, 1);
        assert_eq!(ch.stats().delivered, 2);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = ChannelConfig::ideal(SimDuration::from_millis(1)).with_corruption(1.0);
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(8);
        let orig = frame(16);
        let out = ch.send(
            ConnId::to_switch(DpId(1)),
            SimTime::ZERO,
            orig.clone(),
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        let diff: u32 = orig
            .iter()
            .zip(out[0].1.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(ch.stats().corrupted, 1);
    }

    #[test]
    fn empty_frame_never_corrupted() {
        let cfg = ChannelConfig::ideal(SimDuration::from_millis(1)).with_corruption(1.0);
        let mut ch = SimChannel::new(cfg);
        let mut rng = DetRng::new(9);
        let out = ch.send(
            ConnId::to_switch(DpId(1)),
            SimTime::ZERO,
            Bytes::new(),
            &mut rng,
        );
        assert_eq!(out[0].1.len(), 0);
        assert_eq!(ch.stats().corrupted, 0);
    }

    #[test]
    fn per_connection_override_applies() {
        let mut ch = SimChannel::new(ChannelConfig::ideal(SimDuration::from_millis(1)));
        let slow_conn = ConnId::to_switch(DpId(9));
        ch.set_override(
            slow_conn,
            ChannelConfig::ideal(SimDuration::from_millis(50)),
        );
        let mut rng = DetRng::new(1);
        let fast = ch.send(
            ConnId::to_switch(DpId(1)),
            SimTime::ZERO,
            frame(4),
            &mut rng,
        );
        let slow = ch.send(slow_conn, SimTime::ZERO, frame(4), &mut rng);
        assert_eq!(fast[0].0, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(slow[0].0, SimTime::ZERO + SimDuration::from_millis(50));
        assert_eq!(
            ch.config_for(slow_conn).delay.mean(),
            SimDuration::from_millis(50)
        );
        ch.clear_override(slow_conn);
        let t = SimTime::ZERO + SimDuration::from_millis(60);
        let back = ch.send(slow_conn, t, frame(4), &mut rng);
        assert_eq!(back[0].0, t + SimDuration::from_millis(1));
    }

    #[test]
    fn determinism_under_seed() {
        let run = |seed: u64| {
            let mut ch = SimChannel::new(ChannelConfig::jittery(SimDuration::from_millis(5)));
            let mut rng = DetRng::new(seed);
            (0..50)
                .flat_map(|i| {
                    ch.send(
                        ConnId::to_switch(DpId(1)),
                        SimTime(i * 100_000),
                        frame(4),
                        &mut rng,
                    )
                })
                .map(|(t, _)| t)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
