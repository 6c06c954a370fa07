//! Per-switch adaptive retransmission timeouts.
//!
//! The serial executor retransmitted a whole round on one fixed timer —
//! tuned for the slowest switch it might ever meet, so fast switches
//! waited and slow switches were spammed. The runtime instead keeps a
//! Jacobson/Karels estimator per switch (TIME4's observation: update
//! timing is a per-device property):
//!
//! ```text
//! srtt   += (rtt - srtt) / 8            (EWMA of the barrier RTT)
//! rttvar += (|rtt - srtt| - rttvar) / 4 (EWMA of its deviation)
//! rto     = clamp(srtt + 4·rttvar, min, max)
//! ```
//!
//! Retransmissions back off exponentially (`rto << attempts`), and
//! because every retransmitted barrier carries a *fresh* xid, a reply
//! always identifies the exact transmission it answers — Karn's
//! retransmission ambiguity does not arise and every matched reply is
//! a valid RTT sample.
//!
//! A switch whose attempt count reaches
//! [`RtoConfig::straggler_attempts`] while the rest of its round has
//! acknowledged is flagged a **straggler** (diagnostics surfaced via
//! runtime stats; operators watch this to find dying switches before
//! they fail updates).

use sdn_types::{DpId, IdMap, SimDuration};

/// Estimator tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtoConfig {
    /// RTO before any sample exists (TCP uses 1 s; control channels
    /// are LAN-scale, so the default is tighter).
    pub initial: SimDuration,
    /// Lower clamp — never fire faster than this.
    pub min: SimDuration,
    /// Upper clamp — cap exponential backoff.
    pub max: SimDuration,
    /// Attempts after which a pending switch counts as a straggler.
    pub straggler_attempts: u32,
}

impl Default for RtoConfig {
    fn default() -> Self {
        RtoConfig {
            initial: SimDuration::from_millis(200),
            min: SimDuration::from_millis(2),
            max: SimDuration::from_secs(5),
            straggler_attempts: 3,
        }
    }
}

/// `base` doubled per retransmission after the first transmission,
/// capped at `max` — monotone in `base`.
pub(crate) fn backoff(base: SimDuration, attempts: u32, max: SimDuration) -> SimDuration {
    let shift = attempts.saturating_sub(1).min(16);
    base.saturating_mul(1u64 << shift).min(max)
}

/// One switch's estimator state (integer nanosecond arithmetic; the
/// shifts are the classic 1/8 and 1/4 gains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Estimator {
    srtt: u64,
    rttvar: u64,
}

/// The per-switch RTO table shared by every executor in the runtime —
/// switch latency is a property of the switch, so samples from one
/// update speed up retransmission decisions for all of them.
#[derive(Debug, Clone, Default)]
pub struct RtoTable {
    config: RtoConfig,
    switches: IdMap<DpId, Estimator>,
}

impl RtoTable {
    /// A table with the given tuning.
    pub fn new(config: RtoConfig) -> Self {
        RtoTable {
            config,
            switches: IdMap::default(),
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &RtoConfig {
        &self.config
    }

    /// Feed one barrier round-trip sample for a switch.
    pub fn observe(&mut self, dp: DpId, rtt: SimDuration) {
        let rtt = rtt.as_nanos();
        match self.switches.get_mut(&dp) {
            None => {
                // First sample: srtt = rtt, rttvar = rtt/2 (RFC 6298).
                self.switches.insert(
                    dp,
                    Estimator {
                        srtt: rtt,
                        rttvar: rtt / 2,
                    },
                );
            }
            Some(e) => {
                let err = e.srtt.abs_diff(rtt);
                // rttvar += (|err| - rttvar) / 4
                e.rttvar = e.rttvar - e.rttvar / 4 + err / 4;
                // srtt += (rtt - srtt) / 8
                e.srtt = e.srtt - e.srtt / 8 + rtt / 8;
            }
        }
    }

    /// Current base RTO for a switch (initial when unsampled).
    pub fn rto(&self, dp: DpId) -> SimDuration {
        match self.switches.get(&dp) {
            None => self.config.initial,
            Some(e) => {
                let rto = e.srtt.saturating_add(e.rttvar.saturating_mul(4));
                SimDuration::from_nanos(
                    rto.clamp(self.config.min.as_nanos(), self.config.max.as_nanos()),
                )
            }
        }
    }

    /// RTO after `attempts` transmissions of the same barrier:
    /// exponential backoff, capped at [`RtoConfig::max`].
    pub fn backoff(&self, dp: DpId, attempts: u32) -> SimDuration {
        backoff(self.rto(dp), attempts, self.config.max)
    }

    /// Smoothed RTT for a switch, when sampled (diagnostics).
    pub fn srtt(&self, dp: DpId) -> Option<SimDuration> {
        self.switches
            .get(&dp)
            .map(|e| SimDuration::from_nanos(e.srtt))
    }

    /// Number of switches with at least one sample.
    pub fn sampled(&self) -> usize {
        self.switches.len()
    }

    /// Every switch with at least one sample, in no particular order.
    pub fn switches(&self) -> impl Iterator<Item = DpId> + '_ {
        self.switches.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_switch_uses_initial() {
        let t = RtoTable::new(RtoConfig::default());
        assert_eq!(t.rto(DpId(1)), RtoConfig::default().initial);
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut t = RtoTable::new(RtoConfig::default());
        for _ in 0..64 {
            t.observe(DpId(1), SimDuration::from_millis(10));
        }
        let rto = t.rto(DpId(1));
        // srtt -> 10 ms, rttvar -> 0: rto approaches srtt (clamped by min).
        assert!(
            rto >= SimDuration::from_millis(9) && rto <= SimDuration::from_millis(14),
            "rto {rto} should settle near the true 10 ms RTT"
        );
        assert_eq!(t.sampled(), 1);
    }

    #[test]
    fn jitter_widens_the_timeout() {
        let mut stable = RtoTable::new(RtoConfig::default());
        let mut jittery = RtoTable::new(RtoConfig::default());
        for i in 0..64u64 {
            stable.observe(DpId(1), SimDuration::from_millis(10));
            let ms = if i % 2 == 0 { 2 } else { 18 }; // same mean, high var
            jittery.observe(DpId(1), SimDuration::from_millis(ms));
        }
        assert!(jittery.rto(DpId(1)) > stable.rto(DpId(1)));
    }

    #[test]
    fn per_switch_isolation() {
        let mut t = RtoTable::new(RtoConfig::default());
        t.observe(DpId(1), SimDuration::from_millis(1));
        t.observe(DpId(2), SimDuration::from_millis(100));
        assert!(t.rto(DpId(1)) < t.rto(DpId(2)));
        assert!(t.srtt(DpId(2)).unwrap() > t.srtt(DpId(1)).unwrap());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RtoConfig {
            initial: SimDuration::from_millis(10),
            min: SimDuration::from_millis(1),
            max: SimDuration::from_millis(55),
            straggler_attempts: 3,
        };
        let t = RtoTable::new(cfg);
        assert_eq!(t.backoff(DpId(1), 1), SimDuration::from_millis(10));
        assert_eq!(t.backoff(DpId(1), 2), SimDuration::from_millis(20));
        assert_eq!(t.backoff(DpId(1), 3), SimDuration::from_millis(40));
        assert_eq!(t.backoff(DpId(1), 4), SimDuration::from_millis(55));
        assert_eq!(t.backoff(DpId(1), 40), SimDuration::from_millis(55));
    }

    #[test]
    fn min_clamp_floors_tiny_rtts() {
        let mut t = RtoTable::new(RtoConfig::default());
        for _ in 0..64 {
            t.observe(DpId(1), SimDuration::from_nanos(10));
        }
        assert!(t.rto(DpId(1)) >= RtoConfig::default().min);
    }
}
