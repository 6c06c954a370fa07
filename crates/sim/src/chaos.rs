//! Deterministic fault injection — the chaos harness.
//!
//! A [`ChaosPlan`] is a time-ordered script of control-plane faults
//! ([`FaultKind`]): connection teardowns and re-establishments, switch
//! reboots (table wiped, connection re-established) and controller
//! crashes (state rebuilt from the write-ahead journal). Plans are
//! plain data derived from a seed, so every chaotic run replays
//! bit-identically — the property that lets the experiments assert
//! exact convergence under churn instead of eyeballing flakes.
//!
//! [`ChaosPlan::rolling_churn`] builds the canonical large-scale
//! scenario: every switch in a fleet loses its control connection once,
//! in seeded random order, each for a fixed outage — the "controller
//! restart rolls over the whole data center" drill.

use sdn_types::{DetRng, DpId, SimDuration, SimTime};

use crate::world::World;

/// One control-plane fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The switch's control connection is torn down: in-flight frames
    /// in both directions are lost and sends are severed until the
    /// matching [`FaultKind::LinkUp`].
    LinkDown(DpId),
    /// The switch's control connection is re-established; the
    /// controller is notified and starts a resync audit.
    LinkUp(DpId),
    /// The switch process restarts: its flow table and serial
    /// processing queue are wiped, and its connection drops and
    /// immediately re-establishes.
    Reboot(DpId),
    /// The controller process crashes and rebuilds itself from its
    /// write-ahead journal; every control connection's in-flight
    /// frames die with it.
    CrashController,
}

/// A time-ordered script of faults.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    events: Vec<(SimTime, FaultKind)>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Add a fault at `at` (builder style).
    pub fn with(mut self, at: SimTime, fault: FaultKind) -> Self {
        self.push(at, fault);
        self
    }

    /// Add a fault at `at`.
    pub fn push(&mut self, at: SimTime, fault: FaultKind) {
        self.events.push((at, fault));
    }

    /// A down/up pair: `dp` is disconnected during `[from, from + outage)`.
    pub fn outage(&mut self, dp: DpId, from: SimTime, outage: SimDuration) {
        self.push(from, FaultKind::LinkDown(dp));
        self.push(from + outage, FaultKind::LinkUp(dp));
    }

    /// Rolling churn over a fleet: every switch in `dps` goes down
    /// exactly once for `outage`, with start times spread over
    /// consecutive `period` slots in seeded random order (plus a
    /// per-switch jitter inside its slot). Deterministic in `seed`.
    pub fn rolling_churn(
        dps: &[DpId],
        start: SimTime,
        period: SimDuration,
        outage: SimDuration,
        seed: u64,
    ) -> Self {
        let mut rng = DetRng::new(seed).derive("rolling-churn", seed);
        let mut order: Vec<DpId> = dps.to_vec();
        rng.shuffle(&mut order);
        let mut plan = ChaosPlan::new();
        for (i, dp) in order.into_iter().enumerate() {
            let slot = start + period.saturating_mul(i as u64);
            let jitter = SimDuration(rng.range_u64(0, period.0.max(1)));
            plan.outage(dp, slot + jitter, outage);
        }
        plan
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultKind)] {
        &self.events
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last scripted fault, if any.
    pub fn last_at(&self) -> Option<SimTime> {
        self.events.iter().map(|&(at, _)| at).max()
    }

    /// Schedule every scripted fault on a world.
    pub fn apply(&self, world: &mut World) {
        for &(at, fault) in &self.events {
            world.schedule_fault(at, fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_counts() {
        let plan = ChaosPlan::new()
            .with(SimTime(5), FaultKind::CrashController)
            .with(SimTime(1), FaultKind::LinkDown(DpId(3)));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.last_at(), Some(SimTime(5)));
        assert_eq!(plan.events()[1], (SimTime(1), FaultKind::LinkDown(DpId(3))));
    }

    #[test]
    fn outage_pairs_down_with_up() {
        let mut plan = ChaosPlan::new();
        plan.outage(DpId(7), SimTime(100), SimDuration(50));
        assert_eq!(
            plan.events(),
            &[
                (SimTime(100), FaultKind::LinkDown(DpId(7))),
                (SimTime(150), FaultKind::LinkUp(DpId(7))),
            ]
        );
    }

    #[test]
    fn rolling_churn_covers_every_switch_once() {
        let dps: Vec<DpId> = (1..=40).map(DpId).collect();
        let plan = ChaosPlan::rolling_churn(
            &dps,
            SimTime::ZERO,
            SimDuration::from_millis(2),
            SimDuration::from_millis(1),
            9,
        );
        assert_eq!(plan.len(), dps.len() * 2);
        let mut downs: Vec<DpId> = plan
            .events()
            .iter()
            .filter_map(|&(_, f)| match f {
                FaultKind::LinkDown(dp) => Some(dp),
                _ => None,
            })
            .collect();
        downs.sort();
        assert_eq!(downs, dps, "every switch goes down exactly once");
        // every down has its up exactly one outage later
        for &(at, f) in plan.events() {
            if let FaultKind::LinkDown(dp) = f {
                assert!(plan
                    .events()
                    .contains(&(at + SimDuration::from_millis(1), FaultKind::LinkUp(dp))));
            }
        }
    }

    #[test]
    fn rolling_churn_is_deterministic_in_the_seed() {
        let dps: Vec<DpId> = (1..=16).map(DpId).collect();
        let mk = |seed| {
            ChaosPlan::rolling_churn(
                &dps,
                SimTime(500),
                SimDuration::from_millis(3),
                SimDuration::from_micros(700),
                seed,
            )
            .events()
            .to_vec()
        };
        assert_eq!(mk(4), mk(4));
        assert_ne!(mk(4), mk(5), "different seeds reorder the churn");
    }
}
