//! One-call experiment scenarios.
//!
//! A [`Scenario`] names everything an experiment needs — workload
//! (route pair), algorithm, channel behaviour, probe schedule, seed —
//! and [`run_scenario`] produces the schedule, its static verification
//! and the full simulation report. The experiment binaries in
//! `sdn-bench` are thin loops over scenarios.

use std::fmt;

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompileError, FlowSpec};
use sdn_topo::gen::{materialize, UpdatePair};
use sdn_types::{HostId, SimDuration, SimTime};
use update_core::algorithms::{
    OneShot, Peacock, SchedulerError, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp,
};
use update_core::checker::{verify_schedule, CheckReport};
use update_core::metrics::ScheduleStats;
use update_core::model::{InstanceError, UpdateInstance};
use update_core::properties::PropertySet;
use update_core::schedule::Schedule;

use crate::report::SimReport;
use crate::world::{World, WorldConfig};

/// Algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Naive single round.
    OneShot,
    /// Strong-loop-freedom greedy.
    SlfGreedy,
    /// Relaxed loop freedom (PODC'15).
    Peacock,
    /// Waypoint enforcement (HotNets'14), 2PC fallback.
    WayUp,
    /// Tag-based two-phase commit.
    TwoPhase,
}

impl AlgoChoice {
    /// Every algorithm, in report order.
    pub const ALL: [AlgoChoice; 5] = [
        AlgoChoice::OneShot,
        AlgoChoice::SlfGreedy,
        AlgoChoice::Peacock,
        AlgoChoice::WayUp,
        AlgoChoice::TwoPhase,
    ];

    /// Stable name (matches the REST `"algorithm"` field).
    pub fn name(&self) -> &'static str {
        match self {
            AlgoChoice::OneShot => "one-shot",
            AlgoChoice::SlfGreedy => "slf-greedy",
            AlgoChoice::Peacock => "peacock",
            AlgoChoice::WayUp => "wayup",
            AlgoChoice::TwoPhase => "two-phase",
        }
    }

    /// Parse a REST algorithm name.
    pub fn from_name(s: &str) -> Option<AlgoChoice> {
        match s {
            "one-shot" | "oneshot" => Some(AlgoChoice::OneShot),
            "slf-greedy" | "slf" => Some(AlgoChoice::SlfGreedy),
            "peacock" => Some(AlgoChoice::Peacock),
            "wayup" => Some(AlgoChoice::WayUp),
            "two-phase" | "2pc" => Some(AlgoChoice::TwoPhase),
            _ => None,
        }
    }

    /// Instantiate the scheduler.
    pub fn scheduler(&self) -> Box<dyn UpdateScheduler> {
        match self {
            AlgoChoice::OneShot => Box::new(OneShot),
            AlgoChoice::SlfGreedy => Box::new(SlfGreedy),
            AlgoChoice::Peacock => Box::new(Peacock::default()),
            AlgoChoice::WayUp => Box::new(WayUp::default()),
            AlgoChoice::TwoPhase => Box::new(TwoPhaseCommit),
        }
    }
}

impl fmt::Display for AlgoChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label for reports.
    pub label: String,
    /// Old/new routes (the topology is materialized from them).
    pub pair: UpdatePair,
    /// The scheduler to use.
    pub algo: AlgoChoice,
    /// World tuning (channel, controller, delays, seed).
    pub world: WorldConfig,
    /// Probe injection interval (the REST `interval`).
    pub inject_interval: SimDuration,
    /// Probe count.
    pub inject_count: u64,
    /// Also statically verify the schedule and include the report.
    pub verify: bool,
}

impl Scenario {
    /// A scenario with sensible defaults for the given workload and
    /// algorithm.
    pub fn new(label: impl Into<String>, pair: UpdatePair, algo: AlgoChoice) -> Self {
        Scenario {
            label: label.into(),
            pair,
            algo,
            world: WorldConfig::default(),
            inject_interval: SimDuration::from_millis(1),
            inject_count: 200,
            verify: true,
        }
    }

    /// Builder: channel configuration.
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.world.channel = channel;
        self
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.world.seed = seed;
        self
    }
}

/// Scenario outcome: static artifacts and the simulation report.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The schedule the algorithm produced.
    pub schedule: Schedule,
    /// Schedule size statistics.
    pub stats: ScheduleStats,
    /// Static transient verification (when requested).
    pub check: Option<CheckReport>,
    /// The simulation report.
    pub sim: SimReport,
}

impl ScenarioOutcome {
    /// Update completion time, if the update finished.
    pub fn update_time(&self) -> Option<SimDuration> {
        self.sim.updates.first().and_then(|u| u.duration())
    }
}

/// Scenario errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The route pair is not a valid instance.
    BadInstance(InstanceError),
    /// The scheduler failed (e.g. WayUp without waypoint).
    Scheduler(SchedulerError),
    /// FlowMod compilation failed.
    Compile(CompileError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadInstance(e) => write!(f, "bad instance: {e}"),
            ScenarioError::Scheduler(e) => write!(f, "scheduler failed: {e}"),
            ScenarioError::Compile(e) => write!(f, "compile failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Run one scenario end to end.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
    let topo = materialize(&sc.pair);
    let inst = UpdateInstance::new(sc.pair.old.clone(), sc.pair.new.clone(), sc.pair.waypoint)
        .map_err(ScenarioError::BadInstance)?;
    let spec = FlowSpec {
        src: HostId(1),
        dst: HostId(2),
    };

    let schedule = sc
        .algo
        .scheduler()
        .schedule(&inst)
        .map_err(ScenarioError::Scheduler)?;
    let stats = ScheduleStats::of(&schedule);

    let check = if sc.verify {
        let props = if inst.waypoint().is_some() {
            PropertySet::transiently_secure()
        } else {
            PropertySet::loop_free_relaxed()
        };
        Some(verify_schedule(&inst, &schedule, props))
    } else {
        None
    };

    let compiled =
        compile_schedule(&topo, &inst, &schedule, &spec).map_err(ScenarioError::Compile)?;

    let mut world = World::new(topo.clone(), sc.world);
    world.set_waypoint(inst.waypoint());
    let init = initial_flowmods(&topo, &sc.pair.old, &spec).map_err(ScenarioError::Compile)?;
    world.install_initial(&init);
    world.enqueue_update(compiled);
    if sc.inject_count > 0 {
        world.plan_injection(
            spec.src,
            spec.dst,
            sc.inject_interval,
            sc.inject_count,
            SimTime::ZERO,
        );
    }
    let sim = world.run(SimTime::ZERO + SimDuration::from_secs(3600));

    Ok(ScenarioOutcome {
        schedule,
        stats,
        check,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::gen;
    use sdn_types::DetRng;

    #[test]
    fn algo_names_roundtrip() {
        for a in AlgoChoice::ALL {
            assert_eq!(AlgoChoice::from_name(a.name()), Some(a));
        }
        assert_eq!(AlgoChoice::from_name("2pc"), Some(AlgoChoice::TwoPhase));
        assert_eq!(AlgoChoice::from_name("nope"), None);
    }

    #[test]
    fn wayup_scenario_end_to_end() {
        let mut rng = DetRng::new(5);
        let pair = gen::waypointed(8, false, &mut rng);
        let sc = Scenario::new("test", pair, AlgoChoice::WayUp).with_seed(3);
        let out = run_scenario(&sc).unwrap();
        assert!(out.check.as_ref().unwrap().is_ok());
        assert!(out.update_time().is_some());
        assert!(!out.sim.violations.any(), "{}", out.sim.violations);
        assert_eq!(out.stats.rounds, out.schedule.round_count());
    }

    #[test]
    fn peacock_scenario_on_reversal() {
        let pair = gen::reversal(10);
        let sc = Scenario::new("rev", pair, AlgoChoice::Peacock).with_seed(4);
        let out = run_scenario(&sc).unwrap();
        assert!(out.check.as_ref().unwrap().is_ok());
        assert!(out.sim.violations.loops == 0 && out.sim.violations.blackholes == 0);
    }

    #[test]
    fn wayup_without_waypoint_errors() {
        let pair = gen::reversal(6); // no waypoint
        let sc = Scenario::new("x", pair, AlgoChoice::WayUp);
        assert!(matches!(
            run_scenario(&sc),
            Err(ScenarioError::Scheduler(SchedulerError::NoWaypoint))
        ));
    }

    #[test]
    fn oneshot_static_check_fails_but_sim_runs() {
        // disjoint detour guarantees a non-trivial one-shot race
        // (activating the source before the detour switches are
        // installed blackholes at the first detour switch).
        let pair = gen::disjoint_detour(8, 3);
        let sc = Scenario::new("naive", pair, AlgoChoice::OneShot).with_seed(9);
        let out = run_scenario(&sc).unwrap();
        assert!(
            !out.check.as_ref().unwrap().is_ok(),
            "one-shot must fail static verification"
        );
        // simulation still completes the update
        assert!(out.update_time().is_some());
    }

    #[test]
    fn two_phase_scenario_with_crossing() {
        let mut rng = DetRng::new(8);
        let pair = gen::waypointed(8, true, &mut rng);
        let sc = Scenario::new("2pc", pair, AlgoChoice::TwoPhase).with_seed(2);
        let out = run_scenario(&sc).unwrap();
        assert!(
            out.check.as_ref().unwrap().is_ok(),
            "{}",
            out.check.unwrap()
        );
        assert!(!out.sim.violations.any());
    }
}
