//! The workload the runtime experiments (E7, E9, E10, E12) share: `n`
//! switch-disjoint 8-hop reversal flows, SLF-greedy schedules, every
//! update submitted at t = 0 with probes on every flow — plus the shard
//! pinning and runtime tunings those experiments sweep over it, and the
//! one fabric run E10 and E12 both measure.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{
    FabricConfig, FabricCoordinator, RuntimeConfig, RuntimeHandle, SubmitRequest,
};
use sdn_obs::Obs;
use sdn_sim::chaos::FaultKind;
use sdn_sim::report::SimReport;
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_topo::graph::Topology;
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::algorithms::{SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;
use update_core::partition::ShardAssignment;

/// Hops per flow.
pub const FLOW_LEN: u64 = 8;

/// Concurrent updates per shard in the fabric experiments.
pub const PER_SHARD_ACTIVE: usize = 4;

/// `n` switch-disjoint reversal flows.
pub fn disjoint_flows(n: usize) -> Vec<UpdatePair> {
    (0..n)
        .map(|i| gen::shift(&gen::reversal(FLOW_LEN), (i as u64) * (FLOW_LEN + 2)))
        .collect()
}

/// Every switch of every flow, in flow order.
pub fn flow_switches(pairs: &[UpdatePair]) -> Vec<Vec<DpId>> {
    pairs
        .iter()
        .map(|p| {
            let mut dps: Vec<DpId> = p.old.hops().to_vec();
            dps.extend(p.new.hops().iter().copied());
            dps.sort();
            dps.dedup();
            dps
        })
        .collect()
}

/// Pin flow `i` to shard `i % shards`; the first `cross` flows instead
/// straddle their home shard and its neighbour (half the hops each),
/// forcing the two-phase path whenever `shards > 1`.
pub fn assignment(pairs: &[UpdatePair], shards: u32, cross: usize) -> ShardAssignment {
    let mut overrides: Vec<(DpId, u32)> = Vec::new();
    for (i, dps) in flow_switches(pairs).iter().enumerate() {
        let home = (i as u32) % shards;
        let away = (home + 1) % shards;
        let half = dps.len() / 2;
        for (j, &dp) in dps.iter().enumerate() {
            let s = if i < cross && j >= half { away } else { home };
            overrides.push((dp, s));
        }
    }
    ShardAssignment::with_overrides(shards, overrides)
}

/// Install flow `i`'s old route and compile its SLF-greedy update, for
/// every flow of the batch `topo` was materialized from.
pub fn install_and_compile(
    world: &mut World,
    topo: &Topology,
    pairs: &[UpdatePair],
) -> Vec<CompiledUpdate> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let (src, dst) = gen::batch_hosts(i);
            let spec = FlowSpec { src, dst };
            let inst =
                UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
            let sched = SlfGreedy.schedule(&inst).expect("schedulable");
            world.install_initial(&initial_flowmods(topo, &pair.old, &spec).unwrap());
            compile_schedule(topo, &inst, &sched, &spec).unwrap()
        })
        .collect()
}

/// `count` probes every 500 µs from t = 0 on each of the first `flows`
/// flows of the batch.
pub fn probe_flows(world: &mut World, flows: usize, count: u64) {
    for i in 0..flows {
        let (src, dst) = gen::batch_hosts(i);
        world.plan_injection(
            src,
            dst,
            SimDuration::from_micros(500),
            count,
            SimTime::ZERO,
        );
    }
}

/// Makespan (t=0 submission → last completion) in virtual ms.
pub fn makespan_ms(r: &SimReport) -> f64 {
    r.updates
        .iter()
        .filter_map(|u| u.completed)
        .map(|t| t.as_millis_f64())
        .fold(0.0, f64::max)
}

/// One shard's tuning in the fabric experiments.
pub fn shard_runtime() -> RuntimeConfig {
    RuntimeConfig {
        max_active: PER_SHARD_ACTIVE,
        ..RuntimeConfig::default()
    }
}

/// Outage-tolerant tuning for the chaos legs: a 20 ms fixed-timeout
/// base and a generous attempt budget, `max_active` updates at once.
pub fn patient_runtime(max_active: usize) -> RuntimeConfig {
    RuntimeConfig {
        exec: ExecConfig {
            barrier_timeout: SimDuration::from_millis(20),
            max_attempts: 60,
            flowmod_acks: false,
        },
        max_active,
        ..RuntimeConfig::default()
    }
}

/// One finished [`run_fabric`].
pub struct FabricRun {
    /// The world after the run: its runtime's stats, its audit and its
    /// crash count.
    pub world: World,
    /// The run's report.
    pub report: SimReport,
    /// Job id of the first submission.
    pub first_job: u64,
    /// Submissions the fabric routed through two-phase commit.
    pub cross_shard: usize,
}

/// Submit `pairs` at t = 0 into a fabric over `assign` (LAN channel,
/// seed 2816) with `obs` attached, crash the controller at `crash_at`
/// if given, probe every flow while the updates run, and run to
/// quiescence.
pub fn run_fabric(
    pairs: &[UpdatePair],
    assign: ShardAssignment,
    runtime: RuntimeConfig,
    journal: bool,
    crash_at: Option<SimTime>,
    obs: Obs,
) -> FabricRun {
    let fabric = FabricCoordinator::with_assignment(
        FabricConfig {
            shards: assign.shards(),
            runtime,
            journal,
            ..FabricConfig::default()
        },
        assign,
    );
    run_world(pairs, Box::new(fabric), crash_at, obs)
}

/// [`run_fabric`]'s run over any controller: one
/// [`ConcurrentRuntime`](sdn_ctrl::runtime::ConcurrentRuntime) as well
/// as a fabric.
pub fn run_world(
    pairs: &[UpdatePair],
    controller: Box<dyn RuntimeHandle>,
    crash_at: Option<SimTime>,
    obs: Obs,
) -> FabricRun {
    let topo = gen::materialize_batch(pairs);
    let cfg = WorldConfig {
        channel: ChannelConfig::lan(),
        seed: 2816,
        ..WorldConfig::default()
    };
    let mut world = World::builder(topo.clone())
        .config(cfg)
        .runtime_handle(controller)
        .obs(obs)
        .build();
    let mut first_job = None;
    let mut cross_shard = 0;
    for c in install_and_compile(&mut world, &topo, pairs) {
        let ticket = world
            .submit(SubmitRequest::new(c))
            .expect("fabric admits the batch");
        first_job.get_or_insert(ticket.job.0);
        cross_shard += usize::from(ticket.cross_shard);
    }
    if let Some(at) = crash_at {
        world.schedule_fault(at, FaultKind::CrashController);
    }
    probe_flows(&mut world, pairs.len(), 100);
    let report = world.run(SimTime::ZERO + SimDuration::from_secs(3600));
    FabricRun {
        world,
        report,
        first_job: first_job.unwrap_or(0),
        cross_shard,
    }
}
