//! End-to-end observability: the PR-10 acceptance suite for the
//! `sdn_obs` handle threaded through the world, the runtime and the
//! chaos harness.
//!
//! * a clean update leaves a full lifecycle span (submit → admit →
//!   rounds → commit), truthful event counts and a Prometheus page that
//!   passes the strict validator;
//! * a one-shot update under jitter produces transient violations, and
//!   the world measures the per-flow violation *window* — the paper's
//!   headline quantity — and triggers a flight-recorder dump at the
//!   first violating delivery;
//! * chaos faults land in the event stream with their taxonomy codes,
//!   a controller crash dumps on recovery, and the whole record —
//!   every dump, byte for byte — replays identically under the same
//!   seed.

use sdn_channel::config::ChannelConfig;
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate, FlowSpec};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{ConcurrentRuntime, Journal, RuntimeConfig, SubmitRequest};
use sdn_obs::{prometheus, DumpReason, EventKind, HistId, Obs};
use sdn_sim::world::{World, WorldConfig};
use sdn_topo::gen::{self, UpdatePair};
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::algorithms::{OneShot, SlfGreedy, UpdateScheduler};
use update_core::model::UpdateInstance;

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3600)
}

/// Compile `pair` under `sched` for flow `i`, with old routes
/// installed in `world`.
fn compiled_for(
    world: &mut World,
    topo: &sdn_topo::Topology,
    pair: &UpdatePair,
    sched: &dyn UpdateScheduler,
    i: usize,
) -> CompiledUpdate {
    let (src, dst) = gen::batch_hosts(i);
    let spec = FlowSpec { src, dst };
    let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
    let s = sched.schedule(&inst).expect("schedulable");
    world.install_initial(&initial_flowmods(topo, &pair.old, &spec).unwrap());
    compile_schedule(topo, &inst, &s, &spec).unwrap()
}

#[test]
fn clean_update_leaves_a_full_lifecycle_span() {
    let pairs = vec![gen::reversal(8)];
    let topo = gen::materialize_batch(&pairs);
    let obs = Obs::recording();
    let mut w = World::builder(topo.clone())
        .config(WorldConfig {
            channel: ChannelConfig::lan(),
            seed: 11,
            ..WorldConfig::default()
        })
        .concurrent(RuntimeConfig::default())
        .obs(obs.clone())
        .build();
    let c = compiled_for(&mut w, &topo, &pairs[0], &SlfGreedy, 0);
    let ticket = w.submit(SubmitRequest::new(c)).expect("admitted");
    let job = ticket.job.0;
    let r = w.run(horizon());
    assert!(r.updates[0].completed.is_some());

    // event counts agree with ground truth
    let reg = obs.registry();
    assert_eq!(reg.events(EventKind::Submit), 1);
    assert_eq!(reg.events(EventKind::Admit), 1);
    assert_eq!(reg.events(EventKind::Commit), 1);
    assert_eq!(reg.events(EventKind::Abort), 0);
    assert!(reg.events(EventKind::FlowModSend) > 0);
    assert!(reg.events(EventKind::BarrierFence) > 0);
    assert_eq!(reg.hist(HistId::SubmitToCommitNs).count, 1);
    assert!(reg.hist(HistId::BarrierRttNs).count > 0);

    // the span walks the whole lifecycle in virtual-time order
    let span = obs.span_events(job);
    assert!(!span.is_empty(), "the job must have a span");
    let kinds: Vec<EventKind> = span.iter().map(|e| e.kind).collect();
    for k in [
        EventKind::Submit,
        EventKind::Admit,
        EventKind::RoundDispatch,
        EventKind::FlowModSend,
        EventKind::BarrierFence,
        EventKind::RoundCommit,
        EventKind::Commit,
    ] {
        assert!(kinds.contains(&k), "span missing {:?}", k);
    }
    assert_eq!(kinds.first(), Some(&EventKind::Submit));
    assert_eq!(kinds.last(), Some(&EventKind::Commit));
    assert!(
        span.windows(2).all(|p| p[0].at <= p[1].at),
        "span events must be time-ordered"
    );
    assert!(obs.trace_json(job).is_some());

    // exposition is strictly valid, and a clean run dumps nothing
    prometheus::validate(&obs.prometheus()).expect("valid Prometheus text");
    assert!(obs.dumps().is_empty(), "no dump without a trigger");
}

#[test]
fn oneshot_violations_measure_the_window_and_dump() {
    // The Figure-1 update executed one-shot under 5 ms jitter: the
    // motivating scenario. Probes that bypass the waypoint while the
    // switches apply FlowMods out of order are *violations*, and the
    // world must measure the window from first to last violating
    // delivery — the paper's headline quantity.
    let f = sdn_topo::builders::figure1();
    let pair = UpdatePair {
        old: f.old_route.clone(),
        new: f.new_route.clone(),
        waypoint: Some(f.waypoint),
    };
    let obs = Obs::recording();
    let mut w = World::builder(f.topo.clone())
        .config(WorldConfig {
            channel: ChannelConfig::jittery(SimDuration::from_millis(5)),
            seed: 7,
            ..WorldConfig::default()
        })
        .concurrent(RuntimeConfig::default())
        .obs(obs.clone())
        .build();
    w.set_waypoint(Some(f.waypoint));
    let spec = FlowSpec {
        src: f.h1,
        dst: f.h2,
    };
    let inst = UpdateInstance::new(pair.old.clone(), pair.new.clone(), pair.waypoint).unwrap();
    let sched = OneShot.schedule(&inst).expect("one-shot always schedules");
    w.install_initial(&initial_flowmods(&f.topo, &pair.old, &spec).unwrap());
    w.enqueue_update(compile_schedule(&f.topo, &inst, &sched, &spec).unwrap());
    w.plan_injection(
        f.h1,
        f.h2,
        SimDuration::from_micros(100),
        2000,
        SimTime::ZERO,
    );
    let r = w.run(horizon());

    assert!(
        r.violations.any(),
        "one-shot under jitter must violate: {}",
        r.violations
    );
    let reg = obs.registry();
    assert_eq!(
        reg.events(EventKind::Violation),
        r.violations.waypoint_bypasses + r.violations.blackholes + r.violations.loops,
        "the violation events must agree with the probe report"
    );
    // one injection plan violated → exactly one measured window
    let hist = reg.hist(HistId::ViolationWindowNs);
    assert_eq!(hist.count, 1, "one plan, one violation window");
    assert!(hist.sum > 0, "the window has nonzero width");

    // the first violating delivery triggered a flight-recorder dump
    let dumps = obs.dumps();
    assert_eq!(dumps.len(), 1, "exactly one dump per violating plan");
    assert_eq!(dumps[0].reason, DumpReason::Violation);
    assert!(
        dumps[0].json.contains("\"kind\":\"violation\""),
        "the dump must carry the violating event: {}",
        dumps[0].json
    );
}

/// The chaos scenario behind the replay test: a link flap, a reboot
/// and a controller crash over two journalled updates, probes live.
fn chaotic_run() -> (Obs, sdn_sim::report::SimReport, u64, u64) {
    let pairs = vec![gen::reversal(8), gen::shift(&gen::reversal(8), 10)];
    let topo = gen::materialize_batch(&pairs);
    let obs = Obs::with_ring(128);
    let runtime = ConcurrentRuntime::with_journal(
        RuntimeConfig {
            exec: ExecConfig {
                barrier_timeout: SimDuration::from_millis(20),
                max_attempts: 60,
                flowmod_acks: false,
            },
            max_active: 32,
            ..RuntimeConfig::default()
        },
        Journal::mem(),
    );
    let mut w = World::builder(topo.clone())
        .config(WorldConfig {
            channel: ChannelConfig::lan(),
            seed: 44,
            ..WorldConfig::default()
        })
        .runtime_handle(Box::new(runtime))
        .obs(obs.clone())
        .build();
    for (i, pair) in pairs.iter().enumerate() {
        let c = compiled_for(&mut w, &topo, pair, &SlfGreedy, i);
        w.enqueue_update(c);
    }
    use sdn_sim::chaos::FaultKind;
    w.schedule_fault(
        SimTime::ZERO + SimDuration::from_millis(2),
        FaultKind::LinkDown(DpId(4)),
    );
    w.schedule_fault(
        SimTime::ZERO + SimDuration::from_millis(3),
        FaultKind::CrashController,
    );
    w.schedule_fault(
        SimTime::ZERO + SimDuration::from_millis(42),
        FaultKind::LinkUp(DpId(4)),
    );
    for (i, _) in pairs.iter().enumerate() {
        let (src, dst) = gen::batch_hosts(i);
        w.plan_injection(src, dst, SimDuration::from_micros(500), 200, SimTime::ZERO);
    }
    let r = w.run(horizon());
    let crashes = w.controller_crashes();
    let recoveries = w.runtime().stats().recoveries;
    (obs, r, crashes, recoveries)
}

#[test]
fn chaos_faults_reach_the_recorder_and_dumps_replay_byte_identically() {
    let (obs, r, crashes, recoveries) = chaotic_run();
    assert_eq!(crashes, 1);
    assert_eq!(recoveries, 1);
    assert!(r.updates.iter().all(|u| u.completed.is_some()));
    assert!(!r.violations.any(), "this chaos scenario stays safe");

    // every injected fault is counted, with its taxonomy code
    let reg = obs.registry();
    assert_eq!(reg.events(EventKind::Fault), 3, "LinkDown + Crash + LinkUp");
    assert_eq!(reg.events(EventKind::CrashRecover), 1);
    assert!(reg.events(EventKind::JournalReplay) >= 1);

    // crash recovery dumped the flight recorder; the dump carries the
    // fault events that led up to it (LinkDown aux=1, crash aux=4)
    let dumps = obs.dumps();
    assert!(
        dumps.iter().any(|d| d.reason == DumpReason::CrashRecovery),
        "crash recovery must dump"
    );
    let crash_dump = dumps
        .iter()
        .find(|d| d.reason == DumpReason::CrashRecovery)
        .unwrap();
    assert!(crash_dump
        .json
        .contains("\"kind\":\"fault\",\"dp\":4,\"aux\":1"));
    assert!(crash_dump.json.contains("\"kind\":\"fault\",\"aux\":4"));

    // the whole record replays byte for byte under the same seed
    let (obs2, _, _, _) = chaotic_run();
    let a: Vec<String> = obs.dumps().into_iter().map(|d| d.json).collect();
    let b: Vec<String> = obs2.dumps().into_iter().map(|d| d.json).collect();
    assert!(!a.is_empty());
    assert_eq!(a, b, "dumps must be byte-identical across replays");
    assert_eq!(
        obs.prometheus(),
        obs2.prometheus(),
        "the whole metrics page replays identically too"
    );
}
