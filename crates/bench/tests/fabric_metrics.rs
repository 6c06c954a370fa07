//! The fabric's metrics page, read after E10's chaos leg (4 shards,
//! journal on, half the flows cross-shard, controller crash at 3 ms)
//! with observability recording: every number has one source, so one
//! crash reads as one recovery however many runtimes rebuilt, and the
//! commit-event count is the runtime's completed count.

use sdn_bench::workload::{
    assignment, disjoint_flows, patient_runtime, run_fabric, PER_SHARD_ACTIVE,
};
use sdn_ctrl::rest::metrics::metrics_response;
use sdn_obs::{prometheus, Obs};
use sdn_types::{SimDuration, SimTime};

#[test]
fn e10_chaos_leg_reports_one_recovery_and_one_commit_per_completed_update() {
    let pairs = disjoint_flows(8);
    let obs = Obs::recording();
    let run = run_fabric(
        &pairs,
        assignment(&pairs, 4, pairs.len() / 2),
        patient_runtime(PER_SHARD_ACTIVE),
        true,
        Some(SimTime::ZERO + SimDuration::from_millis(3)),
        obs.clone(),
    );
    assert_eq!(run.world.controller_crashes(), 1, "the leg must crash");
    let runtime = run.world.runtime();
    let stats = runtime.stats();
    assert!(stats.completed > 0, "work completes across the crash");

    let page = metrics_response(&obs, &runtime.status_report()).body;
    prometheus::validate(&page).expect("the recording page validates");
    assert!(
        page.contains("\nsdn_status_recoveries_total 1\n"),
        "one crash, one recovery:\n{page}"
    );
    let commits = format!(
        "\nsdn_events_total{{kind=\"commit\"}} {}\n",
        stats.completed
    );
    assert!(page.contains(&commits), "want {commits:?} in:\n{page}");
    // the event count is not the recovery count: every rebuilt runtime
    // (4 shards, the coordinator runtime) and the fabric emit one
    assert!(page.contains("\nsdn_events_total{kind=\"crash_recover\"} 6\n"));

    let off = metrics_response(&Obs::disabled(), &runtime.status_report()).body;
    prometheus::validate(&off).expect("the disabled page validates");
    assert!(off.contains("\nsdn_status_recoveries_total 1\n"));
}
