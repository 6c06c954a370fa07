//! Quickstart: schedule a transiently secure policy update and verify
//! every transient state.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use transient_updates::prelude::*;
use update_core::metrics::ScheduleStats;

fn main() {
    // A policy update: move the flow from the old route to the new
    // route, never bypassing the firewall at s3 — even transiently.
    let old = RoutePath::from_raw(&[1, 2, 3, 4, 5, 6, 12]).expect("valid route");
    let new = RoutePath::from_raw(&[1, 7, 3, 8, 9, 10, 11, 12]).expect("valid route");
    let inst = UpdateInstance::new(old, new, Some(DpId(3))).expect("valid instance");
    println!("update: {inst}\n");

    // WayUp: waypoint enforcement + weak loop freedom, in rounds.
    let schedule = WayUp::default().schedule(&inst).expect("schedulable");
    println!("{schedule}");
    println!("stats: {}\n", ScheduleStats::of(&schedule));

    // The checker walks every transient configuration a round can
    // expose (each round is closed by OpenFlow barriers, so only the
    // current round's subsets are reachable).
    let report = verify_schedule(&inst, &schedule, PropertySet::transiently_secure());
    println!("verification: {report}");
    assert!(report.is_ok());

    // Compare: the naive one-shot update fails verification.
    let naive = OneShot.schedule(&inst).expect("always schedules");
    let naive_report = verify_schedule(&inst, &naive, PropertySet::transiently_secure());
    println!("\none-shot verification:\n{naive_report}");
    assert!(!naive_report.is_ok());

    // Peacock handles waypoint-free updates in few rounds even when
    // strong loop freedom would need Θ(n).
    let reversal = sdn_topo::gen::reversal(32);
    let rev_inst = UpdateInstance::new(reversal.old, reversal.new, None).expect("valid");
    let peacock = Peacock::default().schedule(&rev_inst).expect("schedulable");
    let slf = SlfGreedy.schedule(&rev_inst).expect("schedulable");
    println!(
        "\nreversal n=32: peacock {} rounds vs slf-greedy {} rounds",
        peacock.round_count(),
        slf.round_count()
    );
}
