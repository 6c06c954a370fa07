//! Workspace smoke test: the facade `prelude` quickstart promised by
//! the `src/lib.rs` rustdoc must compile and run as written. The same
//! snippet also runs as a doctest; this copy keeps the guarantee even
//! when doctests are filtered out, and asserts a little more about the
//! result.

use transient_updates::prelude::*;

#[test]
fn quickstart_from_lib_rustdoc_runs() {
    // The paper's Figure 1: 12 switches, h1@s1, h2@s12, waypoint s3.
    let fig = sdn_topo::builders::figure1();
    let inst = UpdateInstance::new(
        fig.old_route.clone(),
        fig.new_route.clone(),
        Some(fig.waypoint),
    )
    .expect("valid instance");

    // Schedule the update with WayUp and verify every transient state.
    let schedule = WayUp::default().schedule(&inst).expect("schedulable");
    let report = verify_schedule(&inst, &schedule, PropertySet::transiently_secure());
    assert!(report.is_ok(), "{report}");

    // The facade re-exports must expose a usable schedule.
    assert!(schedule.round_count() >= 1);
}

#[test]
fn prelude_reexports_cover_all_schedulers() {
    let fig = sdn_topo::builders::figure1();
    let inst = UpdateInstance::new(fig.old_route.clone(), fig.new_route.clone(), None)
        .expect("valid instance");

    // Every scheduler the prelude exports produces a verifiable
    // schedule for its own target property set.
    let peacock = Peacock::default().schedule(&inst).expect("peacock");
    assert!(verify_schedule(&inst, &peacock, PropertySet::loop_free_relaxed()).is_ok());

    let slf = SlfGreedy.schedule(&inst).expect("slf");
    assert!(verify_schedule(&inst, &slf, PropertySet::loop_free_strong()).is_ok());

    let two_phase = TwoPhaseCommit.schedule(&inst).expect("two-phase");
    assert!(verify_schedule(&inst, &two_phase, PropertySet::all()).is_ok());

    let one_shot = OneShot.schedule(&inst).expect("one-shot");
    assert!(!one_shot.fallback);
}
