//! REST v1 edge cases end-to-end: `POST /v1/rebalance/apply` against a
//! live [`FabricCoordinator`] — malformed bodies, structured `409`
//! refusals, the happy path — plus the legacy-path `308` redirect
//! bodies asserted byte for byte (pre-v1 clients parse these blind, so
//! the exact bytes are the contract).

use sdn_ctrl::compile::{CompiledRound, CompiledUpdate};
use sdn_ctrl::rest::json::{self, Json};
use sdn_ctrl::rest::router::{dispatch, Endpoint};
use sdn_ctrl::rest::status::{
    migrate_error_response, parse_rebalance_apply, rebalance_apply_response, status_response,
    RebalanceApply,
};
use sdn_ctrl::runtime::fabric::{FabricConfig, FabricCoordinator};
use sdn_ctrl::runtime::{Priority, RuntimeHandle};
use sdn_openflow::flow::FlowMatch;
use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
use sdn_types::{DpId, HostId, SimDuration, SimTime};

fn one_switch_job(label: &str, dp: u64) -> CompiledUpdate {
    CompiledUpdate {
        label: label.into(),
        rounds: vec![CompiledRound {
            msgs: vec![(
                DpId(dp),
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Add,
                    priority: 100,
                    matcher: FlowMatch::dst_host(HostId(9)),
                    actions: vec![],
                    cookie: 0,
                }),
            )],
            pre_delay: SimDuration::ZERO,
        }],
    }
}

/// Handle a `POST /v1/rebalance/apply` request against a fabric the
/// way an embedding binary would: route, parse, execute, render.
fn apply(
    fab: &mut FabricCoordinator,
    body: &str,
    now: SimTime,
) -> sdn_ctrl::rest::response::Response {
    match dispatch("POST", "/v1/rebalance/apply") {
        Ok(Endpoint::RebalanceApply) => {}
        other => panic!("router must accept the apply endpoint: {other:?}"),
    }
    let parsed = match parse_rebalance_apply(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let outcome = match parsed {
        RebalanceApply::Move { dp, to } => fab.begin_migration(dp, to, now).map(|()| vec![dp]),
        RebalanceApply::Advice => {
            let report = fab.rebalance_report(4);
            fab.apply_rebalance(&report, now)
        }
    };
    match outcome {
        Ok(migrating) => rebalance_apply_response(&migrating),
        Err(e) => migrate_error_response(&e),
    }
}

#[test]
fn apply_rejects_malformed_bodies_with_400() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    for body in [
        "not json at all",
        "[1,2,3]",
        "42",
        r#"{"dp": 2}"#,
        r#"{"to": 1}"#,
        r#"{"dp": "two", "to": 1}"#,
        r#"{"dp": 2, "to": -1}"#,
    ] {
        let r = apply(&mut fab, body, SimTime(0));
        assert_eq!(r.status, 400, "body {body:?} must be refused: {}", r.body);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert!(v.get("detail").is_some(), "refusal must say why");
    }
    // nothing changed on the fabric
    assert_eq!(fab.stats().migration_aborts, 0);
    assert!(fab.status_report().migrating.is_empty());
}

#[test]
fn apply_unknown_switch_is_a_structured_409() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    let r = apply(&mut fab, r#"{"dp": 99, "to": 0}"#, SimTime(0));
    assert_eq!(r.status, 409);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("conflict"));
    assert_eq!(v.get("reason").unwrap().as_str(), Some("unknown_switch"));
    assert_eq!(v.get("dp").unwrap().as_u64(), Some(99));
}

#[test]
fn apply_same_shard_noop_is_a_structured_409() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    let _ = fab.submit(one_switch_job("warm", 2), SimTime(0), Priority::Normal);
    // dp2 already lives on shard 0 under modulo 2
    let r = apply(&mut fab, r#"{"dp": 2, "to": 0}"#, SimTime(1));
    assert_eq!(r.status, 409);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("reason").unwrap().as_str(), Some("same_shard"));
    assert_eq!(v.get("dp").unwrap().as_u64(), Some(2));
    assert_eq!(v.get("shard").unwrap().as_u64(), Some(0));
}

#[test]
fn apply_mid_migration_repeat_is_a_structured_409() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    // an in-flight job keeps the migration fenced (uncommitted), so
    // the repeat arrives genuinely mid-migration
    let _ = fab.submit(one_switch_job("hold", 2), SimTime(0), Priority::Normal);
    let _ = fab.poll(SimTime(0));
    let first = apply(&mut fab, r#"{"dp": 2, "to": 1}"#, SimTime(1));
    assert_eq!(first.status, 202, "{}", first.body);
    let v = json::parse(&first.body).unwrap();
    let Json::Arr(migrating) = v.get("migrating").unwrap() else {
        panic!("202 must list the migrating switches");
    };
    assert_eq!(migrating[0].as_u64(), Some(2));
    let repeat = apply(&mut fab, r#"{"dp": 2, "to": 1}"#, SimTime(2));
    assert_eq!(repeat.status, 409);
    let v = json::parse(&repeat.body).unwrap();
    assert_eq!(v.get("reason").unwrap().as_str(), Some("already_migrating"));
    assert_eq!(v.get("dp").unwrap().as_u64(), Some(2));
    // the migration itself is still live and visible in /v1/status
    let status = json::parse(&status_response(&fab.status_report()).body).unwrap();
    let Json::Arr(m) = status.get("migrating").unwrap() else {
        panic!("fabric status must carry the migrating list");
    };
    assert_eq!(m[0].as_u64(), Some(2));
}

#[test]
fn apply_advice_body_runs_the_report_and_counters_land_in_status() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    // two hot switches on shard 0, one cool on shard 1 → one advised move
    for (dp, times) in [(2u64, 4), (4, 3), (1, 1)] {
        for i in 0..times {
            let _ = fab.submit(
                one_switch_job(&format!("w{dp}-{i}"), dp),
                SimTime(i),
                Priority::Normal,
            );
        }
    }
    let r = apply(&mut fab, "", SimTime(10));
    assert_eq!(r.status, 202, "{}", r.body);
    // `{}` is the same request
    let again = apply(&mut fab, "{}", SimTime(11));
    assert_eq!(
        again.status, 409,
        "the advised switch is already migrating: {}",
        again.body
    );
    let status = json::parse(&status_response(&fab.status_report()).body).unwrap();
    let stats = status.get("stats").unwrap();
    assert_eq!(stats.get("migration_aborts").unwrap().as_u64(), Some(1));
}

#[test]
fn apply_path_rejects_other_methods() {
    let err = dispatch("GET", "/v1/rebalance/apply").unwrap_err();
    assert_eq!(err.status, 405);
    let v = json::parse(&err.body).unwrap();
    assert_eq!(v.get("allow").unwrap().as_str(), Some("POST"));
}

#[test]
fn legacy_redirect_bodies_are_byte_stable() {
    // pre-v1 clients parse these bodies blind: the exact bytes are the
    // contract, not just the parsed shape
    for (method, path, expected) in [
        (
            "POST",
            "/update",
            r#"{"location":"/v1/update","status":"moved"}"#,
        ),
        (
            "POST",
            "/stats/update",
            r#"{"location":"/v1/update","status":"moved"}"#,
        ),
        (
            "GET",
            "/status",
            r#"{"location":"/v1/status","status":"moved"}"#,
        ),
    ] {
        let r = dispatch(method, path).unwrap_err();
        assert_eq!(r.status, 308);
        assert_eq!(r.body, expected, "{method} {path}");
    }
}

// --- PR 10: the observability surface's edge contract ---------------

#[test]
fn trace_unknown_job_is_a_structured_404() {
    let obs = sdn_obs::Obs::recording();
    match dispatch("GET", "/v1/trace/7") {
        Ok(Endpoint::Trace(7)) => {}
        other => panic!("router must parse the job id: {other:?}"),
    }
    let r = sdn_ctrl::rest::trace::trace_response(&obs, 7);
    assert_eq!(r.status, 404);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
    assert_eq!(v.get("job").unwrap().as_u64(), Some(7));
    assert!(v.get("detail").unwrap().as_str().is_some());

    // a disabled handle records nothing, so every job is unknown
    let off = sdn_obs::Obs::disabled();
    assert_eq!(sdn_ctrl::rest::trace::trace_response(&off, 0).status, 404);
}

#[test]
fn trace_path_rejects_non_numeric_jobs_and_other_methods() {
    // non-numeric {job} is not a live endpoint: 404, not a parse panic
    let err = dispatch("GET", "/v1/trace/abc").unwrap_err();
    assert_eq!(err.status, 404);
    let err = dispatch("GET", "/v1/trace/-1").unwrap_err();
    assert_eq!(err.status, 404);
    // a well-formed job under the wrong method names GET
    let err = dispatch("DELETE", "/v1/trace/42").unwrap_err();
    assert_eq!(err.status, 405);
    let v = json::parse(&err.body).unwrap();
    assert_eq!(v.get("allow").unwrap().as_str(), Some("GET"));
}

#[test]
fn metrics_rejects_other_methods_with_405_naming_get() {
    for method in ["POST", "PUT", "DELETE", "PATCH", "HEAD"] {
        let err = dispatch(method, "/v1/metrics").unwrap_err();
        assert_eq!(err.status, 405, "{method} /v1/metrics");
        let v = json::parse(&err.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("allow").unwrap().as_str(), Some("GET"));
    }
}

#[test]
fn metrics_endpoint_serves_a_valid_prometheus_page() {
    let mut fab = FabricCoordinator::new(FabricConfig {
        shards: 2,
        ..FabricConfig::default()
    });
    let obs = sdn_obs::Obs::recording();
    fab.attach_obs(obs.clone());
    let _ = fab.submit(one_switch_job("m0", 1), SimTime(0), Priority::Normal);
    match dispatch("GET", "/v1/metrics") {
        Ok(Endpoint::Metrics) => {}
        other => panic!("metrics must be live: {other:?}"),
    }
    let r = sdn_ctrl::rest::metrics::metrics_response(&obs, &fab.status_report());
    assert_eq!(r.status, 200);
    sdn_obs::prometheus::validate(&r.body).expect("page must be valid Prometheus text");
    assert!(r.body.contains("sdn_status_submitted_total 1\n"));
    assert!(r.body.contains("sdn_events_total{kind=\"submit\"} 1\n"));
}

#[test]
fn trailing_slashes_and_query_strings_resolve_on_every_v1_path() {
    use sdn_ctrl::rest::router::{route, Route};
    for (method, path, want) in [
        ("POST", "/v1/update/", Endpoint::Submit),
        ("POST", "/v1/update?tenant=3", Endpoint::Submit),
        ("GET", "/v1/status/", Endpoint::Status),
        ("GET", "/v1/status?verbose=1", Endpoint::Status),
        ("GET", "/v1/rebalance/?limit=4", Endpoint::Rebalance),
        ("POST", "/v1/rebalance/apply/", Endpoint::RebalanceApply),
        ("GET", "/v1/metrics/", Endpoint::Metrics),
        ("GET", "/v1/metrics?format=text", Endpoint::Metrics),
        ("GET", "/v1/trace/42/", Endpoint::Trace(42)),
        ("GET", "/v1/trace/42?pretty=1", Endpoint::Trace(42)),
    ] {
        assert_eq!(
            route(method, path),
            Route::Endpoint(want),
            "{method} {path}"
        );
    }
    // only ONE trailing slash is tolerated; a double slash is a 404
    assert_eq!(route("GET", "/v1/status//"), Route::NotFound);
    // and the bare root stays a 404 even though it ends in '/'
    assert_eq!(route("GET", "/"), Route::NotFound);
}
