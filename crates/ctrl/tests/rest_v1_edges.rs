//! REST v1 edge cases end-to-end: the legacy-path `308` redirect
//! bodies asserted byte for byte (pre-v1 clients parse these blind, so
//! the exact bytes are the contract), and the trace and metrics
//! endpoints' edge contract.

use sdn_ctrl::compile::{CompiledRound, CompiledUpdate};
use sdn_ctrl::rest::json;
use sdn_ctrl::rest::router::{dispatch, Endpoint};
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
