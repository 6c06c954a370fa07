//! Versioned endpoint routing: `/v1/*` plus legacy-path redirects.
//!
//! The REST surface grew unversioned out of the demo's Ryu paths
//! (`POST /stats/update`, `GET /status`); the fabric redesign is the
//! moment to version it. All live endpoints sit under `/v1/`:
//!
//! * `POST /v1/update` — submit an update (answered by
//!   [`submit_response`](crate::rest::response::submit_response),
//!   including `429` quota refusals);
//! * `GET /v1/status` — shard- and tenant-aware runtime introspection
//!   ([`status_response`](crate::rest::status::status_response));
//! * `GET /v1/metrics` — Prometheus text exposition;
//! * `GET /v1/trace/{job}` — one update's span tree.
//!
//! Legacy paths answer `308 Permanent Redirect` to their v1 homes, so
//! pre-fabric clients keep working after one extra round trip and
//! their operators see the new location in every response. `308` (not
//! `301`) because it forbids the method rewrite some clients apply on
//! `301`, and a redirected `POST /update` must stay a `POST`.
//!
//! Like the rest of the REST layer this is transport-agnostic: the
//! router maps `(method, path)` to an [`Endpoint`] and the embedding
//! binary owns sockets and handler wiring.

use crate::rest::json::Json;
use crate::rest::response::Response;

/// A live (v1) API endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/update`: submit an update.
    Submit,
    /// `GET /v1/status`: runtime introspection.
    Status,
    /// `GET /v1/metrics`: Prometheus text exposition.
    Metrics,
    /// `GET /v1/trace/{job}`: one update's span tree.
    Trace(u64),
}

/// Where a `(method, path)` pair leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A live endpoint; dispatch to its handler.
    Endpoint(Endpoint),
    /// A legacy path; answer `308` pointing at `location`.
    Moved {
        /// The v1 home of the legacy path.
        location: &'static str,
    },
    /// The path exists but not under this method; answer `405`.
    MethodNotAllowed {
        /// The method the path does accept.
        allow: &'static str,
    },
    /// Nothing lives here; answer `404`.
    NotFound,
}

/// Map a request line to its route. Methods are case-sensitive
/// uppercase, per HTTP.
pub fn route(method: &str, path: &str) -> Route {
    // a query string never selects the endpoint (no v1 endpoint takes
    // query parameters, so they are simply ignored), and one trailing
    // slash is tolerated on every path
    let path = path.split('?').next().unwrap_or(path);
    let path = if path.len() > 1 {
        path.strip_suffix('/').unwrap_or(path)
    } else {
        path
    };
    // the one parameterised path: /v1/trace/{job}
    if let Some(job) = path.strip_prefix("/v1/trace/") {
        return match job.parse::<u64>() {
            Ok(job) if method == "GET" => Route::Endpoint(Endpoint::Trace(job)),
            Ok(_) => Route::MethodNotAllowed { allow: "GET" },
            Err(_) => Route::NotFound,
        };
    }
    match (method, path) {
        ("POST", "/v1/update") => Route::Endpoint(Endpoint::Submit),
        ("GET", "/v1/status") => Route::Endpoint(Endpoint::Status),
        ("GET", "/v1/metrics") => Route::Endpoint(Endpoint::Metrics),
        // legacy paths: the pre-v1 surface and the demo's original
        // Ryu-style path, all pointing at their v1 homes
        ("POST", "/update") | ("POST", "/stats/update") => Route::Moved {
            location: "/v1/update",
        },
        ("GET", "/status") => Route::Moved {
            location: "/v1/status",
        },
        (_, "/v1/update") | (_, "/update") | (_, "/stats/update") => {
            Route::MethodNotAllowed { allow: "POST" }
        }
        (_, "/v1/status") | (_, "/v1/metrics") | (_, "/status") => {
            Route::MethodNotAllowed { allow: "GET" }
        }
        _ => Route::NotFound,
    }
}

/// The `308 Permanent Redirect` for a legacy path. The body carries
/// the target too, because this JSON dialect has no header channel.
pub fn redirect_response(location: &str) -> Response {
    Response {
        status: 308,
        body: Json::Obj(
            [
                ("status".to_string(), Json::Str("moved".into())),
                ("location".to_string(), Json::Str(location.into())),
            ]
            .into_iter()
            .collect(),
        )
        .render(),
    }
}

/// The `405` for a known path under the wrong method.
pub fn method_not_allowed_response(allow: &str) -> Response {
    Response {
        status: 405,
        body: Json::Obj(
            [
                ("status".to_string(), Json::Str("error".into())),
                ("allow".to_string(), Json::Str(allow.into())),
            ]
            .into_iter()
            .collect(),
        )
        .render(),
    }
}

/// The `404` for a path nothing owns.
pub fn not_found_response() -> Response {
    Response {
        status: 404,
        body: Json::Obj(
            [
                ("status".to_string(), Json::Str("error".into())),
                ("detail".to_string(), Json::Str("no such endpoint".into())),
            ]
            .into_iter()
            .collect(),
        )
        .render(),
    }
}

/// Resolve a route all the way to a response for everything that is
/// *not* a live endpoint; `Ok(endpoint)` hands live traffic back to
/// the caller's handlers.
pub fn dispatch(method: &str, path: &str) -> Result<Endpoint, Response> {
    match route(method, path) {
        Route::Endpoint(e) => Ok(e),
        Route::Moved { location } => Err(redirect_response(location)),
        Route::MethodNotAllowed { allow } => Err(method_not_allowed_response(allow)),
        Route::NotFound => Err(not_found_response()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::json;

    #[test]
    fn v1_endpoints_are_live() {
        assert_eq!(
            route("POST", "/v1/update"),
            Route::Endpoint(Endpoint::Submit)
        );
        assert_eq!(
            route("GET", "/v1/status"),
            Route::Endpoint(Endpoint::Status)
        );
        assert_eq!(
            route("GET", "/v1/metrics"),
            Route::Endpoint(Endpoint::Metrics)
        );
    }

    #[test]
    fn legacy_paths_redirect_with_308() {
        for (method, path, home) in [
            ("POST", "/update", "/v1/update"),
            ("POST", "/stats/update", "/v1/update"),
            ("GET", "/status", "/v1/status"),
        ] {
            let Route::Moved { location } = route(method, path) else {
                panic!("{method} {path} must redirect");
            };
            assert_eq!(location, home);
            let r = redirect_response(location);
            assert_eq!(r.status, 308);
            let v = json::parse(&r.body).unwrap();
            assert_eq!(v.get("location").unwrap().as_str(), Some(home));
        }
    }

    #[test]
    fn wrong_method_names_the_right_one() {
        assert_eq!(
            route("GET", "/v1/update"),
            Route::MethodNotAllowed { allow: "POST" }
        );
        assert_eq!(
            route("POST", "/v1/status"),
            Route::MethodNotAllowed { allow: "GET" }
        );
        let r = method_not_allowed_response("POST");
        assert_eq!(r.status, 405);
    }

    #[test]
    fn unknown_paths_404() {
        assert_eq!(route("GET", "/v2/update"), Route::NotFound);
        assert_eq!(route("GET", "/"), Route::NotFound);
        assert_eq!(not_found_response().status, 404);
    }

    #[test]
    fn rebalance_paths_are_gone() {
        for path in ["/v1/rebalance", "/v1/rebalance/apply"] {
            for method in ["GET", "POST", "PUT"] {
                assert_eq!(route(method, path), Route::NotFound, "{method} {path}");
                assert_eq!(dispatch(method, path).unwrap_err().status, 404);
            }
        }
    }

    #[test]
    fn dispatch_folds_non_endpoints_to_responses() {
        assert_eq!(dispatch("POST", "/v1/update"), Ok(Endpoint::Submit));
        assert_eq!(dispatch("POST", "/update").unwrap_err().status, 308);
        assert_eq!(dispatch("DELETE", "/status").unwrap_err().status, 405);
        assert_eq!(dispatch("GET", "/nope").unwrap_err().status, 404);
    }
}
