//! Structured REST responses: submission outcomes and request errors.
//!
//! The demo's Ryu app answered every request `200 OK`; with a bounded
//! admission queue the controller must be able to say *no* — and say
//! it in a form clients can act on. Responses are `(status code,
//! JSON body)` pairs in the demo's own JSON dialect:
//!
//! * [`submit_response`] — `202` with the job id for an accepted
//!   update, `429`, `503` or `422` for a typed refusal;
//! * [`error_response`] — `400/413 {"status":"error",...}` for a
//!   malformed or over-limit request, with the parser's byte offset
//!   when available.

use std::collections::BTreeMap;

use crate::rest::json::Json;
use crate::rest::request::RequestError;
use crate::runtime::{SubmitError, SubmitOutcome};

/// An HTTP-ish status code plus a JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (202, 400, 413, 503).
    pub status: u16,
    /// Rendered JSON body.
    pub body: String,
}

fn render(fields: Vec<(&str, Json)>) -> String {
    let map: BTreeMap<String, Json> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Json::Obj(map).render()
}

/// The v1 response for a [`SubmitOutcome`]. Tickets answer `202` with
/// the job id and placement; refusals are typed:
///
/// * `429 {"status":"rejected","reason":"quota exceeded","tenant":3,
///   "limit":2,"in_flight":2,"retry":true}` — the tenant's in-flight
///   budget is spent; retrying after a completion is sound;
/// * `503 {"status":"rejected","reason":"queue full","retry":true}` —
///   queue backpressure; the client should retry later;
/// * `422 {"retry":false}` — the deadline had already passed at
///   submission, so the identical request can never succeed.
pub fn submit_response(outcome: &SubmitOutcome) -> Response {
    match outcome {
        Ok(ticket) => {
            let mut fields = vec![
                ("status", Json::Str("queued".into())),
                ("job", Json::Num(ticket.job.0 as f64)),
                ("queued", Json::Num(ticket.queued as f64)),
                ("cross_shard", Json::Bool(ticket.cross_shard)),
            ];
            if let Some(shard) = ticket.shard {
                fields.push(("shard", Json::Num(shard as f64)));
            }
            Response {
                status: 202,
                body: render(fields),
            }
        }
        Err(SubmitError::QuotaExceeded {
            tenant,
            limit,
            in_flight,
        }) => Response {
            status: 429,
            body: render(vec![
                ("status", Json::Str("rejected".into())),
                ("reason", Json::Str("quota exceeded".into())),
                ("tenant", Json::Num(tenant.0 as f64)),
                ("limit", Json::Num(*limit as f64)),
                ("in_flight", Json::Num(*in_flight as f64)),
                ("retry", Json::Bool(true)),
            ]),
        },
        Err(SubmitError::QueueFull) => Response {
            status: 503,
            body: render(vec![
                ("status", Json::Str("rejected".into())),
                ("reason", Json::Str("queue full".into())),
                ("retry", Json::Bool(true)),
            ]),
        },
        Err(SubmitError::DeadlineExpired) => Response {
            status: 422,
            body: render(vec![
                ("status", Json::Str("rejected".into())),
                ("reason", Json::Str("deadline already expired".into())),
                ("retry", Json::Bool(false)),
            ]),
        },
    }
}

/// The response for a request that failed parsing/validation.
/// Limit violations answer `413` (payload too large / too much work);
/// everything else is a `400`.
pub fn error_response(err: &RequestError) -> Response {
    let status = if err.is_limit() { 413 } else { 400 };
    let mut fields = vec![
        ("status", Json::Str("error".into())),
        ("detail", Json::Str(err.to_string())),
    ];
    if let RequestError::BadJson(e) = err {
        fields.push(("at", Json::Num(e.at as f64)));
    }
    Response {
        status,
        body: render(fields),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::json;
    use crate::rest::request::UpdateRequest;
    use crate::runtime::conflict::JobId;

    #[test]
    fn submit_ticket_names_shard_and_protocol() {
        use crate::runtime::SubmitTicket;
        let r = submit_response(&Ok(SubmitTicket {
            job: JobId(4294967296),
            shard: Some(2),
            queued: 1,
            cross_shard: false,
        }));
        assert_eq!(r.status, 202);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("queued"));
        assert_eq!(v.get("job").unwrap().as_u64(), Some(4294967296));
        assert_eq!(v.get("queued").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("cross_shard").unwrap().as_bool(), Some(false));

        let r = submit_response(&Ok(SubmitTicket {
            job: JobId(9),
            shard: None,
            queued: 0,
            cross_shard: true,
        }));
        let v = json::parse(&r.body).unwrap();
        assert!(v.get("shard").is_none(), "coordinator-owned: no shard");
        assert_eq!(v.get("cross_shard").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn quota_rejection_is_429_with_structured_body() {
        use crate::runtime::TenantId;
        let r = submit_response(&Err(SubmitError::QuotaExceeded {
            tenant: TenantId(3),
            limit: 2,
            in_flight: 2,
        }));
        assert_eq!(r.status, 429);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("limit").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("in_flight").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("retry").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn queue_full_and_expired_deadline_differ_in_retryability() {
        let r = submit_response(&Err(SubmitError::QueueFull));
        assert_eq!(r.status, 503);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("rejected"));
        assert_eq!(v.get("retry").unwrap().as_bool(), Some(true));
        let r = submit_response(&Err(SubmitError::DeadlineExpired));
        assert_eq!(r.status, 422);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("retry").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn syntax_error_is_400_with_offset() {
        let err = UpdateRequest::parse("{\"a\": @}").unwrap_err();
        let r = error_response(&err);
        assert_eq!(r.status, 400);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("at").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn limit_error_is_413() {
        let deep = format!(
            r#"{{"oldpath":[1,2],"newpath":[1,2],"x":{}{}}}"#,
            "[".repeat(30),
            "]".repeat(30)
        );
        let err = UpdateRequest::parse(&deep).unwrap_err();
        let r = error_response(&err);
        assert_eq!(r.status, 413);
    }
}
