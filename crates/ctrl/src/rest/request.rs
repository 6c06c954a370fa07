//! The WayUp REST request format.
//!
//! From the paper (§2): *"The WayUp REST request consists of a header
//! part and a body part. The header part consists of the input
//! parameters of WayUp. These are the old route, the new route, the
//! waypoint, and the time interval."* Routes are lists of datapath
//! numbers ordered "in the way they are passed by the network packets
//! along the route".
//!
//! ```json
//! {
//!   "oldpath": [1, 2, 3, 4, 5, 6, 12],
//!   "newpath": [1, 7, 3, 8, 9, 10, 11, 12],
//!   "wp": 3,
//!   "interval": 100
//! }
//! ```
//!
//! The body part of the original format carried raw OpenFlow messages
//! for Ryu's `/stats/flowentry/add` endpoint; this controller compiles
//! FlowMods from the routes itself (see [`crate::compile`]), so the
//! body is optional and an `"algorithm"` field selects the scheduler
//! instead.

use std::collections::BTreeMap;
use std::fmt;

use sdn_topo::route::{RouteError, RoutePath};
use sdn_types::{DpId, SimDuration, SimTime};
use update_core::model::{InstanceError, UpdateInstance};

use crate::compile::CompiledUpdate;
use crate::runtime::{Priority, SubmitRequest, TenantId};

use super::json::{self, Json, ParseLimits};

/// Longest accepted route, in hops — covers the n=4096-scale
/// workloads with headroom while keeping a hostile request's cost
/// bounded.
pub const MAX_PATH_HOPS: usize = 8192;

/// Bounds applied to REST request documents before and during
/// parsing. A conforming request is two routes, three scalars and a
/// short algorithm name; anything larger is noise or an attack.
pub const REQUEST_LIMITS: ParseLimits = ParseLimits {
    max_bytes: 256 * 1024,
    max_depth: 8,
    max_fields: 64,
    max_elements: 2 * MAX_PATH_HOPS + 64,
    max_string_bytes: 256,
};

/// A parsed update request.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The old route (datapath numbers, packet order).
    pub old_path: Vec<u64>,
    /// The new route.
    pub new_path: Vec<u64>,
    /// The waypoint, when the update must enforce one.
    pub waypoint: Option<u64>,
    /// Packet-injection interval in milliseconds (the demo uses this
    /// to pace its probe traffic).
    pub interval_ms: Option<u64>,
    /// Scheduler selection: `"wayup"` (default when `wp` present),
    /// `"peacock"`, `"slf-greedy"`, `"two-phase"`, `"one-shot"`.
    pub algorithm: Option<String>,
    /// Submitting tenant for admission-quota accounting (v1 API);
    /// tenant `0` when absent.
    pub tenant: Option<u32>,
    /// Admission lane: `"normal"` (default) or `"high"`.
    pub priority: Option<Priority>,
    /// Submission deadline, milliseconds from receipt; an update still
    /// queued past it fails instead of dispatching stale intent.
    pub deadline_ms: Option<u64>,
}

/// Request parsing/validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The document is not valid JSON, or it blew a parser work limit
    /// (the [`json::JsonErrorKind`] distinguishes the two).
    BadJson(json::JsonError),
    /// A required field is missing.
    MissingField(&'static str),
    /// A field has the wrong type/shape.
    BadField(&'static str),
    /// A route exceeds [`MAX_PATH_HOPS`].
    PathTooLong(&'static str, usize),
    /// The routes do not form a valid path.
    BadRoute(RouteError),
    /// The routes/waypoint do not form a valid update instance.
    BadInstance(InstanceError),
}

impl RequestError {
    /// Whether the request was refused for exceeding a size/work
    /// limit (as opposed to being malformed) — the REST layer answers
    /// these with a payload-too-large response rather than a plain
    /// bad-request.
    pub fn is_limit(&self) -> bool {
        match self {
            RequestError::BadJson(e) => e.kind != json::JsonErrorKind::Syntax,
            RequestError::PathTooLong(..) => true,
            _ => false,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::BadJson(e) => write!(f, "{e}"),
            RequestError::MissingField(k) => write!(f, "missing field \"{k}\""),
            RequestError::BadField(k) => write!(f, "field \"{k}\" has the wrong type"),
            RequestError::PathTooLong(k, n) => {
                write!(f, "field \"{k}\" has {n} hops, limit {MAX_PATH_HOPS}")
            }
            RequestError::BadRoute(e) => write!(f, "bad route: {e}"),
            RequestError::BadInstance(e) => write!(f, "bad update instance: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

fn path_field(v: &Json, key: &'static str) -> Result<Vec<u64>, RequestError> {
    let arr = v
        .get(key)
        .ok_or(RequestError::MissingField(key))?
        .as_array()
        .ok_or(RequestError::BadField(key))?;
    if arr.len() > MAX_PATH_HOPS {
        return Err(RequestError::PathTooLong(key, arr.len()));
    }
    arr.iter()
        .map(|x| x.as_u64().ok_or(RequestError::BadField(key)))
        .collect()
}

impl UpdateRequest {
    /// Parse a request document under [`REQUEST_LIMITS`].
    pub fn parse(doc: &str) -> Result<Self, RequestError> {
        let v = json::parse_with(doc, &REQUEST_LIMITS).map_err(RequestError::BadJson)?;
        let old_path = path_field(&v, "oldpath")?;
        let new_path = path_field(&v, "newpath")?;
        let waypoint = match v.get("wp") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_u64().ok_or(RequestError::BadField("wp"))?),
        };
        let interval_ms = match v.get("interval") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_u64().ok_or(RequestError::BadField("interval"))?),
        };
        let algorithm = match v.get("algorithm") {
            None | Some(Json::Null) => None,
            Some(x) => Some(
                x.as_str()
                    .ok_or(RequestError::BadField("algorithm"))?
                    .to_string(),
            ),
        };
        let tenant = match v.get("tenant") {
            None | Some(Json::Null) => None,
            Some(x) => {
                let t = x.as_u64().ok_or(RequestError::BadField("tenant"))?;
                Some(u32::try_from(t).map_err(|_| RequestError::BadField("tenant"))?)
            }
        };
        let priority = match v.get("priority") {
            None | Some(Json::Null) => None,
            Some(x) => match x.as_str() {
                Some("normal") => Some(Priority::Normal),
                Some("high") => Some(Priority::High),
                _ => return Err(RequestError::BadField("priority")),
            },
        };
        let deadline_ms = match v.get("deadline") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_u64().ok_or(RequestError::BadField("deadline"))?),
        };
        Ok(UpdateRequest {
            old_path,
            new_path,
            waypoint,
            interval_ms,
            algorithm,
            tenant,
            priority,
            deadline_ms,
        })
    }

    /// Fold the request's submission intent (tenant, lane, deadline)
    /// around an already-compiled update. `now` anchors the relative
    /// `deadline` field to an absolute launch cutoff.
    pub fn to_submission(&self, update: CompiledUpdate, now: SimTime) -> SubmitRequest {
        let mut req = SubmitRequest::new(update);
        if let Some(t) = self.tenant {
            req = req.tenant(TenantId(t));
        }
        if let Some(p) = self.priority {
            req = req.priority(p);
        }
        if let Some(ms) = self.deadline_ms {
            req = req.deadline(now + SimDuration::from_millis(ms));
        }
        req
    }

    /// Build the validated update instance this request describes.
    pub fn to_instance(&self) -> Result<UpdateInstance, RequestError> {
        let old = RoutePath::from_raw(&self.old_path).map_err(RequestError::BadRoute)?;
        let new = RoutePath::from_raw(&self.new_path).map_err(RequestError::BadRoute)?;
        UpdateInstance::new(old, new, self.waypoint.map(DpId)).map_err(RequestError::BadInstance)
    }

    /// Serialize back to the REST format.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert(
            "oldpath".to_string(),
            Json::Arr(self.old_path.iter().map(|&x| Json::Num(x as f64)).collect()),
        );
        obj.insert(
            "newpath".to_string(),
            Json::Arr(self.new_path.iter().map(|&x| Json::Num(x as f64)).collect()),
        );
        if let Some(w) = self.waypoint {
            obj.insert("wp".to_string(), Json::Num(w as f64));
        }
        if let Some(i) = self.interval_ms {
            obj.insert("interval".to_string(), Json::Num(i as f64));
        }
        if let Some(a) = &self.algorithm {
            obj.insert("algorithm".to_string(), Json::Str(a.clone()));
        }
        if let Some(t) = self.tenant {
            obj.insert("tenant".to_string(), Json::Num(t as f64));
        }
        if let Some(p) = self.priority {
            let name = match p {
                Priority::Normal => "normal",
                Priority::High => "high",
            };
            obj.insert("priority".to_string(), Json::Str(name.into()));
        }
        if let Some(d) = self.deadline_ms {
            obj.insert("deadline".to_string(), Json::Num(d as f64));
        }
        Json::Obj(obj).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO_DOC: &str = r#"{
        "oldpath": [1, 2, 3, 4, 5, 6, 12],
        "newpath": [1, 7, 3, 8, 9, 10, 11, 12],
        "wp": 3,
        "interval": 100
    }"#;

    #[test]
    fn parses_the_paper_example() {
        let r = UpdateRequest::parse(DEMO_DOC).unwrap();
        assert_eq!(r.old_path, vec![1, 2, 3, 4, 5, 6, 12]);
        assert_eq!(r.new_path, vec![1, 7, 3, 8, 9, 10, 11, 12]);
        assert_eq!(r.waypoint, Some(3));
        assert_eq!(r.interval_ms, Some(100));
        assert_eq!(r.algorithm, None);
    }

    #[test]
    fn builds_valid_instance() {
        let r = UpdateRequest::parse(DEMO_DOC).unwrap();
        let inst = r.to_instance().unwrap();
        assert_eq!(inst.waypoint(), Some(DpId(3)));
        assert_eq!(inst.src(), DpId(1));
        assert_eq!(inst.dst(), DpId(12));
    }

    /// Dpids are u64 and 0 and 2⁶⁴−1 are both valid: the instance's
    /// dense switch index must not size a table by their span (it
    /// wrapped to 0 and indexed an empty table). JSON numbers carry
    /// only 53 bits, so such a request reaches the model built here,
    /// not through `parse`, which refuses the literal.
    #[test]
    fn extreme_dpid_span_schedules() {
        use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler, WayUp};
        assert!(UpdateRequest::parse(
            r#"{"oldpath":[0,3,5,18446744073709551615],
                "newpath":[0,5,3,18446744073709551615],"wp":5}"#,
        )
        .is_err());
        let r = UpdateRequest {
            old_path: vec![0, 3, 5, u64::MAX],
            new_path: vec![0, 5, 3, u64::MAX],
            waypoint: Some(5),
            interval_ms: None,
            algorithm: None,
            tenant: None,
            priority: None,
            deadline_ms: None,
        };
        let inst = r.to_instance().unwrap();
        let schedulers: [&dyn UpdateScheduler; 3] = [
            &Peacock::default(),
            &SlfGreedy::default(),
            &WayUp::default(),
        ];
        for s in schedulers {
            let schedule = s.schedule(&inst).unwrap();
            assert!(schedule.round_count() >= 1, "{}", s.name());
        }
    }

    /// 2⁵³ + 1 is the first integer an `f64` cannot hold: it parsed
    /// as 2⁵³, and the update addressed a different switch.
    #[test]
    fn dpid_beyond_f64_precision_rejected() {
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,9007199254740993,3],"newpath":[1,3]}"#),
            Err(RequestError::BadField("oldpath"))
        );
        let r =
            UpdateRequest::parse(r#"{"oldpath":[1,9007199254740991,3],"newpath":[1,3]}"#).unwrap();
        assert_eq!(r.old_path[1], (1 << 53) - 1);
    }

    /// 2⁶⁴ does not fit a dpid at all: it saturated to `u64::MAX`.
    #[test]
    fn dpid_beyond_u64_rejected() {
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,18446744073709551616,2]}"#),
            Err(RequestError::BadField("newpath"))
        );
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2],"wp":18446744073709551616}"#),
            Err(RequestError::BadField("wp"))
        );
    }

    #[test]
    fn optional_fields_absent() {
        let r = UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2]}"#).unwrap();
        assert_eq!(r.waypoint, None);
        assert_eq!(r.interval_ms, None);
    }

    #[test]
    fn algorithm_selector() {
        let r = UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2],"algorithm":"peacock"}"#)
            .unwrap();
        assert_eq!(r.algorithm.as_deref(), Some("peacock"));
    }

    #[test]
    fn missing_fields_rejected() {
        assert_eq!(
            UpdateRequest::parse(r#"{"newpath":[1,2]}"#),
            Err(RequestError::MissingField("oldpath"))
        );
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2]}"#),
            Err(RequestError::MissingField("newpath"))
        );
    }

    #[test]
    fn wrong_types_rejected() {
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":"nope","newpath":[1,2]}"#),
            Err(RequestError::BadField("oldpath"))
        );
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,-2],"newpath":[1,2]}"#),
            Err(RequestError::BadField("oldpath"))
        );
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2],"wp":"x"}"#),
            Err(RequestError::BadField("wp"))
        );
    }

    #[test]
    fn bad_json_rejected() {
        let err = UpdateRequest::parse("{").unwrap_err();
        assert!(matches!(err, RequestError::BadJson(_)));
        assert!(!err.is_limit());
    }

    #[test]
    fn oversized_document_rejected_before_parsing() {
        let doc = format!(
            r#"{{"oldpath":[1,2],"newpath":[1,2],"junk":"{}"}}"#,
            "x".repeat(REQUEST_LIMITS.max_bytes)
        );
        let err = UpdateRequest::parse(&doc).unwrap_err();
        assert!(err.is_limit(), "{err}");
        assert!(matches!(
            err,
            RequestError::BadJson(json::JsonError {
                kind: json::JsonErrorKind::TooLarge,
                ..
            })
        ));
    }

    #[test]
    fn overlong_path_rejected() {
        let hops: Vec<String> = (1..=(MAX_PATH_HOPS as u64 + 1))
            .map(|i| i.to_string())
            .collect();
        let doc = format!(r#"{{"oldpath":[{}],"newpath":[1,2]}}"#, hops.join(","));
        let err = UpdateRequest::parse(&doc).unwrap_err();
        assert!(err.is_limit(), "{err}");
        assert!(matches!(err, RequestError::PathTooLong("oldpath", _)));
        assert!(err.to_string().contains("hops"));
    }

    #[test]
    fn deep_nesting_rejected_by_request_limits() {
        let doc = format!(
            r#"{{"oldpath":[1,2],"newpath":[1,2],"x":{}{}}}"#,
            "[".repeat(20),
            "]".repeat(20)
        );
        let err = UpdateRequest::parse(&doc).unwrap_err();
        assert!(err.is_limit(), "{err}");
    }

    #[test]
    fn field_flood_rejected() {
        let fields: Vec<String> = (0..200).map(|i| format!("\"f{i}\":{i}")).collect();
        let doc = format!(
            r#"{{"oldpath":[1,2],"newpath":[1,2],{}}}"#,
            fields.join(",")
        );
        let err = UpdateRequest::parse(&doc).unwrap_err();
        assert!(err.is_limit(), "{err}");
    }

    #[test]
    fn max_size_conforming_request_accepted() {
        // a big-but-legal request: two 2048-hop routes
        let path: Vec<String> = (1..=2048u64).map(|i| i.to_string()).collect();
        let rev: Vec<String> = std::iter::once(1u64)
            .chain((2..2048).rev())
            .chain(std::iter::once(2048))
            .map(|i| i.to_string())
            .collect();
        let doc = format!(
            r#"{{"oldpath":[{}],"newpath":[{}]}}"#,
            path.join(","),
            rev.join(",")
        );
        let r = UpdateRequest::parse(&doc).unwrap();
        assert_eq!(r.old_path.len(), 2048);
        assert!(r.to_instance().is_ok());
    }

    #[test]
    fn bad_route_rejected() {
        let r = UpdateRequest::parse(r#"{"oldpath":[1,2,1],"newpath":[1,2]}"#).unwrap();
        assert!(matches!(r.to_instance(), Err(RequestError::BadRoute(_))));
    }

    #[test]
    fn bad_instance_rejected() {
        let r = UpdateRequest::parse(r#"{"oldpath":[1,2,3],"newpath":[1,4,3],"wp":2}"#).unwrap();
        assert!(matches!(r.to_instance(), Err(RequestError::BadInstance(_))));
    }

    #[test]
    fn json_roundtrip() {
        let r = UpdateRequest::parse(DEMO_DOC).unwrap();
        let doc2 = r.to_json();
        let r2 = UpdateRequest::parse(&doc2).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn v1_submission_fields_parse_and_roundtrip() {
        let doc = r#"{
            "oldpath": [1, 2], "newpath": [1, 2],
            "tenant": 3, "priority": "high", "deadline": 250
        }"#;
        let r = UpdateRequest::parse(doc).unwrap();
        assert_eq!(r.tenant, Some(3));
        assert_eq!(r.priority, Some(Priority::High));
        assert_eq!(r.deadline_ms, Some(250));
        let r2 = UpdateRequest::parse(&r.to_json()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn v1_submission_fields_default_when_absent() {
        let r = UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2]}"#).unwrap();
        assert_eq!(r.tenant, None);
        assert_eq!(r.priority, None);
        assert_eq!(r.deadline_ms, None);
        let sub = r.to_submission(
            CompiledUpdate {
                label: "u".into(),
                rounds: vec![],
            },
            SimTime(0),
        );
        assert_eq!(sub.tenant, TenantId(0));
        assert_eq!(sub.priority, Priority::Normal);
        assert_eq!(sub.deadline, None);
    }

    #[test]
    fn to_submission_anchors_the_deadline() {
        let doc = r#"{"oldpath":[1,2],"newpath":[1,2],"tenant":7,"deadline":100}"#;
        let r = UpdateRequest::parse(doc).unwrap();
        let now = SimTime(5_000_000);
        let sub = r.to_submission(
            CompiledUpdate {
                label: "u".into(),
                rounds: vec![],
            },
            now,
        );
        assert_eq!(sub.tenant, TenantId(7));
        assert_eq!(sub.deadline, Some(now + SimDuration::from_millis(100)));
    }

    #[test]
    fn bad_submission_fields_rejected() {
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2],"priority":"urgent"}"#),
            Err(RequestError::BadField("priority"))
        );
        assert_eq!(
            UpdateRequest::parse(r#"{"oldpath":[1,2],"newpath":[1,2],"tenant":4294967296}"#),
            Err(RequestError::BadField("tenant"))
        );
    }
}
