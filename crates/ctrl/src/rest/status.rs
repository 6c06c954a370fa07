//! `GET /status`: live runtime introspection over REST.
//!
//! The demo's Ryu app had no observability beyond its logs; operators
//! of a bounded, concurrent controller need to see backpressure and
//! retransmission health *before* updates start failing. This module
//! renders a [`StatusReport`] — admission-queue depth, active jobs,
//! outstanding payload acks, aggregate counters, and the per-switch
//! adaptive-RTO table with straggler flags — as a `200 OK` JSON body
//! in the same dialect the rest of the REST layer speaks:
//!
//! ```json
//! {
//!   "status": "ok",
//!   "queued": 3, "active": 2, "pending_acks": 5,
//!   "stats": {"submitted": 9, "completed": 4, ...},
//!   "switches": [
//!     {"dp": 1, "srtt_us": 840.0, "rto_us": 2400.0, "straggler": false},
//!     {"dp": 7, "rto_us": 100000.0, "straggler": true}
//!   ]
//! }
//! ```
//!
//! `srtt_us` is omitted (not `null`) for switches without a sample
//! yet, so clients can distinguish "never measured" from "measured
//! zero".

use std::collections::BTreeMap;

use crate::rest::json::Json;
use crate::rest::response::Response;
use crate::runtime::{RuntimeStats, ShardStatus, StatusReport, SwitchStatus, TenantStatus};

/// One aggregate counter of [`RuntimeStats`], described once: its JSON
/// key under `"stats"` in `GET /v1/status`, its Prometheus family name
/// in `GET /v1/metrics`, its help line, and its accessor.
pub struct StatusField {
    /// JSON key under `"stats"`.
    pub key: &'static str,
    /// Prometheus counter family name. Status-scoped
    /// (`sdn_status_*`), so it can never collide with the obs
    /// registry's own `sdn_*` families on the same page.
    pub prom: &'static str,
    /// One-line meaning, shared by `# HELP` and the README table.
    pub help: &'static str,
    /// Reads this counter out of a stats snapshot.
    pub get: fn(&RuntimeStats) -> u64,
}

/// The single source of truth for the status counters.
/// [`status_response`] renders its JSON from this table, the metrics
/// endpoint appends it as extra counter families, and a docs test
/// regenerates the README table from it — the three can't drift.
pub const STATUS_FIELDS: &[StatusField] = &[
    StatusField {
        key: "submitted",
        prom: "sdn_status_submitted_total",
        help: "Updates offered for execution",
        get: |s| s.submitted,
    },
    StatusField {
        key: "accepted",
        prom: "sdn_status_accepted_total",
        help: "Updates that entered the queue",
        get: |s| s.accepted,
    },
    StatusField {
        key: "rejected",
        prom: "sdn_status_rejected_total",
        help: "Updates refused (backpressure, quota, deadline)",
        get: |s| s.rejected,
    },
    StatusField {
        key: "completed",
        prom: "sdn_status_completed_total",
        help: "Updates that completed every round",
        get: |s| s.completed,
    },
    StatusField {
        key: "failed",
        prom: "sdn_status_failed_total",
        help: "Updates that exhausted a retransmission budget",
        get: |s| s.failed,
    },
    StatusField {
        key: "retransmissions",
        prom: "sdn_status_retransmissions_total",
        help: "Barrier retransmissions across all updates",
        get: |s| s.retransmissions,
    },
    StatusField {
        key: "stragglers",
        prom: "sdn_status_stragglers_total",
        help: "Switches flagged slow while the rest of their round had acknowledged",
        get: |s| s.stragglers,
    },
    StatusField {
        key: "peak_active",
        prom: "sdn_status_peak_active",
        help: "Highest number of simultaneously executing updates observed",
        get: |s| s.peak_active,
    },
    StatusField {
        key: "reconnects",
        prom: "sdn_status_reconnects_total",
        help: "Switch reconnects observed",
        get: |s| s.reconnects,
    },
    StatusField {
        key: "resyncs",
        prom: "sdn_status_resyncs_total",
        help: "Resynchronization audits that converged",
        get: |s| s.resyncs,
    },
    StatusField {
        key: "resynced_rules",
        prom: "sdn_status_resynced_rules_total",
        help: "Missing rules replayed by resynchronization",
        get: |s| s.resynced_rules,
    },
    StatusField {
        key: "quarantined",
        prom: "sdn_status_quarantined_total",
        help: "Switches quarantined after repeated failures",
        get: |s| s.quarantined,
    },
    StatusField {
        key: "recoveries",
        prom: "sdn_status_recoveries_total",
        help: "Crash recoveries this runtime was rebuilt through",
        get: |s| s.recoveries,
    },
];

/// The status-counter table as GitHub markdown — the exact block
/// embedded in `README.md` (a docs test keeps the two identical).
pub fn status_fields_markdown() -> String {
    let mut out = String::from("| `stats` key | Prometheus family | Meaning |\n|---|---|---|\n");
    for f in STATUS_FIELDS {
        out.push_str(&format!("| `{}` | `{}` | {} |\n", f.key, f.prom, f.help));
    }
    out
}

fn duration_us(d: sdn_types::SimDuration) -> Json {
    Json::Num(d.as_nanos() as f64 / 1_000.0)
}

fn switch_json(s: &SwitchStatus) -> Json {
    let mut m = BTreeMap::new();
    m.insert("dp".to_string(), Json::Num(s.dp.0 as f64));
    if let Some(srtt) = s.srtt {
        m.insert("srtt_us".to_string(), duration_us(srtt));
    }
    m.insert("rto_us".to_string(), duration_us(s.rto));
    m.insert("straggler".to_string(), Json::Bool(s.straggler));
    Json::Obj(m)
}

fn shard_json(s: &ShardStatus) -> Json {
    Json::Obj(
        [
            ("shard".to_string(), Json::Num(s.shard as f64)),
            ("queued".to_string(), Json::Num(s.queued as f64)),
            ("active".to_string(), Json::Num(s.active as f64)),
            ("switches".to_string(), Json::Num(s.switches as f64)),
        ]
        .into_iter()
        .collect(),
    )
}

fn tenant_json(t: &TenantStatus) -> Json {
    let mut m = BTreeMap::new();
    m.insert("tenant".to_string(), Json::Num(t.tenant.0 as f64));
    m.insert("in_flight".to_string(), Json::Num(t.in_flight as f64));
    if let Some(q) = t.quota {
        m.insert("quota".to_string(), Json::Num(q as f64));
    }
    Json::Obj(m)
}

/// The `200 OK` response for `GET /status`.
pub fn status_response(report: &StatusReport) -> Response {
    let stats = &report.stats;
    let counters: BTreeMap<String, Json> = STATUS_FIELDS
        .iter()
        .map(|f| (f.key.to_string(), Json::Num((f.get)(stats) as f64)))
        .collect();
    let body: BTreeMap<String, Json> = [
        ("status".to_string(), Json::Str("ok".into())),
        ("queued".to_string(), Json::Num(report.queued as f64)),
        ("active".to_string(), Json::Num(report.active as f64)),
        (
            "pending_acks".to_string(),
            Json::Num(report.pending_acks as f64),
        ),
        ("stats".to_string(), Json::Obj(counters)),
        (
            "switches".to_string(),
            Json::Arr(report.switches.iter().map(switch_json).collect()),
        ),
        (
            "journal_len".to_string(),
            Json::Num(report.journal_len as f64),
        ),
        (
            "quarantined".to_string(),
            Json::Arr(
                report
                    .quarantined
                    .iter()
                    .map(|dp| Json::Num(dp.0 as f64))
                    .collect(),
            ),
        ),
    ]
    .into_iter()
    .collect();
    let mut body = body;
    // fabric-only sections are omitted, not empty, for single-runtime
    // controllers, so pre-fabric clients see an unchanged document
    if !report.shards.is_empty() {
        body.insert(
            "shards".to_string(),
            Json::Arr(report.shards.iter().map(shard_json).collect()),
        );
        body.insert(
            "xshard_queued".to_string(),
            Json::Num(report.xshard_queued as f64),
        );
        body.insert(
            "xshard_active".to_string(),
            Json::Num(report.xshard_active as f64),
        );
    }
    if !report.tenants.is_empty() {
        body.insert(
            "tenants".to_string(),
            Json::Arr(report.tenants.iter().map(tenant_json).collect()),
        );
    }
    Response {
        status: 200,
        body: Json::Obj(body).render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::json;
    use crate::runtime::RuntimeStats;
    use sdn_types::{DpId, SimDuration};

    #[test]
    fn status_body_round_trips_through_the_parser() {
        let report = StatusReport {
            queued: 3,
            active: 2,
            pending_acks: 5,
            stats: RuntimeStats {
                submitted: 9,
                completed: 4,
                retransmissions: 7,
                stragglers: 1,
                reconnects: 2,
                resyncs: 1,
                resynced_rules: 6,
                quarantined: 1,
                recoveries: 1,
                ..RuntimeStats::default()
            },
            switches: vec![
                SwitchStatus {
                    dp: DpId(1),
                    srtt: Some(SimDuration::from_micros(840)),
                    rto: SimDuration::from_micros(2400),
                    straggler: false,
                },
                SwitchStatus {
                    dp: DpId(7),
                    srtt: None,
                    rto: SimDuration::from_millis(100),
                    straggler: true,
                },
            ],
            journal_len: 12,
            quarantined: vec![DpId(7)],
            shards: Vec::new(),
            tenants: Vec::new(),
            xshard_queued: 0,
            xshard_active: 0,
        };
        let r = status_response(&report);
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("queued").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("pending_acks").unwrap().as_u64(), Some(5));
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("retransmissions").unwrap().as_u64(), Some(7));
        assert_eq!(stats.get("stragglers").unwrap().as_u64(), Some(1));
        let Json::Arr(switches) = v.get("switches").unwrap() else {
            panic!("switches must be an array");
        };
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[0].get("srtt_us").unwrap().as_u64(), Some(840));
        assert!(switches[1].get("srtt_us").is_none(), "unsampled: omitted");
        assert_eq!(switches[1].get("straggler").unwrap().as_bool(), Some(true));
        assert_eq!(stats.get("reconnects").unwrap().as_u64(), Some(2));
        assert_eq!(stats.get("resyncs").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("resynced_rules").unwrap().as_u64(), Some(6));
        assert_eq!(stats.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("journal_len").unwrap().as_u64(), Some(12));
        let Json::Arr(q) = v.get("quarantined").unwrap() else {
            panic!("quarantined must be an array");
        };
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].as_u64(), Some(7));
    }

    #[test]
    fn empty_runtime_status_is_well_formed() {
        let r = status_response(&StatusReport::default());
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("active").unwrap().as_u64(), Some(0));
        assert_eq!(
            v.get("switches"),
            Some(&Json::Arr(Vec::new())),
            "no switches yet"
        );
        assert!(v.get("shards").is_none(), "fabric sections are omitted");
        assert!(v.get("tenants").is_none());
    }

    #[test]
    fn fabric_status_renders_shards_and_tenants() {
        use crate::runtime::TenantId;
        let report = StatusReport {
            queued: 4,
            shards: vec![
                ShardStatus {
                    shard: 0,
                    queued: 1,
                    active: 2,
                    switches: 5,
                },
                ShardStatus {
                    shard: 1,
                    queued: 3,
                    active: 0,
                    switches: 4,
                },
            ],
            tenants: vec![
                TenantStatus {
                    tenant: TenantId(3),
                    in_flight: 2,
                    quota: Some(4),
                },
                TenantStatus {
                    tenant: TenantId(9),
                    in_flight: 1,
                    quota: None,
                },
            ],
            xshard_queued: 1,
            xshard_active: 2,
            ..StatusReport::default()
        };
        let v = json::parse(&status_response(&report).body).unwrap();
        let Json::Arr(shards) = v.get("shards").unwrap() else {
            panic!("shards must be an array");
        };
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("shard").unwrap().as_u64(), Some(0));
        assert_eq!(shards[0].get("active").unwrap().as_u64(), Some(2));
        assert_eq!(shards[1].get("queued").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("xshard_queued").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("xshard_active").unwrap().as_u64(), Some(2));
        let Json::Arr(tenants) = v.get("tenants").unwrap() else {
            panic!("tenants must be an array");
        };
        assert_eq!(tenants[0].get("tenant").unwrap().as_u64(), Some(3));
        assert_eq!(tenants[0].get("quota").unwrap().as_u64(), Some(4));
        assert!(
            tenants[1].get("quota").is_none(),
            "unlimited: quota omitted"
        );
    }

    #[test]
    fn status_fields_cover_every_runtime_counter() {
        // exhaustive destructure: adding a RuntimeStats field breaks
        // this pattern, forcing the table (and with it the JSON body,
        // the metrics families and the README) to follow
        let RuntimeStats {
            submitted,
            accepted,
            rejected,
            completed,
            failed,
            retransmissions,
            stragglers,
            peak_active,
            reconnects,
            resyncs,
            resynced_rules,
            quarantined,
            recoveries,
        } = RuntimeStats::default();
        let all = [
            submitted,
            accepted,
            rejected,
            completed,
            failed,
            retransmissions,
            stragglers,
            peak_active,
            reconnects,
            resyncs,
            resynced_rules,
            quarantined,
            recoveries,
        ];
        assert_eq!(STATUS_FIELDS.len(), all.len());
        let mut keys: Vec<&str> = STATUS_FIELDS.iter().map(|f| f.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), STATUS_FIELDS.len(), "duplicate JSON key");
        let mut proms: Vec<&str> = STATUS_FIELDS.iter().map(|f| f.prom).collect();
        proms.sort_unstable();
        proms.dedup();
        assert_eq!(proms.len(), STATUS_FIELDS.len(), "duplicate family");
        for f in STATUS_FIELDS {
            assert!(
                f.prom.starts_with("sdn_status_"),
                "{} must be status-scoped to avoid registry collisions",
                f.prom
            );
            assert!(!f.help.is_empty());
        }
    }

    #[test]
    fn readme_status_table_matches_the_source_of_truth() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("workspace README");
        assert!(
            readme.contains(&status_fields_markdown()),
            "README status-field table drifted from STATUS_FIELDS; \
             regenerate it with status_fields_markdown()"
        );
    }
}
