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

use sdn_types::DpId;

use crate::rest::json::Json;
use crate::rest::response::Response;
use crate::runtime::fabric::{MigrateError, RebalanceReport, ShardId};
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
    StatusField {
        key: "migrations",
        prom: "sdn_status_migrations_total",
        help: "Online seat migrations committed (fabric only)",
        get: |s| s.migrations,
    },
    StatusField {
        key: "migration_aborts",
        prom: "sdn_status_migration_aborts_total",
        help: "Seat migrations unwound at apply time or by crash recovery",
        get: |s| s.migration_aborts,
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
        body.insert(
            "migrating".to_string(),
            Json::Arr(
                report
                    .migrating
                    .iter()
                    .map(|dp| Json::Num(dp.0 as f64))
                    .collect(),
            ),
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

/// The `200 OK` response for `GET /v1/rebalance`: per-shard load from
/// the footprint touch index plus the bounded migration plan.
pub fn rebalance_response(report: &RebalanceReport) -> Response {
    let loads = report
        .loads
        .iter()
        .map(|l| {
            Json::Obj(
                [
                    ("shard".to_string(), Json::Num(l.shard.0 as f64)),
                    ("switches".to_string(), Json::Num(l.switches as f64)),
                    ("touches".to_string(), Json::Num(l.touches as f64)),
                ]
                .into_iter()
                .collect(),
            )
        })
        .collect();
    let moves = report
        .moves
        .iter()
        .map(|m| {
            Json::Obj(
                [
                    ("dp".to_string(), Json::Num(m.dp.0 as f64)),
                    ("from".to_string(), Json::Num(m.from.0 as f64)),
                    ("to".to_string(), Json::Num(m.to.0 as f64)),
                    ("touches".to_string(), Json::Num(m.touches as f64)),
                ]
                .into_iter()
                .collect(),
            )
        })
        .collect();
    let body: BTreeMap<String, Json> = [
        ("status".to_string(), Json::Str("ok".into())),
        ("imbalance".to_string(), Json::Num(report.imbalance)),
        ("loads".to_string(), Json::Arr(loads)),
        ("moves".to_string(), Json::Arr(moves)),
    ]
    .into_iter()
    .collect();
    Response {
        status: 200,
        body: Json::Obj(body).render(),
    }
}

/// A parsed `POST /v1/rebalance/apply` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceApply {
    /// `{"dp": N, "to": S}` — migrate one named switch to one named
    /// shard.
    Move {
        /// The switch to migrate.
        dp: DpId,
        /// The destination shard.
        to: ShardId,
    },
    /// `{}` (or an empty body) — apply the fabric's own advice report.
    Advice,
}

/// Parse a `POST /v1/rebalance/apply` body. An empty object (or empty
/// body) requests the fabric's own advice moves; `{"dp": N, "to": S}`
/// names one explicit move. Anything else — unparseable JSON, a
/// non-object, one key without the other, non-integer values — is a
/// `400` describing the problem.
pub fn parse_rebalance_apply(body: &str) -> Result<RebalanceApply, Response> {
    let bad = |detail: &str| Response {
        status: 400,
        body: Json::Obj(
            [
                ("status".to_string(), Json::Str("error".into())),
                ("detail".to_string(), Json::Str(detail.into())),
            ]
            .into_iter()
            .collect(),
        )
        .render(),
    };
    if body.trim().is_empty() {
        return Ok(RebalanceApply::Advice);
    }
    let v = match crate::rest::json::parse(body) {
        Ok(v) => v,
        Err(_) => return Err(bad("body must be a JSON object")),
    };
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("body must be a JSON object"));
    }
    match (v.get("dp"), v.get("to")) {
        (None, None) => Ok(RebalanceApply::Advice),
        (Some(dp), Some(to)) => match (dp.as_u64(), to.as_u64()) {
            (Some(dp), Some(to)) if to <= u32::MAX as u64 => Ok(RebalanceApply::Move {
                dp: DpId(dp),
                to: ShardId(to as u32),
            }),
            _ => Err(bad("\"dp\" and \"to\" must be non-negative integers")),
        },
        _ => Err(bad("\"dp\" and \"to\" go together")),
    }
}

/// The `202 Accepted` response for a `POST /v1/rebalance/apply` whose
/// migrations all began: the switches now migrating, in dpid order
/// (commit is asynchronous — watch `migrating` in `GET /v1/status`).
pub fn rebalance_apply_response(migrating: &[DpId]) -> Response {
    let body: BTreeMap<String, Json> = [
        ("status".to_string(), Json::Str("accepted".into())),
        (
            "migrating".to_string(),
            Json::Arr(migrating.iter().map(|dp| Json::Num(dp.0 as f64)).collect()),
        ),
    ]
    .into_iter()
    .collect();
    Response {
        status: 202,
        body: Json::Obj(body).render(),
    }
}

/// The structured `409 Conflict` for a refused migration: a stable
/// `reason` slug plus the offending switch/shard, so clients branch
/// without parsing prose.
pub fn migrate_error_response(err: &MigrateError) -> Response {
    let mut body: BTreeMap<String, Json> = [
        ("status".to_string(), Json::Str("conflict".into())),
        ("detail".to_string(), Json::Str(err.to_string())),
    ]
    .into_iter()
    .collect();
    let reason = match err {
        MigrateError::UnknownSwitch(dp) => {
            body.insert("dp".to_string(), Json::Num(dp.0 as f64));
            "unknown_switch"
        }
        MigrateError::SameShard { dp, shard } => {
            body.insert("dp".to_string(), Json::Num(dp.0 as f64));
            body.insert("shard".to_string(), Json::Num(shard.0 as f64));
            "same_shard"
        }
        MigrateError::AlreadyMigrating(dp) => {
            body.insert("dp".to_string(), Json::Num(dp.0 as f64));
            "already_migrating"
        }
        MigrateError::BadShard(s) => {
            body.insert("shard".to_string(), Json::Num(s.0 as f64));
            "bad_shard"
        }
    };
    body.insert("reason".to_string(), Json::Str(reason.into()));
    Response {
        status: 409,
        body: Json::Obj(body).render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::json;
    use crate::runtime::RuntimeStats;
    use sdn_types::SimDuration;

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
                migrations: 3,
                migration_aborts: 1,
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
            migrating: Vec::new(),
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
        assert_eq!(stats.get("migrations").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("migration_aborts").unwrap().as_u64(), Some(1));
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
            migrating: vec![DpId(6)],
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
        let Json::Arr(migrating) = v.get("migrating").unwrap() else {
            panic!("migrating must be an array");
        };
        assert_eq!(migrating[0].as_u64(), Some(6));
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
            migrations,
            migration_aborts,
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
            migrations,
            migration_aborts,
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

    #[test]
    fn rebalance_report_renders_loads_and_moves() {
        use crate::runtime::fabric::{ShardId, ShardLoad, SuggestedMove};
        let report = RebalanceReport {
            loads: vec![
                ShardLoad {
                    shard: ShardId(0),
                    switches: 2,
                    touches: 40,
                },
                ShardLoad {
                    shard: ShardId(1),
                    switches: 1,
                    touches: 2,
                },
            ],
            imbalance: 1.9,
            moves: vec![SuggestedMove {
                dp: DpId(2),
                from: ShardId(0),
                to: ShardId(1),
                touches: 30,
            }],
        };
        let r = rebalance_response(&report);
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        assert!((v.get("imbalance").unwrap().as_f64().unwrap() - 1.9).abs() < 1e-9);
        let Json::Arr(loads) = v.get("loads").unwrap() else {
            panic!("loads must be an array");
        };
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].get("touches").unwrap().as_u64(), Some(40));
        let Json::Arr(moves) = v.get("moves").unwrap() else {
            panic!("moves must be an array");
        };
        assert_eq!(moves[0].get("dp").unwrap().as_u64(), Some(2));
        assert_eq!(moves[0].get("to").unwrap().as_u64(), Some(1));
    }
}
