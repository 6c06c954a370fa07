//! `GET /v1/metrics`: Prometheus text exposition.
//!
//! Every number on the page is read from the one place that keeps it:
//!
//! * the [`sdn_obs`] sink — `sdn_events_total{kind=..}` (one count per
//!   emitted event), the log₂ histograms, the transport's
//!   `sdn_connections` gauge and `sdn_flight_dumps_total` — rendered by
//!   [`Obs::prometheus_with`];
//! * the status report the caller just took — the runtime's
//!   [`RuntimeStats`](crate::runtime::RuntimeStats) counters as
//!   `sdn_status_*` families straight from the [`STATUS_FIELDS`]
//!   single-source table (so `GET /v1/status` and `GET /v1/metrics` can
//!   never disagree about what a counter means), and the queue gauges
//!   (queue depth, active jobs, pending acks).
//!
//! Nothing is written into the sink on a scrape, so the page is the
//! same whether or not observability is recording, and the hot path
//! pays nothing for values only a scraper reads.
//!
//! The body is Prometheus text, not JSON; the embedding binary owns
//! the `Content-Type: text/plain; version=0.0.4` header, as it owns
//! all transport concerns.

use sdn_obs::Obs;

use crate::rest::response::Response;
use crate::rest::status::STATUS_FIELDS;
use crate::runtime::StatusReport;

/// The `200 OK` response for `GET /v1/metrics`.
pub fn metrics_response(obs: &Obs, report: &StatusReport) -> Response {
    let stats = &report.stats;
    let counters = STATUS_FIELDS
        .iter()
        .map(|f| (f.prom, f.help, "counter", (f.get)(stats)));
    let gauges = [
        (
            "sdn_queue_depth",
            "Jobs waiting for dispatch",
            report.queued,
        ),
        ("sdn_active_jobs", "Jobs currently executing", report.active),
        (
            "sdn_pending_acks",
            "Outstanding per-payload acknowledgements",
            report.pending_acks,
        ),
    ]
    .map(|(name, help, v)| (name, help, "gauge", v as u64));
    let extras: Vec<(&str, &str, &str, u64)> = counters.chain(gauges).collect();
    Response {
        status: 200,
        body: obs.prometheus_with(&extras),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeStats;
    use sdn_obs::{prometheus, EventKind, HistId};
    use sdn_types::SimTime;

    fn report() -> StatusReport {
        StatusReport {
            queued: 2,
            active: 3,
            pending_acks: 4,
            stats: RuntimeStats {
                submitted: 11,
                completed: 7,
                ..RuntimeStats::default()
            },
            ..StatusReport::default()
        }
    }

    #[test]
    fn page_is_valid_prometheus_and_carries_both_sources() {
        let obs = Obs::recording();
        obs.observe(HistId::ViolationWindowNs, 40_000);
        obs.emit(sdn_obs::Event::new(SimTime::ZERO, EventKind::Submit).span(1));
        let r = metrics_response(&obs, &report());
        assert_eq!(r.status, 200);
        prometheus::validate(&r.body).expect("page must validate");
        assert!(r.body.contains("sdn_events_total{kind=\"submit\"} 1\n"));
        assert!(r.body.contains("sdn_violation_window_ns_count 1"));
        assert!(r.body.contains("sdn_status_submitted_total 11"));
        assert!(r.body.contains("sdn_status_completed_total 7"));
    }

    #[test]
    fn gauges_reflect_the_scraped_report() {
        let obs = Obs::recording();
        let r = metrics_response(&obs, &report());
        assert!(r
            .body
            .contains("# TYPE sdn_queue_depth gauge\nsdn_queue_depth 2\n"));
        assert!(r.body.contains("sdn_active_jobs 3"));
        assert!(r.body.contains("sdn_pending_acks 4"));
    }

    #[test]
    fn disabled_obs_still_serves_the_status_counters() {
        let r = metrics_response(&Obs::disabled(), &report());
        assert_eq!(r.status, 200);
        prometheus::validate(&r.body).expect("page must validate");
        assert!(r.body.contains("sdn_status_submitted_total 11"));
    }

    #[test]
    fn disabled_obs_still_serves_the_queue_gauges() {
        let r = metrics_response(&Obs::disabled(), &report());
        assert!(r.body.contains("sdn_queue_depth 2\n"));
        assert!(r.body.contains("sdn_active_jobs 3\n"));
        assert!(r.body.contains("sdn_pending_acks 4\n"));
    }

    #[test]
    fn every_family_on_the_page_appears_once() {
        let obs = Obs::recording();
        obs.emit(sdn_obs::Event::new(SimTime::ZERO, EventKind::Commit).span(1));
        let page = metrics_response(&obs, &report()).body;
        let mut families: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let n = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), n, "a family rendered twice");
    }
}
