//! Prometheus text-format exposition (version 0.0.4) and a strict
//! validator used by tests and the E12 experiment.
//!
//! Event counts render as one labelled counter family,
//! `sdn_events_total{kind="<EventKind::name>"}`, one sample per kind.
//! Histograms render the conventional triplet: cumulative
//! `name_bucket{le="..."}` series (log₂ upper bounds, then `+Inf`),
//! `name_sum`, `name_count`. Empty histograms still emit the `+Inf`
//! bucket so the family is well-formed.

use crate::event::EventKind;
use crate::metrics::{Histogram, Registry, GAUGE_TABLE, HIST_TABLE};

fn push_family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_hist(out: &mut String, name: &str, h: &Histogram) {
    let top = h.max_bucket().map(|b| b + 1).unwrap_or(0);
    let mut cum = 0u64;
    for i in 0..top {
        cum += h.buckets[i];
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        // bucket i's upper bound is 2^i
        out.push_str(&(1u128 << i).to_string());
        out.push_str("\"} ");
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.count.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&h.sum.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count.to_string());
    out.push('\n');
}

/// Render the registry, then `extras` — caller-owned samples (name,
/// help, type, value) appended as their own families. The runtime's
/// status counters and gauges ride in through `extras`, so each number
/// on the page is read from the one place that keeps it.
pub fn render_with(reg: &Registry, extras: &[(&str, &str, &str, u64)]) -> String {
    let mut out = String::with_capacity(4096);
    push_family(
        &mut out,
        "sdn_events_total",
        "Trace events emitted, by kind",
        "counter",
    );
    for kind in EventKind::ALL {
        out.push_str("sdn_events_total{kind=\"");
        out.push_str(kind.name());
        out.push_str("\"} ");
        out.push_str(&reg.events(kind).to_string());
        out.push('\n');
    }
    for (g, name, help) in GAUGE_TABLE {
        push_family(&mut out, name, help, "gauge");
        out.push_str(name);
        out.push(' ');
        out.push_str(&reg.gauge(*g).to_string());
        out.push('\n');
    }
    for (h, name, help) in HIST_TABLE {
        push_family(&mut out, name, help, "histogram");
        push_hist(&mut out, name, reg.hist(*h));
    }
    for (name, help, kind, value) in extras {
        push_family(&mut out, name, help, kind);
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

/// Render the registry alone.
pub fn render(reg: &Registry) -> String {
    render_with(reg, &[])
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strict structural check of a Prometheus text page. Verifies:
/// every sample line parses as `name[{labels}] value`; every sample
/// is preceded by `# HELP` and `# TYPE` for its family; histogram
/// families carry `_bucket`/`_sum`/`_count` with cumulative,
/// `+Inf`-terminated buckets. Returns the first problem found.
pub fn validate(page: &str) -> Result<(), String> {
    let mut typed: Option<(String, String)> = None; // (family, kind)
    let mut helped: Option<String> = None;
    // histogram family currently being checked: (family, last cum, saw +Inf)
    let mut hist: Option<(String, u64, bool)> = None;

    fn family_of(name: &str) -> &str {
        for suf in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suf) {
                return stripped;
            }
        }
        name
    }

    for (ln, line) in page.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {ln}: bad HELP name {name:?}"));
            }
            helped = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {ln}: bad TYPE name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {ln}: unknown type {kind:?}"));
            }
            if helped.as_deref() != Some(name) {
                return Err(format!("line {ln}: TYPE {name} without preceding HELP"));
            }
            if let Some((fam, _, saw_inf)) = &hist {
                if !saw_inf {
                    return Err(format!(
                        "line {ln}: histogram {fam} ended without +Inf bucket"
                    ));
                }
            }
            hist = if kind == "histogram" {
                Some((name.to_string(), 0, false))
            } else {
                None
            };
            typed = Some((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(format!("line {ln}: no value separator")),
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let rest = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                (n, Some(rest))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        if value_part != "+Inf" && value_part != "NaN" && value_part.parse::<f64>().is_err() {
            return Err(format!("line {ln}: bad value {value_part:?}"));
        }
        let fam = family_of(name);
        match &typed {
            Some((tname, _)) if tname == fam => {}
            _ => return Err(format!("line {ln}: sample {name} outside its TYPE block")),
        }
        if let Some((hfam, last, saw_inf)) = &mut hist {
            if fam == hfam && name.ends_with("_bucket") {
                let le = labels
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {ln}: bucket without le label"))?;
                let cum: u64 = value_part
                    .parse()
                    .map_err(|_| format!("line {ln}: non-integer bucket count"))?;
                if cum < *last {
                    return Err(format!("line {ln}: bucket counts not cumulative"));
                }
                *last = cum;
                if le == "+Inf" {
                    *saw_inf = true;
                }
            }
        }
    }
    if let Some((fam, _, saw_inf)) = &hist {
        if !saw_inf {
            return Err(format!("histogram {fam} ended without +Inf bucket"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Gauge, HistId};

    #[test]
    fn rendered_page_validates() {
        let mut reg = Registry::default();
        for _ in 0..5 {
            reg.count(EventKind::Submit);
        }
        reg.set(Gauge::Connections, 2);
        reg.observe(HistId::BarrierRttNs, 1_000_000);
        reg.observe(HistId::BarrierRttNs, 3_000_000);
        let extras = [
            ("sdn_extra_total", "an extra", "counter", 7),
            ("sdn_extra_depth", "a gauge", "gauge", 3),
        ];
        let page = render_with(&reg, &extras);
        validate(&page).unwrap();
        assert!(page.contains("sdn_events_total{kind=\"submit\"} 5\n"));
        assert!(page.contains("sdn_events_total{kind=\"commit\"} 0\n"));
        assert!(page.contains("sdn_connections 2"));
        assert!(page.contains("sdn_barrier_rtt_ns_count 2"));
        assert!(page.contains("sdn_barrier_rtt_ns_sum 4000000"));
        assert!(page.contains("le=\"+Inf\"} 2"));
        assert!(page.contains("sdn_extra_total 7"));
        assert!(page.contains("# TYPE sdn_extra_depth gauge\nsdn_extra_depth 3"));
    }

    #[test]
    fn empty_registry_still_validates() {
        validate(&render(&Registry::default())).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("sdn_orphan 1\n").is_err());
        assert!(validate("# HELP x y\n# TYPE x counter\nx notanumber\n").is_err());
        assert!(
            validate("# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                .is_err(),
            "missing +Inf bucket must fail"
        );
    }

    #[test]
    fn buckets_are_cumulative() {
        let mut reg = Registry::default();
        for v in [1u64, 2, 2, 8] {
            reg.observe(HistId::ViolationWindowNs, v);
        }
        let page = render(&reg);
        validate(&page).unwrap();
        let lines: Vec<&str> = page
            .lines()
            .filter(|l| l.starts_with("sdn_violation_window_ns_bucket"))
            .collect();
        // le=1 →1, le=2 →3, le=4 →3, le=8 →4, +Inf →4
        assert_eq!(
            lines.last().unwrap(),
            &"sdn_violation_window_ns_bucket{le=\"+Inf\"} 4"
        );
        assert!(lines.contains(&"sdn_violation_window_ns_bucket{le=\"2\"} 3"));
        assert!(lines.contains(&"sdn_violation_window_ns_bucket{le=\"8\"} 4"));
    }
}
