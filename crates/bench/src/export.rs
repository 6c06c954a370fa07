//! The shared `BENCH_*.json` export schema and writer.
//!
//! Every `exp_*` binary used to carry its own `Record` struct and its
//! own document-assembly + `fs::write` block; the six copies drifted
//! in field order and provenance strings. This module is the one
//! writer: a [`Record`] names the measurement (`workload`/`algo`/`n`
//! — the key the `bench_check` regression gate joins on), carries the
//! value in its unit (`ms`), and takes experiment-specific extras as
//! ride-along fields the gate ignores. [`Export`] assembles the
//! document (`experiment`, `source`, `unit`, headers, `records`) as a
//! REST [`Json`] value, whose objects render with their keys sorted,
//! and writes it; the gate reads fields by key, so the committed
//! `BENCH_E3.json` baseline stays comparable unchanged.

use std::collections::BTreeMap;

use sdn_ctrl::rest::json::Json;

/// One measurement in the shared export schema.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload family (`reversal`, `fat_tree`, `disjoint`, …) — the
    /// *name* of what was measured.
    pub workload: String,
    /// Scheduler / engine / configuration the timing belongs to.
    pub algo: String,
    /// Instance size.
    pub n: u64,
    /// The measured *value*, in the export's unit (milliseconds —
    /// virtual or wall, per experiment; see its `unit` header).
    pub ms: f64,
    /// Experiment-specific extra fields, rendered beside the shared
    /// ones; the regression gate never reads them.
    pub extras: Vec<(String, Json)>,
}

impl Record {
    /// A record with the shared fields only.
    pub fn new(workload: impl Into<String>, algo: impl Into<String>, n: u64, ms: f64) -> Self {
        Record {
            workload: workload.into(),
            algo: algo.into(),
            n,
            ms,
            extras: Vec::new(),
        }
    }

    /// Append one experiment-specific field.
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }

    /// Render to the shared JSON shape.
    pub fn json(&self) -> Json {
        let mut fields = BTreeMap::from([
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("algo".to_string(), Json::Str(self.algo.clone())),
            ("n".to_string(), Json::Num(self.n as f64)),
            ("ms".to_string(), Json::Num(self.ms)),
        ]);
        fields.extend(self.extras.iter().cloned());
        Json::Obj(fields)
    }
}

/// A whole export document under assembly.
#[derive(Debug, Clone)]
pub struct Export {
    experiment: String,
    headers: Vec<(String, Json)>,
    /// The records written so far.
    pub records: Vec<Record>,
}

impl Export {
    /// Start an export for `experiment` (`rounds_scaling`,
    /// `shard_scaling`, …). Provenance is derived: the source string
    /// becomes `exp_<experiment> --json`.
    pub fn new(experiment: &str) -> Self {
        Export {
            experiment: experiment.to_string(),
            headers: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Add a document-level header field (e.g. `max_n`).
    pub fn header(mut self, key: &str, value: Json) -> Self {
        self.headers.push((key.to_string(), value));
        self
    }

    /// Append one record.
    pub fn push(&mut self, r: Record) {
        self.records.push(r);
    }

    /// The assembled document.
    pub fn doc(&self) -> Json {
        let mut fields = BTreeMap::from([
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            (
                "source".to_string(),
                Json::Str(format!("exp_{} --json", self.experiment)),
            ),
            ("unit".to_string(), Json::Str("ms".to_string())),
        ]);
        fields.extend(self.headers.iter().cloned());
        fields.insert(
            "records".to_string(),
            Json::Arr(self.records.iter().map(Record::json).collect()),
        );
        Json::Obj(fields)
    }

    /// Write the document to `path` (trailing newline, like every
    /// committed baseline) and return the summary line for the CLI to
    /// print — library code never prints (`ci/lint_prints.sh`).
    #[must_use = "print the summary so the CLI reports what it wrote"]
    pub fn write(&self, path: &str) -> String {
        std::fs::write(path, format!("{}\n", self.doc().render())).expect("write json export");
        format!("wrote {} records to {path}", self.records.len())
    }
}

/// The flags the tiered experiments (E7–E12) share: `--tier
/// small|full` picks CI-smoke or full sizes, `--json-out PATH` also
/// writes the records as an [`Export`] document. Returns `(small tier,
/// export path)`, or the usage line for the CLI to print and exit on
/// (library code never prints).
pub fn tier_and_json_out(bin: &str) -> Result<(bool, Option<String>), String> {
    let mut tier_small = false;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--tier", Some(t)) => tier_small = t == "small",
            ("--json-out", Some(path)) => json_path = Some(path),
            _ => {
                return Err(format!(
                    "bad flag {a}; usage: {bin} [--tier small|full] [--json-out PATH]"
                ))
            }
        }
    }
    Ok((tier_small, json_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::records_of;
    use sdn_ctrl::rest::json;

    #[test]
    fn document_carries_provenance_and_unit() {
        let mut e = Export::new("rounds_scaling").header("max_n", Json::Num(512.0));
        e.push(Record::new("reversal", "peacock", 64, 0.25).with("rounds", Json::Num(3.0)));
        let doc = e.doc();
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("rounds_scaling")
        );
        assert_eq!(
            doc.get("source").and_then(Json::as_str),
            Some("exp_rounds_scaling --json")
        );
        assert_eq!(doc.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(doc.get("max_n").and_then(Json::as_f64), Some(512.0));
    }

    #[test]
    fn regression_gate_reads_the_shared_shape() {
        let mut e = Export::new("shard_scaling");
        e.push(Record::new("disjoint", "fabric", 4, 12.5));
        let parsed = json::parse(&e.doc().render()).unwrap();
        let rs = records_of(&parsed).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].workload, "disjoint");
        assert_eq!(rs[0].algo, "fabric");
        assert_eq!(rs[0].n, 4);
        assert!((rs[0].ms - 12.5).abs() < 1e-12);
    }

    #[test]
    fn extras_ride_beside_the_shared_fields() {
        let r = Record::new("w", "a", 1, 2.0)
            .with("budget_ms", Json::Num(40.0))
            .json();
        assert_eq!(
            r.render(),
            r#"{"algo":"a","budget_ms":40,"ms":2,"n":1,"workload":"w"}"#
        );
    }
}
