//! Cross-PR performance-regression checking over the bench JSON
//! exports.
//!
//! `exp_rounds_scaling --json-out` writes per-schedule timing records
//! (`BENCH_E3.json` is committed at the workspace root). The
//! `bench_check` binary — run by CI's `bench-smoke` job — compares a
//! fresh run's records against a committed baseline through
//! [`compare`]: a record regresses when its timing exceeds the
//! baseline by more than a noise threshold (generous, default 3×)
//! *and* an absolute floor that keeps
//! microsecond-scale jitter from failing builds. Records without a
//! baseline counterpart (new workloads, larger n) are reported as
//! skipped, never failed — the gate only defends numbers that were
//! already achieved. A baseline record the current run should have
//! produced but did not (a renamed or dropped label) is reported as
//! missing and fails, so no defended row drops out silently.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sdn_ctrl::rest::json::Json;

/// One timing record from a bench export.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload family (`reversal`, `rotation`, `comb`, …).
    pub workload: String,
    /// Scheduler / engine the timing belongs to.
    pub algo: String,
    /// Instance size.
    pub n: u64,
    /// Milliseconds per schedule.
    pub ms: f64,
}

impl BenchRecord {
    fn key(&self) -> (String, String, u64) {
        (self.workload.clone(), self.algo.clone(), self.n)
    }
}

/// Extract the timing records of a parsed export document.
pub fn records_of(doc: &Json) -> Result<Vec<BenchRecord>, String> {
    let arr = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or("document has no 'records' array")?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, r) in arr.iter().enumerate() {
        let field = |k: &str| r.get(k).ok_or(format!("record {i} missing '{k}'"));
        out.push(BenchRecord {
            workload: field("workload")?
                .as_str()
                .ok_or(format!("record {i}: workload not a string"))?
                .to_string(),
            algo: field("algo")?
                .as_str()
                .ok_or(format!("record {i}: algo not a string"))?
                .to_string(),
            n: field("n")?.as_f64().ok_or(format!("record {i}: bad n"))? as u64,
            ms: field("ms")?.as_f64().ok_or(format!("record {i}: bad ms"))?,
        });
    }
    Ok(out)
}

/// How one record compares against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold (or below the absolute noise floor).
    Ok,
    /// Slower than threshold × baseline and above the noise floor.
    Regressed,
    /// No baseline record with the same (workload, algo, n).
    Skipped,
    /// A baseline record with no current counterpart, although the
    /// current run has records for its (workload, n).
    Missing,
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The current record; for [`Verdict::Missing`], the baseline
    /// record the current run lacks.
    pub record: BenchRecord,
    /// Baseline milliseconds, when a matching record exists.
    pub baseline_ms: Option<f64>,
    /// The verdict under the thresholds given to [`compare`].
    pub verdict: Verdict,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.record;
        let label = format!("{}/{}", c.workload, c.algo);
        match (self.verdict, self.baseline_ms) {
            (Verdict::Missing, _) => write!(
                f,
                "{:9} {label:>22} n={:<5} {:>10.3} ms in the baseline, no current record",
                "MISSING", c.n, c.ms,
            ),
            (verdict, Some(b)) => write!(
                f,
                "{:9} {label:>22} n={:<5} {:>10.3} ms vs {:>10.3} ms ({:>5.2}x) {}",
                if verdict == Verdict::Regressed {
                    "REGRESSED"
                } else {
                    "ok"
                },
                c.n,
                c.ms,
                b,
                if b > 0.0 { c.ms / b } else { f64::INFINITY },
                if verdict == Verdict::Regressed {
                    "<-- over threshold"
                } else {
                    ""
                }
            ),
            (_, None) => write!(
                f,
                "{:9} {label:>22} n={:<5} {:>10.3} ms (no baseline)",
                "skipped", c.n, c.ms,
            ),
        }
    }
}

/// Compare `current` records against `baseline` ones.
///
/// A record regresses when `ms > threshold × baseline_ms` **and**
/// `ms > floor_ms` — the floor absorbs scheduler-noise on
/// sub-millisecond rows where a 3× ratio is meaningless.
///
/// After the current records come the baseline records the current run
/// lacks, as [`Verdict::Missing`] — only those whose (workload, n) the
/// current run measured, so rows above its `--max-n` stay out of scope.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    threshold: f64,
    floor_ms: f64,
) -> Vec<Comparison> {
    let by_key: BTreeMap<_, f64> = baseline.iter().map(|r| (r.key(), r.ms)).collect();
    let produced: BTreeSet<_> = current.iter().map(BenchRecord::key).collect();
    let measured: BTreeSet<_> = current.iter().map(|r| (r.workload.as_str(), r.n)).collect();
    let missing = baseline
        .iter()
        .filter(|b| measured.contains(&(b.workload.as_str(), b.n)) && !produced.contains(&b.key()))
        .map(|b| Comparison {
            record: b.clone(),
            baseline_ms: Some(b.ms),
            verdict: Verdict::Missing,
        });
    current
        .iter()
        .map(|r| {
            let baseline_ms = by_key.get(&r.key()).copied();
            let verdict = match baseline_ms {
                None => Verdict::Skipped,
                Some(b) => {
                    if r.ms > floor_ms && r.ms > threshold * b {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    }
                }
            };
            Comparison {
                record: r.clone(),
                baseline_ms,
                verdict,
            }
        })
        .chain(missing)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_ctrl::rest::json::parse;

    fn rec(workload: &str, algo: &str, n: u64, ms: f64) -> BenchRecord {
        BenchRecord {
            workload: workload.into(),
            algo: algo.into(),
            n,
            ms,
        }
    }

    #[test]
    fn extracts_records_from_export() {
        let doc = parse(
            r#"{"experiment":"rounds_scaling","records":[
                {"workload":"reversal","algo":"peacock","n":64,"rounds":3,"ms":0.16}]}"#,
        )
        .unwrap();
        let rs = records_of(&doc).unwrap();
        assert_eq!(rs, vec![rec("reversal", "peacock", 64, 0.16)]);
        assert!(records_of(&parse("{}").unwrap()).is_err());
    }

    #[test]
    fn flags_only_genuine_regressions() {
        let baseline = vec![
            rec("reversal", "slf-greedy", 512, 10.0),
            rec("reversal", "slf-greedy", 64, 0.3),
        ];
        let current = vec![
            rec("reversal", "slf-greedy", 512, 45.0), // 4.5x: regression
            rec("reversal", "slf-greedy", 64, 2.0),   // 6.7x but under floor
            rec("fat_tree", "slf-greedy", 512, 9.0),  // no baseline
        ];
        let cmp = compare(&baseline, &current, 3.0, 5.0);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        assert_eq!(cmp[1].verdict, Verdict::Ok);
        assert_eq!(cmp[2].verdict, Verdict::Skipped);
    }

    #[test]
    fn flags_a_baseline_row_the_current_run_dropped() {
        let baseline = vec![
            rec("fat_tree", "verify-incremental", 512, 4.0),
            rec("fat_tree", "peacock-wayup", 512, 3.0),
            rec("fat_tree", "verify-incremental", 4096, 30.0), // above --max-n
        ];
        let current = vec![
            rec("fat_tree", "verify", 512, 4.0), // renamed label
            rec("fat_tree", "peacock-wayup", 512, 3.0),
        ];
        let cmp = compare(&baseline, &current, 3.0, 5.0);
        let verdicts: Vec<_> = cmp.iter().map(|c| c.verdict).collect();
        assert_eq!(
            verdicts,
            [Verdict::Skipped, Verdict::Ok, Verdict::Missing],
            "{cmp:?}"
        );
        assert_eq!(cmp[2].record, baseline[0]);
        assert!(cmp[2].to_string().starts_with("MISSING"));
    }

    #[test]
    fn within_threshold_passes() {
        let baseline = vec![rec("comb", "peacock", 1024, 25.0)];
        let current = vec![rec("comb", "peacock", 1024, 70.0)]; // 2.8x
        let cmp = compare(&baseline, &current, 3.0, 5.0);
        assert_eq!(cmp[0].verdict, Verdict::Ok);
        assert!(cmp[0].to_string().contains("ok"));
    }
}
