//! `bench_check` — the CI perf-regression gate.
//!
//! Compares a fresh `exp_rounds_scaling` JSON export against a
//! committed baseline (`BENCH_E3.json`) and exits non-zero when any
//! per-schedule timing regressed beyond the noise threshold, or when a
//! baseline record the run should have produced is missing. Run by
//! the `bench-smoke` job in `.github/workflows/ci.yml`:
//!
//! ```text
//! cargo run --release -p sdn-bench --bin exp_rounds_scaling -- \
//!     --max-n 512 --json-out bench_current.json
//! cargo run --release -p sdn-bench --bin bench_check -- \
//!     --baseline BENCH_E3.json --current bench_current.json
//! ```
//!
//! Flags: `--baseline PATH` (required), `--current PATH` (required),
//! `--threshold X` (default 3.0 — generous, CI runners are noisy),
//! `--floor-ms MS` (default 5.0 — sub-floor rows never fail).

use sdn_bench::regression::{compare, records_of, Verdict};
use sdn_ctrl::rest::json;

fn die(msg: &str) -> ! {
    eprintln!("bench_check: {msg}");
    eprintln!("usage: bench_check --baseline PATH --current PATH [--threshold X] [--floor-ms MS]");
    std::process::exit(2);
}

fn load(path: &str) -> Vec<sdn_bench::regression::BenchRecord> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    records_of(&doc).unwrap_or_else(|e| die(&format!("bad export {path}: {e}")))
}

fn main() {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut threshold = 3.0f64;
    let mut floor_ms = 5.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--current" => current_path = Some(value("--current")),
            "--threshold" => {
                threshold = value("--threshold")
                    .parse()
                    .unwrap_or_else(|_| die("--threshold needs a number"))
            }
            "--floor-ms" => {
                floor_ms = value("--floor-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--floor-ms needs a number"))
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| die("--baseline is required"));
    let current_path = current_path.unwrap_or_else(|| die("--current is required"));

    let baseline = load(&baseline_path);
    let current = load(&current_path);
    if current.is_empty() {
        die("current export contains no records");
    }

    println!(
        "comparing {} current records ({current_path}) against {} baseline records \
         ({baseline_path}); threshold {threshold}x, floor {floor_ms} ms\n",
        current.len(),
        baseline.len(),
    );
    let comparisons = compare(&baseline, &current, threshold, floor_ms);
    for c in &comparisons {
        println!("{c}");
    }
    let regressed: Vec<_> = comparisons
        .iter()
        .filter(|c| c.verdict == Verdict::Regressed)
        .collect();
    let missing: Vec<_> = comparisons
        .iter()
        .filter(|c| c.verdict == Verdict::Missing)
        .collect();
    let skipped = comparisons
        .iter()
        .filter(|c| c.verdict == Verdict::Skipped)
        .count();
    println!(
        "\n{} compared, {} regressed, {} missing, {} skipped (no baseline)",
        comparisons.len() - missing.len(),
        regressed.len(),
        missing.len(),
        skipped
    );
    if !regressed.is_empty() {
        eprintln!("\nperformance regressions detected:");
        for c in &regressed {
            eprintln!("  {c}");
        }
    }
    if !missing.is_empty() {
        eprintln!("\nbaseline records the current run did not produce:");
        for c in &missing {
            eprintln!("  {c}");
        }
    }
    if !regressed.is_empty() || !missing.is_empty() {
        std::process::exit(1);
    }
}
