//! `e2e-bench`: the repo's wall-clock benchmark, from REST request
//! bytes to committed flow tables, with a per-layer cost ledger.
//!
//! See `benchmark/README.md` for the metric glossary, the workloads
//! and the public surface of the program this harness pins.

mod alloc;
mod driver;
mod gate;
mod ledger;
mod procfs;
mod replay;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use driver::{Driver, Outcome};
use report::{PassSummary, WorkloadResult};
use workload::Spec;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Untraced passes per run; an end-to-end metric's value is the best
/// of its per-pass values.
const PASSES: usize = 5;
/// Default measured seconds per workload (`run_seconds` in
/// `BENCHMARK.json`): five 4 s windows.
const RUN_SECONDS: u64 = 20;

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-only | --smoke | --repeat N] [--out DIR]
       run.sh manifest        print the BENCHMARK.json the metric tables define

  --workload NAME  run one workload and end with the result line
                   (default: all five, interleaved pass by pass)
  --seed N         seeds flow generation and the channel RNG (default 1)
  --seconds S      measured seconds per workload, split over 5 passes (default 20)
  --trace 0|1      1: one untraced and one traced pass, per-layer metrics only
  --trace-only     same as --trace 1
  --smoke          1 pass, 1 s windows, correctness gate only
  --repeat N       run the end-to-end set N times and compare run 1 with each
  --out DIR        where results.json and trace-<workload>.json go";

struct Args {
    workloads: Vec<Spec>,
    single: bool,
    seed: u64,
    seconds: f64,
    passes: usize,
    end_to_end: bool,
    layers: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: workload::specs().to_vec(),
        single: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        passes: PASSES,
        end_to_end: true,
        layers: true,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut trace_flag = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::spec(&name).ok_or(format!("no workload {name}"))?;
                args.workloads = vec![spec];
                args.single = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace_flag = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-only" => trace_flag = Some(true),
            "--smoke" => {
                args.passes = 1;
                args.seconds = 1.0;
                trace_flag = Some(false);
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 runs to compare".into());
                }
                trace_flag = Some(false);
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // an explicit --trace picks one side; the default full run has both
    if let Some(traced) = trace_flag {
        args.end_to_end = !traced;
        args.layers = traced;
    }
    Ok(args)
}

fn run_pass(spec: Spec, seed: u64, window: f64, traced: bool) -> Outcome {
    alloc::set_enabled(traced);
    let outcome = Driver::set_up(spec, seed, traced).run(Duration::from_secs_f64(window));
    alloc::set_enabled(false);
    for failure in &outcome.failures.first {
        eprintln!("{}: FAILED {failure}", spec.name);
    }
    outcome
}

/// One complete set of runs: untraced passes interleaved across the
/// workloads (so each workload's samples spread over the whole run and
/// a noisy neighbour cannot land on one of them alone), then per
/// workload an untraced reference pass with the traced pass right
/// behind it — the machine's speed drifts by the minute, so tracing
/// overhead is only meaningful between neighbours.
fn measure(args: &Args) -> std::io::Result<Vec<WorkloadResult>> {
    let window = if args.end_to_end {
        args.seconds / args.passes as f64
    } else {
        args.seconds / 2.0
    };
    let untraced_passes = if args.end_to_end { args.passes } else { 0 };
    let mut summaries: Vec<Vec<PassSummary>> = vec![Vec::new(); args.workloads.len()];
    for _ in 0..untraced_passes {
        for (i, &spec) in args.workloads.iter().enumerate() {
            summaries[i].push(PassSummary::of(run_pass(spec, args.seed, window, false)));
        }
    }
    let mut results = Vec::new();
    for (&spec, mut untraced) in args.workloads.iter().zip(summaries) {
        let mut per_layer = Vec::new();
        let mut traced_counts = (0, 0);
        if args.layers {
            untraced.push(PassSummary::of(run_pass(spec, args.seed, window, false)));
            let traced = run_pass(spec, args.seed, window, true);
            std::fs::create_dir_all(&args.out)?;
            std::fs::write(
                args.out.join(format!("trace-{}.json", spec.name)),
                traced.ledger.trace_json(spec.name, args.seed),
            )?;
            alloc::set_enabled(true); // for openflow.allocs_per_encode
            let units = replay::run(
                &traced.counters.sent_sample,
                &traced.counters.recv_sample,
                &traced.switches,
                traced.counters.compiled_sample.as_ref(),
            );
            alloc::set_enabled(false);
            traced_counts = (traced.attempted, traced.failures.count);
            per_layer = report::per_layer_metrics(&untraced, &traced, &units);
        }
        results.push(WorkloadResult {
            spec,
            attempted: untraced.iter().map(|s| s.attempted).sum::<u64>() + traced_counts.0,
            failed: untraced.iter().map(|s| s.failed).sum::<u64>() + traced_counts.1,
            end_to_end: if args.end_to_end {
                report::end_to_end_metrics(&untraced[..untraced_passes])
            } else {
                Vec::new()
            },
            per_layer,
        });
    }
    Ok(results)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn run(args: &Args, nproc: usize) -> std::io::Result<bool> {
    let first = measure(args)?;
    report::print(&first);
    std::fs::create_dir_all(&args.out)?;
    std::fs::write(
        args.out.join("results.json"),
        report::results_json(
            &first,
            args.seed,
            args.seconds,
            args.passes,
            nproc,
            &git_rev(),
        ),
    )?;
    let mut ok = first.iter().all(|r| r.failed == 0);
    for _ in 1..args.repeat {
        let again = measure(args)?;
        let (table, breaches) = report::compare(&first, &again);
        println!("{table}");
        ok &= breaches == 0 && again.iter().all(|r| r.failed == 0);
    }
    if args.single {
        println!("{}", report::result_line(&first[0], args.layers));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("manifest") {
        print!("{}", report::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One CPU for the whole process (threads inherit the mask). Left to
    // itself the kernel either co-locates the driver and the two
    // transport threads or spreads them over both vCPUs, stays in
    // whichever it picked for minutes, and the spread placement pays a
    // cross-CPU wake-up per hand-off: the same code measured 8.5 ms or
    // 22 ms per `reversal_deep` update depending on the episode.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !procfs::pin_current_thread(cpus - 1) {
        eprintln!(
            "warning: could not pin to CPU {}; expect bimodal results",
            cpus - 1
        );
    }
    match run(&args, cpus) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark FAILED: outputs were not correct (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}
