//! E3 — rounds vs path length: relaxed beats strong loop freedom.
//!
//! The claim the demo inherits from PODC'15 \[4\]: strong loop freedom
//! needs Θ(n) rounds in the worst case, relaxed ("weak") loop freedom
//! needs only O(log n) — Peacock's raison d'être. We scale the
//! old-route length on the reversal workload (the known SLF worst
//! case), on rotations (tunable backward-jump overlap), on the comb
//! interleave, on random permutations and on fat-tree multi-flow
//! batches, counting scheduler rounds *and* wall-clock time — both for
//! computing each schedule (the cross-round
//! [`AdmissionProbe`](update_core::checker::AdmissionProbe) session)
//! and for re-verifying it ([`verify_schedule`], the verifier the
//! product runs). The session carries its choice graph, topological
//! order and walk caches **across rounds**, which is what makes
//! n = 4096 reversal schedules complete well under a second; the
//! verifier carries one SLF-only session across the rounds of a
//! strong-loop-freedom schedule, which is what makes them verify in
//! as little.
//!
//! Every record self-asserts a **scale- and algorithm-aware budget**
//! ([`budget_ms`]): per-n thresholds, tight where the algorithm's cost
//! is known to be near-linear, widened (not skipped) in debug builds,
//! so the CI smoke at n = 256 and the local n = 4096 run exercise the
//! same assertion path.
//!
//! Flags:
//!
//! * `--max-n <N>` — cap the workload sizes (CI smoke uses 256, the
//!   CI regression gate 512; default 4096).
//! * `--json` — additionally write machine-readable records to
//!   `BENCH_E3.json`; `--json-out <PATH>` writes them to PATH
//!   instead. CI's `bench-smoke` job compares such records
//!   against the committed `BENCH_E3.json` (per-record medians of
//!   five runs, see EXPERIMENTS.md) via the `bench_check` binary.

use std::time::Instant;

use sdn_bench::stats::Summary;
use sdn_bench::table::{f2, Table};
use sdn_bench::Export;
use sdn_ctrl::rest::json::Json;
use sdn_types::DetRng;
use update_core::algorithms::{Peacock, SlfGreedy, TwoPhaseCommit, UpdateScheduler, WayUp};
use update_core::checker::verify_schedule;
use update_core::contract::Contracted;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;
use update_core::schedule::Schedule;

/// Per-schedule time budget in milliseconds, asserted on every record.
///
/// Scale-aware: small instances must stay fast (a blow-up at n = 256
/// fails the CI smoke), large ones get the full 1 s bar the paper-
/// scale claim is about. Algorithm-aware where a tighter bar is known:
/// Peacock schedules a reversal in 3 rounds of O(1) probes each, so a
/// budget of n / 40 ms (25 ms floor) is generous for the incremental
/// oracle and out of reach for one that traverses the instance per
/// probe (76 ms @ 2048, 288 ms @ 4096). SLF-greedy's reversal rows —
/// schedule and verification — get the same bar: each of their Θ(n)
/// one-switch rounds costs what it changes (≈ 2.3 ms and ≈ 1.3 ms @
/// 4096 on 2 vCPUs), where entering each round's edge by walking the
/// chain built so far took ≈ 0.2 s. Debug builds are 10–40× slower
/// and exist for exploration, so the budget widens instead of the
/// assertion disappearing — one code path for every build and size.
fn budget_ms(r: &Record) -> f64 {
    let n = r.n as f64;
    let release = match (r.workload, r.algo) {
        ("reversal", "peacock" | "slf-greedy" | "verify-slf-greedy") => (n / 40.0).max(25.0),
        _ => (n / 4.0).clamp(250.0, 1000.0),
    };
    if cfg!(debug_assertions) {
        release * 40.0
    } else {
        release
    }
}

/// One machine-readable measurement.
struct Record {
    workload: &'static str,
    algo: &'static str,
    n: u64,
    rounds: f64,
    ms: f64,
}

/// Schedule once, returning the schedule and milliseconds.
fn timed(sched: &dyn UpdateScheduler, inst: &UpdateInstance) -> (Schedule, f64) {
    let start = Instant::now();
    let s = sched.schedule(inst).expect("schedulable workload");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (s, ms)
}

/// Verify a schedule, returning milliseconds; panics on a violation
/// (every scheduler output here must verify).
fn verified(inst: &UpdateInstance, s: &Schedule, props: PropertySet) -> f64 {
    let start = Instant::now();
    let rep = verify_schedule(inst, s, props);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(rep.is_ok(), "schedule failed verification: {rep}");
    ms
}

fn main() {
    let mut max_n = 4096u64;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-n" => {
                max_n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-n needs a number");
            }
            "--json" => {
                json_path = Some("BENCH_E3.json".to_string());
            }
            "--json-out" => {
                json_path = Some(args.next().expect("--json-out needs a path"));
            }
            other => {
                eprintln!("unknown flag {other}; usage: exp_rounds_scaling [--max-n N] [--json | --json-out PATH]");
                std::process::exit(2);
            }
        }
    }

    println!("E3: scheduler rounds, schedule time and verify time vs old-route length n\n");

    let sizes: Vec<u64> = [4u64, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let mut records: Vec<Record> = Vec::new();

    // --- reversal (SLF worst case) ------------------------------------
    let mut t = Table::new(
        "reversal workload (new route = old route reversed)",
        &[
            "n",
            "slf-greedy",
            "slf ms",
            "verify ms",
            "peacock",
            "peacock ms",
            "verify ms",
            "two-phase",
        ],
    );
    for &n in &sizes {
        let pair = sdn_topo::gen::reversal(n);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let (slf_sched, slf_ms) = timed(&SlfGreedy, &inst);
        let slf_verify_ms = verified(&inst, &slf_sched, PropertySet::loop_free_strong());
        let (pea_sched, pea_ms) = timed(&Peacock::default(), &inst);
        let pea_verify_ms = verified(&inst, &pea_sched, PropertySet::loop_free_relaxed());
        let (tpc_sched, _) = timed(&TwoPhaseCommit, &inst);
        t.row(vec![
            n.to_string(),
            slf_sched.round_count().to_string(),
            f2(slf_ms),
            f2(slf_verify_ms),
            pea_sched.round_count().to_string(),
            f2(pea_ms),
            f2(pea_verify_ms),
            tpc_sched.round_count().to_string(),
        ]);
        for (algo, rounds, ms) in [
            ("slf-greedy", slf_sched.round_count(), slf_ms),
            ("verify-slf-greedy", slf_sched.round_count(), slf_verify_ms),
            ("peacock", pea_sched.round_count(), pea_ms),
            ("verify-peacock", pea_sched.round_count(), pea_verify_ms),
        ] {
            records.push(Record {
                workload: "reversal",
                algo,
                n,
                rounds: rounds as f64,
                ms,
            });
        }
    }
    println!("{t}");

    // --- interior rotation (overlapping backward spans, tunable) -------
    let mut tr = Table::new(
        "rotation workload (interior rotated by half, k=(n-2)/2)",
        &["n", "slf-greedy", "slf ms", "peacock", "peacock ms"],
    );
    for &n in &sizes {
        if n < 8 {
            continue;
        }
        let pair = sdn_topo::gen::rotation(n, (n - 2) / 2);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let (slf_sched, slf_ms) = timed(&SlfGreedy, &inst);
        let (pea_sched, pea_ms) = timed(&Peacock::default(), &inst);
        tr.row(vec![
            n.to_string(),
            slf_sched.round_count().to_string(),
            f2(slf_ms),
            pea_sched.round_count().to_string(),
            f2(pea_ms),
        ]);
        for (algo, rounds, ms) in [
            ("slf-greedy", slf_sched.round_count(), slf_ms),
            ("peacock", pea_sched.round_count(), pea_ms),
        ] {
            records.push(Record {
                workload: "rotation",
                algo,
                n,
                rounds: rounds as f64,
                ms,
            });
        }
    }
    println!("{tr}");

    // --- comb interleave (overlapping backward spans) -------------------
    let mut tc = Table::new(
        "comb workload (interleaved halves; overlapping backward jumps)",
        &[
            "n",
            "slf-greedy",
            "slf ms",
            "peacock",
            "peacock ms",
            "two-phase",
        ],
    );
    for &n in &sizes {
        if n < 6 {
            continue;
        }
        let pair = sdn_topo::gen::comb(n);
        let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let (slf_sched, slf_ms) = timed(&SlfGreedy, &inst);
        let (pea_sched, pea_ms) = timed(&Peacock::default(), &inst);
        let (tpc_sched, _) = timed(&TwoPhaseCommit, &inst);
        tc.row(vec![
            n.to_string(),
            slf_sched.round_count().to_string(),
            f2(slf_ms),
            pea_sched.round_count().to_string(),
            f2(pea_ms),
            tpc_sched.round_count().to_string(),
        ]);
        for (algo, rounds, ms) in [
            ("slf-greedy", slf_sched.round_count(), slf_ms),
            ("peacock", pea_sched.round_count(), pea_ms),
        ] {
            records.push(Record {
                workload: "comb",
                algo,
                n,
                rounds: rounds as f64,
                ms,
            });
        }
    }
    println!("{tc}");

    // --- random permutations ------------------------------------------
    let mut t2 = Table::new(
        "random interior permutations (mean over 10 seeds; 3 at n >= 2048)",
        &[
            "n",
            "slf-greedy",
            "slf ms",
            "peacock",
            "peacock ms",
            "backward jumps",
        ],
    );
    for &n in &sizes {
        let seeds = if n >= 2048 { 3 } else { 10 };
        let mut slf_rounds = Vec::new();
        let mut pea_rounds = Vec::new();
        let mut slf_ms = Vec::new();
        let mut pea_ms = Vec::new();
        let mut backs = Vec::new();
        for seed in 0..seeds {
            let mut rng = DetRng::new(seed * 7919 + n);
            let pair = sdn_topo::gen::random_permutation(n, &mut rng);
            let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            backs.push(Contracted::of(&inst).backward_count() as f64);
            let (s, ms) = timed(&SlfGreedy, &inst);
            slf_rounds.push(s.round_count() as f64);
            slf_ms.push(ms);
            let (s, ms) = timed(&Peacock::default(), &inst);
            pea_rounds.push(s.round_count() as f64);
            pea_ms.push(ms);
        }
        t2.row(vec![
            n.to_string(),
            f2(Summary::of(&slf_rounds).mean),
            f2(Summary::of(&slf_ms).mean),
            f2(Summary::of(&pea_rounds).mean),
            f2(Summary::of(&pea_ms).mean),
            f2(Summary::of(&backs).mean),
        ]);
        for (algo, rounds, ms) in [
            ("slf-greedy", &slf_rounds, &slf_ms),
            ("peacock", &pea_rounds, &pea_ms),
        ] {
            records.push(Record {
                workload: "random_permutation",
                algo,
                n,
                rounds: Summary::of(rounds).mean,
                ms: Summary::of(ms).mean,
            });
        }
    }
    println!("{t2}");

    // --- fat-tree multi-flow batches -----------------------------------
    // Datacenter-shaped throughput: n short (5-hop) inter-pod
    // re-routes through a 16-ary fat tree, mixed core re-routes
    // (shared interior, some waypointed) and uplink re-routes
    // (disjoint detours). Waypointed flows go through WayUp, the rest
    // through Peacock; the whole batch is re-verified.
    let mut tf = Table::new(
        "fat-tree multi-flow batches (k=16, inter-pod re-routes; ms per batch)",
        &["flows", "slf-greedy ms", "peacock+wayup ms", "verify ms"],
    );
    for &n in &sizes {
        if n < 64 {
            continue;
        }
        let mut rng = DetRng::new(n ^ 0xf47);
        let flows = sdn_topo::gen::fat_tree_flows(16, n as usize, &mut rng);
        let insts: Vec<UpdateInstance> = flows
            .iter()
            .map(|p| UpdateInstance::new(p.old.clone(), p.new.clone(), p.waypoint).unwrap())
            .collect();

        let start = Instant::now();
        let mut slf_rounds = 0usize;
        for inst in &insts {
            let s = SlfGreedy.schedule(inst).expect("schedulable");
            slf_rounds += s.round_count();
        }
        let slf_batch_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut mixed: Vec<Schedule> = Vec::with_capacity(insts.len());
        for inst in &insts {
            let s = if inst.waypoint().is_some() {
                WayUp::default().schedule(inst).expect("schedulable")
            } else {
                Peacock::default().schedule(inst).expect("schedulable")
            };
            mixed.push(s);
        }
        let mixed_batch_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        for (inst, s) in insts.iter().zip(&mixed) {
            let props = if inst.waypoint().is_some() {
                PropertySet::transiently_secure()
            } else {
                PropertySet::loop_free_relaxed()
            };
            let rep = verify_schedule(inst, s, props);
            assert!(rep.is_ok(), "fat-tree schedule failed verification: {rep}");
        }
        let verify_batch_ms = start.elapsed().as_secs_f64() * 1e3;

        tf.row(vec![
            n.to_string(),
            f2(slf_batch_ms),
            f2(mixed_batch_ms),
            f2(verify_batch_ms),
        ]);
        let mean_mixed_rounds =
            mixed.iter().map(|s| s.round_count()).sum::<usize>() as f64 / insts.len() as f64;
        for (algo, rounds, ms) in [
            (
                "slf-greedy",
                slf_rounds as f64 / insts.len() as f64,
                slf_batch_ms,
            ),
            ("peacock-wayup", mean_mixed_rounds, mixed_batch_ms),
            // The label predates the one verifier; BENCH_E3.json keys on it.
            ("verify-incremental", mean_mixed_rounds, verify_batch_ms),
        ] {
            records.push(Record {
                workload: "fat_tree",
                algo,
                n,
                rounds,
                ms,
            });
        }
    }
    println!("{tf}");
    println!("expected shape: slf-greedy grows ~linearly on reversals while");
    println!("peacock stays flat (relaxed loop freedom updates off-path");
    println!("switches for free); two-phase is constant but doubles rules.");
    println!("schedule AND verify time must meet the per-n budget everywhere");
    println!("— the cross-round session (AdmissionProbe::commit_round), in the");
    println!("scheduler and in verify_schedule's SLF check, makes n=4096 tractable.");

    // The acceptance bar this experiment guards: every schedule — and
    // every whole-schedule verification — within its scale-aware
    // budget, including the full n=4096 reversal. CI's regression gate
    // (in the bench smoke) runs this binary in release mode,
    // so a scaling regression in the cross-round session or the
    // verifier fails the build; debug builds assert the
    // same budgets, widened 40×.
    for r in &records {
        let budget = budget_ms(r);
        assert!(
            r.ms < budget,
            "{} {} n={} took {:.1} ms (budget {budget:.0} ms)",
            r.workload,
            r.algo,
            r.n,
            r.ms
        );
    }
    for (algo, what) in [("slf-greedy", "schedule"), ("verify-slf-greedy", "verify")] {
        if let Some(r) = records
            .iter()
            .find(|r| r.workload == "reversal" && r.algo == algo && r.n == max_n.min(4096))
        {
            println!(
                "\nn={} reversal slf-greedy {what}: {:.1} ms (< {:.0} ms budget)",
                r.n,
                r.ms,
                budget_ms(r)
            );
        }
    }

    if let Some(path) = json_path {
        let mut export = Export::new("rounds_scaling").header("max_n", Json::Num(max_n as f64));
        for r in &records {
            export.push(
                sdn_bench::Record::new(r.workload, r.algo, r.n, r.ms)
                    .with("rounds", Json::Num(r.rounds))
                    .with("budget_ms", Json::Num(budget_ms(r))),
            );
        }
        println!("{}", export.write(&path));
    }
}
