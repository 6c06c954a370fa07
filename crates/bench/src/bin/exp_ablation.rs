//! E6 — ablations of the design choices called out in DESIGN.md.
//!
//! (a) Peacock candidate orderings — how much the off-path-first order
//!     buys over naive orders;
//! (b) (none: the safety oracle it compared with an exact one is exact
//!     itself; the letters of the others are kept);
//! (c) per-connection FIFO vs datagram channel — barriers are
//!     meaningless without FIFO ordering, and violations return: a
//!     barrier that overtakes its FlowMod closes round 0 early, and a
//!     round-1 flip can land before a new-only rule it forwards to
//!     (probes blackholed). Under 10 ms jitter about one run in ten
//!     meets such an overtake during the probe window, so the row
//!     counts 64 seeds and the runs that saw any violation;
//! (d) WayUp's loop-freedom strength — relaxed (the demo's pairing)
//!     vs strong sub-scheduling;
//! (e) crossing switches — WayUp's fallback rate on crossing workloads
//!     and on the HotNets'14 instance, where no replacement exists.

use sdn_bench::stats::Summary;
use sdn_bench::table::{f2, Table};
use sdn_channel::config::ChannelConfig;
use sdn_sim::scenario::{run_scenario, AlgoChoice, Scenario};
use sdn_types::{DetRng, DpId, SimDuration};
use update_core::algorithms::{CandidateOrdering, Peacock, UpdateScheduler, WayUp};
use update_core::model::UpdateInstance;

fn main() {
    println!("E6: ablations\n");

    // (a) orderings ------------------------------------------------------
    let mut ta = Table::new(
        "(a) Peacock candidate ordering: rounds (mean over 10 random n=64 permutations)",
        &["ordering", "reversal n=64", "random n=64"],
    );
    for (name, ord) in [
        ("off-path-first", CandidateOrdering::OffPathFirst),
        (
            "alternating-backward",
            CandidateOrdering::AlternatingBackward,
        ),
        ("new-route-reverse", CandidateOrdering::NewRouteReverse),
        ("old-route-position", CandidateOrdering::OldRoutePosition),
    ] {
        let pea = Peacock { ordering: ord };
        let rev = {
            let p = sdn_topo::gen::reversal(64);
            let inst = UpdateInstance::new(p.old, p.new, None).unwrap();
            pea.schedule(&inst).unwrap().round_count()
        };
        let mut rnd = Vec::new();
        for seed in 0..10u64 {
            let mut rng = DetRng::new(seed + 1);
            let p = sdn_topo::gen::random_permutation(64, &mut rng);
            let inst = UpdateInstance::new(p.old, p.new, None).unwrap();
            rnd.push(pea.schedule(&inst).unwrap().round_count() as f64);
        }
        ta.row(vec![
            name.to_string(),
            rev.to_string(),
            f2(Summary::of(&rnd).mean),
        ]);
    }
    println!("{ta}");

    // (c) FIFO vs datagram channel ----------------------------------------
    let mut tc = Table::new(
        "(c) channel ordering: WayUp on Figure 1, 2000 probes, 64 seeds",
        &[
            "channel",
            "bypassed wp",
            "blackholed",
            "looped",
            "runs violated",
        ],
    );
    const SEEDS: u64 = 64;
    for (name, fifo) in [("FIFO (TCP-like)", true), ("non-FIFO (datagram)", false)] {
        let mut bypass = 0u64;
        let mut bh = 0u64;
        let mut lp = 0u64;
        let mut violated = 0u64;
        for seed in 0..SEEDS {
            let f = sdn_topo::builders::figure1();
            let pair = sdn_topo::gen::UpdatePair {
                old: f.old_route,
                new: f.new_route,
                waypoint: Some(f.waypoint),
            };
            let ch = ChannelConfig::jittery(SimDuration::from_millis(10));
            let ch = if fifo { ch } else { ch.without_fifo() };
            let mut sc = Scenario::new("fifo-ablation", pair, AlgoChoice::WayUp)
                .with_channel(ch)
                .with_seed(7000 + seed);
            sc.inject_interval = SimDuration::from_micros(100);
            sc.inject_count = 2000;
            sc.verify = false;
            let out = run_scenario(&sc).expect("runs");
            let v = &out.sim.violations;
            bypass += v.waypoint_bypasses;
            bh += v.blackholes;
            lp += v.loops;
            violated += u64::from(v.waypoint_bypasses + v.blackholes + v.loops > 0);
        }
        tc.row(vec![
            name.to_string(),
            bypass.to_string(),
            bh.to_string(),
            lp.to_string(),
            format!("{violated}/{SEEDS}"),
        ]);
    }
    println!("{tc}");

    // (d) WayUp loop-freedom strength -------------------------------------
    let mut td = Table::new(
        "(d) WayUp sub-scheduling: rounds (mean over 10 waypointed n=24 workloads)",
        &["loop freedom", "rounds"],
    );
    for (name, strong) in [("relaxed (demo)", false), ("strong", true)] {
        let wu = WayUp {
            strong_loop_freedom: strong,
        };
        let mut rounds = Vec::new();
        for seed in 0..10u64 {
            let mut rng = DetRng::new(seed + 300);
            let p = sdn_topo::gen::waypointed(24, false, &mut rng);
            let inst = UpdateInstance::new(p.old, p.new, p.waypoint).unwrap();
            rounds.push(wu.schedule(&inst).unwrap().round_count() as f64);
        }
        td.row(vec![name.to_string(), f2(Summary::of(&rounds).mean)]);
    }
    println!("{td}");

    // (e) crossing fallback rate -------------------------------------------
    let mut te = Table::new(
        "(e) WayUp fallback rate (20 workloads each, n=12; HotNets'14 instance once)",
        &["workload", "replacement", "2pc fallback"],
    );
    let generated = |crossing: bool| -> Vec<sdn_topo::gen::UpdatePair> {
        (0..20u64)
            .map(|seed| sdn_topo::gen::waypointed(12, crossing, &mut DetRng::new(seed + 400)))
            .collect()
    };
    // old ⟨1,2,3,4,5⟩, new ⟨1,4,3,2,5⟩, waypoint 3: 2 and 4 cross the
    // waypoint and no replacement order keeps it enforced
    let hotnets = sdn_topo::gen::UpdatePair {
        waypoint: Some(DpId(3)),
        ..sdn_topo::gen::reversal(5)
    };
    for (name, pairs) in [
        ("crossing-free", generated(false)),
        ("with crossing", generated(true)),
        ("HotNets'14 crossing", vec![hotnets]),
    ] {
        let mut repl = 0;
        let mut fall = 0;
        for p in pairs {
            let inst = UpdateInstance::new(p.old, p.new, p.waypoint).unwrap();
            let s = WayUp::default().schedule(&inst).unwrap();
            if s.fallback {
                fall += 1;
            } else {
                repl += 1;
            }
        }
        te.row(vec![name.to_string(), repl.to_string(), fall.to_string()]);
    }
    println!("{te}");
}
