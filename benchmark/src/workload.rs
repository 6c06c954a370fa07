//! The five workloads: what each one is made of and why it exists.
//!
//! A workload is a topology, a set of flows (one closed-loop client
//! each) and a controller configuration. Everything random about it
//! derives from `--seed`; the program under test sees only the request
//! bodies generated here. Each client flips its flow old→new→old→…,
//! so a fixed topology yields an endless stream of updates.

use sdn_channel::ChannelConfig;
use sdn_ctrl::compile::FlowSpec;
use sdn_topo::gen::{self, UpdatePair};
use sdn_topo::route::RoutePath;
use sdn_topo::Topology;
use sdn_types::{DetRng, DpId, SimDuration};
use update_core::partition::ShardAssignment;

/// Static shape of a workload (everything but the seeded flows).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as it appears in `BENCHMARK.json` and every output line.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Fabric shards (1 = the degenerate single-runtime case).
    pub shards: u32,
    /// Write-ahead journals on every runtime and the fabric.
    pub journal: bool,
    /// `Obs::recording()` on fabric and transport, plus REST scrapes
    /// (`/v1/status`, `/v1/metrics`, `/v1/trace/{job}`) every 100 ms.
    pub observed: bool,
    /// The control channel's fault and delay profile.
    pub channel: ChannelConfig,
    /// Wall-clock compression of the channel's simulated delays.
    pub time_scale: f64,
    /// Echo-carried per-FlowMod acknowledgements.
    pub flowmod_acks: bool,
    /// Commits that end the warm-up (sized for about half a second).
    pub warmup_updates: u64,
}

fn ideal() -> ChannelConfig {
    ChannelConfig::ideal(SimDuration::ZERO)
}

/// Every workload, in the fixed order passes run them.
pub fn specs() -> [Spec; 5] {
    let base = Spec {
        name: "",
        why: "",
        shards: 1,
        journal: false,
        observed: false,
        channel: ideal(),
        time_scale: 1.0,
        flowmod_acks: false,
        warmup_updates: 0,
    };
    [
        Spec {
            name: "fat_tree_sat",
            why: "512 fat-tree clients saturate one shard: per-active-job poll/on_message cost and per-update fixed costs dominate; the cleanup grace floors latency.",
            warmup_updates: 2000,
            ..base
        },
        Spec {
            name: "reversal_deep",
            why: "One client, 126 one-switch rounds: latency-bound on the transport round trip, CPU mostly idle; throughput-oriented changes must leave it flat.",
            warmup_updates: 150,
            ..base
        },
        Spec {
            name: "reversal_wide",
            why: "Four clients, 3 rounds of ~85 FlowMods, 2.5 KB bodies: Peacock scheduling, verification, parsing and burst sends dominate.",
            warmup_updates: 150,
            ..base
        },
        Spec {
            name: "fabric_xshard",
            why: "Everything on: 4 shards with half the flows cross-shard, journals, obs recording and REST scrapes beside the writes.",
            shards: 4,
            journal: true,
            observed: true,
            warmup_updates: 4000,
            ..base
        },
        Spec {
            name: "reversal_lossy",
            why: "The paper's asynchronous channel: 1% loss, 1% duplication, FlowMod acks; the only workload off the fast path (RTO, retransmit, dedup).",
            // no corruption: a corrupted-but-decodable frame may
            // deposit a spurious rule, which would void the table check.
            // 1 % loss keeps the median off the RTO cliff: an update is
            // ~32 droppable messages, so 72 % of updates lose nothing
            // and p50 lies inside that hump. At 2 % it is 52 %, and p50
            // stands on the edge of the 2 ms gap to the updates that
            // retransmit (p40 1.1 ms, p50 1.3 ms, p60 2.8 ms; README.md)
            channel: ChannelConfig::lossy(0.01).with_duplication(0.01),
            time_scale: 0.01,
            flowmod_acks: true,
            warmup_updates: 1200,
            ..base
        },
    ]
}

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// One flow and the closed-loop client that keeps flipping it.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The flow's two routes and optional waypoint.
    pub pair: UpdatePair,
    /// Source and destination hosts in the topology.
    pub hosts: FlowSpec,
    /// The two request documents the client alternates between:
    /// `[old→new, new→old]`.
    pub bodies: [String; 2],
}

impl Flow {
    /// The route installed after `commits` committed flips.
    pub fn route_after(&self, commits: u64) -> &RoutePath {
        if commits.is_multiple_of(2) {
            &self.pair.old
        } else {
            &self.pair.new
        }
    }
}

/// A generated workload instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its static shape.
    pub spec: Spec,
    /// The switches and links every flow's two routes need.
    pub topo: Topology,
    /// One flow per client.
    pub flows: Vec<Flow>,
    /// Switch → shard map handed to the fabric.
    pub assign: ShardAssignment,
}

/// The WayUp REST document for one direction of a flow.
fn body(old: &RoutePath, new: &RoutePath, waypoint: Option<DpId>, algorithm: &str) -> String {
    let path = |r: &RoutePath| {
        let ids: Vec<String> = r.raw().iter().map(u64::to_string).collect();
        ids.join(",")
    };
    let wp = waypoint.map_or(String::new(), |w| format!("\"wp\":{},", w.0));
    format!(
        "{{\"oldpath\":[{}],\"newpath\":[{}],{wp}\"interval\":100,\"algorithm\":\"{algorithm}\"}}",
        path(old),
        path(new)
    )
}

/// Pin flow `i` to shard `i % shards`; the first `cross` flows straddle
/// their home shard and its neighbour (half the hops each), forcing
/// the two-phase path — E10's assignment.
fn straddling(pairs: &[UpdatePair], shards: u32, cross: usize) -> ShardAssignment {
    let mut overrides = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let home = i as u32 % shards;
        let away = (home + 1) % shards;
        let hops = pair.old.hops();
        for (j, &dp) in hops.iter().enumerate() {
            let s = if i < cross && j >= hops.len() / 2 {
                away
            } else {
                home
            };
            overrides.push((dp, s));
        }
    }
    ShardAssignment::with_overrides(shards, overrides)
}

impl Workload {
    /// Generate the workload `spec` describes from `seed`.
    pub fn generate(spec: Spec, seed: u64) -> Workload {
        let mut rng = DetRng::new(seed).derive("flows", 0);
        // reversal families are deterministic shapes; the seed moves
        // them through the dpid space (four-digit ids throughout, so
        // body sizes do not depend on it)
        let base = rng.range_u64(1000, 8000);
        let disjoint = |n: u64, copies: u64| -> Vec<UpdatePair> {
            (0..copies)
                .map(|i| gen::shift(&gen::reversal(n), base + (n + 2) * i))
                .collect()
        };
        let (pairs, algorithm) = match spec.name {
            "fat_tree_sat" => (gen::fat_tree_flows(8, 512, &mut rng), "slf-greedy"),
            "reversal_deep" => (disjoint(128, 1), "slf-greedy"),
            "reversal_wide" => (disjoint(256, 4), "peacock"),
            "fabric_xshard" | "reversal_lossy" => (disjoint(8, 8), "slf-greedy"),
            other => panic!("no generator for workload {other}"),
        };
        let topo = gen::materialize_batch(&pairs);
        let assign = if spec.shards > 1 {
            straddling(&pairs, spec.shards, pairs.len() / 2)
        } else {
            ShardAssignment::modulo(1)
        };
        let flows = pairs
            .into_iter()
            .enumerate()
            .map(|(i, pair)| {
                // the paper's scheduler whenever there is a waypoint
                // to enforce; the workload's own otherwise
                let algo = if pair.waypoint.is_some() {
                    "wayup"
                } else {
                    algorithm
                };
                let (src, dst) = gen::batch_hosts(i);
                Flow {
                    bodies: [
                        body(&pair.old, &pair.new, pair.waypoint, algo),
                        body(&pair.new, &pair.old, pair.waypoint, algo),
                    ],
                    hosts: FlowSpec { src, dst },
                    pair,
                }
            })
            .collect();
        Workload {
            spec,
            topo,
            flows,
            assign,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, seed: u64) -> Vec<String> {
        let w = Workload::generate(spec(name).unwrap(), seed);
        w.flows.into_iter().flat_map(|f| f.bodies).collect()
    }

    #[test]
    fn same_seed_same_request_bytes_different_seed_different() {
        for s in specs() {
            assert_eq!(stream(s.name, 7), stream(s.name, 7), "{}", s.name);
            assert_ne!(stream(s.name, 7), stream(s.name, 8), "{}", s.name);
        }
    }

    #[test]
    fn bodies_describe_the_flip_in_both_directions() {
        let w = Workload::generate(spec("fat_tree_sat").unwrap(), 1);
        assert_eq!(w.flows.len(), 512);
        let waypointed = w.flows.iter().find(|f| f.pair.waypoint.is_some()).unwrap();
        assert!(waypointed.bodies[0].contains("\"wp\":"));
        assert!(waypointed.bodies[0].contains("\"algorithm\":\"wayup\""));
        let plain = w.flows.iter().find(|f| f.pair.waypoint.is_none()).unwrap();
        assert!(!plain.bodies[1].contains("\"wp\""));
        assert_eq!(plain.route_after(0), &plain.pair.old);
        assert_eq!(plain.route_after(3), &plain.pair.new);
    }

    #[test]
    fn xshard_assignment_straddles_half_the_flows() {
        let w = Workload::generate(spec("fabric_xshard").unwrap(), 1);
        let shards_of = |f: &Flow| {
            let mut s: Vec<u32> = f
                .pair
                .old
                .hops()
                .iter()
                .map(|&dp| w.assign.shard_of(dp))
                .collect();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        let cross = w.flows.iter().filter(|f| shards_of(f) == 2).count();
        assert_eq!(cross, 4);
        assert_eq!(w.flows.len(), 8);
    }
}
