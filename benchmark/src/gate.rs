//! The correctness gate run after every window: the committed flow
//! tables must be exactly what the controller intended, and every
//! flow's packets must still reach their destination along the route
//! the client last committed (through the waypoint when it has one).

use std::collections::HashMap;

use sdn_ctrl::runtime::RuntimeHandle;
use sdn_openflow::PacketMeta;
use sdn_switch::SoftSwitch;
use sdn_topo::graph::PortPeer;
use sdn_types::DpId;

use crate::workload::{Flow, Workload};

/// Where each switch sits in a slice of them.
pub fn index_by_dpid(switches: &[SoftSwitch]) -> HashMap<DpId, usize> {
    switches
        .iter()
        .enumerate()
        .map(|(i, s)| (s.dpid(), i))
        .collect()
}

/// Walk a probe hop by hop from the flow's source host and return the
/// switches it visits, or why it never reached the destination host.
fn walk(
    wl: &Workload,
    flow: &Flow,
    switches: &mut [SoftSwitch],
    index: &HashMap<DpId, usize>,
) -> Result<Vec<DpId>, String> {
    let src = wl.topo.host(flow.hosts.src).ok_or("no source host")?;
    let mut at = src.attached_to;
    let mut pkt = PacketMeta {
        in_port: src.port,
        src: flow.hosts.src,
        dst: flow.hosts.dst,
        tag: None,
    };
    let mut visited = Vec::new();
    // a loop-free walk visits each switch at most once
    for _ in 0..=switches.len() {
        visited.push(at);
        let sw = &mut switches[*index.get(&at).ok_or(format!("no switch {at}"))?];
        let mut out = sw.process_packet(pkt).emitted;
        if out.len() != 1 {
            return Err(format!("{} copies emitted at {at}", out.len()));
        }
        let (port, meta) = out.remove(0);
        match wl.topo.port_peer(at, port) {
            Some(PortPeer::Host(h, _)) if h == flow.hosts.dst => return Ok(visited),
            Some(PortPeer::Host(h, _)) => return Err(format!("delivered to {h}")),
            Some(PortPeer::Switch(next, _)) => {
                let in_port = wl.topo.egress_port(next, at).ok_or("one-way link")?;
                pkt = PacketMeta { in_port, ..meta };
                at = next;
            }
            None => return Err(format!("{at} emitted on dangling port {port}")),
        }
    }
    Err(format!("forwarding loop via {visited:?}"))
}

/// Every mismatch between what was committed and what the switches
/// hold; empty when the pass was correct. `commits[i]` is how many
/// flips client `i` committed.
pub fn check(
    wl: &Workload,
    switches: &mut [SoftSwitch],
    fabric: &dyn RuntimeHandle,
    commits: &[u64],
) -> Vec<String> {
    let mut bad = Vec::new();
    for sw in switches.iter() {
        let intended = fabric.intended_hashes(sw.dpid()).unwrap_or_default();
        if sw.table().rule_hashes() != intended {
            bad.push(format!(
                "{}: table holds {} rules, controller intended {}",
                sw.dpid(),
                sw.table().len(),
                intended.len()
            ));
        }
    }
    let index = index_by_dpid(switches);
    for (i, flow) in wl.flows.iter().enumerate() {
        let route = flow.route_after(commits[i]);
        match walk(wl, flow, switches, &index) {
            Ok(visited) if visited == route.hops() => {}
            Ok(visited) => bad.push(format!(
                "flow {i}: probe went {visited:?}, committed route is {:?}",
                route.hops()
            )),
            Err(why) => bad.push(format!("flow {i}: {why}")),
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::install_initial;
    use crate::workload::spec;
    use sdn_ctrl::runtime::{FabricConfig, FabricCoordinator};
    use sdn_openflow::{Envelope, FlowMatch, FlowMod, FlowModCommand, OfMessage};
    use sdn_types::Xid;

    fn fresh() -> (Workload, FabricCoordinator, Vec<SoftSwitch>) {
        let wl = Workload::generate(spec("reversal_lossy").unwrap(), 1);
        let mut fabric = FabricCoordinator::new(FabricConfig {
            shards: 1,
            ..FabricConfig::default()
        });
        let switches = install_initial(&wl, &mut fabric);
        (wl, fabric, switches)
    }

    #[test]
    fn freshly_installed_tables_pass() {
        let (wl, fabric, mut switches) = fresh();
        let commits = vec![0; wl.flows.len()];
        assert_eq!(
            check(&wl, &mut switches, &fabric, &commits),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_lost_rule_fails_both_the_table_and_the_probe() {
        let (wl, fabric, mut switches) = fresh();
        // drop flow 0's rule at its second hop, behind the fabric's back
        let flow = &wl.flows[0];
        let victim = flow.pair.old.hops()[1];
        let sw = switches.iter_mut().find(|s| s.dpid() == victim).unwrap();
        sw.handle_control(Envelope::new(
            Xid(1),
            OfMessage::FlowMod(FlowMod {
                command: FlowModCommand::Delete,
                priority: sdn_ctrl::compile::BASE_PRIORITY,
                matcher: FlowMatch::dst_host(flow.hosts.dst),
                actions: vec![],
                cookie: 0,
            }),
        ));
        let commits = vec![0; wl.flows.len()];
        let bad = check(&wl, &mut switches, &fabric, &commits);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].contains("controller intended"), "{bad:?}");
        assert!(bad[1].starts_with("flow 0:"), "{bad:?}");
    }

    #[test]
    fn a_flow_on_the_wrong_route_fails_its_probe() {
        let (wl, fabric, mut switches) = fresh();
        // the tables hold every flow's old route; claim flow 3 flipped
        let mut commits = vec![0; wl.flows.len()];
        commits[3] = 1;
        let bad = check(&wl, &mut switches, &fabric, &commits);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("flow 3: probe went"), "{bad:?}");
    }
}
