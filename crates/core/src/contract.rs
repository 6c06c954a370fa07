//! Contraction to the PODC'15 analysis form.
//!
//! The scheduling literature normalizes a two-path update so that the
//! new route only visits switches of the old route: maximal chains of
//! new-only switches are contracted into direct *jump edges* between
//! old-route switches (their rules are installed in a preliminary
//! round and carry no traffic until a shared switch activates). The
//! contracted form exposes the combinatorics that drive round
//! complexity: each jump is **forward** or **backward** with respect to
//! old-route order, and backward jumps are what cost rounds.
//!
//! The schedulers in this crate operate on the full instance directly
//! (the safety oracles subsume the normalization argument); the
//! contracted view is used by analysis, experiments (round-count
//! scaling vs. number of backward edges) and tests.

use sdn_types::DpId;

use crate::model::{NodeRole, UpdateInstance};

/// A jump edge of the contracted instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jump {
    /// Old-route position of the jump's source switch.
    pub from_pos: usize,
    /// Old-route position of the jump's target switch.
    pub to_pos: usize,
    /// The new-only switches contracted inside this jump (possibly
    /// empty when the new route connects two old-route switches
    /// directly).
    pub via: Vec<DpId>,
}

impl Jump {
    /// A forward jump strictly advances along the old route.
    pub fn is_forward(&self) -> bool {
        self.to_pos > self.from_pos
    }

    /// Jump span (old-route positions crossed).
    pub fn span(&self) -> usize {
        self.to_pos.abs_diff(self.from_pos)
    }
}

/// The contracted instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contracted {
    /// Old-route switches in order (positions index into this).
    pub old_nodes: Vec<DpId>,
    /// The new route as a sequence of old-route positions.
    pub new_positions: Vec<usize>,
    /// One jump per consecutive pair of `new_positions`.
    pub jumps: Vec<Jump>,
}

impl Contracted {
    /// Contract an instance.
    pub fn of(inst: &UpdateInstance) -> Self {
        let old_nodes: Vec<DpId> = inst.old().hops().to_vec();

        let mut new_positions = Vec::new();
        let mut jumps = Vec::new();
        let mut pending_via: Vec<DpId> = Vec::new();
        let mut last_pos: Option<usize> = None;

        for &v in inst.new_route().hops() {
            match inst.role(v) {
                Some(NodeRole::NewOnly) => pending_via.push(v),
                _ => {
                    let p = inst
                        .old_position(v)
                        .expect("a shared switch is on the old route");
                    if let Some(lp) = last_pos {
                        jumps.push(Jump {
                            from_pos: lp,
                            to_pos: p,
                            via: std::mem::take(&mut pending_via),
                        });
                    }
                    new_positions.push(p);
                    last_pos = Some(p);
                }
            }
        }
        debug_assert!(
            pending_via.is_empty(),
            "new route must end at the shared destination"
        );
        Contracted {
            old_nodes,
            new_positions,
            jumps,
        }
    }

    /// Number of backward jumps — the quantity that drives round
    /// complexity under loop freedom.
    pub fn backward_count(&self) -> usize {
        self.jumps.iter().filter(|j| !j.is_forward()).count()
    }

    /// Number of forward jumps.
    pub fn forward_count(&self) -> usize {
        self.jumps.iter().filter(|j| j.is_forward()).count()
    }

    /// Length of the old route.
    pub fn old_len(&self) -> usize {
        self.old_nodes.len()
    }

    /// The switch at an old-route position.
    pub fn node_at(&self, pos: usize) -> DpId {
        self.old_nodes[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topo::route::RoutePath;

    fn inst(old: &[u64], new: &[u64]) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn identity_update_has_unit_forward_jumps() {
        let c = Contracted::of(&inst(&[1, 2, 3], &[1, 2, 3]));
        assert_eq!(c.new_positions, vec![0, 1, 2]);
        assert_eq!(c.jumps.len(), 2);
        assert_eq!(c.backward_count(), 0);
        assert!(c.jumps.iter().all(|j| j.is_forward() && j.span() == 1));
    }

    #[test]
    fn new_only_chain_contracts_into_one_jump() {
        // old 1-2-3-4; new 1-5-6-4: chain 5,6 contracts to jump 0 -> 3.
        let c = Contracted::of(&inst(&[1, 2, 3, 4], &[1, 5, 6, 4]));
        assert_eq!(c.new_positions, vec![0, 3]);
        assert_eq!(c.jumps.len(), 1);
        let j = &c.jumps[0];
        assert_eq!((j.from_pos, j.to_pos), (0, 3));
        assert_eq!(j.via, vec![DpId(5), DpId(6)]);
        assert!(j.is_forward());
        assert_eq!(j.span(), 3);
    }

    #[test]
    fn reversal_counts_backward_jumps() {
        // old 1-2-3-4-5; new 1-4-3-2-5
        let c = Contracted::of(&inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5]));
        assert_eq!(c.new_positions, vec![0, 3, 2, 1, 4]);
        assert_eq!(c.backward_count(), 2); // 3->2 and 2->1
        assert_eq!(c.forward_count(), 2); // 0->3 and 1->4
    }

    #[test]
    fn mixed_chains_and_shared() {
        // old 1-2-3-4-5; new 1-6-3-7-8-2-5
        let c = Contracted::of(&inst(&[1, 2, 3, 4, 5], &[1, 6, 3, 7, 8, 2, 5]));
        assert_eq!(c.new_positions, vec![0, 2, 1, 4]);
        assert_eq!(c.jumps.len(), 3);
        assert_eq!(c.jumps[0].via, vec![DpId(6)]);
        assert_eq!(c.jumps[1].via, vec![DpId(7), DpId(8)]);
        assert!(!c.jumps[1].is_forward());
        assert_eq!(c.node_at(2), DpId(3));
    }
}
