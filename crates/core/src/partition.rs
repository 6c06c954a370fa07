//! The switch → shard map of the sharded controller fabric
//! (`sdn_ctrl::fabric`).
//!
//! [`ShardAssignment`] splits the switch set into shards, each driven
//! by its own runtime: modulo over the shard count by default, with
//! explicit per-switch overrides layered on top. The map is fixed when
//! the fabric is built.

use std::collections::BTreeMap;

use sdn_types::DpId;

/// The switch → shard map: modulo over the shard count, with explicit
/// per-switch overrides layered on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    shards: u32,
    overrides: BTreeMap<DpId, u32>,
}

impl ShardAssignment {
    /// Modulo assignment over `shards` shards (at least 1).
    pub fn modulo(shards: u32) -> Self {
        ShardAssignment {
            shards: shards.max(1),
            overrides: BTreeMap::new(),
        }
    }

    /// Modulo assignment with explicit per-switch overrides (entries
    /// naming a shard `>= shards` are clamped into range).
    pub fn with_overrides(shards: u32, overrides: impl IntoIterator<Item = (DpId, u32)>) -> Self {
        let shards = shards.max(1);
        ShardAssignment {
            shards,
            overrides: overrides
                .into_iter()
                .map(|(dp, s)| (dp, s % shards))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `dp`.
    pub fn shard_of(&self, dp: DpId) -> u32 {
        self.overrides
            .get(&dp)
            .copied()
            .unwrap_or((dp.0 % self.shards as u64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_assignment_with_overrides() {
        let a = ShardAssignment::modulo(4);
        assert_eq!(a.shard_of(DpId(5)), 1);
        assert_eq!(a.shard_of(DpId(8)), 0);
        let b = ShardAssignment::with_overrides(4, [(DpId(5), 3), (DpId(6), 9)]);
        assert_eq!(b.shard_of(DpId(5)), 3);
        assert_eq!(b.shard_of(DpId(6)), 1, "out-of-range override clamped");
        assert_eq!(b.shard_of(DpId(7)), 3, "non-overridden falls to modulo");
        assert_eq!(ShardAssignment::modulo(0).shards(), 1, "zero clamps to 1");
    }
}
