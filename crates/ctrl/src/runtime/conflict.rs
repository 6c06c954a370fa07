//! Conflict analysis for concurrent updates.
//!
//! Two compiled updates may execute concurrently iff their
//! **footprints** are disjoint: no switch exists where both install,
//! replace or delete rules for an overlapping flow class. Rule
//! operations of footprint-disjoint updates commute — every
//! interleaving of their per-round FlowMods drives each switch's flow
//! table through exactly the states some serial order would, so the
//! per-update transient guarantees proved by the static checker carry
//! over to the merged execution unchanged (ez-Segway's segment
//!-independence argument, applied at flow granularity). Overlapping
//! updates must instead queue behind their conflict set.
//!
//! A flow class is the destination host a FlowMod matches on
//! ([`FlowClass`]); tagged and untagged rules of the same destination
//! share a class, because the two-phase ingress flip shadows the
//! untagged rule by priority — they do *not* commute with a concurrent
//! replacement of that rule. A wildcard match conflicts with every
//! class at that switch.
//!
//! A [`Footprint`] is one sorted `Vec` of (switch, class) pairs and the
//! [`ConflictGraph`] one index from each switch to its holder list:
//! the (class, holder) pairs seated there, sorted. **Invariant: the
//! lists hold exactly the pairs of the footprints in `active`.** A
//! candidate is therefore checked with one switch lookup and range
//! probe per class it touches plus one per switch for that switch's
//! `Wildcard` holders (a wildcard candidate probes the switch's whole
//! list): it pays for the pairs it touches, never for the other jobs
//! seated on the same switches. A list that empties keeps its entry
//! and capacity, so a warm runtime admits and retires jobs over the
//! same switches without allocating.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sdn_openflow::messages::OfMessage;
use sdn_types::{DpId, HostId, IdMap};

use crate::compile::CompiledUpdate;

/// Identifier of an update job inside the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// The flow-table slice a FlowMod touches at one switch: the
/// destination host it matches, or `Wildcard` for matches that cover
/// every flow (and therefore conflict with everything at that switch).
/// `Wildcard` orders after every `Dst`, so it is the last class of its
/// switch wherever (switch, class) pairs are kept sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowClass {
    /// Rules matching a specific destination host (tagged or not).
    Dst(HostId),
    /// A match without a destination — overlaps every class.
    Wildcard,
}

impl FlowClass {
    /// The least class in the ordering (range-probe lower bound).
    const MIN: FlowClass = FlowClass::Dst(HostId(0));
}

/// Per-switch flow classes an update touches: the sorted,
/// deduplicated (switch, class) pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    pairs: Vec<(DpId, FlowClass)>,
}

impl Footprint {
    /// Extract the footprint of a compiled update: every switch any
    /// round sends a message to, with the flow classes those messages
    /// touch. Non-FlowMod control messages (none are compiled today)
    /// count as wildcard, conservatively.
    pub fn of(update: &CompiledUpdate) -> Footprint {
        let mut pairs = Vec::with_capacity(update.rounds.iter().map(|r| r.msgs.len()).sum());
        for round in &update.rounds {
            for (dp, msg) in &round.msgs {
                let class = match msg {
                    OfMessage::FlowMod(fm) => match fm.matcher.dst {
                        Some(h) => FlowClass::Dst(h),
                        None => FlowClass::Wildcard,
                    },
                    _ => FlowClass::Wildcard,
                };
                pairs.push((*dp, class));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        Footprint { pairs }
    }

    /// The pairs one switch at a time; a wildcard is its run's last.
    fn groups(&self) -> impl Iterator<Item = &[(DpId, FlowClass)]> {
        self.pairs.chunk_by(|x, y| x.0 == y.0)
    }

    /// Switches this footprint touches, in dpid order.
    pub fn switches(&self) -> impl Iterator<Item = DpId> + '_ {
        self.groups().map(|g| g[0].0)
    }

    /// Number of switches touched.
    pub fn switch_count(&self) -> usize {
        self.groups().count()
    }

    /// Whether the footprint touches no switch (empty update).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the two updates conflict: some switch carries an
    /// overlapping flow class in both — either side's wildcard, or a
    /// shared class. A merge-join over the two sorted pair lists.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        let wild = |g: &[(DpId, FlowClass)]| g[g.len() - 1].1 == FlowClass::Wildcard;
        let (mut a, mut b) = (self.groups().peekable(), other.groups().peekable());
        while let (Some(&ga), Some(&gb)) = (a.peek(), b.peek()) {
            let order = ga[0].0.cmp(&gb[0].0);
            if order.is_eq()
                && (wild(ga) || wild(gb) || ga.iter().any(|p| gb.binary_search(p).is_ok()))
            {
                return true;
            }
            if order.is_le() {
                a.next();
            }
            if order.is_ge() {
                b.next();
            }
        }
        false
    }

    /// Disjointness — the commuting condition.
    pub fn disjoint(&self, other: &Footprint) -> bool {
        !self.conflicts(other)
    }

    /// The sub-footprint covering only the switches `keep` accepts —
    /// the fabric slices a cross-shard footprint into one reservation
    /// per owning shard with this.
    pub fn slice(&self, mut keep: impl FnMut(DpId) -> bool) -> Footprint {
        let kept = self.pairs.iter().copied().filter(|&(dp, _)| keep(dp));
        Footprint {
            pairs: kept.collect(),
        }
    }
}

/// The dynamic conflict graph over *active* jobs.
///
/// Nodes are executing updates (and the fabric's reservations); an
/// implicit edge joins every pair of conflicting footprints. The
/// runtime never materializes edges — it only ever asks "which active
/// jobs conflict with this candidate?", answered from the per-switch
/// holder lists (module docs).
#[derive(Debug, Clone, Default)]
pub struct ConflictGraph {
    active: BTreeMap<JobId, Footprint>,
    /// Per switch, the sorted (class, holder) pairs seated there.
    holders: IdMap<DpId, Vec<(FlowClass, JobId)>>,
    /// Range probes issued plus index entries they yielded (the
    /// clock-free cost measure behind `dispatch_work`).
    probed: Cell<u64>,
}

impl ConflictGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ConflictGraph::default()
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether no job is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Insert an active job. Panics on id reuse (runtime ids are
    /// allocated monotonically).
    pub fn insert(&mut self, id: JobId, footprint: Footprint) {
        assert!(!self.active.contains_key(&id), "job id {id} inserted twice");
        for &(dp, class) in &footprint.pairs {
            let list = self.holders.entry(dp).or_default();
            let at = list.partition_point(|&held| held < (class, id));
            list.insert(at, (class, id));
        }
        self.active.insert(id, footprint);
    }

    /// Remove a completed/failed job.
    pub fn remove(&mut self, id: JobId) {
        if let Some(fp) = self.active.remove(&id) {
            for &(dp, class) in &fp.pairs {
                let list = self
                    .holders
                    .get_mut(&dp)
                    .expect("an active pair is indexed");
                let at = list
                    .binary_search(&(class, id))
                    .expect("an active pair is indexed");
                list.remove(at);
            }
        }
    }

    /// Holders of any class in `lo..=hi` at `dp`, counted as probed.
    fn holders(&self, dp: DpId, lo: FlowClass, hi: FlowClass) -> impl Iterator<Item = JobId> + '_ {
        self.probed.set(self.probed.get() + 1);
        let list = self.holders.get(&dp).map_or(&[][..], Vec::as_slice);
        let from = list.partition_point(|&(c, _)| c < lo);
        let to = list.partition_point(|&(c, _)| c <= hi);
        list[from..to]
            .iter()
            .map(|&(_, id)| id)
            .inspect(|_| self.probed.set(self.probed.get() + 1))
    }

    /// Active jobs overlapping the candidate, found lazily (a job
    /// overlapping at several pairs appears once per pair).
    fn overlapping<'a>(&'a self, candidate: &'a Footprint) -> impl Iterator<Item = JobId> + 'a {
        let mut prev = None;
        candidate.pairs.iter().flat_map(move |&(dp, class)| {
            // once per switch: whoever holds its wildcard
            let wild = (prev.replace(dp) != Some(dp) && class != FlowClass::Wildcard)
                .then(|| self.holders(dp, FlowClass::Wildcard, FlowClass::Wildcard));
            let lo = match class {
                FlowClass::Wildcard => FlowClass::MIN,
                c => c,
            };
            wild.into_iter()
                .flatten()
                .chain(self.holders(dp, lo, class))
        })
    }

    /// Active jobs whose footprint conflicts with the candidate.
    pub fn conflicts_with(&self, candidate: &Footprint) -> BTreeSet<JobId> {
        self.overlapping(candidate).collect()
    }

    /// Whether the candidate can start now (conflict-free against all
    /// active jobs).
    pub fn admits(&self, candidate: &Footprint) -> bool {
        self.overlapping(candidate).next().is_none()
    }

    /// Probes and index entries visited so far.
    pub(crate) fn probed(&self) -> u64 {
        self.probed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::{Action, FlowMatch};
    use sdn_openflow::messages::{FlowMod, FlowModCommand};
    use sdn_types::PortNo;

    use crate::compile::CompiledRound;

    fn update(switch_dst: &[(u64, Option<u32>)]) -> CompiledUpdate {
        CompiledUpdate {
            label: "t".into(),
            rounds: vec![CompiledRound {
                msgs: switch_dst
                    .iter()
                    .map(|&(dp, dst)| {
                        (
                            DpId(dp),
                            OfMessage::FlowMod(FlowMod {
                                command: FlowModCommand::Add,
                                priority: 100,
                                matcher: match dst {
                                    Some(h) => FlowMatch::dst_host(HostId(h)),
                                    None => FlowMatch::ANY,
                                },
                                actions: vec![Action::Output(PortNo(1))],
                                cookie: 0,
                            }),
                        )
                    })
                    .collect(),
                pre_delay: sdn_types::SimDuration::ZERO,
            }],
        }
    }

    #[test]
    fn disjoint_switches_do_not_conflict() {
        let a = Footprint::of(&update(&[(1, Some(2)), (2, Some(2))]));
        let b = Footprint::of(&update(&[(3, Some(2)), (4, Some(2))]));
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));
    }

    #[test]
    fn shared_switch_same_flow_conflicts() {
        let a = Footprint::of(&update(&[(1, Some(2)), (2, Some(2))]));
        let b = Footprint::of(&update(&[(2, Some(2)), (3, Some(2))]));
        assert!(a.conflicts(&b));
    }

    #[test]
    fn shared_switch_distinct_flows_commute() {
        let a = Footprint::of(&update(&[(1, Some(2)), (2, Some(2))]));
        let b = Footprint::of(&update(&[(2, Some(4)), (3, Some(4))]));
        assert!(a.disjoint(&b), "distinct dst hosts on a shared switch");
    }

    #[test]
    fn wildcard_conflicts_with_everything_at_that_switch() {
        let a = Footprint::of(&update(&[(2, None)]));
        let b = Footprint::of(&update(&[(2, Some(9))]));
        let c = Footprint::of(&update(&[(3, Some(9))]));
        assert!(a.conflicts(&b));
        assert!(a.disjoint(&c));
    }

    #[test]
    fn footprint_covers_all_rounds() {
        let mut u = update(&[(1, Some(2))]);
        u.rounds.push(CompiledRound {
            msgs: vec![(
                DpId(7),
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Delete,
                    priority: 100,
                    matcher: FlowMatch::dst_host(HostId(2)),
                    actions: vec![],
                    cookie: 0,
                }),
            )],
            pre_delay: sdn_types::SimDuration::ZERO,
        });
        let fp = Footprint::of(&u);
        assert_eq!(fp.switch_count(), 2);
        assert_eq!(fp.switches().collect::<Vec<_>>(), vec![DpId(1), DpId(7)]);
    }

    #[test]
    fn graph_tracks_inserts_and_removes() {
        let mut g = ConflictGraph::new();
        let a = Footprint::of(&update(&[(1, Some(2)), (2, Some(2))]));
        let b = Footprint::of(&update(&[(2, Some(2)), (3, Some(2))]));
        let c = Footprint::of(&update(&[(9, Some(2))]));
        g.insert(JobId(1), a);
        assert!(!g.admits(&b));
        assert_eq!(g.conflicts_with(&b), [JobId(1)].into());
        assert!(g.admits(&c));
        g.insert(JobId(2), c);
        assert_eq!(g.len(), 2);
        g.remove(JobId(1));
        assert!(g.admits(&b));
        g.remove(JobId(2));
        assert!(g.is_empty());
        assert!(
            g.holders.values().all(Vec::is_empty),
            "the holder lists hold active pairs only"
        );
    }

    #[test]
    fn wildcard_holder_blocks_every_class_and_only_at_its_switch() {
        let mut g = ConflictGraph::new();
        g.insert(JobId(1), Footprint::of(&update(&[(2, None), (3, Some(5))])));
        assert!(!g.admits(&Footprint::of(&update(&[(2, Some(9))]))));
        assert!(!g.admits(&Footprint::of(&update(&[(3, None)]))));
        assert!(g.admits(&Footprint::of(&update(&[(3, Some(9))]))));
        assert!(g.admits(&Footprint::of(&update(&[(4, None)]))));
    }

    #[test]
    fn footprint_is_sorted_deduplicated_with_wildcard_last() {
        let fp = Footprint::of(&update(&[
            (7, None),
            (7, Some(3)),
            (2, Some(9)),
            (7, Some(3)),
            (7, Some(1)),
        ]));
        let d = |h| FlowClass::Dst(HostId(h));
        assert_eq!(
            fp.pairs,
            vec![
                (DpId(2), d(9)),
                (DpId(7), d(1)),
                (DpId(7), d(3)),
                (DpId(7), FlowClass::Wildcard)
            ]
        );
        assert_eq!(fp.switch_count(), 2);
    }

    #[test]
    fn empty_footprint_always_admitted() {
        let mut g = ConflictGraph::new();
        g.insert(JobId(1), Footprint::of(&update(&[(1, Some(2))])));
        let empty = Footprint::default();
        assert!(empty.is_empty());
        assert!(g.admits(&empty));
    }
}
