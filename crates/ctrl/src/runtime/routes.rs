//! The route table: which job's transmission a reply answers.
//!
//! Xids wrap inside a range, so the table is a ring indexed by
//! `xid − base`, its power-of-two capacity doubled whenever a live
//! route would be overwritten; a lookup is one index and two compares.
//! It lives in the allocator, which skips every xid whose route is live.
//! **Invariant:** a route is live exactly while its transmission counts
//! — a barrier's until its switch fences the round (a slot's barriers
//! are chained through `prev` and retire together), an echo's until the
//! executor accepts its reply — or until its job is reaped.

use sdn_types::{DpId, SimTime, Xid};

use crate::runtime::conflict::JobId;

/// One in-flight barrier or payload-ack transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub(crate) xid: Xid,
    /// Where it went; a reply from any other switch misses.
    pub(crate) dp: DpId,
    pub(crate) job: JobId,
    /// The switch's slot in the job's round.
    pub(crate) slot: u32,
    /// The RTT sample's base.
    pub(crate) sent_at: SimTime,
    /// The slot's previous outstanding barrier (`Xid(0)`: none).
    pub(crate) prev: Xid,
}

impl Route {
    /// A route for a transmission [`XidAlloc::routed`] has yet to key.
    pub(crate) fn new(dp: DpId, job: JobId, slot: usize, sent_at: SimTime, prev: Xid) -> Self {
        Route {
            xid: Xid(0),
            dp,
            job,
            slot: slot as u32,
            sent_at,
            prev,
        }
    }
}

/// Allocates transaction ids from a range it never leaves, skipping the
/// ones still routed to an in-flight transmission, and holds those
/// routes: a ring indexed by `xid − base` (see `runtime/routes.rs`).
#[derive(Debug, Clone)]
pub struct XidAlloc {
    next: Xid,
    /// First xid of the range (never 0) and the first one past it.
    base: u32,
    end: u64,
    /// Live routes at `(xid − base) & (len − 1)`; empty until the first.
    ring: Vec<Option<Route>>,
}

impl Default for XidAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl XidAlloc {
    /// The whole xid space, from 1 (0 is reserved for unsolicited
    /// messages).
    pub fn new() -> Self {
        Self::with_range(1, u32::MAX)
    }

    /// Allocate from `[base, base + len)` (clamped to the xid space,
    /// `base` to at least 1), wrapping back to `base`. Runtimes sharing
    /// a transport — the fabric's shards and its coordinator — carve
    /// the xid space into disjoint ranges so a reply routes to its
    /// owner by value, however long the runtime lives.
    pub fn with_range(base: u32, len: u32) -> Self {
        let base = base.max(1);
        let end = (u64::from(base) + u64::from(len.max(1))).min(1 << 32);
        XidAlloc {
            next: Xid(base),
            base,
            end,
            ring: Vec::new(),
        }
    }

    /// Allocate the next xid whose route is not live. At most
    /// `ring.len()` are, so one is never far; only a range whose every
    /// xid is in flight hands out a live one.
    pub fn alloc(&mut self) -> Xid {
        for _ in 0..self.ring.len() {
            if self.live(self.next).is_none() {
                break;
            }
            self.step();
        }
        self.step()
    }

    fn step(&mut self) -> Xid {
        let x = self.next;
        let wrapped = u64::from(x.0) + 1 >= self.end;
        self.next = Xid(if wrapped { self.base } else { x.0 + 1 });
        x
    }

    fn index(&self, xid: Xid) -> usize {
        // an empty ring masks to an index past its end
        xid.0.wrapping_sub(self.base) as usize & self.ring.len().wrapping_sub(1)
    }

    fn live(&self, xid: Xid) -> Option<&Route> {
        let cell = self.ring.get(self.index(xid))?;
        cell.as_ref().filter(|r| r.xid == xid)
    }

    /// The live route of `xid`, when it went to `from`.
    pub(crate) fn route(&self, from: DpId, xid: Xid) -> Option<Route> {
        self.live(xid).filter(|r| r.dp == from).copied()
    }

    /// Allocate an xid for a transmission and route its reply by `r`.
    pub(crate) fn routed(&mut self, r: Route) -> Xid {
        let xid = self.alloc();
        loop {
            let i = self.index(xid);
            match self.ring.get_mut(i) {
                Some(cell) if cell.is_none_or(|e| e.xid == xid) => {
                    *cell = Some(Route { xid, ..r });
                    return xid;
                }
                _ => self.grow(),
            }
        }
    }

    /// Double the ring until its live routes fall into distinct cells.
    fn grow(&mut self) {
        let live: Vec<Route> = self.ring.iter().flatten().copied().collect();
        let mut len = (self.ring.len() * 2).max(64);
        loop {
            self.ring = vec![None; len];
            let placed = live.iter().all(|r| {
                let i = self.index(r.xid);
                self.ring[i].replace(*r).is_none()
            });
            if placed {
                return;
            }
            len *= 2;
        }
    }

    /// Retire `xid`'s route if `job` owns it, returning it.
    pub(crate) fn retire(&mut self, xid: Xid, job: JobId) -> Option<Route> {
        let i = self.index(xid);
        let cell = self.ring.get_mut(i)?;
        let owned = cell.is_some_and(|r| r.xid == xid && r.job == job);
        owned.then(|| cell.take()).flatten()
    }

    /// Retire a slot's barrier routes: `newest` and every one it chains.
    pub(crate) fn retire_chain(&mut self, mut newest: Xid, job: JobId) {
        while let Some(r) = self.retire(newest, job) {
            newest = r.prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring against the table it replaced — an ordered map keyed
        /// by `(switch, xid)` — over random insert, lookup, fence,
        /// retire and wrap sequences: identical answers throughout, and
        /// the allocator never hands out an xid the map still holds.
        #[test]
        fn ring_answers_like_the_ordered_map_it_replaced(
            len in 8u32..96,
            ops in proptest::collection::vec((0u8..7, 0u64..3, 0u32..4, any::<u64>()), 1..300),
        ) {
            let mut ring = XidAlloc::with_range(1000, len);
            let mut model: BTreeMap<(DpId, Xid), Route> = BTreeMap::new();
            // a slot's barriers, oldest first; live echoes, which retire
            // one by one (as an accepted acknowledgement does)
            let mut chains: BTreeMap<(JobId, u32), Vec<Xid>> = BTreeMap::new();
            let mut echoes: Vec<(DpId, Xid, JobId)> = Vec::new();
            let mut sent: Vec<Xid> = Vec::new();
            for (op, job, slot, pick) in ops {
                let (job, dp) = (JobId(job), DpId(u64::from(slot)));
                match op {
                    // a barrier chained to its slot's, or an echo
                    0..=2 if model.len() + 1 < len as usize => {
                        let chain = chains.entry((job, slot)).or_default();
                        let prev = if op == 2 { Xid(0) } else { chain.last().copied().unwrap_or(Xid(0)) };
                        let at = SimTime(pick);
                        let xid = ring.routed(Route::new(dp, job, slot as usize, at, prev));
                        prop_assert!(model.keys().all(|&(_, x)| x != xid), "{xid:?} is live");
                        model.insert((dp, xid), Route { xid, ..Route::new(dp, job, slot as usize, at, prev) });
                        if op == 2 { echoes.push((dp, xid, job)) } else { chain.push(xid) }
                        sent.push(xid);
                    }
                    3 if !sent.is_empty() => {
                        let xid = sent[pick as usize % sent.len()];
                        let from = DpId(pick % 5);
                        prop_assert_eq!(ring.route(from, xid), model.get(&(from, xid)).copied());
                    }
                    4 if !echoes.is_empty() => {
                        let k = pick as usize % echoes.len();
                        let (dp, xid, owner) = echoes[k];
                        // only the owner retires a route
                        let claimant = JobId(owner.0 + u64::from(pick % 3 == 0));
                        let want = (claimant == owner).then(|| echoes.swap_remove(k));
                        let want = want.and_then(|_| model.remove(&(dp, xid)));
                        prop_assert_eq!(ring.retire(xid, claimant), want);
                    }
                    5 => {
                        let chain = chains.remove(&(job, slot)).unwrap_or_default();
                        ring.retire_chain(chain.last().copied().unwrap_or(Xid(0)), job);
                        model.retain(|_, r| !chain.contains(&r.xid));
                    }
                    6 => {
                        for _ in 0..pick % 40 {
                            let xid = ring.alloc();
                            prop_assert!(model.keys().all(|&(_, x)| x != xid), "{xid:?} is live");
                        }
                    }
                    _ => {}
                }
            }
            for (&(dp, xid), r) in &model {
                prop_assert_eq!(ring.route(dp, xid), Some(*r));
            }
        }
    }
}
