//! The stateful admission oracle: a probe session for the greedy
//! schedulers, carried **across rounds**.
//!
//! [`round_admissible`](super::round_admissible) answers each
//! admissibility question from scratch: it rebuilds the choice graph,
//! re-runs cycle detection and re-walks the configuration for every
//! candidate probe. The greedy engine asks O(n) such questions per
//! round over candidate sets that differ by a *single* operation,
//! which made the oracle the scheduler bottleneck (cubic and worse on
//! reversal workloads).
//!
//! [`AdmissionProbe`] keeps the state alive across the probes of one
//! round — and, since PR 3, across *rounds*:
//!
//! * **Choice graph** — per tag class, maintained by per-switch edge
//!   deltas: pushing one operation adds at most one rule edge per
//!   class and never removes one, so the graph only ever grows within
//!   a round. Committing a round collapses each touched switch's
//!   pending-subset union to its fully-applied edge set — a pure
//!   *narrowing*, handled by [`AdmissionProbe::advance`] as per-switch
//!   edge deletions in O(round deltas) instead of an O(n) rebuild.
//!   Both routes are simple paths, so a switch has at most two
//!   successors and two predecessors: adjacency is two flat arrays of
//!   fixed-size cells, and a probe never allocates.
//! * **Strong loop freedom** — incremental cycle detection by
//!   topological-order maintenance (Pearce–Kelly): an edge insertion
//!   that would close a cycle is detected during the discovery phase,
//!   *before* any mutation, so the common rejection case is O(affected
//!   region) with nothing to undo; accepted insertions reorder only
//!   the region between the edge endpoints. Edge deletions never
//!   invalidate a topological order, so the maintained order survives
//!   round commits untouched.
//! * **Conservative walk safety** — patched in place, never
//!   re-traversed. *Within a round the class graph only grows, so the
//!   reach sets only grow and the reachable order only gains edges;
//!   [`AdmissionProbe::advance`] is the only place they shrink, and it
//!   re-seeds them* with the one full traversal left per round. A push
//!   at a switch the source does not reach changes no walk verdict and
//!   answers in O(1). A push at a reachable switch pays for its
//!   affected region only: the source-reach set grows by a search from
//!   the switch's *new* targets; blackhole freedom is checked on the
//!   pushed switch and the newly reached ones; relaxed loop freedom is
//!   the same Pearce–Kelly order, kept over the *reachable* subgraph —
//!   an edge between reachable switches is one insertion, newly
//!   reached switches carried no constraints yet and take a
//!   topological order among their own slots (a cycle inside the new
//!   region shows there) before their boundary edges are inserted, and
//!   the structure is not kept at all under strong loop freedom, whose
//!   whole-graph order implies it; the waypoint-avoiding reach set
//!   grows like the first and must never reach the destination. Every
//!   mutation is logged, so a rejected push restores the exact prior
//!   state. Conservative verdicts are monotone in the edge set, which
//!   also lets a base configuration that already fails short-circuit
//!   every probe.
//! * **Exact decision walks** — memoized by the *touched set*: the
//!   switches any explored branch visited. A candidate at an untouched
//!   switch provably cannot change the verdict or the touched set (no
//!   branch consults its rules), so only candidates on — or newly
//!   reachable from — the walk frontier pay for re-exploration.
//!
//! Every per-switch array here is indexed by the instance's dense
//! switch index ([`UpdateInstance::participants`] order): the session
//! reads successors from the instance and committed rule flags from
//! its own [`ConfigState`], and keeps no switch index of its own.
//!
//! Every [`AdmissionProbe::try_push`] either commits (the candidate
//! joins the round) or rolls back to the exact prior state through an
//! undo log; [`AdmissionProbe::commit_round`] folds the admitted round
//! into the session's owned base configuration and re-seeds the caches
//! for the next round. A session advanced this way is observationally
//! identical to a freshly opened one. The stateless oracle remains
//! authoritative as the cross-validation reference:
//! `crates/core/tests/checker_cross_validation.rs` asserts decision
//! equality against [`round_admissible`](super::round_admissible) on
//! randomized permutation, reversal, rotation, comb, waypointed and
//! fat-tree workloads in both oracle modes, per probe and along full
//! greedy trajectories, and that a rejected push leaves no trace in
//! the patched structures.

use std::fmt::Write as _;

use sdn_types::{DpId, VersionTag};

use crate::config::{forward, ConfigState, ACTIVATED};
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet};
use crate::schedule::RuleOp;

use super::decision_walk;
use super::OracleMode;

/// One cell of a flat adjacency array: the neighbours of one switch.
/// Both routes are simple paths, so a switch has at most one old-route
/// and one new-route successor, and at most one predecessor on each —
/// two entries always suffice, in either direction.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Adj {
    t: [u32; 2],
    len: u8,
}

impl Adj {
    fn push(&mut self, t: u32) {
        self.t[self.len as usize] = t;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.t[self.len as usize])
    }

    /// Remove `t`, keeping the order of what remains.
    fn remove(&mut self, t: u32) -> bool {
        match self.as_slice().iter().position(|&x| x == t) {
            Some(0) => {
                self.t[0] = self.t[1];
                self.len -= 1;
                true
            }
            Some(_) => {
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    fn as_slice(&self) -> &[u32] {
        &self.t[..self.len as usize]
    }

    fn contains(&self, t: u32) -> bool {
        self.as_slice().contains(&t)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// By value: the copy lets callers mutate the array the cell came
    /// from while walking it.
    fn iter(self) -> impl Iterator<Item = u32> {
        (0..self.len as usize).map(move |k| self.t[k])
    }
}

/// The forwarding targets one switch could expose for a tag class —
/// at most two distinct successors (old rule, new rule) plus the
/// possibility of having no rule.
#[derive(Clone, Copy, Default)]
struct LocalNexts {
    targets: Adj,
    none: bool,
}

impl LocalNexts {
    fn push(&mut self, t: u32) {
        if !self.targets.contains(t) {
            self.targets.push(t);
        }
    }
}

/// Session-owned scratch space, so that neither a probe nor the
/// per-round seeding allocates.
struct Scratch {
    /// Epoch-stamped visit marks.
    mark: Vec<u64>,
    epoch: u64,
    /// Pearce–Kelly discovery: forward and backward regions and the
    /// order slots they pool.
    fwd: Vec<u32>,
    bwd: Vec<u32>,
    slots: Vec<u32>,
    /// Search frontier; afterwards, the nodes the search newly marked.
    queue: Vec<u32>,
    /// Topological sort (Kahn): remaining in-degrees and output order.
    indeg: Vec<u32>,
    topo: Vec<u32>,
    /// Edges leaving a newly reached region.
    boundary: Vec<(u32, u32)>,
    /// Nodes visited by searches plus order slots moved, ever.
    work: u64,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            mark: vec![0; n],
            epoch: 0,
            fwd: Vec::new(),
            bwd: Vec::new(),
            slots: Vec::new(),
            queue: Vec::with_capacity(n),
            indeg: vec![0; n],
            topo: Vec::new(),
            boundary: Vec::new(),
            work: 0,
        }
    }
}

/// Mark in `set` everything reachable from `roots` over `out` that is
/// not marked yet, never entering `skip`. Leaves exactly the newly
/// marked nodes in `sc.queue` and counts them as work. (The
/// destination absorbs by itself: it has no out-edges.)
fn flood(
    out: &[Adj],
    set: &mut [bool],
    skip: Option<u32>,
    roots: impl Iterator<Item = u32>,
    sc: &mut Scratch,
) {
    let queue = &mut sc.queue;
    let mut visit = |t: u32, queue: &mut Vec<u32>| {
        if Some(t) != skip && !set[t as usize] {
            set[t as usize] = true;
            queue.push(t);
        }
    };
    queue.clear();
    for r in roots {
        visit(r, queue);
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        for t in out[u as usize].iter() {
            visit(t, queue);
        }
    }
    sc.work += qi as u64;
}

/// Pearce–Kelly incremental topological order over (part of) one class
/// graph.
struct Pk {
    /// Topological position per node (a permutation of 0..n). Only the
    /// relative positions of *ordered* edges' endpoints mean anything.
    ord: Vec<u32>,
    /// Reverse adjacency of the ordered edges (the backward discovery
    /// pass walks it; it is also the record of which edges are
    /// ordered).
    ins: Vec<Adj>,
    /// Which edges are ordered: all of them (strong loop freedom), or
    /// only those leaving source-reachable switches (relaxed loop
    /// freedom — re-seeded every round, patched as the reach set
    /// grows).
    whole: bool,
    /// The *base* graph already contained a cycle: no candidate set can
    /// ever be SLF-safe, matching the stateless checker.
    poisoned: bool,
}

impl Pk {
    fn new(n: usize, whole: bool) -> Self {
        Pk {
            ord: (0..n as u32).collect(),
            ins: vec![Adj::default(); n],
            whole,
            poisoned: false,
        }
    }

    /// Order from scratch every edge leaving a switch of `scope` (all
    /// switches when `None`; otherwise a set closed under `out`).
    /// Returns `false` when those edges contain a cycle.
    fn seed(&mut self, out: &[Adj], scope: Option<&[bool]>, sc: &mut Scratch) -> bool {
        let n = out.len();
        let inside = |v: usize| scope.is_none_or(|s| s[v]);
        let Scratch { queue, indeg, .. } = sc;
        self.ins.fill(Adj::default());
        self.ord.fill(u32::MAX);
        indeg.fill(0);
        let mut members = 0;
        for x in (0..n).filter(|&x| inside(x)) {
            members += 1;
            for y in out[x].iter() {
                indeg[y as usize] += 1;
                self.ins[y as usize].push(x as u32);
            }
        }
        queue.clear();
        queue.extend((0..n as u32).filter(|&v| inside(v as usize) && indeg[v as usize] == 0));
        let mut qi = 0;
        while qi < queue.len() {
            let v = queue[qi];
            self.ord[v as usize] = qi as u32;
            qi += 1;
            for t in out[v as usize].iter() {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    queue.push(t);
                }
            }
        }
        sc.work += qi as u64;
        // Everything else (outside the scope, or on a cycle) fills the
        // remaining slots, keeping `ord` a permutation.
        let unplaced = self.ord.iter_mut().filter(|o| **o == u32::MAX);
        for (o, next) in unplaced.zip(qi as u32..) {
            *o = next;
        }
        qi == members
    }

    /// Enter edge `x → y` (already present in `out`) into the order
    /// (Pearce–Kelly). Returns `false` — mutating nothing — when the
    /// edge would close a cycle of ordered edges. The new `ins` entry
    /// and every overwritten topological position are logged in `undo`
    /// so the caller can roll the insertion back.
    fn insert(
        &mut self,
        out: &[Adj],
        (x, y): (u32, u32),
        sc: &mut Scratch,
        ci: usize,
        undo: &mut Undo,
    ) -> bool {
        if self.poisoned || x == y {
            return false;
        }
        let (ox, oy) = (self.ord[x as usize], self.ord[y as usize]);
        if ox > oy {
            // Discovery. Forward from y over nodes ordered before x; if
            // x itself is a neighbor anywhere in that region the edge
            // closes a cycle and we abort with zero mutations —
            // rejection is free.
            sc.epoch += 2;
            let (fm, bm) = (sc.epoch - 1, sc.epoch);
            let Scratch {
                mark,
                fwd,
                bwd,
                slots,
                ..
            } = sc;
            fwd.clear();
            fwd.push(y);
            mark[y as usize] = fm;
            let mut qi = 0;
            while qi < fwd.len() {
                let z = fwd[qi];
                qi += 1;
                for w in out[z as usize].iter() {
                    if !self.ins[w as usize].contains(z) {
                        continue; // not ordered (yet)
                    }
                    if w == x {
                        sc.work += qi as u64;
                        return false;
                    }
                    if self.ord[w as usize] < ox && mark[w as usize] != fm {
                        mark[w as usize] = fm;
                        fwd.push(w);
                    }
                }
            }
            // Backward from x over nodes ordered after y.
            bwd.clear();
            bwd.push(x);
            mark[x as usize] = bm;
            qi = 0;
            while qi < bwd.len() {
                let z = bwd[qi];
                qi += 1;
                for w in self.ins[z as usize].iter() {
                    if self.ord[w as usize] > oy && mark[w as usize] != bm {
                        mark[w as usize] = bm;
                        bwd.push(w);
                    }
                }
            }
            // Reorder the affected region: everything reaching x moves
            // before everything reachable from y, preserving relative
            // order inside each group.
            fwd.sort_unstable_by_key(|&z| self.ord[z as usize]);
            bwd.sort_unstable_by_key(|&z| self.ord[z as usize]);
            slots.clear();
            slots.extend(bwd.iter().chain(fwd.iter()).map(|&z| self.ord[z as usize]));
            slots.sort_unstable();
            for (k, &z) in bwd.iter().chain(fwd.iter()).enumerate() {
                undo.ords.push((ci, z, self.ord[z as usize]));
                self.ord[z as usize] = slots[k];
            }
            sc.work += 2 * slots.len() as u64;
        }
        self.ins[y as usize].push(x);
        undo.ordered.push((ci, x, y));
        true
    }

    /// Bring a newly reached region (`sc.queue`: switches whose
    /// out-edges were not ordered so far) into the order. None of them
    /// carries a constraint yet, so a topological order of the edges
    /// *inside* the region, laid over the region's own slots, is
    /// consistent with everything already ordered; only the edges
    /// leaving the region need a real insertion. Returns `false` when
    /// the region's edges close a cycle, inside it or through the
    /// boundary.
    fn adopt(&mut self, out: &[Adj], sc: &mut Scratch, ci: usize, undo: &mut Undo) -> bool {
        if sc.queue.is_empty() {
            return true;
        }
        sc.epoch += 1;
        let Scratch {
            mark,
            epoch,
            slots,
            queue: fresh,
            indeg,
            topo,
            boundary,
            work,
            ..
        } = sc;
        for &f in fresh.iter() {
            mark[f as usize] = *epoch;
            indeg[f as usize] = 0;
        }
        let inside = |t: u32| mark[t as usize] == *epoch;
        for &f in fresh.iter() {
            for t in out[f as usize].iter().filter(|&t| inside(t)) {
                indeg[t as usize] += 1;
            }
        }
        topo.clear();
        topo.extend(fresh.iter().filter(|&&f| indeg[f as usize] == 0));
        let mut qi = 0;
        while qi < topo.len() {
            let f = topo[qi];
            qi += 1;
            for t in out[f as usize].iter().filter(|&t| inside(t)) {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    topo.push(t);
                }
            }
        }
        if topo.len() < fresh.len() {
            return false; // a cycle inside the new region
        }
        slots.clear();
        slots.extend(fresh.iter().map(|&f| self.ord[f as usize]));
        slots.sort_unstable();
        boundary.clear();
        for (k, &f) in topo.iter().enumerate() {
            undo.ords.push((ci, f, self.ord[f as usize]));
            self.ord[f as usize] = slots[k];
            for t in out[f as usize].iter() {
                if inside(t) {
                    self.ins[t as usize].push(f);
                    undo.ordered.push((ci, f, t));
                } else {
                    boundary.push((f, t));
                }
            }
        }
        *work += topo.len() as u64;
        let boundary = std::mem::take(&mut sc.boundary);
        let ok = boundary
            .iter()
            .all(|&edge| self.insert(out, edge, sc, ci, undo));
        sc.boundary = boundary;
        ok
    }
}

/// One tag class of the choice graph, maintained incrementally.
struct ClassGraph {
    tag: VersionTag,
    /// Forward adjacency: every rule edge a switch could expose given
    /// the committed base plus the accepted candidate operations (and,
    /// for the NEW class, the ingress' new-rule edge).
    out: Vec<Adj>,
    /// Whether a switch could end up with no matching rule.
    may_blackhole: Vec<bool>,
    /// The order behind loop freedom: whole-graph under strong loop
    /// freedom, else over the reachable subgraph when the conservative
    /// oracle checks relaxed loop freedom, else absent.
    pk: Option<Pk>,
    /// Source-reachable set of the *accepted* state (conservative mode
    /// with walk properties only; empty otherwise).
    reach: Vec<bool>,
    /// What the source reaches without entering the waypoint — it must
    /// never hold the destination (only under conservative waypoint
    /// enforcement; empty otherwise).
    avoid: Vec<bool>,
}

/// Undo log of one tentative push.
#[derive(Default)]
struct Undo {
    /// Edges appended to `out` this push, in order: `(class, from, to)`.
    edges: Vec<(usize, u32, u32)>,
    /// Edges entered into the order this push: `(class, from, to)`.
    ordered: Vec<(usize, u32, u32)>,
    /// Topological positions overwritten this push: `(class, node,
    /// previous ord)`.
    ords: Vec<(usize, u32, u32)>,
    /// `may_blackhole` bits set this push.
    blackholes: Vec<(usize, u32)>,
    /// `reach` bits set this push.
    reached: Vec<(usize, u32)>,
    /// `avoid` bits set this push.
    avoided: Vec<(usize, u32)>,
    /// A lazily-built class graph to drop again (flip pushes).
    drop_class: bool,
    /// Previous pending-flag byte of the touched switch.
    flags: Option<(u32, u8)>,
    /// `flip_pending` was set by this push.
    flip_set: bool,
}

impl Undo {
    /// Empty the log, keeping its buffers for the next push.
    fn clear(&mut self) {
        self.edges.clear();
        self.ordered.clear();
        self.ords.clear();
        self.blackholes.clear();
        self.reached.clear();
        self.avoided.clear();
        self.drop_class = false;
        self.flags = None;
        self.flip_set = false;
    }
}

/// Memoized exact decision-walk state.
struct WalkMemo {
    /// Verdict of the accepted candidate set.
    ok: bool,
    /// Every switch some explored branch visited, by dense index.
    touched: Vec<bool>,
}

/// A cached rejection certificate for one switch: pushing the `bit`
/// operation while the switch's flag state was `(base, before)` was
/// rejected because the new edge to `y` would close a direct 2-cycle
/// (`y`'s edge back was present in the `tag` class graph).
///
/// The certificate is never *trusted* — it is re-proven at each use:
/// if the flag state is unchanged the push would attempt the same
/// edge, and if `y` still points back (and, where only the reachable
/// subgraph is ordered, the switch is still reachable) the insertion
/// still closes a cycle, so the verdict is `reject` without entering
/// discovery. Any mismatch falls through to the full evaluation. This
/// turns the dominant probe pattern of reversal-style workloads — the
/// same blocked candidate re-probed every round — into a few
/// comparisons.
#[derive(Clone, Copy)]
struct RejectCert {
    bit: u8,
    before: u8,
    base: u8,
    tag: VersionTag,
    y: u32,
}

/// A stateful admission session.
///
/// Open one per schedule (or per round — both work), [`try_push`]
/// each candidate in the algorithm's order, then either read the
/// admitted round destructively with [`into_ops`] or fold it into the
/// session's base with [`commit_round`] and keep probing the next
/// round against the advanced configuration. Each push decision
/// equals the stateless
/// [`round_admissible`](super::round_admissible)`(inst, base, accepted
/// ∪ {op}, props, mode)` for the session's current base.
///
/// [`try_push`]: AdmissionProbe::try_push
/// [`into_ops`]: AdmissionProbe::into_ops
/// [`commit_round`]: AdmissionProbe::commit_round
pub struct AdmissionProbe<'a> {
    inst: &'a UpdateInstance,
    /// The committed configuration the session probes against — owned,
    /// so it can advance across rounds without re-opening.
    base: ConfigState<'a>,
    props: PropertySet,
    walk_props: PropertySet,
    mode: OracleMode,
    src: u32,
    dst: u32,
    waypoint: Option<u32>,
    /// Target of the ingress' new rule: always exposable to NEW-tagged
    /// packets, so the NEW class carries it as an edge of its own. (No
    /// rule ever points at the ingress, so the edge lies on no cycle
    /// and strong loop freedom cannot tell it is there.)
    src_new_edge: Option<u32>,
    /// Per-switch accepted pending-op flags (the [`ConfigState`] bits).
    flags: Vec<u8>,
    flip_pending: bool,
    accepted: Vec<RuleOp>,
    classes: Vec<ClassGraph>,
    /// No candidate set can ever be admissible against the current
    /// base (cyclic base class graph under SLF, or a conservative base
    /// violation — conservative verdicts are monotone in the edge
    /// set). Recomputed when the base advances.
    dead: bool,
    memo: Option<WalkMemo>,
    /// Per-switch revalidated rejection shortcuts (see [`RejectCert`]).
    certs: Vec<Option<RejectCert>>,
    /// An exact decision walk hit its leaf budget at least once.
    budget_hit: bool,
    probes: u64,
    scratch: Scratch,
    /// The current push's undo log (buffers reused across pushes).
    undo: Undo,
}

impl<'a> AdmissionProbe<'a> {
    /// Open a session: `base` is the committed configuration probing
    /// starts from (copied; the session advances its own copy on
    /// [`commit_round`](AdmissionProbe::commit_round)).
    pub fn open(
        inst: &'a UpdateInstance,
        base: &ConfigState<'a>,
        props: PropertySet,
        mode: OracleMode,
    ) -> Self {
        let n = inst.node_count();
        let idx = |v: DpId| inst.index(v).expect("route switch is a participant") as u32;
        let src = idx(inst.src());
        let waypoint = inst.waypoint().map(idx);
        let src_new_edge = inst.new_next_at(src as usize).map(|t| t as u32);
        let walk_props = props.without(Property::StrongLoopFreedom);
        let mut probe = AdmissionProbe {
            inst,
            base: base.clone(),
            props,
            walk_props,
            mode,
            src,
            dst: idx(inst.dst()),
            waypoint,
            src_new_edge,
            flags: vec![0u8; n],
            flip_pending: false,
            accepted: Vec::new(),
            classes: Vec::new(),
            dead: false,
            memo: None,
            certs: vec![None; n],
            budget_hit: false,
            probes: 0,
            scratch: Scratch::new(0),
            undo: Undo::default(),
        };
        // (An exact session without strong loop freedom keeps no class
        // graph and needs no scratch.)
        if probe.need_class_graphs() {
            probe.scratch = Scratch::new(n);
        }
        probe.rebuild_classes();
        probe.reseed();
        probe
    }

    /// Whether the conservative walk-safety state is maintained.
    fn walks(&self) -> bool {
        self.mode == OracleMode::Conservative && !self.walk_props.is_empty()
    }

    /// Whether any choice-graph class state is needed at all.
    fn need_class_graphs(&self) -> bool {
        self.props.contains(Property::StrongLoopFreedom) || self.walks()
    }

    /// The waypoint the conservative oracle must see enforced, if any.
    fn enforced_waypoint(&self) -> Option<u32> {
        self.waypoint
            .filter(|_| self.walks() && self.walk_props.contains(Property::WaypointEnforcement))
    }

    /// Operations admitted so far (since the last round commit).
    pub fn ops(&self) -> &[RuleOp] {
        &self.accepted
    }

    /// Number of admitted operations.
    pub fn len(&self) -> usize {
        self.accepted.len()
    }

    /// Whether nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty()
    }

    /// Number of admissibility probes answered.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Deterministic work counter of the class-graph structures: nodes
    /// visited by reachability and order-discovery searches plus
    /// topological-order slots moved, summed over seeding and every
    /// probe. Unlike a clock it repeats exactly, so scaling can be
    /// asserted on it.
    pub fn work(&self) -> u64 {
        self.scratch.work
    }

    /// The committed configuration the session currently probes
    /// against.
    pub fn base(&self) -> &ConfigState<'a> {
        &self.base
    }

    /// Whether any exact decision walk hit its leaf budget; verdicts
    /// are then only exact up to the budget (the session-side mirror
    /// of [`CheckReport::budget_exhausted`](super::CheckReport)).
    pub fn walk_budget_exhausted(&self) -> bool {
        self.budget_hit
    }

    /// Consume the session, returning the admitted round operations.
    pub fn into_ops(self) -> Vec<RuleOp> {
        self.accepted
    }

    /// Test support: a rendering of everything a push may patch — per
    /// class the adjacency, blackhole bits, reach sets and topological
    /// order, plus the pending flags and the exact-walk memo. Two
    /// sessions in the same state render identically; the counters and
    /// the rejection-certificate cache (which a rejected push
    /// legitimately writes) are left out.
    #[doc(hidden)]
    pub fn state_dump(&self) -> String {
        fn bits(set: &[bool]) -> String {
            set.iter().map(|&b| if b { '1' } else { '.' }).collect()
        }
        fn cells(adj: &[Adj]) -> Vec<&[u32]> {
            adj.iter().map(Adj::as_slice).collect()
        }
        let mut s = format!(
            "dead={} flip_pending={} flags={:?} accepted={:?}\n",
            self.dead, self.flip_pending, self.flags, self.accepted
        );
        for cg in &self.classes {
            let _ = writeln!(
                s,
                "class {}: out={:?} blackhole={} reach={} avoid={}",
                cg.tag,
                cells(&cg.out),
                bits(&cg.may_blackhole),
                bits(&cg.reach),
                bits(&cg.avoid)
            );
            if let Some(pk) = &cg.pk {
                let _ = writeln!(
                    s,
                    "  poisoned={} ord={:?} ins={:?}",
                    pk.poisoned,
                    pk.ord,
                    cells(&pk.ins)
                );
            }
        }
        if let Some(memo) = &self.memo {
            let _ = writeln!(s, "memo ok={} touched={}", memo.ok, bits(&memo.touched));
        }
        s
    }

    /// Probe one candidate: commit it if the grown set stays
    /// admissible, otherwise leave the session exactly unchanged.
    pub fn try_push(&mut self, op: RuleOp) -> bool {
        self.probes += 1;
        if self.dead {
            return false;
        }
        let admitted = self.eval(op);
        if admitted {
            self.accepted.push(op);
        } else {
            self.rollback();
        }
        self.undo.clear();
        admitted
    }

    /// Fold the accepted round into the committed base and re-seed for
    /// the next round, returning the round's operations. Equivalent to
    /// — but much cheaper than — applying the ops to a config and
    /// opening a fresh session on it.
    pub fn commit_round(&mut self) -> Vec<RuleOp> {
        let ops = std::mem::take(&mut self.accepted);
        self.advance(&ops);
        ops
    }

    /// Advance the committed base by `ops` and re-seed the session,
    /// reusing the per-class graphs, the maintained topological order
    /// and the successor tables.
    ///
    /// Committing a round *narrows* each touched switch's exposable
    /// edge set (the pending-subset union collapses to the fully
    /// applied state), and edge deletions never invalidate a
    /// topological order — so the per-class graph is patched per
    /// touched switch in O(round deltas) instead of rebuilt in O(n).
    /// Only the rare structural breaks (an ingress flip changing the
    /// tag-class set; a poisoned class possibly healed by deletions; a
    /// forced-through inadmissible round re-introducing edges that
    /// close a cycle) fall back to a full rebuild. Narrowing is also
    /// the one thing that can shrink the conservative reach sets, so
    /// this is where they — and the reachable order — are re-seeded by
    /// a full traversal.
    ///
    /// `ops` must cover the currently accepted set: use
    /// [`commit_round`](AdmissionProbe::commit_round) to commit what
    /// the session admitted, or call this with nothing accepted to
    /// advance past a round decided elsewhere (the greedy engine's
    /// exact-oracle fallback, the incremental verifier's violating
    /// rounds).
    pub fn advance(&mut self, ops: &[RuleOp]) {
        debug_assert!(
            self.accepted.iter().all(|a| ops.contains(a)),
            "advance must cover the accepted set"
        );
        let was_flipped = self.base.is_flipped();
        let mut touched: Vec<u32> = Vec::with_capacity(ops.len());
        for op in ops {
            self.base.apply(op);
            if let Some(i) = op.switch().and_then(|v| self.inst.index(v)) {
                self.flags[i] = 0;
                touched.push(i as u32);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.accepted.clear();
        self.flip_pending = false;

        let flip_committed = self.base.is_flipped() && !was_flipped;
        let poisoned = self
            .classes
            .iter()
            .any(|c| c.pk.as_ref().is_some_and(|pk| pk.poisoned));
        if flip_committed || poisoned || self.classes.len() != usize::from(self.need_class_graphs())
        {
            self.rebuild_classes();
        } else {
            for ci in 0..self.classes.len() {
                for &i in &touched {
                    if !self.patch_switch(ci, i) {
                        // A forced-through round re-introduced an edge
                        // that closes a cycle: rebuild the class (it
                        // comes back poisoned, deadening the session).
                        self.rebuild_class_at(ci);
                        break;
                    }
                }
            }
        }
        self.reseed();
    }

    /// Build the per-tag-class graphs from the committed base (no
    /// pending state).
    fn rebuild_classes(&mut self) {
        self.classes.clear();
        if !self.need_class_graphs() {
            return;
        }
        let tag = if self.base.is_flipped() {
            VersionTag::NEW
        } else {
            VersionTag::OLD
        };
        let cg = self.build_class(tag);
        self.classes.push(cg);
    }

    fn rebuild_class_at(&mut self, ci: usize) {
        let tag = self.classes[ci].tag;
        self.classes[ci] = self.build_class(tag);
    }

    /// Re-derive switch `i`'s committed edges in class `ci` after a
    /// round commit: stale edges are deleted (a whole-graph order
    /// stays valid; a reachable one is about to be re-seeded),
    /// `may_blackhole` is refreshed, and — only when a round was
    /// forced through with inadmissible operations — new edges are
    /// inserted through Pearce–Kelly. Returns `false` when such an
    /// insertion would close a cycle (caller rebuilds).
    fn patch_switch(&mut self, ci: usize, i: u32) -> bool {
        let tag = self.classes[ci].tag;
        let ln = self.local_nexts(i, tag, 0);
        let ClassGraph {
            out,
            pk,
            may_blackhole,
            ..
        } = &mut self.classes[ci];
        let mut pk = pk.as_mut().filter(|pk| pk.whole);
        for t in out[i as usize].iter() {
            if ln.targets.contains(t) {
                continue;
            }
            out[i as usize].remove(t);
            if let Some(pk) = pk.as_mut() {
                let removed = pk.ins[t as usize].remove(i);
                debug_assert!(removed, "ins mirrors out");
            }
        }
        for t in ln.targets.iter() {
            if out[i as usize].contains(t) {
                continue;
            }
            out[i as usize].push(t);
            if let Some(pk) = pk.as_mut() {
                // Nothing rolls an advance back: the log is a sink.
                let inserted = pk.insert(out, (i, t), &mut self.scratch, ci, &mut self.undo);
                self.undo.clear();
                if !inserted {
                    return false;
                }
            }
        }
        may_blackhole[i as usize] = ln.none;
        true
    }

    /// Recompute the derived caches — dead flag, conservative walk
    /// state, exact walk memo — for the committed base with no pending
    /// operations. Shared by [`open`](AdmissionProbe::open) and
    /// [`advance`](AdmissionProbe::advance).
    fn reseed(&mut self) {
        self.dead = self
            .classes
            .iter()
            .any(|c| c.pk.as_ref().is_some_and(|pk| pk.poisoned));
        if self.walks() {
            for ci in 0..self.classes.len() {
                // Conservative violations are monotone in the edge set:
                // if the base already fails, every superset fails too.
                if !self.seed_walk(ci) {
                    self.dead = true;
                }
            }
        }
        if self.mode == OracleMode::Exact && !self.walk_props.is_empty() {
            let mut touched = vec![false; self.inst.node_count()];
            let rep = decision_walk::check_round_collecting(
                self.inst,
                &self.base,
                &self.accepted,
                &self.walk_props,
                decision_walk::DEFAULT_LEAF_BUDGET,
                true,
                &mut touched,
            );
            self.budget_hit |= rep.budget_exhausted;
            self.memo = Some(WalkMemo {
                ok: rep.is_ok(),
                touched,
            });
        }
    }

    /// Evaluate one candidate; `false` means inadmissible (caller
    /// rolls back whatever the undo log recorded).
    fn eval(&mut self, op: RuleOp) -> bool {
        match op {
            RuleOp::FlipIngress => {
                if self.base.is_flipped() || self.flip_pending {
                    // Duplicate: the candidate set is semantically
                    // unchanged, so the verdict is the current one.
                    return self.verdict_unchanged();
                }
                self.flip_pending = true;
                self.undo.flip_set = true;
                // The NEW class becomes relevant; build it against the
                // full current candidate set.
                if self.need_class_graphs() {
                    let cg = self.build_class(VersionTag::NEW);
                    if cg.pk.as_ref().is_some_and(|pk| pk.poisoned) {
                        return false;
                    }
                    self.classes.push(cg);
                    self.undo.drop_class = true;
                    if self.walks() && !self.seed_walk(self.classes.len() - 1) {
                        return false;
                    }
                }
                if self.mode == OracleMode::Exact && self.memo.is_some() {
                    // The flip changes the ingress tag class: always
                    // re-explore.
                    return self.recompute_walk(op);
                }
                true
            }
            RuleOp::Activate(v) | RuleOp::RemoveOld(v) | RuleOp::InstallTagged(v) => {
                let (Some(i), Some((_, bit))) = (self.inst.index(v), op.flag()) else {
                    // A switch outside the instance never matches any
                    // rule edge or walk step: semantically a no-op.
                    return self.verdict_unchanged();
                };
                let i = i as u32;
                let before = self.flags[i as usize];
                if before & bit != 0 {
                    return self.verdict_unchanged();
                }
                if self.certified(i, bit).is_some() {
                    return false;
                }
                self.undo.flags = Some((i, before));
                self.flags[i as usize] = before | bit;

                // Structural deltas per relevant class. Adding an
                // operation only adds exposure combinations, so the
                // per-switch edge set grows monotonically.
                for ci in 0..self.classes.len() {
                    if !self.patch_class(ci, i, bit, before) {
                        return false;
                    }
                }

                if self.mode == OracleMode::Exact {
                    if let Some(memo) = &self.memo {
                        if memo.touched[i as usize] {
                            return self.recompute_walk(op);
                        }
                        // No branch consults v: the verdict stays
                        // whatever it was.
                        return memo.ok;
                    }
                }
                true
            }
        }
    }

    /// Grow class `ci` by what pushing `bit` at switch `i` (pending
    /// flags `before`) newly exposes, patching every maintained
    /// structure; `false` means the grown class violates a property.
    fn patch_class(&mut self, ci: usize, i: u32, bit: u8, before: u8) -> bool {
        let tag = self.classes[ci].tag;
        let old_nexts = self.local_nexts(i, tag, before);
        let new_nexts = self.local_nexts(i, tag, before | bit);
        let walks = self.walks();
        let (cg, sc, undo) = (&mut self.classes[ci], &mut self.scratch, &mut self.undo);
        let mut added = Adj::default();
        for t in new_nexts.targets.iter() {
            if !old_nexts.targets.contains(t) {
                added.push(t);
                cg.out[i as usize].push(t);
                undo.edges.push((ci, i, t));
            }
        }
        let newly_none = new_nexts.none && !old_nexts.none && !cg.may_blackhole[i as usize];
        if newly_none {
            cg.may_blackhole[i as usize] = true;
            undo.blackholes.push((ci, i));
        }
        if let Some(pk) = cg.pk.as_mut().filter(|pk| pk.whole) {
            for t in added.iter() {
                if !pk.insert(&cg.out, (i, t), sc, ci, undo) {
                    self.note_two_cycle(ci, (i, t), bit, before);
                    return false;
                }
            }
        }
        // A switch the source does not reach (or a push that changes
        // nothing structurally) leaves the reachable subgraph — hence
        // every walk-based verdict and cache — untouched.
        if (added.is_empty() && !newly_none) || !walks || !cg.reach[i as usize] {
            return true;
        }

        // The switch is reachable: patch the walk-safety state over
        // the region the new edges affect.
        let blackhole_free = self.walk_props.contains(Property::BlackholeFreedom);
        if blackhole_free && newly_none {
            return false;
        }
        flood(&cg.out, &mut cg.reach, None, added.iter(), sc);
        undo.reached.extend(sc.queue.iter().map(|&f| (ci, f)));
        if blackhole_free && sc.queue.iter().any(|&f| cg.may_blackhole[f as usize]) {
            return false;
        }
        if let Some(pk) = cg.pk.as_mut().filter(|pk| !pk.whole) {
            if !pk.adopt(&cg.out, sc, ci, undo) {
                return false;
            }
            for t in added.iter() {
                if !pk.insert(&cg.out, (i, t), sc, ci, undo) {
                    self.note_two_cycle(ci, (i, t), bit, before);
                    return false;
                }
            }
        }
        if !cg.avoid.is_empty() && cg.avoid[i as usize] {
            flood(&cg.out, &mut cg.avoid, self.waypoint, added.iter(), sc);
            undo.avoided.extend(sc.queue.iter().map(|&f| (ci, f)));
            if cg.avoid[self.dst as usize] {
                return false;
            }
        }
        true
    }

    /// Revalidate switch `i`'s cached rejection certificate against a
    /// push of `bit`: identical flag state means the push would
    /// attempt the same edge, and a still-present back edge still
    /// closes the cycle — the push is rejected without re-entering
    /// discovery.
    fn certified(&self, i: u32, bit: u8) -> Option<RejectCert> {
        let [cg] = &self.classes[..] else {
            return None;
        };
        let pk = cg.pk.as_ref()?;
        self.certs[i as usize].filter(|cert| {
            cert.bit == bit
                && cert.before == self.flags[i as usize]
                && cert.base == self.base.flags_at(i as usize)
                && cert.tag == cg.tag
                && cg.out[cert.y as usize].contains(i)
                && (pk.whole || cg.reach[i as usize])
        })
    }

    /// The switch a rejected `Activate(v)` is waiting for, if the
    /// session can name one: with every edge ordered (strong loop
    /// freedom), a certified 2-cycle rejection stands — whatever else
    /// is pushed — until [`advance`](AdmissionProbe::advance) touches
    /// `v` or the returned switch, so a scheduler may park `v` until
    /// then. (Where only the reachable subgraph is ordered the
    /// rejection also hinges on `v` staying reachable, which any round
    /// can change: no blocker is named.)
    pub(crate) fn blocker(&self, v: DpId) -> Option<DpId> {
        let cert = self.certified(self.inst.index(v)? as u32, ACTIVATED)?;
        let whole = self.classes[0].pk.as_ref().is_some_and(|pk| pk.whole);
        whole.then(|| self.inst.participants()[cert.y as usize])
    }

    /// After the order refused edge `i → t`: if `t` points straight
    /// back, remember the direct 2-cycle as a revalidated rejection
    /// certificate.
    fn note_two_cycle(&mut self, ci: usize, (i, t): (u32, u32), bit: u8, before: u8) {
        let cg = &self.classes[ci];
        if self.classes.len() == 1 && cg.out[t as usize].contains(i) {
            self.certs[i as usize] = Some(RejectCert {
                bit,
                before,
                base: self.base.flags_at(i as usize),
                tag: cg.tag,
                y: t,
            });
        }
    }

    /// A semantically empty candidate: admissible iff the current
    /// accepted state is admissible.
    fn verdict_unchanged(&self) -> bool {
        // `dead` was already checked; conservative state is safe by
        // invariant. Only the exact walk memo can carry a negative
        // verdict forward.
        self.memo.as_ref().is_none_or(|memo| memo.ok)
    }

    /// Re-run the exact decision walk over `accepted ∪ {op}`, keeping
    /// its touched set when the verdict is positive.
    fn recompute_walk(&mut self, op: RuleOp) -> bool {
        let mut trial = Vec::with_capacity(self.accepted.len() + 1);
        trial.extend_from_slice(&self.accepted);
        trial.push(op);
        let mut touched = vec![false; self.inst.node_count()];
        let rep = decision_walk::check_round_collecting(
            self.inst,
            &self.base,
            &trial,
            &self.walk_props,
            decision_walk::DEFAULT_LEAF_BUDGET,
            true,
            &mut touched,
        );
        self.budget_hit |= rep.budget_exhausted;
        if rep.is_ok() {
            self.memo = Some(WalkMemo { ok: true, touched });
        }
        rep.is_ok()
    }

    /// All forwarding targets switch `i` could expose for `tag`, under
    /// base state plus the given pending flags — the dense,
    /// allocation-free mirror of
    /// [`choice_graph::possible_nexts`](super::choice_graph), plus the
    /// ingress' new-rule edge in the NEW class.
    fn local_nexts(&self, i: u32, tag: VersionTag, flags: u8) -> LocalNexts {
        let mut nexts = LocalNexts::default();
        if i == self.dst {
            return nexts;
        }
        let base = self.base.flags_at(i as usize);
        for mask in 0u8..8 {
            // Enumerate only applied-subsets of the pending flags.
            if mask & !flags != 0 {
                continue;
            }
            match forward(self.inst, i as usize, base | mask, tag) {
                Some(t) => nexts.push(t as u32),
                None => nexts.none = true,
            }
        }
        if tag == VersionTag::NEW && i == self.src {
            if let Some(t) = self.src_new_edge {
                nexts.push(t);
            }
        }
        nexts
    }

    /// Build one class graph from the base plus all current flags.
    fn build_class(&mut self, tag: VersionTag) -> ClassGraph {
        let n = self.inst.node_count();
        let mut out = vec![Adj::default(); n];
        let mut may_blackhole = vec![false; n];
        for i in 0..n as u32 {
            let ln = self.local_nexts(i, tag, self.flags[i as usize]);
            out[i as usize] = ln.targets;
            may_blackhole[i as usize] = ln.none;
        }
        let walks = self.walks();
        let pk = if self.props.contains(Property::StrongLoopFreedom) {
            let mut pk = Pk::new(n, true);
            pk.poisoned = !pk.seed(&out, None, &mut self.scratch);
            Some(pk)
        } else if walks && self.walk_props.contains(Property::RelaxedLoopFreedom) {
            Some(Pk::new(n, false))
        } else {
            None
        };
        let set = |on: bool| if on { vec![false; n] } else { Vec::new() };
        ClassGraph {
            tag,
            out,
            may_blackhole,
            pk,
            reach: set(walks),
            avoid: set(self.enforced_waypoint().is_some()),
        }
    }

    /// Seed class `ci`'s conservative walk-safety state from its
    /// current adjacency by full traversal — once per round, and when
    /// a flip push builds the NEW class. Mirrors
    /// [`round_safe_conservative`](super::choice_graph::round_safe_conservative)
    /// exactly; `false` means the class violates a walk property.
    fn seed_walk(&mut self, ci: usize) -> bool {
        let (src, dst) = (self.src, self.dst);
        let waypoint = self.enforced_waypoint();
        let ClassGraph {
            out,
            may_blackhole,
            pk,
            reach,
            avoid,
            ..
        } = &mut self.classes[ci];
        let sc = &mut self.scratch;

        // Reachability from the source.
        reach.fill(false);
        flood(out, reach, None, std::iter::once(src), sc);

        // Blackhole freedom: no reachable switch may lose its rule.
        if self.walk_props.contains(Property::BlackholeFreedom)
            && sc.queue.iter().any(|&v| may_blackhole[v as usize])
        {
            return false;
        }

        // Relaxed loop freedom: no cycle within the reachable part (a
        // whole-graph order has already established more).
        if let Some(pk) = pk.as_mut().filter(|pk| !pk.whole) {
            if !pk.seed(out, Some(reach), sc) {
                return false;
            }
        }

        // Waypoint enforcement: with the waypoint removed, the
        // destination must be unreachable.
        if let Some(w) = waypoint {
            avoid.fill(false);
            flood(out, avoid, Some(w), std::iter::once(src), sc);
            if avoid[dst as usize] {
                return false;
            }
        }
        true
    }

    /// Restore the exact pre-push state.
    fn rollback(&mut self) {
        let undo = &self.undo;
        for &(ci, x, y) in undo.ordered.iter().rev() {
            let pk = self.classes[ci]
                .pk
                .as_mut()
                .expect("ordered edge implies pk");
            let popped = pk.ins[y as usize].pop();
            debug_assert_eq!(popped, Some(x));
        }
        for &(ci, node, old) in undo.ords.iter().rev() {
            let pk = self.classes[ci].pk.as_mut().expect("ord undo implies pk");
            pk.ord[node as usize] = old;
        }
        for &(ci, x, y) in undo.edges.iter().rev() {
            let popped = self.classes[ci].out[x as usize].pop();
            debug_assert_eq!(popped, Some(y));
        }
        for &(ci, node) in &undo.blackholes {
            self.classes[ci].may_blackhole[node as usize] = false;
        }
        for &(ci, node) in &undo.reached {
            self.classes[ci].reach[node as usize] = false;
        }
        for &(ci, node) in &undo.avoided {
            self.classes[ci].avoid[node as usize] = false;
        }
        if undo.drop_class {
            self.classes.pop();
        }
        if let Some((node, prev)) = undo.flags {
            self.flags[node as usize] = prev;
        }
        if undo.flip_set {
            self.flip_pending = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::round_admissible;
    use sdn_topo::route::RoutePath;
    use sdn_types::DetRng;
    use std::collections::BTreeSet;

    fn inst(old: &[u64], new: &[u64], wp: Option<u64>) -> UpdateInstance {
        UpdateInstance::new(
            RoutePath::from_raw(old).unwrap(),
            RoutePath::from_raw(new).unwrap(),
            wp.map(DpId),
        )
        .unwrap()
    }

    /// The order's invariant: every ordered edge ascends, and — where
    /// only the reachable subgraph is ordered — the ordered edges are
    /// exactly those leaving reachable switches.
    fn assert_ordered_edges_ascend(probe: &AdmissionProbe<'_>) {
        for cg in &probe.classes {
            let Some(pk) = cg.pk.as_ref().filter(|pk| !pk.poisoned) else {
                continue;
            };
            for (x, ts) in cg.out.iter().enumerate() {
                for y in ts.iter() {
                    let ordered = pk.ins[y as usize].contains(x as u32);
                    assert_eq!(ordered, pk.whole || cg.reach[x], "edge {x}->{y}");
                    assert!(!ordered || pk.ord[x] < pk.ord[y as usize], "edge {x}->{y}");
                }
            }
        }
    }

    /// Drive a probe and the stateless oracle side by side.
    fn check_agreement(
        inst: &UpdateInstance,
        base: &ConfigState<'_>,
        candidates: &[RuleOp],
        props: PropertySet,
        mode: OracleMode,
    ) {
        let mut probe = AdmissionProbe::open(inst, base, props, mode);
        let mut accepted: Vec<RuleOp> = Vec::new();
        for &op in candidates {
            let mut trial = accepted.clone();
            trial.push(op);
            let expect = round_admissible(inst, base, &trial, &props, mode);
            let got = probe.try_push(op);
            assert_eq!(
                got, expect,
                "mode {mode:?} props {props:?}: {inst} accepted={accepted:?} op={op:?}"
            );
            assert_ordered_edges_ascend(&probe);
            if got {
                accepted.push(op);
            }
        }
        assert_eq!(probe.ops(), accepted.as_slice());
    }

    #[test]
    fn agrees_on_reversal_activations() {
        for n in [4u64, 6, 9] {
            let pair = sdn_topo::gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let base = ConfigState::initial(&i);
            let cands: Vec<RuleOp> = (1..n).map(|v| RuleOp::Activate(DpId(v))).collect();
            for mode in [OracleMode::Conservative, OracleMode::Exact] {
                for props in [
                    PropertySet::loop_free_relaxed(),
                    PropertySet::loop_free_strong(),
                ] {
                    check_agreement(&i, &base, &cands, props, mode);
                }
            }
        }
    }

    #[test]
    fn agrees_with_waypoint() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], Some(3));
        let base = ConfigState::initial(&i);
        let cands: Vec<RuleOp> = (1..5).map(|v| RuleOp::Activate(DpId(v))).collect();
        for mode in [OracleMode::Conservative, OracleMode::Exact] {
            check_agreement(&i, &base, &cands, PropertySet::transiently_secure(), mode);
        }
    }

    #[test]
    fn adopted_region_keeps_the_order_valid() {
        // A chain hanging off the walk, numbered against its direction
        // (6 → 5 → 4 → 3): reaching it has to permute the chain's
        // order slots, and what is pushed next relies on the result.
        let i = inst(&[1, 6, 5, 4, 3, 7, 8, 9], &[1, 7, 8, 6, 5, 4, 3, 9], None);
        let mut base = ConfigState::initial(&i);
        base.apply_all(&[RuleOp::Activate(DpId(1)), RuleOp::Activate(DpId(3))]);
        let cands = [
            RuleOp::Activate(DpId(8)), // reaches 6, 5, 4, 3
            RuleOp::Activate(DpId(5)),
            RuleOp::RemoveOld(DpId(4)),
            RuleOp::Activate(DpId(7)),
        ];
        for props in [
            PropertySet::loop_free_relaxed(),
            PropertySet::loop_free_strong(),
        ] {
            check_agreement(&i, &base, &cands, props, OracleMode::Conservative);
        }
    }

    #[test]
    fn rejection_leaves_state_unchanged() {
        // After a rejected push, later decisions must match a fresh
        // session that never saw the rejected candidate.
        let pair = sdn_topo::gen::reversal(8);
        let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
        let base = ConfigState::initial(&i);
        let props = PropertySet::loop_free_strong();
        let mut probe = AdmissionProbe::open(&i, &base, props, OracleMode::Conservative);
        assert!(probe.try_push(RuleOp::Activate(DpId(2))));
        assert!(!probe.try_push(RuleOp::Activate(DpId(3)))); // SLF cycle with 2
        let mut fresh = AdmissionProbe::open(&i, &base, props, OracleMode::Conservative);
        assert!(fresh.try_push(RuleOp::Activate(DpId(2))));
        for v in 4..8u64 {
            let a = probe.try_push(RuleOp::Activate(DpId(v)));
            let b = fresh.try_push(RuleOp::Activate(DpId(v)));
            assert_eq!(a, b, "divergence after rollback at v={v}");
        }
    }

    #[test]
    fn flip_and_tagged_pushes_agree() {
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let base = ConfigState::initial(&i);
        let cands = [
            RuleOp::InstallTagged(DpId(3)),
            RuleOp::InstallTagged(DpId(2)),
            RuleOp::FlipIngress,
            RuleOp::InstallTagged(DpId(1)),
        ];
        for mode in [OracleMode::Conservative, OracleMode::Exact] {
            for props in [PropertySet::loop_free_relaxed(), PropertySet::all()] {
                check_agreement(&i, &base, &cands, props, mode);
            }
        }
    }

    #[test]
    fn duplicate_and_foreign_ops_are_noops() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], None);
        let base = ConfigState::initial(&i);
        let props = PropertySet::loop_free_relaxed();
        for mode in [OracleMode::Conservative, OracleMode::Exact] {
            let mut probe = AdmissionProbe::open(&i, &base, props, mode);
            assert!(probe.try_push(RuleOp::Activate(DpId(1))));
            assert!(probe.try_push(RuleOp::Activate(DpId(1)))); // duplicate
            assert!(probe.try_push(RuleOp::Activate(DpId(99)))); // not a participant
        }
    }

    /// Cross-round: a session advanced with `commit_round` must make
    /// exactly the decisions of a session freshly opened on the
    /// advanced base, round after round, until the schedule completes.
    #[test]
    fn committed_session_matches_fresh_sessions() {
        for (n, props) in [
            (12u64, PropertySet::loop_free_strong()),
            (12u64, PropertySet::loop_free_relaxed()),
        ] {
            let pair = sdn_topo::gen::reversal(n);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            for mode in [OracleMode::Conservative, OracleMode::Exact] {
                let mut base = ConfigState::initial(&i);
                let mut session = AdmissionProbe::open(&i, &base, props, mode);
                let mut pending: Vec<u64> = (1..n).collect();
                pending.sort_by_key(|&v| std::cmp::Reverse(i.new_position(DpId(v)).unwrap_or(0)));
                let mut guard = 0;
                while !pending.is_empty() {
                    guard += 1;
                    assert!(guard <= 2 * n, "schedule did not converge");
                    let mut fresh = AdmissionProbe::open(&i, &base, props, mode);
                    for &v in &pending {
                        let op = RuleOp::Activate(DpId(v));
                        assert_eq!(
                            session.try_push(op),
                            fresh.try_push(op),
                            "mode {mode:?} round {guard} candidate {v}"
                        );
                    }
                    let ops = session.commit_round();
                    assert_eq!(ops, fresh.into_ops(), "round {guard} admitted sets differ");
                    assert!(!ops.is_empty(), "greedy must make progress");
                    base.apply_all(&ops);
                    assert_eq!(session.base(), &base);
                    pending.retain(|&v| !ops.contains(&RuleOp::Activate(DpId(v))));
                }
            }
        }
    }

    /// Cross-round with externally decided rounds: `advance` must
    /// leave the session indistinguishable from a fresh open even when
    /// the committed ops were never probed through this session.
    #[test]
    fn advance_by_external_ops_matches_fresh_session() {
        let mut rng = DetRng::new(0xa11);
        for trial in 0..15 {
            let pair = sdn_topo::gen::random_permutation(9, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            for mode in [OracleMode::Conservative, OracleMode::Exact] {
                let props = PropertySet::loop_free_relaxed();
                let base0 = ConfigState::initial(&i);
                let mut session = AdmissionProbe::open(&i, &base0, props, mode);
                // Commit two externally-chosen rounds without probing.
                let mut base = base0.clone();
                for round in [
                    vec![RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(5))],
                    vec![RuleOp::Activate(DpId(3)), RuleOp::RemoveOld(DpId(4))],
                ] {
                    session.advance(&round);
                    base.apply_all(&round);
                }
                let mut fresh = AdmissionProbe::open(&i, &base, props, mode);
                for v in 1..=9u64 {
                    let op = RuleOp::Activate(DpId(v));
                    assert_eq!(
                        session.try_push(op),
                        fresh.try_push(op),
                        "trial {trial} mode {mode:?} candidate {v} after external advance"
                    );
                }
            }
        }
    }

    /// Advancing past a round that creates an SLF cycle in the base
    /// (only the verifier does this) must match a fresh session on the
    /// now-cyclic base: everything rejects, and a later round that
    /// removes the cycle revives the session.
    #[test]
    fn advance_past_violating_round_matches_fresh_session() {
        // old 1-2-3-4, new 1-3-2-4: committing both 2 and 3 leaves the
        // final (acyclic) state, but committing only 3 while 2 keeps
        // its old rule yields the 2<->3 cycle in the base class graph.
        let i = inst(&[1, 2, 3, 4], &[1, 3, 2, 4], None);
        let props = PropertySet::loop_free_strong();
        let base0 = ConfigState::initial(&i);
        let mut session = AdmissionProbe::open(&i, &base0, props, OracleMode::Conservative);
        let bad_round = [RuleOp::Activate(DpId(3))];
        session.advance(&bad_round);
        let mut base = base0.clone();
        base.apply_all(&bad_round);
        let mut fresh = AdmissionProbe::open(&i, &base, props, OracleMode::Conservative);
        for v in [1u64, 2] {
            let op = RuleOp::Activate(DpId(v));
            assert_eq!(session.try_push(op), fresh.try_push(op), "on cyclic base");
        }
        // Healing round: activating 2 removes its old rule edge.
        let heal = [RuleOp::Activate(DpId(2))];
        session.advance(&heal);
        base.apply_all(&heal);
        let mut fresh = AdmissionProbe::open(&i, &base, props, OracleMode::Conservative);
        let op = RuleOp::Activate(DpId(1));
        assert_eq!(session.try_push(op), fresh.try_push(op), "after healing");
    }

    #[test]
    fn local_nexts_matches_possible_nexts() {
        use crate::checker::choice_graph::possible_nexts;
        let mut rng = DetRng::new(7);
        for _ in 0..20 {
            let pair = sdn_topo::gen::random_permutation(7, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let mut base = ConfigState::initial(&i);
            let mut ops: Vec<RuleOp> = Vec::new();
            for (v, _) in i.nodes() {
                match rng.index(5) {
                    0 => base.apply(&RuleOp::Activate(v)),
                    1 => ops.push(RuleOp::Activate(v)),
                    2 => ops.push(RuleOp::RemoveOld(v)),
                    3 => ops.push(RuleOp::InstallTagged(v)),
                    _ => {}
                }
            }
            let probe =
                AdmissionProbe::open(&i, &base, PropertySet::all(), OracleMode::Conservative);
            for tag in [VersionTag::OLD, VersionTag::NEW] {
                for (v, _) in i.nodes() {
                    let vi = i.index(v).unwrap() as u32;
                    let flags = ops
                        .iter()
                        .filter_map(RuleOp::flag)
                        .filter(|&(x, _)| x == v)
                        .fold(0u8, |f, (_, bit)| f | bit);
                    let ln = probe.local_nexts(vi, tag, flags);
                    let mut reference = possible_nexts(&i, &base, &ops, v, tag);
                    if tag == VersionTag::NEW && v == i.src() {
                        // the ingress' new-rule edge rides in the class
                        reference.insert(i.new_next(v));
                    }
                    let mut got: BTreeSet<Option<DpId>> = ln
                        .targets
                        .iter()
                        .map(|t| Some(i.participants()[t as usize]))
                        .collect();
                    if ln.none {
                        got.insert(None);
                    }
                    assert_eq!(got, reference, "{i} v={v} tag={tag}");
                }
            }
        }
    }

    #[test]
    fn pearce_kelly_matches_naive_cycle_check() {
        // Random edge insertions over a small node set (at most two
        // successors and two predecessors per node, like a class
        // graph): PK must accept exactly the edges that keep the graph
        // acyclic, and leave no trace of the ones it refuses.
        let mut rng = DetRng::new(42);
        for trial in 0..50 {
            let n = 8usize;
            let mut out = vec![Adj::default(); n];
            let mut pk = Pk::new(n, true);
            let mut sc = Scratch::new(n);
            let mut undo = Undo::default();
            let mut naive: Vec<Vec<u32>> = vec![Vec::new(); n];
            for _ in 0..20 {
                let x = rng.index(n) as u32;
                let y = rng.index(n) as u32;
                let indeg = naive.iter().filter(|ts| ts.contains(&y)).count();
                if x == y || out[x as usize].contains(y) || out[x as usize].len == 2 || indeg == 2 {
                    continue;
                }
                out[x as usize].push(y);
                let before = (pk.ord.clone(), pk.ins.clone());
                undo.clear();
                let accepted = pk.insert(&out, (x, y), &mut sc, 0, &mut undo);
                naive[x as usize].push(y);
                let cyclic = has_cycle(&naive);
                assert_eq!(accepted, !cyclic, "trial {trial}: edge {x}->{y}");
                if !accepted {
                    naive[x as usize].pop();
                    out[x as usize].pop();
                    assert!(before == (pk.ord.clone(), pk.ins.clone()));
                    assert!(undo.ords.is_empty() && undo.ordered.is_empty());
                }
                // Invariant: accepted edges respect the order.
                for (a, ts) in out.iter().enumerate() {
                    for b in ts.iter() {
                        assert!(pk.ord[a] < pk.ord[b as usize]);
                        assert!(pk.ins[b as usize].contains(a as u32));
                    }
                }
            }
        }
    }

    fn has_cycle(adj: &[Vec<u32>]) -> bool {
        let n = adj.len();
        let mut color = vec![0u8; n];
        fn dfs(v: usize, adj: &[Vec<u32>], color: &mut [u8]) -> bool {
            color[v] = 1;
            for &t in &adj[v] {
                let c = color[t as usize];
                if c == 1 || (c == 0 && dfs(t as usize, adj, color)) {
                    return true;
                }
            }
            color[v] = 2;
            false
        }
        (0..n).any(|v| color[v] == 0 && dfs(v, adj, &mut color))
    }
}
