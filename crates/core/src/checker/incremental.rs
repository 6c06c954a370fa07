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
//!   topological-order maintenance over spaced `u64` labels that
//!   strictly increase along every ordered edge (unrelated switches
//!   may share one). An edge `x → y` with `ord[x] >= ord[y]` starts a
//!   *two-way search* (after Haeupler et al., "Incremental cycle
//!   detection, topological ordering, and strong component
//!   maintenance", 2012): forward from `y` and backward from `x`, one
//!   node each in turn, until a node both reach shows a cycle — found
//!   *before* any mutation, so a rejection has nothing to undo — or
//!   one side runs out. Only that side moves: the backward set to just
//!   below `y`, or the forward set to just above `x`. An insertion so
//!   costs about twice the smaller side, which on the one-switch
//!   rounds of a reversal is O(1). When the side does not fit, every
//!   label is respaced by one topological sort (rare, and logged like
//!   any move). Edge deletions never invalidate a topological order,
//!   so the maintained order survives round commits untouched.
//! * **Walk safety** — reachability in the class graph, exact by the
//!   simple-path argument of [`super::choice_graph`], patched in place, never
//!   re-traversed. *Within a round the class graph only grows, so the
//!   reach sets only grow and the reachable order only gains edges;
//!   [`AdmissionProbe::advance`] is the only place they shrink, and it
//!   re-seeds them* with the one full traversal left per round. A push
//!   at a switch the source does not reach changes no walk verdict and
//!   answers in O(1). A push at a reachable switch pays for its
//!   affected region only: the source-reach set grows by a search from
//!   the switch's *new* targets; blackhole freedom is checked on the
//!   pushed switch and the newly reached ones; relaxed loop freedom is
//!   the same order, kept over the *reachable* subgraph — an edge
//!   between reachable switches is one insertion, newly reached
//!   switches carried no constraints yet and take a topological order
//!   over their own pooled labels (a cycle inside the new region shows
//!   there) before their boundary edges are inserted, and
//!   the structure is not kept at all under strong loop freedom, whose
//!   whole-graph order implies it; the waypoint-avoiding reach set
//!   grows like the first and must never reach the destination. Every
//!   mutation is logged, so a rejected push restores the exact prior
//!   state. Verdicts are monotone in the edge set, which also lets a
//!   base configuration that already fails short-circuit every probe.
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
//! fat-tree workloads, per probe and along full
//! greedy trajectories, and that a rejected push leaves no trace in
//! the patched structures.

use std::fmt::Write as _;

use sdn_types::{DpId, VersionTag};

use crate::config::{ConfigState, ACTIVATED};
use crate::model::UpdateInstance;
use crate::properties::{Property, PropertySet};
use crate::schedule::RuleOp;

use super::choice_graph::{local_nexts, Adj, LocalNexts};

/// Session-owned scratch space, so that neither a probe nor the
/// per-round seeding allocates.
struct Scratch {
    /// Epoch-stamped visit marks.
    mark: Vec<u64>,
    epoch: u64,
    /// The two-way search's forward and backward sides.
    fwd: Vec<u32>,
    bwd: Vec<u32>,
    /// The labels a newly reached region pools.
    slots: Vec<u64>,
    /// Search frontier; afterwards, the nodes the search newly marked.
    queue: Vec<u32>,
    /// Topological sort (Kahn): remaining in-degrees and output order.
    indeg: Vec<u32>,
    topo: Vec<u32>,
    /// Edges leaving a newly reached region.
    boundary: Vec<(u32, u32)>,
    /// Nodes visited by searches and labelled, ever.
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
            topo: Vec::with_capacity(n),
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

/// What [`Order::reorder`] did with an edge that points down the order.
enum Reorder {
    /// The edge closes a cycle of ordered edges; nothing changed.
    Cycle,
    /// One side of the edge was relabelled next to the other.
    Moved,
    /// The side to move does not fit next to the edge; nothing changed.
    Cramped,
}

/// Incremental topological order over (part of) one class graph.
///
/// Labels are spaced `u64`s: they strictly increase along every
/// *ordered* edge, and two nodes no ordered path connects may share
/// one. A fresh labelling spaces consecutive nodes `n + 1` apart, so
/// any set of nodes fits between two neighbours.
struct Order {
    /// Label per node. Only the labels of *ordered* edges' endpoints
    /// mean anything.
    ord: Vec<u64>,
    /// Reverse adjacency of the ordered edges (the backward search
    /// walks it; it is also the record of which edges are ordered).
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

impl Order {
    fn new(n: usize, whole: bool) -> Self {
        let gap = n as u64 + 1;
        Order {
            ord: (1..=n as u64).map(|k| k * gap).collect(),
            ins: vec![Adj::default(); n],
            whole,
            poisoned: false,
        }
    }

    /// Order from scratch every edge leaving a switch of `scope` (all
    /// switches when `None`; otherwise a set closed under `out`).
    /// Returns `false` when those edges contain a cycle.
    fn seed(&mut self, out: &[Adj], scope: Option<&[bool]>, sc: &mut Scratch) -> bool {
        let inside = |v: usize| scope.is_none_or(|s| s[v]);
        self.ins.fill(Adj::default());
        for x in (0..out.len()).filter(|&x| inside(x)) {
            for y in out[x].iter() {
                self.ins[y as usize].push(x as u32);
            }
        }
        self.relabel(out, scope, sc)
    }

    /// Label every node afresh, `n + 1` apart, in a topological order
    /// of the ordered edges (Kahn) started from the switches of
    /// `scope`; everything else (outside the scope, or on a cycle)
    /// takes the labels after them. Returns `false` when the ordered
    /// edges contain a cycle.
    fn relabel(&mut self, out: &[Adj], scope: Option<&[bool]>, sc: &mut Scratch) -> bool {
        let n = out.len();
        let gap = n as u64 + 1;
        let inside = |v: usize| scope.is_none_or(|s| s[v]);
        sc.epoch += 1;
        let Scratch {
            mark,
            epoch,
            topo,
            indeg,
            work,
            ..
        } = sc;
        for (d, ins) in indeg.iter_mut().zip(&self.ins) {
            *d = ins.len() as u32;
        }
        topo.clear();
        topo.extend((0..n as u32).filter(|&v| inside(v as usize) && indeg[v as usize] == 0));
        let mut qi = 0;
        while qi < topo.len() {
            let v = topo[qi];
            qi += 1;
            mark[v as usize] = *epoch;
            self.ord[v as usize] = qi as u64 * gap;
            for t in out[v as usize].iter() {
                if self.ins[t as usize].contains(v) {
                    indeg[t as usize] -= 1;
                    if indeg[t as usize] == 0 {
                        topo.push(t);
                    }
                }
            }
        }
        *work += qi as u64;
        let unplaced = (0..n).filter(|&v| mark[v] != *epoch);
        for (v, k) in unplaced.zip(qi as u64 + 1..) {
            self.ord[v] = k * gap;
        }
        qi == (0..n).filter(|&v| inside(v)).count()
    }

    /// Enter edge `x → y` (already present in `out`) into the order.
    /// Returns `false` — mutating nothing — when the edge would close a
    /// cycle of ordered edges. The new `ins` entry and every
    /// overwritten label are logged in `undo` so the caller can roll
    /// the insertion back.
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
        while self.ord[x as usize] >= self.ord[y as usize] {
            match self.reorder(out, (x, y), sc, ci, undo) {
                Reorder::Cycle => return false,
                Reorder::Moved => break,
                Reorder::Cramped => {
                    // Rare: respace every label, then search again
                    // (the edge is known to close no cycle by now).
                    let old = self.ord.iter().enumerate();
                    undo.ords.extend(old.map(|(v, &o)| (ci, v as u32, o)));
                    let acyclic = self.relabel(out, None, sc);
                    debug_assert!(acyclic, "ordered edges stay acyclic");
                }
            }
        }
        self.ins[y as usize].push(x);
        undo.ordered.push((ci, x, y));
        true
    }

    /// Make room for `x → y` with `ord[x] >= ord[y]`: a two-way search.
    /// Forward from `y` over nodes labelled at most `ord[x]` and
    /// backward from `x` over nodes labelled at least `ord[y]` advance
    /// one node each in turn; a node both sides reach closes a cycle,
    /// and the first side to run out holds every node that has to
    /// move, so only that side is relabelled — the backward set to
    /// just below `y`, or the forward set to just above `x`. Either
    /// move keeps every ordered edge ascending, and the search costs
    /// about twice the smaller side, not the whole region between the
    /// endpoints.
    fn reorder(
        &mut self,
        out: &[Adj],
        (x, y): (u32, u32),
        sc: &mut Scratch,
        ci: usize,
        undo: &mut Undo,
    ) -> Reorder {
        let (ox, oy) = (self.ord[x as usize], self.ord[y as usize]);
        sc.epoch += 2;
        let (fm, bm) = (sc.epoch - 1, sc.epoch);
        let Scratch {
            mark,
            fwd,
            bwd,
            work,
            ..
        } = sc;
        fwd.clear();
        fwd.push(y);
        mark[y as usize] = fm;
        bwd.clear();
        bwd.push(x);
        mark[x as usize] = bm;
        let (mut fi, mut bi) = (0, 0);
        let ordered = |z: u32, w: u32| self.ins[w as usize].contains(z);
        let forward = loop {
            let Some(&z) = fwd.get(fi) else { break true };
            fi += 1;
            for w in out[z as usize].iter().filter(|&w| ordered(z, w)) {
                if mark[w as usize] == bm {
                    *work += (fi + bi) as u64;
                    return Reorder::Cycle;
                }
                if mark[w as usize] != fm && self.ord[w as usize] <= ox {
                    mark[w as usize] = fm;
                    fwd.push(w);
                }
            }
            let Some(&z) = bwd.get(bi) else { break false };
            bi += 1;
            for w in self.ins[z as usize].iter() {
                if mark[w as usize] == fm {
                    *work += (fi + bi) as u64;
                    return Reorder::Cycle;
                }
                if mark[w as usize] != bm && self.ord[w as usize] >= oy {
                    mark[w as usize] = bm;
                    bwd.push(w);
                }
            }
        };
        *work += (fi + bi) as u64;
        // The labels the moving side may take: above x and below its
        // lowest successor left behind, or below y and above its
        // highest predecessor left behind.
        let (side, start) = if forward {
            let ceil = fwd
                .iter()
                .flat_map(|&f| out[f as usize].iter().filter(move |&s| ordered(f, s)))
                .filter(|&s| mark[s as usize] != fm)
                .map(|s| self.ord[s as usize] - 1)
                .min()
                .unwrap_or(u64::MAX);
            if ceil - ox < fwd.len() as u64 {
                return Reorder::Cramped;
            }
            (fwd, ox + 1)
        } else {
            let floor = bwd
                .iter()
                .flat_map(|&b| self.ins[b as usize].iter())
                .filter(|&p| mark[p as usize] != bm)
                .map(|p| self.ord[p as usize] + 1)
                .max()
                .unwrap_or(0);
            if oy - floor < bwd.len() as u64 {
                return Reorder::Cramped;
            }
            let start = oy - bwd.len() as u64;
            (bwd, start)
        };
        side.sort_unstable_by_key(|&z| self.ord[z as usize]);
        for (&z, label) in side.iter().zip(start..) {
            undo.ords.push((ci, z, self.ord[z as usize]));
            self.ord[z as usize] = label;
        }
        *work += side.len() as u64;
        Reorder::Moved
    }

    /// Bring a newly reached region (`sc.queue`: switches whose
    /// out-edges were not ordered so far) into the order. None of them
    /// carries a constraint yet, so a topological order of the edges
    /// *inside* the region, laid over the region's own labels (made
    /// strictly increasing), is consistent with everything already
    /// ordered; only the edges
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
        // The region's own labels, pooled. Sorted they strictly
        // increase, as the region's edges need: a switch outside the
        // reach set has no ordered edge, so no search has moved it
        // since the last seed or respacing gave it a label of its own.
        slots.clear();
        slots.extend(fresh.iter().map(|&f| self.ord[f as usize]));
        slots.sort_unstable();
        debug_assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "pooled labels are distinct"
        );
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
    /// freedom, else over the reachable subgraph under relaxed loop
    /// freedom, else absent.
    order: Option<Order>,
    /// Source-reachable set of the *accepted* state (under walk
    /// properties only; empty otherwise).
    reach: Vec<bool>,
    /// What the source reaches without entering the waypoint — it must
    /// never hold the destination (only under waypoint enforcement;
    /// empty otherwise).
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
    ords: Vec<(usize, u32, u64)>,
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
/// ∪ {op}, props)` for the session's current base.
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
    src: u32,
    dst: u32,
    waypoint: Option<u32>,
    /// Per-switch accepted pending-op flags (the [`ConfigState`] bits).
    flags: Vec<u8>,
    flip_pending: bool,
    accepted: Vec<RuleOp>,
    classes: Vec<ClassGraph>,
    /// No candidate set can ever be admissible against the current
    /// base (cyclic base class graph under SLF, or a base walk
    /// violation — verdicts are monotone in the edge set). Recomputed
    /// when the base advances.
    dead: bool,
    /// Per-switch revalidated rejection shortcuts (see [`RejectCert`]).
    certs: Vec<Option<RejectCert>>,
    probes: u64,
    scratch: Scratch,
    /// The current push's undo log (buffers reused across pushes).
    undo: Undo,
    /// The switches a committed round touched (reused across rounds).
    committed: Vec<u32>,
}

impl<'a> AdmissionProbe<'a> {
    /// Open a session: `base` is the committed configuration probing
    /// starts from (copied; the session advances its own copy on
    /// [`commit_round`](AdmissionProbe::commit_round)).
    pub fn open(inst: &'a UpdateInstance, base: &ConfigState<'a>, props: PropertySet) -> Self {
        let n = inst.node_count();
        let idx = |v: DpId| inst.index(v).expect("route switch is a participant") as u32;
        let src = idx(inst.src());
        let waypoint = inst.waypoint().map(idx);
        let walk_props = props.without(Property::StrongLoopFreedom);
        let mut probe = AdmissionProbe {
            inst,
            base: base.clone(),
            props,
            walk_props,
            src,
            dst: idx(inst.dst()),
            waypoint,
            flags: vec![0u8; n],
            flip_pending: false,
            accepted: Vec::new(),
            classes: Vec::new(),
            dead: false,
            certs: vec![None; n],
            probes: 0,
            scratch: Scratch::new(n),
            undo: Undo::default(),
            committed: Vec::new(),
        };
        probe.rebuild_classes();
        probe.reseed();
        probe
    }

    /// Whether the walk-safety state is maintained.
    fn walks(&self) -> bool {
        !self.walk_props.is_empty()
    }

    /// The waypoint the session must see enforced, if any.
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
    /// visited by reachability and order searches plus labels written
    /// (moved, or placed by a topological sort), summed over seeding
    /// and every probe. Unlike a clock it repeats exactly, so scaling can be
    /// asserted on it.
    pub fn work(&self) -> u64 {
        self.scratch.work
    }

    /// The committed configuration the session currently probes
    /// against.
    pub fn base(&self) -> &ConfigState<'a> {
        &self.base
    }

    /// Consume the session, returning the admitted round operations.
    pub fn into_ops(self) -> Vec<RuleOp> {
        self.accepted
    }

    /// Test support: a rendering of everything a push may patch — per
    /// class the adjacency, blackhole bits, reach sets and topological
    /// order, plus the pending flags. Two
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
            if let Some(order) = &cg.order {
                let _ = writeln!(
                    s,
                    "  poisoned={} ord={:?} ins={:?}",
                    order.poisoned,
                    order.ord,
                    cells(&order.ins)
                );
            }
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
    /// the one thing that can shrink the reach sets, so
    /// this is where they — and the reachable order — are re-seeded by
    /// a full traversal.
    ///
    /// `ops` must cover the currently accepted set: use
    /// [`commit_round`](AdmissionProbe::commit_round) to commit what
    /// the session admitted, or call this to advance past a round
    /// decided elsewhere ([`verify_schedule`](super::verify_schedule),
    /// which pushes a
    /// round's operations until one is rejected, then advances past
    /// all of them).
    pub fn advance(&mut self, ops: &[RuleOp]) {
        debug_assert!(
            self.accepted.iter().all(|a| ops.contains(a)),
            "advance must cover the accepted set"
        );
        let was_flipped = self.base.is_flipped();
        let mut touched = std::mem::take(&mut self.committed);
        touched.clear();
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
            .any(|c| c.order.as_ref().is_some_and(|order| order.poisoned));
        if flip_committed || poisoned || self.classes.len() != 1 {
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
        self.committed = touched;
        self.reseed();
    }

    /// Build the per-tag-class graphs from the committed base (no
    /// pending state).
    fn rebuild_classes(&mut self) {
        self.classes.clear();
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
    /// entered into the order. Returns `false` when such an
    /// insertion would close a cycle (caller rebuilds).
    fn patch_switch(&mut self, ci: usize, i: u32) -> bool {
        let tag = self.classes[ci].tag;
        let ln = self.local_nexts(i, tag, 0);
        let ClassGraph {
            out,
            order,
            may_blackhole,
            ..
        } = &mut self.classes[ci];
        let mut order = order.as_mut().filter(|order| order.whole);
        for t in out[i as usize].iter() {
            if ln.targets.contains(t) {
                continue;
            }
            out[i as usize].remove(t);
            if let Some(order) = order.as_mut() {
                let removed = order.ins[t as usize].remove(i);
                debug_assert!(removed, "ins mirrors out");
            }
        }
        for t in ln.targets.iter() {
            if out[i as usize].contains(t) {
                continue;
            }
            out[i as usize].push(t);
            if let Some(order) = order.as_mut() {
                // Nothing rolls an advance back: the log is a sink.
                let inserted = order.insert(out, (i, t), &mut self.scratch, ci, &mut self.undo);
                self.undo.clear();
                if !inserted {
                    return false;
                }
            }
        }
        may_blackhole[i as usize] = ln.none;
        true
    }

    /// Recompute the derived caches — dead flag, walk state — for the
    /// committed base with no pending
    /// operations. Shared by [`open`](AdmissionProbe::open) and
    /// [`advance`](AdmissionProbe::advance).
    fn reseed(&mut self) {
        self.dead = self
            .classes
            .iter()
            .any(|c| c.order.as_ref().is_some_and(|order| order.poisoned));
        if self.walks() {
            for ci in 0..self.classes.len() {
                // Violations are monotone in the edge set: if the base
                // already fails, every superset fails too.
                if !self.seed_walk(ci) {
                    self.dead = true;
                }
            }
        }
    }

    /// Evaluate one candidate; `false` means inadmissible (caller
    /// rolls back whatever the undo log recorded).
    fn eval(&mut self, op: RuleOp) -> bool {
        match op {
            RuleOp::FlipIngress => {
                if self.base.is_flipped() || self.flip_pending {
                    // Duplicate: the candidate set is semantically
                    // unchanged, and admissible.
                    return true;
                }
                self.flip_pending = true;
                self.undo.flip_set = true;
                // The NEW class becomes relevant; build it against the
                // full current candidate set.
                let cg = self.build_class(VersionTag::NEW);
                if cg.order.as_ref().is_some_and(|order| order.poisoned) {
                    return false;
                }
                self.classes.push(cg);
                self.undo.drop_class = true;
                !self.walks() || self.seed_walk(self.classes.len() - 1)
            }
            RuleOp::Activate(v) | RuleOp::RemoveOld(v) | RuleOp::InstallTagged(v) => {
                let (Some(i), Some((_, bit))) = (self.inst.index(v), op.flag()) else {
                    // A switch outside the instance never matches any
                    // rule edge or walk step: semantically a no-op.
                    return true;
                };
                let i = i as u32;
                let before = self.flags[i as usize];
                if before & bit != 0 {
                    return true; // a duplicate
                }
                if self.certified(i, bit).is_some() {
                    return false;
                }
                self.undo.flags = Some((i, before));
                self.flags[i as usize] = before | bit;

                // Structural deltas per relevant class. Adding an
                // operation only adds exposure combinations, so the
                // per-switch edge set grows monotonically.
                (0..self.classes.len()).all(|ci| self.patch_class(ci, i, bit, before))
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
        if let Some(order) = cg.order.as_mut().filter(|order| order.whole) {
            for t in added.iter() {
                if !order.insert(&cg.out, (i, t), sc, ci, undo) {
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
        if let Some(order) = cg.order.as_mut().filter(|order| !order.whole) {
            if !order.adopt(&cg.out, sc, ci, undo) {
                return false;
            }
            for t in added.iter() {
                if !order.insert(&cg.out, (i, t), sc, ci, undo) {
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
        let order = cg.order.as_ref()?;
        self.certs[i as usize].filter(|cert| {
            cert.bit == bit
                && cert.before == self.flags[i as usize]
                && cert.base == self.base.flags_at(i as usize)
                && cert.tag == cg.tag
                && cg.out[cert.y as usize].contains(i)
                && (order.whole || cg.reach[i as usize])
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
        let whole = self.classes[0]
            .order
            .as_ref()
            .is_some_and(|order| order.whole);
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

    /// Every edge switch `i` could expose to class `tag` under the
    /// committed base plus the pending `flags`: the choice graph's
    /// [`local_nexts`].
    fn local_nexts(&self, i: u32, tag: VersionTag, flags: u8) -> LocalNexts {
        let committed = self.base.flags_at(i as usize);
        local_nexts(self.inst, (self.src, self.dst), i, tag, committed, flags)
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
        let order = if self.props.contains(Property::StrongLoopFreedom) {
            let mut order = Order::new(n, true);
            order.poisoned = !order.seed(&out, None, &mut self.scratch);
            Some(order)
        } else if walks && self.walk_props.contains(Property::RelaxedLoopFreedom) {
            Some(Order::new(n, false))
        } else {
            None
        };
        let set = |on: bool| if on { vec![false; n] } else { Vec::new() };
        ClassGraph {
            tag,
            out,
            may_blackhole,
            order,
            reach: set(walks),
            avoid: set(self.enforced_waypoint().is_some()),
        }
    }

    /// Seed class `ci`'s walk-safety state from its current adjacency
    /// by full traversal — once per round, and when a flip push builds
    /// the NEW class. The verdict is
    /// [`check_round_walks`](super::choice_graph::check_round_walks)'s;
    /// `false` means the class violates a walk property.
    fn seed_walk(&mut self, ci: usize) -> bool {
        let (src, dst) = (self.src, self.dst);
        let waypoint = self.enforced_waypoint();
        let ClassGraph {
            out,
            may_blackhole,
            order,
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
        if let Some(order) = order.as_mut().filter(|order| !order.whole) {
            if !order.seed(out, Some(reach), sc) {
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
            let order = self.classes[ci]
                .order
                .as_mut()
                .expect("ordered edge implies an order");
            let popped = order.ins[y as usize].pop();
            debug_assert_eq!(popped, Some(x));
        }
        for &(ci, node, old) in undo.ords.iter().rev() {
            let order = self.classes[ci]
                .order
                .as_mut()
                .expect("label undo implies an order");
            order.ord[node as usize] = old;
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
            let Some(order) = cg.order.as_ref().filter(|order| !order.poisoned) else {
                continue;
            };
            for (x, ts) in cg.out.iter().enumerate() {
                for y in ts.iter() {
                    let ordered = order.ins[y as usize].contains(x as u32);
                    assert_eq!(ordered, order.whole || cg.reach[x], "edge {x}->{y}");
                    assert!(
                        !ordered || order.ord[x] < order.ord[y as usize],
                        "edge {x}->{y}"
                    );
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
    ) {
        let mut probe = AdmissionProbe::open(inst, base, props);
        let mut accepted: Vec<RuleOp> = Vec::new();
        for &op in candidates {
            let mut trial = accepted.clone();
            trial.push(op);
            let expect = round_admissible(inst, base, &trial, &props);
            let got = probe.try_push(op);
            assert_eq!(
                got, expect,
                "props {props:?}: {inst} accepted={accepted:?} op={op:?}"
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
            for props in [
                PropertySet::loop_free_relaxed(),
                PropertySet::loop_free_strong(),
            ] {
                check_agreement(&i, &base, &cands, props);
            }
        }
    }

    #[test]
    fn agrees_with_waypoint() {
        let i = inst(&[1, 2, 3, 4, 5], &[1, 4, 3, 2, 5], Some(3));
        let base = ConfigState::initial(&i);
        let cands: Vec<RuleOp> = (1..5).map(|v| RuleOp::Activate(DpId(v))).collect();
        check_agreement(&i, &base, &cands, PropertySet::transiently_secure());
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
            check_agreement(&i, &base, &cands, props);
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
        let mut probe = AdmissionProbe::open(&i, &base, props);
        assert!(probe.try_push(RuleOp::Activate(DpId(2))));
        assert!(!probe.try_push(RuleOp::Activate(DpId(3)))); // SLF cycle with 2
        let mut fresh = AdmissionProbe::open(&i, &base, props);
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
        for props in [PropertySet::loop_free_relaxed(), PropertySet::all()] {
            check_agreement(&i, &base, &cands, props);
        }
    }

    #[test]
    fn duplicate_and_foreign_ops_are_noops() {
        let i = inst(&[1, 2, 3], &[1, 2, 3], None);
        let base = ConfigState::initial(&i);
        let props = PropertySet::loop_free_relaxed();
        let mut probe = AdmissionProbe::open(&i, &base, props);
        assert!(probe.try_push(RuleOp::Activate(DpId(1))));
        assert!(probe.try_push(RuleOp::Activate(DpId(1)))); // duplicate
        assert!(probe.try_push(RuleOp::Activate(DpId(99)))); // not a participant
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
            let mut base = ConfigState::initial(&i);
            let mut session = AdmissionProbe::open(&i, &base, props);
            let mut pending: Vec<u64> = (1..n).collect();
            pending.sort_by_key(|&v| std::cmp::Reverse(i.new_position(DpId(v)).unwrap_or(0)));
            let mut guard = 0;
            while !pending.is_empty() {
                guard += 1;
                assert!(guard <= 2 * n, "schedule did not converge");
                let mut fresh = AdmissionProbe::open(&i, &base, props);
                for &v in &pending {
                    let op = RuleOp::Activate(DpId(v));
                    assert_eq!(
                        session.try_push(op),
                        fresh.try_push(op),
                        "round {guard} candidate {v}"
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

    /// Cross-round with externally decided rounds: `advance` must
    /// leave the session indistinguishable from a fresh open even when
    /// the committed ops were never probed through this session.
    #[test]
    fn advance_by_external_ops_matches_fresh_session() {
        let mut rng = DetRng::new(0xa11);
        for trial in 0..15 {
            let pair = sdn_topo::gen::random_permutation(9, &mut rng);
            let i = UpdateInstance::new(pair.old, pair.new, None).unwrap();
            let props = PropertySet::loop_free_relaxed();
            let base0 = ConfigState::initial(&i);
            let mut session = AdmissionProbe::open(&i, &base0, props);
            // Commit two externally-chosen rounds without probing.
            let mut base = base0.clone();
            for round in [
                vec![RuleOp::Activate(DpId(2)), RuleOp::Activate(DpId(5))],
                vec![RuleOp::Activate(DpId(3)), RuleOp::RemoveOld(DpId(4))],
            ] {
                session.advance(&round);
                base.apply_all(&round);
            }
            let mut fresh = AdmissionProbe::open(&i, &base, props);
            for v in 1..=9u64 {
                let op = RuleOp::Activate(DpId(v));
                assert_eq!(
                    session.try_push(op),
                    fresh.try_push(op),
                    "trial {trial} candidate {v} after external advance"
                );
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
        let mut session = AdmissionProbe::open(&i, &base0, props);
        let bad_round = [RuleOp::Activate(DpId(3))];
        session.advance(&bad_round);
        let mut base = base0.clone();
        base.apply_all(&bad_round);
        let mut fresh = AdmissionProbe::open(&i, &base, props);
        for v in [1u64, 2] {
            let op = RuleOp::Activate(DpId(v));
            assert_eq!(session.try_push(op), fresh.try_push(op), "on cyclic base");
        }
        // Healing round: activating 2 removes its old rule edge.
        let heal = [RuleOp::Activate(DpId(2))];
        session.advance(&heal);
        base.apply_all(&heal);
        let mut fresh = AdmissionProbe::open(&i, &base, props);
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
            let probe = AdmissionProbe::open(&i, &base, PropertySet::all());
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
                        // a stamped packet leaves the ingress by its
                        // new rule only (the SLF graphs keep the
                        // untagged edges of an ingress no rule points at)
                        reference = BTreeSet::from([i.new_next(v)]);
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
    fn two_way_order_matches_naive_cycle_check() {
        // Random edge insertions over a small node set (at most two
        // successors and two predecessors per node, like a class
        // graph): the order must accept exactly the edges that keep
        // the graph acyclic, and leave no trace of the ones it refuses.
        let mut rng = DetRng::new(42);
        for trial in 0..50 {
            let n = 8usize;
            let mut out = vec![Adj::default(); n];
            let mut order = Order::new(n, true);
            let mut sc = Scratch::new(n);
            let mut undo = Undo::default();
            let mut naive: Vec<Vec<u32>> = vec![Vec::new(); n];
            for _ in 0..20 {
                let x = rng.index(n) as u32;
                let y = rng.index(n) as u32;
                let indeg = naive.iter().filter(|ts| ts.contains(&y)).count();
                if x == y || out[x as usize].contains(y) || out[x as usize].len() == 2 || indeg == 2
                {
                    continue;
                }
                out[x as usize].push(y);
                let before = (order.ord.clone(), order.ins.clone());
                undo.clear();
                let accepted = order.insert(&out, (x, y), &mut sc, 0, &mut undo);
                naive[x as usize].push(y);
                let cyclic = has_cycle(&naive);
                assert_eq!(accepted, !cyclic, "trial {trial}: edge {x}->{y}");
                if !accepted {
                    naive[x as usize].pop();
                    out[x as usize].pop();
                    assert!(before == (order.ord.clone(), order.ins.clone()));
                    assert!(undo.ords.is_empty() && undo.ordered.is_empty());
                }
                // Invariant: accepted edges respect the order.
                for (a, ts) in out.iter().enumerate() {
                    for b in ts.iter() {
                        assert!(order.ord[a] < order.ord[b as usize]);
                        assert!(order.ins[b as usize].contains(a as u32));
                    }
                }
            }
        }
    }

    /// A long run of insertions, deletions and rolled-back insertions
    /// over six nodes: labels only move one way per insertion, so the
    /// run keeps cramping gaps and respacing every label, and the
    /// order must still match a naive cycle check, keep every edge
    /// ascending, and roll a respacing back exactly.
    #[test]
    fn respacing_keeps_the_order_exact() {
        let n = 6usize;
        let mut rng = DetRng::new(0x5ace);
        let mut out = vec![Adj::default(); n];
        let mut order = Order::new(n, true);
        let mut sc = Scratch::new(n);
        let mut undo = Undo::default();
        let mut naive: Vec<Vec<u32>> = vec![Vec::new(); n];
        let (mut respaced, mut respacings_undone) = (0, 0);
        for step in 0..4000 {
            let x = rng.index(n) as u32;
            let y = rng.index(n) as u32;
            if out[x as usize].contains(y) {
                // Deleting an edge never invalidates the order.
                out[x as usize].remove(y);
                order.ins[y as usize].remove(x);
                naive[x as usize].retain(|&t| t != y);
                continue;
            }
            let indeg = naive.iter().filter(|ts| ts.contains(&y)).count();
            if x == y || out[x as usize].len() == 2 || indeg == 2 {
                continue;
            }
            out[x as usize].push(y);
            naive[x as usize].push(y);
            // (`Adj` equality would compare popped cells' stale slots.)
            let snapshot = |o: &Order| (o.ord.clone(), cells(&o.ins));
            let before = snapshot(&order);
            undo.clear();
            let accepted = order.insert(&out, (x, y), &mut sc, 0, &mut undo);
            assert_eq!(accepted, !has_cycle(&naive), "step {step}: edge {x}->{y}");
            // Only a respacing logs a label for every node.
            let respacing = undo.ords.len() >= n;
            respaced += usize::from(respacing);
            if !accepted || rng.chance(0.3) {
                for &(_, a, b) in undo.ordered.iter().rev() {
                    assert_eq!(order.ins[b as usize].pop(), Some(a));
                }
                for &(_, v, o) in undo.ords.iter().rev() {
                    order.ord[v as usize] = o;
                }
                out[x as usize].pop();
                naive[x as usize].pop();
                assert!(before == snapshot(&order), "step {step}");
                respacings_undone += usize::from(respacing);
            }
            for (a, ts) in out.iter().enumerate() {
                for b in ts.iter() {
                    assert!(order.ord[a] < order.ord[b as usize], "step {step}");
                }
            }
        }
        assert!(
            respaced > 0 && respacings_undone > 0,
            "{respaced} respacings"
        );
    }

    fn cells(adj: &[Adj]) -> Vec<Vec<u32>> {
        adj.iter().map(|a| a.as_slice().to_vec()).collect()
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
