//! # sdn-obs — control-plane observability
//!
//! The paper's subject is what happens *during* an update: the
//! transient window in which asynchronously applied rules can violate
//! the waypoint policy. This crate makes that window — and the whole
//! update lifecycle around it — visible:
//!
//! * [`event`] — typed, fixed-size trace [`Event`]s with virtual-time
//!   stamps and a per-update [`SpanId`], emitted at every lifecycle
//!   edge by the runtimes, the fabric and the simulator;
//! * [`metrics`] — a [`Registry`] that counts every emitted event by
//!   [`EventKind`], holds the transport's live-connection [`Gauge`],
//!   and keeps log₂ [`Histogram`]s (submit→commit latency, barrier
//!   RTT, queue depth, prepare round-trips, and the
//!   per-flow transient-violation window width);
//! * [`recorder`] — a bounded per-shard flight-recorder [`Ring`] that
//!   dumps its last N events as structured JSON on crash recovery,
//!   quarantine, or an observed violation;
//! * [`prometheus`] — text exposition for `GET /v1/metrics` and a
//!   strict validator for tests and CI.
//!
//! Every number on the metrics page has one owner. This crate owns the
//! event counts (`sdn_events_total{kind=..}`), the histograms, the
//! connection gauge the transport sets, and the count of dumps taken
//! (`sdn_flight_dumps_total`). The runtime owns its status counters and
//! queue gauges; `sdn_ctrl::rest::metrics` appends them from a status
//! report at scrape time.
//!
//! Everything is keyed to virtual time, so a seeded chaos replay
//! reproduces event streams, metric values and dump bytes exactly.
//!
//! The entry point is [`Obs`]: a cheap cloneable handle. A *disabled*
//! handle (the default) is a `None` pointer — every call is a branch
//! and a return, which is what the E12 overhead experiment measures.

pub mod event;
pub mod metrics;
pub mod prometheus;
pub mod recorder;

pub use event::{Event, EventKind, SpanId, NO_DP, NO_SPAN};
pub use metrics::{Gauge, HistId, Histogram, Registry};
pub use recorder::{Dump, DumpReason, Ring, DEFAULT_RING};

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use sdn_types::{IdMap, SimTime};

/// Cap on spans retained for `GET /v1/trace/{job}`; the span that was
/// opened longest ago is evicted first. (Not the smallest id: shard
/// *i* numbers its jobs from `(i+1) << 32`, so id order would discard
/// the lowest shard's newest jobs before any other shard's oldest.)
const MAX_SPANS: usize = 1024;
/// Cap on events retained per span.
const MAX_SPAN_EVENTS: usize = 4096;

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    ring_cap: usize,
    rings: BTreeMap<u32, Ring>,
    spans: IdMap<u64, Vec<Event>>,
    /// Keys of `spans` in the order they were opened.
    span_order: VecDeque<u64>,
    dumps: Vec<Dump>,
}

/// The observability handle threaded through the stack.
///
/// Cloning shares the sink: a fabric clones its handle into each
/// shard (tagged with the shard id via [`Obs::for_shard`]), the
/// simulator clones it into the world, and the REST layer reads the
/// same sink for exposition. The [`Obs::disabled`] handle makes every
/// operation a no-op so instrumented code needs no `cfg` or `if`
/// guards.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<ObsInner>>>,
    shard: u32,
}

impl Obs {
    /// A live handle with the default ring capacity.
    pub fn recording() -> Self {
        Self::with_ring(DEFAULT_RING)
    }

    /// A live handle whose flight-recorder rings hold `cap` events.
    pub fn with_ring(cap: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(ObsInner {
                registry: Registry::default(),
                ring_cap: cap.max(1),
                rings: BTreeMap::new(),
                spans: IdMap::default(),
                span_order: VecDeque::new(),
                dumps: Vec::new(),
            }))),
            shard: 0,
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone that stamps `shard` on events emitted without an
    /// explicit shard tag, and dumps into that shard's ring.
    pub fn for_shard(&self, shard: u32) -> Self {
        Obs {
            inner: self.inner.clone(),
            shard,
        }
    }

    /// Record one event: count it by kind, push it into its shard's
    /// ring and, when it belongs to a span, into that span's trace.
    /// Inlined down to the enabled check, so a disabled handle costs
    /// its caller neither the call nor building the event.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.inner {
            self.record(inner, ev);
        }
    }

    fn record(&self, inner: &Mutex<ObsInner>, mut ev: Event) {
        if ev.shard == 0 {
            ev.shard = self.shard;
        }
        let mut guard = inner.lock();
        let g = &mut *guard;
        g.registry.count(ev.kind);
        let cap = g.ring_cap;
        g.rings
            .entry(ev.shard)
            .or_insert_with(|| Ring::new(cap))
            .push(ev);
        if ev.span != NO_SPAN {
            let trace = match g.spans.entry(ev.span.0) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    g.span_order.push_back(ev.span.0);
                    e.insert(Vec::new())
                }
            };
            if trace.len() < MAX_SPAN_EVENTS {
                trace.push(ev);
            }
            // the span just opened is the newest: never the one evicted
            if g.span_order.len() > MAX_SPANS {
                let oldest = g.span_order.pop_front().expect("MAX_SPANS > 0");
                g.spans.remove(&oldest);
            }
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&self, g: Gauge, v: i64) {
        if let Some(i) = &self.inner {
            i.lock().registry.set(g, v);
        }
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&self, h: HistId, v: u64) {
        if let Some(i) = &self.inner {
            i.lock().registry.observe(h, v);
        }
    }

    /// Take a flight-recorder dump of `shard`'s ring. The dump is
    /// retained (see [`Obs::dumps`]). Returns the JSON,
    /// or `None` when disabled or the ring has never seen an event.
    pub fn dump_shard(&self, reason: DumpReason, shard: u32, at: SimTime) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let mut g = inner.lock();
        let json = {
            let ring = g.rings.get(&shard)?;
            if ring.is_empty() {
                return None;
            }
            recorder::render_dump(reason, shard, at, ring)
        };
        g.dumps.push(Dump {
            reason,
            shard,
            at,
            json: json.clone(),
        });
        Some(json)
    }

    /// [`Obs::dump_shard`] against this handle's own shard tag.
    pub fn dump(&self, reason: DumpReason, at: SimTime) -> Option<String> {
        self.dump_shard(reason, self.shard, at)
    }

    /// All dumps taken so far, in trigger order.
    pub fn dumps(&self) -> Vec<Dump> {
        match &self.inner {
            Some(i) => i.lock().dumps.clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of the metrics registry (disabled handles answer
    /// the empty registry).
    pub fn registry(&self) -> Registry {
        match &self.inner {
            Some(i) => i.lock().registry.clone(),
            None => Registry::default(),
        }
    }

    /// Prometheus text page: the registry, the number of dumps taken,
    /// then caller-owned samples (name, help, type, value) — the
    /// runtime's status counters and gauges ride in here.
    pub fn prometheus_with(&self, extras: &[(&str, &str, &str, u64)]) -> String {
        let (registry, dumps) = match &self.inner {
            Some(i) => {
                let g = i.lock();
                (g.registry.clone(), g.dumps.len() as u64)
            }
            None => (Registry::default(), 0),
        };
        let help = "Flight-recorder dumps taken";
        let mut all = vec![("sdn_flight_dumps_total", help, "counter", dumps)];
        all.extend_from_slice(extras);
        prometheus::render_with(&registry, &all)
    }

    /// Prometheus text page of this crate's numbers alone.
    pub fn prometheus(&self) -> String {
        self.prometheus_with(&[])
    }

    /// The raw event trace of one job, in emission order.
    pub fn span_events(&self, job: u64) -> Vec<Event> {
        match &self.inner {
            Some(i) => i.lock().spans.get(&job).cloned().unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// The span tree of one job as JSON: job-level lifecycle events
    /// at the root, round-level events grouped beneath their round.
    /// `None` when the job has no recorded events.
    pub fn trace_json(&self, job: u64) -> Option<String> {
        let evs = self.span_events(job);
        if evs.is_empty() {
            return None;
        }
        let round_level = |k: EventKind| {
            matches!(
                k,
                EventKind::RoundDispatch
                    | EventKind::FlowModSend
                    | EventKind::FlowModAck
                    | EventKind::BarrierFence
                    | EventKind::RoundCommit
            )
        };
        let mut out = String::with_capacity(128 + evs.len() * 96);
        out.push_str("{\"job\":");
        out.push_str(&job.to_string());
        out.push_str(",\"first_ns\":");
        out.push_str(&evs.first().unwrap().at.as_nanos().to_string());
        out.push_str(",\"last_ns\":");
        out.push_str(&evs.last().unwrap().at.as_nanos().to_string());
        out.push_str(",\"lifecycle\":[");
        let mut first = true;
        for ev in evs.iter().filter(|e| !round_level(e.kind)) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev.to_json());
        }
        out.push_str("],\"rounds\":[");
        let mut rounds: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for ev in evs.iter().filter(|e| round_level(e.kind)) {
            rounds.entry(ev.round).or_default().push(ev);
        }
        for (i, (round, revs)) in rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"round\":");
            out.push_str(&round.to_string());
            out.push_str(",\"events\":[");
            for (j, ev) in revs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&ev.to_json());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_types::SimDuration;

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(n)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.emit(Event::new(at(1), EventKind::Submit).span(1));
        obs.observe(HistId::BarrierRttNs, 5);
        assert!(!obs.is_enabled());
        assert!(obs.dump(DumpReason::Quarantine, at(2)).is_none());
        assert!(obs.trace_json(1).is_none());
        assert_eq!(obs.registry().events(EventKind::Submit), 0);
    }

    #[test]
    fn clones_share_one_sink() {
        let obs = Obs::recording();
        let shard2 = obs.for_shard(2);
        shard2.emit(Event::new(at(1), EventKind::Submit).span(9));
        shard2.emit(Event::new(at(2), EventKind::Submit).span(10));
        assert_eq!(obs.registry().events(EventKind::Submit), 2);
        let evs = obs.span_events(9);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].shard, 2, "shard tag stamped on emit");
        assert!(shard2.dump(DumpReason::CrashRecovery, at(5)).is_some());
        assert!(
            obs.dump(DumpReason::CrashRecovery, at(5)).is_none(),
            "shard 0 ring empty"
        );
        assert_eq!(obs.dumps().len(), 1);
        let page = obs.prometheus();
        prometheus::validate(&page).unwrap();
        assert!(page.contains("sdn_flight_dumps_total 1\n"));
        assert!(page.contains("sdn_events_total{kind=\"submit\"} 2\n"));
    }

    #[test]
    fn trace_groups_rounds() {
        let obs = Obs::recording();
        obs.emit(Event::new(at(1), EventKind::Submit).span(4));
        obs.emit(Event::new(at(2), EventKind::Admit).span(4));
        obs.emit(
            Event::new(at(3), EventKind::RoundDispatch)
                .span(4)
                .round(0)
                .aux(2),
        );
        obs.emit(
            Event::new(at(4), EventKind::FlowModSend)
                .span(4)
                .round(0)
                .dp(7),
        );
        obs.emit(
            Event::new(at(9), EventKind::BarrierFence)
                .span(4)
                .round(0)
                .dp(7)
                .aux(5),
        );
        obs.emit(Event::new(at(9), EventKind::RoundCommit).span(4).round(0));
        obs.emit(Event::new(at(12), EventKind::Commit).span(4).aux(11));
        let tree = obs.trace_json(4).unwrap();
        assert!(tree.starts_with("{\"job\":4,"));
        assert!(tree.contains("\"lifecycle\":[{\"at_ns\":1,\"kind\":\"submit\""));
        assert!(tree.contains("\"rounds\":[{\"round\":0,"));
        assert!(tree.contains("\"kind\":\"barrier_fence\""));
        assert!(obs.trace_json(5).is_none());
    }

    #[test]
    fn span_eviction_keeps_newest() {
        // Job ids as a 4-shard fabric carves them: shard i counts up
        // from (i+1) << 32, the shards taking turns.
        let job = |shard: u64, n: u64| ((shard + 1) << 32) + n;
        let obs = Obs::recording();
        let per_shard = MAX_SPANS as u64; // 4x the cap in total
        for n in 0..per_shard {
            for shard in 0..4 {
                obs.emit(Event::new(at(n), EventKind::Submit).span(job(shard, n)));
            }
        }
        for shard in 0..4 {
            assert_eq!(
                obs.span_events(job(shard, per_shard - 1)).len(),
                1,
                "newest job of shard {shard} is traceable"
            );
            assert!(
                obs.span_events(job(shard, 0)).is_empty(),
                "oldest job of shard {shard} was evicted"
            );
        }
        // A late event of a live span does not count as a new span.
        obs.emit(Event::new(at(9), EventKind::Commit).span(job(0, per_shard - 1)));
        assert_eq!(obs.span_events(job(0, per_shard - 1)).len(), 2);
        assert_eq!(obs.span_events(job(3, per_shard - 1)).len(), 1);
    }

    #[test]
    fn a_panic_under_the_sink_lock_does_not_poison_it() {
        let obs = Obs::recording();
        let held = obs.for_shard(3);
        let died = std::thread::spawn(move || {
            let _sink = held.inner.as_ref().expect("recording").lock();
            panic!("an emitter dies holding the sink");
        })
        .join();
        assert!(died.is_err());
        // every clone, on every shard, still works from another thread
        obs.emit(Event::new(at(1), EventKind::Submit).span(1));
        assert_eq!(obs.registry().events(EventKind::Submit), 1);
        assert!(obs.dump(DumpReason::Quarantine, at(2)).is_some());
    }
}
