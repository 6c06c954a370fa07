//! The metrics registry: one count per [`EventKind`], gauges and
//! fixed-bucket log₂ histograms.
//!
//! The registry is three flat arrays indexed by enum ordinal, so the
//! hot path — counting an event, `set`, `observe` — is an array store
//! with no allocation, no hashing, and no string handling. Names, help
//! text and units live in static tables consulted only at exposition
//! time; event counts are labelled by [`EventKind::name`].

use crate::event::EventKind;

/// Instantaneous gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Live transport connections.
    Connections,
}

/// `(variant, metric name, help)` — the exposition table for [`Gauge`].
pub const GAUGE_TABLE: &[(Gauge, &str, &str)] = &[(
    Gauge::Connections,
    "sdn_connections",
    "Live transport connections",
)];

/// Log₂-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Submit → commit latency, nanoseconds of virtual time.
    SubmitToCommitNs,
    /// Barrier round-trip time, nanoseconds.
    BarrierRttNs,
    /// Admission-queue depth sampled at each submit.
    QueueDepthAtSubmit,
    /// Prepare round-trips a cross-shard job needed before commit.
    PrepareRounds,
    /// Per-flow transient-violation window width, nanoseconds — the
    /// paper's headline quantity: first to last violating delivery of
    /// one injection plan.
    ViolationWindowNs,
}

/// `(variant, metric name, help)` — the exposition table for [`HistId`].
pub const HIST_TABLE: &[(HistId, &str, &str)] = &[
    (
        HistId::SubmitToCommitNs,
        "sdn_submit_to_commit_ns",
        "Submit to commit latency in virtual nanoseconds",
    ),
    (
        HistId::BarrierRttNs,
        "sdn_barrier_rtt_ns",
        "Barrier round-trip time in virtual nanoseconds",
    ),
    (
        HistId::QueueDepthAtSubmit,
        "sdn_queue_depth_at_submit",
        "Admission-queue depth sampled at each submit",
    ),
    (
        HistId::PrepareRounds,
        "sdn_xshard_prepare_rounds",
        "Prepare round-trips before a cross-shard commit",
    ),
    (
        HistId::ViolationWindowNs,
        "sdn_violation_window_ns",
        "Per-flow transient-violation window width in virtual nanoseconds",
    ),
];

/// Number of log₂ buckets: bucket `i` counts values `v` with
/// `v <= 2^i`, the last bucket is the +Inf overflow. 2⁶³ ns of
/// virtual time is ~292 years — nothing overflows in practice.
pub const BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram. `buckets[i]` counts observations in
/// `(2^(i-1), 2^i]` (bucket 0 takes 0 and 1). No allocation ever.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    /// Non-cumulative per-bucket counts; index [`BUCKETS`]-1 is the
    /// overflow bucket.
    pub buckets: [u64; BUCKETS],
    /// Sum of observed values.
    pub sum: u128,
    /// Number of observations.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one value: two integer ops and three stores.
    pub fn observe(&mut self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            // ceil(log2(v)): the bucket whose upper bound 2^idx first
            // reaches v.
            (64 - (v - 1).leading_zeros()) as usize
        };
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        self.sum += v as u128;
        self.count += 1;
    }

    /// Index of the highest non-empty bucket, if any observation
    /// exists (bounds how many `le` lines exposition emits).
    pub fn max_bucket(&self) -> Option<usize> {
        (0..BUCKETS).rev().find(|&i| self.buckets[i] > 0)
    }
}

/// The registry: one array per metric class.
#[derive(Debug, Clone)]
pub struct Registry {
    events: [u64; EventKind::ALL.len()],
    gauges: [i64; GAUGE_TABLE.len()],
    hists: [Histogram; HIST_TABLE.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            events: [0; EventKind::ALL.len()],
            gauges: [0; GAUGE_TABLE.len()],
            hists: [Histogram::default(); HIST_TABLE.len()],
        }
    }
}

impl Registry {
    /// Count one event of `kind` (done by [`crate::Obs::emit`]).
    pub(crate) fn count(&mut self, kind: EventKind) {
        self.events[kind as usize] += 1;
    }

    /// Events of `kind` emitted so far.
    pub fn events(&self, kind: EventKind) -> u64 {
        self.events[kind as usize]
    }

    /// Set a gauge.
    pub fn set(&mut self, g: Gauge, v: i64) {
        self.gauges[g as usize] = v;
    }

    /// Read a gauge.
    pub fn gauge(&self, g: Gauge) -> i64 {
        self.gauges[g as usize]
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, h: HistId, v: u64) {
        self.hists[h as usize].observe(v);
    }

    /// Read a histogram.
    pub fn hist(&self, h: HistId) -> &Histogram {
        &self.hists[h as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_upper_bounds() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(4);
        h.observe(1024);
        h.observe(1025);
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 1); // 2
        assert_eq!(h.buckets[2], 2); // 3, 4
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.buckets[11], 1); // 1025
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, (1 + 2 + 3 + 4 + 1024 + 1025) as u128);
        assert_eq!(h.max_bucket(), Some(11));
    }

    #[test]
    fn registry_round_trips() {
        let mut r = Registry::default();
        r.count(EventKind::Submit);
        r.count(EventKind::Submit);
        r.set(Gauge::Connections, 7);
        r.observe(HistId::BarrierRttNs, 500_000);
        assert_eq!(r.events(EventKind::Submit), 2);
        assert_eq!(r.gauge(Gauge::Connections), 7);
        assert_eq!(r.hist(HistId::BarrierRttNs).count, 1);
        assert_eq!(r.events(EventKind::Commit), 0);
    }

    #[test]
    fn tables_cover_every_variant_in_order() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(
                *k as usize,
                i,
                "EventKind::ALL out of order at {}",
                k.name()
            );
        }
        for (i, (g, _, _)) in GAUGE_TABLE.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, (h, _, _)) in HIST_TABLE.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }
}
