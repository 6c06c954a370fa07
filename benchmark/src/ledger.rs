//! The driver-thread cost ledger and the span trace.
//!
//! Every call the driver makes into the program goes through
//! [`Ledger::time`], tagged with its [`Stage`]. Untraced, that is a
//! plain call. Traced, the ledger records wall time, call count and
//! the calling thread's allocation deltas per stage, and appends a
//! span `{name, start, end, parent, update}` to an in-memory trace
//! that is written out when the workload ends. Whatever driver time
//! no stage claims is `driver.other`; the share the stages do claim is
//! `ledger.coverage_pct`.

use std::time::Instant;

use crate::alloc;

/// A boundary between the driver and one layer of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// `rest::router::route` + `UpdateRequest::parse`.
    RouteParse,
    /// `UpdateRequest::to_instance`.
    ToInstance,
    /// `UpdateScheduler::schedule`.
    Schedule,
    /// `checker::verify_schedule`.
    Verify,
    /// `compile::compile_schedule`.
    Lower,
    /// `to_submission` + `RuntimeHandle::submit_request`.
    Submit,
    /// `rest::response::submit_response`.
    Respond,
    /// `RuntimeHandle::poll`.
    Poll,
    /// `RuntimeHandle::on_message`.
    OnMessage,
    /// `LiveTransport::send`.
    Send,
    /// `LiveTransport::recv_timeout` + `try_recv` (mostly waiting).
    RecvWait,
}

/// Stages in ledger order; `driver.other` follows them in reports.
pub const STAGES: [Stage; 11] = [
    Stage::RouteParse,
    Stage::ToInstance,
    Stage::Schedule,
    Stage::Verify,
    Stage::Lower,
    Stage::Submit,
    Stage::Respond,
    Stage::Poll,
    Stage::OnMessage,
    Stage::Send,
    Stage::RecvWait,
];

/// Ledger row of the driver time no stage claims.
pub const OTHER: &str = "driver.other";

impl Stage {
    /// `<layer>.<call>`: the prefix of the stage's four metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::RouteParse => "rest.route_parse",
            Stage::ToInstance => "rest.to_instance",
            Stage::Schedule => "core.schedule",
            Stage::Verify => "core.verify",
            Stage::Lower => "compile.lower",
            Stage::Submit => "runtime.submit",
            Stage::Respond => "rest.respond",
            Stage::Poll => "runtime.poll",
            Stage::OnMessage => "runtime.on_message",
            Stage::Send => "channel.send",
            Stage::RecvWait => "channel.recv_wait",
        }
    }
}

/// What one stage cost over the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Wall time inside the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Allocator calls on the driver thread inside them.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
}

/// One recorded interval. Indices refer into the same trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `driver.iteration`, `update`, or an `update.*`
    /// child derived from the update's `UpdateReport`.
    pub name: &'static str,
    /// Nanoseconds since the pass began.
    pub start_ns: u64,
    /// Nanoseconds since the pass began.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The update it belongs to (spans of one update share this).
    pub update: Option<u64>,
}

/// Most spans kept per traced pass (about 13 MB of JSON); the
/// aggregates keep counting past it, only the written trace is
/// truncated (and says so).
const SPAN_CAP: usize = 100_000;

/// The ledger of one pass.
pub struct Ledger {
    traced: bool,
    epoch: Instant,
    costs: [Cost; STAGES.len()],
    spans: Vec<Span>,
    dropped_spans: u64,
    iteration: Option<usize>,
    started: Instant,
}

impl Ledger {
    /// A ledger whose span clock starts at `epoch`.
    pub fn new(traced: bool, epoch: Instant) -> Self {
        let mut spans = Vec::new();
        if traced {
            // touch every page now: a first-touch fault in the window
            // would be booked to no stage
            spans.resize(
                SPAN_CAP,
                Span {
                    name: "",
                    start_ns: 0,
                    end_ns: 0,
                    parent: None,
                    update: None,
                },
            );
            spans.clear();
        }
        Ledger {
            traced,
            epoch,
            costs: [Cost::default(); STAGES.len()],
            spans,
            dropped_spans: 0,
            iteration: None,
            started: epoch,
        }
    }

    /// When the most recent [`Ledger::time`] call began: the driver's
    /// clock reading for bookkeeping that must not add readings of
    /// its own.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Whether this pass records anything.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
            Some(self.spans.len() - 1)
        } else {
            self.dropped_spans += 1;
            None
        }
    }

    /// Open the span of one driver-loop iteration; stage spans until
    /// [`Ledger::end_iteration`] are its children.
    pub fn begin_iteration(&mut self) {
        if self.traced {
            let now = self.ns(Instant::now());
            self.iteration = self.push(Span {
                name: "driver.iteration",
                start_ns: now,
                end_ns: now,
                parent: None,
                update: None,
            });
        }
    }

    /// Close the current iteration span.
    pub fn end_iteration(&mut self) {
        if let Some(i) = self.iteration.take() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Run `f` as one call of `stage`, on behalf of `update` when the
    /// call belongs to a single update. `f` receives the instant the
    /// call began, which doubles as the driver's `now`.
    pub fn time<T>(
        &mut self,
        stage: Stage,
        update: Option<u64>,
        f: impl FnOnce(Instant) -> T,
    ) -> T {
        let start = Instant::now();
        self.started = start;
        if !self.traced {
            return f(start);
        }
        let (calls0, bytes0) = alloc::thread_counts();
        let out = f(start);
        let end = Instant::now();
        let (calls1, bytes1) = alloc::thread_counts();
        let cost = &mut self.costs[stage as usize];
        cost.ns += end.duration_since(start).as_nanos() as u64;
        cost.calls += 1;
        cost.allocs += calls1 - calls0;
        cost.alloc_bytes += bytes1 - bytes0;
        let span = Span {
            name: stage.name(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.iteration,
            update,
        };
        self.push(span);
        out
    }

    /// Record the root span of one update (request bytes handed to
    /// `route` → report harvested) and return its index, under which
    /// the caller hangs the children derived from the report.
    pub fn update_span(&mut self, update: u64, start: Instant, end: Instant) -> Option<usize> {
        if !self.traced {
            return None;
        }
        let span = Span {
            name: "update",
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            update: Some(update),
        };
        self.push(span)
    }

    /// Record a child of an update's root span, in pass-relative
    /// nanoseconds (the runtime's `SimTime` is exactly that clock).
    pub fn child_span(
        &mut self,
        name: &'static str,
        parent: usize,
        update: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            update: Some(update),
        });
    }

    /// Forget the warm-up: costs and the trace restart with the
    /// measured window, so both describe the steady state.
    pub fn begin_window(&mut self) {
        self.costs = [Cost::default(); STAGES.len()];
        self.spans.clear();
        self.dropped_spans = 0;
        self.iteration = None;
    }

    /// What `stage` has cost since the window began.
    pub fn cost(&self, stage: Stage) -> Cost {
        self.costs[stage as usize]
    }

    /// Sum over every stage since the window began.
    pub fn total(&self) -> Cost {
        self.costs.iter().fold(Cost::default(), |a, c| Cost {
            ns: a.ns + c.ns,
            calls: a.calls + c.calls,
            allocs: a.allocs + c.allocs,
            alloc_bytes: a.alloc_bytes + c.alloc_bytes,
        })
    }

    /// The recorded trace as a JSON document.
    pub fn trace_json(&self, workload: &str, seed: u64) -> String {
        let own = self_times(&self.spans);
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"spans\":[\n",
            self.dropped_spans
        ));
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"update\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.update),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its children cover (overlapping children counted once,
/// children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            update: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first: union is 10..50
            span(90, 140, Some(0)), // sticks out: clipped to 90..100
            span(12, 18, Some(1)),  // grandchild: only its parent pays
            span(200, 260, None),   // childless
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 50, 6, 60]);
    }

    #[test]
    fn untraced_ledger_is_a_plain_call() {
        let mut l = Ledger::new(false, Instant::now());
        l.begin_iteration();
        assert_eq!(l.time(Stage::Poll, None, |_| 41 + 1), 42);
        l.end_iteration();
        assert_eq!(l.total(), Cost::default());
        assert!(l.spans.is_empty());
        assert_eq!(l.update_span(1, Instant::now(), Instant::now()), None);
    }

    #[test]
    fn traced_ledger_books_time_calls_and_nesting() {
        let l_epoch = Instant::now();
        let mut l = Ledger::new(true, l_epoch);
        l.begin_iteration();
        l.time(Stage::Send, Some(7), |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        l.time(Stage::Send, None, |at| assert!(at >= l_epoch));
        l.end_iteration();
        let c = l.cost(Stage::Send);
        assert_eq!(c.calls, 2);
        assert!(c.ns >= 2_000_000);
        assert_eq!(l.spans.len(), 3);
        assert_eq!(l.spans[1].parent, Some(0));
        assert_eq!(l.spans[1].update, Some(7));
        assert!(l.spans[0].end_ns >= l.spans[2].end_ns);
        assert!(l.trace_json("w", 1).contains("\"name\":\"channel.send\""));
        l.begin_window();
        assert_eq!(l.total(), Cost::default());
        assert!(l.spans.is_empty());
    }
}
