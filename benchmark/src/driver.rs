//! The live controller loop the tree lacks, supplied as driver code
//! and pinned here: one thread, closed loop, one client per flow,
//! zero think time.
//!
//! ```text
//! now = SimTime(ns since the pass began)            wall clock 1:1
//! per ready client:  route("POST","/v1/update") → UpdateRequest::parse(body)
//!                    → to_instance() → <algorithm>.schedule() → verify_schedule()
//!                    → compile_schedule() → label "c<client>#<seq>"
//!                    → fabric.submit_request(to_submission(..)) → submit_response()
//! then:              fabric.poll(now) → transport.send each output
//!                    recv_timeout(1 ms), then try_recv up to 64:
//!                        fabric.on_message() → send outputs
//!                    harvest fabric.reports()[cursor..] by label
//! ```
//!
//! Every call into the program goes through the [`Ledger`]; the only
//! other threads in the process are the transport's poller and its
//! single worker.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

use sdn_channel::{
    ChannelStats, EventLoopConfig, EventLoopTransport, FromSwitch, LiveTransport, Transport,
};
use sdn_ctrl::compile::{compile_schedule, initial_flowmods, CompiledUpdate};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::rest::metrics::metrics_response;
use sdn_ctrl::rest::response::submit_response;
use sdn_ctrl::rest::router::{route, Endpoint, Route};
use sdn_ctrl::rest::status::status_response;
use sdn_ctrl::rest::trace::trace_response;
use sdn_ctrl::runtime::{FabricConfig, FabricCoordinator, RuntimeConfig, RuntimeHandle};
use sdn_ctrl::{CtrlOutput, UpdateReport, UpdateRequest};
use sdn_obs::{DumpReason, Obs};
use sdn_openflow::{Envelope, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_types::{DpId, SimTime, Xid};
use update_core::{verify_schedule, Peacock, PropertySet, SlfGreedy, UpdateScheduler, WayUp};

use crate::alloc;
use crate::gate;
use crate::ledger::{Ledger, Stage};
use crate::procfs;
use crate::workload::{Spec, Workload};

/// Longest the drain after a window may take before what is still in
/// flight counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Longest a warm-up may take (it is sized for about half a second).
const WARMUP_DEADLINE: Duration = Duration::from_secs(30);
/// How often an observed workload scrapes its REST read endpoints.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Envelopes captured per direction for the isolated replays.
const SAMPLE_CAP: usize = 4096;

/// `c<client>#<seq>`: the label that ties an `UpdateReport` (which
/// carries no job id) back to the client that submitted it.
pub fn label(client: usize, seq: u64) -> String {
    format!("c{client}#{seq}")
}

/// Inverse of [`label`].
pub fn parse_label(label: &str) -> Option<(usize, u64)> {
    let (client, seq) = label.strip_prefix('c')?.split_once('#')?;
    Some((client.parse().ok()?, seq.parse().ok()?))
}

/// The runtime's clock: nanoseconds since the pass began, wall clock
/// 1:1, read off the ledger's own stamp so no call pays for two.
fn sim_time(epoch: Instant, at: Instant) -> SimTime {
    SimTime(at.duration_since(epoch).as_nanos() as u64)
}

/// Hasher for the barrier table's `(dp << 32) | xid` keys: they are
/// the harness's own numbers, not outside input, and SipHash on every
/// barrier would be booked to `driver.other`.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are single u64s");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn barrier_key(dp: DpId, xid: Xid) -> u64 {
    (dp.0 << 32) | u64::from(xid.0)
}

/// What went wrong in a pass: every failure counted, the first few
/// kept for the operator.
#[derive(Debug, Default)]
pub struct Failures {
    /// Refused, rejected, failed, undrained, wrongly answered, plus
    /// the correctness gate's mismatches.
    pub count: u64,
    /// The first eight, described.
    pub first: Vec<String>,
}

impl Failures {
    fn record(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }
}

/// One closed-loop client.
#[derive(Debug, Clone)]
struct Client {
    /// Flips submitted so far; also selects the next request body.
    seq: u64,
    /// Flips committed so far.
    commits: u64,
    /// When the in-flight request's bytes were handed to `route`.
    sent_at: Instant,
    /// Harness-wide id of the in-flight update (trace spans share it).
    update: u64,
    /// FlowMods the in-flight update compiled to.
    flowmods: u64,
    in_flight: bool,
}

/// Process- and runtime-level counters snapshotted at both ends of
/// the measured window.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    at: Instant,
    process_cpu_us: u64,
    driver_cpu_us: u64,
    rss_bytes: u64,
    vol_ctx: u64,
    live_heap: i64,
    driver_allocs: (u64, u64),
    retransmissions: u64,
    journal_len: usize,
    channel: ChannelStats,
    obs_events: u64,
}

/// Events ever pushed into the obs rings (shards `0..shards`, then
/// the coordinator's). `Obs` exposes no event total, but a flight-
/// recorder dump reports what its ring evicted (`dropped`) beside what
/// it still holds, and the two add up to exactly that.
fn obs_events(obs: &Obs, shards: u32, at: SimTime) -> u64 {
    (0..=shards)
        .filter_map(|shard| obs.dump_shard(DumpReason::Quarantine, shard, at))
        .map(|json| {
            let dropped = json
                .split_once("\"dropped\":")
                .map(|(_, rest)| rest.chars().take_while(char::is_ascii_digit).collect())
                .and_then(|digits: String| digits.parse::<u64>().ok())
                .expect("a dump reports its evictions");
            dropped + json.matches("\"kind\":").count() as u64
        })
        .sum()
}

/// Everything the traced pass counts beyond the ledger. Filled only
/// when tracing; lives in the outcome so `report` can turn it into
/// the per-layer metrics.
#[derive(Debug, Default)]
pub struct Counters {
    /// Driver-loop iterations in the window.
    pub iterations: u64,
    /// Σ in-flight updates sampled once per iteration.
    pub inflight_sum: u64,
    /// Σ `active_count()` sampled once per iteration.
    pub active_sum: u64,
    /// Envelopes handed to `send` in the window.
    pub sends: u64,
    /// Messages received from switches in the window.
    pub replies: u64,
    /// BarrierRequest→BarrierReply round trips matched by (dp, xid), µs.
    pub barrier_rtt_us: Vec<f64>,
    /// Per committed update: `started − submitted`, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Per round of every committed update: `completed − started`, ms.
    pub round_ms: Vec<f64>,
    /// Per committed update: Σ gaps between consecutive rounds, ms
    /// (the cleanup grace, where the schedule has a cleanup round).
    pub grace_wait_ms: Vec<f64>,
    /// Σ rounds over committed updates.
    pub rounds: u64,
    /// Σ FlowMods over committed updates.
    pub flowmods: u64,
    /// Accepted submissions, and how many of them were cross-shard.
    pub tickets: u64,
    /// Accepted submissions that took the two-phase path.
    pub xshard_tickets: u64,
    /// Obs events recorded in the window (observed workloads).
    pub obs_events: u64,
    /// Retransmissions in the window (`RuntimeStats`).
    pub retransmissions: u64,
    /// Journal records appended in the window (`StatusReport`).
    pub journal_records: u64,
    /// Transport counters over the window.
    pub channel: ChannelStats,
    /// Live heap bytes gained over the window (counting allocator).
    pub heap_growth: i64,
    /// Driver-thread CPU over the window, µs.
    pub driver_cpu_us: u64,
    /// Voluntary context switches, all threads, over the window.
    pub vol_ctx: u64,
    /// Driver-thread allocator calls and bytes over the window.
    pub driver_allocs: (u64, u64),
    /// Envelopes sent, captured for the isolated replays.
    pub sent_sample: Vec<(DpId, Envelope)>,
    /// Envelopes received, captured for the isolated replays.
    pub recv_sample: Vec<(DpId, Envelope)>,
    /// One compiled update of this workload (journal replay input).
    pub compiled_sample: Option<CompiledUpdate>,
}

/// What one pass measured.
pub struct Outcome {
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Updates committed inside the window.
    pub commits: u64,
    /// Their request-bytes → report-harvested latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Process CPU (all threads) over the window, µs.
    pub cpu_us: u64,
    /// VmRSS at window end minus at window start, bytes.
    pub rss_growth_b: i64,
    /// Topology + tables + transport + bodies + warm-up, seconds.
    pub setup_s: f64,
    /// Peak resident set size at the end of the pass, bytes.
    pub peak_rss_b: u64,
    /// Requests handed to `route` over the whole pass.
    pub attempted: u64,
    /// Everything that failed over the whole pass.
    pub failures: Failures,
    /// REST read-endpoint latencies (observed workloads), µs.
    pub status_us: Vec<f64>,
    /// `GET /v1/metrics` latencies, µs.
    pub metrics_us: Vec<f64>,
    /// `GET /v1/trace/{job}` latencies, µs.
    pub trace_us: Vec<f64>,
    /// The cost ledger (all zero when untraced).
    pub ledger: Ledger,
    /// Traced-pass counters (default when untraced).
    pub counters: Counters,
    /// Final switch states, for the isolated replays.
    pub switches: Vec<SoftSwitch>,
}

/// One pass of one workload: set-up, warm-up, window, drain, gate.
pub struct Driver {
    wl: Workload,
    fabric: Box<dyn RuntimeHandle>,
    transport: EventLoopTransport,
    obs: Obs,
    schedulers: (WayUp, SlfGreedy, Peacock),
    epoch: Instant,
    ledger: Ledger,
    clients: Vec<Client>,
    ready: VecDeque<usize>,
    in_flight: usize,
    cursor: usize,
    next_update: u64,
    last_job: u64,
    next_scrape: Instant,
    measuring: bool,
    commits_total: u64,
    commits: u64,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Failures,
    status_us: Vec<f64>,
    metrics_us: Vec<f64>,
    trace_us: Vec<f64>,
    counters: Counters,
    barrier_sent: HashMap<u64, Instant, BuildHasherDefault<KeyHasher>>,
}

/// Highest port number each switch uses (links and host ports).
fn port_counts(wl: &Workload) -> HashMap<DpId, u32> {
    let mut ports: HashMap<DpId, u32> = HashMap::new();
    let mut bump = |dp: DpId, port: u32| {
        let p = ports.entry(dp).or_insert(0);
        *p = (*p).max(port);
    };
    for l in wl.topo.links() {
        bump(l.a, l.port_a.raw());
        bump(l.b, l.port_b.raw());
    }
    for h in wl.topo.hosts() {
        bump(h.attached_to, h.port.raw());
    }
    ports
}

/// One switch per topology switch, holding every flow's old-route
/// rules, with the fabric told of each rule so its intended tables
/// start out equal to the installed ones.
pub fn install_initial(wl: &Workload, fabric: &mut dyn RuntimeHandle) -> Vec<SoftSwitch> {
    let ports = port_counts(wl);
    let mut switches: Vec<SoftSwitch> = wl
        .topo
        .switch_ids()
        .map(|dp| SoftSwitch::new(dp, ports.get(&dp).copied().unwrap_or(0)))
        .collect();
    let index = gate::index_by_dpid(&switches);
    let mut xid = Xid(0xffff_0000);
    for flow in &wl.flows {
        let mods = initial_flowmods(&wl.topo, &flow.pair.old, &flow.hosts)
            .expect("generated routes exist in the generated topology");
        for (dp, msg) in mods {
            let replies = switches[index[&dp]].handle_control(Envelope::new(xid, msg.clone()));
            assert!(replies.is_empty(), "a FlowMod is never acknowledged");
            fabric.note_installed(dp, &msg);
            xid = xid.next();
        }
    }
    switches
}

impl Driver {
    /// Build the workload, the fabric and the transport, and install
    /// the initial tables. Everything here, plus the warm-up, is what
    /// `setup_s` reports.
    pub fn set_up(spec: Spec, seed: u64, traced: bool) -> Driver {
        let epoch = Instant::now();
        let wl = Workload::generate(spec, seed);
        let clients = wl.flows.len();
        let runtime = RuntimeConfig {
            exec: ExecConfig {
                flowmod_acks: spec.flowmod_acks,
                ..ExecConfig::default()
            },
            // admission never refuses: a refusal is a failure
            max_active: clients,
            queue_capacity: 2 * clients,
            ..RuntimeConfig::default()
        };
        let mut fabric: Box<dyn RuntimeHandle> = Box::new(FabricCoordinator::with_assignment(
            FabricConfig {
                shards: spec.shards,
                runtime,
                journal: spec.journal,
                xqueue_capacity: 2 * clients,
                ..FabricConfig::default()
            },
            wl.assign.clone(),
        ));

        let switches = install_initial(&wl, fabric.as_mut());

        let transport = EventLoopTransport::spawn_with(
            switches,
            spec.channel,
            seed,
            EventLoopConfig {
                workers: 1,
                time_scale: spec.time_scale,
            },
        );
        let obs = if spec.observed {
            Obs::recording()
        } else {
            Obs::disabled()
        };
        if spec.observed {
            fabric.attach_obs(obs.clone());
            transport.attach_obs(obs.clone());
        }

        Driver {
            fabric,
            transport,
            obs,
            schedulers: (WayUp::default(), SlfGreedy::default(), Peacock::default()),
            epoch,
            ledger: Ledger::new(traced, epoch),
            clients: vec![
                Client {
                    seq: 0,
                    commits: 0,
                    sent_at: epoch,
                    update: 0,
                    flowmods: 0,
                    in_flight: false,
                };
                clients
            ],
            ready: (0..clients).collect(),
            in_flight: 0,
            cursor: 0,
            next_update: 0,
            last_job: 0,
            next_scrape: epoch + SCRAPE_EVERY,
            measuring: false,
            commits_total: 0,
            commits: 0,
            latencies_ms: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
            status_us: Vec::new(),
            metrics_us: Vec::new(),
            trace_us: Vec::new(),
            counters: Counters::default(),
            barrier_sent: HashMap::with_capacity_and_hasher(
                if traced { 1 << 14 } else { 0 },
                BuildHasherDefault::default(),
            ),
            wl,
        }
    }

    fn fail(&mut self, what: String) {
        self.failures.record(what);
    }

    /// Turn one client's next request body into a submitted update.
    /// A client whose request fails at any step is retired, so a
    /// broken program yields a bounded failure count, not a spin.
    fn submit(&mut self, c: usize) {
        let seq = self.clients[c].seq;
        let update = self.next_update;
        self.next_update += 1;
        self.attempted += 1;
        let flow = &self.wl.flows[c];
        let body = flow.bodies[(seq % 2) as usize].as_str();
        let id = Some(update);

        let parsed = self.ledger.time(Stage::RouteParse, id, |_| {
            match route("POST", "/v1/update") {
                Route::Endpoint(Endpoint::Submit) => {
                    UpdateRequest::parse(body).map_err(|e| e.to_string())
                }
                other => Err(format!("POST /v1/update routed to {other:?}")),
            }
        });
        // the latency clock starts where the bytes met `route`
        let sent_at = self.ledger.started();
        let req = match parsed {
            Ok(req) => req,
            Err(e) => return self.fail(format!("client {c}: {e}")),
        };
        let inst = match self
            .ledger
            .time(Stage::ToInstance, id, |_| req.to_instance())
        {
            Ok(inst) => inst,
            Err(e) => return self.fail(format!("client {c}: {e}")),
        };
        let scheduler: &dyn UpdateScheduler = match req.algorithm.as_deref() {
            Some("wayup") => &self.schedulers.0,
            Some("slf-greedy") => &self.schedulers.1,
            Some("peacock") => &self.schedulers.2,
            other => return self.fail(format!("client {c}: unknown algorithm {other:?}")),
        };
        let schedule = match self
            .ledger
            .time(Stage::Schedule, id, |_| scheduler.schedule(&inst))
        {
            Ok(s) => s,
            Err(e) => return self.fail(format!("client {c}: {e}")),
        };
        // the paper's headline guarantee, as `examples/rest_controller`
        // checks it; all three schedulers promise at least that
        let check = self.ledger.time(Stage::Verify, id, |_| {
            verify_schedule(&inst, &schedule, PropertySet::transiently_secure())
        });
        if !check.is_ok() {
            return self.fail(format!("client {c}: verify_schedule rejected: {check}"));
        }
        // `move`: a stage that is the last user of a value also pays
        // for freeing it
        let (topo, hosts) = (&self.wl.topo, &flow.hosts);
        let mut compiled = match self.ledger.time(Stage::Lower, id, move |_| {
            compile_schedule(topo, &inst, &schedule, hosts)
        }) {
            Ok(comp) => comp,
            Err(e) => return self.fail(format!("client {c}: {e}")),
        };
        compiled.label = label(c, seq);
        let flowmods = compiled.message_count() as u64;
        if self.ledger.traced() && self.counters.compiled_sample.is_none() {
            self.counters.compiled_sample = Some(compiled.clone());
        }
        let (fabric, epoch) = (&mut self.fabric, self.epoch);
        let outcome = self.ledger.time(Stage::Submit, id, move |at| {
            let now = sim_time(epoch, at);
            fabric.submit_request(req.to_submission(compiled, now), now)
        });
        let response = self
            .ledger
            .time(Stage::Respond, id, |_| submit_response(&outcome));
        match outcome {
            Ok(ticket) if response.status == 202 => {
                if self.measuring {
                    self.counters.tickets += 1;
                    self.counters.xshard_tickets += u64::from(ticket.cross_shard);
                }
                self.last_job = ticket.job.0;
                let client = &mut self.clients[c];
                client.sent_at = sent_at;
                client.update = update;
                client.flowmods = flowmods;
                client.in_flight = true;
                self.in_flight += 1;
            }
            Ok(_) => self.fail(format!(
                "client {c}: accepted but answered {}",
                response.status
            )),
            Err(e) => self.fail(format!("client {c}: submit refused: {e}")),
        }
    }

    fn send_all(&mut self, outs: Vec<CtrlOutput>) {
        for CtrlOutput::Send(dp, env) in outs {
            let traced = self.ledger.traced();
            if traced && self.measuring {
                self.counters.sends += 1;
                if self.counters.sent_sample.len() < SAMPLE_CAP {
                    self.counters.sent_sample.push((dp, env.clone()));
                }
            }
            let barrier =
                (traced && env.msg == OfMessage::BarrierRequest).then(|| barrier_key(dp, env.xid));
            let transport = &self.transport;
            // the envelope dies with the send: its free is send cost
            self.ledger
                .time(Stage::Send, None, move |_| transport.send(dp, &env))
                .expect("the transport accepts sends to its own switches");
            if let Some(key) = barrier {
                self.barrier_sent.insert(key, self.ledger.started());
            }
        }
    }

    fn deliver(&mut self, msg: FromSwitch) {
        let traced = self.ledger.traced();
        if traced && self.measuring {
            self.counters.replies += 1;
            if self.counters.recv_sample.len() < SAMPLE_CAP {
                self.counters.recv_sample.push((msg.dpid, msg.env.clone()));
            }
        }
        let barrier = (traced && msg.env.msg == OfMessage::BarrierReply)
            .then(|| barrier_key(msg.dpid, msg.env.xid));
        let (fabric, epoch) = (&mut self.fabric, self.epoch);
        let outs = self.ledger.time(Stage::OnMessage, None, move |at| {
            fabric.on_message(sim_time(epoch, at), msg.dpid, &msg.env)
        });
        if let Some(sent) = barrier.and_then(|key| self.barrier_sent.remove(&key)) {
            if self.measuring {
                let rtt = self.ledger.started().duration_since(sent);
                self.counters
                    .barrier_rtt_us
                    .push(rtt.as_nanos() as f64 / 1e3);
            }
        }
        self.send_all(outs);
    }

    /// Lifecycle samples and derived child spans of one committed
    /// update, from its public `UpdateReport` alone.
    fn trace_report(
        ledger: &mut Ledger,
        counters: &mut Counters,
        measuring: bool,
        client: &Client,
        report: &UpdateReport,
        harvested: Instant,
    ) {
        let root = ledger.update_span(client.update, client.sent_at, harvested);
        let ms = |from: SimTime, to: SimTime| to.saturating_since(from).as_nanos() as f64 / 1e6;
        let mut grace = 0.0;
        let mut prev_done: Option<SimTime> = None;
        if let Some(root) = root {
            ledger.child_span(
                "update.queue_wait",
                root,
                client.update,
                report.submitted.0,
                report.started.0,
            );
        }
        for round in &report.rounds {
            let done = round.completed.unwrap_or(round.started);
            if let Some(prev) = prev_done {
                grace += ms(prev, round.started);
                if let Some(root) = root {
                    ledger.child_span("update.gap", root, client.update, prev.0, round.started.0);
                }
            }
            if let Some(root) = root {
                ledger.child_span("update.round", root, client.update, round.started.0, done.0);
            }
            if measuring {
                counters.round_ms.push(ms(round.started, done));
            }
            prev_done = Some(done);
        }
        if measuring {
            counters
                .queue_wait_ms
                .push(ms(report.submitted, report.started));
            counters.grace_wait_ms.push(grace);
            counters.rounds += report.rounds.len() as u64;
            counters.flowmods += client.flowmods;
        }
    }

    /// Match newly finished reports to their clients by label.
    fn harvest(&mut self) {
        let reports = self.fabric.reports();
        if self.cursor == reports.len() {
            return;
        }
        let harvested = Instant::now();
        for report in &reports[self.cursor..] {
            let owner = parse_label(&report.label).filter(|&(c, seq)| {
                self.clients
                    .get(c)
                    .is_some_and(|cl| cl.in_flight && cl.seq == seq)
            });
            let Some((c, _)) = owner else {
                self.failures
                    .record(format!("report for nobody: {}", report.label));
                continue;
            };
            let client = &mut self.clients[c];
            client.in_flight = false;
            self.in_flight -= 1;
            if report.completed.is_none() || report.failure.is_some() {
                self.failures.record(format!(
                    "update {} failed: {:?}",
                    report.label, report.failure
                ));
                continue; // retired
            }
            client.seq += 1;
            client.commits += 1;
            self.commits_total += 1;
            if self.measuring {
                self.commits += 1;
                let latency = harvested.duration_since(client.sent_at);
                self.latencies_ms.push(latency.as_nanos() as f64 / 1e6);
            }
            if self.ledger.traced() {
                Self::trace_report(
                    &mut self.ledger,
                    &mut self.counters,
                    self.measuring,
                    client,
                    report,
                    harvested,
                );
            }
            self.ready.push_back(c);
        }
        self.cursor = reports.len();
    }

    /// The reads beside the writes: what an operator's dashboard does
    /// to a running controller.
    fn scrape(&mut self) {
        let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
        let mut bad = Vec::new();

        let t = Instant::now();
        if route("GET", "/v1/status") != Route::Endpoint(Endpoint::Status)
            || status_response(&self.fabric.status_report()).status != 200
        {
            bad.push("GET /v1/status");
        }
        self.status_us.push(us(t));

        let t = Instant::now();
        if route("GET", "/v1/metrics") != Route::Endpoint(Endpoint::Metrics)
            || metrics_response(&self.obs, &self.fabric.status_report()).status != 200
        {
            bad.push("GET /v1/metrics");
        }
        self.metrics_us.push(us(t));

        let path = format!("/v1/trace/{}", self.last_job);
        let t = Instant::now();
        // a structured 404 is a correct answer too: the sink keeps 1024
        // spans and evicts by smallest job id, which under sharded id
        // ranges can drop a recent job of a low-numbered shard
        let ok = match route("GET", &path) {
            Route::Endpoint(Endpoint::Trace(job)) => {
                matches!(trace_response(&self.obs, job).status, 200 | 404)
            }
            _ => false,
        };
        if !ok {
            bad.push("GET /v1/trace/{job}");
        }
        self.trace_us.push(us(t));

        self.attempted += 3;
        for endpoint in bad {
            self.fail(format!("{endpoint} answered wrongly"));
        }
    }

    /// One turn of the pinned loop.
    fn iterate(&mut self, submitting: bool) {
        self.ledger.begin_iteration();
        if submitting {
            while let Some(c) = self.ready.pop_front() {
                self.submit(c);
            }
        }
        let (fabric, epoch) = (&mut self.fabric, self.epoch);
        let outs = self
            .ledger
            .time(Stage::Poll, None, |at| fabric.poll(sim_time(epoch, at)));
        self.send_all(outs);

        let transport = &self.transport;
        let first = self.ledger.time(Stage::RecvWait, None, |_| {
            transport.recv_timeout(Duration::from_millis(1))
        });
        if let Some(msg) = first {
            self.deliver(msg);
            for _ in 0..64 {
                let transport = &self.transport;
                let next = self
                    .ledger
                    .time(Stage::RecvWait, None, |_| transport.try_recv());
                match next {
                    Some(msg) => self.deliver(msg),
                    None => break,
                }
            }
        }
        self.harvest();
        if self.wl.spec.observed && self.ledger.started() >= self.next_scrape {
            self.next_scrape += SCRAPE_EVERY;
            self.scrape();
        }
        if self.ledger.traced() && self.measuring {
            self.counters.iterations += 1;
            self.counters.inflight_sum += self.in_flight as u64;
            self.counters.active_sum += self.fabric.active_count() as u64;
        }
        self.ledger.end_iteration();
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            at: Instant::now(),
            process_cpu_us: procfs::process_cpu_us(),
            driver_cpu_us: procfs::thread_cpu_us(),
            rss_bytes: procfs::rss_bytes(),
            vol_ctx: procfs::vol_ctx_switches(),
            live_heap: alloc::live_bytes(),
            driver_allocs: alloc::thread_counts(),
            retransmissions: self.fabric.stats().retransmissions,
            journal_len: self.fabric.status_report().journal_len,
            channel: self.transport.transport_stats(),
            // two dumps per ring per traced pass; untraced passes
            // leave the flight recorder alone
            obs_events: if self.ledger.traced() {
                let at = sim_time(self.epoch, Instant::now());
                obs_events(&self.obs, self.wl.spec.shards, at)
            } else {
                0
            },
        }
    }

    /// Warm up by count, measure for `window`, drain, shut down, and
    /// run the correctness gate.
    pub fn run(mut self, window: Duration) -> Outcome {
        let alive = |d: &Driver| d.in_flight > 0 || !d.ready.is_empty();
        while self.commits_total < self.wl.spec.warmup_updates
            && alive(&self)
            && self.epoch.elapsed() < WARMUP_DEADLINE
        {
            self.iterate(true);
        }
        let setup_s = self.epoch.elapsed().as_secs_f64();

        self.ledger.begin_window();
        self.measuring = true;
        let begin = self.snapshot();
        while begin.at.elapsed() < window && alive(&self) {
            self.iterate(true);
        }
        let end = self.snapshot();
        self.measuring = false;

        let drain = Instant::now();
        while self.in_flight > 0 && drain.elapsed() < DRAIN_DEADLINE {
            self.iterate(false);
        }
        for c in 0..self.clients.len() {
            if self.clients[c].in_flight {
                self.fail(format!("client {c}: still in flight after the drain"));
            }
        }

        self.counters.retransmissions = end.retransmissions - begin.retransmissions;
        self.counters.journal_records = (end.journal_len - begin.journal_len) as u64;
        self.counters.channel = ChannelStats {
            sent: end.channel.sent - begin.channel.sent,
            delivered: end.channel.delivered - begin.channel.delivered,
            dropped: end.channel.dropped - begin.channel.dropped,
            duplicated: end.channel.duplicated - begin.channel.duplicated,
            ..ChannelStats::default()
        };
        self.counters.obs_events = end.obs_events - begin.obs_events;
        self.counters.heap_growth = end.live_heap - begin.live_heap;
        self.counters.driver_cpu_us = end.driver_cpu_us - begin.driver_cpu_us;
        self.counters.vol_ctx = end.vol_ctx - begin.vol_ctx;
        self.counters.driver_allocs = (
            end.driver_allocs.0 - begin.driver_allocs.0,
            end.driver_allocs.1 - begin.driver_allocs.1,
        );

        let mut switches = self.transport.shutdown();
        let commits: Vec<u64> = self.clients.iter().map(|c| c.commits).collect();
        for mismatch in gate::check(&self.wl, &mut switches, self.fabric.as_ref(), &commits) {
            self.failures.record(mismatch);
        }

        Outcome {
            window_s: end.at.duration_since(begin.at).as_secs_f64(),
            commits: self.commits,
            latencies_ms: self.latencies_ms,
            cpu_us: end.process_cpu_us - begin.process_cpu_us,
            rss_growth_b: end.rss_bytes as i64 - begin.rss_bytes as i64,
            setup_s,
            peak_rss_b: procfs::peak_rss_bytes(),
            attempted: self.attempted,
            failures: self.failures,
            status_us: self.status_us,
            metrics_us: self.metrics_us,
            trace_us: self.trace_us,
            ledger: self.ledger,
            counters: self.counters,
            switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_reject_strangers() {
        for (c, seq) in [(0, 0), (7, 1), (511, 123_456)] {
            assert_eq!(parse_label(&label(c, seq)), Some((c, seq)));
        }
        assert_eq!(parse_label("wayup (s1 -> s5)"), None);
        assert_eq!(parse_label("c12"), None);
        assert_eq!(parse_label("c#3"), None);
        assert_eq!(parse_label("cx#3"), None);
    }
}
