//! A readiness-driven in-process transport.
//!
//! [`EventLoopTransport`] replaces the thread-per-connection loopback
//! transport with the structure a production controller would use:
//!
//! * one **poller** thread owning a timer wheel (binary heap of
//!   deliveries that are not due yet, or that must queue behind one
//!   that is not);
//! * a small **worker pool** that processes connections the poller
//!   marks ready: each worker drains that connection's
//!   [`FrameCodec`], runs the switch logic, and encodes replies into
//!   the connection's pooled write buffer;
//! * per-connection state (switch, reassembly codec, write buffer, and
//!   one *lane* per direction) behind its own lock, so thousands of
//!   connections share a handful of threads instead of owning one each.
//!
//! **Ordering invariant: a delivery never overtakes an earlier one of
//! its connection and direction.** Every delivery is planned and
//! either handed over or queued under its connection's lock. A copy
//! that is due the moment it is planned, on a lane with nothing still
//! in the heap or in the poller's hands, is handed over right there on
//! the calling thread — fed to the codec and processed, or decoded and
//! passed to the controller. Everything else goes through the heap,
//! which pops in `(due, emission order)`; the lane's FIFO high-water
//! mark keeps `due` monotone per lane, and its in-flight counter —
//! bumped on push, dropped by the poller under the same connection
//! lock that covers the hand-over — is what tells a later due-now copy
//! to queue behind. So per-connection FIFO holds exactly as it would
//! over TCP.
//!
//! Threads are woken only when parked: the poller, the workers (and
//! the receivers of the controller channel) record that they are about
//! to wait inside the mutex their condvar releases, so a producer that
//! finds the flag clear knows the consumer will look at the queue
//! again before it sleeps, and skips the futex call.
//!
//! Fault injection (drop / duplicate / corrupt / delay, with
//! per-connection overrides via the [`Transport`] trait) happens at
//! *plan* time, one planner critical section per message, in emission
//! order, so the high-water-mark clamp gives the same
//! in-order-per-connection guarantee the simulator's [`SimChannel`]
//! provides and a seed fixes the fault pattern.
//!
//! Everything on the wire is real OpenFlow 1.0 bytes: sends are
//! encoded before faults touch them, corrupted frames are rejected by
//! the codec at the far end and cost one message, never the
//! connection.
//!
//! Lock order: connection → planner → timers (→ controller channel).
//!
//! [`SimChannel`]: crate::sim::SimChannel

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use sdn_obs::{Ctr, Gauge, Obs};
use sdn_openflow::codec::decode;
use sdn_openflow::framing::{encode_to, FrameCodec};
use sdn_openflow::messages::Envelope;
use sdn_switch::SoftSwitch;
use sdn_types::{DetRng, DpId};

use crate::config::ChannelConfig;
use crate::sim::{ChannelStats, ConnId, Direction};
use crate::transport::{FromSwitch, LiveTransport, Transport, TransportError, TransportEvent};

/// Tuning knobs for the event loop.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// Worker threads draining ready connections.
    pub workers: usize,
    /// Wall-clock compression applied to simulated delays
    /// (`0.001` turns 1 ms into 1 µs; `0.0` disables sleeping).
    pub time_scale: f64,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            workers: 4,
            time_scale: 1.0,
        }
    }
}

/// How long idle threads park before re-checking for shutdown.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// One delivery copy the planner decided to make.
struct CopyPlan {
    due: Instant,
    /// Emission order; breaks `due` ties in the timer heap.
    seq: u64,
    corrupt_at: Option<usize>,
}

impl CopyPlan {
    /// Flip (or flip back) the bit this copy corrupts.
    fn toggle_corruption(&self, frame: &mut [u8]) {
        if let Some(i) = self.corrupt_at {
            frame[i] ^= 1;
        }
    }
}

/// The planner's verdict on one message: no copy (dropped), one, or
/// two (duplicated).
type Copies = [Option<CopyPlan>; 2];

/// One direction of one connection: its fault-profile override, its
/// FIFO high-water mark, and how many of its deliveries are still on
/// the timer path.
#[derive(Default)]
struct Lane {
    cfg: Option<ChannelConfig>,
    /// Latest `due` planned so far; later samples may not undercut it.
    hwm: Option<Instant>,
    /// Deliveries in the heap, or popped by the poller and not yet
    /// handed over. Only a lane with none may hand over directly.
    in_flight: usize,
}

impl Lane {
    /// Whether `copy` may be handed over on the planning thread.
    fn is_due_now(&self, copy: &CopyPlan, now: Instant) -> bool {
        copy.due <= now && self.in_flight == 0
    }
}

/// Samples faults and delays in emission order.
struct Planner {
    rng: DetRng,
    stats: ChannelStats,
    seq: u64,
}

impl Planner {
    /// Decide one message's fate. `hwm` is the lane's delivery
    /// high-water mark: under FIFO a late sample may not overtake an
    /// earlier one on the same lane.
    fn plan(
        &mut self,
        cfg: &ChannelConfig,
        hwm: &mut Option<Instant>,
        frame_len: usize,
        scale: f64,
        now: Instant,
    ) -> Copies {
        self.stats.sent += 1;
        if self.rng.chance(cfg.drop_prob) {
            self.stats.dropped += 1;
            return [None, None];
        }
        let copies = if self.rng.chance(cfg.duplicate_prob) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = [None, None];
        for slot in out.iter_mut().take(copies) {
            let nanos = cfg.delay.sample(&mut self.rng).as_nanos();
            let scaled = Duration::from_nanos((nanos as f64 * scale) as u64);
            let mut due = now + scaled;
            if cfg.fifo {
                due = due.max(hwm.unwrap_or(due));
                *hwm = Some(due);
            }
            let corrupt_at = if frame_len > 0 && self.rng.chance(cfg.corrupt_prob) {
                self.stats.corrupted += 1;
                Some(self.rng.index(frame_len))
            } else {
                None
            };
            self.stats.delivered += 1;
            self.seq += 1;
            *slot = Some(CopyPlan {
                due,
                seq: self.seq,
                corrupt_at,
            });
        }
        out
    }
}

/// Per-connection state: the switch, inbound reassembly, and a pooled
/// write buffer reused across messages in both directions.
struct ConnState {
    switch: SoftSwitch,
    rx: FrameCodec,
    wbuf: BytesMut,
    /// Whether this connection is already in the work queue or in a
    /// worker's hands — it is queued at most once.
    queued: bool,
    /// Whether the connection is currently established.
    connected: bool,
    /// Incarnation counter, bumped on every disconnect. In-flight
    /// deliveries are stamped with the epoch they were sent under and
    /// die if it no longer matches — exactly how a TCP teardown loses
    /// whatever was in the pipe.
    epoch: u64,
    to_switch: Lane,
    to_ctrl: Lane,
}

impl ConnState {
    fn lane_mut(&mut self, dir: Direction) -> &mut Lane {
        match dir {
            Direction::ToSwitch => &mut self.to_switch,
            Direction::ToController => &mut self.to_ctrl,
        }
    }
}

/// A byte delivery waiting for its due time.
struct TimerEntry {
    due: Instant,
    seq: u64,
    /// Connection index and the lane the bytes travel on.
    idx: usize,
    dir: Direction,
    /// The epoch the bytes were sent under.
    epoch: u64,
    bytes: Vec<u8>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    /// Reversed so the `BinaryHeap` pops the *earliest* entry first;
    /// `seq` breaks ties in emission order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The timer heap and whether its poller is waiting on `timer_cv`.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<TimerEntry>,
    poller_parked: bool,
}

/// Connections with buffered inbound bytes to process, and how many
/// workers are waiting on `work_cv`.
#[derive(Default)]
struct WorkQueue {
    ready: VecDeque<usize>,
    parked: usize,
}

/// The attached observability sink and the live-connection count it
/// is told about on every churn event.
struct ChurnSink {
    obs: Obs,
    live: i64,
}

struct Inner {
    default_cfg: ChannelConfig,
    time_scale: f64,
    index: BTreeMap<DpId, usize>,
    dpids: Vec<DpId>,
    conns: Vec<Mutex<ConnState>>,
    planner: Mutex<Planner>,
    work: Mutex<WorkQueue>,
    work_cv: Condvar,
    timers: Mutex<Timers>,
    timer_cv: Condvar,
    to_ctrl: Sender<FromSwitch>,
    events: Sender<TransportEvent>,
    running: AtomicBool,
    /// Observability sink (disabled until attached). The transport
    /// runs in wall time with no virtual clock, so it records only
    /// counters and the connection gauge — never timestamped events.
    churn: Mutex<ChurnSink>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn running(&self) -> bool {
        self.running.load(AtomicOrdering::Acquire)
    }

    /// Plan one message on `lane`: a single planner critical section.
    fn plan(&self, lane: &mut Lane, frame_len: usize, now: Instant) -> Copies {
        let cfg = lane.cfg.unwrap_or(self.default_cfg);
        lock(&self.planner).plan(&cfg, &mut lane.hwm, frame_len, self.time_scale, now)
    }

    /// Queue a copy of the frame in `conn.wbuf` behind its due time, on
    /// the `dir` lane of the locked connection `idx`.
    fn push_timer(&self, idx: usize, dir: Direction, conn: &mut ConnState, copy: &CopyPlan) {
        let mut bytes = conn.wbuf.to_vec();
        copy.toggle_corruption(&mut bytes);
        let entry = TimerEntry {
            due: copy.due,
            seq: copy.seq,
            idx,
            dir,
            epoch: conn.epoch,
            bytes,
        };
        conn.lane_mut(dir).in_flight += 1;
        let mut timers = lock(&self.timers);
        timers.heap.push(entry);
        let wake = timers.poller_parked;
        drop(timers);
        if wake {
            self.timer_cv.notify_one();
        }
    }

    fn push_work(&self, idx: usize) {
        let mut work = lock(&self.work);
        work.ready.push_back(idx);
        let wake = work.parked > 0;
        drop(work);
        if wake {
            self.work_cv.notify_one();
        }
    }

    /// Poller body: fire due deliveries, park until the next one.
    fn run_poller(&self) {
        let mut fired = Vec::new();
        loop {
            let mut timers = lock(&self.timers);
            if !self.running() {
                return;
            }
            let now = Instant::now();
            while timers.heap.peek().is_some_and(|e| e.due <= now) {
                fired.push(timers.heap.pop().expect("peeked"));
            }
            if fired.is_empty() {
                let wait = timers
                    .heap
                    .peek()
                    .map(|e| e.due.saturating_duration_since(now))
                    .unwrap_or(IDLE_PARK)
                    .min(IDLE_PARK);
                timers.poller_parked = true;
                let (mut timers, _) = self
                    .timer_cv
                    .wait_timeout(timers, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                timers.poller_parked = false;
                continue;
            }
            drop(timers);
            for entry in fired.drain(..) {
                self.hand_over(entry);
            }
        }
    }

    /// Complete one timed delivery. The lane's in-flight count drops
    /// under the connection lock that covers the hand-over, so a
    /// planner that then finds the lane clear cannot be overtaking it.
    /// Bytes stamped with a stale epoch died with their connection.
    fn hand_over(&self, entry: TimerEntry) {
        let mut conn = lock(&self.conns[entry.idx]);
        conn.lane_mut(entry.dir).in_flight -= 1;
        if !(conn.connected && conn.epoch == entry.epoch) {
            lock(&self.planner).stats.severed += 1;
            return;
        }
        match entry.dir {
            Direction::ToSwitch => {
                conn.rx.feed(&entry.bytes);
                // Mark the connection ready if no worker already owns it.
                if !conn.queued {
                    conn.queued = true;
                    drop(conn);
                    self.push_work(entry.idx);
                }
            }
            Direction::ToController => self.deliver_to_controller(entry.idx, &entry.bytes),
        }
    }

    /// Final hop switch→controller: decode (a corrupted frame dies
    /// here, costing one message) and hand to the controller channel.
    /// Called with the connection locked.
    fn deliver_to_controller(&self, idx: usize, bytes: &[u8]) {
        if let Ok(env) = decode(bytes) {
            let dpid = self.dpids[idx];
            let _ = self.to_ctrl.send(FromSwitch { dpid, env });
        }
    }

    /// Worker body: take ready connections and process them.
    fn run_worker(&self) {
        loop {
            let idx = {
                let mut work = lock(&self.work);
                loop {
                    if let Some(idx) = work.ready.pop_front() {
                        break idx;
                    }
                    if !self.running() {
                        return;
                    }
                    work.parked += 1;
                    let (guard, _) = self
                        .work_cv
                        .wait_timeout(work, IDLE_PARK)
                        .unwrap_or_else(PoisonError::into_inner);
                    work = guard;
                    work.parked -= 1;
                }
            };
            let mut conn = lock(&self.conns[idx]);
            conn.queued = false;
            if conn.connected {
                self.process(idx, &mut conn);
            }
        }
    }

    /// Plan the frame sitting in `conn.wbuf` on the `dir` lane of the
    /// locked connection `idx`. A copy that is due now, with nothing of
    /// its lane still on the timer path, is handed over right here;
    /// every other copy takes the heap. Returns whether any was handed
    /// over.
    fn dispatch(&self, idx: usize, dir: Direction, conn: &mut ConnState) -> bool {
        let now = Instant::now();
        let frame_len = conn.wbuf.len();
        let copies = self.plan(conn.lane_mut(dir), frame_len, now);
        let mut handed_over = false;
        for copy in copies.into_iter().flatten() {
            if conn.lane_mut(dir).is_due_now(&copy, now) {
                copy.toggle_corruption(&mut conn.wbuf);
                match dir {
                    Direction::ToSwitch => conn.rx.feed(&conn.wbuf),
                    Direction::ToController => self.deliver_to_controller(idx, &conn.wbuf),
                }
                copy.toggle_corruption(&mut conn.wbuf);
                handed_over = true;
            } else {
                self.push_timer(idx, dir, conn, &copy);
            }
        }
        handed_over
    }

    /// Accept one controller→switch message on a locked, established
    /// connection: encode once into the pooled buffer and dispatch.
    fn send_locked(&self, idx: usize, conn: &mut ConnState, env: &Envelope) {
        conn.wbuf.clear();
        encode_to(env, &mut conn.wbuf);
        // Process only after every copy is placed: replies reuse `wbuf`.
        if self.dispatch(idx, Direction::ToSwitch, conn) {
            self.process(idx, conn);
        }
    }

    /// Drain a locked connection's complete frames, run the switch,
    /// dispatch the replies. Planning happens under the connection
    /// lock so reply order fixes delivery order (FIFO per conn). A
    /// malformed frame is skipped: it costs one message.
    fn process(&self, idx: usize, conn: &mut ConnState) {
        loop {
            let env = match conn.rx.next_frame() {
                Ok(Some(env)) => env,
                Ok(None) => return,
                Err(_) => continue,
            };
            if let Some(reply) = conn.switch.respond(env) {
                conn.wbuf.clear();
                encode_to(&reply, &mut conn.wbuf);
                self.dispatch(idx, Direction::ToController, conn);
            }
        }
    }
}

/// The readiness-driven transport: one poller + a small worker pool
/// driving every switch connection.
pub struct EventLoopTransport {
    inner: Arc<Inner>,
    from_switches: Receiver<FromSwitch>,
    events: Receiver<TransportEvent>,
    threads: Vec<JoinHandle<()>>,
}

impl EventLoopTransport {
    /// Spawn the event loop over `switches` with default tuning.
    /// `time_scale` compresses simulated delays into wall time.
    pub fn spawn(
        switches: Vec<SoftSwitch>,
        config: ChannelConfig,
        seed: u64,
        time_scale: f64,
    ) -> Self {
        Self::spawn_with(
            switches,
            config,
            seed,
            EventLoopConfig {
                time_scale,
                ..EventLoopConfig::default()
            },
        )
    }

    /// Spawn with explicit [`EventLoopConfig`].
    pub fn spawn_with(
        switches: Vec<SoftSwitch>,
        config: ChannelConfig,
        seed: u64,
        el: EventLoopConfig,
    ) -> Self {
        let (to_ctrl, from_switches) = unbounded::<FromSwitch>();
        let (events, event_rx) = unbounded::<TransportEvent>();
        let mut index = BTreeMap::new();
        let mut dpids = Vec::with_capacity(switches.len());
        let mut conns = Vec::with_capacity(switches.len());
        for (i, sw) in switches.into_iter().enumerate() {
            index.insert(sw.dpid(), i);
            dpids.push(sw.dpid());
            conns.push(Mutex::new(ConnState {
                switch: sw,
                rx: FrameCodec::new(),
                wbuf: BytesMut::with_capacity(256),
                queued: false,
                connected: true,
                epoch: 0,
                to_switch: Lane::default(),
                to_ctrl: Lane::default(),
            }));
        }
        let live = conns.len() as i64;
        let inner = Arc::new(Inner {
            default_cfg: config,
            time_scale: el.time_scale,
            index,
            dpids,
            conns,
            planner: Mutex::new(Planner {
                rng: DetRng::new(seed).derive("event-loop", 0),
                stats: ChannelStats::default(),
                seq: 0,
            }),
            work: Mutex::default(),
            work_cv: Condvar::new(),
            timers: Mutex::default(),
            timer_cv: Condvar::new(),
            to_ctrl,
            events,
            running: AtomicBool::new(true),
            churn: Mutex::new(ChurnSink {
                obs: Obs::disabled(),
                live,
            }),
        });
        let mut threads = Vec::new();
        let poller = Arc::clone(&inner);
        threads.push(
            thread::Builder::new()
                .name("ofp-poller".into())
                .spawn(move || poller.run_poller())
                .expect("spawn poller"),
        );
        for w in 0..el.workers.max(1) {
            let worker = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("ofp-worker-{w}"))
                    .spawn(move || worker.run_worker())
                    .expect("spawn worker"),
            );
        }
        EventLoopTransport {
            inner,
            from_switches,
            events: event_rx,
            threads,
        }
    }

    /// Connections this transport is driving.
    pub fn connections(&self) -> usize {
        self.inner.conns.len()
    }

    /// Attach an observability sink: the transport maintains the live
    /// [`Gauge::Connections`] and bumps [`Ctr::Disconnects`] /
    /// [`Ctr::Reconnects`] as sessions churn. Wall-time component, so
    /// counters and gauges only — no timestamped events.
    pub fn attach_obs(&self, obs: Obs) {
        let mut churn = lock(&self.inner.churn);
        obs.set_gauge(Gauge::Connections, churn.live);
        churn.obs = obs;
    }

    /// Record one session going down (`delta` −1) or coming back (+1).
    /// Called with that connection locked, so the live count moves in
    /// step with its `connected` flag.
    fn record_churn(&self, ctr: Ctr, delta: i64) {
        let mut churn = lock(&self.inner.churn);
        churn.live += delta;
        churn.obs.inc(ctr);
        churn.obs.set_gauge(Gauge::Connections, churn.live);
    }

    /// Tear down the connection to `dpid`: subsequent sends fail with
    /// [`TransportError::Disconnected`], in-flight frames in both
    /// directions are severed, and the reassembly / write buffers are
    /// reaped. The switch itself (its flow table) survives — only the
    /// TCP session dies. Idempotent.
    pub fn disconnect(&self, dpid: DpId) -> Result<(), TransportError> {
        let idx = self.conn_index(dpid)?;
        let mut conn = lock(&self.inner.conns[idx]);
        if !conn.connected {
            return Ok(());
        }
        conn.connected = false;
        conn.epoch += 1;
        conn.rx = FrameCodec::new();
        conn.wbuf = BytesMut::with_capacity(256);
        lock(&self.inner.planner).stats.disconnects += 1;
        self.record_churn(Ctr::Disconnects, -1);
        drop(conn);
        let _ = self.inner.events.send(TransportEvent::Disconnected(dpid));
        Ok(())
    }

    /// Re-establish the connection to `dpid` under the same dpid with
    /// fresh buffers and no FIFO relationship to the old session.
    /// Idempotent.
    pub fn reconnect(&self, dpid: DpId) -> Result<(), TransportError> {
        let idx = self.conn_index(dpid)?;
        let mut conn = lock(&self.inner.conns[idx]);
        if conn.connected {
            return Ok(());
        }
        conn.connected = true;
        conn.to_switch.hwm = None;
        conn.to_ctrl.hwm = None;
        lock(&self.inner.planner).stats.reconnects += 1;
        self.record_churn(Ctr::Reconnects, 1);
        drop(conn);
        let _ = self.inner.events.send(TransportEvent::Reconnected(dpid));
        Ok(())
    }

    /// Power-cycle the switch: disconnect, wipe its flow table (a
    /// rebooted switch comes back empty), reconnect. The controller
    /// sees a disconnect followed by a reconnect and is expected to
    /// resync the table.
    pub fn reboot(&self, dpid: DpId) -> Result<(), TransportError> {
        self.disconnect(dpid)?;
        let idx = self.conn_index(dpid)?;
        let mut conn = lock(&self.inner.conns[idx]);
        let fresh = SoftSwitch::new(dpid, conn.switch.n_ports());
        conn.switch = fresh;
        drop(conn);
        self.reconnect(dpid)
    }

    /// Whether the connection to `dpid` is currently established.
    pub fn is_connected(&self, dpid: DpId) -> bool {
        self.conn_index(dpid)
            .map(|idx| lock(&self.inner.conns[idx]).connected)
            .unwrap_or(false)
    }

    fn conn_index(&self, dpid: DpId) -> Result<usize, TransportError> {
        self.inner
            .index
            .get(&dpid)
            .copied()
            .ok_or(TransportError::UnknownSwitch(dpid))
    }

    /// Inject a message as if a switch had sent it (tests).
    pub fn inject(&self, msg: FromSwitch) {
        let _ = self.inner.to_ctrl.send(msg);
    }

    /// Stop all threads and return the final switch states (flow
    /// tables inspectable by tests). In-flight delayed deliveries are
    /// discarded, like a connection teardown would.
    pub fn shutdown(self) -> Vec<SoftSwitch> {
        let inner = Arc::clone(&self.inner);
        drop(self); // signals shutdown and joins every thread
        let inner = Arc::try_unwrap(inner)
            .ok()
            .expect("event-loop threads joined, no other handles remain");
        inner
            .conns
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .switch
            })
            .collect()
    }
}

impl Drop for EventLoopTransport {
    fn drop(&mut self) {
        // `shutdown` drains `threads`; a plain drop still signals the
        // threads to exit so they don't spin forever.
        self.inner.running.store(false, AtomicOrdering::Release);
        self.inner.work_cv.notify_all();
        self.inner.timer_cv.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Overrides live in the connection's lane; a [`ConnId`] naming a
/// switch this transport does not drive has no lane, so setting it is
/// a no-op and it reads back as the default profile.
impl Transport for EventLoopTransport {
    fn set_conn_config(&mut self, conn: ConnId, config: ChannelConfig) {
        if let Ok(idx) = self.conn_index(conn.dpid) {
            lock(&self.inner.conns[idx]).lane_mut(conn.dir).cfg = Some(config);
        }
    }

    fn clear_conn_config(&mut self, conn: ConnId) {
        if let Ok(idx) = self.conn_index(conn.dpid) {
            lock(&self.inner.conns[idx]).lane_mut(conn.dir).cfg = None;
        }
    }

    fn conn_config(&self, conn: ConnId) -> ChannelConfig {
        self.conn_index(conn.dpid)
            .ok()
            .and_then(|idx| lock(&self.inner.conns[idx]).lane_mut(conn.dir).cfg)
            .unwrap_or(self.inner.default_cfg)
    }

    fn transport_stats(&self) -> ChannelStats {
        lock(&self.inner.planner).stats
    }
}

impl LiveTransport for EventLoopTransport {
    fn send(&self, dpid: DpId, env: &Envelope) -> Result<(), TransportError> {
        let idx = self.conn_index(dpid)?;
        if !self.inner.running() {
            return Err(TransportError::ShutDown);
        }
        let mut conn = lock(&self.inner.conns[idx]);
        if !conn.connected {
            return Err(TransportError::Disconnected(dpid));
        }
        self.inner.send_locked(idx, &mut conn, env);
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<FromSwitch> {
        self.from_switches.recv_timeout(timeout).ok()
    }

    fn try_recv(&self) -> Option<FromSwitch> {
        self.from_switches.try_recv().ok()
    }

    fn try_next_event(&self) -> Option<TransportEvent> {
        self.events.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_openflow::flow::FlowMatch;
    use sdn_openflow::messages::{FlowMod, FlowModCommand, OfMessage};
    use sdn_types::{SimDuration, Xid};

    fn transport(n: u64) -> EventLoopTransport {
        let switches: Vec<SoftSwitch> = (1..=n).map(|i| SoftSwitch::new(DpId(i), 4)).collect();
        EventLoopTransport::spawn(
            switches,
            ChannelConfig::ideal(SimDuration::from_micros(100)),
            7,
            0.01,
        )
    }

    #[test]
    fn echo_roundtrip_over_event_loop() {
        let t = transport(2);
        t.send(
            DpId(1),
            &Envelope::new(Xid(1), OfMessage::EchoRequest(vec![7])),
        )
        .unwrap();
        let got = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(got.dpid, DpId(1));
        assert_eq!(got.env.msg, OfMessage::EchoReply(vec![7]));
        t.shutdown();
    }

    #[test]
    fn many_connections_share_few_threads() {
        let t = transport(256);
        assert_eq!(t.connections(), 256);
        for i in 1..=256u64 {
            t.send(
                DpId(i),
                &Envelope::new(Xid(i as u32), OfMessage::BarrierRequest),
            )
            .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..256 {
            let r = t.recv_timeout(Duration::from_secs(10)).expect("reply");
            assert_eq!(r.env.msg, OfMessage::BarrierReply);
            got.push(r.dpid);
        }
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 256, "every switch answered its barrier");
        t.shutdown();
    }

    #[test]
    fn per_connection_fifo_holds_under_jitter() {
        // Jittery delays reorder *across* connections but never within
        // one: a barrier sent after three echoes must answer last.
        let switches = vec![SoftSwitch::new(DpId(1), 4)];
        let t = EventLoopTransport::spawn(
            switches,
            ChannelConfig::jittery(SimDuration::from_millis(5)),
            11,
            0.001,
        );
        for i in 1..=3u32 {
            t.send(
                DpId(1),
                &Envelope::new(Xid(i), OfMessage::EchoRequest(vec![i as u8])),
            )
            .unwrap();
        }
        t.send(DpId(1), &Envelope::new(Xid(9), OfMessage::BarrierRequest))
            .unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            let r = t.recv_timeout(Duration::from_secs(5)).expect("reply");
            seen.push(r.env.xid);
        }
        assert_eq!(
            seen.last(),
            Some(&Xid(9)),
            "barrier reply must not overtake earlier echoes: {seen:?}"
        );
        t.shutdown();
    }

    #[test]
    fn overrides_apply_per_connection() {
        let mut t = transport(2);
        let conn = ConnId::to_switch(DpId(2));
        t.set_conn_config(conn, ChannelConfig::lossy(1.0));
        // dpid 2 drops everything; dpid 1 still answers
        t.send(DpId(2), &Envelope::new(Xid(1), OfMessage::BarrierRequest))
            .unwrap();
        t.send(DpId(1), &Envelope::new(Xid(2), OfMessage::BarrierRequest))
            .unwrap();
        let r = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(r.dpid, DpId(1));
        assert!(t.try_recv().is_none());
        assert!(t.transport_stats().dropped >= 1);
        t.clear_conn_config(conn);
        t.send(DpId(2), &Envelope::new(Xid(3), OfMessage::BarrierRequest))
            .unwrap();
        let r = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(r.dpid, DpId(2));
        t.shutdown();
    }

    #[test]
    fn corruption_costs_one_message_not_the_connection() {
        let switches = vec![SoftSwitch::new(DpId(1), 4)];
        let mut t = EventLoopTransport::spawn(
            switches,
            ChannelConfig::ideal(SimDuration::from_micros(10)).with_corruption(0.3),
            23,
            0.001,
        );
        // Hammer the connection: frames die to corruption (a mangled
        // length field may even swallow neighbours until resync), but
        // replies keep flowing — the stream never wedges.
        for i in 0..200u32 {
            t.send(
                DpId(1),
                &Envelope::new(Xid(i), OfMessage::EchoRequest(vec![i as u8])),
            )
            .unwrap();
        }
        let mut replies = 0;
        while t.recv_timeout(Duration::from_millis(300)).is_some() {
            replies += 1;
        }
        assert!(
            replies > 20,
            "connection survived corruption (got {replies} replies)"
        );
        let stats = t.transport_stats();
        assert!(stats.corrupted > 0, "corruption was actually injected");
        // The decisive check: turn corruption off for this connection
        // and confirm the stream is still in working order.
        t.set_conn_config(
            ConnId::to_switch(DpId(1)),
            ChannelConfig::ideal(SimDuration::from_micros(10)),
        );
        t.set_conn_config(
            ConnId::to_controller(DpId(1)),
            ChannelConfig::ideal(SimDuration::from_micros(10)),
        );
        // A corrupted length field may leave the reassembly buffer
        // waiting on a phantom frame; keep traffic flowing until the
        // stream recovers (that is the guarantee).
        let mut healthy = false;
        for i in 0..512u32 {
            t.send(
                DpId(1),
                &Envelope::new(Xid(1000 + i), OfMessage::BarrierRequest),
            )
            .unwrap();
            // Stragglers from the corruption phase (late echo replies,
            // or corrupted frames the switch decoded as some other
            // request) may still drain out here — only a reply to one
            // of *these* barriers proves recovery.
            if let Some(r) = t.recv_timeout(Duration::from_millis(50)) {
                if r.env.msg == OfMessage::BarrierReply && r.env.xid.0 >= 1000 {
                    healthy = true;
                    break;
                }
            }
        }
        assert!(healthy, "stream never recovered after corruption stopped");
        t.shutdown();
    }

    #[test]
    fn shutdown_returns_switch_state() {
        let t = transport(1);
        t.send(
            DpId(1),
            &Envelope::new(
                Xid(1),
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Add,
                    priority: 5,
                    matcher: FlowMatch::ANY,
                    actions: vec![],
                    cookie: 9,
                }),
            ),
        )
        .unwrap();
        t.send(DpId(1), &Envelope::new(Xid(2), OfMessage::BarrierRequest))
            .unwrap();
        let _ = t.recv_timeout(Duration::from_secs(5)).expect("barrier");
        let switches = t.shutdown();
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].table().len(), 1);
    }

    #[test]
    fn send_to_unknown_switch_fails() {
        let t = transport(1);
        assert_eq!(
            t.send(DpId(99), &Envelope::new(Xid(1), OfMessage::Hello)),
            Err(TransportError::UnknownSwitch(DpId(99)))
        );
        t.shutdown();
    }

    #[test]
    fn send_on_dead_connection_fails_typed() {
        let t = transport(2);
        t.disconnect(DpId(1)).unwrap();
        assert_eq!(
            t.send(DpId(1), &Envelope::new(Xid(1), OfMessage::BarrierRequest)),
            Err(TransportError::Disconnected(DpId(1)))
        );
        assert!(!t.is_connected(DpId(1)));
        // The other connection is untouched.
        t.send(DpId(2), &Envelope::new(Xid(2), OfMessage::BarrierRequest))
            .unwrap();
        let r = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(r.dpid, DpId(2));
        assert_eq!(
            t.try_next_event(),
            Some(TransportEvent::Disconnected(DpId(1)))
        );
        t.shutdown();
    }

    #[test]
    fn disconnect_severs_in_flight_frames() {
        // Generous delay so the frame is still in the pipe when the
        // connection dies; the reply must never materialize.
        let switches = vec![SoftSwitch::new(DpId(1), 4)];
        let t = EventLoopTransport::spawn(
            switches,
            ChannelConfig::ideal(SimDuration::from_millis(200)),
            5,
            1.0,
        );
        t.send(DpId(1), &Envelope::new(Xid(1), OfMessage::BarrierRequest))
            .unwrap();
        t.disconnect(DpId(1)).unwrap();
        assert!(
            t.recv_timeout(Duration::from_millis(600)).is_none(),
            "in-flight frame must die with the connection"
        );
        assert!(t.transport_stats().severed >= 1);
        t.shutdown();
    }

    #[test]
    fn reconnect_resumes_same_dpid_with_fresh_buffers() {
        let t = transport(1);
        // Install a rule, then churn the connection.
        t.send(
            DpId(1),
            &Envelope::new(
                Xid(1),
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Add,
                    priority: 5,
                    matcher: FlowMatch::ANY,
                    actions: vec![],
                    cookie: 9,
                }),
            ),
        )
        .unwrap();
        t.send(DpId(1), &Envelope::new(Xid(2), OfMessage::BarrierRequest))
            .unwrap();
        let _ = t.recv_timeout(Duration::from_secs(5)).expect("barrier");
        t.disconnect(DpId(1)).unwrap();
        t.reconnect(DpId(1)).unwrap();
        assert!(t.is_connected(DpId(1)));
        // Same dpid answers again; the flow table survived (only the
        // session died, not the switch).
        t.send(DpId(1), &Envelope::new(Xid(3), OfMessage::BarrierRequest))
            .unwrap();
        let r = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(r.env.msg, OfMessage::BarrierReply);
        let stats = t.transport_stats();
        assert_eq!(stats.disconnects, 1);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(
            t.try_next_event(),
            Some(TransportEvent::Disconnected(DpId(1)))
        );
        assert_eq!(
            t.try_next_event(),
            Some(TransportEvent::Reconnected(DpId(1)))
        );
        let switches = t.shutdown();
        assert_eq!(switches[0].table().len(), 1);
    }

    #[test]
    fn reboot_wipes_the_flow_table() {
        let t = transport(1);
        t.send(
            DpId(1),
            &Envelope::new(
                Xid(1),
                OfMessage::FlowMod(FlowMod {
                    command: FlowModCommand::Add,
                    priority: 5,
                    matcher: FlowMatch::ANY,
                    actions: vec![],
                    cookie: 9,
                }),
            ),
        )
        .unwrap();
        t.send(DpId(1), &Envelope::new(Xid(2), OfMessage::BarrierRequest))
            .unwrap();
        let _ = t.recv_timeout(Duration::from_secs(5)).expect("barrier");
        t.reboot(DpId(1)).unwrap();
        assert!(t.is_connected(DpId(1)));
        t.send(DpId(1), &Envelope::new(Xid(3), OfMessage::BarrierRequest))
            .unwrap();
        let _ = t.recv_timeout(Duration::from_secs(5)).expect("reply");
        let switches = t.shutdown();
        assert_eq!(switches[0].table().len(), 0, "reboot came back empty");
    }

    #[test]
    fn churn_maintains_the_obs_gauge_and_counters() {
        let t = transport(3);
        let obs = Obs::recording();
        t.attach_obs(obs.clone());
        assert_eq!(obs.registry().gauge(Gauge::Connections), 3);
        t.disconnect(DpId(2)).unwrap();
        t.disconnect(DpId(2)).unwrap(); // idempotent: no double count
        assert_eq!(obs.registry().gauge(Gauge::Connections), 2);
        assert_eq!(obs.registry().counter(Ctr::Disconnects), 1);
        t.reconnect(DpId(2)).unwrap();
        assert_eq!(obs.registry().gauge(Gauge::Connections), 3);
        assert_eq!(obs.registry().counter(Ctr::Reconnects), 1);
        t.shutdown();
    }

    fn echo(xid: u32) -> Envelope {
        Envelope::new(Xid(xid), OfMessage::EchoRequest(vec![xid as u8]))
    }

    fn barrier(xid: u32) -> Envelope {
        Envelope::new(Xid(xid), OfMessage::BarrierRequest)
    }

    /// One switch, no default delay: every delivery is due when
    /// planned unless a lane override says otherwise.
    fn zero_delay_transport(workers: usize) -> EventLoopTransport {
        EventLoopTransport::spawn_with(
            vec![SoftSwitch::new(DpId(1), 4)],
            ChannelConfig::ideal(SimDuration::ZERO),
            3,
            EventLoopConfig {
                workers,
                time_scale: 1.0,
            },
        )
    }

    fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    fn reply_xids(t: &EventLoopTransport, n: usize) -> Vec<Xid> {
        (0..n)
            .map(|_| {
                t.recv_timeout(Duration::from_secs(5))
                    .expect("reply")
                    .env
                    .xid
            })
            .collect()
    }

    #[test]
    fn a_due_now_send_queues_behind_a_delivery_the_poller_still_holds() {
        // The window the in-flight counter exists for: the earlier
        // delivery has left the heap but is not handed over yet. Pin it
        // open by holding the connection lock the poller needs.
        let t = zero_delay_transport(1);
        let mut conn = lock(&t.inner.conns[0]);
        conn.to_switch.cfg = Some(ChannelConfig::ideal(SimDuration::from_millis(2)));
        t.inner.send_locked(0, &mut conn, &echo(1));
        conn.to_switch.cfg = None;
        spin_until("the poller popped the echo", || {
            lock(&t.inner.timers).heap.is_empty()
        });
        assert_eq!(conn.to_switch.in_flight, 1, "popped, not handed over");
        t.inner.send_locked(0, &mut conn, &barrier(9));
        assert_eq!(conn.to_switch.in_flight, 2, "the barrier took the heap");
        assert!(t.try_recv().is_none(), "nothing may be processed yet");
        drop(conn);
        assert_eq!(reply_xids(&t, 2), [Xid(1), Xid(9)]);
        t.shutdown();
    }

    #[test]
    fn a_due_now_reply_queues_behind_a_reply_the_poller_still_holds() {
        let t = zero_delay_transport(1);
        let mut conn = lock(&t.inner.conns[0]);
        conn.to_ctrl.cfg = Some(ChannelConfig::ideal(SimDuration::from_millis(2)));
        t.inner.send_locked(0, &mut conn, &echo(1));
        conn.to_ctrl.cfg = None;
        spin_until("the poller popped the echo reply", || {
            lock(&t.inner.timers).heap.is_empty()
        });
        assert_eq!(conn.to_ctrl.in_flight, 1, "popped, not handed over");
        t.inner.send_locked(0, &mut conn, &barrier(9));
        assert_eq!(conn.to_switch.in_flight, 0, "the request went straight in");
        assert_eq!(conn.to_ctrl.in_flight, 2, "its reply took the heap");
        assert!(t.try_recv().is_none(), "the barrier reply must wait");
        drop(conn);
        assert_eq!(reply_xids(&t, 2), [Xid(1), Xid(9)]);
        t.shutdown();
    }

    #[test]
    fn a_delayed_delivery_is_never_overtaken_by_a_zero_delay_one() {
        let slow = ChannelConfig::ideal(SimDuration::from_micros(300));
        for lane in [ConnId::to_switch(DpId(1)), ConnId::to_controller(DpId(1))] {
            let mut t = zero_delay_transport(2);
            for i in 0..50u32 {
                t.set_conn_config(lane, slow);
                t.send(DpId(1), &echo(2 * i)).unwrap();
                t.clear_conn_config(lane);
                t.send(DpId(1), &barrier(2 * i + 1)).unwrap();
                assert_eq!(
                    reply_xids(&t, 2),
                    [Xid(2 * i), Xid(2 * i + 1)],
                    "overtaken on {lane:?}"
                );
            }
            t.shutdown();
        }
    }

    #[test]
    fn disconnect_severs_what_either_lane_still_holds() {
        let slow = ChannelConfig::ideal(SimDuration::from_millis(50));
        for lane in [ConnId::to_switch(DpId(1)), ConnId::to_controller(DpId(1))] {
            let mut t = zero_delay_transport(1);
            t.set_conn_config(lane, slow);
            t.send(DpId(1), &barrier(1)).unwrap();
            t.disconnect(DpId(1)).unwrap();
            t.clear_conn_config(lane);
            t.reconnect(DpId(1)).unwrap();
            spin_until("the stale frame was severed", || {
                t.transport_stats().severed == 1
            });
            // The new session works, and the old frame never shows up.
            t.send(DpId(1), &barrier(2)).unwrap();
            assert_eq!(reply_xids(&t, 1), [Xid(2)], "on {lane:?}");
            assert!(t.try_recv().is_none());
            t.shutdown();
        }
    }

    #[test]
    fn a_seed_fixes_the_fault_pattern() {
        // Requests ride an ideal lane (no RNG draws), so the planner's
        // draws are exactly the replies', in order, whichever thread
        // plans them. The expected counts were taken at the commit
        // before the fast path existed.
        let mut t = EventLoopTransport::spawn_with(
            vec![SoftSwitch::new(DpId(1), 4)],
            ChannelConfig::ideal(SimDuration::ZERO),
            29,
            EventLoopConfig {
                workers: 1,
                time_scale: 0.001,
            },
        );
        t.set_conn_config(
            ConnId::to_controller(DpId(1)),
            ChannelConfig::lossy(0.1)
                .with_duplication(0.1)
                .with_corruption(0.1),
        );
        for i in 0..400 {
            t.send(DpId(1), &barrier(i)).unwrap();
        }
        spin_until("every reply was planned", || {
            t.transport_stats().sent == 800
        });
        let s = t.transport_stats();
        assert_eq!(
            (s.sent, s.dropped, s.duplicated, s.corrupted, s.delivered),
            (800, 36, 42, 38, 806)
        );
        t.shutdown();
    }

    /// Several senders against one receiver, every round released by a
    /// `Barrier` so pushes race the poller, the workers and the
    /// receiver going to sleep. Half the connections deliver on the
    /// sender's thread, half through heap, poller and worker pool.
    fn barrier_storm(workers: usize) {
        const SENDERS: u64 = 4;
        const CONNS_EACH: u64 = 4;
        const ROUNDS: u32 = 300;
        let switches = (1..=SENDERS * CONNS_EACH)
            .map(|i| SoftSwitch::new(DpId(i), 4))
            .collect();
        let mut t = EventLoopTransport::spawn_with(
            switches,
            ChannelConfig::ideal(SimDuration::ZERO),
            17,
            EventLoopConfig {
                workers,
                time_scale: 1.0,
            },
        );
        let timed = ChannelConfig::ideal(SimDuration::from_micros(1));
        for i in (1..=SENDERS * CONNS_EACH).step_by(2) {
            t.set_conn_config(ConnId::to_switch(DpId(i)), timed);
            t.set_conn_config(ConnId::to_controller(DpId(i)), timed);
        }
        let t = &t;
        let gate = &std::sync::Barrier::new(SENDERS as usize + 1);
        let mut slow_rounds = 0;
        thread::scope(|s| {
            for k in 0..SENDERS {
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        gate.wait();
                        for c in 1..=CONNS_EACH {
                            t.send(DpId(k * CONNS_EACH + c), &barrier(round)).unwrap();
                        }
                    }
                });
            }
            for round in 0..ROUNDS {
                gate.wait();
                let started = Instant::now();
                for _ in 0..SENDERS * CONNS_EACH {
                    let r = t
                        .recv_timeout(Duration::from_secs(5))
                        .expect("every barrier is answered");
                    assert_eq!(r.env, Envelope::new(Xid(round), OfMessage::BarrierReply));
                }
                // A push that fails to wake a parked poller or worker
                // is rescued by IDLE_PARK, on average half of it later.
                if started.elapsed() > IDLE_PARK / 4 {
                    slow_rounds += 1;
                }
            }
        });
        assert!(
            slow_rounds < ROUNDS / 2,
            "{slow_rounds} of {ROUNDS} rounds waited out an idle park: wake-ups are being lost"
        );
    }

    #[test]
    fn no_wake_up_is_lost_with_one_worker() {
        barrier_storm(1);
    }

    #[test]
    fn no_wake_up_is_lost_with_four_workers() {
        barrier_storm(4);
    }
}
