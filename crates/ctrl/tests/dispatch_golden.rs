//! Golden dispatch trace: the same decisions, in the same order.
//!
//! One scripted [`ConcurrentRuntime`] scenario, written against the
//! public API only, whose every observable output is folded into an
//! FNV-1a digest: each `CtrlOutput` (time, switch, xid, encoded frame)
//! in emission order, every `UpdateReport` in report order, and the
//! final `stats()`. The expected digests were recorded by running this
//! file at commit `044785c`, before the dispatcher's bookkeeping was
//! re-indexed; a change that reorders a launch, a reap, a
//! retransmission or an xid allocation moves them. (Two spellings are
//! folded back, see `recorded_spelling` and `recorded_stats_spelling`:
//! a type in the reports' `Debug` text and fields of the stats changed
//! since, no decision did.) The ack-mode digest was re-recorded once,
//! when ack mode began to finish a switch on its echo replies alone and
//! to resend a payload as soon as a barrier reply overtook its echo
//! (`0x0d31_09e7_8c20_f739` → `0x38b3_f6bc_ec46_dde9`); the barrier-only
//! digest is the one recorded at `044785c`.
//!
//! The script: 120 jobs over 24 switches in two priority lanes, drawn
//! from five destination hosts (plus a few wildcard matches) so jobs
//! conflict and wait; two thirds end in a cleanup round behind a 5 ms
//! `pre_delay`; replies come from real [`SoftSwitch`]es through a
//! seeded channel that drops ≈ 10 % and delays ≈ 6 % far past the
//! learned RTO (adaptive retransmissions, stragglers); switch 13 never
//! answers until it reconnects at 600 ms (exhaustion → strikes →
//! quarantine → abort of the jobs still waiting on it → fail-fast at
//! launch → resync audit), after which a last batch runs through it.
//! `poll` is called every virtual millisecond.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use sdn_ctrl::compile::{CompiledRound, CompiledUpdate};
use sdn_ctrl::executor::ExecConfig;
use sdn_ctrl::runtime::{
    ConcurrentRuntime, RetransMode, RtoConfig, RuntimeConfig, RuntimeHandle, RuntimeStats,
    SubmitRequest,
};
use sdn_ctrl::{CtrlOutput, FailReason, UpdateReport};
use sdn_openflow::codec;
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_switch::SoftSwitch;
use sdn_types::{DetRng, DpId, HostId, PortNo, SimDuration, SimTime};

const SWITCHES: u64 = 24;
const DEAD: DpId = DpId(13);
const RECONNECT_MS: u64 = 600;
const MS: u64 = 1_000_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn flowmod(command: FlowModCommand, dst: Option<u32>) -> OfMessage {
    OfMessage::FlowMod(FlowMod {
        command,
        priority: 100,
        matcher: dst.map_or(FlowMatch::ANY, |h| FlowMatch::dst_host(HostId(h))),
        actions: match command {
            FlowModCommand::Add => vec![Action::Output(PortNo(1))],
            _ => vec![],
        },
        cookie: 0,
    })
}

/// One scripted job: 2–4 switches, an install round, a rewrite round
/// over half of them and (two jobs in three) a delayed cleanup round.
fn scripted_job(i: u64, rng: &mut DetRng, through_dead: bool) -> SubmitRequest {
    let mut dps: Vec<u64> = (1..=SWITCHES).filter(|&d| d != DEAD.0).collect();
    rng.shuffle(&mut dps);
    dps.truncate(2 + rng.index(3));
    if through_dead || rng.chance(0.12) {
        dps[0] = DEAD.0;
    }
    let dst = 1 + rng.index(5) as u32;
    let wildcard_at = rng.chance(0.06).then(|| rng.index(dps.len()));
    let class = |k: usize| (wildcard_at != Some(k)).then_some(dst);
    let mut rounds = vec![
        CompiledRound {
            msgs: dps
                .iter()
                .enumerate()
                .map(|(k, &d)| (DpId(d), flowmod(FlowModCommand::Add, class(k))))
                .collect(),
            pre_delay: SimDuration::ZERO,
        },
        CompiledRound {
            msgs: dps
                .iter()
                .enumerate()
                .take(dps.len() / 2 + 1)
                .map(|(k, &d)| (DpId(d), flowmod(FlowModCommand::Add, class(k))))
                .collect(),
            pre_delay: SimDuration::ZERO,
        },
    ];
    if !i.is_multiple_of(3) {
        let k = dps.len() - 1;
        rounds.push(CompiledRound {
            msgs: vec![(DpId(dps[k]), flowmod(FlowModCommand::Delete, class(k)))],
            pre_delay: SimDuration::from_millis(5),
        });
    }
    let req = SubmitRequest::new(CompiledUpdate {
        label: format!("g{i}"),
        rounds,
    });
    if i.is_multiple_of(7) {
        req.high_priority()
    } else {
        req
    }
}

/// The seeded world around the runtime: real switches, a lossy and
/// occasionally very slow reply path, one switch that is unplugged.
struct Net {
    switches: BTreeMap<DpId, SoftSwitch>,
    rng: DetRng,
    /// Replies in flight, by (delivery ns, send order).
    replies: BinaryHeap<Reverse<(u64, u64, u64)>>,
    payloads: BTreeMap<u64, Envelope>,
    seq: u64,
    dead_plugged: bool,
    digest: Fnv,
}

impl Net {
    fn send(&mut self, now: SimTime, outs: Vec<CtrlOutput>) {
        for CtrlOutput::Send(dp, env) in outs {
            self.digest.u64(now.0);
            self.digest.u64(dp.0);
            self.digest.u64(u64::from(env.xid.0));
            self.digest.bytes(&codec::encode(&env));
            if dp == DEAD && !self.dead_plugged {
                continue;
            }
            let sw = self.switches.get_mut(&dp).expect("scripted switch");
            for reply in sw.handle_control(env) {
                if self.rng.chance(0.10) {
                    continue;
                }
                let delay = if self.rng.chance(0.06) {
                    self.rng.range_u64(8 * MS, 25 * MS)
                } else {
                    self.rng.range_u64(300_000, 1_200_000)
                };
                self.seq += 1;
                self.payloads.insert(self.seq, reply);
                self.replies.push(Reverse((now.0 + delay, self.seq, dp.0)));
            }
        }
    }

    /// Deliver every reply due by `until`, in delivery order; replies
    /// to what those deliveries send may fall due too.
    fn deliver(&mut self, rt: &mut ConcurrentRuntime, until: SimTime) {
        while let Some(&Reverse((at, seq, dp))) = self.replies.peek() {
            if at > until.0 {
                break;
            }
            self.replies.pop();
            let env = self.payloads.remove(&seq).expect("queued with its payload");
            let outs = rt.on_message(SimTime(at), DpId(dp), &env);
            self.send(SimTime(at), outs);
        }
    }
}

/// A report's `Debug` text as it read when the digests were recorded:
/// `FailReason::Exhausted` then carried an `Option<DpId>` (`None` was
/// the serial controller's, which is gone), so the culprit is folded in
/// as `Some(..)`. The type changed; no dispatch decision did.
fn recorded_spelling(r: &UpdateReport) -> String {
    let text = format!("{r:?}");
    match text.split_once("Exhausted(") {
        Some((head, tail)) => {
            let (dp, rest) = tail.split_once("))").expect("Exhausted(DpId(..))");
            format!("{head}Exhausted(Some({dp}))){rest}")
        }
        None => text,
    }
}

/// The stats' `Debug` text as it read when the digests were recorded:
/// `RuntimeStats` then had a `displaced` counter after `rejected` (the
/// drop-oldest admission policy's, which is gone) and two seat-migration
/// counters after `recoveries` (live seat migration's, which is gone),
/// all 0 in this script: a single runtime has no seats to move.
fn recorded_stats_spelling(stats: &RuntimeStats) -> String {
    let text = format!("{stats:?}");
    let (head, tail) = text.split_once("completed: ").expect("a completed field");
    let tail = tail.strip_suffix(" }").expect("a struct");
    format!("{head}displaced: 0, completed: {tail}, migrations: 0, migration_aborts: 0 }}")
}

fn run_script(flowmod_acks: bool) -> u64 {
    let mut rt = ConcurrentRuntime::new(RuntimeConfig {
        exec: ExecConfig {
            max_attempts: 4,
            flowmod_acks,
            ..ExecConfig::default()
        },
        queue_capacity: 256,
        max_active: 12,
        retrans: RetransMode::Adaptive(RtoConfig {
            initial: SimDuration::from_millis(10),
            min: SimDuration::from_millis(2),
            max: SimDuration::from_millis(200),
            straggler_attempts: 2,
        }),
        quarantine_strikes: 2,
        resync_probe_timeout: SimDuration::from_millis(20),
        resync_attempts: 3,
        ..RuntimeConfig::default()
    });
    let mut jobs_rng = DetRng::new(0x5eed_0017);
    // (submit ms, request): a 40 ms burst of 112, then 8 through the
    // reconnected switch
    let mut script: Vec<(u64, SubmitRequest)> = (0..112)
        .map(|i| (i / 3, scripted_job(i, &mut jobs_rng, false)))
        .collect();
    script.extend((112..120).map(|i| {
        (
            RECONNECT_MS + 50 + i % 4,
            scripted_job(i, &mut jobs_rng, true),
        )
    }));
    let total = script.len();
    let mut script = script.into_iter().peekable();
    let mut net = Net {
        switches: (1..=SWITCHES)
            .map(|d| (DpId(d), SoftSwitch::new(DpId(d), 8)))
            .collect(),
        rng: DetRng::new(0x5eed_0018),
        replies: BinaryHeap::new(),
        payloads: BTreeMap::new(),
        seq: 0,
        dead_plugged: false,
        digest: Fnv::new(),
    };
    let mut t_ms = 0;
    loop {
        let now = SimTime(t_ms * MS);
        net.deliver(&mut rt, now);
        if t_ms == RECONNECT_MS {
            net.dead_plugged = true;
            let outs = rt.on_reconnect(DEAD, now);
            net.send(now, outs);
        }
        while let Some((_, req)) = script.next_if(|(at, _)| *at <= t_ms) {
            rt.submit_request(req, now)
                .expect("queue sized to the script");
        }
        let outs = rt.poll(now);
        net.send(now, outs);
        if script.peek().is_none() && rt.is_idle() && net.replies.is_empty() {
            break;
        }
        t_ms += 1;
        assert!(t_ms < 5_000, "script did not drain");
    }

    // the script covers what the header says it covers
    let stats = rt.stats();
    let reports = rt.reports();
    assert_eq!(reports.len(), total);
    assert_eq!(stats.completed + stats.failed, total as u64);
    assert_eq!(stats.peak_active, 12, "the parallelism cap was reached");
    assert!(stats.completed >= 80, "{stats:?}");
    assert!(stats.retransmissions >= 50, "{stats:?}");
    assert!(stats.stragglers >= 1, "{stats:?}");
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    assert_eq!((stats.reconnects, stats.resyncs), (1, 1), "{stats:?}");
    assert!(stats.resynced_rules >= 1, "{stats:?}");
    let failed_with = |want: FailReason, launched: bool| {
        reports
            .iter()
            .filter(|r| r.failure == Some(want) && r.rounds.is_empty() != launched)
            .count()
    };
    assert!(failed_with(FailReason::Exhausted(DEAD), true) >= 2);
    assert!(
        failed_with(FailReason::Quarantined(DEAD), true) >= 1,
        "a job waiting on the quarantined switch was aborted"
    );
    assert!(
        failed_with(FailReason::Quarantined(DEAD), false) >= 1,
        "a queued job failed fast at launch"
    );
    assert!(
        reports
            .iter()
            .filter(|r| r.started > r.submitted + SimDuration::from_millis(20))
            .count()
            >= 20,
        "blocked jobs waited"
    );
    let revived = |r: &&UpdateReport| r.label[1..].parse::<u64>().unwrap() >= 112;
    assert!(
        reports
            .iter()
            .filter(revived)
            .all(|r| r.completed.is_some()),
        "the post-reconnect batch ran through the revived switch"
    );

    for r in reports {
        net.digest.bytes(recorded_spelling(r).as_bytes());
    }
    net.digest.bytes(recorded_stats_spelling(&stats).as_bytes());
    net.digest.0
}

#[test]
fn golden_dispatch_trace_barrier_only() {
    let got = run_script(false);
    assert_eq!(got, 0xf0e8_39bb_b4f2_4974, "digest now {got:#018x}");
}

#[test]
fn golden_dispatch_trace_with_flowmod_acks() {
    let got = run_script(true);
    assert_eq!(got, 0x38b3_f6bc_ec46_dde9, "digest now {got:#018x}");
}
