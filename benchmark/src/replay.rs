//! Isolated replays: unit costs of layers the driver never calls
//! directly (they run inside `send` or on the transport's threads).
//!
//! The traced pass captures a sample of the envelopes it sent and
//! received; afterwards each layer's public function is timed on that
//! sample, single-threaded, with nothing else running. Unit cost ×
//! count per update is the layer's attributed share.

use std::hint::black_box;
use std::time::Instant;

use sdn_ctrl::compile::CompiledUpdate;
use sdn_ctrl::runtime::{JobId, Journal, JournalRecord, Priority, TenantId};
use sdn_obs::{Event, EventKind, Obs};
use sdn_openflow::{codec, Envelope, FrameCodec};
use sdn_switch::SoftSwitch;
use sdn_types::{DpId, SimTime};

use crate::alloc;
use crate::gate::index_by_dpid;
use crate::stats::{mean, per};

/// Unit costs measured off the hot path.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// `codec::encode`, controller→switch envelopes.
    pub encode_ns_per_msg: f64,
    /// Allocator calls per `codec::encode`.
    pub allocs_per_encode: f64,
    /// `codec::decode`, both directions.
    pub decode_ns_per_msg: f64,
    /// `FrameCodec::feed` + `next_frame`, both directions.
    pub frame_feed_ns_per_msg: f64,
    /// `SoftSwitch::handle_control` on the message's own switch.
    pub apply_ns_per_msg: f64,
    /// Rules per switch table at the end of the pass.
    pub table_rules_mean: f64,
    /// `Journal::mem().append`, one update's worth of records.
    pub journal_append_ns_per_rec: f64,
    /// `Obs::recording().emit`.
    pub emit_ns_per_event: f64,
    /// Mean encoded size of a sent envelope, bytes.
    pub sent_frame_bytes: f64,
    /// Mean encoded size of a received envelope, bytes.
    pub recv_frame_bytes: f64,
}

/// Repetitions of each replay; the fastest is reported, as the one
/// least disturbed by the sandbox's other tenants.
const REPEATS: usize = 5;

/// Fastest of [`REPEATS`] timings of `f`, per item, in nanoseconds.
fn best_ns_per(items: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0);
    per(best as f64, items as u64)
}

/// Time every replay over what the traced pass captured.
pub fn run(
    sent: &[(DpId, Envelope)],
    received: &[(DpId, Envelope)],
    switches: &[SoftSwitch],
    compiled: Option<&CompiledUpdate>,
) -> UnitCosts {
    let encode_ns_per_msg = best_ns_per(sent.len(), || {
        for (_, env) in sent {
            black_box(codec::encode(black_box(env)));
        }
    });
    let (calls0, _) = alloc::thread_counts();
    for (_, env) in sent {
        black_box(codec::encode(black_box(env)));
    }
    let allocs_per_encode = per(
        (alloc::thread_counts().0 - calls0) as f64,
        sent.len() as u64,
    );

    let frames = |envs: &[(DpId, Envelope)]| -> Vec<Vec<u8>> {
        envs.iter()
            .map(|(_, e)| codec::encode(e).to_vec())
            .collect()
    };
    let (sent_frames, recv_frames) = (frames(sent), frames(received));
    let lens = |fs: &[Vec<u8>]| mean(&fs.iter().map(|f| f.len() as f64).collect::<Vec<_>>());
    let all_frames: Vec<&Vec<u8>> = sent_frames.iter().chain(&recv_frames).collect();

    let decode_ns_per_msg = best_ns_per(all_frames.len(), || {
        for frame in &all_frames {
            black_box(codec::decode(black_box(frame)).expect("own encoding decodes"));
        }
    });
    let frame_feed_ns_per_msg = best_ns_per(all_frames.len(), || {
        let mut rx = FrameCodec::new();
        for frame in &all_frames {
            rx.feed(black_box(frame));
            black_box(rx.next_frame().expect("own encoding reassembles"));
        }
    });

    // each message against a copy of the switch it was addressed to,
    // so the table it meets is the size the workload left it
    let index = index_by_dpid(switches);
    let addressed: Vec<(usize, &Envelope)> = sent
        .iter()
        .filter_map(|(dp, env)| Some((*index.get(dp)?, env)))
        .collect();
    let mut best = u64::MAX;
    for _ in 0..REPEATS {
        let mut copies = switches.to_vec();
        let batch: Vec<(usize, Envelope)> =
            addressed.iter().map(|&(i, e)| (i, e.clone())).collect();
        let t = Instant::now();
        for (i, env) in batch {
            black_box(copies[i].handle_control(env));
        }
        best = best.min(t.elapsed().as_nanos() as u64);
    }

    let journal_append_ns_per_rec = compiled.map_or(0.0, |update| {
        // what a runtime journals for one update: admission (which
        // carries the whole compiled update), start, a commit per
        // round, completion
        let id = JobId(1);
        let at = SimTime(1);
        let mut records = vec![
            JournalRecord::Admitted {
                id,
                update: update.clone(),
                priority: Priority::Normal,
                tenant: TenantId(0),
                deadline: None,
                at,
            },
            JournalRecord::Started { id, at },
        ];
        records.extend(
            (0..update.round_count()).map(|round| JournalRecord::RoundCommitted { id, round, at }),
        );
        records.push(JournalRecord::Completed { id, at });
        const UPDATES: usize = 200;
        best_ns_per(UPDATES * records.len(), || {
            let mut journal = Journal::mem();
            for _ in 0..UPDATES {
                for rec in &records {
                    journal.append(black_box(rec));
                }
            }
            black_box(journal.len());
        })
    });

    const EVENTS: usize = 20_000;
    let emit_ns_per_event = best_ns_per(EVENTS, || {
        let obs = Obs::recording();
        for i in 0..EVENTS as u64 {
            // 16 events per span, about what one update emits
            obs.emit(black_box(
                Event::new(SimTime(i), EventKind::FlowModSend).span(i / 16),
            ));
        }
    });

    UnitCosts {
        encode_ns_per_msg,
        allocs_per_encode,
        decode_ns_per_msg,
        frame_feed_ns_per_msg,
        apply_ns_per_msg: per(best as f64, addressed.len() as u64),
        table_rules_mean: mean(
            &switches
                .iter()
                .map(|s| s.table().len() as f64)
                .collect::<Vec<_>>(),
        ),
        journal_append_ns_per_rec,
        emit_ns_per_event,
        sent_frame_bytes: lens(&sent_frames),
        recv_frame_bytes: lens(&recv_frames),
    }
}
