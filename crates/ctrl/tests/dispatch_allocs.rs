//! Allocation budget of the per-message path, the regression guard for
//! the flat dispatch state (one slot per switch of a round, the
//! xid-indexed route table, one output buffer per call).
//!
//! A counting global allocator counts the calling thread's allocations
//! and reallocations. After one job of the same shape has warmed the
//! runtime up (RTO samples, route ring, buffers):
//!
//! * a barrier reply that completes no round allocates nothing;
//! * an idle `poll` allocates nothing;
//! * the reply that completes a round and dispatches the next one's k
//!   FlowMods allocates at most k + 2 times — the FlowMod clones, the
//!   caller's output buffer and the executor's slot list growing;
//! * a job's whole life — launch, first-round dispatch, reap — costs
//!   the same at k = 96 switches as at k = 24 but for the 72 extra
//!   FlowMod clones: admitting a job to the conflict index and retiring
//!   it reuse the per-switch holder lists the warm-up left behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdn_ctrl::compile::{CompiledRound, CompiledUpdate};
use sdn_ctrl::runtime::{ConcurrentRuntime, Priority, RuntimeConfig, RuntimeHandle};
use sdn_ctrl::CtrlOutput;
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{DpId, HostId, PortNo, SimDuration, SimTime};

struct Counting;

thread_local! {
    // const-initialised and without a destructor: touching it from
    // inside the allocator neither allocates nor recurses
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pass-through to the system allocator; counting touches only
// a const thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations the calling thread made in it.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Switches of the wide round.
const K: u64 = 24;

/// Round 0 fences switch 1; round 1 writes K switches (FlowMods with an
/// action list, so each clone allocates once).
fn update(label: &str) -> CompiledUpdate {
    CompiledUpdate {
        label: label.into(),
        rounds: vec![round(1..2), round(10..10 + K)],
    }
}

/// One round writing the switches `dps`.
fn round(dps: std::ops::Range<u64>) -> CompiledRound {
    let fm = OfMessage::FlowMod(FlowMod {
        command: FlowModCommand::Add,
        priority: 100,
        matcher: FlowMatch::dst_host(HostId(7)),
        actions: vec![Action::Output(PortNo(1))],
        cookie: 0,
    });
    CompiledRound {
        msgs: dps.map(|d| (DpId(d), fm.clone())).collect(),
        pre_delay: SimDuration::ZERO,
    }
}

fn barriers(out: &[CtrlOutput]) -> Vec<(DpId, Envelope)> {
    out.iter()
        .filter_map(|CtrlOutput::Send(dp, env)| {
            let reply = Envelope::new(env.xid, OfMessage::BarrierReply);
            (env.msg == OfMessage::BarrierRequest).then_some((*dp, reply))
        })
        .collect()
}

fn us(n: u64) -> SimTime {
    SimTime(0) + SimDuration::from_micros(n)
}

/// A runtime warmed up by one complete job, with a second one launched:
/// returns it and the second job's round-0 barrier reply.
fn warmed() -> (ConcurrentRuntime, (DpId, Envelope)) {
    let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
    let _ = rt.submit(update("warm-up"), us(0), Priority::Normal);
    let mut pending = barriers(&rt.poll(us(0)));
    while let Some((dp, reply)) = pending.pop() {
        pending.extend(barriers(&rt.on_message(us(1), dp, &reply)));
    }
    assert!(rt.is_idle(), "the warm-up job ran to completion");
    let _ = rt.submit(update("measured"), us(2), Priority::Normal);
    let round0 = barriers(&rt.poll(us(2)));
    assert_eq!(round0.len(), 1);
    (rt, round0[0].clone())
}

#[test]
fn a_round_dispatch_of_k_flowmods_allocates_at_most_k_plus_two_times() {
    let (mut rt, (dp, reply)) = warmed();
    let (out, n) = allocs(|| rt.on_message(us(3), dp, &reply));
    let flowmods = out
        .iter()
        .filter(|CtrlOutput::Send(_, env)| matches!(env.msg, OfMessage::FlowMod(_)))
        .count();
    assert_eq!((flowmods, barriers(&out).len()), (K as usize, K as usize));
    assert!(n <= K + 2, "{n} allocations for a {K}-FlowMod dispatch");
}

#[test]
fn a_barrier_reply_that_completes_no_round_allocates_nothing() {
    let (mut rt, (dp, reply)) = warmed();
    let round1 = barriers(&rt.on_message(us(3), dp, &reply));
    for (dp, reply) in &round1[..round1.len() - 1] {
        let (out, n) = allocs(|| rt.on_message(us(4), *dp, reply));
        assert!(out.is_empty());
        assert_eq!(n, 0, "a plain barrier reply allocated");
    }
}

#[test]
fn an_idle_poll_allocates_nothing() {
    let (mut rt, (dp, reply)) = warmed();
    rt.on_message(us(3), dp, &reply);
    for t in 4..64 {
        let (out, n) = allocs(|| rt.poll(us(t)));
        assert!(out.is_empty());
        assert_eq!(n, 0, "an idle poll allocated");
    }
}

/// One round writing switches `10..10 + k`.
fn wide(label: &str, k: u64) -> CompiledUpdate {
    CompiledUpdate {
        label: label.into(),
        rounds: vec![round(10..10 + k)],
    }
}

/// Allocations of one k-switch job's life on a runtime warmed up by a
/// job of the same shape: submit, the poll that launches it and
/// dispatches its round, and the k barrier replies whose last reaps it.
/// The replies are built outside the counted calls.
fn life_of_a_wide_job(k: u64) -> u64 {
    let mut rt = ConcurrentRuntime::new(RuntimeConfig::default());
    let mut total = 0;
    for (i, label) in ["warm-up", "measured"].into_iter().enumerate() {
        let t = 10 * i as u64;
        let job = wide(label, k);
        let (_, n_submit) = allocs(|| rt.submit(job, us(t), Priority::Normal));
        let (out, n_poll) = allocs(|| rt.poll(us(t)));
        let replies = barriers(&out);
        assert_eq!(replies.len(), k as usize);
        total = n_submit + n_poll;
        for (dp, reply) in &replies {
            total += allocs(|| rt.on_message(us(t + 1), *dp, reply)).1;
        }
        assert!(rt.is_idle(), "{label} job reaped");
    }
    total
}

#[test]
fn a_wide_job_costs_only_its_extra_flowmod_clones_more() {
    let (narrow, wide) = (life_of_a_wide_job(24), life_of_a_wide_job(96));
    assert_eq!(
        wide.checked_sub(narrow),
        Some(96 - 24),
        "k = 24: {narrow} allocations, k = 96: {wide}"
    );
}
