//! Allocation budget of the codec, the guard for writing and reading the
//! message model directly.
//!
//! A counting global allocator counts the calling thread's allocations
//! and reallocations:
//!
//! * `try_encode_into` into a buffer with room allocates nothing, for a
//!   3-action FlowMod as for a barrier;
//! * `decode` allocates only what the decoded value owns: once for a
//!   FlowMod's action list, once for an echo payload, never for a
//!   barrier reply;
//! * `encode` allocates at most twice for each of the five message
//!   kinds — its buffer, sized once, and the `freeze`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdn_openflow::codec::{decode, encode, try_encode_into, BytesMut};
use sdn_openflow::flow::{Action, FlowMatch};
use sdn_openflow::messages::{Envelope, FlowMod, FlowModCommand, OfMessage};
use sdn_types::{HostId, PortNo, VersionTag, Xid};

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

fn flow_mod() -> Envelope {
    Envelope::new(
        Xid(7),
        OfMessage::FlowMod(FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            matcher: FlowMatch::dst_host_tagged(HostId(2), VersionTag::NEW),
            actions: vec![Action::StripTag, Action::Drop, Action::Output(PortNo(3))],
            cookie: 0xabcd,
        }),
    )
}

#[test]
fn encoding_into_a_buffer_with_room_allocates_nothing() {
    let mut buf = BytesMut::with_capacity(1024);
    for env in [flow_mod(), Envelope::new(Xid(8), OfMessage::BarrierRequest)] {
        buf.clear();
        let (r, n) = allocs(|| try_encode_into(&env, &mut buf));
        assert_eq!(r, Ok(()));
        assert_eq!(n, 0, "{} allocated", env.msg.kind());
        assert_eq!(&buf[..], &encode(&env)[..]);
    }
}

#[test]
fn decoding_allocates_only_what_the_value_owns() {
    let cases = [
        (flow_mod(), 1),
        (
            Envelope::new(Xid(9), OfMessage::EchoReply(vec![1, 2, 3])),
            1,
        ),
        (Envelope::new(Xid(9), OfMessage::BarrierReply), 0),
    ];
    for (env, want) in cases {
        let frame = encode(&env);
        let (back, n) = allocs(|| decode(&frame));
        assert_eq!(back.as_ref(), Ok(&env));
        assert_eq!(n, want, "decoding a {}", env.msg.kind());
    }
}

#[test]
fn encode_allocates_at_most_twice_for_every_kind() {
    let data = vec![0xab; 40];
    let msgs = [
        flow_mod().msg,
        OfMessage::BarrierRequest,
        OfMessage::BarrierReply,
        OfMessage::EchoRequest(data.clone()),
        OfMessage::EchoReply(data),
    ];
    for msg in msgs {
        let env = Envelope::new(Xid(1), msg);
        let (_, n) = allocs(|| encode(&env));
        assert!(n <= 2, "encoding a {} allocated {n} times", env.msg.kind());
    }
}
