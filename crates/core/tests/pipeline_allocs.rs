//! Allocation budget of update preparation on the dense switch index:
//! building the instance, applying operations to a configuration,
//! Peacock's schedule and its `transiently_secure()` verification, all
//! on `gen::reversal(256)` — the shape of the `reversal_wide` workload —
//! and the `loop_free_strong()` verification of SLF-greedy's 254-round
//! schedule of the same reversal.
//!
//! A counting global allocator counts the calling thread's allocations
//! and reallocations, and the bytes they ask for. Measured in a release build, beside the ordered-
//! map model the dense switch index replaced (`ec97f94`); the SLF row's
//! last column is the per-round choice-graph rebuild (`0dcebe9`) that
//! the cross-round session replaced. (At `e42016c`, before the session and
//! the walk check kept their per-round buffers across rounds,
//! Peacock's schedule took 143 and the SLF verification 1321.) The
//! verification rows were re-measured when the choice graph's searches
//! replaced the decision tree as the walk check.
//!
//! | stage                            | budget | measured | before  |
//! |----------------------------------|--------|----------|---------|
//! | `UpdateInstance::new`            | 16     | 3        | 211     |
//! | `ConfigState::apply` × 255       | 0      | 0        | 42      |
//! | `Peacock::schedule`              | 279    | 97       | 279     |
//! | `verify_schedule`, passing       | 64     | 10       | 514     |
//! | `verify_schedule`, SLF-greedy    | 1600   | 37       | 220 483 |
//!
//! Bytes asked for, on SLF-greedy's 126-round schedule of
//! `gen::reversal(128)` (the `reversal_deep` shape) verified for the
//! walk properties, beside the per-round tables of every switch that
//! the walk check's kept buffers replaced (`e42016c`):
//!
//! | stage                            | budget       | measured | before  |
//! |----------------------------------|--------------|----------|---------|
//! | `verify_schedule`, 126 rounds    | 128 × rounds | 7824     | 456 827 |

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use update_core::algorithms::{Peacock, SlfGreedy, UpdateScheduler};
use update_core::checker::verify_schedule;
use update_core::config::ConfigState;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;
use update_core::schedule::RuleOp;

struct Counting;

thread_local! {
    // const-initialised and without a destructor: touching them from
    // inside the allocator neither allocates nor recurses
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: a pass-through to the system allocator; counting touches only
// a const thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// `f`'s result and the bytes the calling thread asked the allocator
/// for in it (a reallocation counts its new size).
fn alloc_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Switches of the `reversal_wide` reversal.
const N: u64 = 256;

fn reversal() -> UpdateInstance {
    let pair = sdn_topo::gen::reversal(N);
    UpdateInstance::new(pair.old, pair.new, None).unwrap()
}

#[test]
fn building_the_instance_allocates_at_most_16_times() {
    let pair = sdn_topo::gen::reversal(N);
    let (inst, n) = allocs(move || UpdateInstance::new(pair.old, pair.new, None));
    assert_eq!(inst.unwrap().node_count(), N as usize);
    assert!(n <= 16, "{n} allocations to build the instance");
}

#[test]
fn applying_operations_allocates_nothing() {
    let inst = reversal();
    let ops: Vec<RuleOp> = (1..N)
        .map(|v| RuleOp::Activate(sdn_types::DpId(v)))
        .collect();
    let mut config = ConfigState::initial(&inst);
    let ((), n) = allocs(|| config.apply_all(&ops));
    assert!(config.is_activated(sdn_types::DpId(N - 1)));
    assert_eq!(n, 0, "applying {} operations allocated", ops.len());
}

#[test]
fn peacock_schedules_within_the_ordered_map_budget() {
    let inst = reversal();
    let (schedule, n) = allocs(|| Peacock::default().schedule(&inst));
    assert!(schedule.unwrap().round_count() >= 2);
    assert!(n <= 279, "{n} allocations to schedule");
}

#[test]
fn verifying_a_passing_schedule_allocates_at_most_64_times() {
    let inst = reversal();
    let schedule = Peacock::default().schedule(&inst).unwrap();
    let (report, n) =
        allocs(|| verify_schedule(&inst, &schedule, PropertySet::transiently_secure()));
    assert!(report.is_ok(), "{report}");
    assert!(n <= 64, "{n} allocations to verify");
}

#[test]
fn verifying_an_slf_schedule_allocates_at_most_1600_times() {
    let inst = reversal();
    let schedule = SlfGreedy.schedule(&inst).unwrap();
    let (report, n) = allocs(|| verify_schedule(&inst, &schedule, PropertySet::loop_free_strong()));
    assert!(report.is_ok(), "{report}");
    assert!(n <= 1600, "{n} allocations to verify");
}

/// SLF-greedy's 126 one-switch rounds of `gen::reversal(128)`, the
/// `reversal_deep` shape, checked for the walk properties: the walk
/// check's tables are kept across the rounds, so verification asks for
/// a few bytes per round (7824 in all) where a table of every switch
/// per round asked for 456 827.
#[test]
fn verifying_one_switch_rounds_allocates_per_round_not_per_switch() {
    let pair = sdn_topo::gen::reversal(128);
    let inst = UpdateInstance::new(pair.old, pair.new, None).unwrap();
    let schedule = SlfGreedy.schedule(&inst).unwrap();
    let rounds = schedule.round_count() as u64;
    let props = PropertySet::transiently_secure();
    let (report, bytes) = alloc_bytes(|| verify_schedule(&inst, &schedule, props));
    assert!(report.is_ok(), "{report}");
    assert!(
        bytes <= 128 * rounds,
        "{bytes} bytes to verify {rounds} rounds"
    );
}
