//! Allocation budget of update preparation on the dense switch index:
//! building the instance, applying operations to a configuration,
//! Peacock's schedule and its `transiently_secure()` verification, all
//! on `gen::reversal(256)` — the shape of the `reversal_wide` workload.
//!
//! A counting global allocator counts the calling thread's allocations
//! and reallocations. Measured in a release build, beside the ordered-
//! map model the dense switch index replaced (`ec97f94`):
//!
//! | stage                            | budget | measured | ordered maps |
//! |----------------------------------|--------|----------|--------------|
//! | `UpdateInstance::new`            | 16     | 3        | 211          |
//! | `ConfigState::apply` × 255       | 0      | 0        | 42           |
//! | `Peacock::schedule`              | 279    | 143      | 279          |
//! | `verify_schedule`, passing       | 64     | 19       | 514          |

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use update_core::algorithms::{Peacock, UpdateScheduler};
use update_core::checker::verify_schedule;
use update_core::config::ConfigState;
use update_core::model::UpdateInstance;
use update_core::properties::PropertySet;
use update_core::schedule::RuleOp;

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
