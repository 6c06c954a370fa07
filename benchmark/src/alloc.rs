//! A counting global allocator for the traced pass.
//!
//! The program under test is measured from outside, so allocation
//! cost per stage cannot come from instrumenting it. Instead the
//! benchmark binary installs this allocator: a pass-through to the
//! system allocator that, *only while switched on*, counts calls and
//! bytes per thread (read as deltas around each ledger stage) and
//! tracks live heap bytes process-wide. Switched off — every untraced
//! pass — it costs one relaxed load per call and reports nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread's counters. Only the owning thread writes them, so an
/// update is a plain load and store — no read-modify-write, no shared
/// cache line — which is what keeps the traced pass within a few
/// percent of the untraced ones. Any thread may read them.
#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
    /// Bytes this thread allocated minus bytes it freed. Signed: a
    /// block is often freed by another thread than allocated it, and
    /// only the sum over all slots is meaningful.
    live: AtomicI64,
}

/// Threads counted per process; later ones go uncounted. A traced run
/// starts about a dozen (the driver plus two transport threads per
/// traced pass), and only threads that allocate while counting is on
/// claim a slot.
const SLOTS: usize = 64;
const UNCLAIMED: usize = usize::MAX;

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        live: AtomicI64::new(0),
    }
}; SLOTS];
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor recurse
    static MINE: Cell<usize> = const { Cell::new(UNCLAIMED) };
}

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

/// The calling thread's slot, claimed on first use.
fn slot() -> Option<&'static Slot> {
    // `try_with`: a thread being torn down has no thread-locals left
    let index = MINE
        .try_with(|mine| {
            if mine.get() == UNCLAIMED {
                mine.set(CLAIMED.fetch_add(1, Ordering::Relaxed));
            }
            mine.get()
        })
        .ok()?;
    TABLE.get(index)
}

// Relaxed throughout: these are statistics, nothing is published
// through them.
fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        if let Some(s) = slot() {
            s.calls
                .store(s.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            s.bytes.store(
                s.bytes.load(Ordering::Relaxed) + size as u64,
                Ordering::Relaxed,
            );
            s.live.store(
                s.live.load(Ordering::Relaxed) + size as i64,
                Ordering::Relaxed,
            );
        }
    }
}

fn uncount(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        if let Some(s) = slot() {
            s.live.store(
                s.live.load(Ordering::Relaxed) - size as i64,
                Ordering::Relaxed,
            );
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around
// the calls touches only static atomics and a const-initialised
// thread-local `Cell`, so it never allocates, unwinds or re-enters
// the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        uncount(layout.size());
        // SAFETY: `ptr` came from this allocator — that is, from
        // `System` — with this `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        uncount(layout.size());
        count(new_size);
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the
        // caller's, already required to be non-zero and not to
        // overflow when rounded up to the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` allocated by the calling thread while counting
/// was on. Monotone; take deltas.
pub fn thread_counts() -> (u64, u64) {
    match MINE.with(Cell::get) {
        UNCLAIMED => (0, 0),
        i => TABLE.get(i).map_or((0, 0), |s| {
            (
                s.calls.load(Ordering::Relaxed),
                s.bytes.load(Ordering::Relaxed),
            )
        }),
    }
}

/// Live heap bytes accumulated, over all threads, while counting was
/// on. A block allocated before the switch and freed after it counts
/// down, so take deltas over an interval that is switched on
/// throughout.
pub fn live_bytes() -> i64 {
    TABLE.iter().map(|s| s.live.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test for both states: the switch is process-wide, so two
    /// tests flipping it would race under the parallel test runner.
    #[test]
    fn reports_nothing_when_off_and_counts_when_on() {
        set_enabled(false);
        let before = thread_counts();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(thread_counts(), before, "switched off: no counts");

        set_enabled(true);
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        let (calls, bytes) = thread_counts();
        set_enabled(false);
        drop(v);
        assert!(calls > before.0);
        assert!(bytes >= before.1 + 8 * 1024);
    }
}
