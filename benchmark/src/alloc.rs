//! Counting allocator and peak-RSS reader, so `alloc.allocs_per_kop` and
//! `peak_rss_mb` need nothing from the crates under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator with an allocation counter that runs only
/// inside [`count_allocs`].
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic counter that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f`; when `counted`, returns the allocations made meanwhile
/// (the phase markers are the call's start and end), otherwise 0. Not
/// for use inside a counted phase.
///
/// One policy for every workload: only a traced run counts, and only
/// around its untraced baseline work (the first
/// [`crate::workloads::BASELINE_REPS`] repetitions; for storage, the
/// pristine `run_harness` calls), so no end-to-end number pays the atomic
/// add per allocation and no count includes the tracer's span storage.
pub fn count_allocs<R>(counted: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if !counted {
        return (f(), 0);
    }
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCS.swap(0, Ordering::Relaxed))
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line: the benchmark
/// runs on Linux only, and a made-up value would pass for a measurement.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("/proc/self/status has a VmHWM line in KiB");
    kib / 1024.0
}
