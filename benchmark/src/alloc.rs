//! A counting `#[global_allocator]`: allocator calls are the one host-side
//! cost that repeats exactly from run to run, so `allocs_per_kevent` can be
//! compared between commits without a noise band.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// A pure statistic: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter bump per allocating call.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocating calls (alloc, alloc_zeroed, realloc) made by `f`, on every
/// thread, while it ran. Callers keep other threads quiet.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    let r = f();
    (r, ALLOCS.load(Relaxed) - before)
}
