//! Heap accounting for the peak-memory metric.
//!
//! The process's peak resident set depends on how the system allocator
//! lays out its heap: with glibc, whether a freed 16 MiB emulator image
//! is reused or a new one is touched turns on unrelated small
//! allocations, moving the peak by a whole image between builds. Heap
//! bytes depend only on what the program allocates.
//!
//! Counting is on only inside [`peak_of`], and only for the thread that
//! called it. Elsewhere each allocation pays one thread-local read, so
//! timed repetitions run at the system allocator's speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes of the open [`peak_of`]
/// window on the calling thread.
pub struct Counting;

thread_local! {
    /// Heap bytes allocated minus those freed since this thread's
    /// window opened, and their maximum; `None` while no window is open.
    static WINDOW: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

fn count(delta: isize) {
    WINDOW.with(|w| {
        if let Some((live, peak)) = w.get() {
            let live = live + delta;
            w.set(Some((live, peak.max(live))));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter only observes,
// and its const-initialized thread-local neither allocates nor drops.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the most heap bytes this thread
/// had live at once during it, beyond those live when it started.
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    WINDOW.with(|w| w.set(Some((0, 0))));
    let out = f();
    let peak = WINDOW.with(Cell::take).map_or(0, |(_, peak)| peak);
    (out, peak as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation_and_ignores_older_frees() {
        let old = vec![1u8; 1 << 20];
        let ((), peak) = peak_of(|| {
            drop(old);
            let v = vec![1u8; 8 << 20];
            std::hint::black_box(&v);
        });
        // Freeing the older MiB took the count to -1 MiB first.
        assert_eq!(peak, 7 << 20);
    }

    #[test]
    fn other_threads_are_not_counted() {
        let ((), peak) = peak_of(|| {
            std::thread::spawn(|| std::hint::black_box(vec![1u8; 8 << 20]).len())
                .join()
                .unwrap();
        });
        // Only the spawn's own bookkeeping lands on this thread.
        assert!(peak < 1 << 20, "{peak}");
    }
}
