//! Byte-accurate heap tracking, replacing the paper's `/usr/bin/time`
//! methodology with an in-process global allocator wrapper. Besides live
//! and peak bytes, the wrapper counts allocator *calls* (alloc + growing
//! realloc), which the `hot_path_budget` test divides by update count
//! to bound allocations/update — the steady-state number for a
//! well-buffered engine should be near zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Global allocator that tracks live and peak heap bytes. Register in a
/// binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: dynamis_bench::alloc_track::TrackingAlloc = dynamis_bench::alloc_track::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live size.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Allocator calls (alloc + growing realloc) since process start.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install TrackingAlloc as the global
    // allocator, so exercise the GlobalAlloc impl directly.
    #[test]
    fn counters_follow_alloc_dealloc_realloc() {
        reset_peak();
        let base = current_bytes();
        let calls = alloc_count();
        let a = TrackingAlloc;
        let layout = Layout::from_size_align(1024, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(alloc_count() > calls, "alloc call counted");
            assert_eq!(current_bytes(), base + 1024);
            assert!(peak_bytes() >= base + 1024);

            let grown = a.realloc(p, layout, 4096);
            assert!(!grown.is_null());
            assert_eq!(current_bytes(), base + 4096);

            let grown_layout = Layout::from_size_align(4096, 8).unwrap();
            let shrunk = a.realloc(grown, grown_layout, 512);
            assert!(!shrunk.is_null());
            assert_eq!(current_bytes(), base + 512);

            let final_layout = Layout::from_size_align(512, 8).unwrap();
            a.dealloc(shrunk, final_layout);
            assert_eq!(current_bytes(), base);
        }
        assert!(peak_bytes() >= base + 4096, "peak survives the shrink");
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }
}
