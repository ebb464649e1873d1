//! A counting global allocator: the throughput harness's peak-RSS proxy.
//!
//! Install it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: oslay_perf::alloc::CountingAlloc = oslay_perf::alloc::CountingAlloc;
//! ```
//!
//! and bracket measured regions with [`snapshot`] /
//! [`AllocSnapshot::delta_from`]. The counters are process-global
//! relaxed atomics, so the overhead per allocation is a handful of
//! uncontended atomic adds — small enough to leave installed for every
//! bench run, and exactly zero for code that does not allocate (the
//! whole point of the dense simulation hot path).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread mirrors of the call/byte counters, so the flight
    // recorder can attribute allocations to the span (and worker) that
    // made them. Const-initialized `Cell<u64>` carries no destructor, so
    // touching it from inside the allocator cannot recurse or trip TLS
    // teardown; `try_with` covers the late-thread-death edge anyway.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + size as u64));
}

fn on_dealloc(size: usize) {
    // Saturating: a binary may install the allocator after some early
    // allocations already happened through `System`.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

/// A [`System`]-backed allocator that counts calls, bytes, and the peak
/// of live bytes (the RSS proxy reported in `BENCH_sim.json`).
#[derive(Copy, Clone, Debug, Default)]
pub struct CountingAlloc;

// SAFETY: delegates allocation and deallocation verbatim to `System`;
// the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // (non-zero-sized `layout`), which is exactly what `System.alloc`
        // requires; the layout is forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`; every allocation path delegates to `System`,
        // so the pair is valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // `System` allocation and `new_size` is non-zero, matching
        // `System.realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        p
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls since process start.
    pub calls: u64,
    /// Bytes requested since process start (reallocations count their new
    /// size).
    pub bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas of this (later) snapshot over `earlier`:
    /// allocations and bytes are subtracted; `live_bytes` and
    /// `peak_bytes` keep this snapshot's absolute values (a peak is not
    /// meaningfully differenced).
    #[must_use]
    pub fn delta_from(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls.saturating_sub(earlier.calls),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            live_bytes: self.live_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// Reads the current counters. All zeros unless [`CountingAlloc`] is
/// installed as the global allocator.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the peak to the current live byte count, so the next measured
/// region reports its own high-water mark.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Reads the *current thread's* allocation counters: `(calls, bytes)`
/// since the thread started. All zeros unless [`CountingAlloc`] is
/// installed.
#[must_use]
pub fn thread_snapshot() -> (u64, u64) {
    (
        THREAD_CALLS.try_with(Cell::get).unwrap_or(0),
        THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

fn flight_probe() -> oslay_observe::flight::AllocSample {
    let (calls, bytes) = thread_snapshot();
    oslay_observe::flight::AllocSample {
        calls,
        bytes,
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Registers [`thread_snapshot`] as the flight recorder's allocation
/// probe, so every flight span records the allocation calls/bytes its
/// thread performed (`kobserve` stays dependency-free; this crate
/// supplies the implementation). Idempotent.
pub fn install_flight_probe() {
    oslay_observe::flight::set_alloc_probe(flight_probe);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests drive the `GlobalAlloc` methods directly instead of
    // installing the allocator (a test harness must not hijack the global
    // allocator), so the counters move deterministically — as long as no
    // two of them run at once: every test holds this lock, because the
    // process-wide counters see all of their calls.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn alloc_and_dealloc_move_the_counters() {
        let _serial = serial();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = snapshot();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            let mid = snapshot();
            assert_eq!(mid.calls, before.calls + 1);
            assert_eq!(mid.bytes, before.bytes + 4096);
            assert!(mid.live_bytes >= 4096);
            assert!(mid.peak_bytes >= mid.live_bytes);
            CountingAlloc.dealloc(p, layout);
        }
        let after = snapshot();
        let delta = after.delta_from(&before);
        assert_eq!(delta.calls, 1);
        assert_eq!(delta.bytes, 4096);
    }

    #[test]
    fn realloc_counts_new_size_and_releases_old() {
        let _serial = serial();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = snapshot();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            let q = CountingAlloc.realloc(p, layout, 256);
            assert!(!q.is_null());
            CountingAlloc.dealloc(q, Layout::from_size_align(256, 8).unwrap());
        }
        let delta = snapshot().delta_from(&before);
        assert_eq!(delta.calls, 2, "alloc + realloc");
        assert_eq!(delta.bytes, 64 + 256);
    }

    #[test]
    fn thread_counters_track_this_thread_only() {
        let _serial = serial();
        let layout = Layout::from_size_align(128, 8).unwrap();
        let (c0, b0) = thread_snapshot();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            CountingAlloc.dealloc(p, layout);
        }
        let (c1, b1) = thread_snapshot();
        assert_eq!(c1, c0 + 1);
        assert_eq!(b1, b0 + 128);
        // A sibling thread's allocations do not leak into our counters.
        std::thread::spawn(move || unsafe {
            let p = CountingAlloc.alloc(layout);
            CountingAlloc.dealloc(p, layout);
        })
        .join()
        .unwrap();
        assert_eq!(thread_snapshot(), (c1, b1));
    }

    #[test]
    fn flight_probe_reports_thread_counters() {
        let _serial = serial();
        install_flight_probe();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = oslay_observe::flight::alloc_probe_sample().expect("probe installed");
        unsafe {
            let p = CountingAlloc.alloc(layout);
            CountingAlloc.dealloc(p, layout);
        }
        let after = oslay_observe::flight::alloc_probe_sample().expect("probe installed");
        assert_eq!(after.calls, before.calls + 1);
        assert_eq!(after.bytes, before.bytes + 64);
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let _serial = serial();
        let layout = Layout::from_size_align(1 << 16, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            CountingAlloc.dealloc(p, layout);
        }
        reset_peak();
        let s = snapshot();
        assert_eq!(s.peak_bytes, s.live_bytes);
    }
}
