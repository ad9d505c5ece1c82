//! A counting global allocator for the allocation-contract tests, shared
//! by `hnd-core`'s `zero_alloc` and `hnd-service`'s `warm_start` test
//! binaries: include it with `#[path]` and install [`CountingAllocator`]
//! as the binary's `#[global_allocator]`.
//!
//! Counts are per thread. libtest runs sibling tests, and its own
//! bookkeeping, on other threads of the same process, and a process-wide
//! counter charges their allocations to whichever test is measuring. A
//! measured section must therefore keep its work on the calling thread:
//! run it under `with_threads(1)`, or on inputs below the kernels'
//! parallel cut-off.

// Each including binary reads one of the two counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator, counting allocations and requested bytes
/// per thread.
pub struct CountingAllocator;

fn record(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are being
    // torn down goes uncounted instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-local `Cell`s without destructors,
// which never allocate and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) made by the calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested by the calling thread's allocations and reallocations.
pub fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}
