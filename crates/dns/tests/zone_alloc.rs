//! Pins the allocation behaviour of the zone-scan hot path.
//!
//! The batch pipeline (`shamfinder scan-zone`) calls
//! `ZoneStreamParser::scan_line` once per line over multi-GB files; the
//! whole point of the scan API is that a well-formed line whose names
//! are ASCII allocates nothing once the parser's reused buffers have
//! grown: a record in a run for one owner, a new owner, and an NS
//! target alike. These tests count allocations through a wrapping
//! global allocator and fail if that guarantee regresses.

use sham_dns::zone::{ZoneScan, ZoneStreamParser};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Counts alloc/realloc calls per thread so concurrently running tests
/// in this binary cannot pollute each other's counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[test]
fn same_owner_record_run_is_allocation_free() {
    let mut parser = ZoneStreamParser::new("com");
    // Warm the owner cache: the first line for an owner resolves and
    // stores the name (that one may allocate).
    match parser.scan_line("steady IN A 192.0.2.1").unwrap() {
        ZoneScan::Record { new_owner, .. } => assert!(new_owner),
        ZoneScan::Skip => panic!("expected a record"),
    }

    let lines = [
        "steady IN A 192.0.2.2",
        "steady 3600 IN A 192.0.2.3",
        "\tIN A 192.0.2.4",
        "steady IN AAAA 2001:db8::1",
    ];
    let before = allocs_on_this_thread();
    for _ in 0..10_000 {
        for raw in lines {
            match parser.scan_line(raw).unwrap() {
                ZoneScan::Record { new_owner, .. } => assert!(!new_owner),
                ZoneScan::Skip => panic!("expected a record"),
            }
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "scan_line allocated {delta} times over 40k same-owner record lines"
    );
}

#[test]
fn owner_changes_allocate_nothing() {
    // Alternating owners defeat the token cache, so each line resolves
    // a name, into the parser's reused owner. One warm-up round grows
    // the reused buffers; after it, no line allocates.
    let mut parser = ZoneStreamParser::new("com");
    parser.scan_line("a IN A 192.0.2.1").unwrap();
    parser.scan_line("alpha IN A 192.0.2.1").unwrap();
    parser.scan_line("beta IN A 192.0.2.2").unwrap();
    let before = allocs_on_this_thread();
    let rounds = 1_000u64;
    for _ in 0..rounds {
        parser.scan_line("alpha IN A 192.0.2.1").unwrap();
        parser.scan_line("beta IN A 192.0.2.2").unwrap();
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta,
        0,
        "scan_line allocated {delta} times over {} owner-changing lines",
        rounds * 2
    );
}

/// Three lines for owner `i`: an NS line with an absolute target, then
/// an A line and an AAAA line. Owners alternate between relative,
/// absolute and `xn--` forms (fixed width, so every name needs the
/// same buffer size).
fn owner_lines(i: u32) -> [String; 3] {
    let owner = match i % 3 {
        0 => format!("Owner{i:05}"),
        1 => format!("abs{i:05}.com."),
        _ => format!("xn--ggl{i:05}-8ua"),
    };
    [
        format!("{owner} IN NS ns{}.Host{i:05}.net.", i % 2 + 1),
        format!("{owner} 3600 IN A 192.0.2.{}", i % 250),
        format!("{owner} IN AAAA 2001:db8::{:x}", i),
    ]
}

#[test]
fn distinct_ascii_owners_are_allocation_free() {
    let mut parser = ZoneStreamParser::new("com");
    let warm_up: Vec<String> = (0..3).flat_map(owner_lines).collect();
    for raw in &warm_up {
        parser.scan_line(raw).unwrap();
    }
    let owners = 10_000u32;
    let lines: Vec<String> = (3..3 + owners).flat_map(owner_lines).collect();

    let before = allocs_on_this_thread();
    let mut new_owners = 0u32;
    for raw in &lines {
        match parser.scan_line(raw).unwrap() {
            ZoneScan::Record { new_owner, .. } => new_owners += u32::from(new_owner),
            ZoneScan::Skip => panic!("expected a record"),
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(new_owners, owners, "every owner's NS line starts a new owner");
    assert_eq!(
        delta,
        0,
        "scan_line allocated {delta} times over {} lines of {owners} distinct owners",
        lines.len()
    );
}
