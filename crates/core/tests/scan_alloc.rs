//! Pins the allocation behaviour of scanning an ASCII zone.
//!
//! At one thread the line stage parses every pushed chunk inline on the
//! calling thread. The parser resolves owners into reused names, the
//! dedup window and the carried partial line reuse their buffers, and
//! routing a non-IDN owner allocates nothing (`route_alloc.rs`). So a
//! zone twice as long may cost a few allocations more per read chunk
//! (the chunk channel's bookkeeping), and none per line. This test
//! counts the scanning thread's allocations through a wrapping global
//! allocator.

use sham_confusables::UcDatabase;
use sham_core::{DetectionIndex, ScanConfig, SessionRouter, ZoneScanner};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Counts alloc/realloc calls per thread, so the reader thread and the
/// test harness cannot pollute the scanning thread's count.
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

/// Allocations a chunk may add: the unbounded free-buffer channel
/// allocates a block every few dozen sends.
const PER_CHUNK: u64 = 2;

/// Bytes per read chunk: small, so both zones span many chunks.
const CHUNK: usize = 16 << 10;

/// `owners` distinct ASCII owners with an NS and an A line each. The
/// owners have one width, so a window slot's buffer fits every owner.
fn zone(owners: usize) -> Vec<u8> {
    let mut text = String::from("$ORIGIN com.\n$TTL 3600\n");
    for i in 0..owners {
        let _ = writeln!(text, "owner{i:07} IN NS ns1.example.net.");
        let _ = writeln!(text, "owner{i:07}\tIN A 192.0.2.{}", i % 250 + 1);
    }
    text.into_bytes()
}

#[test]
fn scanning_twice_the_lines_allocates_per_chunk_not_per_line() {
    let _one = rayon::ThreadOverride::new(1);
    let font = SynthUnifont::v12();
    let simchar = build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
            ..BuildConfig::default()
        },
    )
    .db;
    let index = DetectionIndex::shared(
        HomoglyphDb::new(simchar, UcDatabase::embedded()),
        vec!["google".to_string()],
    );
    let config = ScanConfig {
        chunk_bytes: CHUNK,
        ..ScanConfig::default()
    };

    // Allocations and chunks of one scan of `owners` owners; both zones
    // outgrow the dedup window, so both fill every slot once.
    let scan = |owners: usize| {
        let zone = zone(owners);
        let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(&index)), config.clone());
        let before = allocs_on_this_thread();
        scanner
            .scan_reader("com", zone.as_slice())
            .expect("in-memory scan");
        let allocs = allocs_on_this_thread() - before;
        let report = scanner.finish();
        let com = report.per_tld["com"];
        assert_eq!(
            (com.routed, com.dedup_consecutive),
            (owners as u64, owners as u64)
        );
        assert_eq!(report.stage.split_pushes, 0, "one thread parses inline");
        (allocs, report.stage.pushes)
    };
    let (short, short_chunks) = scan(20_000);
    let (long, long_chunks) = scan(40_000);
    let extra = long.saturating_sub(short);
    let chunks = long_chunks - short_chunks;
    assert!(chunks >= 80, "only {chunks} more chunks");
    assert!(
        extra <= PER_CHUNK * chunks,
        "40,000 more lines in {chunks} more chunks allocated {extra} times more \
         ({short} → {long})"
    );
}
