//! Pins the allocation behaviour of routing owners.
//!
//! `ZoneScanner` hands every surviving owner of a zone to
//! `SessionRouter::push_domains` by reference, and IDNs are a small
//! share of a real zone (paper Table 6). A lane keeps only the count of
//! a non-IDN owner, so routing one must allocate nothing, including in
//! the batch flushes that the count triggers. A lane keeps an IDN's ACE
//! bytes in one reused buffer, and its flush decodes each name into a
//! reused stem, so once a warm-up flush has sized those buffers, IDNs
//! that match no reference cost no allocation either. These tests count
//! allocations through a wrapping global allocator and fail if either
//! guarantee regresses (for example, if a lane cloned every owner into
//! a buffer of its own, or decoded into fresh `String`s).

use sham_confusables::UcDatabase;
use sham_core::{DetectionIndex, SessionRouter};
use sham_glyph::SynthUnifont;
use sham_punycode::DomainName;
use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
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

/// A router over a small index whose only reference is `google`.
fn router() -> SessionRouter {
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
    SessionRouter::new(index).with_batch_capacity(1_024)
}

#[test]
fn routing_non_idn_owners_is_allocation_free() {
    let mut router = router();
    let owners: Vec<DomainName> = (0..10_000)
        .map(|i| DomainName::parse(&format!("owner{i}.com")).expect("valid name"))
        .collect();

    // The first owner opens the `com` lane (that may allocate).
    router.push_domains(&owners[..1]);
    // The other 9,999 bring the lane's count to 1,024, 2,048, …, 9,216:
    // nine flushes run inside the measured loop.
    let before = allocs_on_this_thread();
    for owner in &owners[1..] {
        router.push_domains(std::iter::once(owner));
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "routing 9,999 non-IDN owners allocated {delta} times"
    );

    let report = router.into_report();
    assert_eq!(report.total_domains(), 10_000);
    assert_eq!(report.idn_count(), 0);
    assert_eq!(report.exec().batches, 0, "no IDN, so no detection batch");
}

#[test]
fn routing_unmatched_idn_owners_is_allocation_free_at_one_thread() {
    // One thread: every flush detects inline on this thread.
    let _one = rayon::ThreadOverride::new(1);
    let mut router = router();
    // `ünit00000` … `ünit11263`: IDNs of one ACE length that match no
    // reference, so every batch fills the lane's buffers to one size.
    let owners: Vec<DomainName> = (0..11_264)
        .map(|i| DomainName::parse(&format!("\u{FC}nit{i:05}.com")).expect("valid name"))
        .collect();
    assert!(owners
        .iter()
        .all(|o| o.is_idn() && o.as_ascii().len() == owners[0].as_ascii().len()));

    // The warm-up: the first batch opens the lane and flushes once,
    // sizing its ACE buffer, its end offsets and the decode scratch.
    router.push_domains(&owners[..1_024]);
    // The other 10,240 bring the count to 2,048, 3,072, …, 11,264: ten
    // flushes, each decoding and scoring 1,024 IDNs, run in the loop.
    let before = allocs_on_this_thread();
    for owner in &owners[1_024..] {
        router.push_domains(std::iter::once(owner));
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "routing 10,240 unmatched IDN owners allocated {delta} times"
    );

    let report = router.into_report();
    assert_eq!(report.total_domains(), 11_264);
    assert_eq!(report.idn_count(), 11_264);
    assert_eq!(report.detection_count(), 0);
    let exec = report.exec();
    assert_eq!(exec.batches, 11, "one warm-up flush and ten in the loop");
    assert_eq!(
        exec.inline_batches, exec.batches,
        "one thread detects inline"
    );
}
