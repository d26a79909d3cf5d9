//! Detector-construction cost — the price of the fast default path.
//!
//! `CanonicalClosure` detection is fast because everything expensive
//! happens once at construction: interning the pair universe into the
//! two-level page table, union-finding the component closure, laying
//! the CSR adjacency out, and closure-hashing the reference list. This
//! bench times those builds so a regression in index construction is as
//! visible in `BENCH_detection.json` as a regression in query
//! throughput:
//!
//! * `flat_index` — `FlatPairIndex::build` alone (interner + union-find
//!   + CSR over SimChar ∪ UC).
//! * `flat_index_load` — `FlatPairIndex::read_with_section_bytes` on a
//!   serialized full-index snapshot (the serve-path alternative to
//!   building: both checksums + linear array copy, no union-find; the
//!   reference section is borrowed, not parsed).
//! * `detector` — the full `HomoglyphDb::new` + `Detector::new` path,
//!   including the closure-hash index over the 10k-reference list.
//! * `refset_build` — the reference-list half alone: arena interning,
//!   closure hashing and the two sorted candidate runs over 10k stems.
//! * `detector_10k_refs_mount` — the v3 cold start:
//!   `DetectionIndex::from_snapshot_bytes` mounting pair index *and*
//!   reference set from serialized bytes (checksum + pointer fixups,
//!   no rebuild) — the zero-rebuild alternative to `detector_10k_refs`.
//!
//! Snapshot entries are builds/sec (per worker-thread count, matching
//! the other sections' layout; construction itself is single-threaded).

use criterion::{criterion_group, criterion_main, Criterion};
use sham_bench::{
    detection_corpus, measure_ops_per_sec, snapshot_samples, snapshot_thread_sweep,
};
use sham_confusables::UcDatabase;
use sham_core::{DetectionIndex, Detector, ReferenceSet};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, FlatPairIndex, HomoglyphDb, Repertoire};

fn simchar_db() -> sham_simchar::SimCharDb {
    let font = SynthUnifont::v12();
    build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Latin Extended-A",
                "Cyrillic",
                "Greek and Coptic",
            ]),
            ..BuildConfig::default()
        },
    )
    .db
}

fn bench_index_build(c: &mut Criterion) {
    // The component databases are Arc-shared exactly as a worker fleet
    // shares them: each mount pays two refcount bumps, not two deep
    // copies.
    let simchar = std::sync::Arc::new(simchar_db());
    let uc = std::sync::Arc::new(UcDatabase::embedded());
    let (references, _) = detection_corpus(0);

    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);

    group.bench_function("flat_index", |b| {
        b.iter(|| std::hint::black_box(FlatPairIndex::build(&simchar, &uc).char_count()))
    });
    group.bench_function("detector_10k_refs", |b| {
        b.iter(|| {
            let db = HomoglyphDb::new(simchar.clone(), uc.clone());
            std::hint::black_box(
                Detector::new(db, references.iter().cloned()).reference_count(),
            )
        })
    });
    let db = HomoglyphDb::new(simchar.clone(), uc.clone());
    group.bench_function("refset_build", |b| {
        b.iter(|| {
            std::hint::black_box(
                ReferenceSet::build(&db, references.iter().cloned()).live_count(),
            )
        })
    });
    let full = serialized_full_index(db, &references);
    group.bench_function("flat_index_load", |b| {
        b.iter(|| {
            std::hint::black_box(
                FlatPairIndex::read_with_section_bytes(&full)
                    .expect("snapshot loads")
                    .0
                    .char_count(),
            )
        })
    });
    group.bench_function("detector_10k_refs_mount", |b| {
        b.iter(|| {
            std::hint::black_box(
                DetectionIndex::from_snapshot_bytes(&full, simchar.clone(), uc.clone())
                    .expect("full snapshot mounts")
                    .reference_count(),
            )
        })
    });
    group.finish();

    write_snapshot(&simchar, &uc, &references);
}

/// Merges builds/sec into the `index_build` section of
/// `BENCH_detection.json`.
fn write_snapshot(
    simchar: &std::sync::Arc<sham_simchar::SimCharDb>,
    uc: &std::sync::Arc<UcDatabase>,
    references: &[String],
) {
    let db = HomoglyphDb::new(simchar.clone(), uc.clone());
    let full = serialized_full_index(db.clone(), references);
    snapshot_thread_sweep(
        "index_build",
        &[
            "flat_index",
            "flat_index_load",
            "detector_10k_refs",
            "refset_build",
            "detector_10k_refs_mount",
        ],
        |name| {
            measure_ops_per_sec(1, snapshot_samples(), || match name {
                "flat_index" => {
                    std::hint::black_box(FlatPairIndex::build(simchar, uc).char_count());
                }
                "flat_index_load" => {
                    std::hint::black_box(
                        FlatPairIndex::read_with_section_bytes(&full)
                            .expect("snapshot loads")
                            .0
                            .char_count(),
                    );
                }
                "refset_build" => {
                    std::hint::black_box(
                        ReferenceSet::build(&db, references.iter().cloned()).live_count(),
                    );
                }
                "detector_10k_refs_mount" => {
                    std::hint::black_box(
                        DetectionIndex::from_snapshot_bytes(
                            &full,
                            simchar.clone(),
                            uc.clone(),
                        )
                        .expect("full snapshot mounts")
                        .reference_count(),
                    );
                }
                _ => {
                    let db = HomoglyphDb::new(simchar.clone(), uc.clone());
                    std::hint::black_box(
                        Detector::new(db, references.iter().cloned()).reference_count(),
                    );
                }
            })
        },
    );
}

/// One serialized v3 full-index snapshot (pair index + 10k-reference
/// section), reused by every load and mount measurement.
fn serialized_full_index(db: HomoglyphDb, references: &[String]) -> Vec<u8> {
    let index = DetectionIndex::new(db, references.iter().cloned());
    let mut bytes = Vec::new();
    index.write_snapshot(&mut bytes).expect("serialize full index");
    bytes
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
