//! §4.2 — homograph detection throughput.
//!
//! The paper scans 955 K IDNs against the Alexa top-10k in 743.6 s, i.e.
//! 0.07 s per reference domain. This bench measures the same matching
//! loop (length-bucketed Algorithm 1) per batch of IDNs against the full
//! 10k reference list, at several corpus sizes.
//!
//! Besides the criterion timings it writes the `detection_throughput`
//! section of `BENCH_detection.json` at the workspace root: IDNs/sec on
//! the 10k-reference corpus for `LengthBucket` (ablation baseline) and
//! `CanonicalClosure` (the default path) at 1 worker thread vs all
//! available threads, so the perf trajectory of the parallel executor
//! is tracked from PR to PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sham_bench::{
    detection_corpus, measure_ops_per_sec, snapshot_samples, snapshot_thread_sweep,
};
use sham_confusables::UcDatabase;
use sham_core::{DetectionIndex, Indexing};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, DbSelection, HomoglyphDb, Repertoire};

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

fn bench_detection(c: &mut Criterion) {
    let simchar = simchar_db();

    let mut group = c.benchmark_group("detection_throughput");
    group.sample_size(10);

    for idn_count in [1_000usize, 5_000, 20_000] {
        let (references, idns) = detection_corpus(idn_count);
        let db = HomoglyphDb::new(simchar.clone(), UcDatabase::embedded());
        let detector = DetectionIndex::new(db, references);
        group.throughput(Throughput::Elements(idn_count as u64));
        group.bench_with_input(
            BenchmarkId::new("alexa10k_refs", idn_count),
            &idns,
            |b, idns| {
                b.iter(|| {
                    std::hint::black_box(
                        detector
                            .detect(idns, DbSelection::Union, Indexing::LengthBucket)
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();

    write_snapshot(&simchar);
}

/// Measures IDNs/sec on the 10k-reference corpus for the two indexed
/// strategies and merges the numbers into `BENCH_detection.json`.
fn write_snapshot(simchar: &sham_simchar::SimCharDb) {
    let idn_count = 10_000usize;
    let (references, idns) = detection_corpus(idn_count);
    let db = HomoglyphDb::new(simchar.clone(), UcDatabase::embedded());
    let detector = DetectionIndex::new(db, references);

    snapshot_thread_sweep(
        "detection_throughput",
        &["length_bucket", "canonical_closure"],
        |name| {
            let indexing = match name {
                "length_bucket" => Indexing::LengthBucket,
                _ => Indexing::CanonicalClosure,
            };
            measure_ops_per_sec(idn_count, snapshot_samples(), || {
                std::hint::black_box(
                    detector.detect(&idns, DbSelection::Union, indexing).len(),
                );
            })
        },
    );
}

criterion_group!(benches, bench_detection);
criterion_main!(benches);
