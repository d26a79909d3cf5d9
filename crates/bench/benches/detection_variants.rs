//! Ablation — Algorithm 1 candidate-generation strategies.
//!
//! Naive all-pairs matching (the paper notes the |N|·|M|·|L| complexity),
//! the paper's length bucketing, and the canonical-closure index this
//! reproduction adds (union-find component hashing — exact even for
//! non-transitive pair sets, and the framework default). All three
//! produce identical detections (asserted in unit and property tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sham_bench::detection_corpus;
use sham_confusables::UcDatabase;
use sham_core::{DetectionIndex, Indexing};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, DbSelection, HomoglyphDb, Repertoire};

fn bench_variants(c: &mut Criterion) {
    let font = SynthUnifont::v12();
    let simchar = build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Cyrillic",
            ]),
            ..BuildConfig::default()
        },
    )
    .db;
    let (references, idns) = detection_corpus(2_000);
    let db = HomoglyphDb::new(simchar, UcDatabase::embedded());
    let detector = DetectionIndex::new(db, references);

    let mut group = c.benchmark_group("detection_variants");
    group.sample_size(10);
    for (name, indexing) in [
        ("naive", Indexing::Naive),
        ("length_bucket", Indexing::LengthBucket),
        ("canonical_closure", Indexing::CanonicalClosure),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &indexing, |b, &ix| {
            b.iter(|| {
                std::hint::black_box(
                    detector.detect(&idns, DbSelection::Union, ix).len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
