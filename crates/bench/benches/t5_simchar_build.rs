//! Table 5 — SimChar construction cost, step by step.
//!
//! The paper reports 79.2 s to render, 10.9 h for the pairwise Δ sweep and
//! 18 s for sparse elimination on its 52K-glyph repertoire (15 cores,
//! brute force). This bench measures the same three steps on block-scoped
//! repertoires, plus Step II over the full ~50K-glyph repertoire, the
//! partition every start-up pays; `repro table5` reports the
//! full-repertoire wall times of all three steps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sham_bench::glyphs_for;
use sham_glyph::SynthUnifont;
use sham_simchar::{build, find_pairs, render_repertoire, BuildConfig, Repertoire, Strategy};

fn bench_steps(c: &mut Criterion) {
    let font = SynthUnifont::v12();
    let mut group = c.benchmark_group("t5_simchar_build");
    group.sample_size(10);

    // Step I: rendering.
    let blocks = vec!["Basic Latin", "Latin-1 Supplement", "Cyrillic", "Greek and Coptic"];
    let repertoire = Repertoire::Blocks(blocks.clone());
    group.bench_function("step1_render_latin_cyrillic", |b| {
        b.iter(|| std::hint::black_box(render_repertoire(&font, &repertoire).len()))
    });

    // Step II: pairwise Δ (banded index) on a medium corpus.
    let glyphs = glyphs_for(blocks.clone());
    group.bench_function("step2_pairwise_medium", |b| {
        b.iter(|| {
            std::hint::black_box(find_pairs(&glyphs, 4, Strategy::BandedIndex).len())
        })
    });

    // Step II over the full repertoire at the default θ: the real
    // row-class partition, blank-margin glyphs and Hangul included.
    let full = render_repertoire(&font, &Repertoire::Full);
    group.bench_function("step2_pairwise_full", |b| {
        b.iter(|| std::hint::black_box(find_pairs(&full, 4, Strategy::BandedIndex).len()))
    });

    // Step III: sparse elimination.
    group.bench_function("step3_sparse_filter", |b| {
        b.iter(|| {
            let sparse = glyphs.iter().filter(|(_, g)| g.popcount() < 10).count();
            std::hint::black_box(sparse)
        })
    });

    // Whole builds at increasing repertoire sizes.
    for (name, blocks) in [
        ("latin+cyrillic", vec!["Basic Latin", "Latin-1 Supplement", "Cyrillic"]),
        ("plus_greek_armenian", vec![
            "Basic Latin",
            "Latin-1 Supplement",
            "Cyrillic",
            "Greek and Coptic",
            "Armenian",
        ]),
        ("vai_and_canadian", vec!["Vai", "Unified Canadian Aboriginal Syllabics"]),
    ] {
        group.bench_with_input(
            BenchmarkId::new("full_build", name),
            &blocks,
            |b, blocks| {
                b.iter(|| {
                    let result = build(
                        &font,
                        &BuildConfig {
                            repertoire: Repertoire::Blocks(blocks.clone()),
                            ..BuildConfig::default()
                        },
                    );
                    std::hint::black_box(result.db.pair_count())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_steps);
criterion_main!(benches);
