//! Parallel detection must be indistinguishable from sequential
//! detection: `DetectionIndex::detect` shards the IDN corpus across the
//! worker pool, and this suite pins the contract that every
//! (`Indexing`, thread count) combination produces the same detections
//! in the same order.

use sham_confusables::UcDatabase;
use sham_core::{Detection, DetectionIndex, Indexing};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, DbSelection, HomoglyphDb, Repertoire};

fn detector(references: Vec<String>) -> DetectionIndex {
    let font = SynthUnifont::v12();
    let result = build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Cyrillic",
                "Greek and Coptic",
            ]),
            ..BuildConfig::default()
        },
    );
    DetectionIndex::new(HomoglyphDb::new(result.db, UcDatabase::embedded()), references)
}

/// A deterministic mixed corpus: lookalikes of the references (Cyrillic
/// substitutions at rotating positions), identical copies, and benign
/// noise — several hundred IDNs so the corpus actually splits into
/// multiple shards.
fn corpus(references: &[String]) -> Vec<(String, String)> {
    let mut idns = Vec::new();
    for i in 0..600usize {
        let stem: String = match i % 3 {
            0 => {
                let target = &references[i % references.len()];
                let len = target.chars().count().max(1);
                target
                    .chars()
                    .enumerate()
                    .map(|(pos, c)| {
                        if pos == i % len {
                            match c {
                                'a' => 'а',
                                'e' => 'е',
                                'o' => 'о',
                                'c' => 'с',
                                'p' => 'р',
                                other => other,
                            }
                        } else {
                            c
                        }
                    })
                    .collect()
            }
            1 => references[i % references.len()].clone(),
            _ => format!("benign-{i}"),
        };
        let ace = sham_punycode::ace::to_ascii(&stem)
            .map(|l| format!("{l}.com"))
            .unwrap_or_else(|_| format!("{stem}.com"));
        idns.push((stem, ace));
    }
    idns
}

#[test]
fn detect_is_thread_count_invariant_for_all_indexings() {
    let references: Vec<String> = [
        "google", "amazon", "facebook", "apple", "paypal", "netflix", "coinbase",
        "alphabet", "microsoft", "cloudflare",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let d = detector(references.clone());
    let idns = corpus(&references);

    for indexing in [Indexing::Naive, Indexing::LengthBucket, Indexing::CanonicalClosure] {
        let sequential = {
            let _one = rayon::ThreadOverride::new(1);
            d.detect(&idns, DbSelection::Union, indexing)
        };
        assert!(
            !sequential.is_empty(),
            "corpus must produce detections under {indexing:?}"
        );
        let n = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
        for threads in [2usize, n] {
            let _forced = rayon::ThreadOverride::new(threads);
            let parallel = d.detect(&idns, DbSelection::Union, indexing);
            assert_eq!(
                parallel, sequential,
                "{indexing:?} diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn indexing_strategies_agree_on_the_shared_corpus() {
    let references: Vec<String> =
        ["google", "amazon", "paypal"].iter().map(|s| s.to_string()).collect();
    let d = detector(references.clone());
    let idns = corpus(&references);

    let key = |v: &[Detection]| {
        let mut k: Vec<(String, String)> = v
            .iter()
            .map(|h| (h.idn_ascii.clone(), h.reference.to_string()))
            .collect();
        k.sort();
        k
    };
    let naive = key(&d.detect(&idns, DbSelection::Union, Indexing::Naive));
    let bucket = key(&d.detect(&idns, DbSelection::Union, Indexing::LengthBucket));
    let canon = key(&d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure));
    assert_eq!(naive, bucket);
    assert_eq!(naive, canon);
}
