//! The `CanonicalClosure` index must be *exact* — identical detections
//! to the naive all-pairs sweep — for **arbitrary, non-transitive**
//! homoglyph pair sets. Real confusable data is not transitive (a–b and
//! b–c listed without a–c), and that is precisely the case where the
//! previous neighbourhood-min canonical map lost true matches: the two
//! ends of a listed pair could pick different neighbourhood minima and
//! the candidate lookup skipped the reference before verification ever
//! ran. These tests build deliberately chain-shaped databases and pin
//! the equivalence.

use proptest::prelude::*;
use sham_confusables::UcDatabase;
use sham_core::{Detection, DetectionIndex, Indexing};
use sham_simchar::{pairs::Pair, DbSelection, HomoglyphDb, SimCharDb};

/// A detector over an explicit SimChar pair list (UC empty), so tests
/// control the exact shape of the pair graph.
fn detector_for(pairs: &[(char, char)], references: &[&str]) -> DetectionIndex {
    let simchar = SimCharDb::from_pairs(
        pairs
            .iter()
            .map(|&(a, b)| Pair { a: a as u32, b: b as u32, delta: 1 })
            .collect(),
        4,
    );
    DetectionIndex::new(
        HomoglyphDb::new(simchar, UcDatabase::default()),
        references.iter().map(|s| s.to_string()),
    )
}

fn idn(stem: &str) -> (String, String) {
    (stem.to_string(), format!("{stem}.com"))
}

/// The concrete chain the old neighbourhood-min map got wrong. Pairs
/// a–b and b–c (no a–c): the neighbourhood minimum of `c` is `b` while
/// the minimum of `b` is `a`, so "bb" and "cc" canonicalised to
/// different strings and the true match "bb" ≈ "cc" was never even
/// verified. The component closure puts a, b, c in one class, so the
/// candidate probe finds the reference and pairwise verification
/// confirms it.
#[test]
fn non_transitive_chain_detection_is_not_missed() {
    let d = detector_for(&[('a', 'b'), ('b', 'c')], &["cc"]);
    let idns = vec![idn("bb")];

    let naive = d.detect(&idns, DbSelection::Union, Indexing::Naive);
    assert_eq!(naive.len(), 1, "b–c is a listed pair, so bb ≈ cc must match");
    assert_eq!(&*naive[0].reference, "cc");

    let closure = d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure);
    assert_eq!(closure, naive, "closure index must find the chain match");

    // And the ends of the chain are still NOT a pair: a–c substitutions
    // must keep being rejected by verification.
    let negatives = vec![idn("aa")];
    assert!(d.detect(&negatives, DbSelection::Union, Indexing::CanonicalClosure).is_empty());
    assert!(d.detect(&negatives, DbSelection::Union, Indexing::Naive).is_empty());
}

/// The same non-transitivity arises inside UC alone: b→a and c→b chain
/// the prototypes without listing a–c.
#[test]
fn uc_prototype_chains_are_closed_too() {
    let uc = UcDatabase::from_mappings(
        sham_confusables::parse("0062 ; 0061 ; MA\n0063 ; 0062 ; MA\n").unwrap(),
    );
    let d = DetectionIndex::new(
        HomoglyphDb::new(SimCharDb::from_pairs(vec![], 4), uc),
        vec!["cc".to_string()],
    );
    let idns = vec![idn("bb"), idn("aa")];
    let naive = d.detect(&idns, DbSelection::Union, Indexing::Naive);
    let closure = d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure);
    // b–c is a UC pair (c's prototype is b); a–c is not.
    assert_eq!(naive.len(), 1);
    assert_eq!(naive[0].idn_unicode, "bb");
    assert_eq!(closure, naive);
}

/// Builds a spoof of `stem` by substituting, at mask-selected
/// positions, a deterministic partner from the pair adjacency — or,
/// when `break_one` is set, a character that is *no* partner, making
/// the spoof undetectable and exercising the rejecting path.
fn mutate(
    stem: &str,
    mask: u32,
    pick: u64,
    adjacency: &std::collections::HashMap<char, Vec<char>>,
    break_one: bool,
) -> String {
    let mut out: Vec<char> = stem.chars().collect();
    for (i, slot) in out.iter_mut().enumerate() {
        if mask & (1 << (i % 32)) == 0 {
            continue;
        }
        if break_one && i == 0 {
            // 'z' participates in no generated pair (alphabet is a–y).
            *slot = 'z';
        } else if let Some(partners) = adjacency.get(slot) {
            *slot = partners[(pick as usize + i) % partners.len()];
        }
    }
    out.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adversarial equivalence: random pair graphs made of chains (by
    /// construction rarely transitive), random references, and corpora
    /// of chain-substituted spoofs, identical copies and broken spoofs
    /// — `CanonicalClosure` must produce exactly the detections of
    /// `Naive`, order included.
    #[test]
    fn closure_equals_naive_on_random_chain_graphs(
        raw_pairs in proptest::collection::vec((0u8..25, 0u8..25), 1..30),
        references in proptest::collection::vec("[a-h]{3,8}", 1..5),
        masks in proptest::collection::vec(any::<u32>(), 8..9),
        pick in any::<u64>(),
    ) {
        // Pair graph over 'a'..='y' ('z' stays pair-free for the
        // broken spoofs). Arbitrary chains: (x, x+1+k mod 25).
        let pairs: Vec<(char, char)> = raw_pairs
            .iter()
            .map(|&(x, k)| {
                let a = (b'a' + x) as char;
                let b = (b'a' + (x as usize + 1 + k as usize) as u8 % 25) as char;
                (a, b)
            })
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!pairs.is_empty());

        let mut adjacency: std::collections::HashMap<char, Vec<char>> =
            std::collections::HashMap::new();
        for &(a, b) in &pairs {
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }

        let refs: Vec<&str> = references.iter().map(String::as_str).collect();
        let d = detector_for(&pairs, &refs);

        // Corpus: per reference — a pair-substituted spoof, an identical
        // copy (never a homograph), and a broken spoof ('z' at pos 0).
        let mut idns = Vec::new();
        for (i, r) in references.iter().enumerate() {
            let mask = masks[i % masks.len()] | 1; // always touch pos 0
            idns.push(idn(&mutate(r, mask, pick, &adjacency, false)));
            idns.push(idn(r));
            idns.push(idn(&mutate(r, mask, pick, &adjacency, true)));
        }

        for selection in [DbSelection::Union, DbSelection::SimCharOnly] {
            let naive = d.detect(&idns, selection, Indexing::Naive);
            let closure = d.detect(&idns, selection, Indexing::CanonicalClosure);
            prop_assert_eq!(
                &closure, &naive,
                "closure and naive diverge on pairs {:?}", pairs
            );
            let bucket = d.detect(&idns, selection, Indexing::LengthBucket);
            prop_assert_eq!(&bucket, &naive);
        }
    }
}

/// Sanity: chain-closure candidates that fail verification stay
/// rejected — a long chain collapses everything into one component, but
/// only directly-listed pairs may substitute.
#[test]
fn closure_candidates_are_still_verified_pairwise() {
    // Chain a–b–c–d–e: one component, but a may only become b.
    let d = detector_for(&[('a', 'b'), ('b', 'c'), ('c', 'd'), ('d', 'e')], &["aaa"]);
    let idns = vec![idn("bbb"), idn("eee"), idn("bcb")];
    let hits = d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure);
    // Only "bbb" survives: e and c are in the component (candidates!)
    // but are not listed partners of a.
    let found: Vec<&str> = hits.iter().map(|h| h.idn_unicode.as_str()).collect();
    assert_eq!(found, vec!["bbb"]);
    let naive: Vec<Detection> = d.detect(&idns, DbSelection::Union, Indexing::Naive);
    assert_eq!(hits, naive);
}
