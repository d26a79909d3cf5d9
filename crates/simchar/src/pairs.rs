//! Pairwise glyph-comparison strategies.
//!
//! Step II of the SimChar construction compares every pair of rendered
//! glyphs and keeps those with Δ ≤ θ. The paper brute-forces the ~1.4
//! billion pairs of its 52,457 glyphs in 10.9 hours on 15 cores
//! (Table 5). This module implements that baseline plus two exact
//! accelerations, benchmarked against each other in the
//! `pairwise_strategies` ablation:
//!
//! * [`Strategy::BruteForce`] — the paper's algorithm, verbatim.
//! * [`Strategy::PixelCountPrune`] — sort by ink count; `|#a − #b| > θ`
//!   implies `Δ > θ`, so only a sliding window needs full comparison.
//! * [`Strategy::BandedIndex`] — split each bitmap's 1,024 pixels into
//!   θ+1 parts; by pigeonhole, `Δ ≤ θ` forces at least one *identical*
//!   part, so hashing parts yields a candidate set with no false
//!   negatives. A part is an interleaved row class (every (θ+1)-th row,
//!   [`Bitmap::row_class_signatures`]), not a contiguous band. Real
//!   glyphs share blank top and bottom margins: over the 50,617-glyph
//!   θ = 4 repertoire, contiguous bands put 6,688 glyphs in one
//!   blank-bottom-band group and 4,841 in a blank-top-band group, and
//!   those quadratic groups made 4.93M verifications for 21,581 pairs.
//!   Row classes are almost never blank and verify 24× fewer
//!   candidates. At most 32 parts exist, one per row, so this strategy
//!   takes θ ≤ [`MAX_THETA`].
//!
//! Every strategy compares bitmaps with [`Bitmap::delta_capped`], which
//! abandons the row scan the moment the running difference exceeds θ —
//! almost every candidate pair blows past θ within the first few of the
//! 32 rows, so the capped metric does a fraction of the XOR/popcount
//! work of the full Δ.

use rayon::prelude::*;
use sham_glyph::{Bitmap, SIZE};

/// A detected homoglyph pair: the two code points (ordered `a < b`) and
/// their pixel difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    /// Smaller code point.
    pub a: u32,
    /// Larger code point.
    pub b: u32,
    /// Pixel difference Δ (≤ θ).
    pub delta: u8,
}

/// Largest θ that [`Strategy::BandedIndex`] takes: its θ + 1 parts are
/// row classes, at most one per glyph row.
pub const MAX_THETA: u32 = SIZE as u32 - 1;

/// Pairwise comparison strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// All `n·(n−1)/2` comparisons (the paper's approach).
    BruteForce,
    /// Ink-count window pruning (exact).
    PixelCountPrune,
    /// Banded signature index (exact).
    BandedIndex,
}

/// Finds all pairs whose SSIM is at least `min_ssim` — the perceptual
/// alternative the paper considered and rejected (§3.3). SSIM admits no
/// pigeonhole shortcut, so this is always a brute-force sweep; the
/// `delta_vs_ssim` bench quantifies the cost gap. The recorded `delta`
/// of each pair is still the pixel difference, for comparability.
pub fn find_pairs_ssim(glyphs: &[(u32, Bitmap)], min_ssim: f64) -> Vec<Pair> {
    let mut pairs: Vec<Pair> = (0..glyphs.len())
        .into_par_iter()
        .flat_map_iter(|i| {
            let (cp_i, ref g_i) = glyphs[i];
            glyphs[i + 1..]
                .iter()
                .filter(move |(_, g_j)| sham_glyph::metrics::ssim(g_i, g_j) >= min_ssim)
                .map(move |&(cp_j, ref g_j)| make_pair(cp_i, cp_j, g_i.delta(g_j).min(255)))
        })
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// Finds all pairs with `Δ ≤ theta` among `glyphs` using `strategy`.
/// Results are sorted and identical across strategies.
pub fn find_pairs(glyphs: &[(u32, Bitmap)], theta: u32, strategy: Strategy) -> Vec<Pair> {
    let mut pairs = match strategy {
        Strategy::BruteForce => brute_force(glyphs, theta),
        Strategy::PixelCountPrune => pixel_count_prune(glyphs, theta),
        Strategy::BandedIndex => banded_index(glyphs, theta),
    };
    pairs.sort();
    pairs.dedup();
    pairs
}

fn make_pair(a: u32, b: u32, delta: u32) -> Pair {
    let (a, b) = if a < b { (a, b) } else { (b, a) };
    Pair { a, b, delta: delta as u8 }
}

fn brute_force(glyphs: &[(u32, Bitmap)], theta: u32) -> Vec<Pair> {
    // Parallelise over the first index, mirroring the paper's
    // multi-process split of the outer loop.
    (0..glyphs.len())
        .into_par_iter()
        .flat_map_iter(|i| {
            let (cp_i, ref g_i) = glyphs[i];
            glyphs[i + 1..].iter().filter_map(move |&(cp_j, ref g_j)| {
                g_i.delta_capped(g_j, theta).map(|d| make_pair(cp_i, cp_j, d))
            })
        })
        .collect()
}

fn pixel_count_prune(glyphs: &[(u32, Bitmap)], theta: u32) -> Vec<Pair> {
    let mut order: Vec<usize> = (0..glyphs.len()).collect();
    let counts: Vec<u32> = glyphs.iter().map(|(_, g)| g.popcount()).collect();
    order.sort_by_key(|&i| counts[i]);

    let counts_ref = &counts;
    let order_ref = &order;
    order
        .par_iter()
        .enumerate()
        .flat_map_iter(move |(rank, &i)| {
            let (cp_i, ref g_i) = glyphs[i];
            let ci = counts_ref[i];
            order_ref[rank + 1..]
                .iter()
                .take_while(move |&&j| counts_ref[j] <= ci + theta)
                .filter_map(move |&j| {
                    let (cp_j, ref g_j) = glyphs[j];
                    g_i.delta_capped(g_j, theta).map(|d| make_pair(cp_i, cp_j, d))
                })
        })
        .collect()
}

fn banded_index(glyphs: &[(u32, Bitmap)], theta: u32) -> Vec<Pair> {
    assert!(
        theta <= MAX_THETA,
        "Strategy::BandedIndex splits a glyph's {SIZE} rows into θ + 1 row classes, \
         so θ must be at most {MAX_THETA}; got θ = {theta}"
    );
    let parts = theta as usize + 1;
    let counts: Vec<u32> = glyphs.iter().map(|(_, g)| g.popcount()).collect();

    // Every glyph's part signatures, flat (`glyph × part`), kept for the
    // first-shared-part ownership test below.
    let mut sigs = vec![0u64; glyphs.len() * parts];
    for ((_, g), out) in glyphs.iter().zip(sigs.chunks_exact_mut(parts)) {
        g.row_class_signatures(out);
    }

    let counts = &counts;
    let sigs = &sigs;
    (0..parts)
        .into_par_iter()
        .flat_map_iter(move |part| {
            // Group glyphs by this part's signature with one sort: the
            // equal-signature runs come out ordered by ink count, so the
            // in-group prefilter is a `take_while` (`counts[j] >
            // counts[i] + θ` ends the scan). No hash map, and the group
            // order is deterministic by construction.
            let mut keyed: Vec<(u64, u32, u32)> = (0..glyphs.len())
                .map(|i| (sigs[i * parts + part], counts[i], i as u32))
                .collect();
            keyed.sort_unstable();
            let mut found = Vec::new();
            for run in keyed.chunk_by(|x, y| x.0 == y.0) {
                for (k, &(_, ci, i)) in run.iter().enumerate() {
                    let (i, g_i) = (i as usize, &glyphs[i as usize]);
                    for &(_, _, j) in run[k + 1..]
                        .iter()
                        .take_while(|&&(_, cj, _)| cj <= ci + theta)
                    {
                        // A pair sharing several parts sits in each of
                        // their groups; only its *first* shared part
                        // verifies it, so every candidate is verified
                        // exactly once.
                        let j = j as usize;
                        if (0..part).any(|b| sigs[i * parts + b] == sigs[j * parts + b]) {
                            continue;
                        }
                        let g_j = &glyphs[j];
                        if let Some(d) = g_i.1.delta_capped(&g_j.1, theta) {
                            found.push(make_pair(g_i.0, g_j.0, d));
                        }
                    }
                }
            }
            found
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_glyph::scriptgen::{perturb, stroke_glyph, Region};
    use std::collections::HashSet;

    /// A deterministic corpus with planted near-pairs.
    fn corpus() -> Vec<(u32, Bitmap)> {
        let mut out = Vec::new();
        for i in 0..120u32 {
            let base = stroke_glyph(u64::from(i / 3) * 977, Region::LETTER, 5);
            // Each triple shares a base: member 0 exact, member 1 at
            // distance 2, member 2 at distance 7 (outside θ = 4).
            let g = match i % 3 {
                0 => base,
                1 => perturb(base, u64::from(i) + 5000, 2),
                _ => perturb(base, u64::from(i) + 9000, 7),
            };
            out.push((0x4000 + i, g));
        }
        out
    }

    #[test]
    fn strategies_agree_exactly() {
        // The stroke corpus plants near-pairs; real glyphs add blank
        // margins and sparse marks. The row-class partition must stay
        // exact on both at every θ it takes.
        let font = sham_glyph::SynthUnifont::v12();
        let font_corpus =
            |blocks| crate::render_repertoire(&font, &crate::Repertoire::Blocks(blocks));
        let corpora = [
            corpus(),
            font_corpus(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Latin Extended-A",
                "Cyrillic",
                "Greek and Coptic",
                "Armenian",
            ]),
            font_corpus(vec![
                "Combining Diacritical Marks",
                "Combining Diacritical Marks Supplement",
                "Combining Half Marks",
            ]),
        ];
        for glyphs in &corpora {
            for theta in [0u32, 1, 2, 4, 6, 7, 15, 31] {
                let brute = find_pairs(glyphs, theta, Strategy::BruteForce);
                let prune = find_pairs(glyphs, theta, Strategy::PixelCountPrune);
                let banded = find_pairs(glyphs, theta, Strategy::BandedIndex);
                assert_eq!(brute, prune, "prune disagrees at theta={theta}");
                assert_eq!(brute, banded, "banded disagrees at theta={theta}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "θ = 32")]
    fn banded_index_names_theta_beyond_the_row_limit() {
        find_pairs(&[], 32, Strategy::BandedIndex);
    }

    #[test]
    fn strategies_are_thread_count_invariant() {
        // The executor merges per-chunk buffers in base order, so every
        // strategy must return byte-identical pair lists at any worker
        // count — this is the contract the determinism section of
        // docs/ARCHITECTURE.md documents.
        let glyphs = corpus();
        let baseline: Vec<Vec<Pair>> = {
            let _one = rayon::ThreadOverride::new(1);
            [Strategy::BruteForce, Strategy::PixelCountPrune, Strategy::BandedIndex]
                .iter()
                .map(|&s| find_pairs(&glyphs, 4, s))
                .collect()
        };
        for threads in [2usize, 5] {
            let _forced = rayon::ThreadOverride::new(threads);
            for (i, &s) in [Strategy::BruteForce, Strategy::PixelCountPrune, Strategy::BandedIndex]
                .iter()
                .enumerate()
            {
                assert_eq!(
                    find_pairs(&glyphs, 4, s),
                    baseline[i],
                    "{s:?} diverges at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn planted_pairs_are_found() {
        let glyphs = corpus();
        let pairs = find_pairs(&glyphs, 4, Strategy::BandedIndex);
        // Every triple contributes the (member0, member1) pair at Δ=2.
        let found: HashSet<(u32, u32)> = pairs.iter().map(|p| (p.a, p.b)).collect();
        for t in 0..40u32 {
            let a = 0x4000 + t * 3;
            let b = a + 1;
            assert!(found.contains(&(a, b)), "missing planted pair {a:X},{b:X}");
        }
        for p in &pairs {
            assert!(p.delta <= 4);
        }
    }

    #[test]
    fn theta_zero_finds_only_identical() {
        let base = stroke_glyph(1, Region::LETTER, 5);
        let glyphs = vec![(1u32, base), (2u32, base), (3u32, perturb(base, 9, 1))];
        let pairs = find_pairs(&glyphs, 0, Strategy::BruteForce);
        assert_eq!(pairs, vec![Pair { a: 1, b: 2, delta: 0 }]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(find_pairs(&[], 4, Strategy::BandedIndex).is_empty());
        let one = vec![(7u32, stroke_glyph(3, Region::LETTER, 4))];
        assert!(find_pairs(&one, 4, Strategy::BandedIndex).is_empty());
    }

    #[test]
    fn pair_ordering_is_canonical() {
        let base = stroke_glyph(11, Region::LETTER, 5);
        let glyphs = vec![(9u32, base), (3u32, base)];
        let pairs = find_pairs(&glyphs, 0, Strategy::PixelCountPrune);
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].a < pairs[0].b);
    }

    #[test]
    fn ssim_sweep_finds_identical_and_near_pairs() {
        let glyphs = corpus();
        let pairs = find_pairs_ssim(&glyphs, 0.97);
        assert!(!pairs.is_empty());
        // Identical glyphs (triple member 0 shares a base with nothing at
        // SSIM 1.0 except... each triple's members differ; the planted
        // Δ=2 pairs have SSIM close to 1 and must appear.
        let delta_pairs = find_pairs(&glyphs, 2, Strategy::BruteForce);
        for p in &delta_pairs {
            if p.delta == 0 {
                assert!(pairs.contains(p), "identical pair missing from SSIM sweep");
            }
        }
    }

    #[test]
    fn ssim_and_delta_databases_overlap_but_differ() {
        // The ablation claim: thresholded SSIM and thresholded Δ broadly
        // agree on near-identical glyphs but are not the same criterion.
        let glyphs = corpus();
        let by_delta: HashSet<(u32, u32)> =
            find_pairs(&glyphs, 4, Strategy::BruteForce).iter().map(|p| (p.a, p.b)).collect();
        let by_ssim: HashSet<(u32, u32)> =
            find_pairs_ssim(&glyphs, 0.95).iter().map(|p| (p.a, p.b)).collect();
        let overlap = by_delta.intersection(&by_ssim).count();
        assert!(overlap > 0);
        assert!(
            overlap * 2 >= by_delta.len().min(by_ssim.len()),
            "criteria should broadly agree: overlap {overlap}, delta {}, ssim {}",
            by_delta.len(),
            by_ssim.len()
        );
    }
}
