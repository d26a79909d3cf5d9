//! The SimChar construction pipeline (paper §3.3, Steps I–III).
//!
//! * **Step I** — render every character in the build repertoire (the
//!   IDNA2008 PVALID set intersected with the font's coverage) as a 32×32
//!   bitmap, in one parallel pass: [`render_repertoire`].
//! * **Step II** — find all pairs with pixel difference Δ ≤ θ (default
//!   θ = 4, validated by the paper's Experiment 1).
//! * **Step III** — eliminate *sparse* characters: glyphs with fewer than
//!   10 black pixels (punctuation-like, spacing and combining marks;
//!   paper Fig. 7).
//!
//! The build reports per-step wall times, reproducing Table 5.

use crate::db::SimCharDb;
use crate::pairs::{find_pairs, Pair, Strategy};
use rayon::prelude::*;
use sham_glyph::{Bitmap, GlyphSource};
use sham_unicode::{block_by_name, blocks::BLOCKS, is_pvalid, CodePoint};
use std::time::{Duration, Instant};

/// Default SimChar threshold θ (paper §3.3, validated in §4.1).
pub const DEFAULT_THETA: u32 = 4;

/// Step III ink threshold: glyphs with fewer black pixels are sparse.
pub const SPARSE_MIN_PIXELS: u32 = 10;

/// Which part of the PVALID repertoire to build over.
#[derive(Debug, Clone)]
pub enum Repertoire {
    /// Everything PVALID that the font covers (the paper's setting).
    Full,
    /// Only the listed blocks (fast unit-test builds, per-block studies).
    Blocks(Vec<&'static str>),
    /// An explicit code-point list.
    CodePoints(Vec<u32>),
}

/// Build configuration.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Pixel-difference threshold θ. The default
    /// [`Strategy::BandedIndex`] splits each 32-row glyph into θ + 1 row
    /// classes, so it needs θ + 1 ≤ 32, i.e. θ ≤ [`crate::MAX_THETA`];
    /// it panics, naming θ, on a larger one.
    pub theta: u32,
    /// Minimum ink for a glyph to be kept in Step III.
    pub sparse_min_pixels: u32,
    /// Pairwise strategy.
    pub strategy: Strategy,
    /// Repertoire selection.
    pub repertoire: Repertoire,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            theta: DEFAULT_THETA,
            sparse_min_pixels: SPARSE_MIN_PIXELS,
            strategy: Strategy::BandedIndex,
            repertoire: Repertoire::Full,
        }
    }
}

/// Wall-clock timings of the three build steps (Table 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Step I: generating glyph images.
    pub render: Duration,
    /// Step II: computing Δ for candidate pairs.
    pub pairwise: Duration,
    /// Step III: eliminating sparse characters.
    pub sparse_elimination: Duration,
}

/// Outcome of a SimChar build.
#[derive(Debug, Clone)]
pub struct BuildResult {
    /// The resulting database.
    pub db: SimCharDb,
    /// Per-step timings (Table 5).
    pub timings: BuildTimings,
    /// Number of glyphs rendered in Step I.
    pub rendered: usize,
    /// Pairs found in Step II before sparse elimination.
    pub raw_pairs: usize,
    /// Characters eliminated as sparse in Step III (Fig. 7 examples).
    pub sparse_chars: Vec<u32>,
}

/// Step I's work list: the repertoire as inclusive code-point ranges of
/// at most `SEGMENT` points, in repertoire order, so the pool can share
/// out big blocks such as Hangul Syllables.
fn segments(rep: &Repertoire) -> Vec<(u32, u32)> {
    const SEGMENT: u32 = 256;
    let blocks: Vec<(u32, u32)> = match rep {
        Repertoire::Full => BLOCKS.iter().map(|b| (b.start, b.end)).collect(),
        Repertoire::Blocks(names) => names
            .iter()
            .map(|name| {
                let block = block_by_name(name)
                    .unwrap_or_else(|| panic!("unknown block {name:?} in repertoire"));
                (block.start, block.end)
            })
            .collect(),
        Repertoire::CodePoints(list) => return list.iter().map(|&v| (v, v)).collect(),
    };
    blocks
        .into_iter()
        .flat_map(|(start, end)| {
            (start..=end)
                .step_by(SEGMENT as usize)
                .map(move |lo| (lo, end.min(lo + (SEGMENT - 1))))
        })
        .collect()
}

/// Step I: renders every PVALID code point of `rep` that `font` has a
/// glyph for, in repertoire order, in one pass on the pool. A code point
/// the font does not cover has no glyph, so no separate coverage pass
/// runs first.
pub fn render_repertoire(font: &(impl GlyphSource + Sync), rep: &Repertoire) -> Vec<(u32, Bitmap)> {
    segments(rep)
        .par_iter()
        .flat_map_iter(|&(lo, hi)| {
            (lo..=hi).filter_map(|v| {
                let cp = CodePoint::new(v).filter(|&cp| is_pvalid(cp))?;
                font.glyph(cp).map(|g| (v, g))
            })
        })
        .collect()
}

/// Runs the full three-step construction.
pub fn build(font: &(impl GlyphSource + Sync), config: &BuildConfig) -> BuildResult {
    // Step I: render.
    let t0 = Instant::now();
    let glyphs = render_repertoire(font, &config.repertoire);
    let render = t0.elapsed();

    // Step II: pairwise Δ.
    let t1 = Instant::now();
    let raw: Vec<Pair> = find_pairs(&glyphs, config.theta, config.strategy);
    let pairwise = t1.elapsed();

    // Step III: sparse elimination.
    let t2 = Instant::now();
    let sparse: std::collections::HashSet<u32> = glyphs
        .iter()
        .filter(|(_, g)| g.popcount() < config.sparse_min_pixels)
        .map(|&(cp, _)| cp)
        .collect();
    let kept: Vec<Pair> = raw
        .iter()
        .copied()
        .filter(|p| !sparse.contains(&p.a) && !sparse.contains(&p.b))
        .collect();
    let sparse_elimination = t2.elapsed();

    let mut sparse_chars: Vec<u32> = sparse.into_iter().collect();
    sparse_chars.sort_unstable();

    BuildResult {
        db: SimCharDb::from_pairs(kept, config.theta),
        timings: BuildTimings { render, pairwise, sparse_elimination },
        rendered: glyphs.len(),
        raw_pairs: raw.len(),
        sparse_chars,
    }
}

/// Incrementally extends an existing build after a font/Unicode update
/// (paper §4.2: "we would need to update SimChar when the Unicode
/// standard adds a new set of glyphs … the frequency of updating SimChar
/// should be reasonably low; Unicode 12 added 553 characters").
///
/// Only the `new × (old ∪ new)` comparisons run — for a 553-character
/// Unicode release against a 52 K repertoire that is ~3% of a full
/// rebuild even before indexing. The result is identical to a fresh
/// [`build`] over the union repertoire (asserted in tests).
pub fn update_build(
    font: &(impl GlyphSource + Sync),
    previous: &BuildResult,
    previous_repertoire: &Repertoire,
    config: &BuildConfig,
) -> BuildResult {
    let t0 = Instant::now();
    // Render both repertoires (cheap) and mark which glyphs are new.
    let old_cps: std::collections::HashSet<u32> = render_repertoire(font, previous_repertoire)
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    let glyphs = render_repertoire(font, &config.repertoire);
    let render = t0.elapsed();

    let t1 = Instant::now();
    let added_set: std::collections::HashSet<u32> = glyphs
        .iter()
        .map(|&(v, _)| v)
        .filter(|v| !old_cps.contains(v))
        .collect();
    let new_glyphs: Vec<(u32, Bitmap)> = glyphs
        .iter()
        .filter(|(v, _)| added_set.contains(v))
        .copied()
        .collect();
    // new × everything: for each new glyph, compare against all glyphs.
    let added_ref = &added_set;
    let glyphs_ref = &glyphs;
    let mut fresh: Vec<Pair> = new_glyphs
        .par_iter()
        .flat_map_iter(move |&(cp_n, ref g_n)| {
            glyphs_ref.iter().filter_map(move |&(cp_o, ref g_o)| {
                if cp_o == cp_n || (added_ref.contains(&cp_o) && cp_o < cp_n) {
                    // Skip self and de-duplicate new×new (kept once).
                    return None;
                }
                g_n.delta_capped(g_o, config.theta).map(|d| {
                    let (a, b) = if cp_n < cp_o { (cp_n, cp_o) } else { (cp_o, cp_n) };
                    Pair { a, b, delta: d as u8 }
                })
            })
        })
        .collect();
    fresh.sort();
    fresh.dedup();
    let pairwise = t1.elapsed();

    // Merge with the previous pairs and re-apply Step III over the union.
    let t2 = Instant::now();
    let sparse: std::collections::HashSet<u32> = glyphs
        .iter()
        .filter(|(_, g)| g.popcount() < config.sparse_min_pixels)
        .map(|&(cp, _)| cp)
        .collect();
    let mut all: Vec<Pair> = previous
        .db
        .pairs()
        .map(|(a, b, d)| Pair { a, b, delta: d })
        .chain(fresh)
        .filter(|p| !sparse.contains(&p.a) && !sparse.contains(&p.b))
        .collect();
    all.sort();
    all.dedup();
    let sparse_elimination = t2.elapsed();

    let mut sparse_chars: Vec<u32> = sparse.into_iter().collect();
    sparse_chars.sort_unstable();

    BuildResult {
        db: SimCharDb::from_pairs(all, config.theta),
        timings: BuildTimings { render, pairwise, sparse_elimination },
        rendered: glyphs.len(),
        raw_pairs: previous.raw_pairs,
        sparse_chars,
    }
}

/// Finds the repertoire characters at *exact* distance `delta` from the
/// glyph of `target` — the paper's Figure 6 ("characters under different
/// values of the threshold Δ" for the letter `e`).
pub fn neighbours_at(
    font: &(impl GlyphSource + Sync),
    rep: &Repertoire,
    target: char,
    delta: u32,
) -> Vec<u32> {
    let Some(target_glyph) = font.glyph(CodePoint::from(target)) else {
        return Vec::new();
    };
    let mut out: Vec<u32> = render_repertoire(font, rep)
        .into_iter()
        .filter(|&(v, ref g)| v != target as u32 && g.delta(&target_glyph) == delta)
        .map(|(v, _)| v)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_glyph::SynthUnifont;

    fn small_config(blocks: Vec<&'static str>) -> BuildConfig {
        BuildConfig { repertoire: Repertoire::Blocks(blocks), ..BuildConfig::default() }
    }

    #[test]
    fn latin_cyrillic_build_finds_classic_pairs() {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &small_config(vec!["Basic Latin", "Cyrillic", "Greek and Coptic"]),
        );
        let db = &result.db;
        assert!(db.is_pair('o' as u32, 0x043E), "o / Cyrillic o");
        assert!(db.is_pair('a' as u32, 0x0430), "a / Cyrillic a");
        assert!(db.is_pair('o' as u32, 0x03BF), "o / omicron");
        assert!(db.is_pair(0x043E, 0x03BF), "Cyrillic o / omicron");
        assert!(!db.is_pair('a' as u32, 'b' as u32));
    }

    #[test]
    fn accented_latin_appears_within_threshold() {
        let font = SynthUnifont::v12();
        let result = build(&font, &small_config(vec!["Basic Latin", "Latin-1 Supplement"]));
        let db = &result.db;
        assert!(db.is_pair('e' as u32, 0xE9), "e / é");
        assert!(db.is_pair('o' as u32, 0xF3), "o / ó");
        assert!(db.is_pair('o' as u32, 0xF6), "ö is inside θ=4");
        assert!(!db.is_pair('o' as u32, 0xF5), "õ is outside θ=4");
    }

    #[test]
    fn uppercase_is_not_in_repertoire() {
        let font = SynthUnifont::v12();
        let cps: Vec<u32> = render_repertoire(&font, &Repertoire::Blocks(vec!["Basic Latin"]))
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert!(cps.contains(&('a' as u32)));
        assert!(cps.contains(&('0' as u32)));
        assert!(!cps.contains(&('A' as u32)));
        assert!(!cps.contains(&('$' as u32)));
    }

    #[test]
    fn sparse_characters_are_eliminated() {
        let font = SynthUnifont::v12();
        // Combining Diacritical Marks render sparse and are PVALID, so
        // they reach Step III and must be dropped there.
        let result = build(
            &font,
            &small_config(vec!["Basic Latin", "Combining Diacritical Marks"]),
        );
        assert!(!result.sparse_chars.is_empty());
        for &cp in &result.sparse_chars {
            assert!(
                font.glyph(CodePoint(cp)).unwrap().popcount() < SPARSE_MIN_PIXELS
            );
        }
        // No pair in the final DB touches a sparse character.
        for &cp in &result.sparse_chars {
            assert!(result.db.homoglyphs_of(cp).is_empty());
        }
    }

    #[test]
    fn hangul_block_dominates_its_own_build() {
        let font = SynthUnifont::v12();
        let result = build(&font, &small_config(vec!["Hangul Syllables"]));
        // The jamo-composition geometry must produce thousands of pairs
        // (Table 4: Hangul is SimChar's largest block).
        assert!(result.db.pair_count() > 2_000, "pairs = {}", result.db.pair_count());
        assert!(result.db.char_count() > 4_000, "chars = {}", result.db.char_count());
    }

    #[test]
    fn theta_zero_build_is_subset_of_theta_four() {
        let font = SynthUnifont::v12();
        let blocks = vec!["Basic Latin", "Cyrillic"];
        let t0 = build(
            &font,
            &BuildConfig { theta: 0, ..small_config(blocks.clone()) },
        );
        let t4 = build(&font, &small_config(blocks));
        assert!(t0.db.pair_count() <= t4.db.pair_count());
        for (a, b, _) in t0.db.pairs() {
            assert!(t4.db.is_pair(a, b));
        }
    }

    #[test]
    fn neighbours_at_exact_distance() {
        let font = SynthUnifont::v12();
        let rep = Repertoire::Blocks(vec!["Basic Latin", "Cyrillic", "Greek and Coptic"]);
        let zero = neighbours_at(&font, &rep, 'o', 0);
        assert!(zero.contains(&0x043E));
        assert!(zero.contains(&0x03BF));
        // Armenian oh is at distance 1 but Armenian is outside this
        // repertoire; distance-0 sets never contain the target itself.
        assert!(!zero.contains(&('o' as u32)));
    }

    #[test]
    fn timings_are_populated() {
        let font = SynthUnifont::v12();
        let result = build(&font, &small_config(vec!["Basic Latin"]));
        assert!(result.rendered > 30);
        // Durations exist (may be sub-millisecond, just non-negative).
        let _ = result.timings.render + result.timings.pairwise;
    }

    #[test]
    fn incremental_update_equals_full_rebuild() {
        // Simulate a Unicode release: the repertoire grows from
        // Latin+Cyrillic to also include Greek and Armenian.
        let font = SynthUnifont::v12();
        let old_rep = Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]);
        let new_rep = Repertoire::Blocks(vec![
            "Basic Latin",
            "Cyrillic",
            "Greek and Coptic",
            "Armenian",
        ]);
        let old = build(&font, &BuildConfig { repertoire: old_rep.clone(), ..Default::default() });
        let incremental = update_build(
            &font,
            &old,
            &old_rep,
            &BuildConfig { repertoire: new_rep.clone(), ..Default::default() },
        );
        let full = build(&font, &BuildConfig { repertoire: new_rep, ..Default::default() });

        assert_eq!(incremental.db.pair_count(), full.db.pair_count());
        let inc: Vec<_> = incremental.db.pairs().collect();
        let fl: Vec<_> = full.db.pairs().collect();
        assert_eq!(inc, fl, "incremental update must reproduce the full build");
        // The new cross-repertoire pair must be present: ο (Greek) ↔ о.
        assert!(incremental.db.is_pair(0x03BF, 0x043E));
    }

    #[test]
    fn incremental_update_with_no_additions_is_identity() {
        let font = SynthUnifont::v12();
        let rep = Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]);
        let old = build(&font, &BuildConfig { repertoire: rep.clone(), ..Default::default() });
        let same = update_build(
            &font,
            &old,
            &rep,
            &BuildConfig { repertoire: rep.clone(), ..Default::default() },
        );
        assert_eq!(
            old.db.pairs().collect::<Vec<_>>(),
            same.db.pairs().collect::<Vec<_>>()
        );
    }
}
