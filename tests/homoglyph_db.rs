//! Cross-crate consistency of the homoglyph databases: the SimChar build
//! respects IDNA and font invariants, UC and SimChar compose correctly,
//! and the figures' specific characters behave as the paper describes.

use shamfinder::measure::CharDbContext;
use shamfinder::prelude::*;
use shamfinder::unicode::{is_pvalid, repertoire};
use std::sync::OnceLock;

fn ctx() -> &'static CharDbContext {
    static CTX: OnceLock<CharDbContext> = OnceLock::new();
    CTX.get_or_init(CharDbContext::create)
}

#[test]
fn every_simchar_char_is_pvalid_and_covered() {
    let ctx = ctx();
    for cp in ctx.build.db.chars() {
        let code = CodePoint::new(cp).expect("valid code point");
        assert!(is_pvalid(code), "U+{cp:04X} in SimChar but not PVALID");
        assert!(ctx.font.covers(code), "U+{cp:04X} in SimChar but not covered");
    }
}

#[test]
fn every_simchar_pair_verifies_against_the_font() {
    let ctx = ctx();
    for (a, b, recorded) in ctx.build.db.pairs() {
        let ga = ctx.font.glyph(CodePoint(a)).expect("glyph a");
        let gb = ctx.font.glyph(CodePoint(b)).expect("glyph b");
        let actual = ga.delta(&gb);
        assert_eq!(actual, u32::from(recorded), "U+{a:04X}/U+{b:04X}");
        assert!(actual <= ctx.build.db.theta());
        assert!(ga.popcount() >= 10, "sparse char survived Step III");
        assert!(gb.popcount() >= 10);
    }
}

#[test]
fn simchar_repertoire_magnitudes_match_paper() {
    let ctx = ctx();
    // Paper: 52,457 rendered; 12,686 chars; 13,208 pairs.
    assert!((45_000..60_000).contains(&ctx.build.rendered), "{}", ctx.build.rendered);
    assert!(
        (8_000..16_000).contains(&ctx.build.db.char_count()),
        "{}",
        ctx.build.db.char_count()
    );
    assert!(
        (8_000..18_000).contains(&ctx.build.db.pair_count()),
        "{}",
        ctx.build.db.pair_count()
    );
}

#[test]
fn paper_table1_set_relations_hold() {
    let ctx = ctx();
    let stats = repertoire::repertoire_stats();
    let uc_chars = ctx.uc.char_set();
    let uc_idna = ctx.uc.filter(|cp| is_pvalid(CodePoint(cp)));

    // IDNA ≫ UC; UC ∩ IDNA ≪ UC; SimChar ≫ UC ∩ IDNA; SimChar ∩ UC small.
    assert!(stats.pvalid > uc_chars.len() * 10);
    assert!(uc_idna.char_set().len() * 3 < uc_chars.len());
    assert!(ctx.build.db.char_count() > uc_idna.char_set().len() * 5);
    let overlap = ctx.build.db.chars_in_common(&uc_chars);
    assert!(overlap < ctx.build.db.char_count() / 10, "overlap = {overlap}");
    assert!(overlap > 20, "the sets must still intersect: {overlap}");
}

#[test]
fn union_db_is_strictly_stronger_than_either() {
    let ctx = ctx();
    let db = HomoglyphDb::new(ctx.build.db.clone(), ctx.uc.clone());
    // SimChar-only pair: é/e (accents are not in UC).
    assert!(db.is_pair_with('e' as u32, 0xE9, DbSelection::SimCharOnly));
    assert!(!db.is_pair_with('e' as u32, 0xE9, DbSelection::UcOnly));
    // UC-only pair: the paper's Fig. 11 Warang Citi letter.
    assert!(db.is_pair_with('u' as u32, 0x118D8, DbSelection::UcOnly));
    assert!(!db.is_pair_with('u' as u32, 0x118D8, DbSelection::SimCharOnly));
    // Union has both.
    assert!(db.is_pair('e' as u32, 0xE9));
    assert!(db.is_pair('u' as u32, 0x118D8));
}

#[test]
fn figure2_walkthrough() {
    // The exact walk of the paper's Figure 2: gօօgle matches google
    // through the DB; gocaié fails at the first mismatching position.
    let ctx = ctx();
    let db = HomoglyphDb::new(ctx.build.db.clone(), ctx.uc.clone());
    let reference: Vec<char> = "google".chars().collect();
    let positive: Vec<char> = "gօօgle".chars().collect();
    let negative: Vec<char> = "gocaié".chars().collect();

    for (r, x) in reference.iter().zip(&positive) {
        assert!(r == x || db.is_pair(*r as u32, *x as u32));
    }
    let first_bad = reference
        .iter()
        .zip(&negative)
        .position(|(r, x)| r != x && !db.is_pair(*r as u32, *x as u32));
    assert!(first_bad.is_some(), "gocaié must fail somewhere");
}

#[test]
fn simchar_export_round_trips_at_scale() {
    let ctx = ctx();
    let text = ctx.build.db.to_text();
    let loaded = SimCharDb::from_text(&text).expect("parse export");
    assert_eq!(loaded.pair_count(), ctx.build.db.pair_count());
    assert_eq!(loaded.char_count(), ctx.build.db.char_count());
    // Spot-check a known pair.
    assert!(loaded.is_pair('o' as u32, 0x043E));
}

#[test]
fn font_versions_change_coverage_not_existing_glyphs() {
    let ctx = ctx();
    let old = shamfinder::glyph::SynthUnifont::v11();
    // Version 11 covers strictly less.
    let covered_new = repertoire::pvalid_code_points()
        .filter(|&cp| ctx.font.covers(cp))
        .count();
    let covered_old = repertoire::pvalid_code_points()
        .filter(|&cp| old.covers(cp))
        .count();
    assert!(covered_old < covered_new);
    // Shared glyphs identical — SimChar updates are incremental in
    // spirit (paper §4.2).
    for cp in [0x61u32, 0x0430, 0xAC00, 0x4E8C] {
        let code = CodePoint(cp);
        assert_eq!(old.glyph(code), ctx.font.glyph(code));
    }
}

#[test]
fn theta_sweep_is_monotone() {
    // Larger θ can only add pairs (Fig. 9's companion property).
    use shamfinder::simchar::{build, BuildConfig, Repertoire};
    let font = SynthUnifont::v12();
    let mut last = 0usize;
    for theta in [0u32, 2, 4, 6] {
        let result = build(
            &font,
            &BuildConfig {
                theta,
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                ]),
                ..BuildConfig::default()
            },
        );
        assert!(
            result.db.pair_count() >= last,
            "θ={theta} lost pairs: {} < {last}",
            result.db.pair_count()
        );
        last = result.db.pair_count();
    }
    assert!(last > 0);
}

#[test]
fn full_build_is_pinned_at_one_and_two_threads() {
    // The θ = 4 full-repertoire build, counted and fingerprinted on both
    // executor paths. Step I's repertoire walk and Step II's candidate
    // index are accelerations of an exact definition, so a change to
    // either must not gain or lose a glyph, a pair or a sparse character.
    use shamfinder::simchar::{build, BuildConfig, SourceFingerprint};
    let font = SynthUnifont::v12();
    let uc = UcDatabase::embedded();
    for threads in [1usize, 2] {
        let _forced = rayon::ThreadOverride::new(threads);
        let result = build(&font, &BuildConfig::default());
        let counts = (
            result.rendered,
            result.raw_pairs,
            result.db.pair_count(),
            result.db.char_count(),
            result.sparse_chars.len(),
        );
        assert_eq!(
            counts,
            (50_617, 21_581, 10_955, 10_416, 1_053),
            "{threads} threads"
        );
        let fingerprint = SourceFingerprint::of(&result.db, &uc);
        assert_eq!(fingerprint.font, 0x4315_3d9e_5095_e590, "{threads} threads");
    }
}
