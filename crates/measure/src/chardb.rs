//! Character-database experiments: Tables 1–5 and Figures 5–7.
//!
//! These experiments characterise the homoglyph databases themselves —
//! repertoire sizes, per-letter and per-block profiles, construction
//! cost, and example glyphs — before any domain data enters the picture.

use crate::tables::{thousands, TextTable};
use sham_confusables::UcDatabase;
use sham_glyph::{Bitmap, GlyphSource, SynthUnifont};
use sham_simchar::{build, neighbours_at, BuildConfig, BuildResult, Repertoire};
use sham_unicode::{is_pvalid, repertoire, CodePoint};
use std::collections::BTreeSet;

/// A full character-database experiment context: one font, one UC
/// database, one full-repertoire SimChar build.
pub struct CharDbContext {
    /// The font used.
    pub font: SynthUnifont,
    /// The consortium list.
    pub uc: UcDatabase,
    /// The SimChar build over the full repertoire.
    pub build: BuildResult,
}

impl CharDbContext {
    /// Builds the full context (the expensive part is the SimChar build,
    /// under 0.1 s in release mode).
    pub fn create() -> Self {
        let font = SynthUnifont::v12();
        let uc = UcDatabase::embedded();
        let build = build(&font, &BuildConfig::default());
        CharDbContext { font, uc, build }
    }

    /// Table 1: character-set sizes across IDNA, UC and SimChar.
    pub fn table1(&self) -> TextTable {
        let stats = repertoire::repertoire_stats();
        let uc_chars = self.uc.char_set();
        let uc_idna = self.uc.filter(|cp| is_pvalid(CodePoint(cp)));
        let uc_idna_chars = uc_idna.char_set();
        let sim_chars: BTreeSet<u32> = self.build.db.chars().collect();
        let sim_uc: usize = self.build.db.chars_in_common(&uc_chars);

        // SimChar ∪ (UC ∩ IDNA) — the union the framework uses.
        let mut union_chars = sim_chars.clone();
        union_chars.extend(uc_idna_chars.iter().copied());
        let union_pairs = self.build.db.pair_count() + uc_idna.pair_count();

        let mut t = TextTable::new(
            "Table 1: characters and homoglyph pairs per set (paper values in brackets)",
            &["Set", "# characters", "# pairs"],
        );
        t.row(&[
            "IDNA [123,006]".into(),
            thousands(stats.pvalid as u64),
            "n/a".into(),
        ]);
        t.row(&[
            "UC [9,605 / 6,296]".into(),
            thousands(uc_chars.len() as u64),
            thousands(self.uc.pair_count() as u64),
        ]);
        t.row(&[
            "UC ∩ IDNA [980 / 627]".into(),
            thousands(uc_idna_chars.len() as u64),
            thousands(uc_idna.pair_count() as u64),
        ]);
        t.row(&[
            "SimChar [12,686 / 13,208]".into(),
            thousands(sim_chars.len() as u64),
            thousands(self.build.db.pair_count() as u64),
        ]);
        t.row(&[
            "SimChar ∩ UC [233 / 127]".into(),
            thousands(sim_uc as u64),
            "n/a".into(),
        ]);
        t.row(&[
            "SimChar ∪ (UC ∩ IDNA) [13,210 / 13,708]".into(),
            thousands(union_chars.len() as u64),
            thousands(union_pairs as u64),
        ]);
        t
    }

    /// Table 2: set sizes within the font's coverage.
    pub fn table2(&self) -> TextTable {
        let covered_idna = repertoire::pvalid_code_points()
            .filter(|&cp| self.font.covers(cp))
            .count();
        let uc_covered = self
            .uc
            .char_set()
            .iter()
            .filter(|&&cp| CodePoint::new(cp).is_some_and(|c| self.font.covers(c)))
            .count();
        let uc_pairs_covered = self
            .uc
            .entries()
            .filter(|(s, t)| {
                CodePoint::new(*s).is_some_and(|c| self.font.covers(c))
                    && t.iter().all(|&v| {
                        CodePoint::new(v).is_some_and(|c| self.font.covers(c))
                    })
            })
            .count();
        let mut t = TextTable::new(
            "Table 2: sets within SynthUnifont12 coverage (paper values in brackets)",
            &["Set", "# chars", "# pairs"],
        );
        t.row(&[
            "IDNA ∩ Unifont12 [52,457]".into(),
            thousands(covered_idna as u64),
            "n/a".into(),
        ]);
        t.row(&[
            "UC ∩ Unifont12 [5,080 / 3,696]".into(),
            thousands(uc_covered as u64),
            thousands(uc_pairs_covered as u64),
        ]);
        t.row(&[
            "SimChar ∩ Unifont12 [12,686 / 13,208]".into(),
            thousands(self.build.db.char_count() as u64),
            thousands(self.build.db.pair_count() as u64),
        ]);
        t
    }

    /// Table 3: homoglyphs per Basic Latin lowercase letter, SimChar vs
    /// UC ∩ IDNA.
    pub fn table3(&self) -> TextTable {
        let uc_idna = self.uc.filter(|cp| is_pvalid(CodePoint(cp)));
        let mut t = TextTable::new(
            "Table 3: homoglyphs of Latin lowercase letters (paper: SimChar 351 total, UC∩IDNA 141)",
            &["Letter", "SimChar", "UC ∩ IDNA"],
        );
        let mut sim_total = 0usize;
        let mut uc_total = 0usize;
        for (letter, sim_count) in self.build.db.latin_profile() {
            let uc_count = uc_idna.homoglyphs_of(letter as u32).len();
            sim_total += sim_count;
            uc_total += uc_count;
            if sim_count > 0 || uc_count > 0 {
                t.row(&[letter.to_string(), sim_count.to_string(), uc_count.to_string()]);
            }
        }
        t.row(&["TOTAL".into(), sim_total.to_string(), uc_total.to_string()]);
        t
    }

    /// Table 4: top-5 Unicode blocks in SimChar and UC ∩ IDNA.
    pub fn table4(&self) -> TextTable {
        let uc_idna = self.uc.filter(|cp| is_pvalid(CodePoint(cp)));
        let mut uc_blocks: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for cp in uc_idna.char_set() {
            if let Some(b) = sham_unicode::block_of(CodePoint(cp)) {
                *uc_blocks.entry(b.name).or_default() += 1;
            }
        }
        let mut uc_sorted: Vec<(&str, usize)> = uc_blocks.into_iter().collect();
        uc_sorted.sort_by_key(|e| std::cmp::Reverse(e.1));

        let sim_sorted = self.build.db.block_profile();
        let mut t = TextTable::new(
            "Table 4: top-5 blocks (paper: SimChar Hangul 8,787 / CJK 395 / CA 387 / Vai 134 / Arabic 107)",
            &["Rank", "SimChar block", "#", "UC∩IDNA block", "#"],
        );
        for i in 0..5 {
            let (sb, sc) = sim_sorted.get(i).copied().unwrap_or(("—", 0));
            let (ub, uc_c) = uc_sorted.get(i).copied().unwrap_or(("—", 0));
            t.row(&[
                (i + 1).to_string(),
                sb.to_string(),
                sc.to_string(),
                ub.to_string(),
                uc_c.to_string(),
            ]);
        }
        t
    }

    /// Table 5: SimChar construction wall times.
    pub fn table5(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 5: SimChar construction time (paper: 79.2 s render / 10.9 h pairwise / 18.0 s sparse on 15 cores)",
            &["Process", "Time"],
        );
        let tm = &self.build.timings;
        t.row(&["Generating images".into(), format!("{:?}", tm.render)]);
        t.row(&["Computing Δ for all the pairs".into(), format!("{:?}", tm.pairwise)]);
        t.row(&["Eliminating sparse characters".into(), format!("{:?}", tm.sparse_elimination)]);
        t.row(&["Rendered glyphs".into(), thousands(self.build.rendered as u64)]);
        t.row(&["Raw pairs".into(), thousands(self.build.raw_pairs as u64)]);
        t
    }

    /// §7.1 extension — font sensitivity: build SimChar with a second
    /// typeface and measure how much of the database survives the font
    /// change ("the choice of a font may affect the detected
    /// homoglyphs … we aim to evaluate other fonts in future work").
    pub fn font_sensitivity(&self) -> TextTable {
        let noto = SynthUnifont::noto();
        let noto_build = build(&noto, &BuildConfig::default());

        let uni_pairs: BTreeSet<(u32, u32)> =
            self.build.db.pairs().map(|(a, b, _)| (a, b)).collect();
        let noto_pairs: BTreeSet<(u32, u32)> =
            noto_build.db.pairs().map(|(a, b, _)| (a, b)).collect();
        let shared = uni_pairs.intersection(&noto_pairs).count();
        let union = uni_pairs.union(&noto_pairs).count();

        let mut t = TextTable::new(
            "Extension (§7.1): SimChar sensitivity to the font family",
            &["Metric", "Value"],
        );
        t.row(&["SynthUnifont12 pairs".into(), thousands(uni_pairs.len() as u64)]);
        t.row(&["SynthNoto12 pairs".into(), thousands(noto_pairs.len() as u64)]);
        t.row(&["Shared pairs".into(), thousands(shared as u64)]);
        t.row(&[
            "Jaccard overlap".into(),
            format!("{:.1}%", 100.0 * shared as f64 / union.max(1) as f64),
        ]);
        // The stable core: visual-class and diacritic pairs survive any
        // typeface; the procedural (per-font) tail churns.
        let stable = uni_pairs
            .iter()
            .filter(|&&(a, b)| a < 0x2000 || (0x61..=0x7A).contains(&a.min(b)))
            .filter(|p| noto_pairs.contains(p))
            .count();
        t.row(&["Shared Latin-anchored pairs".into(), thousands(stable as u64)]);
        t
    }

    /// Extension — closure-component diagnostics over SimChar ∪ UC.
    /// The union-find closure behind the default `CanonicalClosure`
    /// candidate index can glue long confusable chains into one
    /// component; that is sound (candidates are re-verified pairwise)
    /// but a pathologically glued database turns the candidate filter
    /// into a broad net and shifts cost into verification. This table
    /// makes the component-size distribution visible: count, max,
    /// mean, and a size histogram.
    pub fn component_diagnostics(&self) -> TextTable {
        use sham_simchar::FlatPairIndex;
        let flat = FlatPairIndex::build(&self.build.db, &self.uc);
        let sizes = flat.component_sizes();
        let chars = flat.char_count();
        let max = sizes.first().copied().unwrap_or(0);
        let mean = chars as f64 / sizes.len().max(1) as f64;

        let mut t = TextTable::new(
            "Extension: canonical-closure component-size distribution (SimChar ∪ UC)",
            &["Metric", "Value"],
        );
        t.row(&["Characters in pairs".into(), thousands(chars as u64)]);
        t.row(&["Pair edges".into(), thousands(flat.pair_count() as u64)]);
        t.row(&["Components".into(), thousands(sizes.len() as u64)]);
        t.row(&["Largest component".into(), thousands(u64::from(max))]);
        t.row(&["Mean component size".into(), format!("{mean:.2}")]);
        // Histogram over power-of-two-ish buckets; every component has
        // ≥ 2 members (a component is born from at least one edge).
        let buckets: &[(u32, u32, &str)] = &[
            (2, 2, "size 2"),
            (3, 4, "size 3–4"),
            (5, 8, "size 5–8"),
            (9, 16, "size 9–16"),
            (17, 32, "size 17–32"),
            (33, u32::MAX, "size 33+"),
        ];
        for &(lo, hi, label) in buckets {
            let n = sizes.iter().filter(|&&s| (lo..=hi).contains(&s)).count();
            t.row(&[format!("— {label}"), thousands(n as u64)]);
        }
        t
    }

    /// Figure 5: example glyph pairs as ASCII art.
    pub fn figure5(&self) -> String {
        let pairs: &[(u32, u32, &str)] = &[
            (0x10E7, 0x0079, "Georgian qar / y"),
            (0x0253, 0x0062, "b-with-hook / b"),
            (0x0430, 0x0061, "Cyrillic a / a"),
            (0x91CC, 0x573C, "CJK pair"),
            (0xBFC8, 0xBF58, "Hangul pair"),
            (0x0B32, 0x0B33, "Oriya la / lla"),
        ];
        let mut out = String::from("Figure 5: example glyph images (# = ink)\n\n");
        for &(a, b, label) in pairs {
            let (Some(ga), Some(gb)) = (
                self.font.glyph(CodePoint(a)),
                self.font.glyph(CodePoint(b)),
            ) else {
                continue;
            };
            out.push_str(&format!(
                "U+{a:04X} vs U+{b:04X} ({label}), Δ = {}\n",
                ga.delta(&gb)
            ));
            out.push_str(&Bitmap::ascii_art_pair(&ga, &gb));
            out.push('\n');
        }
        out
    }

    /// Figure 6: neighbours of `e` at Δ = 0..=6 (counts and examples).
    pub fn figure6(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 6: characters at exact pixel distance Δ from 'e' (θ = 4 cut-off)",
            &["Δ", "# chars", "examples"],
        );
        for delta in 0..=6u32 {
            let ns = neighbours_at(&self.font, &Repertoire::Full, 'e', delta);
            let examples: Vec<String> = ns
                .iter()
                .take(4)
                .map(|&v| {
                    format!("U+{v:04X}{}", char::from_u32(v).map(|c| format!(" {c}")).unwrap_or_default())
                })
                .collect();
            t.row(&[delta.to_string(), ns.len().to_string(), examples.join(", ")]);
        }
        t
    }

    /// Figure 7: sparse eliminated characters.
    pub fn figure7(&self) -> String {
        let mut out = String::from(
            "Figure 7: sparse characters eliminated in Step III (<10 px of ink)\n\n",
        );
        // The paper's four examples plus the first few from this build.
        let mut shown: Vec<u32> = vec![0x1BE7, 0x2DF5, 0xA953, 0xABEC];
        shown.extend(self.build.sparse_chars.iter().take(4).copied());
        shown.dedup();
        for cp in shown {
            if let Some(g) = self.font.glyph(CodePoint(cp)) {
                if g.popcount() < 10 {
                    out.push_str(&format!("U+{cp:04X} ({} px):\n{}\n", g.popcount(), g.ascii_art()));
                }
            }
        }
        out.push_str(&format!(
            "total sparse characters eliminated: {}\n",
            self.build.sparse_chars.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn ctx() -> &'static CharDbContext {
        static CTX: OnceLock<CharDbContext> = OnceLock::new();
        CTX.get_or_init(CharDbContext::create)
    }

    #[test]
    fn table1_shape_matches_paper() {
        let ctx = ctx();
        let stats = repertoire::repertoire_stats();
        // IDNA is ~10× UC; SimChar adds thousands of chars beyond UC∩IDNA.
        let uc_chars = ctx.uc.char_set().len();
        assert!(stats.pvalid > uc_chars * 10);
        let uc_idna = ctx.uc.filter(|cp| is_pvalid(CodePoint(cp))).char_set().len();
        assert!(uc_idna < uc_chars / 3);
        assert!(ctx.build.db.char_count() > uc_idna * 5);
        assert!(!ctx.table1().is_empty());
    }

    #[test]
    fn table4_top_block_is_hangul() {
        let profile = ctx().build.db.block_profile();
        assert_eq!(profile[0].0, "Hangul Syllables");
        assert!(profile[0].1 > 5_000);
        let top5: Vec<&str> = profile.iter().take(6).map(|&(n, _)| n).collect();
        assert!(top5.contains(&"Unified Canadian Aboriginal Syllabics"));
        assert!(top5.contains(&"Vai"));
    }

    #[test]
    fn table3_o_leads() {
        let profile = ctx().build.db.latin_profile();
        assert_eq!(profile[0].0, 'o');
        assert!(profile[0].1 >= 20, "o has {}", profile[0].1);
    }

    #[test]
    fn figure6_counts_grow_with_delta_band() {
        let t = ctx().figure6();
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn figure5_and_7_render() {
        let f5 = ctx().figure5();
        assert!(f5.contains("U+10E7"));
        assert!(f5.contains("Δ ="));
        let f7 = ctx().figure7();
        assert!(f7.contains("U+1BE7"));
    }
}
