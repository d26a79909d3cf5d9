//! The unified homoglyph database: UC ∪ SimChar.
//!
//! ShamFinder's detector consults both databases (paper Fig. 2): a
//! character pair is a homoglyph pair if either SimChar (pixel evidence)
//! or UC (consortium curation) lists it. The union also records *which*
//! source matched — the paper's Table 8/14 compare detection under
//! UC-only, SimChar-only and the union, and the warning UI (Fig. 12)
//! names the source.
//!
//! All pair queries are answered by the [`FlatPairIndex`] built once at
//! construction: interning both code points (two array reads each) and
//! binary-searching one CSR neighbour row. The component databases are
//! kept only for their own richer APIs (profiles, skeletons, per-pair
//! Δ) — the hot path never touches them.
//!
//! A snapshot mount skips that construction: [`HomoglyphDb::from_prebuilt`]
//! takes a flat index parsed from a full-index snapshot (see
//! `sham_core::DetectionIndex::from_snapshot_file`) and rejects it when
//! its recorded [`SourceFingerprint`] does not match the databases
//! supplied.

use crate::db::SimCharDb;
use crate::flat::{FlatPairIndex, SourceFingerprint};
use serde::{Deserialize, Serialize};
use sham_confusables::UcDatabase;
use std::collections::BTreeSet;
use std::io;
use std::sync::Arc;

/// Which database(s) attest a homoglyph pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairSource {
    /// Only SimChar lists the pair.
    SimChar,
    /// Only UC lists the pair.
    Uc,
    /// Both databases list it.
    Both,
}

/// Which component databases to consult — the experimental knob behind
/// Tables 8 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DbSelection {
    /// UC only (the prior work's configuration, Quinkert et al.).
    UcOnly,
    /// SimChar only.
    SimCharOnly,
    /// UC ∪ SimChar (ShamFinder's configuration).
    Union,
}

/// The combined homoglyph database.
///
/// The component databases are held behind [`Arc`]s: every constructor
/// takes `impl Into<Arc<_>>`, so existing owned-value callers compile
/// unchanged while a fleet of workers mounting snapshots over one
/// shared SimChar build + confusables table passes `Arc` clones and
/// pays two refcount bumps per mount instead of two deep copies.
#[derive(Debug, Clone)]
pub struct HomoglyphDb {
    simchar: Arc<SimCharDb>,
    uc: Arc<UcDatabase>,
    /// Flat interned view of the union pair relation: interner,
    /// component representatives, CSR adjacency with attribution.
    flat: FlatPairIndex,
}

impl HomoglyphDb {
    /// Combines a SimChar build with a UC database, building the flat
    /// pair index (interner + union-find closure + CSR) eagerly.
    pub fn new(
        simchar: impl Into<Arc<SimCharDb>>,
        uc: impl Into<Arc<UcDatabase>>,
    ) -> Self {
        let (simchar, uc) = (simchar.into(), uc.into());
        let flat = FlatPairIndex::build(&simchar, &uc);
        HomoglyphDb { simchar, uc, flat }
    }

    /// Assembles the database around a prebuilt flat index — typically
    /// one parsed with [`FlatPairIndex::read_with_section_bytes`] from a
    /// snapshot written earlier by [`FlatPairIndex::write_with_section`]
    /// — skipping the interner/union-find/CSR construction entirely.
    ///
    /// The snapshot's recorded [`SourceFingerprint`] is checked against
    /// the component databases actually supplied: a *stale* snapshot —
    /// built from a different font release (SimChar digest mismatch) or
    /// a different confusables revision (UC digest mismatch) — is
    /// rejected with a descriptive [`io::ErrorKind::InvalidData`]
    /// error instead of trusted, because its pair universe would answer
    /// queries for databases the process is not running.
    pub fn from_prebuilt(
        simchar: impl Into<Arc<SimCharDb>>,
        uc: impl Into<Arc<UcDatabase>>,
        flat: FlatPairIndex,
    ) -> io::Result<Self> {
        let (simchar, uc) = (simchar.into(), uc.into());
        let expected = SourceFingerprint::of(&simchar, &uc);
        let recorded = flat.fingerprint();
        if recorded != expected {
            let mut stale = Vec::new();
            if recorded.font != expected.font {
                stale.push("SimChar/font build");
            }
            if recorded.unicode != expected.unicode {
                stale.push("UC confusables revision");
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "stale FlatPairIndex snapshot: recorded source fingerprint \
                     (font {:#018x}, unicode {:#018x}) does not match the supplied \
                     databases (font {:#018x}, unicode {:#018x}) — mismatched: {}. \
                     Rebuild the snapshot with `shamfinder index build`.",
                    recorded.font,
                    recorded.unicode,
                    expected.font,
                    expected.unicode,
                    stale.join(" and "),
                ),
            ));
        }
        Ok(HomoglyphDb { simchar, uc, flat })
    }

    /// The SimChar component.
    pub fn simchar(&self) -> &SimCharDb {
        &self.simchar
    }

    /// The SimChar component's shared handle — clone this to mount
    /// further snapshots without copying the database.
    pub fn simchar_shared(&self) -> Arc<SimCharDb> {
        Arc::clone(&self.simchar)
    }

    /// The UC component.
    pub fn uc(&self) -> &UcDatabase {
        &self.uc
    }

    /// The UC component's shared handle.
    pub fn uc_shared(&self) -> Arc<UcDatabase> {
        Arc::clone(&self.uc)
    }

    /// The flat pair index over the union universe.
    pub fn flat(&self) -> &FlatPairIndex {
        &self.flat
    }

    /// Component representative of `cp` under the union-find closure of
    /// the pair graph (identity for code points in no pair). The basis
    /// of the `CanonicalClosure` candidate index in `sham_core`.
    #[inline]
    pub fn rep_of(&self, cp: u32) -> u32 {
        self.flat.rep_of(cp)
    }

    /// Tests a character pair under the given selection.
    pub fn is_pair_with(&self, a: u32, b: u32, selection: DbSelection) -> bool {
        self.pair_source_with(a, b, selection).is_some()
    }

    /// Tests a pair under the full union.
    pub fn is_pair(&self, a: u32, b: u32) -> bool {
        self.flat.pair_source(a, b).is_some()
    }

    /// Combined membership test and attribution in a single probe.
    /// Returns the **full union** attribution (matching
    /// [`HomoglyphDb::source_of`]) when the pair is attested by a
    /// component that `selection` admits, `None` otherwise — so
    /// `pair_source_with(a, b, s).is_some() == is_pair_with(a, b, s)`.
    /// This is the detector's inner-loop query: one CSR row probe,
    /// then a selection gate on the stored attribution.
    #[inline]
    pub fn pair_source_with(
        &self,
        a: u32,
        b: u32,
        selection: DbSelection,
    ) -> Option<PairSource> {
        let source = self.flat.pair_source(a, b)?;
        let admitted = match selection {
            DbSelection::Union => true,
            DbSelection::UcOnly => matches!(source, PairSource::Uc | PairSource::Both),
            DbSelection::SimCharOnly => {
                matches!(source, PairSource::SimChar | PairSource::Both)
            }
        };
        admitted.then_some(source)
    }

    /// Attribution for a pair, or `None` when neither database lists it.
    pub fn source_of(&self, a: u32, b: u32) -> Option<PairSource> {
        self.flat.pair_source(a, b)
    }

    /// All candidate substitutions for `cp` under the union: SimChar
    /// partners plus UC prototype relatives.
    pub fn homoglyphs_of(&self, cp: u32) -> BTreeSet<u32> {
        let mut out: BTreeSet<u32> = self
            .simchar
            .homoglyphs_of(cp)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        if let Some(proto) = self.uc.prototype(cp) {
            if proto.len() == 1 {
                out.insert(proto[0]);
                out.extend(self.uc.homoglyphs_of(proto[0]));
            }
        }
        out.extend(self.uc.homoglyphs_of(cp));
        out.remove(&cp);
        out
    }

    /// Summary counts: `(simchar pairs, uc pairs, union character count)`.
    pub fn stats(&self) -> (usize, usize, usize) {
        let mut chars: BTreeSet<u32> = self.simchar.chars().collect();
        chars.extend(self.uc.char_set());
        (self.simchar.pair_count(), self.uc.pair_count(), chars.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::Pair;
    use sham_confusables::parse;

    fn db() -> HomoglyphDb {
        let simchar = SimCharDb::from_pairs(
            vec![
                Pair { a: 'o' as u32, b: 0x0585, delta: 1 }, // SimChar-only
                Pair { a: 'o' as u32, b: 0x043E, delta: 0 }, // both
            ],
            4,
        );
        let uc = UcDatabase::from_mappings(
            parse("043E ; 006F ; MA\n03BF ; 006F ; MA\n").unwrap(), // UC: о→o, ο→o
        );
        HomoglyphDb::new(simchar, uc)
    }

    #[test]
    fn union_covers_both_sources() {
        let db = db();
        assert!(db.is_pair('o' as u32, 0x0585)); // SimChar only
        assert!(db.is_pair('o' as u32, 0x03BF)); // UC only
        assert!(db.is_pair('o' as u32, 0x043E)); // both
        assert!(!db.is_pair('o' as u32, 'e' as u32));
    }

    #[test]
    fn selection_restricts_sources() {
        let db = db();
        assert!(!db.is_pair_with('o' as u32, 0x0585, DbSelection::UcOnly));
        assert!(db.is_pair_with('o' as u32, 0x0585, DbSelection::SimCharOnly));
        assert!(!db.is_pair_with('o' as u32, 0x03BF, DbSelection::SimCharOnly));
        assert!(db.is_pair_with('o' as u32, 0x03BF, DbSelection::UcOnly));
    }

    #[test]
    fn pair_source_with_agrees_with_split_probes() {
        // The combined probe must behave exactly like is_pair_with
        // followed by source_of, for every selection and pair kind.
        let db = db();
        let cases = [
            ('o' as u32, 0x0585), // SimChar only
            ('o' as u32, 0x03BF), // UC only
            ('o' as u32, 0x043E), // both
            ('o' as u32, 'q' as u32), // neither
            ('o' as u32, 'o' as u32), // identical
        ];
        for selection in [DbSelection::UcOnly, DbSelection::SimCharOnly, DbSelection::Union] {
            for &(a, b) in &cases {
                let combined = db.pair_source_with(a, b, selection);
                assert_eq!(
                    combined.is_some(),
                    db.is_pair_with(a, b, selection),
                    "membership mismatch for {a:#X},{b:#X} under {selection:?}"
                );
                if combined.is_some() {
                    assert_eq!(
                        combined,
                        db.source_of(a, b),
                        "attribution mismatch for {a:#X},{b:#X} under {selection:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_prebuilt_accepts_matching_and_rejects_stale_snapshots() {
        let db = db();
        let (sim, uc) = (db.simchar().clone(), db.uc().clone());

        // Round trip against the same sources: accepted, identical
        // answers.
        let mut bytes = Vec::new();
        db.flat().write_with_section(&mut bytes, b"refs").unwrap();
        let load = || FlatPairIndex::read_with_section_bytes(&bytes).unwrap().0;
        let mounted = HomoglyphDb::from_prebuilt(sim.clone(), uc.clone(), load()).unwrap();
        assert!(mounted.is_pair('o' as u32, 0x0585));

        // A snapshot from a different font build: rejected, naming the
        // stale half.
        let other_sim = SimCharDb::from_pairs(
            vec![Pair { a: 'o' as u32, b: 0x0585, delta: 1 }],
            4,
        );
        let err = HomoglyphDb::from_prebuilt(other_sim, uc.clone(), load()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("stale"), "{err}");
        assert!(err.to_string().contains("SimChar/font build"), "{err}");

        // A snapshot from a different confusables revision likewise.
        let other_uc = UcDatabase::from_mappings(parse("03BF ; 006F ; MA\n").unwrap());
        let err = HomoglyphDb::from_prebuilt(sim, other_uc, load()).unwrap_err();
        assert!(err.to_string().contains("UC confusables revision"), "{err}");
    }

    #[test]
    fn source_attribution() {
        let db = db();
        assert_eq!(db.source_of('o' as u32, 0x0585), Some(PairSource::SimChar));
        assert_eq!(db.source_of('o' as u32, 0x03BF), Some(PairSource::Uc));
        assert_eq!(db.source_of('o' as u32, 0x043E), Some(PairSource::Both));
        assert_eq!(db.source_of('o' as u32, 'q' as u32), None);
    }

    #[test]
    fn homoglyphs_union() {
        let db = db();
        let h = db.homoglyphs_of('o' as u32);
        assert!(h.contains(&0x0585));
        assert!(h.contains(&0x043E));
        assert!(h.contains(&0x03BF));
        assert!(!h.contains(&('o' as u32)));
        // Reverse direction: homoglyphs of Cyrillic o include Latin o via
        // the UC prototype and omicron via the shared prototype.
        let h = db.homoglyphs_of(0x043E);
        assert!(h.contains(&('o' as u32)));
        assert!(h.contains(&0x03BF));
    }

    #[test]
    fn stats_count_union_chars() {
        let (sim_pairs, uc_pairs, chars) = db().stats();
        assert_eq!(sim_pairs, 2);
        assert_eq!(uc_pairs, 2);
        assert_eq!(chars, 4); // o, о, ο, օ
    }
}
