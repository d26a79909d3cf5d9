//! Algorithm 1 — IDN homograph detection.
//!
//! For every reference domain name `r` and every registered IDN `x` of the
//! same character length (both with the TLD removed), the characters are
//! compared position by position: equal characters pass; unequal
//! characters pass only if the homoglyph database lists them as a pair;
//! anything else rejects `x` for this reference (paper §3.1, Fig. 2).
//!
//! Three execution strategies are provided; `CanonicalClosure` is the
//! default, the other two remain as ablation baselines for the
//! `detection_variants` bench:
//!
//! * [`Indexing::Naive`] — compare every (reference, IDN) combination.
//! * [`Indexing::LengthBucket`] — the paper's optimisation: only compare
//!   strings of equal length.
//! * [`Indexing::CanonicalClosure`] — map every character to the
//!   representative of its **connected component** in the homoglyph
//!   pair graph (union-find over SimChar ∪ UC, precomputed in
//!   [`HomoglyphDb`]'s flat index) and look references up by the hash
//!   of the representative string.
//!
//! # Why the closure index is exact
//!
//! Under Algorithm 1, an IDN `x` matches a reference `r` only if at
//! every position the characters are equal or a listed homoglyph pair.
//! Either way the two characters lie in the same connected component of
//! the pair graph, so `rep(x[i]) == rep(r[i])` at every position and
//! the representative strings — hence their hashes — are equal. Probing
//! the hash index with `rep(x)` therefore returns a candidate set that
//! contains **every** true match (no false negatives), for *arbitrary*
//! pair sets: transitivity is never assumed, which matters because real
//! confusable data is famously non-transitive (a–b and b–c listed
//! without a–c). Hash collisions or component over-approximation can
//! only add candidates, and every candidate is re-verified with the
//! exact pairwise test — so no false positives either. A
//! neighbourhood-based canonical map (the previous `CanonicalHash`
//! strategy) lacks the first property: on a non-transitive chain the
//! two ends of a listed pair can pick different representatives and a
//! true match is skipped before verification.
//!
//! # Execution
//!
//! All index structures live in the shared immutable
//! [`DetectionIndex`] (see [`crate::index`]), so
//! [`DetectionIndex::detect`] takes `&self` and any number of callers
//! score against one `Arc`'d index. It shards the IDN corpus across
//! the worker pool (the vendored `rayon` executor). Each shard
//! reuses two scratch buffers — the interned `u32` stem and the
//! substitution list — so the rejecting path of the inner test performs
//! no per-candidate heap allocation; `String`s are only materialised
//! for actual detections, and even then the reference name is an `Arc`
//! handle copy, not a clone. A [`DetectorSession`]'s batch holds
//! undecoded ACE names, and the shard decodes each one straight into
//! its stem buffer; pre-decoded `(stem, ACE)` pairs take the same path
//! (`IdnBatch`). Shards are merged in corpus order, so results are
//! identical to a sequential run at every thread count. Batches at or
//! below one shard run inline on the calling thread with
//! caller-provided scratch, so small streamed batches pay no
//! spawn/merge overhead.
//! Per-character work is hash-free: component representatives come from
//! the flat interner (two array reads), and the pairwise
//! re-verification probes the CSR adjacency (one binary search).
//!
//! [`DetectorSession`]: crate::DetectorSession

use crate::detection::{CharSubstitution, Detection};
use crate::index::{closure_hash, DetectionIndex, ReferenceSet};
use crate::sched::ExecStats;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sham_simchar::{DbSelection, HomoglyphDb};

/// Candidate-generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Indexing {
    /// All pairs.
    Naive,
    /// Bucket by string length (the paper's approach).
    LengthBucket,
    /// Hash by union-find component representatives — exact for
    /// arbitrary (including non-transitive) pair sets, and the default.
    CanonicalClosure,
}

impl DetectionIndex {
    /// Runs detection over `idns` (Unicode stems, TLD removed) with the
    /// given database selection and indexing strategy. The corpus is
    /// sharded across the worker pool; output order and content are
    /// identical to a sequential run.
    pub fn detect(
        &self,
        idns: &[(String, String)], // (unicode stem, full ACE name)
        selection: DbSelection,
        indexing: Indexing,
    ) -> Vec<Detection> {
        let mut out = Vec::new();
        let mut scratch = DetectScratch::default();
        let mut exec = ExecStats::default();
        detect_append(
            self.db(),
            self.refs(),
            idns,
            selection,
            indexing,
            &mut scratch,
            &mut out,
            &mut exec,
        );
        out
    }
}

/// Reused per-shard working memory: the interned `u32` stem of the IDN
/// under test and the substitution list of the inner loop. Sessions
/// hold one across their whole lifetime, so steady-state streaming
/// allocates nothing on the rejecting path.
#[derive(Debug, Default)]
pub(crate) struct DetectScratch {
    stem: Vec<u32>,
    subs: Vec<CharSubstitution>,
}

/// The inner character-by-character test of Algorithm 1, in its
/// allocation-conscious form: fills `subs` (cleared first) and returns
/// whether `idn` is a homograph of `reference`. The rejecting path
/// touches only the reused buffer.
fn matches_into(
    db: &HomoglyphDb,
    reference: &[u32],
    idn: &[u32],
    selection: DbSelection,
    subs: &mut Vec<CharSubstitution>,
) -> bool {
    subs.clear();
    if reference.len() != idn.len() {
        return false;
    }
    for (pos, (&rc, &xc)) in reference.iter().zip(idn.iter()).enumerate() {
        if rc == xc {
            continue;
        }
        // One combined probe: membership under `selection` plus the
        // full-union attribution the Detection record carries.
        let Some(source) = db.pair_source_with(rc, xc, selection) else {
            return false;
        };
        subs.push(CharSubstitution {
            position: pos,
            original: char::from_u32(rc).unwrap_or('\u{FFFD}'),
            homoglyph: char::from_u32(xc).unwrap_or('\u{FFFD}'),
            source: Some(source),
        });
    }
    // An IDN equal to the reference (no substitutions) is the
    // reference itself, not a homograph.
    !subs.is_empty()
}

/// A batch the detection executor scores: pre-decoded
/// `(unicode stem, full ACE name)` pairs, or a lane's [`AceBatch`],
/// whose names the shards decode. Either way every IDN reaches the
/// same [`detect_shard`].
pub(crate) trait IdnBatch: Sync {
    /// IDNs in the batch.
    fn len(&self) -> usize;

    /// Appends IDN `i`'s Unicode stem to `stem` as code points.
    fn stem_into(&self, i: usize, stem: &mut Vec<u32>);

    /// IDN `i`'s `(idn_unicode, idn_ascii)` strings for a detection,
    /// `stem` being what [`stem_into`](Self::stem_into) wrote.
    fn strings(&self, i: usize, stem: &[u32]) -> (String, String);
}

impl IdnBatch for [(String, String)] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn stem_into(&self, i: usize, stem: &mut Vec<u32>) {
        stem.extend(self[i].0.chars().map(u32::from));
    }

    fn strings(&self, i: usize, _stem: &[u32]) -> (String, String) {
        self[i].clone()
    }
}

/// Full ACE names back to back in one reused buffer, with their end
/// offsets: a lane's IDNs between flushes. Nothing is decoded until a
/// detection shard reads a name, and only hits get `String`s.
#[derive(Debug, Default)]
pub(crate) struct AceBatch {
    text: String,
    ends: Vec<usize>,
}

impl AceBatch {
    /// Appends one full ACE name that has a stem (at least one dot).
    pub(crate) fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    /// Empties the batch, keeping both buffers.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// The `i`th name.
    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

impl IdnBatch for AceBatch {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn stem_into(&self, i: usize, stem: &mut Vec<u32>) {
        sham_punycode::domain::unicode_stem_into(self.name(i), stem);
    }

    fn strings(&self, i: usize, stem: &[u32]) -> (String, String) {
        let unicode = stem
            .iter()
            .map(|&c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect();
        (unicode, self.name(i).to_string())
    }
}

/// The shared detection executor: scores `idns` against `refs` and
/// appends detections (in corpus order) to `out`. Batch `detect`,
/// `Framework::run` and the streaming session all funnel through here,
/// so the two ingestion modes cannot diverge. A corpus larger than one
/// shard fans out across the worker pool; smaller batches run inline
/// with the caller's scratch. The shard size follows the fixed rule in
/// [`crate::sched`] — partitioning only, the output is bit-identical at
/// every thread count — and the decision taken is recorded into `exec`.
#[allow(clippy::too_many_arguments)] // internal funnel: every caller threads the same context
pub(crate) fn detect_append<B: IdnBatch + ?Sized>(
    db: &HomoglyphDb,
    refs: &ReferenceSet,
    idns: &B,
    selection: DbSelection,
    indexing: Indexing,
    scratch: &mut DetectScratch,
    out: &mut Vec<Detection>,
    exec: &mut ExecStats,
) {
    let len = idns.len();
    if len == 0 {
        return;
    }
    let threads = rayon::current_num_threads().max(1);
    let shard_len = crate::sched::shard_len_for(len, threads);
    if len <= shard_len {
        exec.record(1, len, 1);
        detect_shard(db, refs, idns, 0..len, selection, indexing, scratch, out);
        return;
    }
    let shard_count = len.div_ceil(shard_len);
    exec.record(shard_count, shard_len, threads.min(shard_count));
    // Shards are index ranges over the batch: besides the shard numbers
    // handed to the pool, only the per-shard outputs allocate.
    let outs: Vec<Vec<Detection>> = (0..shard_count)
        .into_par_iter()
        .map(|shard| {
            let lo = shard * shard_len;
            let range = lo..(lo + shard_len).min(len);
            let mut scratch = DetectScratch::default();
            let mut hits = Vec::new();
            detect_shard(
                db,
                refs,
                idns,
                range,
                selection,
                indexing,
                &mut scratch,
                &mut hits,
            );
            hits
        })
        .collect();
    out.reserve(outs.iter().map(Vec::len).sum());
    for v in outs {
        out.extend(v);
    }
}

/// Sequential detection over the IDNs `range` of `idns` with
/// caller-provided scratch: each stem is written into the reused
/// scratch stem, decoded there if the batch holds ACE names.
#[allow(clippy::too_many_arguments)] // internal funnel, as `detect_append`
fn detect_shard<B: IdnBatch + ?Sized>(
    db: &HomoglyphDb,
    refs: &ReferenceSet,
    idns: &B,
    range: std::ops::Range<usize>,
    selection: DbSelection,
    indexing: Indexing,
    scratch: &mut DetectScratch,
    out: &mut Vec<Detection>,
) {
    let DetectScratch { stem, subs } = scratch;
    for i in range {
        stem.clear();
        idns.stem_into(i, stem);
        let mut try_candidate = |ref_idx: u32| {
            if matches_into(db, refs.stem(ref_idx), stem, selection, subs) {
                let (idn_unicode, idn_ascii) = idns.strings(i, stem);
                out.push(Detection {
                    idn_unicode,
                    idn_ascii,
                    reference: refs.name(ref_idx),
                    substitutions: subs.clone(),
                });
            }
        };
        match indexing {
            Indexing::Naive => refs.all_indices().for_each(&mut try_candidate),
            Indexing::LengthBucket => refs.len_candidates(stem.len()).for_each(&mut try_candidate),
            Indexing::CanonicalClosure => refs
                .closure_candidates(closure_hash(db, stem))
                .for_each(&mut try_candidate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::RefName;
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, Repertoire};
    use std::sync::Arc;

    fn detector(refs: &[&str]) -> DetectionIndex {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                    "Greek and Coptic",
                    "Armenian",
                ]),
                ..BuildConfig::default()
            },
        );
        let db = HomoglyphDb::new(result.db, UcDatabase::embedded());
        DetectionIndex::new(db, refs.iter().map(|s| s.to_string()))
    }

    fn idn(stem: &str) -> (String, String) {
        let ace = sham_punycode::ace::to_ascii(stem).unwrap();
        (stem.to_string(), format!("{ace}.com"))
    }

    #[test]
    fn paper_figure2_example() {
        // gоогle with Armenian օ (U+0585): the paper's Fig. 2 left side.
        let d = detector(&["google", "facebook"]);
        let idns = vec![idn("gօօgle")];
        let hits = d.detect(&idns, DbSelection::Union, Indexing::LengthBucket);
        assert_eq!(hits.len(), 1);
        assert_eq!(&*hits[0].reference, "google");
        assert_eq!(hits[0].substitutions.len(), 2);
        assert_eq!(hits[0].substitutions[0].original, 'o');
        assert_eq!(hits[0].substitutions[0].homoglyph, 'օ');
    }

    #[test]
    fn figure2_negative_example() {
        // "gocaié" (right side of Fig. 2) is not a homograph of google.
        let d = detector(&["google"]);
        let hits = d.detect(&[idn("gocaié")], DbSelection::Union, Indexing::LengthBucket);
        assert!(hits.is_empty());
    }

    #[test]
    fn length_mismatch_is_skipped() {
        let d = detector(&["google"]);
        let hits = d.detect(&[idn("gооgl")], DbSelection::Union, Indexing::LengthBucket);
        assert!(hits.is_empty());
    }

    #[test]
    fn identical_string_is_not_a_homograph() {
        let d = detector(&["google"]);
        let hits = d.detect(
            &[("google".to_string(), "google.com".to_string())],
            DbSelection::Union,
            Indexing::LengthBucket,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn all_indexing_strategies_agree() {
        let d = detector(&["google", "amazon", "facebook", "apple"]);
        let idns = vec![
            idn("gооgle"),  // Cyrillic o's
            idn("аmazon"),  // Cyrillic a
            idn("fаcebook"),
            idn("аpple"),
            idn("banana"),  // no reference
            idn("gοοgle"),  // Greek omicrons
        ];
        let naive = d.detect(&idns, DbSelection::Union, Indexing::Naive);
        let bucket = d.detect(&idns, DbSelection::Union, Indexing::LengthBucket);
        let canon = d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure);
        let key = |v: &[Detection]| {
            let mut k: Vec<(String, String)> = v
                .iter()
                .map(|h| (h.idn_unicode.clone(), h.reference.to_string()))
                .collect();
            k.sort();
            k
        };
        assert_eq!(key(&naive), key(&bucket));
        assert_eq!(key(&naive), key(&canon));
        assert_eq!(naive.len(), 5);
    }

    #[test]
    fn db_selection_changes_detections() {
        // é is a SimChar-only homoglyph of e (UC does not list accents).
        let d = detector(&["facebook"]);
        let idns = vec![idn("facébook")];
        assert_eq!(d.detect(&idns, DbSelection::Union, Indexing::LengthBucket).len(), 1);
        assert_eq!(d.detect(&idns, DbSelection::SimCharOnly, Indexing::LengthBucket).len(), 1);
        assert!(d.detect(&idns, DbSelection::UcOnly, Indexing::LengthBucket).is_empty());
    }

    #[test]
    fn selection_gates_membership_but_source_keeps_union_attribution() {
        // Cyrillic о/o is attested by both databases: selecting only one
        // component must still record the pair as `Both` (Fig. 12's
        // warning UI names every attesting source).
        use sham_simchar::PairSource;
        let d = detector(&["google"]);
        for selection in [DbSelection::UcOnly, DbSelection::SimCharOnly] {
            let hits = d.detect(&[idn("gооgle")], selection, Indexing::LengthBucket);
            assert_eq!(hits.len(), 1);
            assert!(hits[0]
                .substitutions
                .iter()
                .all(|s| s.source == Some(PairSource::Both)));
        }
    }

    #[test]
    fn multiple_references_can_match_one_idn() {
        let d = detector(&["ab", "ab"]);
        // Both (identical) references match; detection reports both.
        let idns = vec![idn("аb")]; // Cyrillic а
        let hits = d.detect(&idns, DbSelection::Union, Indexing::Naive);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn substitution_positions_are_recorded() {
        let d = detector(&["paypal"]);
        let hits = d.detect(&[idn("pаypаl")], DbSelection::Union, Indexing::LengthBucket);
        assert_eq!(hits.len(), 1);
        let positions: Vec<usize> =
            hits[0].substitutions.iter().map(|s| s.position).collect();
        assert_eq!(positions, vec![1, 4]);
    }

    #[test]
    fn detectors_share_one_index() {
        let d = Arc::new(detector(&["google"]));
        let d2 = Arc::clone(&d);
        let hits = d2.detect(&[idn("gооgle")], DbSelection::Union, Indexing::CanonicalClosure);
        assert_eq!(hits.len(), 1);
        // The detection's reference name is a handle on the shared
        // index's name arena, not a fresh String.
        assert!(RefName::ptr_eq(&hits[0].reference, &d.reference(0)));
    }
}
