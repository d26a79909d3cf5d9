//! The incremental streaming session layer.
//!
//! A [`DetectorSession`] is the production ingest surface: it holds a
//! clone of the shared immutable [`DetectionIndex`] and accepts work as
//! it arrives — zone-file diffs and newly-registered names in batches
//! of any size (including empty), plus reference-list churn as
//! incremental diffs — folding everything into the same
//! [`FrameworkReport`] a one-shot [`Framework::run`] produces. Batch
//! and streaming share one detection executor (`detect_append` in
//! `crate::algorithm`), so feeding a corpus in any partition of
//! batches yields detections identical to feeding it whole;
//! `Framework::run` is itself a thin wrapper over a session.
//!
//! A session is the only buffer between an owner and detection: it
//! counts every owner and keeps, from the borrowed name, only the ACE
//! bytes of an IDN of its TLD, appended to one reused buffer with their
//! end offsets. Nothing is decoded until the flush: its detection shards
//! (inline for one shard, on the worker pool otherwise) decode each
//! name straight into their reused code-point stem, and only a hit gets
//! `String`s. Memory stays bounded by the IDNs of one batch (one reused
//! ACE buffer, one reused match scratch) plus the accumulated
//! detections — the session never materialises the corpus.
//!
//! Reference diffs are copy-on-write: the first
//! [`DetectorSession::apply_reference_diff`] clones the index's
//! reference-set half (names, stems and candidate buckets — *not*
//! the flat character index, which stays shared) and subsequent diffs
//! edit that overlay incrementally — additions append and index one
//! entry, removals tombstone and leave the touched buckets.
//!
//! Tombstones are reclaimed by *compaction*: when the overlay's dead
//! entries both reach the session's threshold
//! ([`DetectorSession::with_compaction_threshold`], default
//! [`DEFAULT_COMPACTION_THRESHOLD`]) and outnumber the live ones, the
//! overlay is rebuilt over the survivors — so a long-lived session
//! under heavy reference churn stays bounded by its live reference
//! count instead of growing with the total churn history, while the
//! amortised per-diff cost stays O(1) (each rebuild at least halves
//! the table). Compaction preserves the
//! [`RefName`](crate::detection::RefName) handles that
//! already-emitted detections share, and is observable only through
//! [`DetectorSession::overlay_tombstones`] — detections are identical
//! with compaction on, off, or forced after every diff.
//!
//! [`Framework::run`]: crate::Framework::run

use crate::algorithm::{detect_append, AceBatch, DetectScratch, IdnBatch, Indexing};
use crate::detection::Detection;
use crate::framework::FrameworkReport;
use crate::index::{DetectionIndex, ReferenceSet};
use crate::sched::ExecStats;
use sham_punycode::DomainName;
use sham_simchar::DbSelection;
use std::sync::Arc;

/// Default minimum number of tombstoned overlay entries before a
/// session considers compacting (they must also outnumber the live
/// entries — see [`DetectorSession::with_compaction_threshold`]).
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 64;

/// A streaming detection session over a shared [`DetectionIndex`].
///
/// ```
/// use sham_core::{DetectionIndex, DetectorSession};
/// use sham_confusables::UcDatabase;
/// use sham_glyph::SynthUnifont;
/// use sham_punycode::DomainName;
/// use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
///
/// let font = SynthUnifont::v12();
/// let simchar = build(&font, &BuildConfig {
///     repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
///     ..BuildConfig::default()
/// }).db;
/// let index = DetectionIndex::shared(
///     HomoglyphDb::new(simchar, UcDatabase::embedded()),
///     vec!["google".to_string()],
/// );
/// let mut session = DetectorSession::new(index, "com");
/// // Feed zone-diff batches as they arrive…
/// session.push_domains(&[DomainName::parse("xn--ggle-55da.com").unwrap()]);
/// session.push_domains(&[]); // quiet poll intervals are fine
/// let report = session.into_report();
/// assert_eq!(&*report.detections[0].reference, "google");
/// ```
pub struct DetectorSession {
    index: Arc<DetectionIndex>,
    /// Copy-on-write reference overlay; `None` until the first diff.
    overlay: Option<ReferenceSet>,
    /// Minimum dead entries before overlay compaction can trigger.
    compact_min_dead: usize,
    tld: String,
    selection: DbSelection,
    indexing: Indexing,
    total_domains: usize,
    idn_count: usize,
    detections: Vec<Detection>,
    /// Scheduling decisions of the detection calls so far (shards,
    /// sizes, workers) — threaded into the report, ignored by report
    /// equality.
    exec: ExecStats,
    /// Owners buffered since the last flush: counted into
    /// `total_domains` by a flush, dropped uncounted by a discard.
    buffered: usize,
    /// The full ACE names of the buffered owners that are IDNs of this
    /// TLD, undecoded; reused across flushes.
    batch: AceBatch,
    /// Reused match scratch — steady-state streaming allocates nothing
    /// on the rejecting path.
    scratch: DetectScratch,
}

impl DetectorSession {
    /// Opens a session for `tld` over a shared index, with the
    /// framework defaults (union database, closure indexing).
    pub fn new(index: Arc<DetectionIndex>, tld: &str) -> Self {
        DetectorSession {
            index,
            overlay: None,
            compact_min_dead: DEFAULT_COMPACTION_THRESHOLD,
            tld: tld.to_string(),
            selection: DbSelection::Union,
            indexing: Indexing::CanonicalClosure,
            total_domains: 0,
            idn_count: 0,
            detections: Vec::new(),
            exec: ExecStats::default(),
            buffered: 0,
            batch: AceBatch::default(),
            scratch: DetectScratch::default(),
        }
    }

    /// Switches the database selection for all subsequent pushes.
    pub fn with_selection(mut self, selection: DbSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Switches the candidate-generation strategy.
    pub fn with_indexing(mut self, indexing: Indexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// Sets the overlay-compaction trigger: after a reference diff, the
    /// copy-on-write overlay is rebuilt over its live entries once the
    /// tombstone count reaches `min_dead` *and* the tombstones
    /// outnumber the live entries (so each compaction at least halves
    /// the table, keeping the amortised per-diff cost constant).
    /// `usize::MAX` disables compaction; `0` compacts whenever the
    /// table is at least half dead. Purely a memory/layout knob —
    /// detections are identical at every setting.
    pub fn with_compaction_threshold(mut self, min_dead: usize) -> Self {
        self.compact_min_dead = min_dead;
        self
    }

    /// The shared index this session reads.
    pub fn index(&self) -> &Arc<DetectionIndex> {
        &self.index
    }

    /// Number of references currently in force (base index minus
    /// removals plus additions).
    pub fn reference_count(&self) -> usize {
        match &self.overlay {
            Some(overlay) => overlay.live_count(),
            None => self.index.reference_count(),
        }
    }

    /// Feeds one batch of registered domain names (a zone-file diff):
    /// every name counts toward the corpus total, names of this
    /// session's TLD with an `xn--` label and a stem are decoded and
    /// matched before the call returns. Steps 1–3 of the pipeline,
    /// incrementally.
    pub fn push_domains<'a>(
        &mut self,
        domains: impl IntoIterator<Item = &'a DomainName>,
    ) {
        for domain in domains {
            if domain.tld() == self.tld {
                self.buffer(domain);
            } else {
                self.buffered += 1;
            }
        }
        self.flush();
    }

    /// This session's TLD.
    pub(crate) fn tld(&self) -> &str {
        &self.tld
    }

    /// Buffers one owner of this session's TLD (the caller has matched
    /// it) for the next flush, keeping only its ACE name if it is an IDN
    /// (Step 2's predicate on the borrowed name; the flush's detection
    /// shards decode it). Returns how many owners are now buffered.
    pub(crate) fn buffer(&mut self, domain: &DomainName) -> usize {
        let name = domain.as_ascii();
        // Longer than its TLD means a stem is left: a bare TLD is no IDN.
        if name.len() > self.tld.len() && domain.is_idn() {
            self.batch.push(name);
        }
        self.buffered += 1;
        self.buffered
    }

    /// Detects the buffered IDNs as one batch, then counts the buffered
    /// owners. If detection panics they stay buffered and uncounted, so
    /// a poisoning [`DetectorSession::discard`] reports them as lost.
    pub(crate) fn flush(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        self.detect_batch(&batch);
        self.total_domains += std::mem::take(&mut self.buffered);
        self.idn_count += batch.len();
        batch.clear();
        self.batch = batch;
    }

    /// Drops the buffered owners without counting them, returning how
    /// many there were.
    pub(crate) fn discard(&mut self) -> usize {
        self.batch.clear();
        std::mem::take(&mut self.buffered)
    }

    /// Feeds one batch of pre-extracted IDNs `(unicode stem, full ACE
    /// name)` — a registration stream that is already IDN-only. Each
    /// entry counts as one domain and one IDN.
    pub fn push_idns(&mut self, idns: &[(String, String)]) {
        self.total_domains += idns.len();
        self.idn_count += idns.len();
        self.detect_batch(idns);
    }

    /// Scores one batch against the session's current reference view.
    fn detect_batch<B: IdnBatch + ?Sized>(&mut self, idns: &B) {
        let refs = match &self.overlay {
            Some(overlay) => overlay,
            None => self.index.refs(),
        };
        detect_append(
            self.index.db(),
            refs,
            idns,
            self.selection,
            self.indexing,
            &mut self.scratch,
            &mut self.detections,
            &mut self.exec,
        );
    }

    /// Scheduling decisions accumulated by this session's detection
    /// calls so far (also carried by the report's `exec` field).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec
    }

    /// Applies reference-list churn: `removed` names leave the
    /// candidate indexes (every occurrence; unknown names are ignored),
    /// then `added` stems join. Later pushes see the edited list;
    /// detections already accumulated are untouched. The first diff
    /// clones the reference half of the shared index (copy-on-write);
    /// each diff after that is an incremental edit — no rebuild.
    pub fn apply_reference_diff(&mut self, added: &[String], removed: &[String]) {
        let overlay = self
            .overlay
            .get_or_insert_with(|| self.index.refs().clone());
        for name in removed {
            overlay.remove(name);
        }
        for name in added {
            overlay.add(self.index.db(), name);
        }
        // Reclaim tombstones once they dominate the table (and pass the
        // configured floor): heavy churn would otherwise grow the
        // overlay's names/stems vectors without bound.
        if overlay.dead_count() >= self.compact_min_dead
            && overlay.dead_count() >= overlay.live_count()
        {
            overlay.compact();
        }
    }

    /// Tombstoned entries currently held by the copy-on-write overlay
    /// (0 while no diff has been applied, and again right after a
    /// compaction). Diagnostic companion to
    /// [`DetectorSession::with_compaction_threshold`].
    pub fn overlay_tombstones(&self) -> usize {
        self.overlay.as_ref().map_or(0, ReferenceSet::dead_count)
    }

    /// Detections accumulated so far, in push order.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Folds the session state into a [`FrameworkReport`] snapshot
    /// without ending the session.
    pub fn report(&self) -> FrameworkReport {
        FrameworkReport {
            total_domains: self.total_domains,
            idn_count: self.idn_count,
            detections: self.detections.clone(),
            exec: self.exec,
        }
    }

    /// Ends the session, yielding its report without cloning the
    /// accumulated detections.
    pub fn into_report(self) -> FrameworkReport {
        FrameworkReport {
            total_domains: self.total_domains,
            idn_count: self.idn_count,
            detections: self.detections,
            exec: self.exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::RefName;
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};

    fn shared_index(refs: &[&str]) -> Arc<DetectionIndex> {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                ]),
                ..BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, UcDatabase::embedded()),
            refs.iter().map(|s| s.to_string()),
        )
    }

    fn idn(stem: &str) -> (String, String) {
        let ace = sham_punycode::ace::to_ascii(stem).unwrap();
        (stem.to_string(), format!("{ace}.com"))
    }

    #[test]
    fn batched_pushes_accumulate_in_order() {
        let index = shared_index(&["google", "paypal"]);
        let mut session = DetectorSession::new(Arc::clone(&index), "com");
        session.push_idns(&[idn("gооgle"), idn("benign")]);
        session.push_idns(&[]); // empty batches are fine
        session.push_idns(&[idn("pаypаl")]);
        let report = session.into_report();
        assert_eq!(report.total_domains, 3);
        assert_eq!(report.idn_count, 3);
        let refs: Vec<&str> =
            report.detections.iter().map(|d| &*d.reference).collect();
        assert_eq!(refs, ["google", "paypal"]);
    }

    #[test]
    fn reference_diff_changes_only_later_batches() {
        let index = shared_index(&["google", "paypal"]);
        let mut session = DetectorSession::new(Arc::clone(&index), "com");
        session.push_idns(&[idn("gооgle")]);
        assert_eq!(session.reference_count(), 2);

        // Remove google, add amazon: the already-recorded detection
        // stays; later batches see the edited list.
        session.apply_reference_diff(&["amazon".to_string()], &["google".to_string()]);
        assert_eq!(session.reference_count(), 2);
        session.push_idns(&[idn("gооgle"), idn("аmazon")]);

        let report = session.report();
        let refs: Vec<&str> =
            report.detections.iter().map(|d| &*d.reference).collect();
        assert_eq!(refs, ["google", "amazon"]);
        // The shared index itself is untouched by the session overlay.
        assert_eq!(index.reference_count(), 2);
        assert_eq!(&*index.reference(0), "google");
    }

    #[test]
    fn diff_before_any_push_acts_like_a_different_index() {
        let index = shared_index(&["google"]);
        let mut session = DetectorSession::new(index, "com")
            .with_indexing(Indexing::LengthBucket);
        session.apply_reference_diff(&[], &["google".to_string()]);
        session.push_idns(&[idn("gооgle")]);
        assert!(session.detections().is_empty());
        assert_eq!(session.reference_count(), 0);
    }

    #[test]
    fn compaction_triggers_at_the_threshold_and_keeps_detecting() {
        let index = shared_index(&["google", "paypal"]);
        let mut session = DetectorSession::new(Arc::clone(&index), "com")
            .with_compaction_threshold(4);
        // Churn a throwaway stem in and out: each cycle leaves one
        // tombstone (the `add` appends a fresh entry).
        for i in 0..3 {
            session.apply_reference_diff(&["trending".to_string()], &[]);
            session.apply_reference_diff(&[], &["trending".to_string()]);
            assert_eq!(session.overlay_tombstones(), i + 1, "cycle {i}");
        }
        // The 4th dead entry reaches the threshold and outnumbers the
        // 2 live references: the overlay compacts.
        session.apply_reference_diff(&["trending".to_string()], &[]);
        session.apply_reference_diff(&[], &["trending".to_string()]);
        assert_eq!(session.overlay_tombstones(), 0);
        assert_eq!(session.reference_count(), 2);
        // Detection against the compacted overlay still works, and the
        // emitted reference is still the shared index's allocation.
        session.push_idns(&[idn("gооgle")]);
        assert_eq!(session.detections().len(), 1);
        assert!(RefName::ptr_eq(&session.detections()[0].reference, &index.reference(0)));
    }

    #[test]
    fn push_domains_counts_and_filters_like_the_framework() {
        let index = shared_index(&["google"]);
        let mut session = DetectorSession::new(index, "com");
        let corpus: Vec<DomainName> = [
            "google.com",
            "xn--ggle-55da.com", // gооgle
            "ordinary.com",
            "xn--ggle-55da.net", // wrong TLD
        ]
        .iter()
        .map(|s| DomainName::parse(s).unwrap())
        .collect();
        session.push_domains(&corpus);
        let report = session.into_report();
        assert_eq!(report.total_domains, 4);
        assert_eq!(report.idn_count, 1);
        assert_eq!(report.detections.len(), 1);
    }
}
