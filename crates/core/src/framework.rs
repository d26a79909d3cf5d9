//! The end-to-end ShamFinder pipeline (paper Fig. 1).
//!
//! * **Step 1** — collect registered domain names for a TLD (zone files or
//!   domain lists; the caller supplies the iterator).
//! * **Step 2** — extract IDNs: names with an `xn--` label.
//! * **Step 3** — match the IDNs against a reference list of popular
//!   domains using the homoglyph database (Algorithm 1).
//!
//! [`Framework::run`] is a thin one-shot wrapper over the streaming
//! [`DetectorSession`]: it opens a session, pushes the whole corpus as
//! one batch, and folds the report — so batch and streaming ingestion
//! share a single code path and cannot diverge. Several per-TLD
//! frameworks can share one immutable [`DetectionIndex`] via
//! [`Framework::with_shared_index`] instead of each rebuilding (or
//! cloning) the homoglyph database.

use crate::algorithm::{Detector, Indexing};
use crate::detection::Detection;
use crate::index::DetectionIndex;
use crate::sched::ExecStats;
use crate::session::DetectorSession;
use serde::{Deserialize, Serialize};
use sham_confusables::UcDatabase;
use sham_punycode::DomainName;
use sham_simchar::{DbSelection, HomoglyphDb, SimCharDb};
use std::sync::Arc;

/// Pipeline outcome.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FrameworkReport {
    /// Step 1: domains inspected.
    pub total_domains: usize,
    /// Step 2: IDNs among them.
    pub idn_count: usize,
    /// Step 3: detections.
    pub detections: Vec<Detection>,
    /// How the detection calls behind this report were scheduled
    /// (batches, shards, workers engaged) — observational only, and
    /// deliberately **ignored by equality**: partitioning varies with
    /// thread count and batching while results must not, so two reports
    /// of the same corpus compare equal however it was partitioned.
    pub exec: ExecStats,
}

/// Equality covers the *results* (counts and detections), never the
/// `exec` scheduling trace — see the field's documentation. Keeping
/// this manual is what lets every equivalence suite `assert_eq!` whole
/// reports across thread counts and batch partitions.
impl PartialEq for FrameworkReport {
    fn eq(&self, other: &Self) -> bool {
        self.total_domains == other.total_domains
            && self.idn_count == other.idn_count
            && self.detections == other.detections
    }
}

impl FrameworkReport {
    /// IDN share of the corpus (Table 6's percentage column).
    pub fn idn_fraction(&self) -> f64 {
        if self.total_domains == 0 {
            0.0
        } else {
            self.idn_count as f64 / self.total_domains as f64
        }
    }
}

/// The configured pipeline.
pub struct Framework {
    detector: Detector,
    tld: String,
    selection: DbSelection,
    indexing: Indexing,
}

impl Framework {
    /// Assembles the framework from its components. `references` are
    /// popular-domain stems for the TLD (Alexa-style, TLD removed).
    pub fn new(
        simchar: SimCharDb,
        uc: UcDatabase,
        references: impl IntoIterator<Item = String>,
        tld: &str,
    ) -> Self {
        Framework::with_shared_index(
            DetectionIndex::shared(HomoglyphDb::new(simchar, uc), references),
            tld,
        )
    }

    /// Assembles a framework over an existing shared index — the
    /// multi-TLD form: build the index once, hand `Arc` clones to one
    /// framework per TLD pipeline.
    pub fn with_shared_index(index: Arc<DetectionIndex>, tld: &str) -> Self {
        Framework {
            detector: Detector::from_index(index),
            tld: tld.to_string(),
            selection: DbSelection::Union,
            indexing: Indexing::CanonicalClosure,
        }
    }

    /// An `Arc` handle on this framework's index, for sharing with
    /// further frameworks and sessions.
    pub fn shared_index(&self) -> Arc<DetectionIndex> {
        Arc::clone(self.detector.index())
    }

    /// Opens a streaming [`DetectorSession`] with this framework's TLD,
    /// selection and indexing, over the same shared index.
    pub fn session(&self) -> DetectorSession {
        DetectorSession::new(self.shared_index(), &self.tld)
            .with_selection(self.selection)
            .with_indexing(self.indexing)
    }

    /// Switches the database selection (Tables 8 and 14 compare UC-only,
    /// SimChar-only and the union).
    pub fn with_selection(mut self, selection: DbSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Switches the candidate-generation strategy. The default is
    /// [`Indexing::CanonicalClosure`] — exact for arbitrary pair sets
    /// and orders of magnitude faster than length bucketing; `Naive`
    /// and `LengthBucket` remain as ablation baselines.
    pub fn with_indexing(mut self, indexing: Indexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// The configured candidate-generation strategy.
    pub fn indexing(&self) -> Indexing {
        self.indexing
    }

    /// Access to the inner detector (for revert/highlight helpers).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Step 2: extracts the IDNs of this TLD as
    /// `(unicode stem, full ACE name)` pairs: the names of this TLD with
    /// an `xn--` label and a stem (a bare TLD has none). A session's
    /// lanes keep the same names undecoded.
    pub fn extract_idns<'a>(
        &self,
        domains: impl IntoIterator<Item = &'a DomainName>,
    ) -> Vec<(String, String)> {
        domains
            .into_iter()
            .filter(|d| d.tld() == self.tld && d.is_idn())
            .filter_map(|d| Some((d.unicode_without_tld()?, d.as_ascii().to_string())))
            .collect()
    }

    /// Runs Steps 1–3 over a domain corpus: one streaming session fed
    /// the whole corpus as a single batch. Counting and IDN extraction
    /// happen in one pass over the iterator (the corpus is never
    /// re-materialised), and detection shards across the worker pool;
    /// the framework itself is read-only while running.
    pub fn run<'a>(
        &self,
        domains: impl IntoIterator<Item = &'a DomainName>,
    ) -> FrameworkReport {
        let mut session = self.session();
        session.push_domains(domains);
        session.into_report()
    }

    /// Runs Step 3 only, on pre-extracted IDNs (used by the timing
    /// benchmark of §4.2 to isolate matching cost).
    pub fn detect_only(&self, idns: &[(String, String)]) -> Vec<Detection> {
        self.detector.detect(idns, self.selection, self.indexing)
    }

    /// Runs Step 3 with an explicit database selection, leaving the
    /// configured default untouched (Tables 8/14 sweep selections).
    pub fn detect_only_with(
        &self,
        idns: &[(String, String)],
        selection: DbSelection,
    ) -> Vec<Detection> {
        self.detector.detect(idns, selection, self.indexing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, Repertoire};

    fn framework(refs: &[&str]) -> Framework {
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
        Framework::new(
            result.db,
            UcDatabase::embedded(),
            refs.iter().map(|s| s.to_string()),
            "com",
        )
    }

    fn corpus() -> Vec<DomainName> {
        [
            "google.com",
            "xn--ggle-55da.com",    // gооgle (Cyrillic о)
            "xn--facbook-dya.com",  // facébook
            "ordinary.com",
            "xn--fiq228c.com",      // 中文 — IDN, not a homograph
            "xn--ggle-55da.net",    // wrong TLD
        ]
        .iter()
        .map(|s| DomainName::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn full_pipeline_counts_and_detects() {
        let fw = framework(&["google", "facebook"]);
        let corpus = corpus();
        let report = fw.run(&corpus);
        assert_eq!(report.total_domains, 6);
        assert_eq!(report.idn_count, 3); // the three .com IDNs
        assert_eq!(report.detections.len(), 2);
        let refs: Vec<&str> =
            report.detections.iter().map(|d| &*d.reference).collect();
        assert!(refs.contains(&"google"));
        assert!(refs.contains(&"facebook"));
        assert!((report.idn_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn extract_idns_respects_tld() {
        let fw = framework(&["google"]);
        let corpus = corpus();
        let idns = fw.extract_idns(&corpus);
        assert_eq!(idns.len(), 3);
        assert!(idns.iter().all(|(_, ace)| ace.ends_with(".com")));
    }

    #[test]
    fn uc_only_selection_misses_accent_homograph() {
        let corpus = corpus();
        let uc_only =
            framework(&["google", "facebook"]).with_selection(DbSelection::UcOnly);
        let report = uc_only.run(&corpus);
        // UC lists Cyrillic о→o but not é→e: only the google homograph.
        assert_eq!(report.detections.len(), 1);
        assert_eq!(&*report.detections[0].reference, "google");
    }

    #[test]
    fn shared_index_frameworks_and_sessions_agree_with_run() {
        let fw = framework(&["google", "facebook"]);
        let corpus = corpus();
        let batch = fw.run(&corpus);

        // A second framework over the same Arc (e.g. another TLD
        // pipeline) reuses the build; no HomoglyphDb clone happens.
        let fw2 = Framework::with_shared_index(fw.shared_index(), "com");
        assert_eq!(fw2.run(&corpus), batch);

        // A streaming session fed one domain at a time folds into the
        // identical report.
        let mut session = fw.session();
        for d in &corpus {
            session.push_domains(std::iter::once(d));
        }
        assert_eq!(session.into_report(), batch);
    }

    #[test]
    fn empty_corpus_yields_empty_report() {
        let fw = framework(&["google"]);
        let report = fw.run(&[]);
        assert_eq!(report.total_domains, 0);
        assert_eq!(report.idn_count, 0);
        assert!(report.detections.is_empty());
        assert_eq!(report.idn_fraction(), 0.0);
    }
}
