//! ShamFinder — the IDN homograph detection framework (paper §3).
//!
//! This crate is the paper's primary contribution: given a homoglyph
//! database (SimChar ∪ UC, from `sham-simchar`) and a reference list of
//! popular domains, it detects registered IDN homographs, pinpoints the
//! differential characters, reverts homographs to their original domains,
//! and models the browser display policies the paper critiques.
//!
//! * [`algorithm`] — Algorithm 1 with three candidate-generation
//!   strategies (naive / length-bucketed / canonical-closure, the
//!   last being the exact union-find component index and the default).
//! * [`index`] — the shared immutable index layer: [`DetectionIndex`]
//!   (flat pair index + fully-indexed reference list) built once and
//!   shared behind an `Arc` by every framework, detector and session.
//! * [`session`] — the incremental streaming layer:
//!   [`DetectorSession`] ingests zone-diff batches and reference-list
//!   churn, folding into the same report as a batch run.
//! * [`router`] — the multi-TLD fan-out: [`SessionRouter`]
//!   demultiplexes one interleaved feed into per-TLD sessions sharing
//!   one index and merges their reports deterministically.
//! * [`ingest`] — the fault-tolerant always-on front-end:
//!   [`IngestService`] runs connector threads over [`FeedSource`]s
//!   into bounded per-lane queues (block/shed backpressure), with
//!   malformed-record quarantine, retry/backoff/circuit-open on feed
//!   errors, worker-panic isolation and idle-lane folding — draining
//!   into a `SessionRouter` whose no-fault output is bit-identical to
//!   a batch replay.
//! * [`feeds`] — byte-stream feed sources: master-file text
//!   ([`ZoneTextFeed`]) and length-prefixed DNS wire frames
//!   ([`WireMessageFeed`]) off any `Read` transport.
//! * [`sched`] — the fixed execution policy: how a detection batch is
//!   sharded across the worker pool (partitioning only — outputs stay
//!   bit-identical), with [`ExecStats`] recording the decisions into
//!   every report.
//! * [`framework`] — the Steps 1–3 pipeline of Fig. 1 (a one-shot
//!   wrapper over a session).
//! * [`revert`] — §6.4's homograph-to-original reverting.
//! * [`highlight`] — the Fig. 12 warning-UI data.
//! * [`policy`] — Chrome/Firefox-style display policy simulation.
//! * [`registry`] — per-TLD inclusion-based IDN tables (§2.1).
//! * [`plagiarism`] — homoglyph-obfuscated plagiarism detection, the
//!   §9 application of SimChar.
//!
//! # Example
//!
//! ```
//! use sham_core::{Framework, DbSelection};
//! use sham_confusables::UcDatabase;
//! use sham_glyph::SynthUnifont;
//! use sham_punycode::DomainName;
//! use sham_simchar::{build, BuildConfig, Repertoire};
//!
//! let font = SynthUnifont::v12();
//! let simchar = build(&font, &BuildConfig {
//!     repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
//!     ..BuildConfig::default()
//! }).db;
//! let fw = Framework::new(
//!     simchar,
//!     UcDatabase::embedded(),
//!     vec!["google".to_string()],
//!     "com",
//! );
//! let corpus = vec![DomainName::parse("xn--ggle-55da.com").unwrap()];
//! let report = fw.run(&corpus);
//! assert_eq!(&*report.detections[0].reference, "google");
//! ```

pub mod algorithm;
pub mod detection;
pub mod feeds;
pub mod framework;
pub mod highlight;
pub mod index;
pub mod ingest;
pub mod plagiarism;
pub mod policy;
pub mod registry;
pub mod revert;
pub mod router;
pub mod scan;
pub mod sched;
pub mod session;

pub use algorithm::{Detector, Indexing};
pub use detection::{CharSubstitution, Detection, RefName};
pub use feeds::{WireMessageFeed, ZoneTextFeed};
pub use framework::{Framework, FrameworkReport};
pub use index::{reference_digest, reference_section_summary, DetectionIndex, ReferenceSet};
pub use ingest::{
    Backpressure, FeedError, FeedItem, FeedOutcome, FeedReport, FeedSource, FlushHook,
    IngestConfig, IngestEvent, IngestReport, IngestService, LaneStats, QuarantineSample,
    RetryPolicy,
};
pub use router::{RouterReport, SessionRouter, TldReport};
pub use scan::{ScanConfig, ScanReport, TldScanStats, ZoneScanner};
pub use sched::{ExecStats, StageStats};
pub use session::{DetectorSession, DEFAULT_COMPACTION_THRESHOLD};
pub use highlight::{HighlightedSubstitution, Warning};
pub use policy::{bypasses_policy, display, Display, Policy};
pub use plagiarism::{scan_text, similarity_gap, PlagiarismScan};
pub use registry::IdnTable;
pub use revert::{revert_char, revert_stem, Reverted};

// Re-export the database selection so framework users need not depend on
// sham-simchar directly.
pub use sham_simchar::DbSelection;

// Re-export the executor's telemetry surface so CLI/servers can read
// the pool counters without depending on the vendored executor crate
// directly.
pub use rayon::{pool_stats, PoolStats};
