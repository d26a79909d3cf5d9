//! SimChar — the paper's automatically-constructed homoglyph database.
//!
//! The key technical contribution of ShamFinder (paper §3.3): render every
//! IDNA-permitted character with a Unicode font, detect glyph pairs whose
//! pixel difference Δ is at most θ = 4, drop sparse glyphs, and use the
//! result — together with the consortium's UC list — as the homoglyph
//! database behind IDN homograph detection.
//!
//! * [`builder`] — the three-step construction with per-step timings
//!   (Table 5) and repertoire selection.
//! * [`pairs`] — brute-force (paper-faithful) and exact accelerated
//!   pairwise strategies.
//! * [`db`] — the [`SimCharDb`] type with the paper's Table 3/4 profiles
//!   and text/JSON serialization.
//! * [`homodb`] — [`HomoglyphDb`], the UC ∪ SimChar union the detector
//!   consults.
//!
//! # Example
//!
//! ```
//! use sham_simchar::{build, BuildConfig, Repertoire};
//! use sham_glyph::SynthUnifont;
//!
//! let font = SynthUnifont::v12();
//! let config = BuildConfig {
//!     repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
//!     ..BuildConfig::default()
//! };
//! let result = build(&font, &config);
//! assert!(result.db.is_pair('a' as u32, 0x0430)); // a ↔ Cyrillic а
//! ```

pub mod builder;
pub mod db;
pub mod flat;
pub mod homodb;
pub mod pairs;

pub use builder::{
    build, neighbours_at, render_repertoire, update_build, BuildConfig, BuildResult,
    BuildTimings, Repertoire, DEFAULT_THETA, SPARSE_MIN_PIXELS,
};
pub use db::SimCharDb;
pub use flat::{CharInterner, FlatPairIndex, SnapshotSection, SnapshotStat, SourceFingerprint};
pub use homodb::{DbSelection, HomoglyphDb, PairSource};
pub use pairs::{find_pairs, find_pairs_ssim, Pair, Strategy, MAX_THETA};
