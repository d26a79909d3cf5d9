//! # shamfinder
//!
//! A comprehensive Rust reproduction of **“ShamFinder: An Automated
//! Framework for Detecting IDN Homographs”** (Suzuki, Chiba, Yoneya,
//! Mori, Goto — ACM IMC 2019).
//!
//! ShamFinder detects internationalized-domain-name (IDN) homographs —
//! registrations like `gօօgle.com` or `facébook.com` that are visually
//! indistinguishable from a victim domain — by combining two homoglyph
//! databases:
//!
//! * **SimChar** ([`simchar`]): built *automatically* by rendering every
//!   IDNA-permitted character as a 32×32 bitmap and pairing glyphs whose
//!   pixel difference Δ is at most θ = 4;
//! * **UC** ([`confusables`]): the Unicode consortium's hand-maintained
//!   confusables list.
//!
//! This umbrella crate re-exports the whole workspace so downstream users
//! can depend on a single crate:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`unicode`] | blocks, scripts, categories, IDNA2008 derived property |
//! | [`punycode`] | RFC 3492 Bootstring, ACE labels, [`prelude::DomainName`] |
//! | [`glyph`] | the SynthUnifont bitmap font and image metrics |
//! | [`confusables`] | TR39 confusables format + embedded data |
//! | [`simchar`] | the SimChar builder and the combined [`prelude::HomoglyphDb`] |
//! | [`core`] | Algorithm 1 detection, highlighting, reverting, policies |
//! | [`dns`] | zone files, resolver, port scanning, passive DNS |
//! | [`web`] | HTTP client/server, site classification, blacklists |
//! | [`langid`] | language identification for IDN labels |
//! | [`perception`] | the human-study simulator |
//! | [`workload`] | deterministic synthetic world generation |
//! | [`measure`] | per-table/figure experiment reproduction |
//!
//! # Quickstart
//!
//! ```
//! use shamfinder::prelude::*;
//!
//! // Build a homoglyph database over a couple of blocks (the full
//! // repertoire takes under 0.1 s in release mode; see examples/quickstart.rs).
//! let font = SynthUnifont::v12();
//! let simchar = build(&font, &BuildConfig {
//!     repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic", "Armenian"]),
//!     ..BuildConfig::default()
//! }).db;
//!
//! let framework = Framework::new(
//!     simchar,
//!     UcDatabase::embedded(),
//!     vec!["google".to_string()],
//!     "com",
//! );
//!
//! let corpus = vec![DomainName::parse("gօօgle.com").unwrap()]; // Armenian օ
//! let report = framework.run(&corpus);
//! assert_eq!(&*report.detections[0].reference, "google");
//! ```

pub mod metrics;

pub use sham_confusables as confusables;
pub use sham_core as core;
pub use sham_dns as dns;
pub use sham_glyph as glyph;
pub use sham_langid as langid;
pub use sham_measure as measure;
pub use sham_perception as perception;
pub use sham_punycode as punycode;
pub use sham_simchar as simchar;
pub use sham_unicode as unicode;
pub use sham_web as web;
pub use sham_workload as workload;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use sham_confusables::UcDatabase;
    pub use sham_core::{
        revert_stem, Detection, Framework, Indexing, Policy, Reverted, Warning,
    };
    pub use sham_glyph::{Bitmap, GlyphSource, SynthUnifont};
    pub use sham_punycode::DomainName;
    pub use sham_simchar::{
        build, BuildConfig, DbSelection, HomoglyphDb, Repertoire, SimCharDb,
    };
    pub use sham_unicode::CodePoint;
}
