//! Quickstart: build the homoglyph database, detect a homograph, explain
//! it to the user.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Expected output (abridged; the full run takes under 0.1 s in release
//! mode on 2 vCPUs):
//!
//! ```text
//! building SimChar …
//! SimChar: 10955 homoglyph pairs over 10416 characters
//!
//! scanned 7 domains, 5 IDNs, 4 homographs detected:
//!
//! WARNING — use of homoglyph detected.
//! You are accessing gօօgle.com.
//! Did you mean google.com?
//!   position 1: 'օ' U+0585 (Armenian) imitates 'o' U+006F (Basic Latin)
//!   …
//! ```

use shamfinder::prelude::*;

fn main() {
    // 1. Build SimChar over the full IDNA ∩ font repertoire (well under
    //    0.1 s in release mode) and pair it with the consortium's UC list.
    println!("building SimChar …");
    let font = SynthUnifont::v12();
    let result = build(&font, &BuildConfig::default());
    println!(
        "SimChar: {} homoglyph pairs over {} characters",
        result.db.pair_count(),
        result.db.char_count()
    );

    // 2. Assemble the ShamFinder framework with a reference list.
    let references: Vec<String> = ["google", "facebook", "amazon", "paypal", "wikipedia"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let framework = Framework::new(
        result.db.clone(),
        UcDatabase::embedded(),
        references,
        "com",
    );

    // 3. Scan a small corpus: the paper's examples plus benign names.
    let corpus: Vec<DomainName> = [
        "gօօgle.com",          // Armenian օ (paper Fig. 2)
        "facébook.com",        // acute accent (paper §1)
        "xn--pypal-4ve.com",   // already in wire form: pаypal, Cyrillic а
        "g\u{0ED0}\u{0ED0}gle.com", // Lao digit zero (paper Fig. 12)
        "amazon.com",          // the original, not a homograph
        "wikipedia.com",
        "中文网站.com",         // benign IDN
    ]
    .iter()
    .map(|s| DomainName::parse(s).expect("valid domain"))
    .collect();

    let report = framework.run(&corpus);
    println!(
        "\nscanned {} domains, {} IDNs, {} homographs detected:\n",
        report.total_domains, report.idn_count,
        report.detections.len()
    );

    // 4. Explain each detection the way the paper's Fig. 12 UI would.
    for detection in &report.detections {
        let warning = Warning::from_detection(detection, "com");
        println!("{}", warning.render_text());
        println!(
            "  highlighted: {}\n",
            warning.emphasised_stem(&detection.idn_unicode)
        );
    }

    // 5. Revert a malicious IDN back to its target (paper §6.4).
    let db = HomoglyphDb::new(result.db, UcDatabase::embedded());
    let reverted = revert_stem(&db, "gօօgle");
    println!("revert(gօօgle) = {:?}", reverted.stem());
}
