//! Property-based tests (proptest) over the core data structures and the
//! detection invariants.

use proptest::prelude::*;
use shamfinder::glyph::scriptgen::{perturb, stroke_glyph, Region};
use shamfinder::glyph::Bitmap;
use shamfinder::prelude::*;
use shamfinder::punycode::{bootstring, PunycodeError};

// ---------------------------------------------------------------------------
// Punycode
// ---------------------------------------------------------------------------

proptest! {
    /// Every Unicode string round-trips through the Bootstring codec.
    #[test]
    fn punycode_round_trip(s in "\\PC{0,40}") {
        let encoded = bootstring::encode(&s).unwrap();
        prop_assert!(encoded.is_ascii());
        let decoded = bootstring::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, s);
    }

    /// ACE label conversion round-trips for registrable lowercase labels.
    #[test]
    fn ace_round_trip(s in "[a-z\u{00E0}-\u{00FF}\u{0430}-\u{044F}]{1,20}") {
        let ace = shamfinder::punycode::ace::to_ascii(&s).unwrap();
        prop_assert!(ace.len() <= 63);
        let back = shamfinder::punycode::ace::to_unicode(&ace).unwrap();
        prop_assert_eq!(back, s);
    }

    /// Decoding arbitrary ASCII never panics — it returns Ok or a typed
    /// error.
    #[test]
    fn punycode_decode_total(s in "[ -~]{0,30}") {
        match bootstring::decode(&s) {
            Ok(_) => {}
            Err(
                PunycodeError::InvalidDigit(_)
                | PunycodeError::Overflow
                | PunycodeError::InvalidCodePoint(_)
                | PunycodeError::NonBasic(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Domain parsing either fails or yields a lowercase ACE name that
    /// re-parses to itself (idempotence).
    #[test]
    fn domain_parse_idempotent(s in "[a-zA-Z0-9.\u{00E0}-\u{00FF}-]{1,40}") {
        if let Ok(d) = DomainName::parse(&s) {
            let again = DomainName::parse(d.as_ascii()).unwrap();
            prop_assert_eq!(d.as_ascii(), again.as_ascii());
            prop_assert_eq!(d.as_ascii(), d.as_ascii().to_lowercase());
        }
    }
}

// ---------------------------------------------------------------------------
// Bitmap metric axioms
// ---------------------------------------------------------------------------

fn arb_bitmap() -> impl Strategy<Value = Bitmap> {
    (any::<u64>(), 3usize..7).prop_map(|(seed, strokes)| {
        stroke_glyph(seed, Region::LETTER, strokes)
    })
}

proptest! {
    /// Δ is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn delta_is_a_metric(a in arb_bitmap(), b in arb_bitmap(), c in arb_bitmap()) {
        prop_assert_eq!(a.delta(&a), 0);
        prop_assert_eq!(a.delta(&b), b.delta(&a));
        prop_assert!(a.delta(&c) <= a.delta(&b) + b.delta(&c));
    }

    /// Perturbing by n moves Δ by exactly n.
    #[test]
    fn perturb_is_exact(a in arb_bitmap(), seed in any::<u64>(), n in 1u32..8) {
        let p = perturb(a, seed, n);
        prop_assert_eq!(a.delta(&p), n);
    }

    /// The row-class pigeonhole: toggling at most `parts - 1` pixels
    /// anywhere (Δ ≤ parts − 1) leaves some row-class signature equal,
    /// for every part count the 32 rows allow.
    #[test]
    fn row_class_signatures_never_miss(
        a in arb_bitmap(),
        parts in 1usize..=32,
        pixels in proptest::collection::vec(0usize..1024, 31..32),
    ) {
        let mut b = a;
        for &p in pixels.iter().take(parts - 1) {
            b.toggle(p % 32, p / 32);
        }
        prop_assert!((a.delta(&b) as usize) < parts);
        let (mut sa, mut sb) = (vec![0; parts], vec![0; parts]);
        a.row_class_signatures(&mut sa);
        b.row_class_signatures(&mut sb);
        prop_assert!(sa.iter().zip(&sb).any(|(x, y)| x == y));
    }

    /// PSNR decreases monotonically with Δ (paper §3.3 relation).
    #[test]
    fn psnr_monotone(a in arb_bitmap(), seed in any::<u64>(), n in 1u32..6) {
        use shamfinder::glyph::metrics::psnr;
        let near = perturb(a, seed, n);
        let far = perturb(a, seed.wrapping_add(1), n + 4);
        prop_assert!(psnr(&a, &near) > psnr(&a, &far));
    }
}

// ---------------------------------------------------------------------------
// Zone round-trips
// ---------------------------------------------------------------------------

proptest! {
    /// Zones serialise and re-parse identically for arbitrary A records.
    #[test]
    fn zone_round_trip(
        names in proptest::collection::vec("[a-z]{3,12}", 1..20),
        octet in 1u8..250,
    ) {
        use shamfinder::dns::{parse, RecordData, ResourceRecord, Zone};
        let records: Vec<ResourceRecord> = names
            .iter()
            .map(|n| ResourceRecord {
                name: DomainName::parse(&format!("{n}.com")).unwrap(),
                ttl: 3600,
                data: RecordData::A(std::net::Ipv4Addr::new(192, 0, 2, octet)),
            })
            .collect();
        let zone = Zone { origin: "com".into(), default_ttl: 3600, records };
        let text = zone.to_text();
        let parsed = parse(&text, "com").unwrap();
        prop_assert_eq!(parsed.records, zone.records);
    }
}

// ---------------------------------------------------------------------------
// Detection invariants
// ---------------------------------------------------------------------------

fn small_framework(references: Vec<String>) -> Framework {
    let font = SynthUnifont::v12();
    let simchar = build(
        &font,
        &BuildConfig {
            repertoire: Repertoire::Blocks(vec![
                "Basic Latin",
                "Latin-1 Supplement",
                "Cyrillic",
                "Greek and Coptic",
            ]),
            ..BuildConfig::default()
        },
    )
    .db;
    Framework::new(simchar, UcDatabase::embedded(), references, "com")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A homograph planted by substituting Cyrillic lookalikes is always
    /// detected against its reference, and the detection records the
    /// correct positions.
    #[test]
    fn planted_homograph_always_detected(
        stem in "[acepoxys]{4,12}",
        flip_mask in 1u16..256,
    ) {
        let subs: std::collections::HashMap<char, char> = [
            ('a', 'а'), ('c', 'с'), ('e', 'е'), ('p', 'р'),
            ('o', 'о'), ('x', 'х'), ('y', 'у'), ('s', 'ѕ'),
        ]
        .into_iter()
        .collect();

        let chars: Vec<char> = stem.chars().collect();
        let mut spoof = chars.clone();
        let mut flipped = Vec::new();
        for (i, c) in chars.iter().enumerate() {
            if flip_mask & (1 << (i % 16)) != 0 {
                spoof[i] = subs[c];
                flipped.push(i);
            }
        }
        prop_assume!(!flipped.is_empty());
        let spoof: String = spoof.into_iter().collect();

        let fw = small_framework(vec![stem.clone()]);
        let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
        let corpus = vec![DomainName::parse(&format!("{ace}.com")).unwrap()];
        let report = fw.run(&corpus);

        prop_assert_eq!(report.detections.len(), 1, "spoof {} missed", spoof);
        let det = &report.detections[0];
        prop_assert_eq!(&*det.reference, stem.as_str());
        let positions: Vec<usize> =
            det.substitutions.iter().map(|s| s.position).collect();
        prop_assert_eq!(positions, flipped);
    }

    /// Detections preserve character length and revert to the reference.
    #[test]
    fn detected_implies_length_and_revert(stem in "[aceo]{3,8}") {
        let spoof: String = stem
            .chars()
            .map(|c| match c {
                'a' => 'а',
                'c' => 'с',
                'e' => 'е',
                _ => 'о',
            })
            .collect();
        let fw = small_framework(vec![stem.clone()]);
        let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
        let corpus = vec![DomainName::parse(&format!("{ace}.com")).unwrap()];
        let report = fw.run(&corpus);
        prop_assert_eq!(report.detections.len(), 1);

        let det = &report.detections[0];
        prop_assert_eq!(det.idn_unicode.chars().count(), stem.chars().count());

        let index = fw.shared_index();
        let reverted = shamfinder::core::revert_stem(index.db(), &det.idn_unicode);
        prop_assert_eq!(reverted.stem(), stem.as_str());
    }

    /// Random ASCII names are never reported as homographs of themselves.
    #[test]
    fn no_self_detection(stem in "[a-z]{3,12}") {
        let fw = small_framework(vec![stem.clone()]);
        let corpus = vec![DomainName::parse(&format!("{stem}.com")).unwrap()];
        let report = fw.run(&corpus);
        prop_assert!(report.detections.is_empty());
    }

    /// The canonical-closure index is exact on lookalike corpora: every
    /// detection the naive all-pairs sweep finds, `CanonicalClosure`
    /// finds too, and vice versa — whatever mix of clean stems, partial
    /// spoofs and full spoofs is thrown at it. (The adversarial
    /// non-transitive case lives in
    /// `crates/core/tests/closure_equivalence.rs`.)
    #[test]
    fn canonical_closure_agrees_with_naive(
        stems in proptest::collection::vec("[acepoxys]{3,10}", 2..6),
        masks in proptest::collection::vec(any::<u16>(), 2..6),
    ) {
        let subs: std::collections::HashMap<char, char> = [
            ('a', 'а'), ('c', 'с'), ('e', 'е'), ('p', 'р'),
            ('o', 'о'), ('x', 'х'), ('y', 'у'), ('s', 'ѕ'),
        ]
        .into_iter()
        .collect();

        // References: the clean stems. Corpus: one spoof per stem with
        // substitutions at mask positions (possibly none → identical).
        let mut idns = Vec::new();
        for (stem, mask) in stems.iter().zip(&masks) {
            let spoof: String = stem
                .chars()
                .enumerate()
                .map(|(i, c)| if mask & (1 << (i % 16)) != 0 { subs[&c] } else { c })
                .collect();
            let ace = shamfinder::punycode::ace::to_ascii(&spoof).unwrap();
            idns.push((spoof, format!("{ace}.com")));
        }

        let fw = small_framework(stems.clone());
        let d = fw.shared_index();
        let key = |v: Vec<Detection>| {
            let mut k: Vec<(String, String)> = v
                .into_iter()
                .map(|h| (h.idn_ascii, h.reference.to_string()))
                .collect();
            k.sort();
            k
        };
        let naive = key(d.detect(&idns, DbSelection::Union, Indexing::Naive));
        let canon = key(d.detect(&idns, DbSelection::Union, Indexing::CanonicalClosure));
        prop_assert_eq!(naive, canon);
    }
}

// ---------------------------------------------------------------------------
// Confusables skeletons
// ---------------------------------------------------------------------------

proptest! {
    /// Skeletons are idempotent: skeleton(skeleton(s)) == skeleton(s).
    #[test]
    fn skeleton_idempotent(s in "\\PC{0,24}") {
        let uc = UcDatabase::embedded();
        let once = uc.skeleton(&s);
        let twice = uc.skeleton(&once);
        prop_assert_eq!(once, twice);
    }
}
