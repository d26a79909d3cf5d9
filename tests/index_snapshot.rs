//! Serialized prebuilt index: building the full detection index from
//! source, snapshotting it to disk, and mounting it back must be
//! invisible to detection — bit-identical reports — and every
//! corrupted, stale, older-format or section-less snapshot must be
//! rejected before it can reach the detector. This is the CI "index
//! snapshot roundtrip" smoke: it exercises the exact serve-path
//! sequence (build → serialize → mount → detect).

use proptest::prelude::*;
use shamfinder::confusables::UcDatabase;
use shamfinder::core::{DetectionIndex, Framework};
use shamfinder::glyph::SynthUnifont;
use shamfinder::punycode::DomainName;
use shamfinder::simchar::{build, BuildConfig, FlatPairIndex, HomoglyphDb, Repertoire};

fn simchar() -> shamfinder::simchar::SimCharDb {
    let font = SynthUnifont::v12();
    build(
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
    )
    .db
}

fn corpus() -> Vec<DomainName> {
    [
        "xn--ggle-55da.com",   // gооgle (Cyrillic о)
        "xn--ggle-vifa.com",   // gօօgle (Armenian օ)
        "xn--facbook-dya.com", // facébook
        "xn--pypal-4ve.com",   // pаypal
        "ordinary.com",
        "xn--fiq228c.com", // 中文 — IDN, not a homograph
    ]
    .iter()
    .map(|s| DomainName::parse(s).unwrap())
    .collect()
}

const REFS: &[&str] = &["google", "facebook", "paypal", "amazon"];

/// `db` with [`REFS`] as a full-index snapshot.
fn full_snapshot(db: HomoglyphDb) -> Vec<u8> {
    let index = DetectionIndex::new(db, REFS.iter().map(|s| s.to_string()));
    let mut bytes = Vec::new();
    index
        .write_snapshot(&mut bytes)
        .expect("serialize full index");
    bytes
}

/// A temporary file path unique to this process and `name`.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("shamfinder-{}-{name}", std::process::id()))
}

#[test]
fn snapshot_load_detects_bit_identically_to_source_build() {
    let simchar = simchar();
    let uc = UcDatabase::embedded();

    // Serve path: build once, snapshot to disk…
    let refs = || REFS.iter().map(|s| s.to_string());
    let built = DetectionIndex::shared(HomoglyphDb::new(simchar.clone(), uc.clone()), refs());
    let path = temp_path("index.bin");
    built.write_snapshot_file(&path).expect("serialize index");

    // …then mount the prebuilt index, skipping construction entirely.
    let loaded = DetectionIndex::from_snapshot_file(&path, simchar.clone(), uc.clone())
        .expect("matching sources must mount");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        loaded.db().flat(),
        built.db().flat(),
        "loaded index differs from built"
    );

    // Identical detections — the whole report, order included.
    let from_build = Framework::new(simchar, uc, refs(), "com");
    let mut from_snapshot =
        Framework::with_shared_index(std::sync::Arc::new(loaded), "com").session();

    let corpus = corpus();
    let batch_report = from_build.run(&corpus);
    assert_eq!(batch_report.detections.len(), 4);
    from_snapshot.push_domains(&corpus);
    assert_eq!(from_snapshot.into_report(), batch_report);
}

#[test]
fn corrupted_and_mismatched_snapshots_are_rejected() {
    let simchar = simchar();
    let uc = UcDatabase::embedded();
    let bytes = full_snapshot(HomoglyphDb::new(simchar.clone(), uc.clone()));
    let mount = |bytes: &[u8]| {
        DetectionIndex::from_snapshot_bytes(bytes, simchar.clone(), uc.clone()).map(|_| ())
    };

    // Wrong magic: a file that is not a snapshot at all.
    let mut wrong_magic = bytes.clone();
    wrong_magic[..8].copy_from_slice(b"NOTANIDX");
    let err = mount(&wrong_magic).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("magic"), "{err}");

    // Wrong version: a snapshot from a future format.
    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&7u32.to_le_bytes());
    let err = mount(&wrong_version).unwrap_err();
    assert!(err.to_string().contains("version 7"), "{err}");

    // A single flipped bit in the fingerprint fields (12..28), the
    // reference-section length (44), the payload or the reference
    // section fails a checksum or the framing — corruption is reported
    // as corruption, never as a staleness mismatch.
    for at in [12usize, 27, 44, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x10;
        let err = mount(&corrupted).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "offset {at}");
        assert!(!err.to_string().contains("stale"), "offset {at}: {err}");
    }

    // Truncation anywhere is an error, never a partial index.
    for cut in [0usize, 7, 11, 27, 43, bytes.len() - 1] {
        assert!(mount(&bytes[..cut]).is_err(), "truncated at {cut}");
    }
}

#[test]
fn stale_snapshots_are_rejected_on_mount() {
    // Snapshot the v12-font index…
    let uc = UcDatabase::embedded();
    let bytes = full_snapshot(HomoglyphDb::new(simchar(), uc.clone()));

    // …then try to mount it over a *different* SimChar build (a
    // stricter θ — exactly what a font or threshold upgrade produces).
    // The recorded source fingerprint no longer matches and the mount
    // must fail descriptively instead of serving the wrong pair
    // universe.
    let font = SynthUnifont::v12();
    let retuned_simchar = || {
        build(
            &font,
            &BuildConfig {
                theta: 2,
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                    "Greek and Coptic",
                    "Armenian",
                ]),
                ..BuildConfig::default()
            },
        )
        .db
    };
    let err =
        DetectionIndex::from_snapshot_bytes(&bytes, retuned_simchar(), uc.clone()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("stale"), "{err}");
    assert!(err.to_string().contains("SimChar/font build"), "{err}");

    // A different confusables revision is named likewise.
    let other_uc = UcDatabase::from_mappings(Vec::new());
    let err = DetectionIndex::from_snapshot_bytes(&bytes, simchar(), other_uc).unwrap_err();
    assert!(err.to_string().contains("UC confusables revision"), "{err}");

    // The same bytes still mount fine over the matching sources.
    assert!(DetectionIndex::from_snapshot_bytes(&bytes, simchar(), uc.clone()).is_ok());

    // From disk, every rejection also names the file: a stale mount…
    let path = temp_path("stale.idx");
    std::fs::write(&path, &bytes).expect("write snapshot");
    let err = DetectionIndex::from_snapshot_file(&path, retuned_simchar(), uc.clone()).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("stale.idx"), "{err}");
    assert!(err.to_string().contains("SimChar/font build"), "{err}");
    // …and an unreadable file.
    let missing = temp_path("missing.idx");
    let err = DetectionIndex::from_snapshot_file(&missing, simchar(), uc).unwrap_err();
    assert!(err.to_string().contains("missing.idx"), "{err}");
}

// ---------------------------------------------------------------------------
// v3 full-index snapshots (reference section)
// ---------------------------------------------------------------------------

/// A deliberately tiny full-index snapshot (one-pair SimChar, empty UC,
/// three references) so exhaustive per-offset corruption sweeps stay
/// fast, plus the component databases needed to attempt a mount.
fn tiny_full_snapshot() -> (shamfinder::simchar::SimCharDb, UcDatabase, Vec<u8>) {
    use shamfinder::simchar::Pair;
    let simchar = shamfinder::simchar::SimCharDb::from_pairs(
        vec![Pair { a: 'o' as u32, b: 0x043E, delta: 1 }],
        4,
    );
    let uc = UcDatabase::from_mappings(Vec::new());
    let db = HomoglyphDb::new(simchar.clone(), uc.clone());
    let index =
        DetectionIndex::new(db, ["google", "paypal", "oo"].map(String::from).to_vec());
    let mut bytes = Vec::new();
    index.write_snapshot(&mut bytes).expect("serialize full index");
    (simchar, uc, bytes)
}

#[test]
fn full_index_snapshot_round_trips_and_checks_the_reference_list() {
    let simchar = simchar();
    let uc = UcDatabase::embedded();
    let db = HomoglyphDb::new(simchar.clone(), uc.clone());
    let refs = || REFS.iter().map(|s| s.to_string());
    let built = shamfinder::core::DetectionIndex::shared(db, refs());

    let mut bytes = Vec::new();
    built.write_snapshot(&mut bytes).expect("serialize full index");
    let mounted =
        DetectionIndex::from_snapshot_bytes(&bytes, simchar, uc).expect("mount full index");

    // The three-way staleness check: font build and confusables
    // revision are fingerprint-verified by the mount itself; the
    // reference list is pinned by its digest.
    assert_eq!(mounted.reference_digest(), built.reference_digest());
    mounted.expect_references(REFS.iter().copied()).expect("same list");
    let err = mounted.expect_references(["google", "facebook"]).unwrap_err();
    assert!(err.to_string().contains("reference list"), "{err}");

    // Identical detections, order included, batch and streaming alike.
    let corpus = corpus();
    let from_build = Framework::with_shared_index(built, "com").run(&corpus);
    let mut session = Framework::with_shared_index(
        std::sync::Arc::new(mounted),
        "com",
    )
    .session();
    session.push_domains(&corpus);
    assert_eq!(session.into_report(), from_build);
    assert_eq!(from_build.detections.len(), 4);
}

#[test]
fn v2_and_sectionless_snapshots_are_refused() {
    // Byte-wise FNV-1a — the v2 checksum (v3 switched to word lanes).
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    let (simchar, uc, v3) = tiny_full_snapshot();
    let refusals = |bytes: &[u8]| {
        [
            FlatPairIndex::read_with_section_bytes(bytes)
                .map(|_| ())
                .unwrap_err(),
            FlatPairIndex::snapshot_stat(bytes).map(|_| ()).unwrap_err(),
            DetectionIndex::from_snapshot_bytes(bytes, simchar.clone(), uc.clone())
                .map(|_| ())
                .unwrap_err(),
        ]
    };

    // Downgrade the v3 bytes to a well-formed v2 file: drop the two
    // reference-section header fields (bytes 44..60) and the section,
    // stamp version 2, reseal with the byte-wise checksum over
    // fingerprint + payload.
    let payload_len = u64::from_le_bytes(v3[28..36].try_into().unwrap()) as usize;
    let mut v2 = Vec::with_capacity(44 + payload_len);
    v2.extend_from_slice(&v3[..44]);
    v2.extend_from_slice(&v3[60..60 + payload_len]);
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    let checksum = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &v2[12..28]), &v2[44..]);
    v2[36..44].copy_from_slice(&checksum.to_le_bytes());
    for err in refusals(&v2) {
        assert!(err.to_string().contains("version 2"), "{err}");
        assert!(err.to_string().contains("shamfinder index build"), "{err}");
    }
    // Older still: the same refusal, naming the version.
    let mut v1 = v2.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    for err in refusals(&v1) {
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    // A v3 file with an empty reference section holds no full index.
    let flat = FlatPairIndex::read_with_section_bytes(&v3)
        .expect("v3 loads")
        .0;
    let mut pair_only = Vec::new();
    flat.write_with_section(&mut pair_only, &[])
        .expect("serialize pair index");
    for err in refusals(&pair_only) {
        assert!(err.to_string().contains("no reference section"), "{err}");
    }
}

#[test]
fn full_snapshot_rejects_truncation_at_every_offset() {
    let (simchar, uc, bytes) = tiny_full_snapshot();
    // Sanity: the intact bytes mount.
    DetectionIndex::from_snapshot_bytes(&bytes, simchar.clone(), uc.clone())
        .expect("intact snapshot mounts");

    let payload_len =
        u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
    let section_start = 60 + payload_len;
    for cut in 0..bytes.len() {
        let err = DetectionIndex::from_snapshot_bytes(&bytes[..cut], simchar.clone(), uc.clone())
            .expect_err("truncated snapshot must not mount");
        // Cuts inside the reference section convict it by name.
        if cut > section_start {
            assert!(err.to_string().contains("reference section"), "cut {cut}: {err}");
        }
    }
}

proptest! {
    /// Seeded single-bit flips anywhere in a full-index snapshot:
    /// every flip is rejected (checksums cover both halves, framing
    /// errors cover the header) — an error, never a panic, and flips
    /// landing in the reference section name it.
    #[test]
    fn full_snapshot_rejects_any_bit_flip(at in 0usize..usize::MAX, bit in 0u8..8) {
        let (simchar, uc, bytes) = tiny_full_snapshot();
        let at = at % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 1 << bit;
        let err = DetectionIndex::from_snapshot_bytes(&corrupted, simchar, uc)
            .expect_err("corrupted snapshot must not mount");
        let payload_len =
            u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
        if at >= 60 + payload_len {
            prop_assert!(
                err.to_string().contains("reference section"),
                "flip at {at}: {err}"
            );
        }
    }
}

#[test]
fn mounted_index_detects_bit_identically_at_scale() {
    use shamfinder::core::{DbSelection, DetectorSession, Indexing};
    use std::sync::Arc;

    // The acceptance corpus: the 10k-stem reference list and a 20k-IDN
    // feed, half single-substitution lookalikes, half benign IDN noise
    // (the same shape as the bench corpus).
    let references = shamfinder::workload::reference_list(10_000);
    let corpus: Vec<(String, String)> = (0..20_000)
        .map(|i| {
            let stem = if i % 2 == 0 {
                let target = &references[(i / 2) % 500];
                let len = target.chars().count().max(1);
                target
                    .chars()
                    .enumerate()
                    .map(|(pos, c)| {
                        if pos == i % len {
                            match c {
                                'a' => 'а',
                                'e' => 'е',
                                'o' => 'о',
                                'c' => 'с',
                                'p' => 'р',
                                other => other,
                            }
                        } else {
                            c
                        }
                    })
                    .collect::<String>()
            } else {
                format!("münchen-shop-{i}")
            };
            let ace = shamfinder::punycode::ace::to_ascii(&stem).unwrap();
            (stem, format!("{ace}.com"))
        })
        .collect();

    let simchar = simchar();
    let uc = UcDatabase::embedded();
    let built = shamfinder::core::DetectionIndex::shared(
        HomoglyphDb::new(simchar.clone(), uc.clone()),
        references.iter().cloned(),
    );
    let mut bytes = Vec::new();
    built.write_snapshot(&mut bytes).expect("serialize full index");
    let mounted = Arc::new(
        DetectionIndex::from_snapshot_bytes(&bytes, simchar, uc).expect("mount full index"),
    );
    mounted
        .expect_references(references.iter().map(String::as_str))
        .expect("same reference list");

    // The reference churn both sessions will replay: a small
    // add/remove wave, then a mass removal that crosses the
    // compaction threshold (dead must outnumber live).
    let wave_add: Vec<String> = (0..50).map(|i| format!("zz-new-{i}")).collect();
    let wave_remove: Vec<String> = references[..100].to_vec();
    let mass_remove: Vec<String> = references[100..6_000].to_vec();

    for threads in [1usize, 4] {
        let _force = rayon::ThreadOverride::new(threads);

        // Batch detection: bit-identical reports, all strategies.
        for indexing in [Indexing::CanonicalClosure, Indexing::LengthBucket] {
            let a = built.detect(&corpus, DbSelection::Union, indexing);
            let b = mounted.detect(&corpus, DbSelection::Union, indexing);
            assert!(!a.is_empty(), "corpus must produce detections");
            assert_eq!(a, b, "threads {threads}, {indexing:?}");
        }

        // Streaming with reference-diff churn and forced compaction.
        let mut s_built = DetectorSession::new(Arc::clone(&built), "com");
        let mut s_mounted = DetectorSession::new(Arc::clone(&mounted), "com");
        let halves = corpus.split_at(corpus.len() / 2);
        for s in [&mut s_built, &mut s_mounted] {
            s.apply_reference_diff(&wave_add, &wave_remove);
            s.push_idns(halves.0);
            s.apply_reference_diff(&[], &mass_remove);
            s.push_idns(halves.1);
        }
        assert_eq!(
            s_built.overlay_tombstones(),
            s_mounted.overlay_tombstones(),
            "threads {threads}"
        );
        assert_eq!(s_built.overlay_tombstones(), 0, "mass removal must compact");
        assert_eq!(s_built.into_report(), s_mounted.into_report(), "threads {threads}");
    }
}
