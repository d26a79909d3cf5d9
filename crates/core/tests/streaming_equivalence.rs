//! Streaming ≡ batch: feeding a corpus to a [`DetectorSession`] in
//! *any* partition of batches — including empty batches, single-domain
//! batches and net-no-op reference diffs interleaved between them —
//! must fold into a [`FrameworkReport`] identical to one
//! `Framework::run` over the whole corpus, at every thread count.
//! Batch and streaming share one executor, and this suite pins that
//! they cannot drift apart. It also pins the observational contract of
//! [`ExecStats`](sham_core::ExecStats): report equality ignores it.

use proptest::prelude::*;
use sham_confusables::UcDatabase;
use sham_core::{Framework, FrameworkReport};
use sham_punycode::DomainName;
use sham_simchar::{build, BuildConfig, Repertoire};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

const REFERENCES: &[&str] = &[
    "google", "amazon", "facebook", "apple", "paypal", "netflix", "coinbase",
    "alphabet", "microsoft", "cloudflare",
];

/// Serialises the tests that force a thread count: the override is
/// process-global, and the exec-stats assertions would observe a
/// neighbouring test's count.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One shared framework for every case — the SimChar build is the
/// expensive part and the framework is read-only.
fn framework() -> &'static Framework {
    static FRAMEWORK: OnceLock<Framework> = OnceLock::new();
    FRAMEWORK.get_or_init(|| {
        let font = sham_glyph::SynthUnifont::v12();
        let result = build(
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
        );
        Framework::new(
            result.db,
            UcDatabase::embedded(),
            REFERENCES.iter().map(|s| s.to_string()),
            "com",
        )
    })
}

/// A deterministic mixed corpus of `n` domains: lookalikes of the
/// references (Cyrillic substitutions at rotating positions), identical
/// copies, benign IDNs, plain ASCII names and wrong-TLD names.
fn corpus(n: usize) -> &'static [DomainName] {
    static CORPUS: OnceLock<Vec<DomainName>> = OnceLock::new();
    let all = CORPUS.get_or_init(|| {
        (0..20_000usize)
            .map(|i| {
                let name = match i % 5 {
                    0 | 3 => {
                        let target = REFERENCES[i % REFERENCES.len()];
                        let len = target.chars().count().max(1);
                        let stem: String = target
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
                            .collect();
                        let ace = sham_punycode::ace::to_ascii(&stem).unwrap();
                        format!("{ace}.com")
                    }
                    1 => format!("{}.com", REFERENCES[i % REFERENCES.len()]),
                    2 => {
                        let ace = sham_punycode::ace::to_ascii(&format!("münchen-{i}")).unwrap();
                        format!("{ace}.com")
                    }
                    _ => format!("plain-ascii-{i}.{}", if i % 8 == 4 { "net" } else { "com" }),
                };
                DomainName::parse(&name).unwrap()
            })
            .collect()
    });
    &all[..n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any batch partition of the corpus — empty batches included —
    /// at 1, 2 or 4 threads yields the report of one 1-thread
    /// `Framework::run`.
    #[test]
    fn any_batch_partition_matches_one_shot_run(
        n in 0usize..1_500,
        cuts in proptest::collection::vec(0usize..120, 0..12),
        threads_idx in 0usize..3,
    ) {
        let _serial = serial();
        let fw = framework();
        let corpus = corpus(n);
        let expected = {
            let _one = rayon::ThreadOverride::new(1);
            fw.run(corpus)
        };

        let _threads = rayon::ThreadOverride::new([1usize, 2, 4][threads_idx]);
        let mut session = fw.session();
        let mut rest = corpus;
        for &cut in &cuts {
            let take = cut.min(rest.len());
            let (batch, tail) = rest.split_at(take);
            session.push_domains(batch); // `cut == 0` ⇒ an empty batch
            rest = tail;
        }
        session.push_domains(rest);
        prop_assert_eq!(session.into_report(), expected);
    }

    /// Interleaving reference diffs that net out to nothing — a
    /// trending stem rotates in after one batch and back out after a
    /// later one — leaves the final report equal to the batch run,
    /// while exercising the copy-on-write overlay mid-stream.
    #[test]
    fn net_noop_interleaved_diffs_preserve_equivalence(
        n in 1usize..1_200,
        cuts in proptest::collection::vec(1usize..120, 1..8),
    ) {
        let fw = framework();
        let corpus = corpus(n);
        let expected = fw.run(corpus);

        let trending = vec!["zzztrending".to_string()]; // matches nothing in the corpus
        let mut session = fw.session();
        let mut rest = corpus;
        for (i, &cut) in cuts.iter().enumerate() {
            let take = cut.min(rest.len());
            let (batch, tail) = rest.split_at(take);
            session.push_domains(batch);
            rest = tail;
            // Alternate add / remove so every diff is replayed (undone)
            // by the end: the session finishes on the base list.
            if i % 2 == 0 {
                session.apply_reference_diff(&trending, &[]);
            } else {
                session.apply_reference_diff(&[], &trending);
            }
        }
        if cuts.len() % 2 == 1 {
            session.apply_reference_diff(&[], &trending);
        }
        session.push_domains(rest);
        prop_assert_eq!(session.reference_count(), REFERENCES.len());
        prop_assert_eq!(session.into_report(), expected);
    }
}

/// Names that take every branch of Step 2: ASCII names, IDNs of `com`,
/// of `net` and of the `xn--p1ai` TLD (lookalikes and benign ones),
/// ASCII stems under `xn--p1ai`, the bare TLDs `xn--p1ai` and `com`,
/// undecodable and non-canonical `xn--` labels alone or beside good
/// ones, and uppercase input.
fn step2_corpus() -> &'static [DomainName] {
    static CORPUS: OnceLock<Vec<DomainName>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let lookalike = |i: usize| {
            let target = REFERENCES[i % REFERENCES.len()];
            let stem = target
                .replacen('o', "\u{43E}", 1)
                .replacen('a', "\u{430}", 1);
            let stem = if stem == target {
                format!("{target}\u{E9}")
            } else {
                stem
            };
            sham_punycode::ace::to_ascii(&stem).unwrap()
        };
        (0..720usize)
            .map(|i| {
                let name = match i % 18 {
                    0 => format!("plain-{i}.com"),
                    1 | 2 => format!("{}.com", lookalike(i)),
                    3 => format!("{}.net", lookalike(i)),
                    4 => format!("{}.xn--p1ai", lookalike(i)),
                    5 => format!("shop-{i}.xn--p1ai"),
                    6 => "xn--p1ai".to_string(),
                    7 => "com".to_string(),
                    8 => format!(
                        "{}-{i}.com",
                        sham_punycode::ace::to_ascii("münchen").unwrap()
                    ),
                    9 => "xn--99999999999.com".to_string(),
                    10 => "xn---tda.com".to_string(),
                    11 => format!("xn--abc{i}-.com"),
                    12 => format!("www.{}.com", lookalike(i)),
                    13 => format!("{}.xn---tda.com", lookalike(i)),
                    14 => format!("{}.COM", lookalike(i).to_uppercase()),
                    15 => format!("WWW.{}.XN--P1AI", lookalike(i).to_uppercase()),
                    16 => format!("xn--ab_{i}.xn--p1ai"),
                    _ => format!("plain-{i}.net"),
                };
                DomainName::parse(&name).unwrap()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A lane keeps ACE names and its flush's shards decode them; the
    /// pre-decoded pairs of `extract_idns` take the other way into the
    /// same executor. In any batch partition of the Step 2 corpus, at 1
    /// and 2 threads, for the `com` and `xn--p1ai` sessions, the two give
    /// the same detections (strings, reference, substitutions, order)
    /// and the same IDN count.
    #[test]
    fn lanes_decoding_in_shards_match_pre_decoded_pairs(
        cuts in proptest::collection::vec(0usize..200, 0..10),
        threads_idx in 0usize..2,
    ) {
        let _serial = serial();
        let corpus = step2_corpus();
        let _threads = rayon::ThreadOverride::new(threads_idx + 1);
        for tld in ["com", "xn--p1ai"] {
            let fw = Framework::with_shared_index(framework().shared_index(), tld);
            let idns = fw.extract_idns(corpus);
            let mut pre_decoded = fw.session();
            pre_decoded.push_idns(&idns);
            let expected = pre_decoded.into_report();
            prop_assert!(expected.detections.len() > 20, ".{} corpus must detect", tld);

            let mut session = fw.session();
            let mut rest = corpus;
            for &cut in &cuts {
                let (batch, tail) = rest.split_at(cut.min(rest.len()));
                session.push_domains(batch);
                rest = tail;
            }
            session.push_domains(rest);
            let streamed = session.into_report();
            prop_assert_eq!(streamed.total_domains, corpus.len());
            prop_assert_eq!(streamed.idn_count, idns.len());
            prop_assert_eq!(&streamed.detections, &expected.detections, ".{}", tld);
        }
    }
}

/// The acceptance-criterion configuration, pinned exactly: the 20k
/// corpus in 64-domain batches equals `Framework::run`, at 1 and N
/// worker threads.
#[test]
fn twenty_k_corpus_in_64_domain_batches_at_every_thread_count() {
    let _serial = serial();
    let fw = framework();
    let corpus = corpus(20_000);

    let reference_report: FrameworkReport = {
        let _one = rayon::ThreadOverride::new(1);
        fw.run(corpus)
    };
    assert!(
        reference_report.detections.len() > 1_000,
        "corpus must be detection-rich ({} found)",
        reference_report.detections.len()
    );

    let hardware = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
    for threads in [1usize, hardware] {
        let _forced = rayon::ThreadOverride::new(threads);
        assert_eq!(fw.run(corpus), reference_report, "batch diverges at {threads} threads");
        let mut session = fw.session();
        for batch in corpus.chunks(64) {
            session.push_domains(batch);
        }
        assert_eq!(
            session.into_report(),
            reference_report,
            "streaming diverges at {threads} threads"
        );
    }
}

/// Report equality is blind to `exec`: the same corpus at 1 thread (one
/// inline shard) and at 4 (fine shards across the pool) compares equal
/// while the recorded stats differ.
#[test]
fn report_equality_ignores_exec_stats() {
    let _serial = serial();
    let fw = framework();
    let corpus = corpus(2_000);
    let one = {
        let _one = rayon::ThreadOverride::new(1);
        fw.run(corpus)
    };
    let four = {
        let _four = rayon::ThreadOverride::new(4);
        fw.run(corpus)
    };
    assert_eq!(one, four, "partitioning leaked into the results");
    assert!(
        one.detections.len() > 100,
        "corpus must be detection-rich ({} found)",
        one.detections.len()
    );
    assert_eq!(one.exec.shards, one.exec.batches, "1 thread runs one inline shard");
    assert!(
        four.exec.shards > one.exec.shards,
        "4 threads should shard finer ({} vs {} shards)",
        four.exec.shards,
        one.exec.shards,
    );
    assert_ne!(one.exec, four.exec);
}

/// The empty run records nothing: no batches, `is_empty`, and the
/// default accumulator round-trips through report merging unchanged.
#[test]
fn empty_runs_record_no_exec_stats() {
    let report = framework().run(&[]);
    assert!(report.exec.is_empty());
    assert_eq!(report.exec, sham_core::ExecStats::default());
}

/// Overlay compaction is unobservable: a session that compacts after
/// every diff, one that compacts at the default threshold and one that
/// never compacts fold an identical churn-heavy stream — with *real*
/// diffs that change detections mid-stream — into identical reports.
#[test]
fn overlay_compaction_matches_no_compaction() {
    let fw = framework();
    let corpus = corpus(1_800);
    let segments: Vec<&[sham_punycode::DomainName]> = corpus.chunks(150).collect();

    let run = |threshold: usize| {
        let mut session = fw.session().with_compaction_threshold(threshold);
        for (i, segment) in segments.iter().enumerate() {
            session.push_domains(*segment);
            // Real churn: rotate a live reference out and a fresh stem
            // in, alternating, so removals tombstone entries that
            // genuinely carry detections.
            let target = REFERENCES[i % REFERENCES.len()].to_string();
            let trending = format!("trending-{i}");
            session.apply_reference_diff(
                std::slice::from_ref(&trending),
                std::slice::from_ref(&target),
            );
            session.apply_reference_diff(&[target], &[trending]);
        }
        (session.overlay_tombstones(), session.into_report())
    };

    let (eager_dead, eager) = run(1); // compact whenever half-dead
    let (default_dead, default) = run(sham_core::DEFAULT_COMPACTION_THRESHOLD);
    let (never_dead, never) = run(usize::MAX);
    assert_eq!(eager, never, "compaction changed the report");
    assert_eq!(default, never);
    assert!(eager.detections.len() > 50, "churn stream must stay detection-rich");
    // The no-compaction session really accumulated garbage the eager
    // one reclaimed — otherwise this test pins nothing.
    assert!(never_dead > eager_dead, "{never_dead} vs {eager_dead}");
    let _ = default_dead;
}

/// Real (non-no-op) diffs take effect exactly at their position in the
/// stream: earlier detections are kept, later batches see the edited
/// list — equivalent to running each segment against its then-current
/// reference list.
#[test]
fn real_diffs_apply_between_batches() {
    let fw = framework();
    let corpus = corpus(900);
    let (first, second) = corpus.split_at(450);

    let mut session = fw.session();
    session.push_domains(first);
    session.apply_reference_diff(&[], &["google".to_string()]);
    session.push_domains(second);
    let streamed = session.into_report();

    // Segment-wise expectation from two one-shot runs: the full list
    // for the first half, google removed for the second.
    let expected_first = fw.run(first);
    let shrunk = Framework::with_shared_index(fw.shared_index(), "com");
    let mut shrunk_session = shrunk.session();
    shrunk_session.apply_reference_diff(&[], &["google".to_string()]);
    shrunk_session.push_domains(second);
    let expected_second = shrunk_session.into_report();

    assert_eq!(
        streamed.total_domains,
        expected_first.total_domains + expected_second.total_domains
    );
    assert!(expected_second.detections.iter().all(|d| &*d.reference != "google"));
    let mut expected: Vec<_> = expected_first.detections;
    expected.extend(expected_second.detections);
    assert_eq!(streamed.detections, expected);
    assert!(streamed.detections.iter().any(|d| &*d.reference == "google"));
}
