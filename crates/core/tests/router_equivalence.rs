//! Router ≡ per-TLD batch: demultiplexing an interleaved multi-TLD
//! feed through a [`SessionRouter`] — in *any* batching, with global
//! reference churn interleaved — must produce, per TLD, exactly the
//! report a one-shot `Framework::run` over that TLD's slice of the
//! feed produces, at every thread count. Routing, lane buffering and
//! the shared worker pool must all be unobservable in the results,
//! while the [`ExecStats`](sham_core::ExecStats) they record still
//! accumulate across batches and lanes.

use proptest::prelude::*;
use sham_core::{DetectionIndex, Framework, RouterReport, SessionRouter};
use sham_punycode::DomainName;
use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const REFERENCES: &[&str] = &[
    "google", "amazon", "facebook", "apple", "paypal", "netflix", "coinbase",
    "alphabet", "microsoft", "cloudflare",
];

const TLDS: &[&str] = &["com", "net", "org"];

/// Serialises the tests that force a thread count: the override is
/// process-global, and the exec-stats assertions would observe a
/// neighbouring test's count.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One shared index for every case — the SimChar build is the
/// expensive part and the index is immutable.
fn index() -> &'static Arc<DetectionIndex> {
    static INDEX: OnceLock<Arc<DetectionIndex>> = OnceLock::new();
    INDEX.get_or_init(|| {
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
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, sham_confusables::UcDatabase::embedded()),
            REFERENCES.iter().map(|s| s.to_string()),
        )
    })
}

/// A deterministic interleaved multi-TLD corpus of `n` domains:
/// lookalikes of the references (Cyrillic substitutions at rotating
/// positions), identical copies, benign IDNs and plain ASCII names,
/// spread across the three TLDs in a fixed but non-periodic pattern.
fn corpus(n: usize) -> &'static [DomainName] {
    static CORPUS: OnceLock<Vec<DomainName>> = OnceLock::new();
    let all = CORPUS.get_or_init(|| {
        (0..12_000usize)
            .map(|i| {
                // Non-periodic TLD assignment so lookalike kinds and
                // TLDs decorrelate.
                let tld = TLDS[(i * 7 + i / 5) % TLDS.len()];
                let stem = match i % 5 {
                    0 | 3 => {
                        let target = REFERENCES[i % REFERENCES.len()];
                        let len = target.chars().count().max(1);
                        let lookalike: String = target
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
                        sham_punycode::ace::to_ascii(&lookalike).unwrap()
                    }
                    1 => REFERENCES[i % REFERENCES.len()].to_string(),
                    2 => sham_punycode::ace::to_ascii(&format!("münchen-{i}")).unwrap(),
                    _ => format!("plain-ascii-{i}"),
                };
                DomainName::parse(&format!("{stem}.{tld}")).unwrap()
            })
            .collect()
    });
    &all[..n]
}

/// The per-TLD ground truth: one `Framework::run` over each TLD's
/// slice of `domains`, in feed order.
fn per_tld_batch(domains: &[DomainName]) -> Vec<(String, sham_core::FrameworkReport)> {
    TLDS.iter()
        .map(|&tld| {
            let slice: Vec<DomainName> =
                domains.iter().filter(|d| d.tld() == tld).cloned().collect();
            let fw = Framework::with_shared_index(Arc::clone(index()), tld);
            (tld.to_string(), fw.run(&slice))
        })
        .collect()
}

/// Asserts a router report matches the per-TLD batch ground truth
/// (lanes for TLDs that saw no domain may be absent from the router).
fn assert_matches(
    report: &RouterReport,
    domains: &[DomainName],
    expected: &[(String, sham_core::FrameworkReport)],
) {
    for (tld, batch) in expected {
        match report.per_tld.iter().find(|lane| &lane.tld == tld) {
            Some(lane) => assert_eq!(&lane.report, batch, "lane .{tld} diverged"),
            None => assert_eq!(
                batch.total_domains, 0,
                "router silently dropped .{tld} domains"
            ),
        }
    }
    assert_eq!(report.total_domains(), domains.len());
    assert_eq!(report.unrouted_domains, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Any push partition of the interleaved feed, at any lane batch
    /// capacity and at 1, 2 or 4 threads, folds into the 1-thread
    /// per-TLD batch reports.
    #[test]
    fn any_interleaving_matches_per_tld_batch_runs(
        n in 0usize..1_200,
        capacity in 1usize..200,
        cuts in proptest::collection::vec(0usize..120, 0..10),
        threads_idx in 0usize..3,
    ) {
        let _serial = serial();
        let domains = corpus(n);
        let expected = {
            let _one = rayon::ThreadOverride::new(1);
            per_tld_batch(domains)
        };
        let _threads = rayon::ThreadOverride::new([1usize, 2, 4][threads_idx]);
        let mut router =
            SessionRouter::new(Arc::clone(index())).with_batch_capacity(capacity);
        let mut rest = domains;
        for &cut in &cuts {
            let take = cut.min(rest.len());
            let (batch, tail) = rest.split_at(take);
            router.push_domains(batch); // cut == 0 ⇒ an empty push
            rest = tail;
        }
        router.push_domains(rest);
        assert_matches(&router.into_report(), domains, &expected);
    }

    /// Global reference diffs that net out to nothing — applied at
    /// arbitrary points of the feed — leave every lane's final report
    /// equal to its batch run, while exercising each session's
    /// copy-on-write overlay (and, at low thresholds, its compaction).
    #[test]
    fn net_noop_global_churn_preserves_equivalence(
        n in 1usize..1_000,
        cuts in proptest::collection::vec(1usize..120, 1..8),
        compact_eagerly in 0usize..2,
    ) {
        let domains = corpus(n);
        let trending = vec!["zzztrending".to_string()];
        // Half the cases compact on every possible diff, half never —
        // the reports must be identical either way.
        let threshold = if compact_eagerly == 1 { 1 } else { usize::MAX };
        let mut router = SessionRouter::new(Arc::clone(index()))
            .with_batch_capacity(64)
            .with_compaction_threshold(threshold);
        let mut rest = domains;
        for (i, &cut) in cuts.iter().enumerate() {
            let take = cut.min(rest.len());
            let (batch, tail) = rest.split_at(take);
            router.push_domains(batch);
            rest = tail;
            if i % 2 == 0 {
                router.apply_reference_diff(&trending, &[]);
            } else {
                router.apply_reference_diff(&[], &trending);
            }
        }
        if cuts.len() % 2 == 1 {
            router.apply_reference_diff(&[], &trending);
        }
        router.push_domains(rest);
        let report = router.into_report();
        prop_assert!(report.reference_diffs >= cuts.len());
        assert_matches(&report, domains, &per_tld_batch(domains));
    }
}

/// The acceptance-criterion configuration, pinned exactly: a 12k
/// interleaved 3-TLD feed routed domain-by-domain equals the per-TLD
/// batch runs, at 1 and N worker threads (the N-thread run drives
/// lane batches through the persistent pool).
#[test]
fn interleaved_feed_matches_batch_at_every_thread_count() {
    let _serial = serial();
    let domains = corpus(12_000);
    let sequential = {
        let _one = rayon::ThreadOverride::new(1);
        per_tld_batch(domains)
    };
    let detections: usize = sequential.iter().map(|(_, r)| r.detections.len()).sum();
    assert!(detections > 900, "corpus must be detection-rich ({detections} found)");

    let hardware = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
    for threads in [1usize, hardware] {
        let _forced = rayon::ThreadOverride::new(threads);
        let mut router =
            SessionRouter::new(Arc::clone(index())).with_batch_capacity(1_024);
        for domain in domains {
            router.push_domains(std::iter::once(domain));
        }
        let report = router.into_report();
        for (tld, batch) in &sequential {
            let lane = report
                .per_tld
                .iter()
                .find(|lane| &lane.tld == tld)
                .expect("every TLD saw traffic");
            assert_eq!(&lane.report, batch, ".{tld} diverges at {threads} threads");
        }
    }
}

/// `ExecStats` accumulate across a session's batches: every non-empty
/// push records one batch, 1-thread pushes are inline single shards,
/// and the router folds its lanes' stats into one accumulator.
#[test]
fn exec_stats_accumulate_across_batches_and_lanes() {
    let _serial = serial();
    let _one = rayon::ThreadOverride::new(1);

    // 1 thread: every batch is one inline shard of the batch's length.
    let com: Vec<DomainName> =
        corpus(1_500).iter().filter(|d| d.tld() == "com").cloned().collect();
    let mut session = Framework::with_shared_index(Arc::clone(index()), "com").session();
    let mut idn_batches = 0u64;
    for batch in com.chunks(100) {
        session.push_domains(batch);
        if batch.iter().any(|d| d.is_idn()) {
            idn_batches += 1;
        }
    }
    let exec = session.exec_stats();
    assert_eq!(exec.batches, idn_batches);
    assert_eq!(exec.inline_batches, idn_batches);
    assert_eq!(exec.shards, idn_batches);
    assert_eq!(exec.max_workers, 1);
    assert!(exec.max_shard_len <= 100);
    assert_eq!(session.into_report().exec, exec);

    // Router: the folded accumulator covers every lane's batches.
    let mut router = SessionRouter::new(Arc::clone(index()));
    router.push_domains(corpus(1_500));
    let report = router.into_report();
    let folded = report.exec();
    let per_lane: u64 = report.per_tld.iter().map(|l| l.report.exec.batches).sum();
    assert!(!folded.is_empty());
    assert_eq!(folded.batches, per_lane);
}

/// A restricted lane set drops (and counts) foreign TLDs, and the
/// remaining lanes still match their batch runs exactly.
#[test]
fn restricted_lanes_stay_equivalent_and_count_unrouted() {
    let domains = corpus(2_000);
    let mut router = SessionRouter::new(Arc::clone(index()))
        .with_tlds(["com", "net"])
        .with_batch_capacity(97);
    router.push_domains(domains);
    let report = router.into_report();

    let org_count = domains.iter().filter(|d| d.tld() == "org").count();
    assert!(org_count > 0);
    assert_eq!(report.unrouted_domains, org_count);
    let expected = per_tld_batch(domains);
    for (tld, batch) in expected.iter().filter(|(tld, _)| tld != "org") {
        let lane = report.per_tld.iter().find(|lane| &lane.tld == tld).unwrap();
        assert_eq!(&lane.report, batch, "lane .{tld} diverged");
    }
}
