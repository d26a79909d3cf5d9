//! scan-zone ≡ batch replay: the chunked, overlapped-I/O [`ZoneScanner`]
//! over a generated multi-TLD zone must be *detection-identical* to an
//! unchunked line-by-line replay through [`ZoneStreamParser::scan_line`]
//! plus the same dedup/blacklist pre-stage feeding a plain
//! [`SessionRouter`] — same router report, same per-TLD accounting,
//! same quarantined-line samples — at every chunk size and thread
//! count, including chunks large enough to be parsed in line shards on
//! the worker pool. Truncating the input at an
//! arbitrary byte offset or corrupting a byte mid-stream must never
//! panic and must keep the `records_accounted` books closed (and the
//! two models still agree on the damaged input). The ingest service
//! over a [`ZoneTextFeed`] must agree with the scanner on the same
//! bytes, transport faults included.

use proptest::prelude::*;
use shamfinder::core::scan::{DEFAULT_DEDUP_WINDOW, MAX_LINE_BYTES};
use shamfinder::core::{
    Backpressure, DetectionIndex, FeedOutcome, IngestConfig, IngestService, RetryPolicy,
    RouterReport, ScanConfig, SessionRouter, TldScanStats, ZoneScanner, ZoneTextFeed,
};
use shamfinder::dns::zone::{ZoneScan, ZoneStreamParser};
use shamfinder::web::Blacklist;
use shamfinder::workload::{
    reference_list, write_synthetic_zone, Fault, FaultSchedule, FaultyReader, ZoneGenConfig,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Reference stems shared by the generator and the detection index, so
/// the planted Cyrillic lookalikes are actually detectable.
const REFERENCE_SIZE: usize = 60;

/// One shared index for every case — the SimChar build is the expensive
/// part and the index is immutable.
fn index() -> &'static Arc<DetectionIndex> {
    static INDEX: OnceLock<Arc<DetectionIndex>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let font = shamfinder::glyph::SynthUnifont::v12();
        let result = shamfinder::simchar::build(
            &font,
            &shamfinder::simchar::BuildConfig {
                repertoire: shamfinder::simchar::Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Cyrillic",
                ]),
                ..shamfinder::simchar::BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            shamfinder::simchar::HomoglyphDb::new(
                result.db,
                shamfinder::confusables::UcDatabase::embedded(),
            ),
            reference_list(REFERENCE_SIZE),
        )
    })
}

fn gen_zone(tld: &str, seed: u64, target_bytes: u64, homographs: u32, malformed: u32) -> Vec<u8> {
    let cfg = ZoneGenConfig {
        tld: tld.to_string(),
        target_bytes,
        target_records: 0,
        homograph_permille: homographs,
        reference_size: REFERENCE_SIZE,
        malformed_permille: malformed,
        seed,
    };
    let mut buf = Vec::new();
    write_synthetic_zone(&mut buf, &cfg).expect("Vec<u8> writes cannot fail");
    buf
}

/// The lines the scanner's chunk splitter yields for `data`: split on
/// `\n`, no phantom empty line after a trailing newline, a final
/// unterminated line still counts.
fn byte_lines(data: &[u8]) -> Vec<&[u8]> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    if data.last() == Some(&b'\n') {
        lines.pop();
    }
    lines
}

/// Quarantined-line samples the scanner keeps.
const QUARANTINE_SAMPLES: usize = 8;

/// The reference model: one unchunked, single-threaded-I/O pass per
/// file through `scan_line` with the identical dedup-window, blacklist
/// and accounting rules, feeding the router domain by domain. The
/// dedup window is keyed by the owner *string* (not its hash), pinning
/// the intended semantics of the scanner's hash window. A line longer
/// than [`MAX_LINE_BYTES`] is quarantined unread, like a non-UTF-8 one.
/// Returns the first quarantined lines as the scanner words them too.
fn replay(
    inputs: &[(&str, &[u8])],
    dedup_window: usize,
    blacklists: &[Blacklist],
) -> (RouterReport, BTreeMap<String, TldScanStats>, Vec<String>) {
    let mut router = SessionRouter::new(Arc::clone(index())).with_batch_capacity(97);
    let mut per_tld: BTreeMap<String, TldScanStats> = BTreeMap::new();
    let mut window: VecDeque<String> = VecDeque::new();
    let mut window_set: HashSet<String> = HashSet::new();
    let mut samples = Vec::new();
    let quarantine = |samples: &mut Vec<String>, line: usize, message: &str| {
        if samples.len() < QUARANTINE_SAMPLES {
            samples.push(format!("line {line}: {message}"));
        }
    };

    for (tld, data) in inputs {
        let stats = per_tld.entry(tld.to_string()).or_default();
        stats.bytes += data.len() as u64;
        let mut parser = ZoneStreamParser::new(tld);
        for raw in byte_lines(data) {
            stats.lines += 1;
            let unread = if raw.len() > MAX_LINE_BYTES {
                Some(format!("line longer than {MAX_LINE_BYTES} bytes"))
            } else {
                None
            };
            let raw = match raw.split_last() {
                Some((b'\r', head)) => head,
                _ => raw,
            };
            let text = match (unread, std::str::from_utf8(raw)) {
                (None, Ok(t)) => t,
                (unread, _) => {
                    stats.quarantined += 1;
                    let _ = parser.scan_line("");
                    let message = unread.unwrap_or_else(|| "invalid UTF-8".to_string());
                    quarantine(&mut samples, parser.lines_seen(), &message);
                    continue;
                }
            };
            match parser.scan_line(text) {
                Ok(ZoneScan::Skip) => {}
                Err(error) => {
                    stats.quarantined += 1;
                    quarantine(&mut samples, error.line, &error.message);
                }
                Ok(ZoneScan::Record { owner, new_owner }) => {
                    stats.records += 1;
                    if !new_owner {
                        stats.dedup_consecutive += 1;
                        continue;
                    }
                    if dedup_window > 0 {
                        let key = owner.as_ascii().to_string();
                        if window_set.contains(&key) {
                            stats.dedup_window += 1;
                            continue;
                        }
                        if window.len() >= dedup_window {
                            if let Some(old) = window.pop_front() {
                                window_set.remove(&old);
                            }
                        }
                        window_set.insert(key.clone());
                        window.push_back(key);
                    }
                    if blacklists.iter().any(|bl| bl.contains_suffix(owner.as_ascii())) {
                        stats.blacklisted += 1;
                        continue;
                    }
                    stats.routed += 1;
                    router.push_domains(std::iter::once(owner));
                }
            }
        }
    }
    (router.into_report(), per_tld, samples)
}

/// Runs the real scanner over the same inputs.
fn scan(
    inputs: &[(&str, &[u8])],
    chunk_bytes: usize,
    dedup_window: usize,
    blacklists: Vec<Blacklist>,
) -> shamfinder::core::ScanReport {
    let config = ScanConfig {
        chunk_bytes,
        dedup_window,
        blacklists,
        batch_capacity: 256,
    };
    let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(index())), config);
    for (tld, data) in inputs {
        scanner
            .scan_reader(tld, *data)
            .expect("in-memory readers cannot fail I/O");
    }
    scanner.finish()
}

/// Full-fidelity comparison: router reports equal, every per-TLD
/// counter equal (elapsed time excepted), the same quarantined-line
/// samples, books closed on both sides.
fn assert_equivalent(
    report: &shamfinder::core::ScanReport,
    (expected_router, expected_tld, expected_samples): &(
        RouterReport,
        BTreeMap<String, TldScanStats>,
        Vec<String>,
    ),
    context: &str,
) {
    report
        .verify_accounting()
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(&report.router, expected_router, "{context}: detections diverged");
    assert_eq!(
        &report.quarantine_samples, expected_samples,
        "{context}: quarantine samples diverged"
    );
    assert_eq!(
        report.per_tld.len(),
        expected_tld.len(),
        "{context}: TLD sets diverged"
    );
    for (tld, want) in expected_tld {
        let mut got = report.per_tld[tld];
        got.elapsed_secs = 0.0;
        assert!(
            want.is_accounted(),
            "{context}: replay books don't close for .{tld}"
        );
        assert_eq!(&got, want, "{context}: .{tld} accounting diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generator shape (lookalike/malformed rates, seed), any chunk
    /// size, any dedup-window length, with and without a TLD-wide
    /// blacklist: the chunked scanner and the unchunked replay agree
    /// exactly on a two-TLD feed.
    #[test]
    fn scanner_matches_unchunked_replay(
        seed in any::<u64>(),
        homographs in 10u32..80,
        malformed in 0u32..30,
        chunk in 4096usize..20_000,
        window in 0usize..96,
        blacklist_net in 0u8..2,
    ) {
        let com = gen_zone("com", seed, 24 << 10, homographs, malformed);
        let net = gen_zone("net", seed ^ 0x9E37_79B9, 16 << 10, homographs, malformed);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

        let mut blacklists = Vec::new();
        if blacklist_net == 1 {
            let mut bl = Blacklist::new("tld-wide");
            bl.add("net");
            blacklists.push(bl);
        }

        let want = replay(&inputs, window, &blacklists);
        let report = scan(&inputs, chunk, window, blacklists);
        assert_equivalent(&report, &want, "generated feed");

        if blacklist_net == 1 {
            let net_stats = &report.per_tld["net"];
            prop_assert_eq!(net_stats.routed, 0, "TLD-wide blacklist leaked");
            prop_assert!(net_stats.blacklisted > 0);
        }
    }
}

/// A fixed damaged-input corpus base; generated once.
fn damage_base() -> &'static Vec<u8> {
    static BASE: OnceLock<Vec<u8>> = OnceLock::new();
    BASE.get_or_init(|| gen_zone("com", 0xDA11A6ED, 48 << 10, 40, 8))
}

/// `base` truncated at `cut`, then damaged at `at` (modulo the
/// length): a high-bit flip (often invalid UTF-8), a zero byte, an
/// injected newline that reshapes line structure, or nothing.
fn damage(base: &[u8], cut: usize, at: usize, mode: u8) -> Vec<u8> {
    let mut data = base[..cut.min(base.len())].to_vec();
    if !data.is_empty() {
        let at = at % data.len();
        match mode {
            0 => data[at] ^= 0x80,
            1 => data[at] = 0x00,
            2 => data[at] = b'\n',
            _ => {}
        }
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating at an arbitrary byte offset and corrupting a byte at
    /// an arbitrary position (high-bit flip → invalid UTF-8, zero byte,
    /// or an injected newline that reshapes line structure) never
    /// panics, keeps the books closed, and the two models still agree
    /// on the damaged bytes.
    #[test]
    fn truncation_and_corruption_keep_the_books(
        cut in 0usize..(48 << 10),
        flip_at in any::<usize>(),
        flip_mode in 0u8..4,
        chunk in 4096usize..9_000,
    ) {
        let data = damage(damage_base(), cut, flip_at, flip_mode);
        let inputs: Vec<(&str, &[u8])> = vec![("com", &data)];
        let want = replay(&inputs, 64, &[]);
        let report = scan(&inputs, chunk, 64, Vec::new());
        assert_equivalent(&report, &want, "damaged feed");
    }
}

/// A Stall/Disconnect schedule over the first `reads` read calls,
/// one bit of `bits` per call deciding whether it faults and the next
/// deciding which fault.
fn transport_faults(bits: u64, reads: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    for ordinal in 0..reads.min(32) {
        if bits >> (2 * ordinal) & 1 == 1 {
            let fault = if bits >> (2 * ordinal + 1) & 1 == 1 {
                Fault::Stall
            } else {
                Fault::Disconnect
            };
            schedule = schedule.with_fault(ordinal, fault);
        }
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One zone-text front-end: `serve-feed --zone` (an `IngestService`
    /// over a `ZoneTextFeed` behind transport stalls and disconnects)
    /// and `scan-zone` (a `ZoneScanner`) give the same bytes the same
    /// router report, register exactly the owners the scanner routes
    /// and quarantine the same lines — on generated zones of any shape,
    /// truncated or damaged anywhere.
    #[test]
    fn zone_feed_matches_the_scanner(
        seed in any::<u64>(),
        homographs in 10u32..120,
        malformed in 0u32..40,
        cut in 0usize..(32 << 10),
        damage_at in any::<usize>(),
        damage_mode in 0u8..4,
        fault_bits in any::<u64>(),
    ) {
        let base = gen_zone("com", seed, 32 << 10, homographs, malformed);
        let data = damage(&base, cut, damage_at, damage_mode);
        let scanned = scan(&[("com", &data)], 4096, DEFAULT_DEDUP_WINDOW, Vec::new());
        let stats = scanned.per_tld["com"];

        // The feed reads 4 KiB per call, plus the final empty read.
        let reads = data.len().div_ceil(4096) as u64 + 1;
        let schedule = transport_faults(fault_bits, reads);
        let faults = schedule.faults.len() as u64;
        let reader = FaultyReader::new(std::io::Cursor::new(data), schedule);
        let service = IngestService::new(Arc::clone(index()), IngestConfig {
            backpressure: Backpressure::Block,
            retry: RetryPolicy { base: Duration::ZERO, ..RetryPolicy::default() },
            tlds: None,
            ..IngestConfig::default()
        });
        let fed = service.run(vec![Box::new(ZoneTextFeed::new("zone", "com", reader))]);

        prop_assert_eq!(&fed.router, &scanned.router, "router reports diverged");
        let feed = &fed.feeds[0];
        prop_assert_eq!(feed.outcome, FeedOutcome::Completed);
        prop_assert_eq!(feed.retries, faults, "every transport fault is retried once");
        prop_assert_eq!(feed.registrations, stats.routed);
        prop_assert_eq!(feed.quarantined, stats.quarantined);
        prop_assert_eq!(fed.quarantined, stats.quarantined);
        prop_assert_eq!(fed.events_accounted(), fed.events_delivered());
    }
}

/// The scanner's fault semantics are the feed's opposite: a transport
/// error aborts the file with `Err`, and the lines already scanned stay
/// accounted.
#[test]
fn transport_faults_abort_the_scan_with_the_books_closed() {
    let data = damage_base();
    for fault in [Fault::Stall, Fault::Disconnect] {
        let config = ScanConfig {
            chunk_bytes: 4096,
            ..ScanConfig::default()
        };
        let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(index())), config);
        let reader = FaultyReader::new(&data[..], FaultSchedule::none().with_fault(3, fault));
        assert!(
            scanner.scan_reader("com", reader).is_err(),
            "{fault:?} did not abort"
        );
        let report = scanner.finish();
        report.verify_accounting().unwrap();
        let com = report.per_tld["com"];
        assert_eq!(
            com.bytes,
            3 * 4096,
            "{fault:?}: the three chunks before it count"
        );
        assert!(com.routed > 0, "{fault:?}: the scanned lines were routed");
    }
}

/// Serialises the tests that force a worker count: the override is
/// process-wide, and the line stage's split decisions depend on it.
fn thread_override_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The acceptance-criterion configuration, pinned exactly: a two-TLD
/// generated feed with planted lookalikes scans to the same report at
/// 1 and N worker threads, both equal to the unchunked replay, and the
/// lookalikes are actually detected.
#[test]
fn scan_is_thread_count_invariant_and_detects_plants() {
    let _serial = thread_override_lock();
    let com = gen_zone("com", 11, 128 << 10, 50, 5);
    let net = gen_zone("net", 12, 64 << 10, 50, 5);
    let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];

    let want = {
        let _one = rayon::ThreadOverride::new(1);
        replay(&inputs, DEFAULT_DEDUP_WINDOW, &[])
    };
    assert!(
        want.0.detection_count() > 0,
        "generated corpus must be detection-rich"
    );

    let hardware = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    for threads in [1usize, hardware] {
        let _forced = rayon::ThreadOverride::new(threads);
        let report = scan(&inputs, 1 << 16, DEFAULT_DEDUP_WINDOW, Vec::new());
        assert_equivalent(&report, &want, &format!("{threads} thread(s)"));
    }
}

/// Chunks that split: a two-TLD input of over 2 MiB at the default
/// 1 MiB chunk is cut into line shards, claimed by the calling thread
/// and the pool from both ends, at 2 and 4 threads and parsed inline at
/// 1, and every thread count gives the replay's report, accounting and
/// quarantine samples. The `com` file is two generated zones back to
/// back, so it repeats its `$ORIGIN`/`$TTL` header mid-file, and that
/// header and the first malformed lines fall in the second chunk's
/// shards, on whichever side claims them.
#[test]
fn split_chunks_match_the_replay_at_1_2_and_4_threads() {
    let _serial = thread_override_lock();
    let mut com = gen_zone("com", 21, 1792 << 10, 40, 0);
    let clean_lines = com.iter().filter(|&&b| b == b'\n').count();
    com.extend(gen_zone("com", 23, 512 << 10, 40, 8));
    let net = gen_zone("net", 22, 640 << 10, 40, 6);
    assert!(com.len() + net.len() >= 2 << 20);
    let inputs: Vec<(&str, &[u8])> = vec![("com", &com), ("net", &net)];
    let want = replay(&inputs, DEFAULT_DEDUP_WINDOW, &[]);
    assert!(want.0.detection_count() > 0);
    let first = want.2[0]
        .strip_prefix("line ")
        .and_then(|s| s.split(':').next());
    let first: usize = first
        .and_then(|line| line.parse().ok())
        .expect("a numbered sample");
    assert!(first > clean_lines, "{:?}", want.2);

    let chunk = ScanConfig::default().chunk_bytes;
    for threads in [1usize, 2, 4] {
        let _forced = rayon::ThreadOverride::new(threads);
        let report = scan(&inputs, chunk, DEFAULT_DEDUP_WINDOW, Vec::new());
        assert_equivalent(&report, &want, &format!("{threads} thread(s)"));
        let stage = report.stage;
        if threads == 1 {
            assert_eq!(stage.split_pushes, 0, "{stage:?}");
        } else {
            // The three chunks of com and the one of net split, and
            // each forked shard re-runs about one line at its seam.
            assert_eq!(stage.split_pushes, 4, "{stage:?}");
            assert_eq!(stage.shards_rerun, 0, "{stage:?}");
            assert!(stage.shards_forked <= stage.shards, "{stage:?}");
            assert!(stage.lines_rerun <= 2 * stage.shards, "{stage:?}");
        }
    }
}

/// An empty input file closes its books trivially and produces an
/// all-zero ledger rather than a missing or phantom entry.
#[test]
fn empty_file_accounts_to_zero()  {
    let inputs: Vec<(&str, &[u8])> = vec![("org", b"")];
    let want = replay(&inputs, 16, &[]);
    let report = scan(&inputs, 4096, 16, Vec::new());
    assert_equivalent(&report, &want, "empty file");
    let mut org = report.per_tld["org"];
    org.elapsed_secs = 0.0;
    assert_eq!(org, TldScanStats::default());
    assert_eq!(report.files, 1);
}
