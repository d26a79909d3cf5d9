//! Machine-readable metrics documents — one schema, two producers.
//!
//! `shamfinder serve-feed --metrics-json` and `shamfinder scan-zone
//! --metrics-json` both write a JSON ledger here. Each section is a
//! report type's derived serialization followed only by the figures
//! computed from it: `exec` is [`ExecStats`](sham_core::ExecStats),
//! the scanner's `stage` is [`StageStats`](sham_core::StageStats),
//! each `feeds` entry is a [`FeedReport`](sham_core::ingest::FeedReport)
//! (`last_error` included), and a scan's `scan` totals and `per_tld`
//! rows are [`TldScanStats`] plus their `records_per_sec` and
//! `mb_per_sec` (the totals also add `files`, `parsed`, `detections`
//! and `accounted`, after `elapsed_secs`). Every `per_tld` row of both
//! documents opens with a [`TldCounts`]. Only the top level and the
//! sections no report type stands behind (`events`, `robustness`, and
//! `pool`, whose `PoolStats` does not derive `Serialize`) are built by
//! hand, and `per_tld` is built as an object because the vendored
//! serde writes every map as `[key, value]` pairs. The schema-pinning
//! tests in this module are the contract: adding or renaming a field
//! is fine, silently dropping one is not.

use serde::{Serialize, Value};
use sham_core::scan::{ScanReport, TldScanStats};
use sham_core::{FrameworkReport, IngestReport, PoolStats};
use std::collections::BTreeMap;

/// One TLD's detection counts: the row each `per_tld` entry of both
/// documents, and each row of both commands' console tables, opens with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TldCounts {
    /// Domains the TLD's lane inspected.
    pub domains: u64,
    /// IDNs among them.
    pub idns: u64,
    /// Homographs detected among them.
    pub detections: u64,
}

impl TldCounts {
    /// The counts of one lane's report.
    pub fn of(report: &FrameworkReport) -> TldCounts {
        TldCounts {
            domains: report.total_domains as u64,
            idns: report.idn_count as u64,
            detections: report.detections.len() as u64,
        }
    }
}

/// An object: the fields of each derived part in turn, then the
/// figures computed from them.
fn object<'a>(
    parts: &[&dyn Serialize],
    figures: impl IntoIterator<Item = (&'a str, Value)>,
) -> Value {
    let mut entries = Vec::new();
    for part in parts {
        match part.serialize() {
            Value::Map(fields) => entries.extend(fields),
            other => unreachable!("a report type serializes to an object, not {other:?}"),
        }
    }
    entries.extend(figures.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Map(entries)
}

/// The `pool` section: worker-pool telemetry at report time.
fn pool_value(pool: &PoolStats) -> Value {
    object(
        &[],
        [
            ("workers", Value::U64(pool.workers as u64)),
            ("busy_workers", Value::U64(pool.busy_workers as u64)),
            ("queue_depth", Value::U64(pool.queue_depth as u64)),
            ("jobs_submitted", Value::U64(pool.jobs_submitted)),
            ("jobs_dequeued", Value::U64(pool.jobs_dequeued)),
            ("jobs_executed", Value::U64(pool.jobs_executed)),
            ("jobs_discarded", Value::U64(pool.jobs_discarded)),
            ("jobs_panicked", Value::U64(pool.jobs_panicked)),
            ("busy_nanos", Value::U64(pool.busy_nanos)),
            ("parked_nanos", Value::U64(pool.parked_nanos)),
            ("occupancy", Value::F64(pool.occupancy())),
        ],
    )
}

/// The throughput figures of a scan row or of the scan's totals.
fn throughput(stats: &TldScanStats) -> [(&'static str, Value); 2] {
    [
        ("records_per_sec", Value::F64(stats.records_per_sec())),
        ("mb_per_sec", Value::F64(stats.mb_per_sec())),
    ]
}

/// The `serve-feed` document: per-TLD counts, per-feed accounting, the
/// robustness counters and the scheduling/pool telemetry — everything
/// the console ledger prints, minus individual detections (counts only,
/// so the file stays small at zone scale).
pub fn ingest_metrics_json(report: &IngestReport, pool: &PoolStats) -> String {
    let router = &report.router;
    let per_tld = Value::Map(
        router
            .per_tld
            .iter()
            .map(|lane| (lane.tld.clone(), TldCounts::of(&lane.report).serialize()))
            .collect(),
    );
    let events = [
        ("delivered", Value::U64(report.events_delivered())),
        ("accounted", Value::U64(report.events_accounted())),
        ("routed", Value::U64(router.total_domains() as u64)),
        ("unrouted", Value::U64(router.unrouted_domains as u64)),
        ("detections", Value::U64(router.detection_count() as u64)),
        ("reference_diffs", Value::U64(router.reference_diffs as u64)),
    ];
    let robustness = [
        ("shed", Value::U64(report.shed)),
        ("quarantined", Value::U64(report.quarantined)),
        ("lost", Value::U64(report.lost)),
        ("lane_panics", Value::U64(report.lane_panics)),
        ("lane_folds", Value::U64(report.lane_folds)),
    ];
    let doc = object(
        &[],
        [
            ("events", object(&[], events)),
            ("per_tld", per_tld),
            ("feeds", report.feeds.serialize()),
            ("robustness", object(&[], robustness)),
            ("exec", report.exec().serialize()),
            ("pool", pool_value(pool)),
        ],
    );
    serde_json::to_string(&doc).unwrap_or_default()
}

/// The per-TLD rows of a scan, keyed on every TLD that is a scanner
/// label or a router lane: the lane's counts and the scanner's
/// counters, with zeros on the side that lacks the TLD. The two differ
/// when a file's `$ORIGIN` is not its label (`zone.txt` holding `.com`
/// owners).
pub fn scan_per_tld(report: &ScanReport) -> BTreeMap<&str, (TldCounts, TldScanStats)> {
    let mut rows: BTreeMap<&str, (TldCounts, TldScanStats)> = report
        .per_tld
        .iter()
        .map(|(tld, stats)| (tld.as_str(), (TldCounts::default(), *stats)))
        .collect();
    for lane in &report.router.per_tld {
        rows.entry(lane.tld.as_str()).or_default().0 = TldCounts::of(&lane.report);
    }
    rows
}

/// The `scan-zone` document: run totals with throughput, per-TLD
/// accounting merged with each lane's detection counts (see
/// [`scan_per_tld`]), the same `exec`/`pool` sections `serve-feed`
/// writes, and the line stage's `stage` section between them.
pub fn scan_metrics_json(report: &ScanReport, pool: &PoolStats) -> String {
    let totals = report.totals();
    let per_tld = Value::Map(
        scan_per_tld(report)
            .into_iter()
            .map(|(tld, (counts, stats))| {
                (tld.to_string(), object(&[&counts, &stats], throughput(&stats)))
            })
            .collect(),
    );
    let figures = [
        ("files", Value::U64(report.files as u64)),
        ("parsed", Value::U64(totals.parsed())),
        ("detections", Value::U64(report.detection_count() as u64)),
        ("accounted", Value::Bool(report.verify_accounting().is_ok())),
    ];
    let doc = object(
        &[],
        [
            ("scan", object(&[&totals], figures.into_iter().chain(throughput(&totals)))),
            ("per_tld", per_tld),
            ("exec", report.router.exec().serialize()),
            ("stage", report.stage.serialize()),
            ("pool", pool_value(pool)),
        ],
    );
    serde_json::to_string(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_core::ingest::{FeedOutcome, FeedReport};
    use sham_core::router::{RouterReport, TldReport};
    use sham_core::{Detection, ExecStats, RefName, StageStats};

    fn keys_of(value: &Value) -> Vec<&str> {
        match value {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    /// The values of an object whose every entry is a count, in order.
    fn counts_of(value: &Value) -> Vec<u64> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| match v {
                    Value::U64(n) => *n,
                    other => panic!("{k} should be a count, got {other:?}"),
                })
                .collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn section<'a>(doc: &'a Value, name: &str) -> &'a Value {
        match doc {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing section {name:?}")),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    const EXEC_KEYS: [&str; 6] = [
        "batches",
        "inline_batches",
        "shards",
        "min_shard_len",
        "max_shard_len",
        "max_workers",
    ];
    const POOL_KEYS: [&str; 11] = [
        "workers",
        "busy_workers",
        "queue_depth",
        "jobs_submitted",
        "jobs_dequeued",
        "jobs_executed",
        "jobs_discarded",
        "jobs_panicked",
        "busy_nanos",
        "parked_nanos",
        "occupancy",
    ];

    /// One `com` lane (7 domains, 3 IDNs, 2 detections) behind 5
    /// unrouted domains, and one feed whose 23 registrations are the
    /// 12 routed plus 10 shed and 1 lost: no two counters share a value
    /// unless the report's arithmetic makes them equal.
    fn ingest_report() -> IngestReport {
        let detection = |stem: &str| Detection {
            idn_unicode: stem.to_string(),
            idn_ascii: format!("{stem}.com"),
            reference: RefName::new("google"),
            substitutions: Vec::new(),
        };
        let lane = TldReport {
            tld: "com".to_string(),
            report: FrameworkReport {
                total_domains: 7,
                idn_count: 3,
                detections: vec![detection("gооgle"), detection("goog1e")],
                exec: ExecStats {
                    batches: 4,
                    inline_batches: 1,
                    shards: 9,
                    min_shard_len: 2,
                    max_shard_len: 8,
                    max_workers: 2,
                },
            },
        };
        IngestReport {
            router: RouterReport { per_tld: vec![lane], unrouted_domains: 5, reference_diffs: 6 },
            feeds: vec![FeedReport {
                name: "f".into(),
                registrations: 23,
                churns: 6,
                quarantined: 4,
                retries: 2,
                outcome: FeedOutcome::Completed,
                last_error: None,
            }],
            lanes: Vec::new(),
            quarantine: Vec::new(),
            quarantined: 4,
            shed: 10,
            lost: 1,
            lane_panics: 3,
            lane_folds: 8,
        }
    }

    fn empty_scan_report() -> ScanReport {
        let mut per_tld = BTreeMap::new();
        per_tld.insert("com".to_string(), TldScanStats::default());
        ScanReport {
            router: RouterReport::default(),
            per_tld,
            quarantine_samples: Vec::new(),
            files: 1,
            stage: StageStats::default(),
        }
    }

    #[test]
    fn ingest_schema_is_pinned() {
        let json = ingest_metrics_json(&ingest_report(), &PoolStats::default());
        let doc: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            keys_of(&doc),
            vec!["events", "per_tld", "feeds", "robustness", "exec", "pool"]
        );
        let events = section(&doc, "events");
        assert_eq!(
            keys_of(events),
            vec!["delivered", "accounted", "routed", "unrouted", "detections", "reference_diffs"]
        );
        assert_eq!(counts_of(events), [23, 23, 12, 5, 2, 6]);
        let robustness = section(&doc, "robustness");
        assert_eq!(
            keys_of(robustness),
            vec!["shed", "quarantined", "lost", "lane_panics", "lane_folds"]
        );
        assert_eq!(counts_of(robustness), [10, 4, 1, 3, 8]);
        let exec = section(&doc, "exec");
        assert_eq!(keys_of(exec), EXEC_KEYS.to_vec());
        assert_eq!(counts_of(exec), [4, 1, 9, 2, 8, 2]);
        assert_eq!(keys_of(section(&doc, "pool")), POOL_KEYS.to_vec());
        // `per_tld` is an object keyed by TLD, never `[key, value]` pairs.
        let per_tld = section(&doc, "per_tld");
        assert_eq!(keys_of(per_tld), vec!["com"]);
        let com = section(per_tld, "com");
        assert_eq!(keys_of(com), vec!["domains", "idns", "detections"]);
        assert_eq!(counts_of(com), [7, 3, 2]);
        match section(&doc, "feeds") {
            Value::Seq(feeds) => {
                assert_eq!(
                    keys_of(&feeds[0]),
                    vec![
                        "name",
                        "registrations",
                        "churns",
                        "quarantined",
                        "retries",
                        "outcome",
                        "last_error"
                    ]
                );
                assert_eq!(section(&feeds[0], "outcome"), &Value::Str("Completed".into()));
                assert_eq!(section(&feeds[0], "last_error"), &Value::Null);
            }
            other => panic!("feeds should be a sequence, got {other:?}"),
        }
    }

    #[test]
    fn scan_schema_is_pinned_and_shares_sections() {
        let json = scan_metrics_json(&empty_scan_report(), &PoolStats::default());
        let doc: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            keys_of(&doc),
            vec!["scan", "per_tld", "exec", "stage", "pool"]
        );
        assert_eq!(
            keys_of(section(&doc, "scan")),
            vec![
                "bytes",
                "lines",
                "records",
                "routed",
                "dedup_consecutive",
                "dedup_window",
                "blacklisted",
                "quarantined",
                "elapsed_secs",
                "files",
                "parsed",
                "detections",
                "accounted",
                "records_per_sec",
                "mb_per_sec",
            ]
        );
        // The shared sections carry the exact serve-feed key sets.
        assert_eq!(keys_of(section(&doc, "exec")), EXEC_KEYS.to_vec());
        assert_eq!(keys_of(section(&doc, "pool")), POOL_KEYS.to_vec());
        assert_eq!(
            keys_of(section(&doc, "stage")),
            vec![
                "pushes",
                "split_pushes",
                "shards",
                "shards_forked",
                "shards_rerun",
                "lines_rerun",
                "front_ns",
                "fork_ns",
                "wait_ns",
                "merge_ns"
            ]
        );
        // A scan per-TLD entry embeds the serve-feed core triple first.
        let com = section(section(&doc, "per_tld"), "com");
        let keys = keys_of(com);
        assert_eq!(&keys[..3], &["domains", "idns", "detections"]);
        assert_eq!(
            &keys[3..],
            &[
                "bytes",
                "lines",
                "records",
                "routed",
                "dedup_consecutive",
                "dedup_window",
                "blacklisted",
                "quarantined",
                "elapsed_secs",
                "records_per_sec",
                "mb_per_sec",
            ]
        );
    }

    #[test]
    fn scan_per_tld_keys_on_labels_and_lanes() {
        // `zone.txt` scanned as `.zone` whose `$ORIGIN com.` sends every
        // owner to the `com` lane.
        let mut report = empty_scan_report();
        let mut zone = report.per_tld.remove("com").unwrap();
        zone.lines = 4;
        report.per_tld.insert("zone".to_string(), zone);
        report.router.per_tld.push(TldReport {
            tld: "com".to_string(),
            report: FrameworkReport {
                total_domains: 2,
                idn_count: 1,
                ..FrameworkReport::default()
            },
        });
        let json = scan_metrics_json(&report, &PoolStats::default());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let per_tld = section(&doc, "per_tld");
        assert_eq!(keys_of(per_tld), vec!["com", "zone"]);
        let field = |tld: &str, key: &str| match section(section(per_tld, tld), key) {
            Value::U64(v) => *v,
            other => panic!("{tld}.{key} should be a count, got {other:?}"),
        };
        assert_eq!((field("com", "domains"), field("com", "idns")), (2, 1));
        assert_eq!((field("com", "lines"), field("zone", "lines")), (0, 4));
        assert_eq!(field("zone", "domains"), 0);
        // Same key set on both sides.
        assert_eq!(
            keys_of(section(per_tld, "com")),
            keys_of(section(per_tld, "zone"))
        );
    }
}
