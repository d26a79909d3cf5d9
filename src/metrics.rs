//! Machine-readable metrics documents — one schema, two producers.
//!
//! `shamfinder serve-feed --metrics-json` and `shamfinder scan-zone
//! --metrics-json` both write a JSON ledger here. The shared sections
//! (`per_tld`, `exec`, `pool`) are built by the same helpers, so a
//! dashboard consuming one consumes the other; the top section differs
//! by workload (`events` + `feeds` + `robustness` for the streaming
//! ingest service, `scan` and the line stage's `stage` for the batch
//! scanner). The schema-pinning
//! test in this module is the contract: adding or renaming a field is
//! fine, silently dropping one is not.

use serde::Value;
use sham_core::scan::{ScanReport, TldScanStats};
use sham_core::{ExecStats, IngestReport, PoolStats, StageStats};
use std::collections::BTreeMap;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The `exec` section: how the detection batches were partitioned.
fn exec_value(exec: &ExecStats) -> Value {
    map(vec![
        ("batches", Value::U64(exec.batches)),
        ("inline_batches", Value::U64(exec.inline_batches)),
        ("shards", Value::U64(exec.shards)),
        ("min_shard_len", Value::U64(exec.min_shard_len as u64)),
        ("max_shard_len", Value::U64(exec.max_shard_len as u64)),
        ("max_workers", Value::U64(exec.max_workers as u64)),
    ])
}

/// The `stage` section: how the scanner's line stage cut its pushes
/// for the pool and what it re-ran at the seams.
fn stage_value(stage: &StageStats) -> Value {
    map(vec![
        ("pushes", Value::U64(stage.pushes)),
        ("split_pushes", Value::U64(stage.split_pushes)),
        ("shards", Value::U64(stage.shards)),
        ("shards_rerun", Value::U64(stage.shards_rerun)),
        ("lines_rerun", Value::U64(stage.lines_rerun)),
    ])
}

/// The `pool` section: worker-pool telemetry at report time.
fn pool_value(pool: &PoolStats) -> Value {
    map(vec![
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
    ])
}

/// One TLD's core counters — identical keys in both documents.
fn tld_core(domains: u64, idns: u64, detections: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("domains", Value::U64(domains)),
        ("idns", Value::U64(idns)),
        ("detections", Value::U64(detections)),
    ]
}

/// The `serve-feed` document: per-TLD counts, per-feed accounting, the
/// robustness counters and the scheduling/pool telemetry — everything
/// the console ledger prints, minus individual detections (counts only,
/// so the file stays small at zone scale).
pub fn ingest_metrics_json(
    report: &IngestReport,
    exec: &ExecStats,
    pool: &PoolStats,
) -> String {
    let per_tld = Value::Map(
        report
            .router
            .per_tld
            .iter()
            .map(|lane| {
                (
                    lane.tld.clone(),
                    map(tld_core(
                        lane.report.total_domains as u64,
                        lane.report.idn_count as u64,
                        lane.report.detections.len() as u64,
                    )),
                )
            })
            .collect(),
    );
    let feeds = Value::Seq(
        report
            .feeds
            .iter()
            .map(|feed| {
                map(vec![
                    ("name", Value::Str(feed.name.clone())),
                    ("registrations", Value::U64(feed.registrations)),
                    ("churns", Value::U64(feed.churns)),
                    ("quarantined", Value::U64(feed.quarantined)),
                    ("retries", Value::U64(feed.retries)),
                    ("outcome", Value::Str(format!("{:?}", feed.outcome))),
                ])
            })
            .collect(),
    );
    let doc = map(vec![
        (
            "events",
            map(vec![
                ("delivered", Value::U64(report.events_delivered())),
                ("accounted", Value::U64(report.events_accounted())),
                ("routed", Value::U64(report.router.total_domains() as u64)),
                ("unrouted", Value::U64(report.router.unrouted_domains as u64)),
                ("detections", Value::U64(report.router.detection_count() as u64)),
                ("reference_diffs", Value::U64(report.router.reference_diffs as u64)),
            ]),
        ),
        ("per_tld", per_tld),
        ("feeds", feeds),
        (
            "robustness",
            map(vec![
                ("shed", Value::U64(report.shed)),
                ("quarantined", Value::U64(report.quarantined)),
                ("lost", Value::U64(report.lost)),
                ("lane_panics", Value::U64(report.lane_panics)),
                ("lane_folds", Value::U64(report.lane_folds)),
            ]),
        ),
        ("exec", exec_value(exec)),
        ("pool", pool_value(pool)),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

/// The per-TLD rows of a scan, keyed on every TLD that is a scanner
/// label or a router lane: the scanner's counters and the lane's
/// `(domains, idns, detections)`, with zeros on the side that lacks
/// the TLD. The two differ when a file's `$ORIGIN` is not its label
/// (`zone.txt` holding `.com` owners).
pub fn scan_per_tld(report: &ScanReport) -> BTreeMap<&str, (TldScanStats, (u64, u64, u64))> {
    let mut rows: BTreeMap<&str, (TldScanStats, (u64, u64, u64))> = report
        .per_tld
        .iter()
        .map(|(tld, s)| (tld.as_str(), (*s, (0, 0, 0))))
        .collect();
    for lane in &report.router.per_tld {
        let r = &lane.report;
        rows.entry(lane.tld.as_str()).or_default().1 = (
            r.total_domains as u64,
            r.idn_count as u64,
            r.detections.len() as u64,
        );
    }
    rows
}

/// The `scan-zone` document: run totals with throughput, per-TLD
/// accounting merged with each lane's detection counts (see
/// [`scan_per_tld`]), the same `exec`/`pool` sections `serve-feed`
/// writes, and the line stage's `stage` section between them.
pub fn scan_metrics_json(report: &ScanReport, pool: &PoolStats) -> String {
    let totals = report.totals();
    let throughput = |records: u64, bytes: u64, secs: f64| {
        let (rps, mbps) = if secs > 0.0 {
            (records as f64 / secs, bytes as f64 / 1e6 / secs)
        } else {
            (0.0, 0.0)
        };
        (Value::F64(rps), Value::F64(mbps))
    };

    let per_tld = Value::Map(
        scan_per_tld(report)
            .into_iter()
            .map(|(tld, (s, (domains, idns, detections)))| {
                let (rps, mbps) = throughput(s.records, s.bytes, s.elapsed_secs);
                let mut entries = tld_core(domains, idns, detections);
                entries.extend(vec![
                    ("bytes", Value::U64(s.bytes)),
                    ("lines", Value::U64(s.lines)),
                    ("records", Value::U64(s.records)),
                    ("routed", Value::U64(s.routed)),
                    ("dedup_consecutive", Value::U64(s.dedup_consecutive)),
                    ("dedup_window", Value::U64(s.dedup_window)),
                    ("blacklisted", Value::U64(s.blacklisted)),
                    ("quarantined", Value::U64(s.quarantined)),
                    ("elapsed_secs", Value::F64(s.elapsed_secs)),
                    ("records_per_sec", rps),
                    ("mb_per_sec", mbps),
                ]);
                (tld.to_string(), map(entries))
            })
            .collect(),
    );

    let (rps, mbps) = throughput(totals.records, totals.bytes, totals.elapsed_secs);
    let doc = map(vec![
        (
            "scan",
            map(vec![
                ("files", Value::U64(report.files as u64)),
                ("bytes", Value::U64(totals.bytes)),
                ("lines", Value::U64(totals.lines)),
                ("records", Value::U64(totals.records)),
                ("parsed", Value::U64(totals.parsed())),
                ("routed", Value::U64(totals.routed)),
                ("dedup_consecutive", Value::U64(totals.dedup_consecutive)),
                ("dedup_window", Value::U64(totals.dedup_window)),
                ("blacklisted", Value::U64(totals.blacklisted)),
                ("quarantined", Value::U64(totals.quarantined)),
                ("detections", Value::U64(report.detection_count() as u64)),
                ("accounted", Value::Bool(report.verify_accounting().is_ok())),
                ("elapsed_secs", Value::F64(totals.elapsed_secs)),
                ("records_per_sec", rps),
                ("mb_per_sec", mbps),
            ]),
        ),
        ("per_tld", per_tld),
        ("exec", exec_value(&report.router.exec())),
        ("stage", stage_value(&report.stage)),
        ("pool", pool_value(pool)),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_core::ingest::{FeedOutcome, FeedReport};
    use sham_core::router::{RouterReport, TldReport};
    use sham_core::FrameworkReport;

    fn keys_of(value: &Value) -> Vec<&str> {
        match value {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
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

    fn empty_ingest_report() -> IngestReport {
        IngestReport {
            router: RouterReport::default(),
            feeds: vec![FeedReport {
                name: "f".into(),
                registrations: 0,
                churns: 0,
                quarantined: 0,
                retries: 0,
                outcome: FeedOutcome::Completed,
                last_error: None,
            }],
            lanes: Vec::new(),
            quarantine: Vec::new(),
            quarantined: 0,
            shed: 0,
            lost: 0,
            lane_panics: 0,
            lane_folds: 0,
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
        let json = ingest_metrics_json(
            &empty_ingest_report(),
            &ExecStats::default(),
            &PoolStats::default(),
        );
        let doc: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            keys_of(&doc),
            vec!["events", "per_tld", "feeds", "robustness", "exec", "pool"]
        );
        assert_eq!(
            keys_of(section(&doc, "events")),
            vec!["delivered", "accounted", "routed", "unrouted", "detections", "reference_diffs"]
        );
        assert_eq!(
            keys_of(section(&doc, "robustness")),
            vec!["shed", "quarantined", "lost", "lane_panics", "lane_folds"]
        );
        assert_eq!(keys_of(section(&doc, "exec")), EXEC_KEYS.to_vec());
        assert_eq!(keys_of(section(&doc, "pool")), POOL_KEYS.to_vec());
        match section(&doc, "feeds") {
            Value::Seq(feeds) => assert_eq!(
                keys_of(&feeds[0]),
                vec!["name", "registrations", "churns", "quarantined", "retries", "outcome"]
            ),
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
                "files",
                "bytes",
                "lines",
                "records",
                "parsed",
                "routed",
                "dedup_consecutive",
                "dedup_window",
                "blacklisted",
                "quarantined",
                "detections",
                "accounted",
                "elapsed_secs",
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
                "shards_rerun",
                "lines_rerun"
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
