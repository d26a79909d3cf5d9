//! The system under test, built the way the CLI builds it, and one
//! end-to-end pass of each workload with its output check.

use crate::fixtures::{Fixture, WorkloadKind, ZoneFile, CHURN_EVERY, CHURN_SIZE, REFERENCE_SIZE};
use sham_confusables::UcDatabase;
use sham_core::{
    Backpressure, DetectionIndex, DetectorSession, ExecStats, FeedError, FeedItem, FeedOutcome,
    FeedSource, FlushHook, IngestConfig, IngestEvent, IngestReport, IngestService, RouterReport,
    ScanConfig, ScanReport, SessionRouter, ZoneScanner, ZoneTextFeed,
};
use sham_glyph::SynthUnifont;
use sham_simchar::{build, BuildConfig, HomoglyphDb};
use sham_web::Blacklist;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SimChar threshold the CLI builds with.
pub const THETA: u32 = 4;

/// Router and drainer batch size (the CLI's `--batch` default).
pub const BATCH: usize = 1_024;

/// The TLD lanes `serve-feed` opens by default.
pub const INGEST_TLDS: [&str; 3] = ["com", "net", "org"];

/// Builds the detection index exactly as `shamfinder scan-zone` and
/// `serve-feed` do: SimChar at θ = 4, the embedded UC database, the
/// default 10k reference list.
pub fn build_index() -> Arc<DetectionIndex> {
    let font = SynthUnifont::v12();
    let result = build(
        &font,
        &BuildConfig {
            theta: THETA,
            ..BuildConfig::default()
        },
    );
    let db = HomoglyphDb::new(result.db, UcDatabase::embedded());
    DetectionIndex::shared(db, sham_workload::reference_list(REFERENCE_SIZE))
}

/// A detection as the output check compares it: `(ACE name, reference)`.
pub type DetectionKey = (String, String);

/// What one pass produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Distinct detections of a scan.
    Detections(BTreeSet<DetectionKey>),
    /// The ingest run's full router report.
    Router(RouterReport),
}

/// One timed pass.
pub struct Pass {
    pub wall: Duration,
    /// Well-formed zone records the pass consumed.
    pub records: u64,
    pub bytes: u64,
    /// The pass's own invariant check (accounting identities).
    pub check: Result<(), String>,
    pub output: Output,
    /// What the detection scheduler chose, and over how many IDNs.
    pub exec: ExecStats,
    pub idns: u64,
}

/// A workload's pipeline, ready to run passes.
pub struct Pipeline {
    pub kind: WorkloadKind,
    pub index: Arc<DetectionIndex>,
    pub fixture: Fixture,
    blacklists: Vec<Blacklist>,
    service: Option<IngestService>,
    churn_pool: Arc<Vec<String>>,
}

impl Pipeline {
    /// Set-up as timed by `setup_s`: index, blacklist, and the scanner
    /// or ingest service.
    pub fn setup(kind: WorkloadKind, fixture: &Fixture) -> Result<Pipeline, String> {
        let index = build_index();
        Pipeline::over(kind, fixture, index)
    }

    /// The pipeline around an already built index.
    pub fn over(
        kind: WorkloadKind,
        fixture: &Fixture,
        index: Arc<DetectionIndex>,
    ) -> Result<Pipeline, String> {
        let mut blacklists = Vec::new();
        if let Some(path) = &fixture.blacklist {
            let text = std::fs::read_to_string(path).map_err(|e| format!("blacklist: {e}"))?;
            blacklists.push(Blacklist::from_hosts_file("perfbench", &text).0);
        }
        let churn_pool = match &fixture.churn {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("churn list: {e}"))?
                .lines()
                .map(str::to_string)
                .collect(),
            None => Vec::new(),
        };
        let service = (kind == WorkloadKind::IngestChurn)
            .then(|| IngestService::new(Arc::clone(&index), ingest_config()));
        let pipeline = Pipeline {
            kind,
            index,
            fixture: fixture.clone(),
            blacklists,
            service,
            churn_pool: Arc::new(churn_pool),
        };
        // The scanner is per pass (`finish` consumes it); build one here
        // so set-up pays its construction like the CLI does.
        drop(pipeline.scanner());
        Ok(pipeline)
    }

    pub fn blacklists(&self) -> &[Blacklist] {
        &self.blacklists
    }

    pub fn churn_pool(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.churn_pool)
    }

    /// A scanner configured like `scan-zone` with the workload's
    /// blacklist.
    pub fn scanner(&self) -> ZoneScanner {
        let router = SessionRouter::new(Arc::clone(&self.index)).with_batch_capacity(BATCH);
        ZoneScanner::new(
            router,
            ScanConfig {
                batch_capacity: BATCH,
                blacklists: self.blacklists.clone(),
                ..ScanConfig::default()
            },
        )
    }

    /// One end-to-end pass over the workload's input.
    pub fn pass(&self) -> Pass {
        match self.kind {
            WorkloadKind::ScanSparse | WorkloadKind::ScanIdnDense => self.scan_pass(),
            WorkloadKind::IngestChurn => {
                let service = self
                    .service
                    .as_ref()
                    .expect("ingest pipelines hold a service");
                self.ingest_pass(service, None)
            }
        }
    }

    fn scan_pass(&self) -> Pass {
        let mut scanner = self.scanner();
        let started = Instant::now();
        let mut io_error = None;
        for zone in &self.fixture.zones {
            if let Err(e) = scanner.scan_file(&zone.tld, &zone.path) {
                io_error = Some(format!("{}: {e}", zone.path.display()));
                break;
            }
        }
        let report = scanner.finish();
        let wall = started.elapsed();
        self.scan_outcome(report, wall, io_error)
    }

    /// Turns a finished scan into a pass: the accounting identity must
    /// hold on every TLD and every generated record must be parsed.
    pub fn scan_outcome(
        &self,
        report: ScanReport,
        wall: Duration,
        io_error: Option<String>,
    ) -> Pass {
        let totals = report.totals();
        let check = match io_error {
            Some(e) => Err(e),
            None => report.verify_accounting().and_then(|()| {
                if totals.records == self.fixture.records() {
                    Ok(())
                } else {
                    Err(format!(
                        "scanned {} records, fixture has {}",
                        totals.records,
                        self.fixture.records()
                    ))
                }
            }),
        };
        Pass {
            wall,
            records: totals.records,
            bytes: totals.bytes,
            check,
            exec: report.router.exec(),
            idns: report.router.idn_count() as u64,
            output: Output::Detections(detection_set(&report.router)),
        }
    }

    /// One ingest run over the fixture through the churn feed. With
    /// `feed_nanos`, time spent inside `ZoneTextFeed::next` accumulates
    /// there.
    pub fn ingest_pass(&self, service: &IngestService, feed_nanos: Option<Arc<AtomicU64>>) -> Pass {
        let zone = &self.fixture.zones[0];
        match ingest_run(service, zone, self.churn_pool(), feed_nanos) {
            Ok((report, wall)) => Pass {
                wall,
                records: zone.records,
                bytes: zone.bytes,
                check: ingest_check(&report),
                exec: report.exec(),
                idns: report.router.idn_count() as u64,
                output: Output::Router(report.router),
            },
            Err(e) => Pass {
                wall: Duration::ZERO,
                records: 0,
                bytes: 0,
                check: Err(e),
                exec: ExecStats::default(),
                idns: 0,
                output: Output::Router(RouterReport::default()),
            },
        }
    }

    /// The untimed reference output every pass must equal.
    pub fn oracle(&self) -> Result<Output, String> {
        match self.kind {
            WorkloadKind::ScanSparse | WorkloadKind::ScanIdnDense => self.scan_oracle(),
            WorkloadKind::IngestChurn => self.ingest_oracle(),
        }
    }

    /// Lenient full parse, exact-set dedup, suffix blacklist and one
    /// `DetectorSession` per TLD: the scan pipeline without its
    /// streaming, windowing or batching.
    fn scan_oracle(&self) -> Result<Output, String> {
        let listed: HashSet<String> = self
            .blacklists
            .iter()
            .flat_map(|bl| bl.iter().map(str::to_string))
            .collect();
        let is_listed = |name: &str| {
            let mut suffix = name;
            loop {
                if listed.contains(suffix) {
                    return true;
                }
                match suffix.split_once('.') {
                    Some((_, rest)) => suffix = rest,
                    None => return false,
                }
            }
        };
        let mut seen: HashSet<String> = HashSet::new();
        let mut per_tld: BTreeMap<String, Vec<sham_punycode::DomainName>> = BTreeMap::new();
        let mut records = 0u64;
        for zone in &self.fixture.zones {
            let text = std::fs::read_to_string(&zone.path)
                .map_err(|e| format!("{}: {e}", zone.path.display()))?;
            let (parsed, _malformed) = sham_dns::parse_lenient(&text, &zone.tld);
            records += parsed.records.len() as u64;
            for owner in parsed.owner_names() {
                let name = owner.as_ascii();
                if seen.contains(name) || is_listed(name) {
                    continue;
                }
                seen.insert(name.to_string());
                per_tld
                    .entry(owner.tld().to_string())
                    .or_default()
                    .push(owner.clone());
            }
        }
        if records != self.fixture.records() {
            return Err(format!(
                "oracle parsed {records} records, fixture has {}",
                self.fixture.records()
            ));
        }
        let mut set = BTreeSet::new();
        for (tld, owners) in per_tld {
            let mut session = DetectorSession::new(Arc::clone(&self.index), &tld);
            session.push_domains(&owners);
            for d in session.into_report().detections {
                set.insert((d.idn_ascii, d.reference.as_str().to_string()));
            }
        }
        Ok(Output::Detections(set))
    }

    /// A synchronous `SessionRouter` replay of the same feed items.
    fn ingest_oracle(&self) -> Result<Output, String> {
        let zone = &self.fixture.zones[0];
        let file =
            std::fs::File::open(&zone.path).map_err(|e| format!("{}: {e}", zone.path.display()))?;
        let mut feed = ChurnFeed::new(
            ZoneTextFeed::new("zone", &zone.tld, file),
            self.churn_pool(),
            None,
        );
        let mut router = SessionRouter::new(Arc::clone(&self.index))
            .with_tlds(INGEST_TLDS)
            .with_batch_capacity(BATCH);
        while let Some(item) = feed.next().map_err(|e| e.to_string())? {
            match item {
                FeedItem::Event(IngestEvent::Registered(name)) => {
                    router.push_domains(std::iter::once(&name))
                }
                FeedItem::Event(IngestEvent::ReferenceChurn { added, removed }) => {
                    router.apply_reference_diff(&added, &removed)
                }
                FeedItem::Malformed(why) => return Err(format!("oracle feed quarantined {why}")),
            }
        }
        Ok(Output::Router(router.into_report()))
    }
}

/// The ingest configuration `serve-feed` runs with: Block backpressure,
/// default queue and batch, the three default lanes, no fault hooks.
pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        queue_capacity: 1_024,
        batch_capacity: BATCH,
        backpressure: Backpressure::Block,
        tlds: Some(INGEST_TLDS.iter().map(|t| t.to_string()).collect()),
        ..IngestConfig::default()
    }
}

/// Runs `service` over one zone file through the churn feed, timing
/// the whole run. The report comes back with the keepalive feed's
/// traces removed (see [`Keepalive`]).
pub fn ingest_run(
    service: &IngestService,
    zone: &ZoneFile,
    pool: Arc<Vec<String>>,
    feed_nanos: Option<Arc<AtomicU64>>,
) -> Result<(IngestReport, Duration), String> {
    let started = Instant::now();
    let file =
        std::fs::File::open(&zone.path).map_err(|e| format!("{}: {e}", zone.path.display()))?;
    let (keepalive, feed_done) = Keepalive::new();
    let mut feed = ChurnFeed::new(ZoneTextFeed::new("zone", &zone.tld, file), pool, feed_nanos);
    feed.done = Some(feed_done);
    let mut report = service.run(vec![Box::new(feed), Box::new(keepalive)]);
    let wall = started.elapsed();
    let pings = report.feeds.pop().map_or(0, |f| f.registrations);
    report.router.unrouted_domains -= pings as usize;
    report.lanes.retain(|lane| lane.tld != KEEPALIVE_TLD);
    Ok((report, wall))
}

/// TLD of keepalive names: outside the service's lane set, so the router
/// counts them as unrouted and no detection lane sees them.
const KEEPALIVE_TLD: &str = "invalid";

/// How often the keepalive feed registers a name while the zone feed runs.
const KEEPALIVE_PERIOD: Duration = Duration::from_millis(20);

/// A second feed that registers one out-of-lane name every
/// [`KEEPALIVE_PERIOD`] until the zone feed ends.
///
/// `IngestService` sets a churn's `applied` flag and notifies the
/// waiting connector without holding the queue mutex, so a connector
/// that has checked the flag but not yet started waiting misses the
/// wake-up and blocks until the drainer next frees queue space. With a
/// single feed nothing ever does, and the run hangs (about once per
/// thousand churns on a 2-vCPU machine). Each keepalive name makes the
/// drainer flush and notify again, which bounds such a stall by the
/// period. `ingest_run` removes the names from the report again.
struct Keepalive {
    done: std::sync::mpsc::Receiver<()>,
}

impl Keepalive {
    /// The feed, and the sender whose drop ends it.
    fn new() -> (Keepalive, std::sync::mpsc::Sender<()>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Keepalive { done: rx }, tx)
    }
}

impl FeedSource for Keepalive {
    fn name(&self) -> &str {
        "keepalive"
    }

    fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.done.recv_timeout(KEEPALIVE_PERIOD) {
            Err(RecvTimeoutError::Timeout) => {
                let name = sham_punycode::DomainName::parse(&format!("keepalive.{KEEPALIVE_TLD}"))
                    .expect("the keepalive name is a valid domain");
                Ok(Some(FeedItem::Event(IngestEvent::Registered(name))))
            }
            Ok(()) | Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

/// An ingest service that counts its drainer's flushes.
pub fn counting_service(index: &Arc<DetectionIndex>, flushes: Arc<AtomicU64>) -> IngestService {
    let hook: FlushHook = Arc::new(move |_tld: &str, _ordinal: u64| {
        flushes.fetch_add(1, Ordering::Relaxed);
    });
    IngestService::new(Arc::clone(index), ingest_config()).with_flush_hook(hook)
}

/// Every accounting identity a clean, fault-free ingest run keeps.
fn ingest_check(report: &IngestReport) -> Result<(), String> {
    if report.events_accounted() != report.events_delivered() {
        return Err(format!(
            "ingest accounted {} events, feeds delivered {}",
            report.events_accounted(),
            report.events_delivered()
        ));
    }
    if report.shed + report.lost + report.quarantined > 0 {
        return Err(format!(
            "clean feed lost events: shed {}, lost {}, quarantined {}",
            report.shed, report.lost, report.quarantined
        ));
    }
    match report.feeds.first() {
        Some(feed) if feed.outcome == FeedOutcome::Completed => Ok(()),
        other => Err(format!("feed did not complete: {other:?}")),
    }
}

/// Distinct `(ACE, reference)` detections of a router report.
pub fn detection_set(report: &RouterReport) -> BTreeSet<DetectionKey> {
    report
        .detections()
        .map(|d| (d.idn_ascii.clone(), d.reference.as_str().to_string()))
        .collect()
}

/// The ingest feed: a `ZoneTextFeed` with a global reference churn
/// injected before every `CHURN_EVERY`-th registration, rotating a
/// sliding window of trending stems in and out — the cadence
/// `sham_workload::multi_tld_event_stream` gives its events.
pub struct ChurnFeed<F> {
    inner: F,
    pool: Arc<Vec<String>>,
    registrations: usize,
    held: Option<FeedItem>,
    /// Nanoseconds spent inside the wrapped feed's `next`, when traced.
    nanos: Option<Arc<AtomicU64>>,
    /// Dropped at end of stream, which ends the keepalive feed.
    done: Option<std::sync::mpsc::Sender<()>>,
}

impl<F: FeedSource> ChurnFeed<F> {
    pub fn new(inner: F, pool: Arc<Vec<String>>, nanos: Option<Arc<AtomicU64>>) -> Self {
        ChurnFeed {
            inner,
            pool,
            registrations: 0,
            held: None,
            nanos,
            done: None,
        }
    }

    /// Stems churn number `k` (0-based) adds; empty once the pool runs out.
    fn window(&self, k: usize) -> Vec<String> {
        self.pool
            .get(k * CHURN_SIZE..(k + 1) * CHURN_SIZE)
            .map_or_else(Vec::new, <[String]>::to_vec)
    }
}

impl<F: FeedSource> FeedSource for ChurnFeed<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
        if let Some(item) = self.held.take() {
            return Ok(Some(item));
        }
        let item = match &self.nanos {
            Some(nanos) => {
                let started = Instant::now();
                let item = self.inner.next();
                nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                item
            }
            None => self.inner.next(),
        }?;
        if item.is_none() {
            self.done = None;
        }
        if let Some(FeedItem::Event(IngestEvent::Registered(_))) = &item {
            let i = self.registrations;
            self.registrations += 1;
            if i > 0 && i.is_multiple_of(CHURN_EVERY) {
                let k = i / CHURN_EVERY - 1;
                let added = self.window(k);
                let removed = if k == 0 {
                    Vec::new()
                } else {
                    self.window(k - 1)
                };
                self.held = item;
                return Ok(Some(FeedItem::Event(IngestEvent::ReferenceChurn {
                    added,
                    removed,
                })));
            }
        }
        Ok(item)
    }
}
