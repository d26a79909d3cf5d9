//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! The run builds the index stage by stage, alternates untraced and
//! traced end-to-end passes (their rate ratio is the tracing overhead),
//! then replays the workload's input one layer at a time: read, line
//! split, `scan_line` / `push_line`, IDN test, decode, blacklist, owner
//! clone, router, session, scanner, feed and ingest service. A 1-thread
//! end-to-end baseline closes it. Spans stay in memory and are written
//! to `.perfbench/trace/` when the run ends.

use crate::fixtures::{
    trending_stems, WorkloadKind, ZoneFile, CHURN_EVERY, CHURN_SIZE, REFERENCE_SIZE,
};
use crate::pipeline::{self, Pass, Pipeline, BATCH, INGEST_TLDS, THETA};
use crate::sys::{self, Metrics};
use crate::{Args, Checker};
use sham_confusables::UcDatabase;
use sham_core::{pool_stats, DetectionIndex, DetectorSession, SessionRouter};
use sham_dns::zone::{ZoneScan, ZoneStreamParser};
use sham_punycode::DomainName;
use sham_simchar::{build, BuildConfig, HomoglyphDb, SimCharDb};
use sham_web::Blacklist;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric the traced run reports: name, unit, and
/// which direction is better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("io.read_mb_per_s", "MB/s", "higher"),
    ("scan.pass_file_ms", "ms", "lower"),
    ("scan.pass_mem_ms", "ms", "lower"),
    ("scan.records", "count", "higher"),
    ("scan.quarantined", "count", "lower"),
    ("scan.dedup_consecutive", "count", "higher"),
    ("scan.dedup_window", "count", "higher"),
    ("scan.blacklisted", "count", "higher"),
    ("scan.routed", "count", "lower"),
    ("scan.routed_share", "ratio", "lower"),
    ("scan.owner_clone_ns", "ns", "lower"),
    ("bench.split_ns", "ns", "lower"),
    ("dns.scan_line_ns", "ns", "lower"),
    ("dns.push_line_ns", "ns", "lower"),
    ("web.contains_suffix_ns", "ns", "lower"),
    ("web.blacklist_hit_share", "ratio", "higher"),
    ("punycode.is_idn_ns", "ns", "lower"),
    ("punycode.idn_share", "ratio", "higher"),
    ("punycode.decode_ns", "ns", "lower"),
    ("router.push_ms", "ms", "lower"),
    ("router.overhead_ms", "ms", "lower"),
    ("router.lanes", "count", "higher"),
    ("session.push_idns_ms", "ms", "lower"),
    ("detect.idns_per_s", "1/s", "higher"),
    ("detect.detections", "count", "higher"),
    ("detect.hit_share", "ratio", "higher"),
    ("exec.batches", "count", "lower"),
    ("exec.inline_batches", "count", "lower"),
    ("exec.shards", "count", "lower"),
    ("exec.mean_batch_len", "count", "higher"),
    ("pool.jobs_submitted", "count", "lower"),
    ("pool.busy_ms", "ms", "lower"),
    ("pool.parked_ms", "ms", "lower"),
    ("pool.occupancy", "ratio", "higher"),
    ("index.simchar_build_ms", "ms", "lower"),
    ("index.uc_load_ms", "ms", "lower"),
    ("index.flat_build_ms", "ms", "lower"),
    ("index.refset_build_ms", "ms", "lower"),
    ("index.snapshot_write_ms", "ms", "lower"),
    ("index.snapshot_bytes", "bytes", "lower"),
    ("index.mount_ms", "ms", "lower"),
    ("feeds.zone_text_ns_per_line", "ns", "lower"),
    ("ingest.run_ms", "ms", "lower"),
    ("ingest.flushes", "count", "lower"),
    ("ingest.blocked", "count", "lower"),
    ("ingest.churns", "count", "higher"),
    ("ingest.apply_diff_us", "us", "lower"),
    ("ingest.overlay_tombstones", "count", "lower"),
    ("stage.uncovered_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("baseline.threads_1.records_per_s", "1/s", "higher"),
];

/// One recorded span: a named interval and the span it ran inside.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for the calling thread.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Duration of the most recent span named `name`, in seconds.
    fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children of one span never overlap).
    fn self_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    fn to_json(&self, stamp: &str) -> String {
        let mut out = format!("{{\"stamp\": {stamp:?}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Word-at-a-time `\n` search: the benchmark's own line splitter, the
/// same technique the scanner uses, so its cost can be subtracted from
/// split-plus-parse timings.
fn find_newline(haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut chunks = haystack.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let x = word ^ (LO * b'\n' as u64);
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(at + (zero.trailing_zeros() >> 3) as usize);
        }
        at += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| at + p)
}

/// Calls `f` on every line of `buf` (without `\n` or a trailing `\r`).
fn for_each_line(buf: &[u8], mut f: impl FnMut(&[u8])) {
    let mut rest = buf;
    while !rest.is_empty() {
        let (line, next) = match find_newline(rest) {
            Some(nl) => (&rest[..nl], &rest[nl + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        f(line.strip_suffix(b"\r").unwrap_or(line));
        rest = next;
    }
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn per(value: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        value / count as f64
    }
}

/// Builds the index as `build_index` does, one span per stage, and
/// round-trips it through a v3 snapshot.
fn index_stage(tr: &mut Tracer, m: &mut Metrics) -> Result<Arc<DetectionIndex>, String> {
    let font = sham_glyph::SynthUnifont::v12();
    let simchar: Arc<SimCharDb> = tr.span("index.simchar_build", |_| {
        Arc::new(
            build(
                &font,
                &BuildConfig {
                    theta: THETA,
                    ..BuildConfig::default()
                },
            )
            .db,
        )
    });
    let uc: Arc<UcDatabase> = tr.span("index.uc_load", |_| Arc::new(UcDatabase::embedded()));
    let db = tr.span("index.flat_build", |_| {
        HomoglyphDb::new(Arc::clone(&simchar), Arc::clone(&uc))
    });
    let refs = sham_workload::reference_list(REFERENCE_SIZE);
    let index = tr.span("index.refset_build", |_| DetectionIndex::shared(db, refs));
    let mut snapshot = Vec::new();
    tr.span("index.snapshot_write", |_| {
        index.write_snapshot(&mut snapshot)
    })
    .map_err(|e| format!("snapshot write: {e}"))?;
    let mounted = tr
        .span("index.mount", |_| {
            DetectionIndex::from_snapshot_bytes(&snapshot, simchar, uc)
        })
        .map_err(|e| format!("snapshot mount: {e}"))?;
    if mounted.reference_digest() != index.reference_digest() {
        return Err("mounted snapshot lost references".into());
    }
    for (metric, span) in [
        ("index.simchar_build_ms", "index.simchar_build"),
        ("index.uc_load_ms", "index.uc_load"),
        ("index.flat_build_ms", "index.flat_build"),
        ("index.refset_build_ms", "index.refset_build"),
        ("index.snapshot_write_ms", "index.snapshot_write"),
        ("index.mount_ms", "index.mount"),
    ] {
        m.insert(metric.into(), (ms(tr.last_secs(span)), "ms"));
    }
    m.insert(
        "index.snapshot_bytes".into(),
        (snapshot.len() as f64, "bytes"),
    );
    Ok(index)
}

/// A traced end-to-end pass: spans around the scanner's public calls,
/// or (ingest) a timer inside the feed plus a flush-counting hook.
fn traced_pass(tr: &mut Tracer, pipeline: &Pipeline, feed_nanos: &Arc<AtomicU64>) -> Pass {
    match pipeline.kind {
        WorkloadKind::ScanSparse | WorkloadKind::ScanIdnDense => tr.span("e2e.pass", |tr| {
            let started = Instant::now();
            let mut scanner = pipeline.scanner();
            let mut io_error = None;
            for zone in &pipeline.fixture.zones {
                if let Err(e) = tr.span("scan.scan_file", |_| {
                    scanner.scan_file(&zone.tld, &zone.path)
                }) {
                    io_error = Some(e.to_string());
                }
            }
            let report = tr.span("scan.finish", |_| scanner.finish());
            pipeline.scan_outcome(report, started.elapsed(), io_error)
        }),
        WorkloadKind::IngestChurn => tr.span("e2e.pass", |tr| {
            let service = pipeline::counting_service(&pipeline.index, Arc::new(AtomicU64::new(0)));
            tr.span("ingest.service_run", |_| {
                pipeline.ingest_pass(&service, Some(Arc::clone(feed_nanos)))
            })
        }),
    }
}

fn rate(pass: &Pass) -> f64 {
    pass.records as f64 / pass.wall.as_secs_f64().max(1e-9)
}

/// The scan-path layers, one at a time over the workload's bytes.
fn replay_scan_layers(tr: &mut Tracer, m: &mut Metrics, pipeline: &Pipeline) -> Result<(), String> {
    let zones: &[ZoneFile] = &pipeline.fixture.zones;
    let index = &pipeline.index;
    let bufs: Vec<Vec<u8>> = tr
        .span("io.read", |_| {
            zones
                .iter()
                .map(|z| std::fs::read(&z.path))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| format!("read fixture: {e}"))?;
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    m.insert(
        "io.read_mb_per_s".into(),
        (bytes as f64 / 1e6 / tr.last_secs("io.read"), "MB/s"),
    );

    let mut lines = 0usize;
    tr.span("bench.split", |_| {
        for buf in &bufs {
            for_each_line(buf, |line| {
                black_box(line);
                lines += 1;
            });
        }
    });
    let split = tr.last_secs("bench.split");
    m.insert("bench.split_ns".into(), (per(split * 1e9, lines), "ns"));

    tr.span("dns.split_scan_line", |_| {
        for (buf, zone) in bufs.iter().zip(zones) {
            let mut parser = ZoneStreamParser::new(&zone.tld);
            for_each_line(buf, |raw| {
                let text = std::str::from_utf8(raw).unwrap_or("");
                black_box(parser.scan_line(text).is_ok());
            });
        }
    });
    let scan_line = tr.last_secs("dns.split_scan_line");
    m.insert(
        "dns.scan_line_ns".into(),
        (per((scan_line - split) * 1e9, lines), "ns"),
    );

    tr.span("dns.split_push_line", |_| {
        for (buf, zone) in bufs.iter().zip(zones) {
            let mut parser = ZoneStreamParser::new(&zone.tld);
            for_each_line(buf, |raw| {
                black_box(parser.push_line(&String::from_utf8_lossy(raw)).is_ok());
            });
        }
    });
    let push_line = tr.last_secs("dns.split_push_line");
    m.insert(
        "dns.push_line_ns".into(),
        (per((push_line - split) * 1e9, lines), "ns"),
    );

    // Owners as the scanner's pre-stage sees them: one per owner run.
    let mut owners: Vec<DomainName> = Vec::new();
    for (buf, zone) in bufs.iter().zip(zones) {
        let mut parser = ZoneStreamParser::new(&zone.tld);
        for_each_line(buf, |raw| {
            if let Ok(ZoneScan::Record {
                owner,
                new_owner: true,
            }) = parser.scan_line(std::str::from_utf8(raw).unwrap_or(""))
            {
                owners.push(owner.clone());
            }
        });
    }

    let idns = tr.span("punycode.is_idn", |_| {
        owners.iter().filter(|o| black_box(o).is_idn()).count()
    });
    m.insert(
        "punycode.is_idn_ns".into(),
        (
            per(tr.last_secs("punycode.is_idn") * 1e9, owners.len()),
            "ns",
        ),
    );
    m.insert(
        "punycode.idn_share".into(),
        (per(idns as f64, owners.len()), "ratio"),
    );
    let idn_owners: Vec<&DomainName> = owners.iter().filter(|o| o.is_idn()).collect();
    tr.span("punycode.decode", |_| {
        for owner in &idn_owners {
            black_box(owner.unicode_without_tld());
        }
    });
    let decode_ns = per(tr.last_secs("punycode.decode") * 1e9, idn_owners.len());
    m.insert("punycode.decode_ns".into(), (decode_ns, "ns"));

    // Workloads without a blacklist still probe one (empty) feed, so the
    // metric is the call's cost on this input.
    let empty = [Blacklist::new("none")];
    let blacklists = if pipeline.blacklists().is_empty() {
        &empty[..]
    } else {
        pipeline.blacklists()
    };
    let hits = tr.span("web.contains_suffix", |_| {
        owners
            .iter()
            .filter(|o| blacklists.iter().any(|bl| bl.contains_suffix(o.as_ascii())))
            .count()
    });
    m.insert(
        "web.contains_suffix_ns".into(),
        (
            per(tr.last_secs("web.contains_suffix") * 1e9, owners.len()),
            "ns",
        ),
    );
    m.insert(
        "web.blacklist_hit_share".into(),
        (per(hits as f64, owners.len()), "ratio"),
    );

    // What survives dedup and the blacklist reaches the router.
    let mut seen = HashSet::new();
    let routed: Vec<&DomainName> = owners
        .iter()
        .filter(|o| {
            seen.insert(o.as_ascii())
                && !blacklists.iter().any(|bl| bl.contains_suffix(o.as_ascii()))
        })
        .collect();
    let cloned: Vec<DomainName> = tr.span("scan.owner_clone", |_| {
        routed.iter().map(|o| (*o).clone()).collect()
    });
    m.insert(
        "scan.owner_clone_ns".into(),
        (
            per(tr.last_secs("scan.owner_clone") * 1e9, routed.len()),
            "ns",
        ),
    );

    let report = tr.span("router.push", |_| {
        let mut router = SessionRouter::new(Arc::clone(index)).with_batch_capacity(BATCH);
        for chunk in cloned.chunks(BATCH) {
            router.push_domains(chunk);
        }
        router.into_report()
    });
    let push = tr.last_secs("router.push");
    m.insert("router.push_ms".into(), (ms(push), "ms"));
    m.insert(
        "router.lanes".into(),
        (report.per_tld.len() as f64, "count"),
    );

    // The detector alone, over pre-extracted (stem, ACE) pairs per TLD.
    let mut pairs: BTreeMap<&str, Vec<(String, String)>> = BTreeMap::new();
    for owner in cloned.iter().filter(|o| o.is_idn()) {
        if let Some(stem) = owner.unicode_without_tld() {
            pairs
                .entry(owner.tld())
                .or_default()
                .push((stem, owner.as_ascii().to_string()));
        }
    }
    let routed_idns: usize = pairs.values().map(Vec::len).sum();
    let pool_before = pool_stats();
    let detections = tr.span("session.push_idns", |_| {
        let mut detections = 0;
        for (tld, pairs) in &pairs {
            let mut session = DetectorSession::new(Arc::clone(index), tld);
            for chunk in pairs.chunks(BATCH) {
                session.push_idns(chunk);
            }
            detections += session.into_report().detections.len();
        }
        detections
    });
    let detect = tr.last_secs("session.push_idns");
    m.insert("session.push_idns_ms".into(), (ms(detect), "ms"));
    // The pool as the detector drives it with full batches. (The scan
    // workloads' own passes leave it idle when IDNs are sparse: every
    // batch runs inline, as `exec.inline_batches` shows.)
    let pool = pool_stats();
    let busy = pool.busy_nanos - pool_before.busy_nanos;
    let parked = pool.parked_nanos - pool_before.parked_nanos;
    m.insert(
        "pool.jobs_submitted".into(),
        (
            (pool.jobs_submitted - pool_before.jobs_submitted) as f64,
            "count",
        ),
    );
    m.insert("pool.busy_ms".into(), (busy as f64 / 1e6, "ms"));
    m.insert("pool.parked_ms".into(), (parked as f64 / 1e6, "ms"));
    m.insert(
        "pool.occupancy".into(),
        (per(busy as f64, (busy + parked) as usize), "ratio"),
    );
    m.insert(
        "detect.idns_per_s".into(),
        (routed_idns as f64 / detect.max(1e-9), "1/s"),
    );
    m.insert("detect.detections".into(), (detections as f64, "count"));
    m.insert(
        "detect.hit_share".into(),
        (per(detections as f64, routed_idns), "ratio"),
    );
    let decode_routed = decode_ns * routed_idns as f64 / 1e9;
    m.insert(
        "router.overhead_ms".into(),
        (ms(push - detect - decode_routed), "ms"),
    );

    // The scanner itself, from memory (no disk, no reader wait) and
    // from the files; three runs each, median.
    let mut mem_runs = Vec::new();
    let mut mem_report = None;
    for _ in 0..3 {
        let mut scanner = pipeline.scanner();
        let report = tr.span("scan.pass_mem", |_| {
            for (buf, zone) in bufs.iter().zip(zones) {
                scanner
                    .scan_reader(&zone.tld, &buf[..])
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(scanner.finish())
        })?;
        mem_runs.push(tr.last_secs("scan.pass_mem"));
        mem_report = Some(report);
    }
    let mut file_runs = Vec::new();
    for _ in 0..3 {
        let mut scanner = pipeline.scanner();
        tr.span("scan.pass_file", |_| {
            for zone in zones {
                scanner
                    .scan_file(&zone.tld, &zone.path)
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(scanner.finish())
        })?;
        file_runs.push(tr.last_secs("scan.pass_file"));
    }
    let pass_mem = sys::median(&mem_runs);
    m.insert("scan.pass_mem_ms".into(), (ms(pass_mem), "ms"));
    m.insert(
        "scan.pass_file_ms".into(),
        (ms(sys::median(&file_runs)), "ms"),
    );
    let report = mem_report.expect("three in-memory scans ran");
    report.verify_accounting()?;
    let t = report.totals();
    for (name, value) in [
        ("scan.records", t.records),
        ("scan.quarantined", t.quarantined),
        ("scan.dedup_consecutive", t.dedup_consecutive),
        ("scan.dedup_window", t.dedup_window),
        ("scan.blacklisted", t.blacklisted),
        ("scan.routed", t.routed),
    ] {
        m.insert(name.into(), (value as f64, "count"));
    }
    m.insert(
        "scan.routed_share".into(),
        (per(t.routed as f64, t.records as usize), "ratio"),
    );

    // Stage coverage: the staged layer times against the whole
    // in-memory scan they make up.
    let clone = tr.last_secs("scan.owner_clone");
    let blacklist = tr.last_secs("web.contains_suffix");
    let covered = scan_line + blacklist + clone + push;
    let uncovered = 1.0 - covered / pass_mem.max(1e-9);
    println!(
        "stage coverage: split+scan_line {:.1} ms + blacklist {:.1} ms + owner clone {:.1} ms \
         + router push {:.1} ms = {:.1} ms of scan.pass_mem {:.1} ms; uncovered share {uncovered:.3}",
        ms(scan_line),
        ms(blacklist),
        ms(clone),
        ms(push),
        ms(covered),
        ms(pass_mem)
    );
    m.insert("stage.uncovered_share".into(), (uncovered, "ratio"));
    Ok(())
}

/// The ingest front-end over the workload's first zone file, plus the
/// reference-diff cost replayed on one session per lane.
fn replay_ingest_layers(
    tr: &mut Tracer,
    m: &mut Metrics,
    pipeline: &Pipeline,
) -> Result<(), String> {
    let zone = &pipeline.fixture.zones[0];
    let pool = if pipeline.churn_pool().is_empty() {
        Arc::new(trending_stems(
            (zone.records as usize / CHURN_EVERY + 1) * CHURN_SIZE,
        ))
    } else {
        pipeline.churn_pool()
    };
    let flushes = Arc::new(AtomicU64::new(0));
    let feed_nanos = Arc::new(AtomicU64::new(0));
    let service = pipeline::counting_service(&pipeline.index, Arc::clone(&flushes));
    let (report, wall) = tr.span("ingest.run", |_| {
        pipeline::ingest_run(
            &service,
            zone,
            Arc::clone(&pool),
            Some(Arc::clone(&feed_nanos)),
        )
    })?;
    let lines = std::fs::read(&zone.path)
        .map_err(|e| e.to_string())?
        .split(|&b| b == b'\n')
        .count();
    m.insert("ingest.run_ms".into(), (ms(wall.as_secs_f64()), "ms"));
    m.insert(
        "ingest.flushes".into(),
        (flushes.load(Ordering::Relaxed) as f64, "count"),
    );
    m.insert(
        "ingest.blocked".into(),
        (
            report.lanes.iter().map(|l| l.blocked).sum::<u64>() as f64,
            "count",
        ),
    );
    let churns = report.feeds.iter().map(|f| f.churns).sum::<u64>() as usize;
    m.insert("ingest.churns".into(), (churns as f64, "count"));
    m.insert(
        "feeds.zone_text_ns_per_line".into(),
        (per(feed_nanos.load(Ordering::Relaxed) as f64, lines), "ns"),
    );

    let window = |k: usize| {
        pool.get(k * CHURN_SIZE..(k + 1) * CHURN_SIZE)
            .map_or_else(Vec::new, <[String]>::to_vec)
    };
    let diffs: Vec<(Vec<String>, Vec<String>)> = (0..churns)
        .map(|k| (window(k), if k == 0 { Vec::new() } else { window(k - 1) }))
        .collect();
    let mut sessions: Vec<DetectorSession> = INGEST_TLDS
        .iter()
        .map(|tld| DetectorSession::new(Arc::clone(&pipeline.index), tld))
        .collect();
    tr.span("ingest.apply_diff", |_| {
        for (added, removed) in &diffs {
            for session in &mut sessions {
                session.apply_reference_diff(added, removed);
            }
        }
    });
    m.insert(
        "ingest.apply_diff_us".into(),
        (
            per(tr.last_secs("ingest.apply_diff") * 1e6, diffs.len()),
            "us",
        ),
    );
    m.insert(
        "ingest.overlay_tombstones".into(),
        (sessions[0].overlay_tombstones() as f64, "count"),
    );
    Ok(())
}

/// Child, traced: every per-layer metric of the workload.
pub fn run(args: &Args) -> ExitCode {
    match traced(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: traced run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn traced(args: &Args) -> Result<ExitCode, String> {
    let fixture = crate::load_fixture(args)?;
    let threads = crate::pin_pool();
    let mut tr = Tracer::new();
    let mut m = Metrics::new();

    let index = tr.span("setup", |tr| index_stage(tr, &mut m))?;
    let pipeline = Pipeline::over(args.workload, &fixture, index)?;

    // End to end, alternating untraced and traced passes.
    let mut checker = Checker::default();
    checker.record(pipeline.pass()); // warm-up
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut exec = None;
    let feed_nanos = Arc::new(AtomicU64::new(0));
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed() < budget {
        let pass = pipeline.pass();
        untraced.push(rate(&pass));
        checker.record(pass);
        let pass = traced_pass(&mut tr, &pipeline, &feed_nanos);
        traced.push(rate(&pass));
        exec = Some((pass.exec, pass.idns));
        checker.record(pass);
    }
    let (untraced_rate, traced_rate) = (sys::median(&untraced), sys::median(&traced));
    m.insert(
        "trace.overhead_share".into(),
        (1.0 - traced_rate / untraced_rate.max(1e-9), "ratio"),
    );
    let (exec, idns) = exec.expect("at least two traced passes ran");
    m.insert("exec.batches".into(), (exec.batches as f64, "count"));
    m.insert(
        "exec.inline_batches".into(),
        (exec.inline_batches as f64, "count"),
    );
    m.insert("exec.shards".into(), (exec.shards as f64, "count"));
    m.insert(
        "exec.mean_batch_len".into(),
        (per(idns as f64, exec.batches as usize), "count"),
    );

    tr.span("replay.scan", |tr| {
        replay_scan_layers(tr, &mut m, &pipeline)
    })?;
    tr.span("replay.ingest", |tr| {
        replay_ingest_layers(tr, &mut m, &pipeline)
    })?;

    // Single-thread baseline of the same end-to-end pass.
    let baseline: Vec<f64> = {
        let _one = rayon::ThreadOverride::new(1);
        (0..2)
            .map(|_| {
                let pass = tr.span("baseline.threads_1", |_| pipeline.pass());
                let r = rate(&pass);
                checker.record(pass);
                r
            })
            .collect()
    };
    m.insert(
        "baseline.threads_1.records_per_s".into(),
        (sys::median(&baseline), "1/s"),
    );

    let verdict = checker.finish(pipeline.oracle());

    // Every named metric, and nothing else.
    for (name, unit, _) in PER_LAYER {
        match m.get(*name) {
            Some((_, u)) => assert_eq!(u, unit, "unit of {name}"),
            None => panic!("traced run did not measure {name}"),
        }
    }
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "traced run measured an unlisted metric"
    );

    let stamp = sys::host_stamp(threads);
    let dir = std::path::Path::new(crate::WORK_DIR).join("trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(&stamp)))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "workload: {} seed {} (traced run, spans in {})",
        args.workload.name(),
        args.seed,
        path.display()
    );
    println!("stamp: {stamp}");
    verdict.print_failed_share();
    println!(
        "end to end: untraced {untraced_rate:.0} records/s, traced {traced_rate:.0} records/s over {} pass pairs",
        traced.len()
    );
    println!("self time by span:");
    for (name, (self_ns, count)) in tr.self_ns() {
        println!("  {name:<24} {:>10.2} ms  x{count}", self_ns as f64 / 1e6);
    }
    println!(
        "{}",
        sys::result_json(verdict.attempted, verdict.failed, &m)
    );
    Ok(if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// `BENCHMARK.json` lists exactly the metrics the traced run emits.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("a per_layer list");
        let listed: Vec<String> = per_layer
            .split('{')
            .skip(1)
            .map(|entry| {
                entry
                    .split('}')
                    .next()
                    .unwrap_or_default()
                    .trim()
                    .to_string()
            })
            .collect();
        let expected: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
            })
            .collect();
        assert_eq!(listed, expected);
    }
}
