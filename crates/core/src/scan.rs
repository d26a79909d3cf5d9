//! GB-scale batch zone scanning: file → detections, overlapped I/O.
//!
//! This is the whole-`.com`-zone workload of the paper's §5 as one
//! streaming pipeline (the QUIC-Lab `domain_extractor` shape). The
//! calling thread's side is one line stage, which
//! [`ZoneTextFeed`](crate::ZoneTextFeed) drives too, so `scan-zone`
//! and `serve-feed --zone` give the same bytes the same verdicts:
//!
//! ```text
//!  reader thread          calling thread: the line stage
//!  ┌───────────┐  full   ┌───────────────────────────────────────┐
//!  │ chunked   │ ──────▶ │ byte-level line split (SWAR newline)  │
//!  │ File reads│  chunks │   └▶ ZoneStreamParser::scan_line      │
//!  │ recycled  │ ◀────── │       └▶ dedup (consecutive + window) │
//!  │ buffers   │  free   │           └▶ blacklist suffix filter  │
//!  └───────────┘  buffers│               └▶ SessionRouter lanes  │
//!                        └───────────────────────────────────────┘
//! ```
//!
//! * **Overlapped I/O** — a reader thread fills large recycled buffers
//!   and hands them over a bounded channel, so disk reads overlap
//!   parsing/detection and the parser never waits on a warm file
//!   (double-buffered: while one chunk is being scanned the next is
//!   being read).
//! * **Allocation-conscious scanning** — lines are split with a
//!   word-at-a-time newline scan over the chunk bytes and fed to
//!   [`ZoneStreamParser::scan_line`], which yields *borrowed* owner
//!   names; nothing is allocated for skipped, deduplicated or
//!   blacklisted lines. Each surviving owner is pushed, still
//!   borrowed, straight into the [`SessionRouter`]: its lane counts it
//!   and decodes it only if it is an IDN, so no owner is cloned on its
//!   way to detection. A lane detects its decoded IDNs as one batch
//!   once it has counted [`ScanConfig::batch_capacity`] owners.
//! * **Pre-detection dedup** — zone dumps repeat each owner once per
//!   record (NS runs, glue); the stage drops consecutive repeats for
//!   free (the parser's owner cache flags them) and catches
//!   out-of-order repeats with a bounded window of recent owners. A
//!   window hit is confirmed on the owner bytes, never on a hash alone.
//! * **Accounting invariant** — every parsed line is accounted for:
//!   `records + quarantined == routed + deduped + blacklisted +
//!   quarantined` per TLD ([`TldScanStats::is_accounted`]); the CLI and
//!   tests close the books on it.

use crate::router::{RouterReport, SessionRouter};
use sham_dns::zone::{ZoneError, ZoneScan, ZoneStreamParser};
use sham_punycode::DomainName;
use sham_web::Blacklist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Recent owners the out-of-order dedup window remembers by default,
/// in `scan-zone` and `ZoneTextFeed` alike.
pub const DEFAULT_DEDUP_WINDOW: usize = 8_192;

/// Read chunks in flight between the reader thread and the parser:
/// at least two, so the pipeline is double-buffered.
const CHANNEL_DEPTH: usize = 4;

/// Quarantined-line samples a scan keeps for its report.
const QUARANTINE_SAMPLES: usize = 8;

/// Tuning knobs for [`ZoneScanner`]. `Default` is sized for multi-GB
/// files on spinning or networked storage.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Bytes per read chunk (default 1 MiB; floored at 4 KiB).
    pub chunk_bytes: usize,
    /// Out-of-order dedup window: how many recent owners are
    /// remembered (default [`DEFAULT_DEDUP_WINDOW`]; 0 disables the
    /// window — consecutive dedup still applies).
    pub dedup_window: usize,
    /// Owners each router lane counts before detecting their IDNs as
    /// one batch; [`ZoneScanner::new`] applies it to the router.
    pub batch_capacity: usize,
    /// Suffix blacklists applied before detection; a domain matching
    /// any feed is counted and dropped.
    pub blacklists: Vec<Blacklist>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            chunk_bytes: 1 << 20,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            batch_capacity: crate::router::DEFAULT_ROUTER_BATCH,
            blacklists: Vec::new(),
        }
    }
}

/// Per-TLD accounting for one scan run. Every counter is in *lines*
/// except `bytes`; `records` are well-formed record lines only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TldScanStats {
    /// Bytes consumed from this TLD's files.
    pub bytes: u64,
    /// Raw lines seen (blank/comment/directive lines included).
    pub lines: u64,
    /// Well-formed record lines.
    pub records: u64,
    /// Malformed or non-UTF-8 lines, skipped and counted.
    pub quarantined: u64,
    /// Records dropped because the owner repeated the previous line's.
    pub dedup_consecutive: u64,
    /// Records dropped by the bounded out-of-order owner window.
    pub dedup_window: u64,
    /// Records dropped by a blacklist suffix match.
    pub blacklisted: u64,
    /// Owners handed to the router for detection.
    pub routed: u64,
    /// Wall-clock seconds spent scanning this TLD's files.
    pub elapsed_secs: f64,
}

impl TldScanStats {
    /// Lines that reached the record machine: records + quarantined.
    pub fn parsed(&self) -> u64 {
        self.records + self.quarantined
    }

    /// Records dropped by either dedup stage.
    pub fn deduped(&self) -> u64 {
        self.dedup_consecutive + self.dedup_window
    }

    /// The closing side of the books: routed + deduped + blacklisted
    /// + quarantined.
    pub fn accounted(&self) -> u64 {
        self.routed + self.deduped() + self.blacklisted + self.quarantined
    }

    /// The `records_accounted` invariant: every parsed line is routed,
    /// deduplicated, blacklisted, or quarantined — nothing vanishes.
    pub fn is_accounted(&self) -> bool {
        self.parsed() == self.accounted()
    }

    /// Folds another TLD's (or file's) counters into this one.
    pub fn merge(&mut self, other: &TldScanStats) {
        self.bytes += other.bytes;
        self.lines += other.lines;
        self.records += other.records;
        self.quarantined += other.quarantined;
        self.dedup_consecutive += other.dedup_consecutive;
        self.dedup_window += other.dedup_window;
        self.blacklisted += other.blacklisted;
        self.routed += other.routed;
        self.elapsed_secs += other.elapsed_secs;
    }
}

/// Everything a finished scan knows: the router's detection report plus
/// the scanner's own per-TLD accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanReport {
    /// Detection outcome (per-TLD lanes, detections, exec stats).
    pub router: RouterReport,
    /// Scanner-side accounting, keyed by TLD.
    pub per_tld: BTreeMap<String, TldScanStats>,
    /// First few quarantined-line diagnostics (bounded).
    pub quarantine_samples: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl ScanReport {
    /// All TLD counters folded together.
    pub fn totals(&self) -> TldScanStats {
        let mut t = TldScanStats::default();
        for s in self.per_tld.values() {
            t.merge(s);
        }
        t
    }

    /// Total detections across all lanes.
    pub fn detection_count(&self) -> usize {
        self.router.detection_count()
    }

    /// Checks the accounting invariant on every TLD, naming the first
    /// TLD whose books don't close.
    pub fn verify_accounting(&self) -> Result<(), String> {
        for (tld, s) in &self.per_tld {
            if !s.is_accounted() {
                return Err(format!(
                    "accounting broken for .{tld}: parsed {} != accounted {} \
                     (routed {} + dedup {} + blacklisted {} + quarantined {})",
                    s.parsed(),
                    s.accounted(),
                    s.routed,
                    s.deduped(),
                    s.blacklisted,
                    s.quarantined
                ));
            }
        }
        Ok(())
    }
}

/// FNV-1a 64 over the owner's ACE bytes (already lowercase) — buckets
/// the dedup window.
#[inline]
fn owner_hash(owner: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in owner {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Ends a bucket chain of [`OwnerWindow`] slots.
const NO_SLOT: u32 = u32::MAX;

/// The bounded out-of-order dedup window: the last `capacity` distinct
/// owners, first in, first out. The hash only picks a bucket; a repeat
/// is counted only when the owner bytes match, so a crafted hash
/// collision cannot hide a new owner from detection.
///
/// Owners live in a ring of slots whose byte buffers are reused once
/// the ring is full: a buffer grows only when its slot receives an
/// owner longer than any it held before, so a full ring allocates
/// nothing per owner. Each bucket chains its slots newest first. The
/// ring evicts oldest first, so an evicted slot is always the tail of
/// its chain, and a link into it is stale exactly when the slot's reuse
/// gave it a newer `seq` than the slot linking to it.
struct OwnerWindow {
    hash: fn(&[u8]) -> u64,
    capacity: usize,
    slots: Vec<WindowSlot>,
    /// Newest slot per bucket; a power of two, at least two per slot.
    heads: Vec<u32>,
    /// The slot the next insert overwrites once the ring is full.
    oldest: usize,
    inserted: u64,
}

struct WindowSlot {
    hash: u64,
    /// Insertion number; strictly decreasing along a live chain.
    seq: u64,
    /// Next older slot in the same bucket, or [`NO_SLOT`].
    next: u32,
    owner: Vec<u8>,
}

impl OwnerWindow {
    fn new(capacity: usize, hash: fn(&[u8]) -> u64) -> Self {
        OwnerWindow {
            hash,
            // Slot indices are `u32`, with `NO_SLOT` reserved.
            capacity: capacity.min(NO_SLOT as usize),
            slots: Vec::new(),
            heads: Vec::new(),
            oldest: 0,
            inserted: 0,
        }
    }

    /// Fibonacci hashing: the top bits of the product pick the bucket.
    fn bucket(&self, hash: u64) -> usize {
        let shift = 64 - self.heads.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Doubles the buckets and relinks every slot oldest first, so each
    /// chain stays newest first. Runs only while the ring fills, before
    /// any slot has been evicted.
    fn rebucket(&mut self) {
        self.heads = vec![NO_SLOT; (self.heads.len() * 2).max(16)];
        for at in 0..self.slots.len() {
            let b = self.bucket(self.slots[at].hash);
            self.slots[at].next = self.heads[b];
            self.heads[b] = at as u32;
        }
    }

    /// True if `owner` is in the window; otherwise remembers it,
    /// evicting the oldest owner when the window is full.
    fn seen_or_insert(&mut self, owner: &[u8]) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let hash = (self.hash)(owner);
        if !self.heads.is_empty() {
            let (mut at, mut newer) = (self.heads[self.bucket(hash)], u64::MAX);
            while at != NO_SLOT && self.slots[at as usize].seq < newer {
                let slot = &self.slots[at as usize];
                if slot.hash == hash && slot.owner.as_slice() == owner {
                    return true;
                }
                newer = slot.seq;
                at = slot.next;
            }
        }
        let at = if self.slots.len() < self.capacity {
            if (self.slots.len() + 1) * 2 > self.heads.len() {
                self.rebucket();
            }
            self.slots.push(WindowSlot { hash, seq: 0, next: NO_SLOT, owner: Vec::new() });
            self.slots.len() - 1
        } else {
            let at = self.oldest;
            self.oldest = (at + 1) % self.capacity;
            let b = self.bucket(self.slots[at].hash);
            if self.heads[b] == at as u32 {
                self.heads[b] = NO_SLOT;
            }
            at
        };
        let b = self.bucket(hash);
        let slot = &mut self.slots[at];
        slot.hash = hash;
        slot.seq = self.inserted;
        slot.next = self.heads[b];
        slot.owner.clear();
        slot.owner.extend_from_slice(owner);
        self.heads[b] = at as u32;
        self.inserted += 1;
        false
    }
}

/// Word-at-a-time `\n` finder (SWAR: subtract-and-mask zero-byte
/// detection on 8-byte words) — the chunk splitter's inner loop.
#[inline]
fn find_newline(haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let head_len = haystack.len() & !7;
    let mut i = 0;
    while i < head_len {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().unwrap());
        let x = word ^ (LO * b'\n' as u64);
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(i + (zero.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    haystack[head_len..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| head_len + p)
}

/// What the [`LineStage`] hands its caller per line that matters.
pub(crate) enum StageItem<'a> {
    /// A record owner that survived dedup and the blacklists, borrowed
    /// from the parser.
    Owner(&'a DomainName),
    /// A malformed or non-UTF-8 line.
    Quarantined(ZoneError),
}

/// The zone-text line stage of [`ZoneScanner`] and
/// [`ZoneTextFeed`](crate::ZoneTextFeed): splits pushed bytes into
/// lines, runs each through [`ZoneStreamParser::scan_line`], both
/// dedups and the blacklists, and counts it in [`TldScanStats`].
pub(crate) struct LineStage {
    parser: ZoneStreamParser,
    /// The unterminated tail of the bytes pushed so far.
    carry: Vec<u8>,
    window: OwnerWindow,
    blacklists: Vec<Blacklist>,
    /// Counters since the last [`restart`](Self::restart).
    pub(crate) stats: TldScanStats,
}

impl LineStage {
    /// A stage resolving relative names against `origin`, remembering
    /// `window` recent owners and dropping owners the blacklists list.
    pub(crate) fn new(origin: &str, window: usize, blacklists: Vec<Blacklist>) -> Self {
        LineStage {
            parser: ZoneStreamParser::new(origin),
            carry: Vec::new(),
            window: OwnerWindow::new(window, owner_hash),
            blacklists,
            stats: TldScanStats::default(),
        }
    }

    /// Starts a new stream under `origin`: a fresh parser, no carried
    /// bytes, zeroed counters. The dedup window carries over.
    pub(crate) fn restart(&mut self, origin: &str) {
        self.parser = ZoneStreamParser::new(origin);
        self.carry.clear();
        self.stats = TldScanStats::default();
    }

    /// Consumes the next bytes of the stream: every line they complete
    /// runs through the stage, and a trailing partial line waits for
    /// the next push.
    pub(crate) fn push(&mut self, mut bytes: &[u8], sink: &mut impl FnMut(StageItem<'_>)) {
        self.stats.bytes += bytes.len() as u64;
        if !self.carry.is_empty() {
            let Some(nl) = find_newline(bytes) else {
                self.carry.extend_from_slice(bytes);
                return;
            };
            let mut line = std::mem::take(&mut self.carry);
            line.extend_from_slice(&bytes[..nl]);
            self.line(&line, sink);
            bytes = &bytes[nl + 1..];
        }
        while let Some(nl) = find_newline(bytes) {
            self.line(&bytes[..nl], sink);
            bytes = &bytes[nl + 1..];
        }
        self.carry.extend_from_slice(bytes);
    }

    /// Ends the stream: a final unterminated line still counts.
    pub(crate) fn finish(&mut self, sink: &mut impl FnMut(StageItem<'_>)) {
        if !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.line(&line, sink);
        }
    }

    /// One raw line through scan → dedup → blacklist → sink.
    fn line(&mut self, raw: &[u8], sink: &mut impl FnMut(StageItem<'_>)) {
        self.stats.lines += 1;
        let raw = match raw.split_last() {
            Some((b'\r', head)) => head,
            _ => raw,
        };
        let scanned = match std::str::from_utf8(raw) {
            Ok(text) => self.parser.scan_line(text),
            Err(_) => {
                // Keep the parser's line numbering in step with the
                // stream even though it never sees this line.
                let _ = self.parser.scan_line("");
                let line = self.parser.lines_seen();
                Err(ZoneError {
                    line,
                    message: "invalid UTF-8".to_string(),
                })
            }
        };
        let stats = &mut self.stats;
        match scanned {
            Ok(ZoneScan::Skip) => {}
            Err(error) => {
                stats.quarantined += 1;
                sink(StageItem::Quarantined(error));
            }
            Ok(ZoneScan::Record { owner, new_owner }) => {
                stats.records += 1;
                if !new_owner {
                    stats.dedup_consecutive += 1;
                } else if self.window.seen_or_insert(owner.as_ascii().as_bytes()) {
                    stats.dedup_window += 1;
                } else if self
                    .blacklists
                    .iter()
                    .any(|bl| bl.contains_suffix(owner.as_ascii()))
                {
                    stats.blacklisted += 1;
                } else {
                    stats.routed += 1;
                    sink(StageItem::Owner(owner));
                }
            }
        }
    }
}

/// The streaming batch scanner. Feed it files (or any reader) with
/// [`scan_file`](Self::scan_file) / [`scan_reader`](Self::scan_reader),
/// then close the books with [`finish`](Self::finish).
pub struct ZoneScanner {
    router: SessionRouter,
    config: ScanConfig,
    stage: LineStage,
    stats: BTreeMap<String, TldScanStats>,
    quarantine: Vec<String>,
    files: usize,
}

impl ZoneScanner {
    /// Wraps a configured router, setting its lanes' batch capacity to
    /// `config.batch_capacity`.
    pub fn new(router: SessionRouter, mut config: ScanConfig) -> Self {
        let blacklists = std::mem::take(&mut config.blacklists);
        ZoneScanner {
            router: router.with_batch_capacity(config.batch_capacity),
            stage: LineStage::new("", config.dedup_window, blacklists),
            config,
            stats: BTreeMap::new(),
            quarantine: Vec::new(),
            files: 0,
        }
    }

    /// Scans one zone file; the TLD (fallback `$ORIGIN`) is `tld`.
    pub fn scan_file(&mut self, tld: &str, path: &Path) -> io::Result<()> {
        let file = std::fs::File::open(path)?;
        self.scan_reader(tld, file)
    }

    /// Scans one byte stream as `tld`'s zone. I/O errors abort this
    /// stream (already-scanned lines stay accounted); parse errors
    /// quarantine single lines and continue.
    pub fn scan_reader<R: Read + Send>(&mut self, tld: &str, reader: R) -> io::Result<()> {
        let started = Instant::now();
        let chunk_bytes = self.config.chunk_bytes.max(4096);

        // Full buffers flow one way, drained buffers flow back: the
        // reader recycles instead of allocating per chunk, and the
        // bounded channel is the backpressure that keeps at most
        // `CHANNEL_DEPTH` chunks in flight.
        let (full_tx, full_rx) = mpsc::sync_channel::<io::Result<Vec<u8>>>(CHANNEL_DEPTH);
        let (free_tx, free_rx) = mpsc::channel::<Vec<u8>>();
        for _ in 0..=CHANNEL_DEPTH {
            let _ = free_tx.send(Vec::with_capacity(chunk_bytes));
        }

        let stage = &mut self.stage;
        stage.restart(tld);
        let (router, quarantine) = (&mut self.router, &mut self.quarantine);
        let mut sink = |item: StageItem<'_>| match item {
            StageItem::Owner(owner) => router.push_domains(std::iter::once(owner)),
            StageItem::Quarantined(error) => {
                if quarantine.len() < QUARANTINE_SAMPLES {
                    quarantine.push(format!("line {}: {}", error.line, error.message));
                }
            }
        };

        let result: io::Result<()> = std::thread::scope(|s| {
            s.spawn(move || {
                let mut reader = reader;
                'chunks: while let Ok(mut buf) = free_rx.recv() {
                    buf.resize(chunk_bytes, 0);
                    let n = loop {
                        match reader.read(&mut buf) {
                            Ok(n) => break n,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                let _ = full_tx.send(Err(e));
                                break 'chunks;
                            }
                        }
                    };
                    if n == 0 {
                        break;
                    }
                    buf.truncate(n);
                    if full_tx.send(Ok(buf)).is_err() {
                        break;
                    }
                }
                // Dropping full_tx is the EOF signal.
            });

            for msg in full_rx.iter() {
                let buf = msg?;
                stage.push(&buf, &mut sink);
                let _ = free_tx.send(buf);
            }
            Ok(())
        });

        if result.is_ok() {
            stage.finish(&mut sink);
        }
        let mut file_stats = stage.stats;
        file_stats.elapsed_secs = started.elapsed().as_secs_f64();
        self.stats.entry(tld.to_string()).or_default().merge(&file_stats);
        self.files += 1;
        debug_assert!(
            self.stats[tld].is_accounted(),
            "scan accounting diverged for .{tld}"
        );
        result
    }

    /// Per-TLD accounting so far (books may still be open).
    pub fn stats(&self) -> &BTreeMap<String, TldScanStats> {
        &self.stats
    }

    /// Flushes every lane and closes the books.
    pub fn finish(self) -> ScanReport {
        ScanReport {
            router: self.router.into_report(),
            per_tld: self.stats,
            quarantine_samples: self.quarantine,
            files: self.files,
        }
    }
}

/// Infers the TLD a zone file covers from its name: the stem up to the
/// first `.` (`com.zone`, `net.zone.txt` → `com`, `net`).
pub fn tld_from_path(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let stem = name.split('.').next()?;
    if stem.is_empty() {
        None
    } else {
        Some(stem.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionIndex;
    use proptest::{prop_assert, prop_assert_eq};
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn shared_index(refs: &[&str]) -> Arc<DetectionIndex> {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
                ..BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, UcDatabase::embedded()),
            refs.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn find_newline_matches_naive_scan() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"no newline here at all, longer than a word",
            b"tail\n",
            b"\nhead",
            b"exactly8\nbytes",
            b"0123456789abcdef\nrest\n",
            b"short",
        ];
        for case in cases {
            assert_eq!(
                find_newline(case),
                case.iter().position(|&b| b == b'\n'),
                "on {case:?}"
            );
        }
        // Every offset within a couple of words.
        for pos in 0..24 {
            let mut v = vec![b'x'; 24];
            v[pos] = b'\n';
            assert_eq!(find_newline(&v), Some(pos));
        }
    }

    #[test]
    fn tld_inference_from_file_names() {
        assert_eq!(tld_from_path(Path::new("/tmp/com.zone")), Some("com".into()));
        assert_eq!(tld_from_path(Path::new("NET.zone.txt")), Some("net".into()));
        assert_eq!(tld_from_path(Path::new("dir/org")), Some("org".into()));
        assert_eq!(tld_from_path(Path::new(".hidden")), None);
    }

    #[test]
    fn scan_accounts_dedups_blacklists_and_detects() {
        let zone = "$ORIGIN com.\n\
                    $TTL 3600\n\
                    ; synthetic sample\n\
                    xn--ggle-55da IN NS ns1.parking.example.\n\
                    xn--ggle-55da IN NS ns2.parking.example.\n\
                    \tIN A 192.0.2.1\n\
                    benign IN A 192.0.2.2\n\
                    listed IN A 192.0.2.3\n\
                    sub.listed IN A 192.0.2.4\n\
                    broken IN A not-an-ip\n\
                    benign IN AAAA 2001:db8::1\n";
        let mut blacklist = Blacklist::new("test");
        blacklist.add("listed.com");
        let config = ScanConfig {
            dedup_window: 16,
            blacklists: vec![blacklist],
            chunk_bytes: 4096,
            ..ScanConfig::default()
        };
        let index = shared_index(&["google"]);
        let mut scanner = ZoneScanner::new(SessionRouter::new(index), config);
        scanner
            .scan_reader("com", zone.as_bytes())
            .expect("in-memory scan cannot fail I/O");
        let report = scanner.finish();
        report.verify_accounting().unwrap();

        let stats = &report.per_tld["com"];
        assert_eq!(stats.lines, 11);
        assert_eq!(stats.records, 7);
        assert_eq!(stats.quarantined, 1);
        // Same-owner NS run + continuation: 2 consecutive dedups; the
        // later `benign` repeat is caught by the window.
        assert_eq!(stats.dedup_consecutive, 2);
        assert_eq!(stats.dedup_window, 1);
        // `listed` and `sub.listed` both fall to the suffix match.
        assert_eq!(stats.blacklisted, 2);
        assert_eq!(stats.routed, 2);
        assert!(stats.is_accounted());
        // The lookalike owner is detected, the benign one is not.
        assert_eq!(report.detection_count(), 1);
    }

    #[test]
    fn hash_collisions_never_dedup_distinct_owners() {
        let zone = b"$ORIGIN com.\n\
                     alpha IN A 192.0.2.1\n\
                     beta IN A 192.0.2.2\n\
                     alpha IN A 192.0.2.3\n";
        let mut stage = LineStage::new("com", DEFAULT_DEDUP_WINDOW, Vec::new());
        stage.window = OwnerWindow::new(DEFAULT_DEDUP_WINDOW, |_| 0);
        let mut routed = Vec::new();
        stage.push(zone, &mut |item| {
            if let StageItem::Owner(owner) = item {
                routed.push(owner.as_ascii().to_string());
            }
        });
        assert_eq!(
            routed,
            ["alpha.com", "beta.com"],
            "a colliding hash hid a distinct owner"
        );
        assert_eq!(
            stage.stats.dedup_window, 1,
            "the true repeat is still caught"
        );
        assert!(stage.stats.is_accounted());
    }

    #[test]
    fn window_matches_a_string_fifo_under_total_collision() {
        // Every owner hashes alike, so one chain holds the whole window
        // and every eviction leaves a stale link behind.
        let owners: Vec<String> = (0..400).map(|i| format!("o{}", (i * 7) % 23)).collect();
        for capacity in [1, 2, 3, 5, 16] {
            let mut window = OwnerWindow::new(capacity, |_| 42);
            let mut model: std::collections::VecDeque<&str> = Default::default();
            for owner in &owners {
                let expected = model.contains(&owner.as_str());
                if !expected {
                    if model.len() == capacity {
                        model.pop_front();
                    }
                    model.push_back(owner);
                }
                assert_eq!(
                    window.seen_or_insert(owner.as_bytes()),
                    expected,
                    "{owner} at capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_outcome() {
        let mut zone = String::from("$ORIGIN net.\n");
        for i in 0..200 {
            zone.push_str(&format!("owner{i} IN A 192.0.2.{}\n", i % 250));
            zone.push_str(&format!("owner{i} IN NS ns.owner{i}.net.\n"));
        }
        // No trailing newline on the last line.
        zone.push_str("lastone IN A 192.0.2.9");

        let index = shared_index(&["google"]);
        let mut baseline = None;
        for chunk in [4096, 4099, 1 << 16] {
            let config = ScanConfig { chunk_bytes: chunk, ..ScanConfig::default() };
            let mut scanner = ZoneScanner::new(SessionRouter::new(Arc::clone(&index)), config);
            scanner.scan_reader("net", zone.as_bytes()).unwrap();
            let report = scanner.finish();
            report.verify_accounting().unwrap();
            let stats = report.per_tld["net"];
            assert_eq!(stats.routed, 201);
            assert_eq!(stats.dedup_consecutive, 200);
            match &baseline {
                None => baseline = Some(report.router.clone()),
                Some(b) => assert_eq!(b, &report.router, "chunk {chunk} diverged"),
            }
        }
    }

    /// Owners the adversarial mixes draw from: few enough that each
    /// repeats at every distance. `listed` is blacklisted.
    const MIX_OWNERS: [&str; 5] = ["alpha", "beta", "listed", "xn--ggle-55da", "gamma"];

    /// One line of an adversarial zone mix, chosen by the bits of `pick`.
    fn mix_line(pick: u64) -> Vec<u8> {
        let owner = MIX_OWNERS[(pick >> 8) as usize % MIX_OWNERS.len()];
        let origin = ["com", "net"][(pick >> 16) as usize % 2];
        let line = match pick % 15 {
            0 | 1 => format!("{owner} IN A 192.0.2.1"),
            2 => format!("{owner}.{origin}. IN NS ns.example."),
            3 => "@ IN NS ns.example.".to_string(),
            4 => "\tIN A 192.0.2.2".to_string(),
            5 => format!("$ORIGIN {origin}."),
            // The owner resolves, then the record fails.
            6 => format!("{owner} IN A not-an-ip"),
            7 => "??? garbage".to_string(),
            8 => {
                let mut bytes = format!("{owner} IN A 192.0.2.").into_bytes();
                bytes.push(0xFF);
                return bytes;
            }
            9 => "; comment only".to_string(),
            // Upper case, a Cyrillic `а` (the Punycode path) and an
            // absolute `foo..` (one dot per resolution step).
            10 => "Alpha IN A 192.0.2.3".to_string(),
            11 => "\u{430}lpha IN A 192.0.2.4".to_string(),
            12 => "foo.. IN NS ns.example.".to_string(),
            // A malformed directive: quarantined, origin unchanged.
            13 => format!("$ORIGIN {origin}. junk"),
            _ => format!("{owner} IN TXT \"v=1\"\r"),
        };
        line.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// No silent drops: whatever the line mix, byte split, window
        /// capacity or window hash, the set of owners the stage emits
        /// is the set of well-formed record owners minus the
        /// blacklisted ones, and the books close.
        #[test]
        fn stage_emits_every_well_formed_owner(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..120),
            splits in proptest::collection::vec(1usize..48, 1..16),
            window in 0usize..5,
            collide in 0u8..2,
        ) {
            let capacity = [0, 1, 2, 3, 64][window];
            let lines: Vec<Vec<u8>> = picks.iter().map(|&p| mix_line(p)).collect();
            let mut bytes = lines.join(&b'\n');
            if picks[0] % 2 == 0 {
                bytes.push(b'\n');
            }

            // The oracle: every record owner of a fresh parser's replay
            // of the same lines, with no dedup at all.
            let listed = |name: &str| name == "listed.com" || name.ends_with(".listed.com");
            let mut parser = ZoneStreamParser::new("com");
            let (mut expected, mut records, mut quarantined) = (HashSet::new(), 0, 0);
            for line in &lines {
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                let Ok(text) = std::str::from_utf8(line) else {
                    quarantined += 1;
                    continue;
                };
                match parser.scan_line(text) {
                    Ok(ZoneScan::Record { owner, .. }) => {
                        records += 1;
                        if !listed(owner.as_ascii()) {
                            expected.insert(owner.as_ascii().to_string());
                        }
                    }
                    Ok(ZoneScan::Skip) => {}
                    Err(_) => quarantined += 1,
                }
            }

            let mut blacklist = Blacklist::new("mix");
            blacklist.add("listed.com");
            let mut stage = LineStage::new("com", capacity, vec![blacklist]);
            if collide == 1 {
                stage.window = OwnerWindow::new(capacity, |_| 7);
            }
            let mut emitted = HashSet::new();
            let mut sink = |item: StageItem<'_>| {
                if let StageItem::Owner(owner) = item {
                    emitted.insert(owner.as_ascii().to_string());
                }
            };
            let mut rest: &[u8] = &bytes;
            for step in splits.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (piece, tail) = rest.split_at((*step).min(rest.len()));
                stage.push(piece, &mut sink);
                rest = tail;
            }
            stage.finish(&mut sink);

            prop_assert_eq!(emitted, expected);
            let stats = stage.stats;
            prop_assert!(stats.is_accounted(), "books open: {stats:?}");
            prop_assert_eq!(stats.lines, lines.len() as u64);
            prop_assert_eq!(stats.records, records);
            prop_assert_eq!(stats.quarantined, quarantined);
            prop_assert_eq!(stats.bytes, bytes.len() as u64);
        }
    }
}
