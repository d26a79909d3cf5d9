//! GB-scale batch zone scanning: file → detections, overlapped I/O.
//!
//! This is the whole-`.com`-zone workload of the paper's §5 as one
//! streaming pipeline (the QUIC-Lab `domain_extractor` shape). The
//! calling thread's side is one line stage, which
//! [`ZoneTextFeed`](crate::ZoneTextFeed) drives too, so `scan-zone`
//! and `serve-feed --zone` give the same bytes the same verdicts:
//!
//! ```text
//!  reader thread        line stage
//!  ┌───────────┐ full   ┌──────────────────────────────────────────────┐
//!  │ chunked   │ ─────▶ │ cut the chunk's complete lines at line starts│
//!  │ File reads│ chunks │ (sched::line_shards_for): head + fork shards │
//!  │ recycled  │ ◀───── │  calling thread: head, line by line ─┐ in    │
//!  │ buffers   │ free   │  pool: fork shards → owner slots,    │ para- │
//!  └───────────┘ buffers│    window hash, blacklist verdict ───┘ llel  │
//!                       │  calling thread, in stream order: per fork,  │
//!                       │    re-run up to its first named owner, take  │
//!                       │    its verdicts, adopt its parser            │
//!                       │ each line: scan_line → dedup (consecutive +  │
//!                       │   window) → blacklist → SessionRouter lanes  │
//!                       └──────────────────────────────────────────────┘
//! ```
//!
//! * **Overlapped I/O** — a reader thread fills large recycled buffers
//!   and hands them over a bounded channel, so disk reads overlap
//!   parsing/detection and the parser never waits on a warm file
//!   (double-buffered: while one chunk is being scanned the next is
//!   being read).
//! * **Parsing on every core** — the directive and comment lines that
//!   open a push (a zone file's header) run first. The push's other
//!   complete lines are cut at line starts by one fixed rule
//!   ([`sched`](crate::sched)): at one thread, or for a small push such
//!   as a feed's 4 KiB read, they all run line by line on the calling
//!   thread. Otherwise the calling thread runs a head of twice a pool
//!   worker's share the same way, with the stage's own parser, while
//!   the pool parses the rest in shards (≈ 4 per other worker, none
//!   below [`MIN_LINE_SHARD_BYTES`](crate::sched::MIN_LINE_SHARD_BYTES)),
//!   each with a speculative [`fork`](ZoneStreamParser::fork) of that
//!   parser (the push's `$ORIGIN` and `$TTL`, no owner history), into
//!   buffers reused push to push; the calling thread helps if its head
//!   is done first. Workers copy each new owner into a reused slot and
//!   compute its window hash and blacklist verdict, both pure. The
//!   calling thread then merges the forked shards in stream order: one
//!   window probe and one router push per new owner. The head's larger
//!   share pays for that merge, so a worker at half the calling
//!   thread's speed still finishes before the head does.
//! * **Exact seams** — a fork agrees with the true parser from the end
//!   of the shard's first well-formed record line that names its owner
//!   (does not start with a blank). The merge re-runs the shard's lines
//!   up to that one with the true parser, takes the fork's verdicts for
//!   the rest, and adopts the fork's parser at the global line count. A
//!   shard with no such line, or one entered under another `$ORIGIN` or
//!   `$TTL` than its fork assumed, is re-run whole. So every thread
//!   count and chunk size gives the same owners in the same order, the
//!   same quarantined `(line, message)` pairs and the same counters;
//!   [`StageStats`] records what was split and re-run.
//! * **Allocation-conscious scanning** — lines are split with a
//!   word-at-a-time newline scan over the chunk bytes and fed to
//!   [`ZoneStreamParser::scan_line`], which yields *borrowed* owner
//!   names; nothing is allocated for skipped, deduplicated or
//!   blacklisted lines. Each surviving owner is pushed, still
//!   borrowed, straight into the [`SessionRouter`]: its lane counts it
//!   and, only if it is an IDN, appends its ACE bytes to one reused
//!   buffer, so no owner is cloned on its way to detection and the
//!   calling thread runs no Punycode. A lane detects those IDNs as one
//!   batch once it has counted [`ScanConfig::batch_capacity`] owners;
//!   the batch's shards decode each name, on the pool when there is
//!   more than one shard.
//! * **Bounded lines** — a line longer than [`MAX_LINE_BYTES`] is
//!   quarantined whole with one fixed message wherever it falls across
//!   chunks and shards; the stage buffers at most that much of it.
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
use crate::sched::{line_shards_for, StageStats};
use rayon::prelude::*;
use sham_dns::zone::{ZoneError, ZoneScan, ZoneStreamParser};
use sham_punycode::DomainName;
use sham_web::Blacklist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::ops::Range;
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Recent owners the out-of-order dedup window remembers by default,
/// in `scan-zone` and `ZoneTextFeed` alike.
pub const DEFAULT_DEDUP_WINDOW: usize = 8_192;

/// Lines longer than this many bytes (before the `\n`, a trailing `\r`
/// included) are quarantined whole, unparsed, with one fixed message.
/// A valid presentation-form record is shorter: its RDATA is at most
/// 65,535 octets, `\DDD` escapes at most quadruple that, and the owner,
/// TTL, class and type fields add well under 256 KiB more.
pub const MAX_LINE_BYTES: usize = 512 << 10;

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
/// except `bytes`; `records` are well-formed record lines only. The
/// fields serialize in declaration order, which is the order of a
/// `scan-zone --metrics-json` row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TldScanStats {
    /// Bytes consumed from this TLD's files.
    pub bytes: u64,
    /// Raw lines seen (blank/comment/directive lines included).
    pub lines: u64,
    /// Well-formed record lines.
    pub records: u64,
    /// Owners handed to the router for detection.
    pub routed: u64,
    /// Records dropped because the owner repeated the previous line's.
    pub dedup_consecutive: u64,
    /// Records dropped by the bounded out-of-order owner window.
    pub dedup_window: u64,
    /// Records dropped by a blacklist suffix match.
    pub blacklisted: u64,
    /// Malformed or non-UTF-8 lines, skipped and counted.
    pub quarantined: u64,
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

    /// Records scanned per wall-clock second (0 when no time passed).
    pub fn records_per_sec(&self) -> f64 {
        self.per_sec(self.records as f64)
    }

    /// Megabytes (10⁶ bytes) scanned per wall-clock second (0 when no
    /// time passed).
    pub fn mb_per_sec(&self) -> f64 {
        self.per_sec(self.bytes as f64 / 1e6)
    }

    fn per_sec(&self, amount: f64) -> f64 {
        if self.elapsed_secs > 0.0 {
            amount / self.elapsed_secs
        } else {
            0.0
        }
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
    /// How the line stage split and merged its pushes (observational).
    pub stage: StageStats,
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
        self.capacity != 0 && self.seen_or_insert_hashed((self.hash)(owner), owner)
    }

    /// [`seen_or_insert`](Self::seen_or_insert) for an owner whose hash
    /// is already known, computed with this window's `hash`.
    fn seen_or_insert_hashed(&mut self, hash: u64, owner: &[u8]) -> bool {
        if self.capacity == 0 {
            return false;
        }
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
    /// from the parser or a shard's owner slot.
    Owner(&'a DomainName),
    /// A malformed, non-UTF-8 or over-long line.
    Quarantined(ZoneError),
}

/// Quarantines a line `parser` never reads: the parser still counts it,
/// so later line numbers stay in step with the stream.
fn unread(parser: &mut ZoneStreamParser, message: String) -> ZoneError {
    let _ = parser.scan_line("");
    ZoneError {
        line: parser.lines_seen(),
        message,
    }
}

/// Quarantines a line longer than [`MAX_LINE_BYTES`].
fn long_line(parser: &mut ZoneStreamParser) -> ZoneError {
    unread(parser, format!("line longer than {MAX_LINE_BYTES} bytes"))
}

/// One raw line (without its `\n`) through `parser`: a trailing `\r` is
/// dropped, and an over-long or non-UTF-8 line is an error the parser
/// never reads.
fn scan_raw<'p>(parser: &'p mut ZoneStreamParser, raw: &[u8]) -> Result<ZoneScan<'p>, ZoneError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(long_line(parser));
    }
    let raw = match raw.split_last() {
        Some((b'\r', head)) => head,
        _ => raw,
    };
    match std::str::from_utf8(raw) {
        Ok(text) => parser.scan_line(text),
        Err(_) => Err(unread(parser, "invalid UTF-8".to_string())),
    }
}

/// Cuts `lines` (complete lines) into a head of about `head` bytes and
/// `forks` near-equal shards after it: each seam is the first line start
/// at or after its share, and a seam that would leave an empty shard is
/// dropped.
fn cut_at_lines(lines: &[u8], (head, forks): (usize, usize), seams: &mut Vec<usize>) {
    let rest = lines.len() - head.min(lines.len());
    for k in 0..forks {
        let share = (head + rest * k / forks).max(seams.last().map_or(1, |&seam| seam + 1));
        if share >= lines.len() {
            break;
        }
        let seam =
            share + find_newline(&lines[share - 1..]).expect("complete lines end in a newline");
        if seam >= lines.len() {
            break;
        }
        seams.push(seam);
    }
}

/// What a forked shard's line came to, in stream order.
enum ShardItem {
    /// A new owner, waiting in the shard's next owner slot, with its
    /// window hash and blacklist verdict.
    Owner { hash: u64, listed: bool },
    /// A quarantined line, numbered from the fork's first line.
    Quarantined(ZoneError),
}

/// Why the locks of a push are never poisoned: a parse that panics
/// unwinds out of the push, which drops what they guard.
const UNPOISONED: &str = "a panicking parse unwinds out of the push";

/// A forked shard of a push, parsed on the pool into buffers that are
/// reused push to push.
struct Shard {
    /// The shard's bytes within the push's complete lines.
    range: Range<usize>,
    /// A fork of the stage's parser as the push began.
    parser: ZoneStreamParser,
    /// Offset within the shard just past the first line that named its
    /// owner and parsed, from which the fork agrees with the stage's
    /// parser; `None` until then.
    synced: Option<usize>,
    /// Lines, records, quarantined and consecutive repeats after
    /// `synced`.
    stats: TldScanStats,
    /// New owners after `synced`, in order; slots past `live` are spare
    /// buffers.
    owners: Vec<DomainName>,
    live: usize,
    items: Vec<ShardItem>,
}

impl Shard {
    /// A shard over `range`, read by `parser`, with its buffers kept.
    fn reset(&mut self, range: Range<usize>, parser: ZoneStreamParser) {
        self.range = range;
        self.parser = parser;
        self.synced = None;
        self.stats = TldScanStats::default();
        self.live = 0;
        self.items.clear();
    }

    /// Parses the shard's `lines`, recording every line after the first
    /// that names its owner and parses. The window hash and blacklist
    /// verdict of each new owner are pure, so they are computed here;
    /// the window probe itself waits for the merge.
    fn parse(&mut self, lines: &[u8], blacklists: &[Blacklist], hash: Option<fn(&[u8]) -> u64>) {
        let mut at = 0;
        while let Some(nl) = find_newline(&lines[at..]) {
            let raw = &lines[at..at + nl];
            at += nl + 1;
            let scanned = scan_raw(&mut self.parser, raw);
            if self.synced.is_none() {
                let named = !matches!(raw.first(), Some(b' ' | b'\t'));
                if named && matches!(scanned, Ok(ZoneScan::Record { .. })) {
                    self.synced = Some(at);
                }
                continue;
            }
            self.stats.lines += 1;
            match scanned {
                Ok(ZoneScan::Skip) => {}
                Err(error) => {
                    self.stats.quarantined += 1;
                    self.items.push(ShardItem::Quarantined(error));
                }
                Ok(ZoneScan::Record { owner, new_owner }) => {
                    self.stats.records += 1;
                    if !new_owner {
                        self.stats.dedup_consecutive += 1;
                        continue;
                    }
                    let ascii = owner.as_ascii();
                    let hash = hash.map_or(0, |hash| hash(ascii.as_bytes()));
                    let listed = blacklists.iter().any(|bl| bl.contains_suffix(ascii));
                    match self.owners.get_mut(self.live) {
                        Some(slot) => slot.clone_from(owner),
                        None => self.owners.push(owner.clone()),
                    }
                    self.live += 1;
                    self.items.push(ShardItem::Owner { hash, listed });
                }
            }
        }
    }
}

/// What lines pass through in stream order: the stage's own parser,
/// the dedup window and the counters.
struct Serial {
    parser: ZoneStreamParser,
    window: OwnerWindow,
    /// Counters since the stage's last [`restart`](LineStage::restart).
    stats: TldScanStats,
}

impl Serial {
    /// Complete lines, one by one.
    fn inline(
        &mut self,
        mut lines: &[u8],
        blacklists: &[Blacklist],
        sink: &mut (impl FnMut(StageItem<'_>) + Send),
    ) {
        while let Some(nl) = find_newline(lines) {
            self.line(&lines[..nl], blacklists, sink);
            lines = &lines[nl + 1..];
        }
    }

    /// One raw line through scan → dedup → blacklist → sink.
    fn line(
        &mut self,
        raw: &[u8],
        blacklists: &[Blacklist],
        sink: &mut (impl FnMut(StageItem<'_>) + Send),
    ) {
        self.stats.lines += 1;
        let scanned = scan_raw(&mut self.parser, raw);
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
                } else if blacklists
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

    /// Folds a forked shard's recorded lines in: its counters, then its
    /// items in order through the window and the blacklist verdict to
    /// the sink. `line_base` turns the fork's error line numbers into
    /// the stream's.
    fn merge(
        &mut self,
        shard: &mut Shard,
        line_base: usize,
        sink: &mut (impl FnMut(StageItem<'_>) + Send),
    ) {
        let stats = &mut self.stats;
        stats.lines += shard.stats.lines;
        stats.records += shard.stats.records;
        stats.quarantined += shard.stats.quarantined;
        stats.dedup_consecutive += shard.stats.dedup_consecutive;
        let mut owners = shard.owners[..shard.live].iter();
        for item in shard.items.drain(..) {
            match item {
                ShardItem::Owner { hash, listed } => {
                    let owner = owners.next().expect("one slot per owner item");
                    if self
                        .window
                        .seen_or_insert_hashed(hash, owner.as_ascii().as_bytes())
                    {
                        stats.dedup_window += 1;
                    } else if listed {
                        stats.blacklisted += 1;
                    } else {
                        stats.routed += 1;
                        sink(StageItem::Owner(owner));
                    }
                }
                ShardItem::Quarantined(mut error) => {
                    error.line += line_base;
                    sink(StageItem::Quarantined(error));
                }
            }
        }
    }
}

/// The zone-text line stage of [`ZoneScanner`] and
/// [`ZoneTextFeed`](crate::ZoneTextFeed): splits pushed bytes into
/// lines, runs each through [`ZoneStreamParser::scan_line`], both
/// dedups and the blacklists, and counts it in [`TldScanStats`]. A push
/// large enough to split runs its head on the calling thread while the
/// pool parses forked shards of the rest, merged after it in stream
/// order (see the module doc).
pub(crate) struct LineStage {
    serial: Serial,
    blacklists: Vec<Blacklist>,
    /// The unterminated tail of the bytes pushed so far, up to
    /// [`MAX_LINE_BYTES`].
    carry: Vec<u8>,
    /// The tail outgrew [`MAX_LINE_BYTES`]: its bytes are dropped, and
    /// the line is quarantined when it ends.
    carry_long: bool,
    /// Forked-shard buffers, reused push to push.
    shards: Vec<Mutex<Shard>>,
    /// Seams of the current push (reused).
    seams: Vec<usize>,
    /// The `$ORIGIN` every fork of the current push starts from
    /// (reused).
    fork_origin: String,
    /// How pushes were split and merged, over the stage's life.
    record: StageStats,
}

impl LineStage {
    /// A stage resolving relative names against `origin`, remembering
    /// `window` recent owners and dropping owners the blacklists list.
    pub(crate) fn new(origin: &str, window: usize, blacklists: Vec<Blacklist>) -> Self {
        LineStage {
            serial: Serial {
                parser: ZoneStreamParser::new(origin),
                window: OwnerWindow::new(window, owner_hash),
                stats: TldScanStats::default(),
            },
            blacklists,
            carry: Vec::new(),
            carry_long: false,
            shards: Vec::new(),
            seams: Vec::new(),
            fork_origin: String::new(),
            record: StageStats::default(),
        }
    }

    /// Starts a new stream under `origin`: a fresh parser, no carried
    /// bytes, zeroed counters. The dedup window carries over.
    pub(crate) fn restart(&mut self, origin: &str) {
        self.serial.parser = ZoneStreamParser::new(origin);
        self.serial.stats = TldScanStats::default();
        self.carry.clear();
        self.carry_long = false;
    }

    /// Consumes the next bytes of the stream: every line they complete
    /// runs through the stage, and a trailing partial line waits for
    /// the next push. The complete lines are cut for the pool by
    /// [`line_shards_for`].
    pub(crate) fn push(&mut self, bytes: &[u8], sink: &mut (impl FnMut(StageItem<'_>) + Send)) {
        self.push_cut(bytes, sink, |lines, seams| {
            let cut = line_shards_for(lines.len(), rayon::current_num_threads());
            cut_at_lines(lines, cut, seams)
        });
    }

    /// [`push`](Self::push) with the seams of the push's complete lines
    /// chosen by `cut`: offsets of line starts, strictly increasing,
    /// inside the lines. The lines before the first seam are the head;
    /// no seams means the calling thread runs every line.
    fn push_cut(
        &mut self,
        mut bytes: &[u8],
        sink: &mut (impl FnMut(StageItem<'_>) + Send),
        cut: impl FnOnce(&[u8], &mut Vec<usize>),
    ) {
        self.serial.stats.bytes += bytes.len() as u64;
        self.record.pushes += 1;
        if !self.carry.is_empty() || self.carry_long {
            let Some(nl) = find_newline(bytes) else {
                self.carry_more(bytes);
                return;
            };
            self.carry_more(&bytes[..nl]);
            self.end_carry(sink);
            bytes = &bytes[nl + 1..];
        }
        let end = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let (mut lines, tail) = bytes.split_at(end);
        // The directive and comment lines that open a push (a zone
        // file's `$ORIGIN`/`$TTL` header) run first, so that forks start
        // from the state they set.
        let mut head = 0;
        while matches!(lines.get(head), Some(b'$' | b';')) {
            head += find_newline(&lines[head..]).expect("complete lines end in a newline") + 1;
        }
        if head > 0 {
            self.serial.inline(&lines[..head], &self.blacklists, sink);
            lines = &lines[head..];
        }
        if !lines.is_empty() {
            let mut seams = std::mem::take(&mut self.seams);
            seams.clear();
            cut(lines, &mut seams);
            if seams.is_empty() {
                self.serial.inline(lines, &self.blacklists, sink);
            } else {
                self.sharded(lines, &seams, sink);
            }
            self.seams = seams;
        }
        self.carry_more(tail);
    }

    /// Ends the stream: a final unterminated line still counts.
    pub(crate) fn finish(&mut self, sink: &mut (impl FnMut(StageItem<'_>) + Send)) {
        if !self.carry.is_empty() || self.carry_long {
            self.end_carry(sink);
        }
    }

    /// Appends to the partial line, dropping it once it outgrows
    /// [`MAX_LINE_BYTES`]; the buffer never grows past that either.
    fn carry_more(&mut self, bytes: &[u8]) {
        if self.carry_long {
            return;
        }
        let len = self.carry.len() + bytes.len();
        if len > MAX_LINE_BYTES {
            self.carry.clear();
            self.carry_long = true;
            return;
        }
        if len > self.carry.capacity() {
            let target = (self.carry.capacity() * 2).clamp(len, MAX_LINE_BYTES);
            self.carry.reserve_exact(target - self.carry.len());
        }
        self.carry.extend_from_slice(bytes);
    }

    /// Runs the completed partial line through the stage.
    fn end_carry(&mut self, sink: &mut (impl FnMut(StageItem<'_>) + Send)) {
        let serial = &mut self.serial;
        if self.carry_long {
            serial.stats.lines += 1;
            serial.stats.quarantined += 1;
            sink(StageItem::Quarantined(long_line(&mut serial.parser)));
            self.carry_long = false;
        } else {
            serial.line(&self.carry, &self.blacklists, sink);
            self.carry.clear();
        }
    }

    /// Complete lines cut at `seams`. The calling thread runs the head
    /// (the lines before the first seam) through the serial path while
    /// the pool parses the shards after it with forks of the parser, and
    /// helps once the head is done; the shards are then merged in stream
    /// order with exact seams.
    fn sharded(
        &mut self,
        lines: &[u8],
        seams: &[usize],
        sink: &mut (impl FnMut(StageItem<'_>) + Send),
    ) {
        let forks = seams.len();
        self.record.split_pushes += 1;
        self.record.shards += forks as u64 + 1;
        if self.shards.len() < forks {
            self.shards.resize_with(forks, || {
                Mutex::new(Shard {
                    range: 0..0,
                    parser: ZoneStreamParser::new(""),
                    synced: None,
                    stats: TldScanStats::default(),
                    owners: Vec::new(),
                    live: 0,
                    items: Vec::new(),
                })
            });
        }
        let serial = &mut self.serial;
        let fork_ttl = serial.parser.default_ttl();
        self.fork_origin.clear();
        self.fork_origin.push_str(serial.parser.origin());
        let shards = &mut self.shards[..forks];
        for (k, cell) in shards.iter_mut().enumerate() {
            let end = seams.get(k + 1).copied().unwrap_or(lines.len());
            let shard = cell.get_mut().expect(UNPOISONED);
            shard.reset(seams[k]..end, serial.parser.fork());
        }

        // Task 0 is the head, which needs the serial state and the sink;
        // the calling thread claims it first, but any thread may run it.
        let hash = (serial.window.capacity > 0).then_some(serial.window.hash);
        let blacklists = &self.blacklists[..];
        let head = Mutex::new(Some((&mut *serial, &mut *sink)));
        let _: Vec<()> = (0..=forks)
            .into_par_iter()
            .map(|task| {
                if task == 0 {
                    let taken = head.lock().expect(UNPOISONED).take();
                    let (serial, sink) = taken.expect("the head runs once");
                    serial.inline(&lines[..seams[0]], blacklists, sink);
                } else {
                    let mut shard = shards[task - 1].lock().expect(UNPOISONED);
                    let range = shard.range.clone();
                    shard.parse(&lines[range], blacklists, hash);
                }
            })
            .collect();

        for cell in shards.iter_mut() {
            let shard = cell.get_mut().expect(UNPOISONED);
            // A fork's verdicts hold only if the stage's parser enters
            // its shard with the directive state the fork started from.
            let entered = serial.parser.origin() == self.fork_origin
                && serial.parser.default_ttl() == fork_ttl;
            let line_base = serial.parser.lines_seen();
            let synced = shard.synced.filter(|_| entered);
            let rerun_end = synced.map_or(shard.range.end, |at| shard.range.start + at);
            let before = serial.stats.lines;
            serial.inline(&lines[shard.range.start..rerun_end], blacklists, sink);
            self.record.lines_rerun += serial.stats.lines - before;
            if synced.is_none() {
                self.record.shards_rerun += 1;
                continue;
            }
            serial.merge(shard, line_base, sink);
            serial.parser.adopt(&mut shard.parser, line_base);
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
        let mut file_stats = stage.serial.stats;
        file_stats.elapsed_secs = started.elapsed().as_secs_f64();
        self.stats.entry(tld.to_string()).or_default().merge(&file_stats);
        self.files += 1;
        debug_assert!(
            self.stats[tld].is_accounted(),
            "scan accounting diverged for .{tld}"
        );
        result
    }

    /// Flushes every lane and closes the books.
    pub fn finish(self) -> ScanReport {
        ScanReport {
            router: self.router.into_report(),
            per_tld: self.stats,
            quarantine_samples: self.quarantine,
            files: self.files,
            stage: self.stage.record,
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
        stage.serial.window = OwnerWindow::new(DEFAULT_DEDUP_WINDOW, |_| 0);
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
            stage.serial.stats.dedup_window, 1,
            "the true repeat is still caught"
        );
        assert!(stage.serial.stats.is_accounted());
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

    /// A stage over the mix's origin, with a blacklist listing
    /// `listed.com` and a `capacity`-owner window whose hash puts every
    /// owner in one bucket when `collide` is set.
    fn mix_stage(capacity: usize, collide: bool) -> LineStage {
        let mut blacklist = Blacklist::new("mix");
        blacklist.add("listed.com");
        let mut stage = LineStage::new("com", capacity, vec![blacklist]);
        if collide {
            stage.serial.window = OwnerWindow::new(capacity, |_| 7);
        }
        stage
    }

    /// What a stage's sink saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Owner(String),
        Quarantined(usize, String),
    }

    /// Chooses the seams of a push's complete lines.
    type Cut<'a> = &'a dyn Fn(&[u8], &mut Vec<usize>);

    /// One inline shard per push.
    fn no_seams(_: &[u8], _: &mut Vec<usize>) {}

    /// A seam before every line of a push: 1-line shards.
    fn every(lines: &[u8], seams: &mut Vec<usize>) {
        seams.extend(line_starts(lines).map(|(_, at)| at))
    }

    /// The line starts after the first in `lines`, with the index of
    /// the line each starts.
    fn line_starts(lines: &[u8]) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ends = lines
            .iter()
            .enumerate()
            .filter(|&(at, &b)| b == b'\n' && at + 1 < lines.len());
        ends.map(|(at, _)| at + 1)
            .enumerate()
            .map(|(k, at)| (k + 1, at))
    }

    /// Pushes `bytes` through `stage` in `pieces`-byte pieces (cycled),
    /// with `cut` choosing each push's seams, and finishes the stream.
    fn run_cut(stage: &mut LineStage, bytes: &[u8], pieces: &[usize], cut: Cut<'_>) -> Vec<Seen> {
        let mut seen = Vec::new();
        let mut sink = |item: StageItem<'_>| {
            seen.push(match item {
                StageItem::Owner(owner) => Seen::Owner(owner.as_ascii().to_string()),
                StageItem::Quarantined(error) => Seen::Quarantined(error.line, error.message),
            })
        };
        let mut rest = bytes;
        for &step in pieces.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(step.min(rest.len()));
            stage.push_cut(piece, &mut sink, cut);
            rest = tail;
        }
        stage.finish(&mut sink);
        seen
    }

    /// The mix's lines joined into a stream, with a final newline when
    /// `picks[0]` is even.
    fn mix_bytes(picks: &[u64]) -> (Vec<Vec<u8>>, Vec<u8>) {
        let lines: Vec<Vec<u8>> = picks.iter().map(|&p| mix_line(p)).collect();
        let mut bytes = lines.join(&b'\n');
        if picks[0].is_multiple_of(2) {
            bytes.push(b'\n');
        }
        (lines, bytes)
    }

    /// Runs `lines` through fresh stages with seams forced before line
    /// `at`, before every line, and nowhere, pushed whole and in
    /// `pieces`, and requires every run to match the single-shard run:
    /// the same sink items in the same order and the same counters.
    /// Returns the single-shard stage.
    fn assert_seams_are_exact(
        bytes: &[u8],
        pieces: &[usize],
        capacity: usize,
        collide: bool,
        at: &[usize],
    ) -> (Vec<Seen>, LineStage) {
        let mut want_stage = mix_stage(capacity, collide);
        let want = run_cut(&mut want_stage, bytes, &[bytes.len()], &no_seams);
        for &line in at {
            let before = move |lines: &[u8], seams: &mut Vec<usize>| {
                seams.extend(
                    line_starts(lines)
                        .filter(|&(k, _)| k == line)
                        .map(|(_, at)| at),
                )
            };
            let mut stage = mix_stage(capacity, collide);
            let seen = run_cut(&mut stage, bytes, &[bytes.len()], &before);
            assert_eq!(seen, want, "seam before line {line}");
            assert_eq!(
                stage.serial.stats, want_stage.serial.stats,
                "seam before line {line}"
            );
        }
        let whole = [bytes.len()];
        for (pieces, cut) in [
            (pieces, &every as Cut<'_>),
            (&whole, &every),
            (pieces, &no_seams),
        ] {
            let mut stage = mix_stage(capacity, collide);
            let seen = run_cut(&mut stage, bytes, pieces, cut);
            assert_eq!(seen, want, "pieces {pieces:?}");
            assert_eq!(
                stage.serial.stats, want_stage.serial.stats,
                "pieces {pieces:?}"
            );
        }
        (want, want_stage)
    }

    /// Seams just before the lines a fork cannot read on its own, with
    /// the window hash colliding and not.
    #[test]
    fn seams_before_hard_lines_match_the_single_shard_stage() {
        // (case, lines, the line the seam goes before)
        let cases: [(&str, &[u8], usize); 7] = [
            (
                "continuation",
                b"alpha IN A 192.0.2.1\n\tIN NS ns.alpha.com.\nbeta IN A 192.0.2.2",
                1,
            ),
            (
                "owner resolved, then the line failed",
                b"alpha IN A 192.0.2.1\nbeta IN A nope\nbeta IN A 192.0.2.2\n\tIN NS ns.beta.com.",
                1,
            ),
            (
                "after an owner resolved and its line failed",
                b"alpha IN A 192.0.2.1\nbeta IN A nope\n\tIN NS ns.beta.com.\nbeta IN A 192.0.2.2",
                2,
            ),
            (
                "predecessor switched $ORIGIN",
                b"alpha IN A 192.0.2.1\n$ORIGIN net.\nalpha IN A 192.0.2.1\n\
                  alpha IN NS ns.alpha.net.\nbeta IN A 192.0.2.2",
                2,
            ),
            (
                "invalid UTF-8",
                b"alpha IN A 192.0.2.1\nalpha\xFF IN A 192.0.2.2\nalpha IN A 192.0.2.3",
                1,
            ),
            (
                "CRLF",
                b"alpha IN A 192.0.2.1\r\nalpha IN A 192.0.2.2\r\nbeta IN A 192.0.2.3\r",
                1,
            ),
            (
                "window repeat",
                b"foo.com. IN A 192.0.2.1\nfoo IN A 192.0.2.2\nbar IN A 192.0.2.3",
                1,
            ),
        ];
        for (name, bytes, at) in cases {
            for collide in [false, true] {
                let (seen, stage) = assert_seams_are_exact(bytes, &[5, 17], 64, collide, &[at]);
                let stats = stage.serial.stats;
                let owners: Vec<&str> = seen
                    .iter()
                    .filter_map(|item| match item {
                        Seen::Owner(owner) => Some(owner.as_str()),
                        Seen::Quarantined(..) => None,
                    })
                    .collect();
                // Each case's single-shard verdicts, so that no case is
                // vacuous.
                match name {
                    "continuation" => assert_eq!(stats.dedup_consecutive, 1, "{name}"),
                    "owner resolved, then the line failed" => {
                        assert_eq!(owners, ["alpha.com", "beta.com"], "{name}");
                        assert_eq!(
                            (stats.quarantined, stats.dedup_consecutive),
                            (1, 1),
                            "{name}"
                        );
                    }
                    "after an owner resolved and its line failed" => {
                        assert_eq!(owners, ["alpha.com", "beta.com"], "{name}");
                        assert_eq!(stats.dedup_consecutive, 1, "{name}");
                    }
                    "predecessor switched $ORIGIN" => {
                        assert_eq!(owners, ["alpha.com", "alpha.net", "beta.net"], "{name}")
                    }
                    "invalid UTF-8" => {
                        assert_eq!(
                            seen[1],
                            Seen::Quarantined(2, "invalid UTF-8".into()),
                            "{name}"
                        );
                        assert_eq!(stats.dedup_consecutive, 1, "{name}");
                    }
                    "CRLF" => assert_eq!(owners, ["alpha.com", "beta.com"], "{name}"),
                    _ => {
                        assert_eq!(
                            (stats.dedup_window, stats.dedup_consecutive),
                            (1, 0),
                            "{name}"
                        )
                    }
                }
            }
        }
        // The opening directive runs inline. Of the three shards after
        // it, the `$ORIGIN net.` one names no owner and the last was
        // forked under `com`, so both run whole (1 + 2 lines).
        let zone = b"$ORIGIN com.\nalpha IN A 192.0.2.1\n$ORIGIN net.\n\
                     alpha IN A 192.0.2.1\nbeta IN A 192.0.2.2\n";
        let mut stage = mix_stage(64, false);
        let seams = |lines: &[u8], seams: &mut Vec<usize>| {
            seams.extend(
                line_starts(lines)
                    .filter(|&(k, _)| k != 3)
                    .map(|(_, at)| at),
            )
        };
        let seen = run_cut(&mut stage, zone, &[zone.len()], &seams);
        assert_eq!(seen[1], Seen::Owner("alpha.net".into()));
        let record = stage.record;
        let split = (
            record.split_pushes,
            record.shards,
            record.shards_rerun,
            record.lines_rerun,
        );
        assert_eq!(split, (1, 3, 2, 3), "{record:?}");
    }

    /// A line over [`MAX_LINE_BYTES`] is one quarantined line, and one
    /// at the limit parses, however the bytes are pushed and cut.
    #[test]
    fn over_long_lines_are_quarantined_wherever_they_fall() {
        let fits = format!("x IN TXT {}", "a".repeat(MAX_LINE_BYTES - 9));
        assert_eq!(fits.len(), MAX_LINE_BYTES);
        let long = "b".repeat(MAX_LINE_BYTES + 1);
        let zone = format!("$ORIGIN com.\n{long}\nok IN A 192.0.2.1\n{fits}\nlast IN A 192.0.2.2");
        let pieces = [4096, 4099, 1 << 16];
        let (seen, stage) = assert_seams_are_exact(zone.as_bytes(), &pieces, 64, false, &[1, 2, 3]);
        let message = format!("line longer than {MAX_LINE_BYTES} bytes");
        assert_eq!(
            seen,
            [
                Seen::Quarantined(2, message),
                Seen::Owner("ok.com".into()),
                Seen::Owner("x.com".into()),
                Seen::Owner("last.com".into()),
            ]
        );
        assert_eq!(
            (stage.serial.stats.lines, stage.serial.stats.records),
            (5, 3)
        );
    }

    /// A stream with no newline at all is one line: the stage keeps at
    /// most [`MAX_LINE_BYTES`] of it, and the scanner and the zone feed
    /// quarantine it with the same message.
    #[test]
    fn a_newline_free_flood_is_one_quarantined_line() {
        use crate::ingest::{FeedItem, FeedSource};

        let flood = vec![b'a'; 8 * MAX_LINE_BYTES];
        let mut stage = mix_stage(64, false);
        for piece in flood.chunks(3_000) {
            stage.push(piece, &mut |_| panic!("an unfinished line emitted an item"));
            assert!(
                stage.carry.capacity() <= MAX_LINE_BYTES,
                "{}",
                stage.carry.capacity()
            );
        }
        let message = format!("line longer than {MAX_LINE_BYTES} bytes");

        let router = SessionRouter::new(shared_index(&["google"]));
        let mut scanner = ZoneScanner::new(router, ScanConfig::default());
        scanner.scan_reader("com", &flood[..]).unwrap();
        let report = scanner.finish();
        let com = report.per_tld["com"];
        assert_eq!(
            (com.bytes, com.lines, com.quarantined),
            (flood.len() as u64, 1, 1)
        );
        assert_eq!(report.quarantine_samples, [format!("line 1: {message}")]);

        let mut feed = crate::ZoneTextFeed::new("flood", "com", &flood[..]);
        let mut malformed = Vec::new();
        while let Some(item) = feed.next().expect("in-memory feeds never error") {
            match item {
                FeedItem::Malformed(why) => malformed.push(why),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(malformed, [format!("zone line 1: {message}")]);
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
            let (lines, bytes) = mix_bytes(&picks);

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

            let mut stage = mix_stage(capacity, collide == 1);
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
            let stats = stage.serial.stats;
            prop_assert!(stats.is_accounted(), "books open: {stats:?}");
            prop_assert_eq!(stats.lines, lines.len() as u64);
            prop_assert_eq!(stats.records, records);
            prop_assert_eq!(stats.quarantined, quarantined);
            prop_assert_eq!(stats.bytes, bytes.len() as u64);
        }

        /// Exact seams: with shard boundaries forced before each line in
        /// turn, before random lines and before every line (1-line
        /// shards), the stage emits what the single-shard stage emits,
        /// in the same order, and counts the same.
        #[test]
        fn forced_seams_match_the_single_shard_stage(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..80),
            splits in proptest::collection::vec(1usize..96, 1..16),
            window in 0usize..5,
            collide in 0u8..2,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let capacity = [0, 1, 2, 3, 64][window];
            let (lines, bytes) = mix_bytes(&picks);
            let every: Vec<usize> = (1..lines.len()).collect();
            let (want, _) = assert_seams_are_exact(&bytes, &splits, capacity, collide == 1, &every);
            let random = |lines: &[u8], seams: &mut Vec<usize>| {
                let picked =
                    |k: usize| (seed ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1;
                seams.extend(line_starts(lines).filter(|&(k, _)| picked(k)).map(|(_, at)| at))
            };
            for pieces in [&splits[..], &[bytes.len()]] {
                let mut stage = mix_stage(capacity, collide == 1);
                prop_assert_eq!(&run_cut(&mut stage, &bytes, pieces, &random), &want);
            }
        }
    }
}
