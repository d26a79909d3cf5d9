//! DNS master-file (zone file) parser and serializer.
//!
//! The measurement's Step 1 ingests the `.com` zone file (paper §5.2,
//! Verisign's published zone). This module implements the subset of
//! RFC 1035 master-file syntax such zone dumps use: `$ORIGIN` (exactly
//! one name) and `$TTL` (exactly one value) directives, `;` comments
//! (not inside quotes or after a `\` escape), `@` for the origin,
//! relative and absolute owner names, optional TTL/class fields, and the
//! record types of [`crate::records`].
//!
//! A line is read once before its fields are known: one pass, eight
//! bytes at a time, finds whether it is ASCII, whether it holds `;`, `"`
//! or `\` (only then is a comment stripped), and where its blank bytes
//! are. An ASCII line's tokens are then walked on that blank mask with
//! `trailing_zeros`; only a non-ASCII line is split with
//! `split_whitespace`. The owner and any NS/CNAME/MX target resolve into
//! reused names ([`DomainName::resolve_into`]), an all-ASCII name with
//! one check and one write, so a line of ASCII names allocates nothing.
//!
//! [`parse`] is strict (first error wins); [`parse_lenient`] skips bad
//! lines and reports them — zone dumps in the wild contain garbage, and
//! the failure-injection tests exercise exactly that.

use crate::records::{RecordData, RecordType, ResourceRecord};
use sham_punycode::DomainName;
use std::fmt::Write as _;

/// A parsed zone: an origin plus its records.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    /// Zone origin (e.g. `com`).
    pub origin: String,
    /// Default TTL applied where records omit one.
    pub default_ttl: u32,
    /// All records in file order.
    pub records: Vec<ResourceRecord>,
}

impl Zone {
    /// Iterates the distinct owner names, in first-appearance order.
    pub fn owner_names(&self) -> Vec<&DomainName> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.records {
            if seen.insert(&r.name) {
                out.push(&r.name);
            }
        }
        out
    }

    /// Serialises back to master-file text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "$ORIGIN {}.", self.origin);
        let _ = writeln!(s, "$TTL {}", self.default_ttl);
        for r in &self.records {
            let _ = writeln!(s, "{r}");
        }
        s
    }
}

/// A line-level parse problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ZoneError {}

fn err(line: usize, message: impl Into<String>) -> ZoneError {
    ZoneError { line, message: message.into() }
}

/// Resolves a name token against the origin into `slot`, reusing the
/// name already there. On error `slot` is left as it was.
fn resolve_into(
    slot: &mut Option<DomainName>,
    token: &str,
    origin: &str,
    line: usize,
) -> Result<(), ZoneError> {
    let resolved = match slot {
        Some(name) => name.resolve_into(token, Some(origin)),
        None => DomainName::resolve(token, Some(origin)).map(|name| *slot = Some(name)),
    };
    resolved.map_err(|e| err(line, format!("bad name {token:?}: {e}")))
}

struct LineParser {
    origin: String,
    default_ttl: u32,
    /// The current owner, resolved in place (reused buffer); `None`
    /// until the first owner resolves.
    last_owner: Option<DomainName>,
    /// The raw owner token `last_owner` was resolved from, under the
    /// current origin (reused buffer). A record line whose owner token
    /// matches byte-for-byte skips name resolution entirely — zone
    /// dumps list each delegation as a run of records for one owner,
    /// so this is the per-line hot path. Cleared when `$ORIGIN`
    /// changes (the same token would resolve differently).
    last_owner_token: String,
    /// The last NS/CNAME/MX target, resolved in place (reused buffer):
    /// every target is validated, but only cloned into [`RecordData`]
    /// when the caller wants record data.
    target: Option<DomainName>,
}

impl LineParser {
    fn new(fallback_origin: &str) -> Self {
        LineParser {
            origin: fallback_origin.to_string(),
            default_ttl: 86_400,
            last_owner: None,
            last_owner_token: String::new(),
            target: None,
        }
    }

    /// Resolves an NS/CNAME/MX target into the reused target name.
    fn target(&mut self, token: &str, no: usize) -> Result<&DomainName, ZoneError> {
        resolve_into(&mut self.target, token, &self.origin, no)?;
        Ok(self.target.as_ref().expect("a resolved target is stored"))
    }

    /// Parses one raw line. Returns `Ok(None)` for directives, comments
    /// and blank lines.
    fn parse_line(&mut self, raw: &str, no: usize) -> Result<Option<ResourceRecord>, ZoneError> {
        match self.scan_line(raw, no, true)? {
            None => Ok(None),
            Some((_, ttl, data)) => Ok(Some(ResourceRecord {
                name: self
                    .last_owner
                    .clone()
                    .expect("scan_line resolves an owner for every record line"),
                ttl,
                data: data.expect("want_data builds record data"),
            })),
        }
    }

    /// The shared line machine behind [`LineParser::parse_line`] and
    /// the allocation-conscious scan path: validates the line exactly
    /// like a full parse (same accept/reject decisions, same error
    /// messages) and tracks the owner state, but materialises
    /// [`RecordData`] only when `want_data` is set. Returns `None` for
    /// directives, comments and blank lines and `Some((owner_changed,
    /// ttl, data))` for records; the resolved owner is left in
    /// `self.last_owner`. Owners and targets resolve into reused names,
    /// so with `want_data` unset a line of ASCII names allocates nothing.
    fn scan_line(
        &mut self,
        raw: &str,
        no: usize,
        want_data: bool,
    ) -> Result<Option<(bool, u32, Option<RecordData>)>, ZoneError> {
        let class = classify(raw.as_bytes());
        let (line, mut tokens) = if class.plain {
            (raw, Tokens::classified(raw, &class))
        } else {
            let line = strip_comment(raw);
            (line, Tokens::of(line))
        };
        let Some(first) = tokens.next() else {
            return Ok(None);
        };

        // A directive is the whole first token of a line that starts
        // with it: `$ORIGINAL x` and `$TTL3600` are record lines (with
        // an unknown type), not directives. Each takes one value.
        if line.starts_with('$') && matches!(first, "$ORIGIN" | "$TTL") {
            let value = tokens.next().unwrap_or("");
            let extra = tokens.next();
            if first == "$TTL" {
                if let Some(extra) = extra {
                    return Err(err(no, format!("$TTL takes one value, found extra {extra:?}")));
                }
                self.default_ttl = value.parse().map_err(|e| err(no, format!("bad $TTL: {e}")))?;
                return Ok(None);
            }
            let token = value.trim_end_matches('.');
            if token.is_empty() {
                return Err(err(no, "$ORIGIN requires a name"));
            }
            if let Some(extra) = extra {
                return Err(err(no, format!("$ORIGIN takes one name, found extra {extra:?}")));
            }
            if token != self.origin {
                self.origin.clear();
                self.origin.push_str(token);
                // The cached owner token resolved against the old
                // origin; the same token now names a different owner.
                self.last_owner_token.clear();
            }
            return Ok(None);
        }

        // Owner: blank-led lines reuse the previous owner, and so does
        // a repeated owner token (the dominant case — records arrive in
        // per-owner runs); a new token resolves into the reused owner.
        // `tok` is the first token after the owner.
        let (owner_changed, mut tok) = if line.starts_with([' ', '\t']) {
            if self.last_owner.is_none() {
                return Err(err(no, "continuation line with no previous owner"));
            }
            (false, Some(first))
        } else if self.last_owner.is_some() && first == self.last_owner_token {
            (false, tokens.next())
        } else {
            resolve_into(&mut self.last_owner, first, &self.origin, no)?;
            self.last_owner_token.clear();
            self.last_owner_token.push_str(first);
            (true, tokens.next())
        };

        // Optional TTL and class. Only a token that starts with a digit
        // or `+` can parse as a `u32`.
        let mut ttl = self.default_ttl;
        let numeric = |t: &&str| matches!(t.as_bytes()[0], b'0'..=b'9' | b'+');
        if let Some(v) = tok.filter(numeric).and_then(|t| t.parse().ok()) {
            ttl = v;
            tok = tokens.next();
        }
        if tok.is_some_and(|t| t.eq_ignore_ascii_case("IN")) {
            tok = tokens.next();
        }

        let type_tok = tok.ok_or_else(|| err(no, "missing record type"))?;
        let rtype = RecordType::parse(type_tok)
            .ok_or_else(|| err(no, format!("unsupported record type {type_tok:?}")))?;

        let data = match rtype {
            RecordType::A => {
                let ip = tokens.next().ok_or_else(|| err(no, "A record missing address"))?;
                let addr: std::net::Ipv4Addr =
                    ip.parse().map_err(|e| err(no, format!("bad IPv4: {e}")))?;
                want_data.then_some(RecordData::A(addr))
            }
            RecordType::Aaaa => {
                let ip = tokens.next().ok_or_else(|| err(no, "AAAA record missing address"))?;
                let addr: std::net::Ipv6Addr =
                    ip.parse().map_err(|e| err(no, format!("bad IPv6: {e}")))?;
                want_data.then_some(RecordData::Aaaa(addr))
            }
            RecordType::Ns => {
                let t = tokens.next().ok_or_else(|| err(no, "NS record missing target"))?;
                let target = self.target(t, no)?;
                want_data.then(|| RecordData::Ns(target.clone()))
            }
            RecordType::Cname => {
                let t = tokens.next().ok_or_else(|| err(no, "CNAME missing target"))?;
                let target = self.target(t, no)?;
                want_data.then(|| RecordData::Cname(target.clone()))
            }
            RecordType::Mx => {
                let pref = tokens
                    .next()
                    .ok_or_else(|| err(no, "MX missing preference"))?
                    .parse()
                    .map_err(|e| err(no, format!("bad MX preference: {e}")))?;
                let t = tokens.next().ok_or_else(|| err(no, "MX missing exchange"))?;
                let exchange = self.target(t, no)?;
                want_data.then(|| RecordData::Mx { preference: pref, exchange: exchange.clone() })
            }
            // TXT payloads cannot fail validation; the scan path skips
            // the join entirely (no per-line String).
            RecordType::Txt => want_data.then(|| {
                let rest: Vec<&str> = tokens.collect();
                let joined = rest.join(" ");
                RecordData::Txt(joined.trim_matches('"').to_string())
            }),
        };
        Ok(Some((owner_changed, ttl, data)))
    }
}

/// What one scanned line contained, from [`ZoneStreamParser::scan_line`].
///
/// `Record` borrows the parser's resolved owner instead of cloning it —
/// the batch scan pipeline decides *whether* it wants the owner (dedup,
/// blacklist) before paying for an owned copy.
#[derive(Debug, PartialEq, Eq)]
pub enum ZoneScan<'a> {
    /// A well-formed record line. `new_owner` is false when the line
    /// reused the previous record's owner (continuation line or
    /// repeated owner token) — the consecutive-owner dedup signal, for
    /// free. A malformed line in between makes it true.
    Record {
        /// The record's owner name, borrowed from the parser state.
        owner: &'a DomainName,
        /// False when this line's owner is the same as the previous
        /// record line's.
        new_owner: bool,
    },
    /// A directive, comment, or blank line — nothing to detect on.
    Skip,
}

/// Eight copies of the byte 0x01, and of 0x80.
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Calls `f` with the index and value of each little-endian eight-byte
/// word of `bytes`; the last one is padded with zero bytes, which are
/// ASCII, not blank and not special.
fn for_words(bytes: &[u8], mut f: impl FnMut(usize, u64)) {
    let load = |word: &[u8]| u64::from_le_bytes(word.try_into().expect("eight bytes"));
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        f(i, load(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Reread the last eight bytes and shift out the ones seen.
        let x = match bytes.len().checked_sub(8) {
            Some(at) => load(&bytes[at..]) >> (8 * (8 - tail.len())),
            None => tail.iter().rev().fold(0, |x, &b| x << 8 | u64::from(b)),
        };
        f(bytes.len() / 8, x);
    }
}

/// 0x80 in each blank byte of `x`, a word of ASCII bytes: tab, line
/// feed, vertical tab, form feed, carriage return (0x09..=0x0D) and
/// space, exactly the ASCII bytes `char::is_whitespace` (the Unicode
/// `White_Space` property) accepts. Each sum stays inside its byte, so
/// the marks are exact; a byte of 0x80 or above may carry into the
/// next, which is why only an ASCII line's mask is ever read.
fn blank_bytes(x: u64) -> u64 {
    let control = x.wrapping_add(LO * (0x80 - 0x09)) & !x.wrapping_add(LO * (0x80 - 0x0E));
    let space = !(x ^ (LO * u64::from(b' '))).wrapping_add(LO * 0x7F);
    (control | space) & HI
}

/// Gathers the high bits of the eight bytes of `x` into bit 0..8.
fn gather(x: u64) -> u64 {
    (x >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The blank mask of up to 64 bytes: bit `i` is set when byte `i` is
/// blank or lies past the end of `block`.
fn blank_mask(block: &[u8]) -> u64 {
    let mut mask = past_end(block.len());
    for_words(block, |i, x| mask |= gather(blank_bytes(x)) << (8 * i));
    mask
}

/// The bits of a 64-bit mask at or past `len`.
fn past_end(len: usize) -> u64 {
    if len < 64 {
        !0 << len
    } else {
        0
    }
}

/// What one pass over a raw line found, eight bytes at a time.
struct LineClass {
    /// No byte is 0x80 or above.
    ascii: bool,
    /// No `;`, `"` or `\`, so there is no comment to strip.
    plain: bool,
    /// The blank bytes among the first 64: bit `i` for byte `i`.
    blanks: u64,
}

/// Reads a raw line once, eight bytes at a time.
fn classify(bytes: &[u8]) -> LineClass {
    // `y` has a zero byte exactly when `y.wrapping_sub(LO) & !y & HI` is
    // not zero; the borrow may mark a byte above a zero one too.
    let has = |x: u64, b: u8| {
        let y = x ^ (LO * u64::from(b));
        y.wrapping_sub(LO) & !y
    };
    let (mut high, mut special, mut blanks) = (0, 0, 0);
    for_words(bytes, |i, x| {
        high |= x;
        special |= has(x, b';') | has(x, b'"') | has(x, b'\\');
        if i < 8 {
            blanks |= gather(blank_bytes(x)) << (8 * i);
        }
    });
    LineClass { ascii: high & HI == 0, plain: special & HI == 0, blanks }
}

/// A record line's whitespace-separated tokens, exactly as
/// [`str::split_whitespace`] yields them. An ASCII line, the common
/// case, is walked on its blank mask, one `u64` per 64 bytes: in ASCII
/// text `split_whitespace` splits at exactly the bytes [`blank_bytes`]
/// marks. The first 64 bytes' mask comes from the line's [`classify`]
/// pass, and the walk builds each later block's when it gets there.
enum Tokens<'a> {
    Ascii(BlankWalk<'a>),
    Unicode(std::str::SplitWhitespace<'a>),
}

/// The walk over an ASCII line's blank mask. Each token starts at a
/// non-blank byte after a blank one (or at the line's start) and ends at
/// the next blank byte (or at the line's end), so `trailing_zeros` on
/// the block's start and end masks finds both.
struct BlankWalk<'a> {
    line: &'a str,
    /// The blank mask of the 64-byte block at `base`, with the bits past
    /// the line's end set.
    blanks: u64,
    /// The block's token starts and ends not yet walked past.
    starts: u64,
    ends: u64,
    base: usize,
}

impl<'a> BlankWalk<'a> {
    /// A walk over `line`, whose first 64 bytes' blank mask is `blanks`.
    fn new(line: &'a str, blanks: u64) -> Self {
        // The line's start counts as coming after a blank.
        let mut walk = BlankWalk { line, blanks: !0, starts: 0, ends: 0, base: 0 };
        walk.load(blanks | past_end(line.len()));
        walk
    }

    /// Takes `blanks` as the mask of the block at `base`, which follows
    /// the block whose mask `self.blanks` is.
    fn load(&mut self, blanks: u64) {
        let after_blank = blanks << 1 | self.blanks >> 63;
        self.blanks = blanks;
        self.starts = !blanks & after_blank;
        self.ends = blanks & !after_blank;
    }

    /// The next token.
    #[inline]
    fn next_token(&mut self) -> Option<&'a str> {
        while self.starts == 0 {
            if !self.advance() {
                return None;
            }
        }
        let start = self.base + self.starts.trailing_zeros() as usize;
        self.starts &= self.starts - 1;
        // A token that reaches past its block ends in a later one.
        while self.ends == 0 {
            if !self.advance() {
                return Some(&self.line[start..]);
            }
        }
        let end = self.base + self.ends.trailing_zeros() as usize;
        self.ends &= self.ends - 1;
        Some(&self.line[start..end])
    }

    /// Moves on to the next 64-byte block; false at the line's end.
    #[cold]
    fn advance(&mut self) -> bool {
        let len = self.line.len();
        if len - self.base <= 64 {
            return false;
        }
        self.base += 64;
        let block = &self.line.as_bytes()[self.base..len.min(self.base + 64)];
        self.load(blank_mask(block));
        true
    }
}

impl<'a> Tokens<'a> {
    /// The tokens of `line`, classified here.
    fn of(line: &'a str) -> Self {
        Self::classified(line, &classify(line.as_bytes()))
    }

    /// The tokens of `line`, which `class` describes.
    fn classified(line: &'a str, class: &LineClass) -> Self {
        if class.ascii {
            Tokens::Ascii(BlankWalk::new(line, class.blanks))
        } else {
            Tokens::Unicode(line.split_whitespace())
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        match self {
            Tokens::Ascii(walk) => walk.next_token(),
            Tokens::Unicode(tokens) => unicode_token(tokens),
        }
    }
}

/// The next token of a non-ASCII line, kept out of line: the ASCII walk
/// is the hot path.
#[inline(never)]
fn unicode_token<'a>(tokens: &mut std::str::SplitWhitespace<'a>) -> Option<&'a str> {
    tokens.next()
}

/// Cuts a line that is not [`LineClass::plain`] at its comment.
fn strip_comment(line: &str) -> &str {
    // A ';' inside a quoted TXT string is data, not a comment, and a
    // backslash escapes the byte after it (RFC 1035 §5.1), so neither
    // `\;` nor `\"` ends or toggles anything. All three bytes are
    // ASCII, so a byte scan is exact on UTF-8: a skipped byte that starts
    // a multi-byte character leaves only continuation bytes, which never
    // match.
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b'\\' => idx += 1,
            b'"' => in_quotes = !in_quotes,
            b';' if !in_quotes => return &line[..idx],
            _ => {}
        }
        idx += 1;
    }
    line
}

/// Incremental master-file parser: feed it one raw line at a time (in
/// any chunking a network read delivers) and collect records as they
/// complete.
///
/// This is the streaming face of [`parse`]/[`parse_lenient`]: the same
/// line-level machine ($ORIGIN/$TTL state, previous-owner
/// continuation, comment stripping), detached from any borrowed input
/// buffer so a connector can hold it across reads. A malformed line
/// yields `Err` for *that line only* — the parser state stays valid
/// and the next line parses normally, which is what lets an ingest
/// connector quarantine bad records instead of dying.
///
/// ```
/// use sham_dns::zone::ZoneStreamParser;
///
/// let mut parser = ZoneStreamParser::new("com");
/// assert!(parser.push_line("$ORIGIN com.").unwrap().is_none());
/// let rr = parser.push_line("google IN NS ns1.google.com.").unwrap().unwrap();
/// assert_eq!(rr.name.as_ascii(), "google.com");
/// assert!(parser.push_line("broken IN A nope").is_err());
/// // The error poisoned nothing: parsing continues.
/// assert!(parser.push_line("mail IN A 192.0.2.1").unwrap().is_some());
/// ```
pub struct ZoneStreamParser {
    inner: LineParser,
    line_no: usize,
    /// A line failed since the last record. It may have resolved a new
    /// owner before failing, so the next record's owner is not known
    /// to repeat the last record's.
    failed_since_record: bool,
}

impl ZoneStreamParser {
    /// A fresh parser resolving relative names against
    /// `fallback_origin` until a `$ORIGIN` directive overrides it.
    pub fn new(fallback_origin: &str) -> Self {
        ZoneStreamParser {
            inner: LineParser::new(fallback_origin),
            line_no: 0,
            failed_since_record: false,
        }
    }

    /// Consumes one raw line (comments and surrounding blank space
    /// included). Returns `Ok(Some(record))` for a data line,
    /// `Ok(None)` for directives, comments and blanks, and `Err` for a
    /// malformed line — after which the parser remains usable.
    pub fn push_line(&mut self, raw: &str) -> Result<Option<ResourceRecord>, ZoneError> {
        self.line_no += 1;
        self.inner.parse_line(raw, self.line_no)
    }

    /// Consumes one raw line like [`push_line`](Self::push_line) but
    /// without materialising a [`ResourceRecord`]: the owner comes back
    /// borrowed and record data (addresses, TXT payloads) is validated
    /// but never allocated. Accept/reject decisions and error messages
    /// are identical to `push_line` — the batch scanner and the strict
    /// parser classify every line the same way.
    ///
    /// A line whose names are all ASCII allocates nothing at all once
    /// the parser's reused names have grown to fit: a new owner and an
    /// NS/CNAME/MX target are resolved in place, and only a non-ASCII
    /// label takes the Punycode path.
    pub fn scan_line(&mut self, raw: &str) -> Result<ZoneScan<'_>, ZoneError> {
        self.line_no += 1;
        match self.inner.scan_line(raw, self.line_no, false) {
            Err(error) => {
                self.failed_since_record = true;
                Err(error)
            }
            Ok(None) => Ok(ZoneScan::Skip),
            Ok(Some((owner_changed, _ttl, _data))) => {
                let failed = std::mem::take(&mut self.failed_since_record);
                Ok(ZoneScan::Record {
                    owner: self
                        .inner
                        .last_owner
                        .as_ref()
                        .expect("scan_line resolves an owner for every record line"),
                    new_owner: owner_changed || failed,
                })
            }
        }
    }

    /// A speculative parser for the lines that follow this one's: the
    /// current `$ORIGIN` and `$TTL`, no owner history, and lines counted
    /// from zero.
    ///
    /// Given the same lines, a fork reaches this parser's state at the
    /// end of the first well-formed record line that names its owner
    /// (does not start with a blank), provided this parser still has the
    /// fork's origin and TTL where those lines begin: both then hold that
    /// line's owner and token, the same directive state and no failure
    /// mark. Every later line scans the same in both, apart from error
    /// line numbers, which the fork counts from its first line. The
    /// zone scanner parses line shards with forks on that basis and
    /// [`adopt`](Self::adopt)s them.
    pub fn fork(&self) -> ZoneStreamParser {
        let mut fork = ZoneStreamParser::new(&self.inner.origin);
        fork.inner.default_ttl = self.inner.default_ttl;
        fork
    }

    /// Continues the stream from `fork`, a [`fork`](Self::fork) that read
    /// the lines after the stream's first `lines`: this parser takes the
    /// fork's state and numbers its next line after the fork's last. The
    /// state it held goes to `fork`.
    pub fn adopt(&mut self, fork: &mut ZoneStreamParser, lines: usize) {
        std::mem::swap(self, fork);
        self.line_no += lines;
    }

    /// Lines consumed so far (1-based line number of the last push).
    pub fn lines_seen(&self) -> usize {
        self.line_no
    }

    /// The current origin (tracks `$ORIGIN` directives).
    pub fn origin(&self) -> &str {
        &self.inner.origin
    }

    /// The current default TTL (tracks `$TTL` directives).
    pub fn default_ttl(&self) -> u32 {
        self.inner.default_ttl
    }
}

/// Strict parse: the first malformed line aborts.
pub fn parse(text: &str, fallback_origin: &str) -> Result<Zone, ZoneError> {
    let mut parser = ZoneStreamParser::new(fallback_origin);
    let mut records = Vec::new();
    for raw in text.lines() {
        if let Some(rr) = parser.push_line(raw)? {
            records.push(rr);
        }
    }
    Ok(Zone {
        origin: parser.inner.origin,
        default_ttl: parser.inner.default_ttl,
        records,
    })
}

/// Lenient parse: malformed lines are collected, good lines kept.
pub fn parse_lenient(text: &str, fallback_origin: &str) -> (Zone, Vec<ZoneError>) {
    let mut parser = ZoneStreamParser::new(fallback_origin);
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for raw in text.lines() {
        match parser.push_line(raw) {
            Ok(Some(rr)) => records.push(rr),
            Ok(None) => {}
            Err(e) => errors.push(e),
        }
    }
    (
        Zone {
            origin: parser.inner.origin,
            default_ttl: parser.inner.default_ttl,
            records,
        },
        errors,
    )
}

/// Parses a plain domain list (one name per line, `#` comments) — the
/// `domainlists.io`-style complement of Table 6.
pub fn parse_domain_list(text: &str) -> (Vec<DomainName>, usize) {
    let mut out = Vec::new();
    let mut bad = 0usize;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match DomainName::parse(line) {
            Ok(d) => out.push(d),
            Err(_) => bad += 1,
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert_eq;
    use sham_punycode::domain::MAX_NAME_OCTETS;
    use sham_punycode::{to_ascii, PunycodeError};

    const SAMPLE: &str = "\
$ORIGIN com.
$TTL 172800
; delegation records
google\tIN\tNS\tns1.google.com.
google\tIN\tNS\tns2.google.com.
xn--ggle-55da 3600 IN NS ns1.parking.example.
www.google IN A 192.0.2.10
mail IN MX 10 mx.mail.com.
alias IN CNAME www.google.com.
note IN TXT \"hello; world\"
";

    #[test]
    fn parses_sample_zone() {
        let zone = parse(SAMPLE, "com").unwrap();
        assert_eq!(zone.origin, "com");
        assert_eq!(zone.default_ttl, 172_800);
        assert_eq!(zone.records.len(), 7);
        assert_eq!(zone.records[0].name.as_ascii(), "google.com");
        assert_eq!(zone.records[2].ttl, 3600);
        assert_eq!(zone.records[2].name.as_ascii(), "xn--ggle-55da.com");
    }

    #[test]
    fn relative_and_absolute_names() {
        let zone = parse(SAMPLE, "com").unwrap();
        match &zone.records[0].data {
            RecordData::Ns(ns) => assert_eq!(ns.as_ascii(), "ns1.google.com"),
            other => panic!("expected NS, got {other:?}"),
        }
        match &zone.records[4].data {
            RecordData::Mx { preference, exchange } => {
                assert_eq!(*preference, 10);
                assert_eq!(exchange.as_ascii(), "mx.mail.com");
            }
            other => panic!("expected MX, got {other:?}"),
        }
    }

    #[test]
    fn quoted_semicolon_is_not_a_comment() {
        let zone = parse(SAMPLE, "com").unwrap();
        match &zone.records[6].data {
            RecordData::Txt(t) => assert_eq!(t, "hello; world"),
            other => panic!("expected TXT, got {other:?}"),
        }
    }

    #[test]
    fn at_sign_is_origin() {
        let zone = parse("$ORIGIN example.com.\n@ IN A 192.0.2.1\n", "").unwrap();
        assert_eq!(zone.records[0].name.as_ascii(), "example.com");
    }

    #[test]
    fn continuation_lines_reuse_owner() {
        let text = "$ORIGIN com.\ngoogle IN NS ns1.google.com.\n\tIN NS ns2.google.com.\n";
        let zone = parse(text, "com").unwrap();
        assert_eq!(zone.records.len(), 2);
        assert_eq!(zone.records[1].name.as_ascii(), "google.com");
    }

    #[test]
    fn strict_parse_reports_line_numbers() {
        let text = "$ORIGIN com.\ngood IN A 192.0.2.1\nbad IN A not-an-ip\n";
        let e = parse(text, "com").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bad IPv4"));
    }

    #[test]
    fn lenient_parse_skips_garbage() {
        let text = "$ORIGIN com.\n\
                    good IN A 192.0.2.1\n\
                    broken IN A nope\n\
                    alsogood IN NS ns.x.com.\n\
                    ???\n";
        let (zone, errors) = parse_lenient(text, "com");
        assert_eq!(zone.records.len(), 2);
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn round_trip_through_text() {
        let zone = parse(SAMPLE, "com").unwrap();
        let text = zone.to_text();
        let again = parse(&text, "com").unwrap();
        assert_eq!(zone.records, again.records);
    }

    #[test]
    fn domain_list_parsing() {
        let (names, bad) = parse_domain_list(
            "google.com\n# comment\nxn--ggle-55da.com\n..bad..\nexample.com # trailing\n",
        );
        assert_eq!(names.len(), 3);
        assert_eq!(bad, 1);
    }

    #[test]
    fn stream_parser_matches_batch_parse_and_survives_errors() {
        let noisy = "$ORIGIN com.\n\
                     good IN A 192.0.2.1\n\
                     broken IN A nope\n\
                     alsogood IN NS ns.x.com.\n";
        let (zone, errors) = parse_lenient(noisy, "com");
        let mut parser = ZoneStreamParser::new("com");
        let mut records = Vec::new();
        let mut failures = Vec::new();
        for raw in noisy.lines() {
            match parser.push_line(raw) {
                Ok(Some(rr)) => records.push(rr),
                Ok(None) => {}
                Err(e) => failures.push(e),
            }
        }
        assert_eq!(records, zone.records);
        assert_eq!(failures, errors);
        assert_eq!(parser.origin(), "com");
        assert_eq!(parser.lines_seen(), 4);
    }

    #[test]
    fn unsupported_type_is_an_error() {
        let e = parse("$ORIGIN com.\nx IN SOA whatever\n", "com").unwrap_err();
        assert!(e.message.contains("unsupported record type"));
    }

    #[test]
    fn scan_line_classifies_like_push_line() {
        // Lines of exactly 64 and 65 bytes: the first one's last token
        // ends on the mask word's boundary, the second one's crosses it.
        let target = " IN NS ns1.good.com.";
        let at_64 = format!("{}{target}", "w".repeat(64 - target.len()));
        let at_65 = format!("{}{target}", "x".repeat(65 - target.len()));
        let (owner_64, owner_65) =
            (format!("{}.com", &at_64[..44]), format!("{}.com", &at_65[..45]));
        // Each line, with what both must make of it: a record's owner and
        // TTL, `None` for nothing to detect on, or the error message.
        let cases = [
            ("$ORIGIN com.", Ok(None)),
            ("$TTL 3600", Ok(None)),
            ("; comment", Ok(None)),
            (" \t\u{0B}\u{0C}\r ", Ok(None)),
            ("good IN A 192.0.2.1", Ok(Some(("good.com", 3600)))),
            ("good IN NS ns1.good.com.", Ok(Some(("good.com", 3600)))),
            ("\tIN NS ns2.good.com.", Ok(Some(("good.com", 3600)))),
            ("broken IN A nope", Err("bad IPv4: invalid IPv4 address syntax")),
            ("??? garbage line", Err("unsupported record type \"garbage\"")),
            ("other IN MX 10 mx.other.com.", Ok(Some(("other.com", 3600)))),
            ("note IN TXT \"x; y\"", Ok(Some(("note.com", 3600)))),
            ("bad IN MX ten mx.bad.com.", Err("bad MX preference: invalid digit found in string")),
            // `u32::from_str` takes a leading `+`; 2^32 is no TTL, so it
            // is read as the type.
            ("$TTL 60", Ok(None)),
            ("plus +3600 IN A 192.0.2.2", Ok(Some(("plus.com", 3600)))),
            ("big 4294967296 IN A 192.0.2.3", Err("unsupported record type \"4294967296\"")),
            ("lower 120 in ns ns1.lower.com.", Ok(Some(("lower.com", 120)))),
            // The comment cuts the address token short of `;`.
            ("cut IN A 192.0.2.4;5", Ok(Some(("cut.com", 60)))),
            ("cut IN A;AAAA ::1", Err("A record missing address")),
            (at_64.as_str(), Ok(Some((owner_64.as_str(), 60)))),
            (at_65.as_str(), Ok(Some((owner_65.as_str(), 60)))),
        ];
        assert_eq!((at_64.len(), at_65.len()), (64, 65));
        let mut pusher = ZoneStreamParser::new("com");
        let mut scanner = ZoneStreamParser::new("com");
        for (raw, expected) in cases {
            let pushed = pusher.push_line(raw);
            let got = match &pushed {
                Ok(rr) => Ok(rr.as_ref().map(|rr| (rr.name.as_ascii(), rr.ttl))),
                Err(e) => Err(e.message.as_str()),
            };
            assert_eq!(got, expected, "push_line on {raw:?}");
            let scanned = scanner.scan_line(raw);
            match (pushed, scanned) {
                (Ok(Some(rr)), Ok(ZoneScan::Record { owner, .. })) => {
                    assert_eq!(&rr.name, owner, "owner mismatch on {raw:?}");
                }
                (Ok(None), Ok(ZoneScan::Skip)) => {}
                (Err(a), Err(b)) => assert_eq!(a, b, "error mismatch on {raw:?}"),
                (p, s) => panic!("classification diverged on {raw:?}: push={p:?} scan={s:?}"),
            }
        }
        assert_eq!(pusher.lines_seen(), scanner.lines_seen());
    }

    #[test]
    fn scan_line_flags_owner_runs() {
        let mut p = ZoneStreamParser::new("com");
        let new_owner = |r: Result<ZoneScan<'_>, ZoneError>| match r.unwrap() {
            ZoneScan::Record { new_owner, .. } => new_owner,
            ZoneScan::Skip => panic!("expected a record"),
        };
        assert!(new_owner(p.scan_line("alpha IN A 192.0.2.1")));
        // Repeated owner token and continuation line: same owner.
        assert!(!new_owner(p.scan_line("alpha IN NS ns1.alpha.com.")));
        assert!(!new_owner(p.scan_line("\tIN NS ns2.alpha.com.")));
        assert!(new_owner(p.scan_line("beta IN A 192.0.2.2")));
        // Back to a previously seen owner: the cache only remembers the
        // immediately preceding token, so this counts as new again.
        assert!(new_owner(p.scan_line("alpha IN A 192.0.2.3")));
    }

    #[test]
    fn scan_line_owner_runs_restart_after_a_malformed_line() {
        let mut p = ZoneStreamParser::new("com");
        let new_owner = |r: Result<ZoneScan<'_>, ZoneError>| match r.unwrap() {
            ZoneScan::Record { new_owner, .. } => new_owner,
            ZoneScan::Skip => panic!("expected a record"),
        };
        assert!(new_owner(p.scan_line("alpha IN A 192.0.2.1")));
        // `beta` resolves, then its address fails: no record of beta
        // has been seen, so neither of the next lines repeats one.
        assert!(p.scan_line("beta IN A nope").is_err());
        assert!(new_owner(p.scan_line("beta IN A 192.0.2.2")));
        assert!(!new_owner(p.scan_line("\tIN NS ns1.beta.com.")));
        assert!(p.scan_line("beta IN A nope").is_err());
        assert!(new_owner(p.scan_line("\tIN NS ns2.beta.com.")));
        // A record clears the mark even when its owner is new anyway.
        assert!(p.scan_line("??? garbage").is_err());
        assert!(new_owner(p.scan_line("gamma IN A 192.0.2.3")));
        assert!(!new_owner(p.scan_line("gamma IN NS ns1.gamma.com.")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The classifier and the blank-mask walk decide like the plain
        /// scans: `ascii` is `is_ascii`, `plain` is the absence of `;`,
        /// `"` and `\`, and the tokens are `split_whitespace`'s, over
        /// every ASCII blank, a control byte that is not blank, U+00A0
        /// and U+0085, on lines long enough to span one, two and three
        /// 64-byte mask words.
        #[test]
        fn fast_line_scans_match_the_plain_ones(
            picks in proptest::collection::vec(0usize..12, 0..160),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // The top two bits of `seed` let a line hold non-ASCII
            // characters and special bytes, so that long lines without
            // them come up too.
            let (unicode, special) = (seed >> 63 == 1, seed >> 62 & 1 == 1);
            let line: String = picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| match pick {
                    0 => ' ',
                    1 => '\t',
                    2 => '\u{0B}',
                    3 => '\u{0C}',
                    4 => '\r',
                    5 => '\u{1C}',
                    6 if unicode => '\u{A0}',
                    7 if unicode => '\u{85}',
                    8 if special => [';', '"', '\\'][(seed >> (i % 60)) as usize % 3],
                    _ => char::from(b'a' + ((seed >> (i % 56)) % 26) as u8),
                })
                .collect();
            let class = classify(line.as_bytes());
            prop_assert_eq!(class.ascii, line.is_ascii());
            let has_special = line.contains([';', '"', '\\']);
            prop_assert_eq!(class.plain, !has_special);
            let tokens: Vec<&str> = Tokens::of(&line).collect();
            let expected: Vec<&str> = line.split_whitespace().collect();
            prop_assert_eq!(tokens, expected);
        }
    }

    #[test]
    fn every_ascii_byte_splits_like_split_whitespace() {
        for b in 0u8..128 {
            let line = format!("a{}b{}", b as char, b as char);
            let tokens: Vec<&str> = Tokens::of(&line).collect();
            let expected: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(tokens, expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn a_fork_joins_the_stream_at_its_first_named_owner() {
        let head = [
            "$ORIGIN net.",
            "$TTL 60",
            "alpha IN A 192.0.2.1",
            "beta IN A nope",
        ];
        let tail = [
            "\tIN NS ns.beta.net.",
            "beta IN NS ns.beta.net.",
            "beta IN A 192.0.2.2",
            "bad IN A x",
        ];
        let mut whole = ZoneStreamParser::new("com");
        for line in head {
            let _ = whole.scan_line(line);
        }
        let mut fork = whole.fork();
        assert_eq!(
            (fork.origin(), fork.default_ttl(), fork.lines_seen()),
            ("net", 60, 0)
        );
        let scans: Vec<_> = tail
            .iter()
            .map(|line| {
                let scan = |p: &mut ZoneStreamParser| match p.scan_line(line) {
                    Ok(ZoneScan::Record { owner, new_owner }) => {
                        Ok((owner.as_ascii().to_string(), new_owner))
                    }
                    Ok(ZoneScan::Skip) => Err("skip".to_string()),
                    Err(e) => Err(e.message),
                };
                (scan(&mut whole), scan(&mut fork))
            })
            .collect();
        // No owner history: the continuation fails and the first named
        // owner counts as new; from the next line on the two agree.
        assert_eq!(
            scans[0].1,
            Err("continuation line with no previous owner".into())
        );
        assert_eq!(scans[0].0, Ok(("beta.net".into(), true)));
        assert_eq!(
            scans[1],
            (
                Ok(("beta.net".into(), false)),
                Ok(("beta.net".into(), true))
            )
        );
        assert_eq!(scans[2].0, scans[2].1);
        assert_eq!(scans[3].0, scans[3].1);
        assert_eq!(fork.lines_seen(), tail.len());
        whole.adopt(&mut fork, head.len());
        assert_eq!(whole.lines_seen(), head.len() + tail.len());
        assert_eq!(whole.scan_line("x IN A nope").unwrap_err().line, 9);
        assert!(matches!(
            whole.scan_line("\tIN A 192.0.2.3"),
            Ok(ZoneScan::Record {
                new_owner: true,
                ..
            })
        ));
    }

    #[test]
    fn owner_token_cache_respects_origin_change() {
        let text = "$ORIGIN com.\n\
                    shop IN A 192.0.2.1\n\
                    $ORIGIN net.\n\
                    shop IN A 192.0.2.2\n";
        let zone = parse(text, "com").unwrap();
        assert_eq!(zone.records[0].name.as_ascii(), "shop.com");
        assert_eq!(zone.records[1].name.as_ascii(), "shop.net");
    }

    #[test]
    fn owner_cache_not_poisoned_by_bad_owner() {
        let mut p = ZoneStreamParser::new("com");
        assert!(p.push_line("good IN A 192.0.2.1").unwrap().is_some());
        // A malformed owner errors without clobbering the cached owner.
        assert!(p.push_line("..bad.. IN A 192.0.2.2").is_err());
        let rr = p.push_line("\tIN A 192.0.2.3").unwrap().unwrap();
        assert_eq!(rr.name.as_ascii(), "good.com");
    }

    #[test]
    fn origin_directive_takes_exactly_one_name() {
        let text = "$ORIGINAL x\n\
                    foo IN A 192.0.2.1\n\
                    $ORIGIN com. junk\n\
                    bar IN A 192.0.2.2\n";
        let (zone, errors) = parse_lenient(text, "com");
        let owners: Vec<&str> = zone.records.iter().map(|r| r.name.as_ascii()).collect();
        assert_eq!(owners, ["foo.com", "bar.com"]);
        assert_eq!(zone.origin, "com");
        // `$ORIGINAL` is no directive: it parses as a record line whose
        // owner is `$ORIGINAL` and whose type `x` is unknown.
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 1);
        assert!(errors[0].message.contains("unsupported record type \"x\""), "{errors:?}");
        assert_eq!(errors[1].line, 3);
        assert!(errors[1].message.starts_with("$ORIGIN takes one name"), "{errors:?}");
        assert!(errors[1].message.contains("junk"), "{errors:?}");

        let mut p = ZoneStreamParser::new("com");
        assert!(p.push_line("$ORIGIN net. org.").is_err());
        assert_eq!(p.origin(), "com");
        assert!(p.push_line("$ORIGIN\tNet.").unwrap().is_none());
        assert_eq!(p.origin(), "Net");
        let rr = p.push_line("shop IN A 192.0.2.1").unwrap().unwrap();
        assert_eq!(rr.name.as_ascii(), "shop.net");
        assert_eq!(p.push_line("$ORIGIN").unwrap_err().message, "$ORIGIN requires a name");
    }

    #[test]
    fn ttl_directive_takes_exactly_one_value() {
        let text = "$TTL3600\n\
                    $TTL 60 junk\n\
                    foo IN A 192.0.2.1\n\
                    $TTL\t120\n\
                    bar IN A 192.0.2.2\n";
        let (zone, errors) = parse_lenient(text, "com");
        let records: Vec<(&str, u32)> =
            zone.records.iter().map(|r| (r.name.as_ascii(), r.ttl)).collect();
        assert_eq!(records, [("foo.com", 86_400), ("bar.com", 120)]);
        assert_eq!(zone.default_ttl, 120);
        // `$TTL3600` is no directive: it parses as a record line whose
        // owner is `$TTL3600` and which has no type.
        assert_eq!(errors.len(), 2);
        assert_eq!((errors[0].line, errors[0].message.as_str()), (1, "missing record type"));
        assert_eq!(errors[1].line, 2);
        assert_eq!(errors[1].message, "$TTL takes one value, found extra \"junk\"");

        let mut p = ZoneStreamParser::new("com");
        assert!(p.push_line("$TTL 60 70").is_err());
        assert_eq!(p.default_ttl(), 86_400);
        assert!(p.push_line("$TTL 60 ; a comment").unwrap().is_none());
        assert_eq!(p.default_ttl(), 60);
        let missing = p.push_line("$TTL").unwrap_err().message;
        assert_eq!(missing, "bad $TTL: cannot parse integer from empty string");
        assert!(p.push_line("$TTL x").unwrap_err().message.starts_with("bad $TTL: invalid digit"));
    }

    #[test]
    fn escaped_quote_and_semicolon_are_not_comments() {
        let txt = |line: &str| match parse(line, "com").unwrap().records[0].data.clone() {
            RecordData::Txt(t) => t,
            other => panic!("expected TXT, got {other:?}"),
        };
        // The payload keeps each escape as written.
        assert_eq!(txt("note IN TXT \"a\\\"; b\""), "a\\\"; b");
        assert_eq!(txt("note IN TXT a\\;b"), "a\\;b");
        assert_eq!(txt("note IN TXT a\\;b ; comment"), "a\\;b");
        // Non-ASCII after a backslash is skipped whole, never split.
        assert_eq!(txt("note IN TXT \"\\é;\" ; c"), "\\é;");

        let mut zone = parse("$ORIGIN com.\nnote IN A 192.0.2.1\n", "com").unwrap();
        let mut rr = zone.records[0].clone();
        rr.data = RecordData::Txt("say \\\"hi\\\"; bye".into());
        zone.records.push(rr);
        let again = parse(&zone.to_text(), "com").unwrap();
        assert_eq!(again.records, zone.records);
    }

    #[test]
    fn names_keep_their_resolution_edge_cases() {
        let owner = |line: &str, origin: &str| {
            let mut p = ZoneStreamParser::new(origin);
            p.push_line(line).map(|rr| rr.expect("a record").name.as_ascii().to_string())
        };
        assert_eq!(owner("foo.. IN A 192.0.2.1", "com").unwrap(), "foo");
        assert_eq!(owner("@. IN A 192.0.2.1", "com").unwrap(), "@");
        assert_eq!(owner("\u{212A}ey IN A 192.0.2.1", "com").unwrap(), "key.com");
        assert_eq!(owner("Foo IN A 192.0.2.1", "Com.").unwrap(), "foo.com");
        let empty = owner("@ IN A 192.0.2.1", "").unwrap_err();
        assert_eq!(empty.message, "bad name \"@\": empty label");
        let long = format!("{} IN A 192.0.2.1", "a".repeat(64));
        let too_long = owner(&long, "com").unwrap_err();
        assert!(too_long.message.ends_with(": label is 64 octets (max 63)"), "{too_long}");
        let l63 = "a".repeat(63);
        let name = format!("{l63}.{l63}.{l63}.{} IN A 192.0.2.1", "b".repeat(62));
        let too_long = owner(&name, "").unwrap_err();
        assert!(too_long.message.ends_with(": name is 254 octets (max 253)"), "{too_long}");
        // The token's labels are checked before the origin's.
        let both = owner(&long, "a..b").unwrap_err();
        assert!(both.message.ends_with("label is 64 octets (max 63)"), "{both}");
        let target = ZoneStreamParser::new("com").push_line("x IN NS ns..bad").unwrap_err();
        assert_eq!(target.message, "bad name \"ns..bad\": empty label");
    }

    /// `DomainName::parse` as it was written before the in-place
    /// resolver: one `to_ascii` `String` per label, then a `join`.
    fn oracle_parse(input: &str) -> Result<String, PunycodeError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(PunycodeError::EmptyLabel);
        }
        let mut labels = Vec::new();
        for raw in trimmed.split('.') {
            labels.push(to_ascii(raw)?);
        }
        let ascii = labels.join(".");
        if ascii.len() > MAX_NAME_OCTETS {
            return Err(PunycodeError::NameTooLong(ascii.len()));
        }
        Ok(ascii)
    }

    /// Name resolution as it was written before the in-place resolver:
    /// the full name built with `format!`, then the oracle parse, with
    /// the parser's error text.
    fn oracle_resolve(token: &str, origin: &str) -> Result<String, String> {
        let full = if token == "@" {
            origin.to_string()
        } else if let Some(absolute) = token.strip_suffix('.') {
            absolute.to_string()
        } else if origin.is_empty() {
            token.to_string()
        } else {
            format!("{token}.{origin}")
        };
        oracle_parse(&full).map_err(|e| format!("bad name {token:?}: {e}"))
    }

    /// The line machine's owner state, replayed through the oracle: what
    /// each generated line must yield (owner and target in ACE form, a
    /// skipped line, or an error message).
    #[derive(Default)]
    struct Replay {
        origin: String,
        owner: Option<String>,
        owner_token: String,
    }

    impl Replay {
        fn line(
            &mut self,
            line: &ResolverLine,
        ) -> Result<Option<(String, Option<String>)>, String> {
            let (owner_token, target) = match line {
                ResolverLine::Origin(origin) => {
                    if *origin != self.origin {
                        self.origin = origin.clone();
                        self.owner_token.clear();
                    }
                    return Ok(None);
                }
                ResolverLine::Record { owner, target } => (owner.as_deref(), target.as_deref()),
            };
            match owner_token {
                None if self.owner.is_none() => {
                    return Err("continuation line with no previous owner".into())
                }
                Some(token) if self.owner.is_none() || token != self.owner_token => {
                    self.owner = Some(oracle_resolve(token, &self.origin)?);
                    self.owner_token = token.to_string();
                }
                _ => {}
            }
            let target = target.map(|t| oracle_resolve(t, &self.origin)).transpose()?;
            Ok(Some((self.owner.clone().expect("an owner resolved"), target)))
        }
    }

    /// One generated line of the resolver differential test, with its
    /// name tokens kept apart from the text.
    enum ResolverLine {
        Origin(String),
        Record { owner: Option<String>, target: Option<String> },
    }

    /// Labels name tokens are built from: mixed case, non-ASCII (U+212A
    /// folds to ASCII `k`), empty, `@`, and around the 63-octet limit.
    fn resolver_label(pick: u64) -> String {
        match pick % 12 {
            0 => "alpha".into(),
            1 => "Alpha".into(),
            2 => "\u{212A}ey".into(),
            3 => "\u{430}lpha".into(),
            4 => "xn--ggle-55da".into(),
            5 => String::new(),
            6 => "a".repeat(63),
            7 => "B".repeat(64),
            8 => "c".repeat(61),
            9 => "C".repeat(62),
            10 => "@".into(),
            _ => "Stra\u{DF}e".into(),
        }
    }

    /// A name token: `@`, `@.`, `foo..`, or one to three labels followed
    /// by none, one or two dots (`.` when that would be empty).
    fn resolver_token(pick: u64) -> String {
        match pick % 8 {
            0 => "@".into(),
            1 => "@.".into(),
            2 => "foo..".into(),
            _ => {
                let labels: Vec<String> =
                    (0..1 + (pick >> 3) % 3).map(|i| resolver_label(pick >> (5 + 4 * i))).collect();
                let token = labels.join(".") + ["", "", ".", ".."][(pick >> 20) as usize % 4];
                if token.is_empty() {
                    ".".into()
                } else {
                    token
                }
            }
        }
    }

    /// Origins `$ORIGIN` switches between; a 191-octet one puts a 61- or
    /// 62-octet token at 253 or 254 octets.
    fn resolver_origin(pick: u64) -> String {
        let l63 = "a".repeat(63);
        match pick % 6 {
            0 => "com".into(),
            1 => "Com".into(),
            2 => "xn--p1ai".into(),
            3 => "a..b".into(),
            4 => format!("{l63}.{l63}.{l63}"),
            _ => "B".repeat(64),
        }
    }

    /// One line built from the bits of `pick`; fields are separated by a
    /// space, a tab or U+00A0 (all whitespace to the tokenizer).
    fn resolver_line(pick: u64) -> (String, ResolverLine) {
        let sep = [" ", "\t", "\u{A0}"][(pick >> 4) as usize % 3];
        let owner = resolver_token(pick >> 8);
        let target = resolver_token(pick >> 32);
        let record =
            |owner: Option<String>, target: Option<String>| ResolverLine::Record { owner, target };
        match pick % 8 {
            0 => {
                let origin = resolver_origin(pick >> 8);
                (format!("$ORIGIN {origin}."), ResolverLine::Origin(origin))
            }
            1 => (format!("{owner}{sep}IN{sep}A{sep}192.0.2.1"), record(Some(owner), None)),
            2 => (
                format!("{owner}{sep}IN{sep}CNAME{sep}{target}"),
                record(Some(owner), Some(target)),
            ),
            3 => (
                format!("{owner}{sep}IN{sep}MX{sep}10{sep}{target}"),
                record(Some(owner), Some(target)),
            ),
            4 => (format!("\tIN{sep}NS{sep}{target}"), record(None, Some(target))),
            5 => {
                let owner = ["Foo", "foo"][(pick >> 8) as usize % 2].to_string();
                (format!("{owner}{sep}IN{sep}A{sep}192.0.2.1"), record(Some(owner), None))
            }
            _ => (format!("{owner}{sep}IN{sep}NS{sep}{target}"), record(Some(owner), Some(target))),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `push_line` and `scan_line` resolve every owner and NS/CNAME/MX
        /// target exactly like a replay through the `format!` + oracle
        /// resolution: the same names, the same errors with the same
        /// text, under `$ORIGIN` switches and an empty or dotted fallback
        /// origin.
        #[test]
        fn names_resolve_like_the_oracle_replay(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..48),
            fallback in 0usize..3,
        ) {
            let fallback = ["", "com", "Com."][fallback];
            let mut replay = Replay { origin: fallback.to_string(), ..Replay::default() };
            let mut pusher = ZoneStreamParser::new(fallback);
            let mut scanner = ZoneStreamParser::new(fallback);
            for (idx, &pick) in picks.iter().enumerate() {
                let (text, line) = resolver_line(pick);
                let expected = replay.line(&line).map_err(|message| err(idx + 1, message));
                let pushed = pusher.push_line(&text).map(|rr| {
                    rr.map(|rr| {
                        let target = match rr.data {
                            RecordData::Ns(t) | RecordData::Cname(t) => Some(t),
                            RecordData::Mx { exchange, .. } => Some(exchange),
                            _ => None,
                        };
                        (rr.name.as_ascii().to_string(), target.map(|t| t.as_ascii().to_string()))
                    })
                });
                prop_assert_eq!(&pushed, &expected, "push_line on {:?}: {:?}", text, pushed);
                let scanned = scanner.scan_line(&text).map(|scan| match scan {
                    ZoneScan::Record { owner, .. } => Some(owner.as_ascii().to_string()),
                    ZoneScan::Skip => None,
                });
                let expected_owner = expected.map(|rr| rr.map(|(owner, _)| owner));
                prop_assert_eq!(&scanned, &expected_owner, "scan_line on {:?}: {:?}", text, scanned);
            }
        }
    }
}
