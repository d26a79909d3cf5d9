//! Flat interned pair index — the detection hot path's data layout.
//!
//! [`HomoglyphDb`](crate::HomoglyphDb) answers two queries inside
//! Algorithm 1's inner loop: *is `(a, b)` a homoglyph pair (and which
//! database attests it)?* and *which equivalence component does a code
//! point belong to?* Both used to go through per-character hash probes;
//! this module replaces them with three flat arrays built once at
//! construction:
//!
//! * [`CharInterner`] — a two-level page table over the code-point
//!   space. Looking a code point up is two array reads (page, then
//!   slot) and no hashing; code points outside the pair universe
//!   resolve to `None` on the first or second read.
//! * a **union-find component closure** over the full pair universe
//!   (SimChar ∪ UC). Every listed pair `(a, b)` — from either source —
//!   unions the two endpoints, so two code points end in the same
//!   component exactly when a chain of listed pairs connects them.
//!   Unlike a "canonical map" that picks one neighbour per character,
//!   the closure is sound for **arbitrary, non-transitive** pair sets:
//!   if an IDN matches a reference under Algorithm 1, every unequal
//!   character position is a listed pair, hence in one component, hence
//!   the two stems hash identically by component representative. The
//!   per-symbol representative (the smallest code point of the
//!   component) is precomputed into a dense `Vec<u32>`.
//! * a **CSR adjacency** (offset array + neighbour array + attribution
//!   array) holding every pair edge of the union with its
//!   [`PairSource`]. A pair probe interns both endpoints and binary
//!   searches one sorted neighbour row — no `u64` key packing, no hash
//!   set.
//!
//! The closure spans the *union* universe on purpose: a pair admitted
//! under any [`DbSelection`](crate::DbSelection) is an edge of the
//! union graph, so component-representative hashing remains a sound
//! candidate filter for every selection (candidates are always
//! re-verified pairwise, so over-approximation never produces false
//! positives).
//!
//! A built index serializes as a v3 *full-index snapshot*
//! ([`FlatPairIndex::write_with_section`]): these flat arrays plus an
//! opaque reference section that `sham_core` fills with its reference
//! set. [`FlatPairIndex::read_with_section_bytes`] is the one parser: it
//! reads an in-memory file in place, verifies both checksums, and
//! refuses older versions and files without a reference section.

use crate::db::SimCharDb;
use crate::homodb::PairSource;
use sham_confusables::UcDatabase;
use std::collections::HashMap;
use std::io::{self, Write};

/// Code points per interner page (one second-level array chunk).
const PAGE_SIZE: u32 = 256;
/// Number of first-level pages covering the whole code-point space.
const PAGE_COUNT: usize = (0x11_0000 / PAGE_SIZE) as usize;
/// First-level sentinel: page holds no interned code points.
const NO_PAGE: u32 = u32::MAX;

/// Dense code-point → symbol interner: a two-level page table over the
/// code-point space. `symbol` is two array indexations; pages are only
/// materialised where the universe actually has characters, so the
/// structure stays a few tens of kilobytes even though it addresses all
/// of Unicode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharInterner {
    /// First level: page → base offset into `slots`, or [`NO_PAGE`].
    page_table: Vec<u32>,
    /// Second level: `PAGE_SIZE`-entry chunks; `0` = absent, else
    /// symbol + 1.
    slots: Vec<u32>,
    /// Symbol → code point (the inverse mapping).
    cps: Vec<u32>,
}

impl Default for CharInterner {
    fn default() -> Self {
        CharInterner { page_table: vec![NO_PAGE; PAGE_COUNT], slots: Vec::new(), cps: Vec::new() }
    }
}

impl CharInterner {
    /// Interns `cp`, returning its (new or existing) symbol.
    pub fn intern(&mut self, cp: u32) -> u32 {
        let page = (cp / PAGE_SIZE) as usize;
        assert!(page < PAGE_COUNT, "code point {cp:#X} outside Unicode");
        if self.page_table[page] == NO_PAGE {
            self.page_table[page] = self.slots.len() as u32;
            self.slots.resize(self.slots.len() + PAGE_SIZE as usize, 0);
        }
        let slot = self.page_table[page] as usize + (cp % PAGE_SIZE) as usize;
        if self.slots[slot] == 0 {
            self.cps.push(cp);
            self.slots[slot] = self.cps.len() as u32; // symbol + 1
        }
        self.slots[slot] - 1
    }

    /// Symbol of `cp`, if interned. Two array reads, no hashing.
    #[inline]
    pub fn symbol(&self, cp: u32) -> Option<u32> {
        let base = *self.page_table.get((cp / PAGE_SIZE) as usize)?;
        if base == NO_PAGE {
            return None;
        }
        let s = self.slots[base as usize + (cp % PAGE_SIZE) as usize];
        s.checked_sub(1)
    }

    /// Code point of a symbol.
    #[inline]
    pub fn code_point(&self, symbol: u32) -> u32 {
        self.cps[symbol as usize]
    }

    /// Number of interned code points.
    pub fn len(&self) -> usize {
        self.cps.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.cps.is_empty()
    }
}

/// Union-find over symbols, with path halving. Only used during
/// construction; the result is flattened into the dense `rep` table.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Edge tag bits during construction.
const TAG_SIMCHAR: u8 = 1;
const TAG_UC: u8 = 2;

/// Identity of the two source databases a [`FlatPairIndex`] was built
/// from, recorded in the snapshot header so a serialized index can be
/// checked against the databases it is loaded for.
///
/// * `font` digests the SimChar side: θ plus every `(a, b, Δ)` pair —
///   anything that changes when the font (or the build repertoire /
///   threshold) changes, since SimChar pairs are a pure function of
///   the rendered glyphs.
/// * `unicode` digests the UC side: every `(source, prototype)` entry —
///   the identity of the confusables.txt revision, i.e. the Unicode
///   version the database models.
///
/// A snapshot whose fingerprint differs from the databases it is
/// mounted on is *stale* (built from another font release or another
/// confusables revision) and must be rejected, not trusted — see
/// [`crate::HomoglyphDb::from_prebuilt`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceFingerprint {
    /// FNV-1a over the SimChar build (θ and the pair list).
    pub font: u64,
    /// FNV-1a over the UC mapping entries.
    pub unicode: u64,
}

impl SourceFingerprint {
    /// Digests the two component databases. Deterministic: SimChar
    /// pairs iterate in sorted order and the UC map is a `BTreeMap`.
    pub fn of(simchar: &SimCharDb, uc: &UcDatabase) -> SourceFingerprint {
        let mix = |h: u64, v: u32| fnv1a_update(h, &v.to_le_bytes());
        let mut font = mix(FNV_OFFSET, simchar.theta());
        for (a, b, delta) in simchar.pairs() {
            font = mix(font, a);
            font = mix(font, b);
            font = mix(font, u32::from(delta));
        }
        let mut unicode = FNV_OFFSET;
        for (source, proto) in uc.entries() {
            unicode = mix(unicode, source);
            unicode = mix(unicode, proto.len() as u32);
            for &cp in proto {
                unicode = mix(unicode, cp);
            }
        }
        SourceFingerprint { font, unicode }
    }
}

/// The flat pair index over SimChar ∪ UC: interner, component
/// representatives, and CSR adjacency with per-edge attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatPairIndex {
    interner: CharInterner,
    /// Symbol → representative code point (smallest of its component).
    rep: Vec<u32>,
    /// CSR offsets: symbol `s`'s neighbours live at
    /// `neighbours[offsets[s] .. offsets[s + 1]]`, sorted.
    offsets: Vec<u32>,
    /// Neighbour symbols, grouped per source symbol.
    neighbours: Vec<u32>,
    /// Attribution parallel to `neighbours`.
    sources: Vec<PairSource>,
    /// Identity of the source databases, carried through snapshots.
    fingerprint: SourceFingerprint,
}

impl FlatPairIndex {
    /// Builds the index from the two component databases.
    ///
    /// The pair universe is exactly the union of the databases' pair
    /// relations: every SimChar `(a, b, Δ)` entry, and every UC pair —
    /// two code points whose prototype sequences are equal, or where
    /// one is listed with the other as its single-character prototype.
    pub fn build(simchar: &SimCharDb, uc: &UcDatabase) -> FlatPairIndex {
        // 1. Collect tagged edges `(lo, hi, tags)` over code points.
        let mut edges: Vec<(u32, u32, u8)> = Vec::new();
        let mut push = |a: u32, b: u32, tag: u8| {
            if a != b {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                edges.push((lo, hi, tag));
            }
        };
        for (a, b, _) in simchar.pairs() {
            push(a, b, TAG_SIMCHAR);
        }
        // UC: group sources by prototype sequence. Members of one group
        // are pairwise confusable; a single-character prototype is
        // additionally confusable with each of its sources.
        let mut groups: HashMap<&[u32], Vec<u32>> = HashMap::new();
        for (src, proto) in uc.entries() {
            groups.entry(proto).or_default().push(src);
        }
        for (proto, members) in &groups {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    push(a, b, TAG_UC);
                }
            }
            if let &&[p] = proto {
                for &m in members {
                    push(m, p, TAG_UC);
                }
            }
        }
        // 2. Canonicalise: sort and OR the tags of duplicate edges.
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut merged: Vec<(u32, u32, u8)> = Vec::with_capacity(edges.len());
        for (a, b, tag) in edges {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 |= tag,
                _ => merged.push((a, b, tag)),
            }
        }

        // 3. Intern every endpoint (sorted edge order ⇒ deterministic
        //    symbol numbering) and union the components.
        let mut interner = CharInterner::default();
        for &(a, b, _) in &merged {
            interner.intern(a);
            interner.intern(b);
        }
        let n = interner.len();
        let mut dsu = Dsu::new(n);
        for &(a, b, _) in &merged {
            let (sa, sb) = (interner.symbol(a).unwrap(), interner.symbol(b).unwrap());
            dsu.union(sa, sb);
        }
        // Representative = smallest code point of the component.
        let mut root_min = vec![u32::MAX; n];
        for s in 0..n as u32 {
            let root = dsu.find(s) as usize;
            root_min[root] = root_min[root].min(interner.code_point(s));
        }
        let rep: Vec<u32> = (0..n as u32).map(|s| root_min[dsu.find(s) as usize]).collect();

        // 4. CSR adjacency: double each edge, sort by (from, to), scan
        //    into offset / neighbour / source arrays.
        let mut directed: Vec<(u32, u32, PairSource)> = Vec::with_capacity(merged.len() * 2);
        for &(a, b, tag) in &merged {
            let (sa, sb) = (interner.symbol(a).unwrap(), interner.symbol(b).unwrap());
            let source = match tag {
                TAG_SIMCHAR => PairSource::SimChar,
                TAG_UC => PairSource::Uc,
                _ => PairSource::Both,
            };
            directed.push((sa, sb, source));
            directed.push((sb, sa, source));
        }
        directed.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut offsets = vec![0u32; n + 1];
        for &(from, _, _) in &directed {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let neighbours: Vec<u32> = directed.iter().map(|&(_, to, _)| to).collect();
        let sources: Vec<PairSource> = directed.iter().map(|&(_, _, s)| s).collect();

        FlatPairIndex {
            interner,
            rep,
            offsets,
            neighbours,
            sources,
            fingerprint: SourceFingerprint::of(simchar, uc),
        }
    }

    /// The interner over the pair universe.
    pub fn interner(&self) -> &CharInterner {
        &self.interner
    }

    /// Identity of the source databases this index was built from
    /// (restored verbatim from a snapshot on load).
    pub fn fingerprint(&self) -> SourceFingerprint {
        self.fingerprint
    }

    /// Component representative of `cp`: the smallest code point
    /// reachable from it through listed pairs, or `cp` itself when it
    /// participates in no pair. Two array reads plus one table read.
    #[inline]
    pub fn rep_of(&self, cp: u32) -> u32 {
        match self.interner.symbol(cp) {
            Some(s) => self.rep[s as usize],
            None => cp,
        }
    }

    /// Full-union attribution of the pair `(a, b)`, or `None` when
    /// neither database lists it. One binary search over a CSR row.
    #[inline]
    pub fn pair_source(&self, a: u32, b: u32) -> Option<PairSource> {
        if a == b {
            return None;
        }
        let sa = self.interner.symbol(a)?;
        let sb = self.interner.symbol(b)?;
        let (lo, hi) = (self.offsets[sa as usize] as usize, self.offsets[sa as usize + 1] as usize);
        let row = &self.neighbours[lo..hi];
        row.binary_search(&sb).ok().map(|i| self.sources[lo + i])
    }

    /// Number of code points in the pair universe.
    pub fn char_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of undirected pair edges.
    pub fn pair_count(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Number of connected components of the pair graph.
    pub fn component_count(&self) -> usize {
        self.component_sizes().len()
    }

    /// Sizes of the connected components of the pair graph (number of
    /// code points per component), sorted descending. The union-find
    /// closure can glue long confusable chains into one component —
    /// sound (candidates are re-verified) but each giant component
    /// costs verification work, so pathological databases should be
    /// visible in the `repro` diagnostics rather than silent.
    pub fn component_sizes(&self) -> Vec<u32> {
        let mut by_rep: HashMap<u32, u32> = HashMap::new();
        for &rep in &self.rep {
            *by_rep.entry(rep).or_insert(0) += 1;
        }
        let mut sizes: Vec<u32> = by_rep.into_values().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Writes the v3 full-index snapshot — see the format table in
    /// `docs/ARCHITECTURE.md`. Layout: an 8-byte magic, a little-endian
    /// `u32` format version, the source fingerprint (font digest and
    /// UC digest, both `u64` — see [`SourceFingerprint`]), the
    /// pair-payload length (`u64`) and a word-chunked FNV-1a checksum
    /// (`u64`) over the fingerprint fields and the pair payload (so a
    /// corrupted fingerprint fails the checksum instead of
    /// masquerading as a stale snapshot), then the length and checksum
    /// of the *reference section*, followed by the six `u32` array
    /// sections and the attribution byte section (each length-prefixed)
    /// and finally the reference-section bytes verbatim. Everything is
    /// flat arrays already, so serialization is a linear copy.
    ///
    /// The reference section is opaque at this layer: `sham_core`
    /// serializes its flat `ReferenceSet` into it, keyed by the same
    /// fingerprint, so one file cold-starts a whole `DetectionIndex`.
    /// [`FlatPairIndex::read_with_section_bytes`] refuses a file whose
    /// section is empty.
    pub fn write_with_section(&self, writer: &mut impl Write, section: &[u8]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(
            4 * (self.interner.page_table.len()
                + self.interner.slots.len()
                + self.interner.cps.len()
                + self.rep.len()
                + self.offsets.len()
                + self.neighbours.len())
                + self.sources.len()
                + 7 * 4,
        );
        for array in [
            &self.interner.page_table,
            &self.interner.slots,
            &self.interner.cps,
            &self.rep,
            &self.offsets,
            &self.neighbours,
        ] {
            payload.extend_from_slice(&(array.len() as u32).to_le_bytes());
            for &v in array {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        payload.extend_from_slice(&(self.sources.len() as u32).to_le_bytes());
        payload.extend(self.sources.iter().map(|s| match s {
            PairSource::SimChar => 0u8,
            PairSource::Uc => 1,
            PairSource::Both => 2,
        }));

        writer.write_all(SNAPSHOT_MAGIC)?;
        writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        writer.write_all(&self.fingerprint.font.to_le_bytes())?;
        writer.write_all(&self.fingerprint.unicode.to_le_bytes())?;
        writer.write_all(&(payload.len() as u64).to_le_bytes())?;
        writer.write_all(&snapshot_checksum(&self.fingerprint, &payload).to_le_bytes())?;
        writer.write_all(&(section.len() as u64).to_le_bytes())?;
        writer.write_all(&fnv1a_lanes(section).to_le_bytes())?;
        writer.write_all(&payload)?;
        writer.write_all(section)
    }

    /// Parses an in-memory v3 full-index snapshot — the one snapshot
    /// parser. Wrong magic, any version but v3, truncation, either
    /// checksum failing and a missing reference section are rejected
    /// with [`io::ErrorKind::InvalidData`]. The header is parsed in
    /// place and both checksums run directly over sub-slices of
    /// `bytes`, so no header field sizes an allocation. A successful
    /// load is structurally revalidated (section lengths must be
    /// mutually consistent), so a corrupted-but-checksummed file cannot
    /// produce out-of-bounds panics later. The reference section comes
    /// back as a checksum-verified *borrow* of the input; its internal
    /// layout is the caller's to parse. Bytes past the end of the
    /// framed sections are ignored.
    pub fn read_with_section_bytes(bytes: &[u8]) -> io::Result<(FlatPairIndex, &[u8])> {
        let (header, payload, section) = SnapshotHeader::split(bytes)?;
        Ok((
            FlatPairIndex::parse_payload(payload, header.fingerprint)?,
            section,
        ))
    }

    /// Parses and structurally revalidates one checksum-verified pair
    /// payload.
    fn parse_payload(
        payload: &[u8],
        fingerprint: SourceFingerprint,
    ) -> io::Result<FlatPairIndex> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut cursor = 0usize;
        let mut read_u32s = |payload: &[u8], section: &str| -> io::Result<Vec<u32>> {
            let count = read_len(payload, &mut cursor, section)?;
            // Bound the allocation by bytes actually present — the
            // checksum is forgeable, so a section count must never
            // size a buffer beyond the payload it claims to describe.
            let end = count
                .checked_mul(4)
                .and_then(|bytes| cursor.checked_add(bytes))
                .filter(|&end| end <= payload.len())
                .ok_or_else(|| bad(&format!("truncated `{section}` section")))?;
            let out = payload[cursor..end]
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            cursor = end;
            Ok(out)
        };
        let page_table = read_u32s(payload, "interner page table")?;
        let slots = read_u32s(payload, "interner slots")?;
        let cps = read_u32s(payload, "interner code points")?;
        let rep = read_u32s(payload, "component representatives")?;
        let offsets = read_u32s(payload, "CSR offsets")?;
        let neighbours = read_u32s(payload, "CSR neighbours")?;
        let source_count = read_len(payload, &mut cursor, "pair attribution")?;
        let source_bytes = payload
            .get(cursor..cursor + source_count)
            .ok_or_else(|| bad("truncated `pair attribution` section"))?;
        let sources: Vec<PairSource> = source_bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(PairSource::SimChar),
                1 => Ok(PairSource::Uc),
                2 => Ok(PairSource::Both),
                other => Err(bad(&format!("invalid PairSource tag {other}"))),
            })
            .collect::<io::Result<_>>()?;
        cursor += source_count;
        if cursor != payload.len() {
            return Err(bad("trailing bytes after the last section"));
        }

        // Structural consistency: the arrays must describe one coherent
        // interner + rep table + CSR. Each check names the section it
        // convicts, so a rejected file says *what* is inconsistent.
        let n = cps.len();
        let inconsistent = |section: &str| {
            bad(&format!("inconsistent FlatPairIndex snapshot: `{section}` section"))
        };
        if page_table.len() != PAGE_COUNT
            || page_table
                .iter()
                .any(|&base| base != NO_PAGE && base as usize + PAGE_SIZE as usize > slots.len())
        {
            return Err(inconsistent("interner page table"));
        }
        if slots.len() % PAGE_SIZE as usize != 0 || slots.iter().any(|&s| s as usize > n) {
            return Err(inconsistent("interner slots"));
        }
        if rep.len() != n {
            return Err(inconsistent("component representatives"));
        }
        // A `Default` index has no offsets row at all; a built one
        // always has n + 1 entries.
        if !(offsets.len() == n + 1 || (n == 0 && offsets.is_empty()))
            || offsets.first().is_some_and(|&f| f != 0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().is_some_and(|&l| l as usize != neighbours.len())
        {
            return Err(inconsistent("CSR offsets"));
        }
        if neighbours.iter().any(|&s| s as usize >= n.max(1)) {
            return Err(inconsistent("CSR neighbours"));
        }
        if sources.len() != neighbours.len() {
            return Err(inconsistent("pair attribution"));
        }

        Ok(FlatPairIndex {
            interner: CharInterner { page_table, slots, cps },
            rep,
            offsets,
            neighbours,
            sources,
            fingerprint,
        })
    }

    /// Inspects a v3 full-index snapshot without mounting it: header
    /// fields, per-section sizes, both checksums, and the raw reference
    /// section (already checksum-verified) for the caller to break down
    /// further. It runs [`FlatPairIndex::read_with_section_bytes`]'s
    /// checks, so a corrupt, older or section-less file is rejected
    /// with the same named errors as a load.
    pub fn snapshot_stat(bytes: &[u8]) -> io::Result<SnapshotStat> {
        let (header, payload, section) = SnapshotHeader::split(bytes)?;
        let idx = FlatPairIndex::parse_payload(payload, header.fingerprint)?;
        let u32s = |name, v: &Vec<u32>| SnapshotSection {
            name,
            elements: v.len(),
            bytes: 4 + 4 * v.len(),
        };
        let sections = vec![
            u32s("interner page table", &idx.interner.page_table),
            u32s("interner slots", &idx.interner.slots),
            u32s("interner code points", &idx.interner.cps),
            u32s("component representatives", &idx.rep),
            u32s("CSR offsets", &idx.offsets),
            u32s("CSR neighbours", &idx.neighbours),
            SnapshotSection {
                name: "pair attribution",
                elements: idx.sources.len(),
                bytes: 4 + idx.sources.len(),
            },
        ];
        Ok(SnapshotStat {
            version: SNAPSHOT_VERSION,
            fingerprint: header.fingerprint,
            pair_payload_bytes: header.payload_len,
            pair_checksum: header.checksum,
            sections,
            reference_bytes: header.extra_len,
            reference_checksum: header.extra_checksum,
            reference_section: section.to_vec(),
        })
    }

    /// [`FlatPairIndex::snapshot_stat`] over a file on disk, rejections
    /// prefixed with the file's path.
    pub fn snapshot_stat_path(path: impl AsRef<std::path::Path>) -> io::Result<SnapshotStat> {
        let path = path.as_ref();
        let named =
            |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let bytes = std::fs::read(path).map_err(named)?;
        FlatPairIndex::snapshot_stat(&bytes).map_err(named)
    }
}

/// One pair-payload section as reported by
/// [`FlatPairIndex::snapshot_stat`].
#[derive(Debug, Clone)]
pub struct SnapshotSection {
    /// The section's name — the same string load errors convict by.
    pub name: &'static str,
    /// Element count (array entries, not bytes).
    pub elements: usize,
    /// On-disk footprint including the length prefix.
    pub bytes: usize,
}

/// A parsed v3 snapshot header plus section inventory — everything
/// `shamfinder index stat` prints, without mounting the index.
#[derive(Debug, Clone)]
pub struct SnapshotStat {
    /// Format version (always the current `SNAPSHOT_VERSION`; older
    /// files are rejected with a readable error instead).
    pub version: u32,
    /// The recorded source fingerprint (both digests).
    pub fingerprint: SourceFingerprint,
    /// Pair-payload length in bytes.
    pub pair_payload_bytes: u64,
    /// Checksum over fingerprint + pair payload (the v3
    /// interleaved-lane FNV-1a fold).
    pub pair_checksum: u64,
    /// Per-section inventory of the pair payload.
    pub sections: Vec<SnapshotSection>,
    /// Reference-section length in bytes.
    pub reference_bytes: u64,
    /// Reference-section checksum.
    pub reference_checksum: u64,
    /// The verified reference-section bytes, for callers that can
    /// parse its layout (`sham_core`).
    pub reference_section: Vec<u8>,
}

/// The fixed-size v3 snapshot header.
struct SnapshotHeader {
    fingerprint: SourceFingerprint,
    payload_len: u64,
    checksum: u64,
    extra_len: u64,
    extra_checksum: u64,
}

impl SnapshotHeader {
    /// Splits an in-memory snapshot into its header, the
    /// checksum-verified pair payload and the checksum-verified
    /// reference section, borrowing both. The length fields are outside
    /// the checksums, so they only bound slices of `bytes`: a forged
    /// length on a short file is a truncation error, never an
    /// allocation.
    fn split(bytes: &[u8]) -> io::Result<(SnapshotHeader, &[u8], &[u8])> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if bytes.len() < 12 {
            return Err(bad("truncated FlatPairIndex snapshot header".into()));
        }
        if &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(bad("not a FlatPairIndex snapshot (bad magic)".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "unsupported FlatPairIndex snapshot version {version} (expected \
                 {SNAPSHOT_VERSION}): rebuild the file with `shamfinder index build`"
            )));
        }
        if bytes.len() < HEADER_LEN {
            return Err(bad("truncated FlatPairIndex snapshot header".into()));
        }
        let u64_at =
            |offset: usize| u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
        let header = SnapshotHeader {
            fingerprint: SourceFingerprint {
                font: u64_at(12),
                unicode: u64_at(20),
            },
            payload_len: u64_at(28),
            checksum: u64_at(36),
            extra_len: u64_at(44),
            extra_checksum: u64_at(52),
        };
        let rest = &bytes[HEADER_LEN..];
        let payload = usize::try_from(header.payload_len)
            .ok()
            .and_then(|len| rest.get(..len))
            .ok_or_else(|| bad("truncated FlatPairIndex snapshot payload".into()))?;
        if snapshot_checksum(&header.fingerprint, payload) != header.checksum {
            return Err(bad("FlatPairIndex snapshot checksum mismatch".into()));
        }
        if header.extra_len == 0 {
            return Err(bad(
                "FlatPairIndex snapshot has no reference section (a pair-only file): \
                 rebuild it with `shamfinder index build`"
                    .into(),
            ));
        }
        let section = usize::try_from(header.extra_len)
            .ok()
            .and_then(|len| rest[payload.len()..].get(..len))
            .ok_or_else(|| bad("truncated `reference section`".into()))?;
        if fnv1a_lanes(section) != header.extra_checksum {
            return Err(bad("`reference section` checksum mismatch".into()));
        }
        Ok((header, payload, section))
    }
}

/// Snapshot magic: identifies a serialized [`FlatPairIndex`].
const SNAPSHOT_MAGIC: &[u8; 8] = b"SHAMFIDX";
/// Snapshot format version; bumped on any layout change.
/// Version 2 added the [`SourceFingerprint`] header fields; version 3
/// added the reference section (length + checksum in the header, bytes
/// after the pair payload) and switched the checksums to the
/// interleaved-lane FNV-1a fold. Only v3 files load; older ones are
/// refused with a rebuild hint.
const SNAPSHOT_VERSION: u32 = 3;
/// Bytes in the fixed v3 header.
const HEADER_LEN: usize = 60;

/// FNV-1a offset basis — the checksum chain's initial state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state byte-at-a-time — the
/// [`SourceFingerprint`] digest, and the tail of [`fnv1a_words`].
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Folds `bytes` into a running FNV-1a state one little-endian `u64`
/// word at a time (trailing partial word byte-wise). ~8× cheaper per
/// byte than [`fnv1a_update`], but still a serial multiply chain —
/// [`fnv1a_lanes`] is the bulk digest. Chaining calls is only
/// concatenation-equivalent when every piece but the last is a
/// multiple of 8 bytes.
fn fnv1a_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().unwrap());
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    fnv1a_update(h, chunks.remainder())
}

/// The v3 bulk digest: four FNV-1a word lanes interleaved over the
/// input (lane `j` folds words `j, j + 4, j + 8, …`), trailing bytes
/// and the four lane states folded into one word chain at the end.
/// FNV's multiply chain is serial — each step waits on the previous
/// multiply — so a plain word fold caps out near one word per multiply
/// latency; four independent lanes keep four multiplies in flight,
/// which matters because both checksum passes run on every cold-start
/// mount of a megabyte-scale snapshot. Word order still matters both
/// within and across lanes (the final fold consumes lane states in
/// order), so swapped or moved words are detected as reliably as in
/// the single chain.
fn fnv1a_lanes(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [FNV_OFFSET; 4];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().unwrap());
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    fnv1a_words(h, chunks.remainder())
}

/// The v3 pair-payload checksum: both fingerprint digests and the
/// [`fnv1a_lanes`] payload digest folded into one FNV-1a chain.
fn snapshot_checksum(fingerprint: &SourceFingerprint, payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for word in [fingerprint.font, fingerprint.unicode, fnv1a_lanes(payload)] {
        h ^= word;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Reads one little-endian `u32` length prefix at `*cursor`, naming
/// `section` in the rejection when the prefix itself is cut off.
fn read_len(payload: &[u8], cursor: &mut usize, section: &str) -> io::Result<usize> {
    let end = *cursor + 4;
    let bytes = payload.get(*cursor..end).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("truncated length prefix of `{section}` section"),
        )
    })?;
    *cursor = end;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::Pair;
    use sham_confusables::parse;

    fn simchar(pairs: &[(u32, u32)]) -> SimCharDb {
        SimCharDb::from_pairs(
            pairs.iter().map(|&(a, b)| Pair { a, b, delta: 1 }).collect(),
            4,
        )
    }

    #[test]
    fn interner_round_trips_and_rejects_absent() {
        let mut i = CharInterner::default();
        let s1 = i.intern('a' as u32);
        let s2 = i.intern(0x1F600); // supplementary plane
        assert_ne!(s1, s2);
        assert_eq!(i.intern('a' as u32), s1); // idempotent
        assert_eq!(i.symbol('a' as u32), Some(s1));
        assert_eq!(i.symbol(0x1F600), Some(s2));
        assert_eq!(i.code_point(s2), 0x1F600);
        assert_eq!(i.symbol('b' as u32), None); // same page, not interned
        assert_eq!(i.symbol(0x4E00), None); // page never materialised
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn closure_joins_non_transitive_chains() {
        // a–b and b–c listed, a–c NOT listed: the component closure
        // still puts all three in one class…
        let idx = FlatPairIndex::build(
            &simchar(&[('a' as u32, 'b' as u32), ('b' as u32, 'c' as u32)]),
            &UcDatabase::default(),
        );
        assert_eq!(idx.rep_of('a' as u32), 'a' as u32);
        assert_eq!(idx.rep_of('b' as u32), 'a' as u32);
        assert_eq!(idx.rep_of('c' as u32), 'a' as u32);
        assert_eq!(idx.component_count(), 1);
        // …while the pair relation itself stays non-transitive.
        assert!(idx.pair_source('a' as u32, 'c' as u32).is_none());
        assert!(idx.pair_source('a' as u32, 'b' as u32).is_some());
        assert!(idx.pair_source('c' as u32, 'b' as u32).is_some());
    }

    #[test]
    fn rep_is_identity_outside_the_universe() {
        let idx = FlatPairIndex::build(&simchar(&[(1, 2)]), &UcDatabase::default());
        assert_eq!(idx.rep_of(0x4E00), 0x4E00);
        assert_eq!(idx.rep_of(7), 7);
    }

    #[test]
    fn attribution_matches_edge_origin() {
        // o–օ from SimChar only, o–ο from UC only, o–о from both.
        let sim = simchar(&[('o' as u32, 0x0585), ('o' as u32, 0x043E)]);
        let uc = UcDatabase::from_mappings(
            parse("043E ; 006F ; MA\n03BF ; 006F ; MA\n").unwrap(),
        );
        let idx = FlatPairIndex::build(&sim, &uc);
        assert_eq!(idx.pair_source('o' as u32, 0x0585), Some(PairSource::SimChar));
        assert_eq!(idx.pair_source('o' as u32, 0x03BF), Some(PairSource::Uc));
        assert_eq!(idx.pair_source('o' as u32, 0x043E), Some(PairSource::Both));
        // Symmetric, irreflexive, absent pairs rejected.
        assert_eq!(idx.pair_source(0x0585, 'o' as u32), Some(PairSource::SimChar));
        assert_eq!(idx.pair_source('o' as u32, 'o' as u32), None);
        assert_eq!(idx.pair_source('o' as u32, 'q' as u32), None);
        // Shared-prototype UC mates are a pair; all of it is one class.
        assert_eq!(idx.pair_source(0x043E, 0x03BF), Some(PairSource::Uc));
        assert_eq!(idx.component_count(), 1);
        assert_eq!(idx.rep_of(0x03BF), 'o' as u32);
    }

    #[test]
    fn multi_char_prototypes_pair_their_sources_only() {
        // Two sources sharing the multi-char prototype "fi" are a pair
        // with each other but with neither 'f' nor 'i'.
        let uc = UcDatabase::from_mappings(
            parse("FB01 ; 0066 0069 ; MA\nA101 ; 0066 0069 ; MA\n").unwrap(),
        );
        let idx = FlatPairIndex::build(&simchar(&[]), &uc);
        assert_eq!(idx.pair_source(0xFB01, 0xA101), Some(PairSource::Uc));
        assert_eq!(idx.pair_source(0xFB01, 'f' as u32), None);
        assert_eq!(idx.rep_of('f' as u32), 'f' as u32);
    }

    #[test]
    fn component_sizes_match_structure() {
        // Components {10,20,30} and {40,50}: sizes [3, 2], descending.
        let idx = FlatPairIndex::build(
            &simchar(&[(10, 20), (20, 30), (40, 50)]),
            &UcDatabase::default(),
        );
        assert_eq!(idx.component_sizes(), vec![3, 2]);
        assert_eq!(idx.component_count(), 2);
        assert!(FlatPairIndex::default().component_sizes().is_empty());
    }

    /// A stand-in reference section: this layer treats it as opaque.
    const SECTION: &[u8] = b"reference bytes";

    /// `idx` as a full-index snapshot carrying [`SECTION`].
    fn full_snapshot(idx: &FlatPairIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        idx.write_with_section(&mut bytes, SECTION).unwrap();
        bytes
    }

    fn read(bytes: &[u8]) -> io::Result<FlatPairIndex> {
        FlatPairIndex::read_with_section_bytes(bytes).map(|(idx, _)| idx)
    }

    /// Recomputes the pair checksum over the (edited) payload, so
    /// parsing reaches the structural checks.
    fn reseal(bytes: &mut [u8]) {
        let fp = SourceFingerprint {
            font: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
            unicode: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
        };
        let len = u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
        let digest = snapshot_checksum(&fp, &bytes[HEADER_LEN..HEADER_LEN + len]);
        bytes[36..44].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let idx = FlatPairIndex::build(
            &simchar(&[('o' as u32, 0x0585), ('o' as u32, 0x043E), (10, 20)]),
            &UcDatabase::from_mappings(
                parse("043E ; 006F ; MA\n03BF ; 006F ; MA\n").unwrap(),
            ),
        );
        let bytes = full_snapshot(&idx);
        let (back, section) = FlatPairIndex::read_with_section_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(section, SECTION);
        // Serializing the loaded index reproduces the exact bytes.
        assert_eq!(full_snapshot(&back), bytes);
        // The empty index round-trips too.
        assert_eq!(
            read(&full_snapshot(&FlatPairIndex::default())).unwrap(),
            FlatPairIndex::default()
        );
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let idx = FlatPairIndex::build(&simchar(&[(1, 2), (2, 3)]), &UcDatabase::default());
        let bytes = full_snapshot(&idx);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let err = read(&bad).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        let err = read(&bad).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - SECTION.len() - 1;
        bad[last] ^= 0x01;
        let err = read(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation → read error before any parsing.
        assert!(read(&bytes[..bytes.len() / 2]).is_err());

        // The payload-length field (LE u64 at offset 28..36, after the
        // 16-byte fingerprint) is outside the checksum: a flipped high
        // byte claims an enormous payload. It must surface as a clean
        // truncation error — never a huge up-front allocation or a
        // panic.
        let mut bad = bytes.clone();
        bad[35] ^= 0x80;
        let err = read(&bad).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // A flipped *fingerprint* byte (offsets 12..28) is plain file
        // corruption, not a version mismatch: it must fail the
        // checksum here, never reach the staleness check with rebuild
        // advice.
        for at in [12usize, 27] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let err = read(&bad).unwrap_err();
            assert!(err.to_string().contains("checksum"), "offset {at}: {err}");
        }

        // Likewise a forged section count (checksum recomputed so
        // parsing reaches it) must be bounds-checked against the bytes
        // actually present before it sizes any buffer. The payload
        // starts at offset 60; its first u32 is the page_table count.
        let mut forged = bytes.clone();
        forged[60..64].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut forged);
        let err = read(&forged).unwrap_err();
        assert!(
            err.to_string().contains("truncated `interner page table` section"),
            "{err}"
        );
    }

    #[test]
    fn rejections_name_the_offending_section() {
        let idx = FlatPairIndex::build(&simchar(&[(1, 2), (2, 3)]), &UcDatabase::default());
        let bytes = full_snapshot(&idx);
        // Payload layout: sections start at offset 60, each a u32 count
        // then count u32s. Walk to each section's count, forge it, and
        // re-checksum so parsing reaches the structural check.
        let section_offsets = {
            let mut at = HEADER_LEN;
            let mut offs = Vec::new();
            for _ in 0..6 {
                offs.push(at);
                let count =
                    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                at += 4 + 4 * count;
            }
            offs.push(at); // attribution count
            offs
        };
        for (i, section) in [
            "interner page table",
            "interner slots",
            "interner code points",
            "component representatives",
            "CSR offsets",
            "CSR neighbours",
            "pair attribution",
        ]
        .iter()
        .enumerate()
        {
            // Oversized count → a truncation naming the section.
            let mut forged = bytes.clone();
            forged[section_offsets[i]..section_offsets[i] + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            reseal(&mut forged);
            let err = read(&forged).unwrap_err();
            assert!(err.to_string().contains(section), "section {section}: {err}");
        }
        // A structurally inconsistent (but well-framed) section names
        // itself too: point a rep entry nowhere by shrinking the rep
        // count to 0 while keeping the code-point section non-empty.
        let rep_at = section_offsets[3];
        let rep_count =
            u32::from_le_bytes(bytes[rep_at..rep_at + 4].try_into().unwrap()) as usize;
        let mut forged = bytes.clone();
        forged[rep_at..rep_at + 4].copy_from_slice(&0u32.to_le_bytes());
        forged.drain(rep_at + 4..rep_at + 4 + 4 * rep_count);
        // The removed bytes shrink the payload; fix the length header.
        let new_len = (forged.len() - HEADER_LEN - SECTION.len()) as u64;
        forged[28..36].copy_from_slice(&new_len.to_le_bytes());
        reseal(&mut forged);
        let err = read(&forged).unwrap_err();
        assert!(
            err.to_string().contains("component representatives"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_stat_path_names_the_file_in_every_rejection() {
        let dir = std::env::temp_dir().join("shamfinder-flat-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Open failure names the missing file.
        let missing = dir.join("does-not-exist.idx");
        let err = FlatPairIndex::snapshot_stat_path(&missing).unwrap_err();
        assert!(err.to_string().contains("does-not-exist.idx"), "{err}");

        // A corrupt file names both the file and the reason.
        let idx = FlatPairIndex::build(&simchar(&[(1, 2)]), &UcDatabase::default());
        let mut bytes = full_snapshot(&idx);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let corrupt = dir.join("corrupt.idx");
        std::fs::write(&corrupt, &bytes).unwrap();
        let err = FlatPairIndex::snapshot_stat_path(&corrupt).unwrap_err();
        assert!(err.to_string().contains("corrupt.idx"), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");

        // And a good file stats identically through the path API.
        bytes[last] ^= 0x01;
        let good = dir.join("good.idx");
        std::fs::write(&good, &bytes).unwrap();
        let stat = FlatPairIndex::snapshot_stat_path(&good).unwrap();
        assert_eq!(stat.fingerprint, idx.fingerprint());
        assert_eq!(stat.reference_section, SECTION);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_identifies_the_sources() {
        let sim = simchar(&[(1, 2), (2, 3)]);
        let uc = UcDatabase::from_mappings(parse("043E ; 006F ; MA\n").unwrap());
        let fp = SourceFingerprint::of(&sim, &uc);
        // Deterministic, and sensitive to each half independently.
        assert_eq!(fp, SourceFingerprint::of(&sim, &uc));
        let other_font = SourceFingerprint::of(&simchar(&[(1, 2), (2, 4)]), &uc);
        assert_eq!(other_font.unicode, fp.unicode);
        assert_ne!(other_font.font, fp.font);
        let other_uc = SourceFingerprint::of(
            &sim,
            &UcDatabase::from_mappings(parse("03BF ; 006F ; MA\n").unwrap()),
        );
        assert_eq!(other_uc.font, fp.font);
        assert_ne!(other_uc.unicode, fp.unicode);
        // θ alone changes the font digest (same pair list).
        let retuned = SimCharDb::from_pairs(
            [(1u32, 2u32), (2, 3)].iter().map(|&(a, b)| Pair { a, b, delta: 1 }).collect(),
            7,
        );
        assert_ne!(SourceFingerprint::of(&retuned, &uc).font, fp.font);
    }

    #[test]
    fn snapshot_carries_the_fingerprint() {
        let sim = simchar(&[('o' as u32, 0x043E)]);
        let uc = UcDatabase::from_mappings(parse("043E ; 006F ; MA\n").unwrap());
        let idx = FlatPairIndex::build(&sim, &uc);
        assert_eq!(idx.fingerprint(), SourceFingerprint::of(&sim, &uc));
        let back = read(&full_snapshot(&idx)).unwrap();
        assert_eq!(back.fingerprint(), idx.fingerprint());
    }

    #[test]
    fn reference_section_round_trips_and_rejects_corruption() {
        let idx = FlatPairIndex::build(&simchar(&[(1, 2), (2, 3)]), &UcDatabase::default());
        let section: Vec<u8> = (0u16..600).flat_map(u16::to_le_bytes).collect();
        let mut bytes = Vec::new();
        idx.write_with_section(&mut bytes, &section).unwrap();

        // Both halves come back.
        let (back, got) = FlatPairIndex::read_with_section_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(got, &section[..]);

        // An empty section is no full index: refused by name.
        let mut empty = Vec::new();
        idx.write_with_section(&mut empty, &[]).unwrap();
        let err = read(&empty).unwrap_err();
        assert!(err.to_string().contains("no reference section"), "{err}");

        // A flipped section byte fails the section checksum — the pair
        // half is untouched, so the error names the reference section.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let err = read(&bad).unwrap_err();
        assert!(err.to_string().contains("`reference section` checksum"), "{err}");

        // Truncation inside the section names it too.
        let cut = bytes.len() - 7;
        let err = read(&bytes[..cut]).unwrap_err();
        assert!(err.to_string().contains("truncated `reference section`"), "{err}");
    }

    #[test]
    fn snapshot_stat_inventories_the_file() {
        let idx = FlatPairIndex::build(&simchar(&[(1, 2), (2, 3)]), &UcDatabase::default());
        let section = vec![0xABu8; 96];
        let mut bytes = Vec::new();
        idx.write_with_section(&mut bytes, &section).unwrap();

        let stat = FlatPairIndex::snapshot_stat(&bytes).unwrap();
        assert_eq!(stat.version, SNAPSHOT_VERSION);
        assert_eq!(stat.fingerprint, idx.fingerprint());
        assert_eq!(stat.reference_bytes, 96);
        assert_eq!(stat.reference_section, section);
        assert_ne!(stat.reference_checksum, 0);
        // The section inventory accounts for the whole pair payload.
        let total: usize = stat.sections.iter().map(|s| s.bytes).sum();
        assert_eq!(total as u64, stat.pair_payload_bytes);
        assert_eq!(bytes.len() as u64, 60 + stat.pair_payload_bytes + 96);
        // Header checksum field matches the reported one.
        assert_eq!(
            u64::from_le_bytes(bytes[36..44].try_into().unwrap()),
            stat.pair_checksum
        );

        // Corruption surfaces with the load path's named errors.
        let mut bad = bytes.clone();
        bad[61] ^= 0x01;
        let err = FlatPairIndex::snapshot_stat(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn counts_are_consistent() {
        let idx = FlatPairIndex::build(
            &simchar(&[(10, 20), (20, 30), (40, 50)]),
            &UcDatabase::default(),
        );
        assert_eq!(idx.char_count(), 5);
        assert_eq!(idx.pair_count(), 3);
        assert_eq!(idx.component_count(), 2);
        assert_eq!(idx.rep_of(30), 10);
        assert_eq!(idx.rep_of(50), 40);
    }
}
