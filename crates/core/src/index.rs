//! The shared immutable index layer.
//!
//! [`DetectionIndex`] bundles everything Algorithm 1 needs that is
//! *corpus-independent*: the homoglyph database with its flat pair
//! index (interner + rep table + CSR, built in `sham_simchar`) and the
//! reference-list side — a flat [`ReferenceSet`]. It is built once and
//! never mutated, so any number of per-TLD [`Framework`]s and
//! streaming [`DetectorSession`]s share one build behind an `Arc`
//! instead of each cloning `HomoglyphDb` (PR 3 made per-IDN detection
//! so cheap that those clones had become a dominant cost).
//!
//! The reference set uses the same interned-CSR idiom as the pair
//! index: a name-byte arena with an offset table (names are
//! [`RefName`] handles into it), a stem arena with an offset table,
//! and the two candidate indexes as **sorted runs** — `(closure_hash,
//! ref_idx)` pairs sorted by hash with a prefix-offset accelerator,
//! and length-grouped `ref_idx` runs behind a direct length-offset
//! table — instead of `HashMap<_, Vec<u32>>`. Flat arrays make the
//! set *mountable*: [`DetectionIndex::write_snapshot`] writes it as
//! the reference section of the one snapshot format, the v3
//! full-index file, and [`DetectionIndex::from_snapshot_bytes`]
//! restores it with one checksum pass plus length-prefixed pointer
//! fixups — no per-entry allocation and no re-hashing, so a mount
//! costs a fraction of building the flat pair index and the reference
//! set. perfbench's traced run reports both: `index.mount_ms` against
//! `index.flat_build_ms` plus `index.refset_build_ms`.
//!
//! Sessions that need reference-list churn take a copy-on-write clone
//! of the reference-set half only — the flat character index, by far
//! the larger structure, is never duplicated. Churn edits overlay the
//! flat base: additions index into small side maps, removals tombstone,
//! and compaction rebuilds the flat layout over the survivors.
//!
//! [`Framework`]: crate::Framework
//! [`DetectorSession`]: crate::DetectorSession

use crate::detection::RefName;
use sham_confusables::UcDatabase;
use sham_simchar::{FlatPairIndex, HomoglyphDb, SimCharDb};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;

/// FNV-1a offset basis shared by [`closure_hash`] and
/// [`reference_digest`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over the union-find component representatives of a stem. Two
/// stems that match under Algorithm 1 have pairwise same-component
/// characters, so they hash identically — see the soundness argument
/// in [`crate::algorithm`]. Each representative is two array reads in
/// the flat interner; no per-character hashing.
pub(crate) fn closure_hash(db: &HomoglyphDb, stem: &[u32]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &cp in stem {
        h ^= u64::from(db.rep_of(cp));
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds `bytes` into a running FNV-1a state.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest identifying a reference list: FNV-1a over the names in
/// order (length-prefixed, count-terminated, so list boundaries are
/// unambiguous). Recorded in the snapshot's reference section and
/// recomputed from an expected list to detect a *stale reference
/// list* the same way [`sham_simchar::SourceFingerprint`] detects a
/// stale font build or confusables revision.
pub fn reference_digest<'a>(names: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut count: u32 = 0;
    for name in names {
        h = fnv1a(h, &(name.len() as u32).to_le_bytes());
        h = fnv1a(h, name.as_bytes());
        count = count.wrapping_add(1);
    }
    fnv1a(h, &count.to_le_bytes())
}

/// Recorded digest and reference count of a serialized reference
/// section (its first two fields), without mounting it — what
/// `shamfinder index stat` prints.
pub fn reference_section_summary(section: &[u8]) -> io::Result<(u64, u32)> {
    let mut cur = Cursor { bytes: section, at: 0 };
    Ok((cur.u64("list digest")?, cur.u32("reference count")?))
}

/// The reference-list half of the detection index, in the flat
/// mount-friendly layout described in the [module docs](self):
/// name/stem arenas plus offset tables, and sorted candidate runs over
/// the *base* entries (`0..base_len`). Inside a [`DetectionIndex`]
/// every entry is a base entry and alive; a
/// [`DetectorSession`](crate::DetectorSession) applying reference
/// diffs edits its own clone incrementally — added references append
/// and index into the side maps, removed references tombstone (probes
/// filter on the alive bitmap), with no rebuild of the surviving
/// entries.
#[derive(Debug, Clone)]
pub struct ReferenceSet {
    /// Base name storage: one shared arena holding entries
    /// `0..name_offsets.len() - 1` back to back. Handles are
    /// materialised on demand ([`ReferenceSet::name`]) — a mount never
    /// allocates or reference-counts 10k `RefName`s up front.
    name_arena: Arc<str>,
    /// Entry `i`'s name is `name_arena[name_offsets[i]..name_offsets[i + 1]]`
    /// while `i < name_offsets.len() - 1`.
    name_offsets: Vec<u32>,
    /// Names of entries past the arena (session-appended, or survivors
    /// of a [`ReferenceSet::flatten`]), each an arena handle of its
    /// own.
    owned_names: Vec<RefName>,
    /// All stems' code points, concatenated.
    stem_arena: Vec<u32>,
    /// Entry `i`'s stem is `stem_arena[stem_offsets[i]..stem_offsets[i + 1]]`.
    stem_offsets: Vec<u32>,
    /// Closure hash of each stem, kept so removal needs no re-hash.
    hashes: Vec<u64>,
    /// False for references removed by a session diff.
    alive: Vec<bool>,
    /// Number of alive references.
    live: usize,
    /// Entries `0..base_len` are covered by the sorted runs below;
    /// later (session-appended) entries live in the side maps.
    base_len: u32,
    /// Sorted closure-run keys, parallel to `closure_refs`: the
    /// `(closure_hash, ref_idx)` pairs in ascending order.
    closure_keys: Vec<u64>,
    /// Reference index of each closure-run entry.
    closure_refs: Vec<u32>,
    /// Hash-prefix accelerator: bucket `p` (the top bits of the hash)
    /// covers `closure_keys[closure_prefix[p]..closure_prefix[p + 1]]`.
    /// Derived, never serialized — one counting pass at mount.
    closure_prefix: Vec<u32>,
    /// How far a hash is shifted right to get its prefix bucket.
    closure_shift: u32,
    /// Stems of length `l` are `len_refs[len_offsets[l]..len_offsets[l + 1]]`
    /// (ascending index); lengths past the table are empty.
    len_offsets: Vec<u32>,
    /// Length-grouped reference indices.
    len_refs: Vec<u32>,
    /// Closure-hash side map for session-appended entries.
    extra_closure: HashMap<u64, Vec<u32>>,
    /// Length side map for session-appended entries.
    extra_len: HashMap<usize, Vec<u32>>,
    /// Name → indices, built lazily on the first removal so heavy-churn
    /// sessions don't pay a linear scan per removed name — and never
    /// built at all on the construction/mount fast paths.
    name_map: Option<HashMap<String, Vec<u32>>>,
}

impl ReferenceSet {
    fn empty() -> ReferenceSet {
        ReferenceSet {
            name_arena: Arc::from(""),
            name_offsets: vec![0],
            owned_names: Vec::new(),
            stem_arena: Vec::new(),
            stem_offsets: vec![0],
            hashes: Vec::new(),
            alive: Vec::new(),
            live: 0,
            base_len: 0,
            closure_keys: Vec::new(),
            closure_refs: Vec::new(),
            closure_prefix: Vec::new(),
            closure_shift: 63,
            len_offsets: Vec::new(),
            len_refs: Vec::new(),
            extra_closure: HashMap::new(),
            extra_len: HashMap::new(),
            name_map: None,
        }
    }

    /// Builds the set over `references` in order: one arena pass
    /// (names concatenated into one shared allocation, not one `Arc`
    /// each), then one sort per candidate index — no per-reference map
    /// insertions.
    pub fn build(db: &HomoglyphDb, references: impl IntoIterator<Item = String>) -> ReferenceSet {
        let mut set = ReferenceSet::empty();
        let mut arena = String::new();
        for name in references {
            let start = set.stem_arena.len();
            set.stem_arena.extend(name.chars().map(|c| c as u32));
            set.hashes.push(closure_hash(db, &set.stem_arena[start..]));
            set.stem_offsets.push(set.stem_arena.len() as u32);
            arena.push_str(&name);
            set.name_offsets.push(arena.len() as u32);
        }
        set.name_arena = Arc::from(arena);
        let n = set.name_offsets.len() - 1;
        set.alive = vec![true; n];
        set.live = n;
        set.base_len = n as u32;
        set.rebuild_base_indexes();
        set
    }

    /// Recomputes the sorted candidate runs over `0..base_len`
    /// (assumed to be every entry). Sorting by `(hash, idx)` keeps
    /// same-hash candidates in ascending-index order — the insertion
    /// order the bucket maps used to preserve, so detections are
    /// emitted identically.
    fn rebuild_base_indexes(&mut self) {
        let n = self.base_len as usize;
        debug_assert_eq!(n, self.total());
        let mut pairs: Vec<(u64, u32)> =
            self.hashes.iter().enumerate().map(|(i, &h)| (h, i as u32)).collect();
        pairs.sort_unstable();
        self.closure_keys = pairs.iter().map(|&(k, _)| k).collect();
        self.closure_refs = pairs.iter().map(|&(_, i)| i).collect();
        self.rebuild_closure_prefix();

        // Length runs by counting sort — naturally ascending-index
        // within each length bucket.
        let max_len = (0..n).map(|i| self.stem_len(i)).max().unwrap_or(0);
        let mut offsets = vec![0u32; max_len + 2];
        for i in 0..n {
            offsets[self.stem_len(i) + 1] += 1;
        }
        for l in 0..max_len + 1 {
            offsets[l + 1] += offsets[l];
        }
        let mut refs = vec![0u32; n];
        let mut cursor = offsets.clone();
        for i in 0..n {
            let l = self.stem_len(i);
            refs[cursor[l] as usize] = i as u32;
            cursor[l] += 1;
        }
        self.len_offsets = offsets;
        self.len_refs = refs;
    }

    /// Rebuilds the hash-prefix offset table over the (sorted)
    /// closure-run keys: one counting pass, two flat allocations —
    /// the only index work a snapshot mount performs. Probes then
    /// narrow to a near-singleton key range with two array reads
    /// instead of a full binary search (or a SipHash map probe).
    fn rebuild_closure_prefix(&mut self) {
        let n = self.closure_keys.len();
        // ~2 expected entries per bucket, capped at 64k buckets.
        let bits = ((n.max(2) - 1).ilog2() + 1).min(16);
        let shift = 64 - bits;
        let buckets = 1usize << bits;
        let mut prefix = vec![0u32; buckets + 1];
        for &k in &self.closure_keys {
            prefix[((k >> shift) as usize) + 1] += 1;
        }
        for b in 0..buckets {
            prefix[b + 1] += prefix[b];
        }
        self.closure_shift = shift;
        self.closure_prefix = prefix;
    }

    /// Appends one reference, indexing it in the side maps. O(1)
    /// amortised — the sorted base runs are untouched.
    pub(crate) fn add(&mut self, db: &HomoglyphDb, name: &str) {
        let idx = self.total() as u32;
        let start = self.stem_arena.len();
        self.stem_arena.extend(name.chars().map(|c| c as u32));
        let hash = closure_hash(db, &self.stem_arena[start..]);
        let len = self.stem_arena.len() - start;
        self.stem_offsets.push(self.stem_arena.len() as u32);
        self.hashes.push(hash);
        self.extra_closure.entry(hash).or_default().push(idx);
        self.extra_len.entry(len).or_default().push(idx);
        if let Some(map) = &mut self.name_map {
            map.entry(name.to_string()).or_default().push(idx);
        }
        self.owned_names.push(RefName::new(name));
        self.alive.push(true);
        self.live += 1;
    }

    /// Removes every reference named `name` (duplicates included) by
    /// tombstoning it, returning how many were removed. Candidate
    /// probes filter on the alive bitmap, so no run or side map is
    /// edited. The first removal builds the name→indices map (one
    /// pass); every later removal — the heavy-churn steady state — is
    /// a single map probe instead of a scan over all names.
    pub(crate) fn remove(&mut self, name: &str) -> usize {
        let arena_count = self.name_offsets.len() - 1;
        let (name_arena, name_offsets, owned) =
            (&self.name_arena, &self.name_offsets, &self.owned_names);
        let map = self.name_map.get_or_insert_with(|| {
            let mut map: HashMap<String, Vec<u32>> =
                HashMap::with_capacity(arena_count + owned.len());
            for i in 0..arena_count + owned.len() {
                let n = if i < arena_count {
                    &name_arena[name_offsets[i] as usize..name_offsets[i + 1] as usize]
                } else {
                    owned[i - arena_count].as_str()
                };
                map.entry(n.to_string()).or_default().push(i as u32);
            }
            map
        });
        let mut removed = 0;
        for &i in map.get(name).map(Vec::as_slice).unwrap_or(&[]) {
            if self.alive[i as usize] {
                self.alive[i as usize] = false;
                removed += 1;
            }
        }
        self.live -= removed;
        removed
    }

    /// Number of alive references.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Total number of entries, tombstoned ones included.
    pub(crate) fn total(&self) -> usize {
        self.alive.len()
    }

    /// Number of tombstoned entries still occupying table slots.
    pub(crate) fn dead_count(&self) -> usize {
        self.total() - self.live
    }

    /// True when every entry is alive and covered by the sorted base
    /// runs — the canonical layout snapshots are written from.
    fn is_flat(&self) -> bool {
        self.dead_count() == 0 && self.base_len as usize == self.total()
    }

    /// Rebuilds the flat layout over the surviving references, in their
    /// original relative order: arenas re-laid-out densely, side maps
    /// absorbed into fresh sorted base runs, tombstones dropped. The
    /// surviving [`RefName`] handles are *cloned* (arena handle
    /// copies), so detections already emitted stay valid and still
    /// share storage with the rebuilt set.
    fn flatten(&mut self) {
        let mut names = Vec::with_capacity(self.live);
        let mut stem_offsets = Vec::with_capacity(self.live + 1);
        stem_offsets.push(0u32);
        let mut stem_arena = Vec::new();
        let mut hashes = Vec::with_capacity(self.live);
        for i in 0..self.total() {
            if !self.alive[i] {
                continue;
            }
            names.push(self.name(i as u32));
            let (lo, hi) =
                (self.stem_offsets[i] as usize, self.stem_offsets[i + 1] as usize);
            stem_arena.extend_from_slice(&self.stem_arena[lo..hi]);
            stem_offsets.push(stem_arena.len() as u32);
            hashes.push(self.hashes[i]);
        }
        // Survivors keep their existing arena handles (the old shared
        // arena stays alive through them); the rebuilt set has no base
        // arena of its own until the next serialization re-lays one.
        self.name_arena = Arc::from("");
        self.name_offsets = vec![0];
        self.owned_names = names;
        self.stem_arena = stem_arena;
        self.stem_offsets = stem_offsets;
        self.hashes = hashes;
        self.live = self.owned_names.len();
        self.alive = vec![true; self.live];
        self.base_len = self.live as u32;
        self.extra_closure = HashMap::new();
        self.extra_len = HashMap::new();
        self.name_map = None;
        self.rebuild_base_indexes();
    }

    /// Drops tombstoned entries by rebuilding the flat layout
    /// ([`ReferenceSet::flatten`]); a fully-alive set is left alone. A
    /// long-lived session with heavy reference churn calls this when
    /// the dead fraction passes its threshold, bounding the otherwise
    /// ever-growing arenas.
    pub(crate) fn compact(&mut self) {
        if self.dead_count() == 0 {
            return;
        }
        self.flatten();
    }

    /// Whether reference `idx` is alive (not removed by a diff).
    #[inline]
    pub(crate) fn is_alive(&self, idx: u32) -> bool {
        self.alive[idx as usize]
    }

    /// All alive reference indices — the `Naive` strategy's candidate
    /// set.
    pub(crate) fn all_indices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.total() as u32).filter(|&i| self.is_alive(i))
    }

    /// The base-run range holding closure hash `h`: two prefix-table
    /// reads narrow to a near-singleton key range, then a binary
    /// search inside it (usually over 0–2 entries) pins the bounds.
    fn closure_base_range(&self, h: u64) -> std::ops::Range<usize> {
        if self.closure_prefix.is_empty() {
            return 0..0;
        }
        let p = (h >> self.closure_shift) as usize;
        let (lo, hi) = (self.closure_prefix[p] as usize, self.closure_prefix[p + 1] as usize);
        let keys = &self.closure_keys[lo..hi];
        let start = lo + keys.partition_point(|&k| k < h);
        let end = lo + keys.partition_point(|&k| k <= h);
        start..end
    }

    /// Alive candidate indices whose stems share closure hash `h`, in
    /// ascending index order (base run first, then session-appended
    /// entries — which always carry larger indices).
    #[inline]
    pub(crate) fn closure_candidates(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        self.closure_refs[self.closure_base_range(h)]
            .iter()
            .copied()
            .chain(self.extra_closure.get(&h).into_iter().flatten().copied())
            .filter(move |&i| self.alive[i as usize])
    }

    /// Alive candidate indices whose stems have length `len`, in
    /// ascending index order.
    #[inline]
    pub(crate) fn len_candidates(&self, len: usize) -> impl Iterator<Item = u32> + '_ {
        let base = if len + 1 < self.len_offsets.len() {
            self.len_offsets[len] as usize..self.len_offsets[len + 1] as usize
        } else {
            0..0
        };
        self.len_refs[base]
            .iter()
            .copied()
            .chain(self.extra_len.get(&len).into_iter().flatten().copied())
            .filter(move |&i| self.alive[i as usize])
    }

    /// Entry `idx`'s interned stem.
    #[inline]
    pub(crate) fn stem(&self, idx: u32) -> &[u32] {
        let (lo, hi) = (
            self.stem_offsets[idx as usize] as usize,
            self.stem_offsets[idx as usize + 1] as usize,
        );
        &self.stem_arena[lo..hi]
    }

    /// Stem length of entry `i`.
    #[inline]
    fn stem_len(&self, i: usize) -> usize {
        (self.stem_offsets[i + 1] - self.stem_offsets[i]) as usize
    }

    /// Entry `idx`'s name handle, materialised on demand: an arena
    /// slice handle for base entries, a clone of the owned handle
    /// otherwise — one `Arc` count bump either way, no string copy.
    #[inline]
    pub(crate) fn name(&self, idx: u32) -> RefName {
        let i = idx as usize;
        let arena_count = self.name_offsets.len() - 1;
        if i < arena_count {
            RefName::slice_of(&self.name_arena, self.name_offsets[i], self.name_offsets[i + 1])
        } else {
            self.owned_names[i - arena_count].clone()
        }
    }

    /// Entry `idx`'s name as a plain borrow — for digesting,
    /// serializing and map building, where no handle is needed.
    fn name_str(&self, idx: usize) -> &str {
        let arena_count = self.name_offsets.len() - 1;
        if idx < arena_count {
            &self.name_arena[self.name_offsets[idx] as usize..self.name_offsets[idx + 1] as usize]
        } else {
            self.owned_names[idx - arena_count].as_str()
        }
    }

    /// Serializes the set into the v3 snapshot's reference section:
    /// the list digest, then the name arena, stem arena, hashes and
    /// both sorted candidate runs as length-derivable flat arrays (see
    /// the format table in `docs/ARCHITECTURE.md`). The write is
    /// canonical — a non-flat set (tombstones or session-appended
    /// entries) is flattened into a temporary first, so a mount never
    /// sees overlay state.
    pub(crate) fn to_section_bytes(&self) -> Vec<u8> {
        if !self.is_flat() {
            let mut flat = self.clone();
            flat.flatten();
            return flat.to_section_bytes();
        }
        let n = self.total();
        // A set whose names all live in the base arena (built or
        // mounted, never churned) serializes that arena as is; only
        // owned names force a re-lay.
        let mut laid: Option<(Vec<u32>, String)> = None;
        let (name_offsets, arena): (&[u32], &str) = if self.owned_names.is_empty() {
            (&self.name_offsets, &self.name_arena)
        } else {
            let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
            let mut arena = String::new();
            offsets.push(0);
            for i in 0..n {
                arena.push_str(self.name_str(i));
                offsets.push(arena.len() as u32);
            }
            let (offsets, arena) = laid.insert((offsets, arena));
            (offsets, arena)
        };
        let digest = reference_digest((0..n).map(|i| self.name_str(i)));

        let push_u32s = |out: &mut Vec<u8>, vals: &[u32]| {
            for &v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        let push_u64s = |out: &mut Vec<u8>, vals: &[u64]| {
            for &v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        let mut out = Vec::with_capacity(
            8 + 4
                + 4 * (name_offsets.len() + self.stem_offsets.len() + 3)
                + arena.len()
                + 4 * (self.stem_arena.len() + self.closure_refs.len())
                + 8 * (self.hashes.len() + self.closure_keys.len())
                + 4 * (self.len_offsets.len() + self.len_refs.len()),
        );
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        push_u32s(&mut out, name_offsets);
        out.extend_from_slice(&(arena.len() as u32).to_le_bytes());
        out.extend_from_slice(arena.as_bytes());
        push_u32s(&mut out, &self.stem_offsets);
        out.extend_from_slice(&(self.stem_arena.len() as u32).to_le_bytes());
        push_u32s(&mut out, &self.stem_arena);
        push_u64s(&mut out, &self.hashes);
        push_u64s(&mut out, &self.closure_keys);
        push_u32s(&mut out, &self.closure_refs);
        out.extend_from_slice(&(self.len_offsets.len() as u32).to_le_bytes());
        push_u32s(&mut out, &self.len_offsets);
        push_u32s(&mut out, &self.len_refs);
        out
    }

    /// Mounts a reference section written by
    /// [`ReferenceSet::to_section_bytes`], returning the set and the
    /// recorded list digest. The section's checksum was already
    /// verified by the snapshot framing; this parses the flat arrays
    /// (pointer fixups, one `Arc` for the whole name arena — no
    /// per-entry allocation, no re-hashing) and structurally validates
    /// them, naming the offending subsection on rejection, so a
    /// corrupted-but-checksummed section can never panic detection
    /// later.
    pub(crate) fn from_section_bytes(bytes: &[u8]) -> io::Result<(ReferenceSet, u64)> {
        let bad = |msg: &str| {
            io::Error::new(io::ErrorKind::InvalidData, format!("reference section: {msg}"))
        };
        let mut cur = Cursor { bytes, at: 0 };
        let digest = cur.u64("list digest")?;
        let n = cur.u32("reference count")? as usize;
        let name_offsets = cur.u32s(n + 1, "name offsets")?;
        let arena_len = cur.u32("name arena")? as usize;
        let arena_bytes = cur.take(arena_len, "name arena")?;
        let stem_offsets = cur.u32s(n + 1, "stem offsets")?;
        let stem_total = cur.u32("stem arena")? as usize;
        let stem_arena = cur.u32s(stem_total, "stem arena")?;
        let hashes = cur.u64s(n, "closure hashes")?;
        let closure_keys = cur.u64s(n, "closure runs")?;
        let closure_refs = cur.u32s(n, "closure runs")?;
        let len_offsets_len = cur.u32("length runs")? as usize;
        let len_offsets = cur.u32s(len_offsets_len, "length runs")?;
        let len_refs = cur.u32s(n, "length runs")?;
        if cur.at != bytes.len() {
            return Err(bad("trailing bytes after the last section"));
        }
        // Name arena: valid UTF-8, offsets monotone within it and on
        // char boundaries — then ONE allocation backs every name.
        let arena_str = std::str::from_utf8(arena_bytes)
            .map_err(|_| bad("`name arena` section is not valid UTF-8"))?;
        if name_offsets.first() != Some(&0)
            || name_offsets.windows(2).any(|w| w[0] > w[1])
            || name_offsets.last().copied() != Some(arena_len as u32)
            || name_offsets.iter().any(|&o| !arena_str.is_char_boundary(o as usize))
        {
            return Err(bad("inconsistent `name offsets` section"));
        }
        if stem_offsets.first() != Some(&0)
            || stem_offsets.windows(2).any(|w| w[0] > w[1])
            || stem_offsets.last().copied() != Some(stem_arena.len() as u32)
        {
            return Err(bad("inconsistent `stem offsets` section"));
        }
        let stem_len =
            |i: usize| (stem_offsets[i + 1] - stem_offsets[i]) as usize;
        // Closure runs: strictly increasing `(key, idx)` pairs whose
        // key matches the entry's recorded hash. Strict order plus the
        // hash tie makes the run a permutation of `0..n` — every entry
        // probed exactly once.
        for j in 0..n {
            let (k, i) = (closure_keys[j], closure_refs[j]);
            if i as usize >= n || hashes[i as usize] != k {
                return Err(bad("inconsistent `closure runs` section"));
            }
            if j > 0 && (closure_keys[j - 1], closure_refs[j - 1]) >= (k, i) {
                return Err(bad("unsorted `closure runs` section"));
            }
        }
        // Length runs: a monotone offset table over ascending-index
        // buckets whose entries actually have that stem length (which
        // likewise forces a permutation).
        if len_offsets.first() != Some(&0)
            || len_offsets.windows(2).any(|w| w[0] > w[1])
            || len_offsets.last().copied() != Some(n as u32)
        {
            return Err(bad("inconsistent `length runs` section"));
        }
        for l in 0..len_offsets.len().saturating_sub(1) {
            let (lo, hi) = (len_offsets[l] as usize, len_offsets[l + 1] as usize);
            for j in lo..hi {
                let i = len_refs[j] as usize;
                if i >= n || stem_len(i) != l || (j > lo && len_refs[j - 1] >= len_refs[j]) {
                    return Err(bad("inconsistent `length runs` section"));
                }
            }
        }

        let mut set = ReferenceSet {
            name_arena: Arc::from(arena_str),
            name_offsets,
            owned_names: Vec::new(),
            stem_arena,
            stem_offsets,
            hashes,
            alive: vec![true; n],
            live: n,
            base_len: n as u32,
            closure_keys,
            closure_refs,
            closure_prefix: Vec::new(),
            closure_shift: 63,
            len_offsets,
            len_refs,
            extra_closure: HashMap::new(),
            extra_len: HashMap::new(),
            name_map: None,
        };
        set.rebuild_closure_prefix();
        Ok((set, digest))
    }
}

/// Bounds-checked little-endian reader over a reference section.
/// Every rejection names the subsection it was reading, and every
/// allocation is sized from bytes actually present — a forged count on
/// a short section is a truncation error, not an OOM.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, count: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reference section: truncated `{what}` section"),
                )
            })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn u32s(&mut self, count: usize, what: &str) -> io::Result<Vec<u32>> {
        Ok(self
            .take(count * 4, what)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    fn u64s(&mut self, count: usize, what: &str) -> io::Result<Vec<u64>> {
        Ok(self
            .take(count * 8, what)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }
}

/// The immutable index layer: one homoglyph database (with its flat
/// pair index) plus one fully-indexed reference list. Build it once
/// with [`DetectionIndex::shared`] — or mount it with
/// [`DetectionIndex::from_snapshot_file`] — and hand the `Arc` to
/// every [`Framework`](crate::Framework) and
/// [`DetectorSession`](crate::DetectorSession) that scores against
/// the same references — nothing here is ever mutated after
/// construction. [`DetectionIndex::detect`] runs Algorithm 1 on it
/// directly.
#[derive(Debug)]
pub struct DetectionIndex {
    db: HomoglyphDb,
    refs: ReferenceSet,
}

impl DetectionIndex {
    /// Builds the index for `references` (TLD-stripped ASCII stems,
    /// e.g. `"google"`).
    pub fn new(db: HomoglyphDb, references: impl IntoIterator<Item = String>) -> Self {
        let refs = ReferenceSet::build(&db, references);
        DetectionIndex { db, refs }
    }

    /// [`DetectionIndex::new`] wrapped for sharing: the form every
    /// multi-pipeline deployment wants.
    pub fn shared(
        db: HomoglyphDb,
        references: impl IntoIterator<Item = String>,
    ) -> Arc<Self> {
        Arc::new(DetectionIndex::new(db, references))
    }

    /// The underlying homoglyph database.
    pub fn db(&self) -> &HomoglyphDb {
        &self.db
    }

    /// Number of references in the index.
    pub fn reference_count(&self) -> usize {
        self.refs.total()
    }

    /// Reference `idx`'s name handle (insertion order), materialised
    /// on demand — the index holds one shared name arena, not a
    /// handle per entry.
    pub fn reference(&self, idx: usize) -> RefName {
        self.refs.name(idx as u32)
    }

    /// The indexed reference set.
    pub(crate) fn refs(&self) -> &ReferenceSet {
        &self.refs
    }

    /// Digest of the current reference list — the identity recorded in
    /// snapshots and compared by [`DetectionIndex::expect_references`].
    pub fn reference_digest(&self) -> u64 {
        reference_digest((0..self.refs.total()).map(|i| self.refs.name_str(i)))
    }

    /// Writes the whole index — pair index *and* reference set — as
    /// one v3 full-index snapshot: the flat reference layout becomes
    /// the file's reference section, keyed by the same source
    /// fingerprint.
    pub fn write_snapshot(&self, writer: &mut impl Write) -> io::Result<()> {
        self.db
            .flat()
            .write_with_section(writer, &self.refs.to_section_bytes())
    }

    /// [`DetectionIndex::write_snapshot`] to a file, rejections
    /// prefixed with the path.
    pub fn write_snapshot_file(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let path = path.as_ref();
        let named =
            |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let file = std::fs::File::create(path).map_err(named)?;
        let mut writer = io::BufWriter::new(file);
        self.write_snapshot(&mut writer).map_err(named)?;
        writer.into_inner().map_err(|e| named(e.into_error()))?.sync_all().map_err(named)
    }

    /// Cold-starts a full detection index from an in-memory v3
    /// snapshot — the mount path every other entry point funnels
    /// through. Both halves are checksummed and parsed directly from
    /// sub-slices of `bytes`
    /// ([`sham_simchar::FlatPairIndex::read_with_section_bytes`]), so
    /// the only allocations are the mounted arrays themselves: the pair
    /// index's flat arrays are restored, and the reference set is
    /// mounted with pointer fixups only — no per-reference allocation,
    /// no re-hashing, no sorting. The snapshot's source fingerprint is
    /// verified against the supplied databases first (rejecting stale
    /// font builds / confusables revisions by name); use
    /// [`DetectionIndex::expect_references`] to additionally pin the
    /// reference list.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        simchar: impl Into<Arc<SimCharDb>>,
        uc: impl Into<Arc<UcDatabase>>,
    ) -> io::Result<DetectionIndex> {
        let (flat, section) = FlatPairIndex::read_with_section_bytes(bytes)?;
        let db = HomoglyphDb::from_prebuilt(simchar, uc, flat)?;
        let (refs, _digest) = ReferenceSet::from_section_bytes(section)?;
        Ok(DetectionIndex { db, refs })
    }

    /// [`DetectionIndex::from_snapshot_bytes`] over a file on disk,
    /// every rejection — unreadable file, truncated or inconsistent
    /// section (named), checksum mismatch, stale fingerprint — prefixed
    /// with the path.
    pub fn from_snapshot_file(
        path: impl AsRef<std::path::Path>,
        simchar: impl Into<Arc<SimCharDb>>,
        uc: impl Into<Arc<UcDatabase>>,
    ) -> io::Result<DetectionIndex> {
        let path = path.as_ref();
        let named =
            |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let bytes = std::fs::read(path).map_err(named)?;
        DetectionIndex::from_snapshot_bytes(&bytes, simchar, uc).map_err(named)
    }

    /// Verifies the mounted reference list against the list the
    /// deployment expects, completing the three-way staleness check
    /// (font build and confusables revision are covered by the source
    /// fingerprint at mount): a mismatch is rejected naming the
    /// *reference list* as the stale half.
    pub fn expect_references<'a>(
        &self,
        expected: impl IntoIterator<Item = &'a str>,
    ) -> io::Result<()> {
        let mounted = self.reference_digest();
        let want = reference_digest(expected);
        if mounted != want {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "stale reference section: mounted reference-list digest \
                     {mounted:#018x} does not match the supplied list's digest \
                     {want:#018x} — mismatched: reference list. Rebuild the \
                     snapshot with `shamfinder index build`."
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_confusables::UcDatabase;
    use sham_simchar::SimCharDb;

    fn db() -> HomoglyphDb {
        use sham_simchar::Pair;
        HomoglyphDb::new(
            SimCharDb::from_pairs(vec![Pair { a: 'o' as u32, b: 0x043E, delta: 1 }], 4),
            UcDatabase::from_mappings(Vec::new()),
        )
    }

    fn closure_of(set: &ReferenceSet, h: u64) -> Vec<u32> {
        set.closure_candidates(h).collect()
    }

    fn len_of(set: &ReferenceSet, len: usize) -> Vec<u32> {
        set.len_candidates(len).collect()
    }

    fn all_names(set: &ReferenceSet) -> Vec<String> {
        (0..set.total()).map(|i| set.name_str(i).to_string()).collect()
    }

    #[test]
    fn add_then_remove_round_trips_the_candidates() {
        let db = db();
        let mut set =
            ReferenceSet::build(&db, ["goo".to_string(), "foo".to_string(), "goo".to_string()]);
        assert_eq!(set.live_count(), 3);
        assert_eq!(len_of(&set, 3).len(), 3);

        // Removing a duplicated name tombstones every occurrence.
        assert_eq!(set.remove("goo"), 2);
        assert_eq!(set.live_count(), 1);
        assert_eq!(len_of(&set, 3), vec![1]);
        assert!(!set.is_alive(0) && set.is_alive(1) && !set.is_alive(2));
        assert_eq!(set.remove("goo"), 0); // already gone
        assert_eq!(set.remove("absent"), 0);

        // Re-adding after removal indexes the new entry normally.
        set.add(&db, "goo");
        assert_eq!(set.live_count(), 2);
        assert_eq!(len_of(&set, 3), vec![1, 3]);
        assert_eq!(set.all_indices().collect::<Vec<_>>(), vec![1, 3]);
        // And the lazily-built name map tracked the new entry: another
        // removal finds it without a scan.
        assert_eq!(set.remove("goo"), 1);
        assert_eq!(len_of(&set, 3), vec![1]);
    }

    #[test]
    fn compaction_drops_tombstones_and_preserves_name_handles() {
        let db = db();
        let mut set = ReferenceSet::build(
            &db,
            ["goo".to_string(), "foo".to_string(), "bar".to_string(), "goo".to_string()],
        );
        let foo_handle = set.name(1);
        set.remove("goo");
        set.remove("bar");
        assert_eq!(set.dead_count(), 3);

        set.compact();
        assert_eq!(set.dead_count(), 0);
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.total(), 1);
        // The surviving name is the same allocation, not a copy.
        assert!(RefName::ptr_eq(&set.name(0), &foo_handle));
        // Candidate runs were re-indexed over the dense layout.
        assert_eq!(len_of(&set, 3), vec![0]);
        assert_eq!(set.all_indices().collect::<Vec<_>>(), vec![0]);
        let stem: Vec<u32> = "foo".chars().map(|c| c as u32).collect();
        assert_eq!(closure_of(&set, closure_hash(&db, &stem)), vec![0]);

        // Add-after-compact keeps working (fresh dense indices).
        set.add(&db, "goo");
        assert_eq!(set.live_count(), 2);
        assert_eq!(len_of(&set, 3), vec![0, 1]);
        // Compacting a fully-alive set is a no-op.
        set.compact();
        assert_eq!(set.live_count(), 2);
    }

    #[test]
    fn closure_candidates_group_same_component_stems() {
        let db = db();
        let set = ReferenceSet::build(&db, ["oo".to_string(), "xx".to_string()]);
        // Cyrillic оо shares o's component, so it hashes into oo's bucket.
        let spoof: Vec<u32> = "оо".chars().map(|c| c as u32).collect();
        let h = closure_hash(&db, &spoof);
        assert_eq!(closure_of(&set, h), vec![0]);
        assert!(closure_of(&set, 0xDEAD_BEEF).is_empty());
    }

    #[test]
    fn detection_index_is_shareable() {
        let index = DetectionIndex::shared(db(), ["google".to_string()]);
        let clone = Arc::clone(&index);
        assert_eq!(clone.reference_count(), 1);
        assert_eq!(&*clone.reference(0), "google");
        assert!(Arc::ptr_eq(&index, &clone));
    }

    #[test]
    fn reference_section_round_trips() {
        let db = db();
        let names =
            ["google", "paypal", "oo", "google"].map(String::from).to_vec();
        let set = ReferenceSet::build(&db, names.clone());
        let bytes = set.to_section_bytes();
        let (back, digest) = ReferenceSet::from_section_bytes(&bytes).unwrap();
        assert_eq!(digest, reference_digest(names.iter().map(String::as_str)));
        assert_eq!(all_names(&back), all_names(&set));
        assert_eq!(back.live_count(), set.live_count());
        // One arena backs every mounted name.
        let (first, last) = (back.name(0), back.name(3));
        assert!(Arc::ptr_eq(first.arena(), last.arena()));
        // Candidate probes agree with the freshly built set.
        let spoof: Vec<u32> = "оо".chars().map(|c| c as u32).collect();
        let h = closure_hash(&db, &spoof);
        assert_eq!(closure_of(&back, h), closure_of(&set, h));
        for len in 0..10 {
            assert_eq!(len_of(&back, len), len_of(&set, len), "len {len}");
        }
        // Serializing the mounted set reproduces the exact bytes.
        assert_eq!(back.to_section_bytes(), bytes);
        // The empty set round-trips too.
        let empty = ReferenceSet::build(&db, Vec::new());
        let (back, _) = ReferenceSet::from_section_bytes(&empty.to_section_bytes()).unwrap();
        assert_eq!(back.live_count(), 0);
    }

    #[test]
    fn non_flat_sets_serialize_canonically() {
        let db = db();
        let mut churned =
            ReferenceSet::build(&db, ["goo".to_string(), "foo".to_string()]);
        churned.remove("goo");
        churned.add(&db, "bar");
        // Tombstone + overlay entry: the write flattens to survivors.
        let (back, digest) = ReferenceSet::from_section_bytes(&churned.to_section_bytes()).unwrap();
        assert_eq!(
            all_names(&back),
            ["foo", "bar"]
        );
        assert_eq!(digest, reference_digest(["foo", "bar"]));
        // ...and equals the digest a straight build would record.
        let rebuilt = ReferenceSet::build(&db, ["foo".to_string(), "bar".to_string()]);
        let (_, fresh_digest) = ReferenceSet::from_section_bytes(&rebuilt.to_section_bytes()).unwrap();
        assert_eq!(digest, fresh_digest);
    }

    #[test]
    fn mount_rejects_inconsistent_sections() {
        let db = db();
        let set = ReferenceSet::build(&db, ["goo".to_string(), "zap".to_string()]);
        let bytes = set.to_section_bytes();

        // Truncation at every offset: always Err, never a panic.
        for cut in 0..bytes.len() {
            let err = ReferenceSet::from_section_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(ReferenceSet::from_section_bytes(&long).is_err());

        // A closure run pointing at the wrong hash names itself.
        let mut bad = bytes.clone();
        // Locate the first closure-run key: 8 (digest) + 4 (count) +
        // 12 (name offsets) + 4 + 6 (arena "goozap") + 12 (stem
        // offsets) + 4 + 24 (stem arena) + 16 (hashes) = 90.
        bad[90] ^= 0x01;
        let err = ReferenceSet::from_section_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("closure runs"), "{err}");

        // Invalid UTF-8 in the name arena names itself.
        let mut bad = bytes.clone();
        bad[24] = 0xFF; // first arena byte (8 + 4 + 12)
        let err = ReferenceSet::from_section_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("name arena"), "{err}");
    }

    #[test]
    fn reference_digest_identifies_the_list() {
        let digest = reference_digest(["google", "paypal"]);
        assert_eq!(digest, reference_digest(["google", "paypal"]));
        // Order, content, and boundaries all matter.
        assert_ne!(digest, reference_digest(["paypal", "google"]));
        assert_ne!(digest, reference_digest(["google"]));
        assert_ne!(digest, reference_digest(["googlepaypal"]));
        assert_ne!(digest, reference_digest(["google", "paypal", ""]));
    }

    #[test]
    fn removal_scales_by_map_not_scan() {
        // Behavioural pin for the lazy name map: duplicates tombstone,
        // later adds of the same name are found by later removes.
        let db = db();
        let mut set = ReferenceSet::build(
            &db,
            (0..100).map(|i| format!("ref{}", i % 10)), // 10× duplicated
        );
        assert_eq!(set.remove("ref3"), 10);
        assert_eq!(set.live_count(), 90);
        set.add(&db, "ref3");
        assert_eq!(set.remove("ref3"), 1);
        assert_eq!(set.remove("ref3"), 0);
        assert_eq!(set.live_count(), 90);
    }
}
