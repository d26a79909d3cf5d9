//! Seeded fixture generation, cached on disk per workload and seed.
//!
//! Every workload's input is a set of zone files (plus, for some, a
//! blacklist or a churn list) generated from `--seed` outside any timed
//! region. A fixture directory holds a `manifest.txt` that records the
//! generator parameters and a content digest of every file; a fixture
//! whose parameters or bytes do not match is regenerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sham_workload::{
    reference_list, write_synthetic_zone, Workload, WorkloadConfig, ZoneGenConfig,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Bump when a generator changes shape, so stale caches regenerate.
const GENERATOR_VERSION: u32 = 1;

/// Reference list size the detection index is built over (the CLI
/// default `reference_list(10_000)`).
pub const REFERENCE_SIZE: usize = 10_000;

/// Registrations between two reference churns on the ingest feed (the
/// `multi_tld_event_stream` default).
pub const CHURN_EVERY: usize = 4_096;

/// Stems rotating in per churn event.
pub const CHURN_SIZE: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ScanSparse,
    ScanIdnDense,
    IngestChurn,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::ScanSparse,
        WorkloadKind::ScanIdnDense,
        WorkloadKind::IngestChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ScanSparse => "scan_sparse",
            WorkloadKind::ScanIdnDense => "scan_idn_dense",
            WorkloadKind::IngestChurn => "ingest_churn",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated zone file and what it contains.
#[derive(Debug, Clone)]
pub struct ZoneFile {
    /// TLD the file is scanned as (its `$ORIGIN`).
    pub tld: String,
    pub path: PathBuf,
    pub bytes: u64,
    /// Well-formed record lines.
    pub records: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub zones: Vec<ZoneFile>,
    /// Hosts-format blacklist applied by the scanner, if any.
    pub blacklist: Option<PathBuf>,
    /// Trending stems the churn feed rotates in, if any.
    pub churn: Option<PathBuf>,
}

impl Fixture {
    pub fn records(&self) -> u64 {
        self.zones.iter().map(|z| z.records).sum()
    }
}

/// FNV-1a 64 over a file's bytes, with the length folded in.
fn digest_file(path: &Path) -> io::Result<String> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len: u64 = 0;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        len += n as u64;
        for &b in &buf[..n] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(format!("fnv1a64:{h:016x}:len{len}"))
}

/// Seed for one sub-generator, so the files of a workload differ.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

/// `scan_sparse`: two `write_synthetic_zone` files at the default shape.
fn sparse_configs(seed: u64) -> Vec<ZoneGenConfig> {
    vec![
        ZoneGenConfig {
            tld: "com".into(),
            target_bytes: 12 << 20,
            seed: sub_seed(seed, 1),
            ..ZoneGenConfig::default()
        },
        ZoneGenConfig {
            tld: "net".into(),
            target_bytes: 3 << 20,
            seed: sub_seed(seed, 2),
            ..ZoneGenConfig::default()
        },
    ]
}

/// Share of `scan_sparse` owners the blacklist lists, in per-mille.
const BLACKLIST_PERMILLE: u64 = 10;

fn dense_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        benign_ascii: 40_000,
        benign_idns: 50_000,
        reference_size: REFERENCE_SIZE,
        homograph_permille: 1_000,
        seed: sub_seed(seed, 3),
    }
}

fn churn_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        benign_ascii: 150_000,
        benign_idns: 15_000,
        reference_size: REFERENCE_SIZE,
        homograph_permille: 300,
        seed: sub_seed(seed, 4),
    }
}

/// The parameter line recorded in (and checked against) the manifest.
fn params(kind: WorkloadKind, seed: u64) -> String {
    let mut p = format!(
        "generator=v{GENERATOR_VERSION} workload={} seed={seed}",
        kind.name()
    );
    match kind {
        WorkloadKind::ScanSparse => {
            for c in sparse_configs(seed) {
                let _ = write!(
                    p,
                    " zone[{}]=bytes:{},homographs:{},refs:{},malformed:{},seed:{}",
                    c.tld,
                    c.target_bytes,
                    c.homograph_permille,
                    c.reference_size,
                    c.malformed_permille,
                    c.seed
                );
            }
            let _ = write!(p, " blacklist_permille={BLACKLIST_PERMILLE}");
        }
        WorkloadKind::ScanIdnDense | WorkloadKind::IngestChurn => {
            let c = if kind == WorkloadKind::ScanIdnDense {
                dense_config(seed)
            } else {
                churn_config(seed)
            };
            let _ = write!(
                p,
                " world=ascii:{},idns:{},refs:{},homographs:{},seed:{}",
                c.benign_ascii, c.benign_idns, c.reference_size, c.homograph_permille, c.seed
            );
            if kind == WorkloadKind::IngestChurn {
                let _ = write!(p, " churn=every:{CHURN_EVERY},size:{CHURN_SIZE}");
            }
        }
    }
    p
}

/// Makes sure the workload's fixture under `root` exists and matches
/// its manifest, generating it (or regenerating a stale or corrupted
/// one) first.
pub fn ensure(root: &Path, kind: WorkloadKind, seed: u64) -> io::Result<()> {
    let (dir, expected) = dir_of(root, kind, seed);
    match load(&dir, &expected, true) {
        Ok(_) => return Ok(()),
        Err(why) => eprintln!("[perfbench] generating {} fixture ({why})", dir.display()),
    }
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let manifest = generate(&dir, kind, seed, &expected)?;
    std::fs::write(dir.join("manifest.txt"), manifest)?;
    load(&dir, &expected, true)
        .map(drop)
        .map_err(io::Error::other)
}

/// Reads a fixture back from its manifest. With `verify`, the recorded
/// parameters must equal `expected` and every file must match its
/// digest.
pub fn load(dir: &Path, expected: &str, verify: bool) -> Result<Fixture, String> {
    let text = std::fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| format!("no manifest: {e}"))?;
    let mut lines = text.lines();
    let recorded = lines.next().unwrap_or_default();
    if verify && recorded != expected {
        return Err("generator parameters changed".into());
    }
    let mut fixture = Fixture {
        zones: Vec::new(),
        blacklist: None,
        churn: None,
    };
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [kind, name, tld, bytes, records, digest] = fields[..] else {
            return Err(format!("bad manifest line {line:?}"));
        };
        let path = dir.join(name);
        if verify {
            let actual = digest_file(&path).map_err(|e| format!("{name}: {e}"))?;
            if actual != digest {
                return Err(format!("{name}: digest mismatch"));
            }
        }
        let number = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
        match kind {
            "zone" => fixture.zones.push(ZoneFile {
                tld: tld.to_string(),
                path,
                bytes: number(bytes)?,
                records: number(records)?,
            }),
            "blacklist" => fixture.blacklist = Some(path),
            "churn" => fixture.churn = Some(path),
            _ => return Err(format!("bad manifest entry kind {kind:?}")),
        }
    }
    if fixture.zones.is_empty() {
        return Err("manifest lists no zone file".into());
    }
    Ok(fixture)
}

/// A workload's fixture directory and the generator parameters its
/// manifest must record.
pub fn dir_of(root: &Path, kind: WorkloadKind, seed: u64) -> (PathBuf, String) {
    (
        root.join(format!("{}-seed{seed}", kind.name())),
        params(kind, seed),
    )
}

/// The manifest line of a generated file. The file is synced first, so
/// its writeback does not run during the measurement that follows.
fn entry(kind: &str, dir: &Path, name: &str, tld: &str, records: u64) -> io::Result<String> {
    let path = dir.join(name);
    std::fs::File::open(&path)?.sync_all()?;
    let bytes = std::fs::metadata(&path)?.len();
    Ok(format!(
        "{kind} {name} {tld} {bytes} {records} {}\n",
        digest_file(&path)?
    ))
}

fn generate(dir: &Path, kind: WorkloadKind, seed: u64, params: &str) -> io::Result<String> {
    let mut manifest = format!("{params}\n");
    match kind {
        WorkloadKind::ScanSparse => {
            let mut listed: Vec<String> = Vec::new();
            for cfg in sparse_configs(seed) {
                let name = format!("{}.zone", cfg.tld);
                let mut out = BufWriter::new(std::fs::File::create(dir.join(&name))?);
                let stats = write_synthetic_zone(&mut out, &cfg)?;
                out.into_inner().map_err(|e| e.into_error())?;
                listed.extend(pick_blacklisted(&dir.join(&name), &cfg.tld, seed)?);
                manifest += &entry("zone", dir, &name, &cfg.tld, stats.records)?;
            }
            let mut hosts = String::from("# perfbench suffix blacklist\n");
            for name in &listed {
                let _ = writeln!(hosts, "127.0.0.1 {name}");
            }
            std::fs::write(dir.join("blacklist.hosts"), hosts)?;
            manifest += &entry("blacklist", dir, "blacklist.hosts", "-", 0)?;
        }
        WorkloadKind::ScanIdnDense => {
            let world = Workload::generate(dense_config(seed));
            let mut owners: Vec<String> = world.benign_ascii.clone();
            owners.extend(
                world
                    .benign_idns
                    .iter()
                    .filter_map(|s| sham_punycode::to_ascii(s).ok()),
            );
            owners.extend(
                world
                    .truth
                    .homographs
                    .iter()
                    .map(|h| h.ace.trim_end_matches(".com").to_string()),
            );
            let owners = unique_shuffled(owners, sub_seed(seed, 5));
            let records = write_zone(&dir.join("com.zone"), "com", &owners, sub_seed(seed, 6))?;
            manifest += &entry("zone", dir, "com.zone", "com", records)?;
        }
        WorkloadKind::IngestChurn => {
            let world = Workload::generate(churn_config(seed));
            let mut stems: Vec<String> = world.benign_ascii.clone();
            stems.extend(
                world
                    .benign_idns
                    .iter()
                    .filter_map(|s| sham_punycode::to_ascii(s).ok()),
            );
            stems.extend(
                world
                    .truth
                    .homographs
                    .iter()
                    .map(|h| h.ace.trim_end_matches(".com").to_string()),
            );
            let stems = unique_shuffled(stems, sub_seed(seed, 7));
            // Absolute owners re-homed the way `multi_tld_event_stream`
            // does: `.com` takes half, `.net` and `.org` a quarter each.
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 8));
            let owners: Vec<String> = stems
                .iter()
                .map(|stem| {
                    let tld = ["com", "com", "net", "org"][rng.gen_range(0..4usize)];
                    format!("{stem}.{tld}.")
                })
                .collect();
            let records = write_zone(&dir.join("feed.zone"), "com", &owners, sub_seed(seed, 9))?;
            manifest += &entry("zone", dir, "feed.zone", "com", records)?;
            let need = owners.len() / CHURN_EVERY * CHURN_SIZE;
            std::fs::write(
                dir.join("churn.txt"),
                trending_stems(need).join("\n") + "\n",
            )?;
            manifest += &entry("churn", dir, "churn.txt", "-", 0)?;
        }
    }
    Ok(manifest)
}

/// Stems absent from the index's reference list, for churn to rotate
/// in — the same pool `sham_workload::event_stream` draws from.
pub fn trending_stems(need: usize) -> Vec<String> {
    let base: HashSet<String> = reference_list(REFERENCE_SIZE).into_iter().collect();
    reference_list(REFERENCE_SIZE + 2 * need + 8)
        .into_iter()
        .filter(|stem| !base.contains(stem))
        .take(need)
        .collect()
}

/// Drops repeated owners, then shuffles with a seeded Fisher–Yates.
fn unique_shuffled(owners: Vec<String>, seed: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut owners: Vec<String> = owners
        .into_iter()
        .filter(|o| seen.insert(o.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..owners.len()).rev() {
        owners.swap(i, rng.gen_range(0..=i));
    }
    owners
}

/// Renders owners as runs of 1–3 records (NS, then glue A/AAAA), the
/// shape `write_synthetic_zone` gives a real dump. Returns the number
/// of record lines.
fn write_zone(path: &Path, origin: &str, owners: &[String], seed: u64) -> io::Result<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "$ORIGIN {origin}.\n$TTL 86400")?;
    let mut records = 0u64;
    for (i, owner) in owners.iter().enumerate() {
        let runs = rng.gen_range(1..4usize);
        writeln!(out, "{owner}\tIN\tNS\tns{}.registrar.example.", i % 4 + 1)?;
        if runs > 1 {
            writeln!(out, "{owner}\tIN\tA\t192.0.2.{}", i % 250 + 1)?;
        }
        if runs > 2 {
            writeln!(out, "{owner}\tIN\tAAAA\t2001:db8::{:x}", i % 0xffff + 1)?;
        }
        records += runs as u64;
    }
    out.into_inner().map_err(|e| e.into_error())?;
    Ok(records)
}

/// Owners of a generated zone to blacklist: a seeded ~1% of the owner
/// runs (each run starts with its NS record).
fn pick_blacklisted(path: &Path, tld: &str, seed: u64) -> io::Result<Vec<String>> {
    let text = std::fs::read_to_string(path)?;
    let mut picked = Vec::new();
    for line in text.lines() {
        let Some((owner, rest)) = line.split_once('\t') else {
            continue;
        };
        if !rest.starts_with("IN\tNS\t") {
            continue;
        }
        let mut h = sub_seed(seed, 10);
        for b in owner.bytes() {
            h = sub_seed(h, b as u64);
        }
        if h % 1000 < BLACKLIST_PERMILLE {
            picked.push(format!("{owner}.{tld}"));
        }
    }
    Ok(picked)
}
