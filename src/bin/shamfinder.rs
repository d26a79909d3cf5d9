//! `shamfinder` — command-line front end to the detection framework.
//!
//! ```text
//! shamfinder build-db [--theta N] [--out FILE]     build SimChar, print stats
//! shamfinder index build <out> [--theta N] [--refs-file FILE]
//!                                                  snapshot the pair index and
//!                                                  the indexed reference list
//! shamfinder index load <path> [--theta N]         mount + verify a snapshot
//! shamfinder index stat <path>                     inspect a snapshot's sections
//! shamfinder check <domain> [--refs a,b,c]         check one domain
//! shamfinder scan <zone-file> [--tld com] [--refs-file FILE]
//! shamfinder serve-feed [--tlds com,net,org] [--queue N] [--batch N]
//!                       [--policy block|shed] [--refs-file FILE]
//!                       [--metrics-json FILE]
//!                       [--faults PERMILLE] [--seed S] [--events N]
//!                       | --zone FILE [--tld com]
//!                                                  ingest a seeded synthetic feed
//!                                                  of N registrations (20,000 by
//!                                                  default), or a zone file
//! shamfinder scan-zone <FILE...> [--tld TLD] [--refs-file FILE]
//!                      [--blacklist FILE] [--batch N] [--window N]
//!                      [--chunk BYTES] [--metrics-json FILE]
//!                                                  batch-scan zone files (streaming,
//!                                                  overlapped I/O, per-TLD metrics)
//! shamfinder gen-zone <FILE> [--mb N | --records N] [--tld com] [--seed S]
//!                     [--malformed PERMILLE] [--homographs PERMILLE]
//!                                                  generate a synthetic zone file
//! shamfinder revert <idn>                          map an IDN back to LDH
//! shamfinder homoglyphs <char-or-hex>              list a character's twins
//! shamfinder surface <label> [--tld com|jp|de|kr|rf]
//!                                                  registrable homograph count
//! ```
//!
//! Every command parses its arguments once, with [`Args::parse`]: flags
//! and positionals come in any order, and an unknown flag, a flag with no
//! value, a wrong number of positionals or a malformed flag value exits 2
//! naming it, before any database is built. So does a flag the chosen
//! feed never reads (`serve-feed --zone F --faults 5`), a `check` domain
//! that does not parse and a `homoglyphs` code point that does not
//! exist: `check`'s status 1 means only that a homograph was detected.

use shamfinder::core::{DetectionIndex, ExecStats, IdnTable};
use shamfinder::metrics::TldCounts;
use shamfinder::prelude::*;
use shamfinder::simchar::{SimCharDb, DEFAULT_THETA, MAX_THETA};
use shamfinder::unicode::block_of;
use std::io::{BufRead, Read};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  shamfinder build-db [--theta N] [--out FILE]\n  \
         shamfinder index build <out> [--theta N] [--refs-file FILE]\n  \
         shamfinder index load <path> [--theta N]\n  \
         shamfinder index stat <path>\n  \
         shamfinder check <domain> [--refs a,b,c]\n  \
         shamfinder scan <zone-file> [--tld com] [--refs-file FILE]\n  \
         shamfinder serve-feed [--tlds com,net,org] [--queue N] [--batch N] \
[--policy block|shed] [--refs-file FILE] [--metrics-json FILE] \
[--faults PERMILLE] [--seed S] [--events REGISTRATIONS] | --zone FILE [--tld com]\n  \
         shamfinder scan-zone <FILE...> [--tld TLD] [--refs-file FILE] \
[--blacklist FILE] [--batch N] [--window N] [--chunk BYTES] [--metrics-json FILE]\n  \
         shamfinder gen-zone <FILE> [--mb N | --records N] [--tld com] [--seed S] \
[--malformed PERMILLE] [--homographs PERMILLE]\n  \
         shamfinder revert <idn-or-stem>\n  \
         shamfinder homoglyphs <char-or-hex>\n  \
         shamfinder surface <label> [--tld com|jp|de|kr|rf]"
    );
    ExitCode::from(2)
}

/// What a command returns: its exit status, or a usage error, which
/// `main` prints with the usage before it exits with status 2.
type Outcome = Result<ExitCode, String>;

/// A failure after the arguments parsed: the error line, then status 1.
fn failed(error: impl std::fmt::Display) -> Outcome {
    eprintln!("error: {error}");
    Ok(ExitCode::FAILURE)
}

/// The one flag a command may be given more than once.
const REPEATABLE: &str = "--blacklist";

/// A command's arguments, parsed once: its positionals in order and the
/// value of each flag it was given.
#[derive(Debug)]
struct Args {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` against the value flags a command reads and the
    /// names of its positionals, where a last name ending in `...>` takes
    /// one or more. Flags and positionals may come in any order. A flag's
    /// value is the next argument unless that starts with `--`, so `-1`
    /// is a value. An unknown flag, a repeated one other than
    /// [`REPEATABLE`], a flag with no value, and a missing or extra
    /// positional are errors naming the argument.
    fn parse(args: &[String], flags: &[&str], names: &[&str]) -> Result<Args, String> {
        let mut parsed = Args { positionals: Vec::new(), flags: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg.clone());
            } else if !flags.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg:?}"));
            } else if arg != REPEATABLE && parsed.value(arg).is_some() {
                return Err(format!("{arg} given twice"));
            } else {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.flags.push((arg.clone(), value.clone()))
                    }
                    _ => return Err(format!("{arg} needs a value")),
                }
            }
        }
        let given = parsed.positionals.len();
        let variadic = names.last().is_some_and(|name| name.ends_with("...>"));
        if given < names.len() {
            return Err(format!("missing {}", names[given]));
        }
        if given > names.len() && !variadic {
            return Err(format!("unexpected argument {:?}", parsed.positionals[names.len()]));
        }
        Ok(parsed)
    }

    /// The value of `flag`, when it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// Every value of `flag`, in the order given.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(move |(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The parsed value of a numeric flag, `None` when the flag is
    /// absent, or an error naming the flag and a value that does not
    /// parse.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for {flag}"))
            })
            .transpose()
    }
}

/// `--theta`, or [`DEFAULT_THETA`] when absent. A value the pairwise
/// index cannot take (above [`MAX_THETA`]) is an error naming the flag,
/// like a malformed one.
fn parse_theta(args: &Args) -> Result<u32, String> {
    match args.number("--theta")? {
        None => Ok(DEFAULT_THETA),
        Some(theta) if theta <= MAX_THETA => Ok(theta),
        Some(theta) => Err(format!(
            "invalid value \"{theta}\" for --theta (θ must be at most {MAX_THETA})"
        )),
    }
}

fn build_simchar(theta: u32) -> SimCharDb {
    eprintln!("[shamfinder] building SimChar (θ = {theta}) …");
    let font = SynthUnifont::v12();
    let db = build(&font, &BuildConfig { theta, ..BuildConfig::default() }).db;
    eprintln!(
        "[shamfinder] {} pairs over {} characters",
        db.pair_count(),
        db.char_count()
    );
    db
}

fn build_db(theta: u32) -> HomoglyphDb {
    HomoglyphDb::new(build_simchar(theta), UcDatabase::embedded())
}

/// The detection index of `check`, `scan`, `serve-feed`, `scan-zone`
/// and `index build`: SimChar at `theta` over the command's reference
/// list — `check`'s comma-separated `--refs`, the trimmed non-empty
/// lines of `--refs-file`, or the default 10k list. An unreadable
/// `--refs-file` ends the process with status 1, naming the file.
fn open_index(args: &Args, theta: u32) -> Arc<DetectionIndex> {
    let refs: Vec<String> = if let Some(list) = args.value("--refs") {
        list.split(',').map(|s| s.trim().to_string()).collect()
    } else if let Some(path) = args.value("--refs-file") {
        match std::fs::read_to_string(path) {
            Ok(text) => text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect(),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1)
            }
        }
    } else {
        shamfinder::workload::reference_list(10_000)
    };
    let db = build_db(theta);
    eprintln!("[shamfinder] indexing {} references …", refs.len());
    DetectionIndex::shared(db, refs)
}

/// Writes the `--metrics-json` document, when the flag was given.
fn write_metrics(args: &Args, json: impl FnOnce() -> String) -> Outcome {
    let Some(path) = args.value("--metrics-json") else {
        return Ok(ExitCode::SUCCESS);
    };
    if let Err(e) = std::fs::write(path, json() + "\n") {
        return failed(format!("cannot write {path}: {e}"));
    }
    eprintln!("[shamfinder] wrote metrics to {path}");
    Ok(ExitCode::SUCCESS)
}

/// The head of the `-- scheduling --` block: the detection batches'
/// ledger.
fn print_detect_batches(exec: &ExecStats) {
    println!("-- scheduling --");
    println!(
        "  detect batches: {} ({} inline), {} shards, shard len {}..{}, ≤ {} workers",
        exec.batches,
        exec.inline_batches,
        exec.shards,
        exec.min_shard_len,
        exec.max_shard_len,
        exec.max_workers
    );
}

fn cmd_build_db(args: &[String]) -> Outcome {
    let args = Args::parse(args, &["--theta", "--out"], &[])?;
    let db = build_db(parse_theta(&args)?);
    let sim = db.simchar();
    println!("theta: {}", sim.theta());
    println!("pairs: {}", sim.pair_count());
    println!("characters: {}", sim.char_count());
    println!("-- top letters (Table 3) --");
    for (letter, count) in sim.latin_profile().into_iter().take(10) {
        println!("  {letter}: {count}");
    }
    println!("-- top blocks (Table 4) --");
    for (block, count) in sim.block_profile().into_iter().take(5) {
        println!("  {block}: {count}");
    }
    if let Some(path) = args.value("--out") {
        if let Err(e) = std::fs::write(path, sim.to_text()) {
            return failed(format!("cannot write {path}: {e}"));
        }
        println!("exported to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `index build <out>` / `index load <path>` / `index stat <path>`:
/// the serve-path snapshot round trip. `build` writes a full-index
/// snapshot: the flat pair index (interner + union-find closure + CSR,
/// with its source fingerprint) plus the fully-indexed reference set
/// (`--refs-file` lines, or the default 10k list) as the v3 reference
/// section, so later processes cold-start detection without either
/// construction. `load` mounts a snapshot back onto a freshly built
/// SimChar, which also *verifies* it — a snapshot from another font
/// build or confusables revision is rejected with the fingerprint
/// mismatch error instead of trusted. `stat` inspects the file without
/// rebuilding anything: version, per-section sizes, checksums and both
/// staleness digests.
fn cmd_index(args: &[String]) -> Outcome {
    let Some((action, rest)) = args.split_first() else {
        return Err("missing <build|load|stat>".into());
    };
    // `--theta` defaults to the library's θ, not a literal: a retuned
    // DEFAULT_THETA must keep `index build`/`load` fingerprint-compatible
    // with library builds.
    match action.as_str() {
        "build" => {
            let args = Args::parse(rest, &["--theta", "--refs-file"], &["<out>"])?;
            let theta = parse_theta(&args)?;
            let path = &args.positionals[0];
            let index = open_index(&args, theta);
            if let Err(e) = index.write_snapshot_file(path) {
                return failed(format!("cannot write snapshot: {e}"));
            }
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!("snapshot: {path} ({bytes} bytes, full index)");
            print_index(&index);
            Ok(ExitCode::SUCCESS)
        }
        "load" => {
            let args = Args::parse(rest, &["--theta"], &["<path>"])?;
            let theta = parse_theta(&args)?;
            let path = &args.positionals[0];
            // Mounting validates the recorded fingerprint against the
            // databases this binary would build (same θ ⇒ same pairs);
            // every rejection out of the loader names the file and, for
            // structural damage, the offending section.
            let simchar = build_simchar(theta);
            match DetectionIndex::from_snapshot_file(path, simchar, UcDatabase::embedded()) {
                Ok(index) => {
                    println!("snapshot {path}: ok (full index mounted, fingerprint verified)");
                    print_index(&index);
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => failed(e),
            }
        }
        "stat" => {
            let args = Args::parse(rest, &[], &["<path>"])?;
            let path = &args.positionals[0];
            // Pure file inspection: no database rebuild, readable
            // errors on old, section-less or corrupt files.
            let stat = match shamfinder::simchar::FlatPairIndex::snapshot_stat_path(path) {
                Ok(stat) => stat,
                Err(e) => return failed(e),
            };
            println!("snapshot: {path}");
            println!("version: {}", stat.version);
            println!(
                "fingerprint: font {:#018x} / unicode {:#018x}",
                stat.fingerprint.font, stat.fingerprint.unicode
            );
            println!(
                "pair payload: {} bytes (checksum {:#018x})",
                stat.pair_payload_bytes, stat.pair_checksum
            );
            for section in &stat.sections {
                println!(
                    "  {:<24} {:>9} elements {:>10} bytes",
                    section.name, section.elements, section.bytes
                );
            }
            println!(
                "reference section: {} bytes (checksum {:#018x})",
                stat.reference_bytes, stat.reference_checksum
            );
            match shamfinder::core::reference_section_summary(&stat.reference_section) {
                Ok((digest, count)) => {
                    println!("  references: {count}");
                    println!("  list digest: {digest:#018x}");
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => failed(e),
            }
        }
        other => Err(format!("unknown index action {other:?}")),
    }
}

/// The summary `index build` and `index load` print for a full index.
fn print_index(index: &DetectionIndex) {
    let flat = index.db().flat();
    let fp = flat.fingerprint();
    println!("characters: {}", flat.char_count());
    println!("pairs: {}", flat.pair_count());
    println!("components: {}", flat.component_count());
    println!("references: {}", index.reference_count());
    println!(
        "fingerprint: font {:#018x} / unicode {:#018x}",
        fp.font, fp.unicode
    );
    println!("reference digest: {:#018x}", index.reference_digest());
}

fn cmd_check(args: &[String]) -> Outcome {
    let args = Args::parse(args, &["--refs"], &["<domain>"])?;
    let input = &args.positionals[0];
    let domain = DomainName::parse(input).map_err(|e| format!("invalid domain {input:?}: {e}"))?;
    let tld = domain.tld().to_string();
    let fw = Framework::with_shared_index(open_index(&args, DEFAULT_THETA), &tld);
    let report = fw.run(std::slice::from_ref(&domain));
    if report.detections.is_empty() {
        println!("{}: no homograph detected", domain.as_ascii());
        return Ok(ExitCode::SUCCESS);
    }
    for det in &report.detections {
        let warning = Warning::from_detection(det, &tld);
        print!("{}", warning.render_text());
    }
    Ok(ExitCode::from(1))
}

fn cmd_scan(args: &[String]) -> Outcome {
    use shamfinder::core::{ScanConfig, SessionRouter, ZoneScanner};

    let args = Args::parse(args, &["--tld", "--refs-file"], &["<zone-file>"])?;
    let path = &args.positionals[0];
    let tld = args.value("--tld").unwrap_or("com");
    // Only the head up to the first significant line decides the format;
    // a zone then streams through the line stage from the head on.
    let mut input = match std::fs::File::open(path) {
        Ok(file) => std::io::BufReader::new(file),
        Err(e) => return failed(format!("cannot read {path}: {e}")),
    };
    let mut head = Vec::new();
    if let Err(e) = read_to_first_significant_line(&mut input, &mut head) {
        return failed(format!("cannot read {path}: {e}"));
    }
    // Only `--tld` owners are detected.
    let router =
        || SessionRouter::new(open_index(&args, DEFAULT_THETA)).with_tlds([tld.to_string()]);
    let report = if is_zone_file(&head) {
        // The scan-zone line stage: a malformed or non-UTF-8 line is
        // quarantined alone.
        let mut scanner = ZoneScanner::new(router(), ScanConfig::default());
        if let Err(e) = scanner.scan_reader(tld, head.as_slice().chain(input)) {
            return failed(format!("cannot read {path}: {e}"));
        }
        let report = scanner.finish();
        let quarantined = report.totals().quarantined;
        if quarantined > 0 {
            eprintln!("[shamfinder] skipped {quarantined} malformed zone lines");
        }
        report.router
    } else {
        if let Err(e) = input.read_to_end(&mut head) {
            return failed(format!("cannot read {path}: {e}"));
        }
        let text = match String::from_utf8(head) {
            Ok(t) => t,
            Err(e) => return failed(format!("cannot read {path}: {e}")),
        };
        let (names, bad) = shamfinder::dns::parse_domain_list(&text);
        if bad > 0 {
            eprintln!("[shamfinder] skipped {bad} malformed list lines");
        }
        let mut router = router();
        router.push_domains(&names);
        router.into_report()
    };
    println!(
        "scanned {} domains ({} IDNs): {} homographs",
        report.total_domains(),
        report.idn_count(),
        report.detection_count()
    );
    for det in report.detections() {
        println!(
            "  {} -> imitates {}.{} ({} substitution{})",
            det.idn_ascii,
            det.reference,
            tld,
            det.substitutions.len(),
            if det.substitutions.len() == 1 { "" } else { "s" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Whether a line decides `scan`'s input format: it is not blank and
/// not a `;` or `#` comment.
fn significant(line: &[u8]) -> bool {
    let line = line.trim_ascii();
    !line.is_empty() && !line.starts_with(b";") && !line.starts_with(b"#")
}

/// Appends `input`'s lines to `head` up to the end of its first
/// significant line, or to its end.
fn read_to_first_significant_line(
    input: &mut impl BufRead,
    head: &mut Vec<u8>,
) -> std::io::Result<()> {
    loop {
        let start = head.len();
        if input.read_until(b'\n', head)? == 0 || significant(&head[start..]) {
            return Ok(());
        }
    }
}

/// Whether `scan`'s input is a zone file rather than a flat domain
/// list, decided by its first [`significant`] line. In a zone that line
/// starts with a `$` directive or holds a record (two or more fields
/// before any `#`); in a list it holds one name.
fn is_zone_file(bytes: &[u8]) -> bool {
    let first = bytes.split(|&b| b == b'\n').find(|line| significant(line)).map(<[u8]>::trim_ascii);
    first.is_some_and(|line| {
        let before_note = line.split(|&b| b == b'#').next().unwrap_or(line);
        let fields = before_note
            .split(u8::is_ascii_whitespace)
            .filter(|f| !f.is_empty());
        line.starts_with(b"$") || fields.count() >= 2
    })
}

fn cmd_revert(args: &[String]) -> Outcome {
    let args = Args::parse(args, &[], &["<idn-or-stem>"])?;
    let input = &args.positionals[0];
    // Accept either a stem or a full (possibly ACE) domain.
    let stem = match DomainName::parse(input) {
        Ok(d) if d.label_count() > 1 => d.unicode_without_tld().unwrap_or_default(),
        _ => shamfinder::punycode::ace::to_unicode(input)
            .unwrap_or_else(|_| input.to_string()),
    };
    let db = build_db(DEFAULT_THETA);
    match revert_stem(&db, &stem) {
        Reverted::Original(original) => {
            println!("{stem} -> {original}");
            Ok(ExitCode::SUCCESS)
        }
        Reverted::Partial(partial, failed) => {
            println!("{stem} -> {partial} (unresolved: {failed:?})");
            Ok(ExitCode::from(1))
        }
    }
}

fn cmd_homoglyphs(args: &[String]) -> Outcome {
    let args = Args::parse(args, &[], &["<char-or-hex>"])?;
    let input = &args.positionals[0];
    let target: char = if let Some(hex) = input.strip_prefix("U+").or_else(|| input.strip_prefix("u+")) {
        match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
            Some(c) => c,
            None => return Err(format!("bad code point {input:?}")),
        }
    } else {
        match input.chars().next() {
            Some(c) => c,
            None => return Err("empty <char-or-hex>".into()),
        }
    };
    let db = build_db(DEFAULT_THETA);
    let twins = db.homoglyphs_of(target as u32);
    println!("homoglyphs of '{target}' (U+{:04X}): {}", target as u32, twins.len());
    for cp in twins {
        let c = char::from_u32(cp).unwrap_or('\u{FFFD}');
        let block = CodePoint::new(cp)
            .and_then(block_of)
            .map_or("?", |b| b.name);
        let source = db
            .source_of(target as u32, cp)
            .map_or("", |s| match s {
                shamfinder::simchar::PairSource::SimChar => " [SimChar]",
                shamfinder::simchar::PairSource::Uc => " [UC]",
                shamfinder::simchar::PairSource::Both => " [both]",
            });
        println!("  '{c}' U+{cp:04X}  {block}{source}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_surface(args: &[String]) -> Outcome {
    let args = Args::parse(args, &["--tld"], &["<label>"])?;
    let label = &args.positionals[0];
    let table = match args.value("--tld") {
        None | Some("com") => IdnTable::com(),
        Some("jp") => IdnTable::jp(),
        Some("de") => IdnTable::de(),
        Some("kr") => IdnTable::kr(),
        Some("rf") => IdnTable::rf(),
        Some(other) => {
            return Err(format!("invalid value {other:?} for --tld (com|jp|de|kr|rf)"))
        }
    };
    let db = build_db(DEFAULT_THETA);
    let surface = table.homograph_surface(&db, label);
    println!(
        "single-substitution homograph surface of {label:?} under .{}: {surface}",
        table.tld
    );
    for c in label.chars() {
        let options = table.registrable_homoglyphs(&db, c);
        if !options.is_empty() {
            let shown: String = options.iter().take(12).collect();
            println!("  '{c}': {} option(s) — {shown}", options.len());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `serve-feed`: run the fault-tolerant ingest front-end over a feed —
/// by default a synthetic multi-TLD stream of `--events` registrations
/// (optionally with a seeded fault schedule), or a master-file zone text with
/// `--zone FILE`. Prints the per-TLD detection table plus the
/// robustness ledger (shed/quarantined/retries/panics/folds and the
/// accounting identity).
fn cmd_serve_feed(args: &[String]) -> Outcome {
    use shamfinder::core::{
        Backpressure, IngestConfig, IngestEvent, IngestService, RetryPolicy, ZoneTextFeed,
    };
    use shamfinder::workload::{FaultSchedule, FaultyZoneFeed, FeedStats};

    let args = Args::parse(
        args,
        &[
            "--tlds",
            "--queue",
            "--batch",
            "--policy",
            "--faults",
            "--seed",
            "--events",
            "--zone",
            "--tld",
            "--refs-file",
            "--metrics-json",
        ],
        &[],
    )?;
    // The synthetic feed reads the fault and size flags, the zone feed
    // its `--tld`; a flag the chosen feed never reads is refused.
    let zone = args.value("--zone");
    let (unread, feed) = match zone {
        Some(_) => (&["--faults", "--seed", "--events"][..], "with --zone"),
        None => (&["--tld"][..], "without --zone"),
    };
    if let Some(flag) = unread.iter().find(|flag| args.value(flag).is_some()) {
        return Err(format!("{flag} is not read {feed}"));
    }
    let tlds: Vec<String> = args
        .value("--tlds")
        .unwrap_or("com,net,org")
        .split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect();
    let queue = args.number("--queue")?.unwrap_or(1024);
    let batch = args.number("--batch")?.unwrap_or(1024);
    let policy = match args.value("--policy") {
        None | Some("block") => Backpressure::Block,
        Some("shed") => Backpressure::Shed,
        Some(other) => return Err(format!("invalid value {other:?} for --policy (block|shed)")),
    };
    let faults: u32 = args.number("--faults")?.unwrap_or(0);
    let seed: u64 = args.number("--seed")?.unwrap_or(7);
    let registrations: usize = args.number("--events")?.unwrap_or(20_000);

    let config = IngestConfig {
        queue_capacity: queue,
        batch_capacity: batch,
        backpressure: policy,
        tlds: Some(tlds.clone()),
        retry: RetryPolicy::default(),
        ..IngestConfig::default()
    };
    let service = IngestService::new(open_index(&args, DEFAULT_THETA), config);

    let report = if let Some(zone_path) = zone {
        let origin = args.value("--tld").unwrap_or("com");
        let file = match std::fs::File::open(zone_path) {
            Ok(f) => f,
            Err(e) => return failed(format!("cannot open {zone_path}: {e}")),
        };
        let feed = ZoneTextFeed::new(zone_path, origin, file);
        eprintln!("[shamfinder] ingesting zone {zone_path} (.{origin}) …");
        service.run(vec![Box::new(feed)])
    } else {
        let workload =
            shamfinder::workload::Workload::generate(shamfinder::workload::WorkloadConfig {
                benign_ascii: registrations.saturating_sub(registrations / 10),
                benign_idns: registrations / 10,
                reference_size: 2_000,
                homograph_permille: 100,
                seed,
            });
        let feed_shape = shamfinder::workload::MultiTldConfig {
            base: shamfinder::workload::StreamConfig {
                churn_every: 4096,
                churn_size: 2,
                seed,
            },
            tlds: tlds.clone(),
        };
        // The references and planted homographs come on top of the
        // benign corpus, so the stream is cut after its N-th
        // registration; the churns before the cut stay.
        let mut events = shamfinder::workload::multi_tld_event_stream(&workload, &feed_shape);
        let mut left = registrations;
        events.retain(|event| match event {
            IngestEvent::Registered(_) if left > 0 => {
                left -= 1;
                true
            }
            _ => left > 0,
        });
        let schedule = if faults > 0 {
            FaultSchedule::seeded(seed, events.len() as u64, faults)
        } else {
            FaultSchedule::none()
        };
        eprintln!(
            "[shamfinder] replaying {} synthetic events over {} ({}‰ faults, seed {seed}) …",
            events.len(),
            tlds.join("/"),
            faults,
        );
        let stats = FeedStats::shared();
        let feed = FaultyZoneFeed::new("synthetic", events, schedule, stats);
        service.run(vec![Box::new(feed)])
    };

    println!("-- per-TLD detections --");
    for lane in &report.router.per_tld {
        let TldCounts { domains, idns, detections } = TldCounts::of(&lane.report);
        println!("  .{}: {domains} domains, {idns} IDNs, {detections} homographs", lane.tld);
    }
    if report.router.unrouted_domains > 0 {
        println!("  (unrouted: {})", report.router.unrouted_domains);
    }
    println!("-- robustness --");
    println!("  shed: {}", report.shed);
    println!("  quarantined: {}", report.quarantined);
    println!("  lost: {}", report.lost);
    println!("  lane panics: {}", report.lane_panics);
    println!("  lane folds: {}", report.lane_folds);
    for feed in &report.feeds {
        println!(
            "  feed {}: {} registrations, {} churns, {} quarantined, {} retries, {:?}{}",
            feed.name,
            feed.registrations,
            feed.churns,
            feed.quarantined,
            feed.retries,
            feed.outcome,
            feed.last_error.as_deref().map_or(String::new(), |e| format!(" ({e})")),
        );
    }
    for sample in &report.quarantine {
        println!("  quarantine[{}@{}]: {}", sample.feed, sample.position, sample.detail);
    }
    println!(
        "  accounted: {} (routed {} + shed {} + lost {})",
        report.events_accounted(),
        report.router.total_domains(),
        report.shed,
        report.lost
    );
    let pool = shamfinder::core::pool_stats();
    print_detect_batches(&report.exec());
    println!(
        "  pool: {} workers ({} busy, {} queued), jobs {}/{} executed/submitted, \
busy {:.1} ms, parked {:.1} ms, occupancy {:.0}%",
        pool.workers,
        pool.busy_workers,
        pool.queue_depth,
        pool.jobs_executed,
        pool.jobs_submitted,
        pool.busy_nanos as f64 / 1e6,
        pool.parked_nanos as f64 / 1e6,
        pool.occupancy() * 100.0
    );
    write_metrics(&args, || shamfinder::metrics::ingest_metrics_json(&report, &pool))
}

/// `scan-zone <FILE...>`: the GB-scale batch pipeline — streaming
/// chunked reads on a reader thread, allocation-conscious line scan in
/// shards on the worker pool,
/// consecutive + windowed owner dedup, blacklist suffix filtering, and
/// fixed-size batches into the per-TLD router. Prints the
/// per-TLD accounting table, the `records_accounted` identity and the
/// scheduling ledger (detection batches, line-stage splits, pool);
/// `--metrics-json` writes the machine-readable document (same
/// `exec`/`pool`/`per_tld` schema as `serve-feed`, plus `stage`).
fn cmd_scan_zone(args: &[String]) -> Outcome {
    use shamfinder::core::scan::{tld_from_path, ScanConfig, ZoneScanner, DEFAULT_DEDUP_WINDOW};
    use shamfinder::core::SessionRouter;
    use shamfinder::web::Blacklist;
    use std::path::Path;

    let args = Args::parse(
        args,
        &[
            "--tld",
            "--refs-file",
            "--blacklist",
            "--batch",
            "--window",
            "--chunk",
            "--metrics-json",
        ],
        &["<FILE...>"],
    )?;
    let batch: usize = args.number("--batch")?.unwrap_or(1024);
    let window: usize = args.number("--window")?.unwrap_or(DEFAULT_DEDUP_WINDOW);
    let chunk: usize = args.number("--chunk")?.unwrap_or(1 << 20);

    let mut blacklists: Vec<Blacklist> = Vec::new();
    for path in args.values("--blacklist") {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let (bl, bad) = Blacklist::from_hosts_file(path, &text);
                eprintln!(
                    "[shamfinder] blacklist {path}: {} entries ({bad} junk lines)",
                    bl.len()
                );
                blacklists.push(bl);
            }
            Err(e) => return failed(format!("cannot read {path}: {e}")),
        }
    }

    let config = ScanConfig {
        chunk_bytes: chunk,
        dedup_window: window,
        batch_capacity: batch,
        blacklists,
    };
    let index = open_index(&args, DEFAULT_THETA);
    let mut scanner = ZoneScanner::new(SessionRouter::new(index), config);

    for file in &args.positionals {
        let path = Path::new(file);
        let tld = args
            .value("--tld")
            .map(String::from)
            .or_else(|| tld_from_path(path))
            .unwrap_or_else(|| "com".into());
        eprintln!("[shamfinder] scanning {file} as .{tld} …");
        if let Err(e) = scanner.scan_file(&tld, path) {
            return failed(format!("scanning {file}: {e}"));
        }
    }

    let report = scanner.finish();
    let totals = report.totals();
    println!("-- per-TLD scan --");
    for (tld, (counts, s)) in shamfinder::metrics::scan_per_tld(&report) {
        println!(
            "  .{tld}: {:.1} MB, {} lines, {} records → {} routed \
(dedup {} + {}, blacklisted {}, quarantined {}), {} detections in {:.2}s \
({:.0} rec/s, {:.1} MB/s)",
            s.bytes as f64 / 1e6,
            s.lines,
            s.records,
            s.routed,
            s.dedup_consecutive,
            s.dedup_window,
            s.blacklisted,
            s.quarantined,
            counts.detections,
            s.elapsed_secs,
            s.records_per_sec(),
            s.mb_per_sec(),
        );
    }
    for sample in &report.quarantine_samples {
        println!("  quarantine: {sample}");
    }
    println!(
        "  accounted: {} parsed = {} routed + {} deduped + {} blacklisted + {} quarantined",
        totals.parsed(),
        totals.routed,
        totals.deduped(),
        totals.blacklisted,
        totals.quarantined
    );
    if let Err(e) = report.verify_accounting() {
        return failed(e);
    }

    let pool = shamfinder::core::pool_stats();
    print_detect_batches(&report.router.exec());
    let stage = report.stage;
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "  line stage: {} pushes ({} split), {} shards ({} forked), {} re-run whole, \
{} lines re-run at seams; front {:.1} ms, forks {:.1} ms, wait {:.1} ms, merge {:.1} ms",
        stage.pushes,
        stage.split_pushes,
        stage.shards,
        stage.shards_forked,
        stage.shards_rerun,
        stage.lines_rerun,
        ms(stage.front_ns),
        ms(stage.fork_ns),
        ms(stage.wait_ns),
        ms(stage.merge_ns)
    );
    println!(
        "  pool: {} workers, occupancy {:.0}%",
        pool.workers,
        pool.occupancy() * 100.0
    );
    write_metrics(&args, || shamfinder::metrics::scan_metrics_json(&report, &pool))
}

/// `gen-zone <FILE>`: write a deterministic synthetic TLD zone file at
/// a byte or record target — the fixture generator behind the scan-zone
/// smokes and the GB-scale bench.
fn cmd_gen_zone(args: &[String]) -> Outcome {
    use shamfinder::workload::{write_synthetic_zone, ZoneGenConfig};

    let args = Args::parse(
        args,
        &["--mb", "--records", "--tld", "--seed", "--malformed", "--homographs"],
        &["<FILE>"],
    )?;
    let out_path = &args.positionals[0];
    let mut cfg = ZoneGenConfig {
        tld: args.value("--tld").unwrap_or("com").to_string(),
        seed: args.number("--seed")?.unwrap_or(11),
        ..ZoneGenConfig::default()
    };
    match (args.number::<u64>("--mb")?, args.number("--records")?) {
        (Some(_), Some(_)) => return Err("--mb and --records cannot be given together".into()),
        (Some(mb), None) => {
            cfg.target_bytes = mb << 20;
            cfg.target_records = 0;
        }
        (None, Some(n)) => {
            cfg.target_records = n;
            cfg.target_bytes = 0;
        }
        (None, None) => {}
    }
    if let Some(p) = args.number("--malformed")? {
        cfg.malformed_permille = p;
    }
    if let Some(p) = args.number("--homographs")? {
        cfg.homograph_permille = p;
    }

    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => return failed(format!("cannot create {out_path}: {e}")),
    };
    let mut writer = std::io::BufWriter::new(file);
    match write_synthetic_zone(&mut writer, &cfg) {
        Ok(stats) => {
            println!(
                "wrote {out_path}: {:.1} MB, {} lines, {} records over {} owners \
({} homographs, {} malformed), seed {}",
                stats.bytes as f64 / 1e6,
                stats.lines,
                stats.records,
                stats.owners,
                stats.homographs,
                stats.malformed,
                cfg.seed
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => failed(format!("writing {out_path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { return usage() };
    let outcome = match command.as_str() {
        "build-db" => cmd_build_db(rest),
        "index" => cmd_index(rest),
        "check" => cmd_check(rest),
        "scan" => cmd_scan(rest),
        "serve-feed" => cmd_serve_feed(rest),
        "scan-zone" => cmd_scan_zone(rest),
        "gen-zone" => cmd_gen_zone(rest),
        "revert" => cmd_revert(rest),
        "homoglyphs" => cmd_homoglyphs(rest),
        "surface" => cmd_surface(rest),
        other => Err(format!("unknown command {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    })
}

#[cfg(test)]
mod tests {
    use super::{is_zone_file, parse_theta, read_to_first_significant_line, Args, DEFAULT_THETA};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// `list` parsed against the value `flags`, with one positional
    /// or more.
    fn parsed(list: &[&str], flags: &[&str]) -> Result<Args, String> {
        Args::parse(&args(list), flags, &["<FILE...>"])
    }

    #[test]
    fn parse_flag_rejects_malformed_values_by_name() {
        let flags = ["--batch", "--window", "--chunk"];
        let argv = parsed(&["zone.txt", "--batch", "1k", "--window", "64"], &flags).unwrap();
        assert_eq!(argv.number::<usize>("--window"), Ok(Some(64)));
        assert_eq!(argv.number::<usize>("--chunk"), Ok(None), "absent flag");
        assert_eq!(
            argv.number::<usize>("--batch"),
            Err("invalid value \"1k\" for --batch".to_string())
        );
        // Negative and out-of-range values are malformed too.
        let faults = parsed(&["f", "--faults", "-1"], &["--faults"]).unwrap();
        assert!(faults.number::<u32>("--faults").is_err());
        let mb = parsed(&["f", "--mb", "99999999999999999999"], &["--mb"]).unwrap();
        assert!(mb.number::<u64>("--mb").is_err());
    }

    #[test]
    fn theta_above_the_row_class_limit_is_refused_by_name() {
        let theta = |list: &[&str]| {
            parse_theta(&Args::parse(&args(list), &["--theta"], &[]).unwrap())
        };
        assert_eq!(theta(&[]), Ok(DEFAULT_THETA));
        assert_eq!(theta(&["--theta", "0"]), Ok(0));
        assert_eq!(theta(&["--theta", "31"]), Ok(31));
        for bad in ["32", "40", "4294967295"] {
            let err = theta(&["--theta", bad]).unwrap_err();
            assert!(err.contains("--theta") && err.contains(bad), "{err}");
        }
        assert!(theta(&["--theta", "four"]).is_err());
    }

    #[test]
    fn flags_go_before_between_and_after_positionals() {
        let flags = ["--tld", "--batch"];
        for list in [
            &["--tld", "net", "a.zone", "b.zone", "--batch", "8"][..],
            &["a.zone", "--tld", "net", "b.zone", "--batch", "8"],
            &["a.zone", "b.zone", "--batch", "8", "--tld", "net"],
        ] {
            let argv = parsed(list, &flags).unwrap();
            assert_eq!(argv.positionals, ["a.zone", "b.zone"], "{list:?}");
            assert_eq!((argv.value("--tld"), argv.value("--batch")), (Some("net"), Some("8")));
        }
    }

    #[test]
    fn only_the_blacklist_repeats_and_keeps_its_order() {
        let flags = ["--blacklist", "--tld"];
        let argv = parsed(&["--blacklist", "b", "z", "--blacklist", "a"], &flags).unwrap();
        assert_eq!(argv.values("--blacklist").collect::<Vec<_>>(), ["b", "a"]);
        let twice = parsed(&["z", "--tld", "com", "--tld", "net"], &flags).unwrap_err();
        assert!(twice.contains("--tld"), "{twice}");
    }

    #[test]
    fn a_dash_number_is_a_value_and_a_flag_is_not() {
        let argv = parsed(&["--faults", "-1", "z"], &["--faults", "--seed"]).unwrap();
        assert_eq!(argv.value("--faults"), Some("-1"));
        assert_eq!(argv.positionals, ["z"]);
        for list in [&["z", "--faults"][..], &["z", "--faults", "--seed", "3"]] {
            let err = parsed(list, &["--faults", "--seed"]).unwrap_err();
            assert_eq!(err, "--faults needs a value", "{list:?}");
        }
    }

    #[test]
    fn unknown_flags_and_wrong_positional_counts_are_named() {
        let one = |list: &[&str]| Args::parse(&args(list), &["--refs"], &["<domain>"]);
        assert_eq!(one(&["a", "--refz", "x"]).unwrap_err(), "unknown flag \"--refz\"");
        assert_eq!(one(&["a", "b"]).unwrap_err(), "unexpected argument \"b\"");
        assert_eq!(one(&["--refs", "google"]).unwrap_err(), "missing <domain>");
        assert_eq!(parsed(&[], &[]).unwrap_err(), "missing <FILE...>");
    }

    #[test]
    fn scan_reads_a_zone_file_as_a_zone() {
        let zones: [&[u8]; 6] = [
            b"$ORIGIN com.\ngoogle 3600 IN NS ns1.google.com.\n",
            b"google 3600 IN NS ns1.google.com.\n",
            b"xn--ggle-55da.com.\t3600\tIN\tNS\tns1.example.net.\n",
            b"xn--ggle-55da.com.\t3600\tin\tns\tns1.example.net.\n",
            b";delegations\n\nxn--ggle-55da.com.\t3600\tin\tns\tns1.example.net.\n",
            b"#dump\nxn--ggle-55da.com.\t3600\tin\tns\tns1.example.net.\n",
        ];
        let misread: Vec<_> = zones
            .iter()
            .filter(|zone| !is_zone_file(zone))
            .map(|zone| String::from_utf8_lossy(zone))
            .collect();
        assert!(misread.is_empty(), "read as domain lists: {misread:?}");
    }

    #[test]
    fn scan_reads_the_head_up_to_its_first_significant_line() {
        let (first, rest) =
            (&b";delegations\n\n#dump\ngoogle IN NS ns1.google.com.\n"[..], b"more IN NS ns.\n");
        let text = [first, rest].concat();
        let (mut input, mut head) = (text.as_slice(), Vec::new());
        read_to_first_significant_line(&mut input, &mut head).unwrap();
        assert_eq!((head.as_slice(), input), (first, &rest[..]));
        let (mut input, mut head): (&[u8], _) = (b"; only\nlast", Vec::new());
        read_to_first_significant_line(&mut input, &mut head).unwrap();
        assert_eq!((head.as_slice(), input), (&b"; only\nlast"[..], &b""[..]));
    }

    #[test]
    fn scan_reads_a_domain_list_as_a_list() {
        let list = b"# brands and lookalikes\n\ngoogle.com\nxn--ggle-55da.com  # Cyrillic o\n";
        assert!(!is_zone_file(list));
        assert!(!is_zone_file(b"xn--ggle-55da.com # note\npaypal.com\n"));
        assert!(!is_zone_file(b""));
    }
}
