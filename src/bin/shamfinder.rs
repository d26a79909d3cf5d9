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
//!                       [--policy block|shed] [--faults PERMILLE] [--seed S]
//!                       [--events N] [--zone FILE --tld com] [--refs-file FILE]
//!                       [--metrics-json FILE]
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
//! shamfinder surface <label> [--tld com|jp|de]     registrable homograph count
//! ```

use shamfinder::core::{DetectionIndex, IdnTable};
use shamfinder::prelude::*;
use shamfinder::simchar::{DEFAULT_THETA, MAX_THETA};
use shamfinder::unicode::block_of;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  shamfinder build-db [--theta N] [--out FILE]\n  \
         shamfinder index build <out> [--theta N] [--refs-file FILE]\n  \
         shamfinder index load <path> [--theta N]\n  \
         shamfinder index stat <path>\n  \
         shamfinder check <domain> [--refs a,b,c]\n  \
         shamfinder scan <zone-file> [--tld com] [--refs-file FILE]\n  \
         shamfinder serve-feed [--tlds com,net,org] [--queue N] [--batch N] \
[--policy block|shed] [--faults PERMILLE] [--seed S] [--events N] \
[--zone FILE --tld com] [--refs-file FILE] [--metrics-json FILE]\n  \
         shamfinder scan-zone <FILE...> [--tld TLD] [--refs-file FILE] \
[--blacklist FILE] [--batch N] [--window N] [--chunk BYTES] [--metrics-json FILE]\n  \
         shamfinder gen-zone <FILE> [--mb N | --records N] [--tld com] [--seed S] \
[--malformed PERMILLE] [--homographs PERMILLE]\n  \
         shamfinder revert <idn-or-stem>\n  \
         shamfinder homoglyphs <char-or-hex>\n  \
         shamfinder surface <label> [--tld com|jp|de|kr]"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The parsed value of a numeric flag, `None` when the flag is absent,
/// or an error naming the flag and a value that does not parse.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}"))
        })
        .transpose()
}

/// A parsed flag for the commands: an error (one naming the flag) ends
/// the process with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`parse_flag`] for the commands: a malformed value ends the process
/// with status 2, naming the flag.
fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    or_exit(parse_flag(args, flag))
}

/// `--theta`, or [`DEFAULT_THETA`] when absent. A value the pairwise
/// index cannot take (above [`MAX_THETA`]) is an error naming the flag,
/// like a malformed one.
fn parse_theta(args: &[String]) -> Result<u32, String> {
    match parse_flag(args, "--theta")? {
        None => Ok(DEFAULT_THETA),
        Some(theta) if theta <= MAX_THETA => Ok(theta),
        Some(theta) => Err(format!(
            "invalid value \"{theta}\" for --theta (θ must be at most {MAX_THETA})"
        )),
    }
}

/// The positional arguments: everything that is neither one of
/// `value_flags` nor such a flag's value. Any other `--flag` ends the
/// process with status 2, naming it, so a mistyped or retired flag is
/// never silently ignored.
fn positionals(args: &[String], value_flags: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            eprintln!("error: unknown flag {a:?}");
            usage();
            std::process::exit(2)
        } else {
            found.push(a.clone());
            i += 1;
        }
    }
    found
}

fn build_db(theta: u32) -> HomoglyphDb {
    eprintln!("[shamfinder] building SimChar (θ = {theta}) …");
    let font = SynthUnifont::v12();
    let result = build(&font, &BuildConfig { theta, ..BuildConfig::default() });
    eprintln!(
        "[shamfinder] {} pairs over {} characters",
        result.db.pair_count(),
        result.db.char_count()
    );
    HomoglyphDb::new(result.db, UcDatabase::embedded())
}

fn default_refs() -> Vec<String> {
    shamfinder::workload::reference_list(10_000)
}

/// The reference list of a scanning command: the trimmed non-empty
/// lines of `--refs-file`, or the default 10k list when the flag is
/// absent. An unreadable file ends the process with status 1, naming
/// the file.
fn refs_file(args: &[String]) -> Vec<String> {
    let Some(path) = flag_value(args, "--refs-file") else {
        return default_refs();
    };
    match std::fs::read_to_string(&path) {
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
}

fn cmd_build_db(args: &[String]) -> ExitCode {
    let theta = or_exit(parse_theta(args));
    let db = build_db(theta);
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
    if let Some(path) = flag_value(args, "--out") {
        if let Err(e) = std::fs::write(&path, sim.to_text()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("exported to {path}");
    }
    ExitCode::SUCCESS
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
fn cmd_index(args: &[String]) -> ExitCode {
    let Some(action) = args.first() else {
        return usage();
    };
    // The library default, not a literal: a retuned DEFAULT_THETA must
    // keep `index build`/`load` fingerprint-compatible with library
    // builds.
    let theta = or_exit(parse_theta(args));
    match (action.as_str(), args.get(1)) {
        ("build", _) => {
            let [path] = &positionals(&args[1..], &["--theta", "--refs-file"])[..] else {
                return usage();
            };
            let refs = refs_file(args);
            let db = build_db(theta);
            eprintln!("[shamfinder] indexing {} references …", refs.len());
            let index = DetectionIndex::new(db, refs);
            if let Err(e) = index.write_snapshot_file(path) {
                eprintln!("error: cannot write snapshot: {e}");
                return ExitCode::FAILURE;
            }
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!("snapshot: {path} ({bytes} bytes, full index)");
            print_index(&index);
            ExitCode::SUCCESS
        }
        ("load", Some(path)) => {
            // Mounting validates the recorded fingerprint against the
            // databases this binary would build (same θ ⇒ same pairs);
            // every rejection out of the loader names the file and, for
            // structural damage, the offending section.
            eprintln!("[shamfinder] rebuilding component databases for verification …");
            let font = SynthUnifont::v12();
            let result = build(&font, &BuildConfig { theta, ..BuildConfig::default() });
            match DetectionIndex::from_snapshot_file(path, result.db, UcDatabase::embedded()) {
                Ok(index) => {
                    println!("snapshot {path}: ok (full index mounted, fingerprint verified)");
                    print_index(&index);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("stat", Some(path)) => {
            // Pure file inspection: no database rebuild, readable
            // errors on old, section-less or corrupt files.
            let stat = match shamfinder::simchar::FlatPairIndex::snapshot_stat_path(path) {
                Ok(stat) => stat,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
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
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
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

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(domain) = args.first() else { return usage() };
    let domain = match DomainName::parse(domain) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: invalid domain: {e}");
            return ExitCode::FAILURE;
        }
    };
    let refs: Vec<String> = match flag_value(args, "--refs") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => default_refs(),
    };
    let db = build_db(DEFAULT_THETA);
    let tld = domain.tld().to_string();
    let fw = Framework::with_shared_index(DetectionIndex::shared(db, refs), &tld);
    let report = fw.run(std::slice::from_ref(&domain));
    if report.detections.is_empty() {
        println!("{}: no homograph detected", domain.as_ascii());
        return ExitCode::SUCCESS;
    }
    for det in &report.detections {
        let warning = Warning::from_detection(det, &tld);
        print!("{}", warning.render_text());
    }
    ExitCode::from(1)
}

fn cmd_scan(args: &[String]) -> ExitCode {
    use shamfinder::core::{ScanConfig, SessionRouter, ZoneScanner};

    let Some(path) = args.first() else { return usage() };
    let tld = flag_value(args, "--tld").unwrap_or_else(|| "com".into());
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let refs = refs_file(args);
    // Only `--tld` owners are detected.
    let router = || {
        SessionRouter::new(DetectionIndex::shared(build_db(DEFAULT_THETA), refs))
            .with_tlds([tld.clone()])
    };
    let report = if is_zone_file(&bytes) {
        // The scan-zone line stage: a malformed or non-UTF-8 line is
        // quarantined alone.
        let mut scanner = ZoneScanner::new(router(), ScanConfig::default());
        if let Err(e) = scanner.scan_reader(&tld, bytes.as_slice()) {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
        let report = scanner.finish();
        let quarantined = report.totals().quarantined;
        if quarantined > 0 {
            eprintln!("[shamfinder] skipped {quarantined} malformed zone lines");
        }
        report.router
    } else {
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
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
    ExitCode::SUCCESS
}

/// Whether `scan`'s input is a zone file rather than a flat domain
/// list, decided by its first line that is not blank and not a `;` or
/// `#` comment. In a zone that line starts with a `$` directive or
/// holds a record (two or more fields before any `#`); in a list it
/// holds one name.
fn is_zone_file(bytes: &[u8]) -> bool {
    let first = bytes
        .split(|&b| b == b'\n')
        .map(<[u8]>::trim_ascii)
        .find(|line| !line.is_empty() && !line.starts_with(b";") && !line.starts_with(b"#"));
    first.is_some_and(|line| {
        let before_note = line.split(|&b| b == b'#').next().unwrap_or(line);
        let fields = before_note
            .split(u8::is_ascii_whitespace)
            .filter(|f| !f.is_empty());
        line.starts_with(b"$") || fields.count() >= 2
    })
}

fn cmd_revert(args: &[String]) -> ExitCode {
    let Some(input) = args.first() else { return usage() };
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
            ExitCode::SUCCESS
        }
        Reverted::Partial(partial, failed) => {
            println!("{stem} -> {partial} (unresolved: {failed:?})");
            ExitCode::from(1)
        }
    }
}

fn cmd_homoglyphs(args: &[String]) -> ExitCode {
    let Some(input) = args.first() else { return usage() };
    let target: char = if let Some(hex) = input.strip_prefix("U+").or_else(|| input.strip_prefix("u+")) {
        match u32::from_str_radix(hex, 16).ok().and_then(char::from_u32) {
            Some(c) => c,
            None => {
                eprintln!("error: bad code point {input:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match input.chars().next() {
            Some(c) => c,
            None => return usage(),
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
    ExitCode::SUCCESS
}

fn cmd_surface(args: &[String]) -> ExitCode {
    let Some(label) = args.first() else { return usage() };
    let table = match flag_value(args, "--tld").as_deref() {
        Some("jp") => IdnTable::jp(),
        Some("de") => IdnTable::de(),
        Some("kr") => IdnTable::kr(),
        Some("rf") => IdnTable::rf(),
        _ => IdnTable::com(),
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
    ExitCode::SUCCESS
}

/// `serve-feed`: run the fault-tolerant ingest front-end over a feed —
/// by default a synthetic multi-TLD registration stream (optionally
/// with a seeded fault schedule), or a master-file zone text with
/// `--zone FILE`. Prints the per-TLD detection table plus the
/// robustness ledger (shed/quarantined/retries/panics/folds and the
/// accounting identity).
fn cmd_serve_feed(args: &[String]) -> ExitCode {
    use shamfinder::core::{
        Backpressure, IngestConfig, IngestService, RetryPolicy, ZoneTextFeed,
    };
    use shamfinder::workload::{FaultSchedule, FaultyZoneFeed, FeedStats};

    let tlds: Vec<String> = flag_value(args, "--tlds")
        .unwrap_or_else(|| "com,net,org".into())
        .split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect();
    let queue = numeric_flag(args, "--queue").unwrap_or(1024);
    let batch = numeric_flag(args, "--batch").unwrap_or(1024);
    let policy = match flag_value(args, "--policy").as_deref() {
        None | Some("block") => Backpressure::Block,
        Some("shed") => Backpressure::Shed,
        Some(other) => {
            eprintln!("error: unknown backpressure policy {other:?} (block|shed)");
            return ExitCode::FAILURE;
        }
    };
    let faults: u32 = numeric_flag(args, "--faults").unwrap_or(0);
    let seed: u64 = numeric_flag(args, "--seed").unwrap_or(7);

    let refs = refs_file(args);
    let index = DetectionIndex::shared(build_db(DEFAULT_THETA), refs);
    let config = IngestConfig {
        queue_capacity: queue,
        batch_capacity: batch,
        backpressure: policy,
        tlds: Some(tlds.clone()),
        retry: RetryPolicy::default(),
        ..IngestConfig::default()
    };
    let service = IngestService::new(index, config);

    let report = if let Some(zone_path) = flag_value(args, "--zone") {
        let origin = flag_value(args, "--tld").unwrap_or_else(|| "com".into());
        let file = match std::fs::File::open(&zone_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot open {zone_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let feed = ZoneTextFeed::new(zone_path.clone(), &origin, file);
        eprintln!("[shamfinder] ingesting zone {zone_path} (.{origin}) …");
        service.run(vec![Box::new(feed)])
    } else {
        let events_scale: usize = numeric_flag(args, "--events").unwrap_or(20_000);
        let workload =
            shamfinder::workload::Workload::generate(shamfinder::workload::WorkloadConfig {
                benign_ascii: events_scale.saturating_sub(events_scale / 10),
                benign_idns: events_scale / 10,
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
        let events = shamfinder::workload::multi_tld_event_stream(&workload, &feed_shape);
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
        println!(
            "  .{}: {} domains, {} IDNs, {} homographs",
            lane.tld,
            lane.report.total_domains,
            lane.report.idn_count,
            lane.report.detections.len()
        );
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
    let exec = report.exec();
    let pool = shamfinder::core::pool_stats();
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
    if let Some(path) = flag_value(args, "--metrics-json") {
        let json = shamfinder::metrics::ingest_metrics_json(&report, &exec, &pool);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[shamfinder] wrote metrics to {path}");
    }
    ExitCode::SUCCESS
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
fn cmd_scan_zone(args: &[String]) -> ExitCode {
    use shamfinder::core::scan::{tld_from_path, ScanConfig, ZoneScanner, DEFAULT_DEDUP_WINDOW};
    use shamfinder::core::SessionRouter;
    use shamfinder::web::Blacklist;
    use std::path::Path;

    let files = positionals(
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
    );
    if files.is_empty() {
        return usage();
    }

    let batch: usize = numeric_flag(args, "--batch").unwrap_or(1024);
    let window: usize = numeric_flag(args, "--window").unwrap_or(DEFAULT_DEDUP_WINDOW);
    let chunk: usize = numeric_flag(args, "--chunk").unwrap_or(1 << 20);

    let mut blacklists: Vec<Blacklist> = Vec::new();
    for w in args.windows(2) {
        if w[0] == "--blacklist" {
            let path = &w[1];
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let (bl, bad) = Blacklist::from_hosts_file(path, &text);
                    eprintln!(
                        "[shamfinder] blacklist {path}: {} entries ({bad} junk lines)",
                        bl.len()
                    );
                    blacklists.push(bl);
                }
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let refs = refs_file(args);
    let index = DetectionIndex::shared(build_db(DEFAULT_THETA), refs);
    let config = ScanConfig {
        chunk_bytes: chunk,
        dedup_window: window,
        batch_capacity: batch,
        blacklists,
    };
    let mut scanner = ZoneScanner::new(SessionRouter::new(index), config);

    let tld_override = flag_value(args, "--tld");
    for file in &files {
        let path = Path::new(file);
        let tld = tld_override
            .clone()
            .or_else(|| tld_from_path(path))
            .unwrap_or_else(|| "com".into());
        eprintln!("[shamfinder] scanning {file} as .{tld} …");
        if let Err(e) = scanner.scan_file(&tld, path) {
            eprintln!("error: scanning {file}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = scanner.finish();
    let totals = report.totals();
    println!("-- per-TLD scan --");
    for (tld, (s, (_, _, detections))) in shamfinder::metrics::scan_per_tld(&report) {
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
            detections,
            s.elapsed_secs,
            if s.elapsed_secs > 0.0 { s.records as f64 / s.elapsed_secs } else { 0.0 },
            if s.elapsed_secs > 0.0 { s.bytes as f64 / 1e6 / s.elapsed_secs } else { 0.0 },
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
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let exec = report.router.exec();
    let pool = shamfinder::core::pool_stats();
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
    let stage = report.stage;
    println!(
        "  line stage: {} pushes ({} split), {} shards, {} re-run whole, {} lines re-run at seams",
        stage.pushes, stage.split_pushes, stage.shards, stage.shards_rerun, stage.lines_rerun
    );
    println!(
        "  pool: {} workers, occupancy {:.0}%",
        pool.workers,
        pool.occupancy() * 100.0
    );

    if let Some(path) = flag_value(args, "--metrics-json") {
        let json = shamfinder::metrics::scan_metrics_json(&report, &pool);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[shamfinder] wrote metrics to {path}");
    }
    ExitCode::SUCCESS
}

/// `gen-zone <FILE>`: write a deterministic synthetic TLD zone file at
/// a byte or record target — the fixture generator behind the scan-zone
/// smokes and the GB-scale bench.
fn cmd_gen_zone(args: &[String]) -> ExitCode {
    use shamfinder::workload::{write_synthetic_zone, ZoneGenConfig};

    let Some(out_path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let mut cfg = ZoneGenConfig {
        tld: flag_value(args, "--tld").unwrap_or_else(|| "com".into()),
        seed: numeric_flag(args, "--seed").unwrap_or(11),
        ..ZoneGenConfig::default()
    };
    if let Some(mb) = numeric_flag::<u64>(args, "--mb") {
        cfg.target_bytes = mb << 20;
        cfg.target_records = 0;
    }
    if let Some(n) = numeric_flag(args, "--records") {
        cfg.target_records = n;
        cfg.target_bytes = 0;
    }
    if let Some(p) = numeric_flag(args, "--malformed") {
        cfg.malformed_permille = p;
    }
    if let Some(p) = numeric_flag(args, "--homographs") {
        cfg.homograph_permille = p;
    }

    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create {out_path}: {e}");
            return ExitCode::FAILURE;
        }
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: writing {out_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    let rest = &args[1..];
    match command.as_str() {
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
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::{is_zone_file, parse_flag, parse_theta, DEFAULT_THETA};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_flag_rejects_malformed_values_by_name() {
        let argv = args(&["zone.txt", "--batch", "1k", "--window", "64"]);
        assert_eq!(parse_flag::<usize>(&argv, "--window"), Ok(Some(64)));
        assert_eq!(
            parse_flag::<usize>(&argv, "--chunk"),
            Ok(None),
            "absent flag"
        );
        assert_eq!(
            parse_flag::<usize>(&argv, "--batch"),
            Err("invalid value \"1k\" for --batch".to_string())
        );
        // Negative and out-of-range values are malformed too.
        assert!(parse_flag::<u32>(&args(&["--faults", "-1"]), "--faults").is_err());
        assert!(parse_flag::<u64>(&args(&["--mb", "99999999999999999999"]), "--mb").is_err());
    }

    #[test]
    fn theta_above_the_row_class_limit_is_refused_by_name() {
        assert_eq!(parse_theta(&args(&["build-db"])), Ok(DEFAULT_THETA));
        assert_eq!(parse_theta(&args(&["--theta", "0"])), Ok(0));
        assert_eq!(parse_theta(&args(&["--theta", "31"])), Ok(31));
        for bad in ["32", "40", "4294967295"] {
            let err = parse_theta(&args(&["--theta", bad])).unwrap_err();
            assert!(err.contains("--theta") && err.contains(bad), "{err}");
        }
        assert!(parse_theta(&args(&["--theta", "four"])).is_err());
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
    fn scan_reads_a_domain_list_as_a_list() {
        let list = b"# brands and lookalikes\n\ngoogle.com\nxn--ggle-55da.com  # Cyrillic o\n";
        assert!(!is_zone_file(list));
        assert!(!is_zone_file(b"xn--ggle-55da.com # note\npaypal.com\n"));
        assert!(!is_zone_file(b""));
    }
}
