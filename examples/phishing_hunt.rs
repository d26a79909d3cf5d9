//! Phishing hunt, production-style: drive the four-layer detection
//! stack end to end over an *interleaved multi-TLD* zone-diff stream.
//!
//! The paper's §5–6 measurement is a batch pass over one TLD's zone
//! snapshot; a production monitor instead ingests diffs from several
//! TLD feeds at once — newly-registered `.com`/`.net`/`.org` names
//! arriving mixed together, with the popularity reference list
//! churning globally underneath. This example wires the layers
//! together:
//!
//! 1. **Index layer** — one immutable `DetectionIndex` (homoglyph
//!    database + indexed reference list), built once and shared via
//!    `Arc` by every per-TLD pipeline; nothing is cloned.
//! 2. **Router layer** — a `SessionRouter` demultiplexes the
//!    interleaved feed into one `DetectorSession` per TLD, buffering
//!    registrations into batches that shard across the persistent
//!    worker pool (`SHAM_THREADS` sizes it).
//! 3. **Session layer** — each lane ingests its batches and the
//!    global reference churn incrementally.
//! 4. **Driver layer** — `sham_workload::stream` turns the synthetic
//!    world into the multi-TLD event feed.
//!
//! ```sh
//! cargo run --release --example phishing_hunt
//! ```
//!
//! Expected output (abridged; ~100 K domains, a few seconds in
//! release mode):
//!
//! ```text
//! ingesting 103,0xx zone-diff events across 3 TLDs (batch 1,024, churn every 4,096) …
//! == routed multi-TLD ingest ==
//! TLD    domains    IDNs    detections
//! com    5x,xxx     2,xxx   5xx
//! net    2x,xxx     1,xxx   2xx
//! org    2x,xxx     1,xxx   2xx
//! total  103,0xx    4,xxx   1,0xx
//! throughput              x.xM events/s
//!
//! == top targeted domains (all lanes) ==
//! 1  myetherwallet   5x
//! …
//! router ≡ per-TLD batch cross-check: ok (3 lanes identical)
//! ```
//!
//! The cross-check at the end replays the same feed without churn and
//! asserts each lane's report is identical to a one-shot
//! `Framework::run` over that TLD's slice of the corpus — the
//! equivalence the router refactor pins (see
//! `crates/core/tests/router_equivalence.rs`).

use shamfinder::core::{DetectionIndex, Framework, IngestEvent, SessionRouter};
use shamfinder::measure::{thousands, CharDbContext, TextTable};
use shamfinder::punycode::DomainName;
use shamfinder::simchar::HomoglyphDb;
use shamfinder::workload::{multi_tld_event_stream, MultiTldConfig, Workload, WorkloadConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Registrations a router lane buffers before one batch flush — the
/// ingest granularity a zone provider's diff API would deliver.
const BATCH: usize = 1_024;

fn main() {
    // A mid-sized world: ~100k domains, ~1/3 of the paper's homograph
    // population — runs in a few seconds.
    let config = WorkloadConfig {
        benign_ascii: 95_000,
        benign_idns: 4_000,
        reference_size: 10_000,
        homograph_permille: 330,
        seed: 0xCAFE,
    };

    println!("building homoglyph databases …");
    let ctx = CharDbContext::create();

    println!("generating the synthetic multi-TLD world …");
    let workload = Workload::generate(config);

    // Layer 1: one immutable index for the whole process. Every lane
    // the router opens below holds the same Arc — no HomoglyphDb
    // clone, no re-indexed reference list, however many TLDs arrive.
    let index = DetectionIndex::shared(
        HomoglyphDb::new(ctx.build.db.clone(), ctx.uc.clone()),
        workload.references.iter().cloned(),
    );

    // Layer 4: the interleaved .com/.net/.org zone-diff feed.
    let feed = MultiTldConfig::default();
    let events = multi_tld_event_stream(&workload, &feed);
    println!(
        "ingesting {} zone-diff events across {} TLDs (batch {}, churn every {}) …",
        thousands(events.len() as u64),
        feed.tlds.len(),
        thousands(BATCH as u64),
        thousands(feed.base.churn_every as u64),
    );

    // Layers 2–3: the router demultiplexes the feed into per-TLD
    // sessions and batches each lane through the shared worker pool.
    let t0 = Instant::now();
    let mut router = SessionRouter::new(Arc::clone(&index)).with_batch_capacity(BATCH);
    let mut churn_events = 0usize;
    for event in &events {
        match event {
            IngestEvent::Registered(name) => {
                router.push_domains(std::iter::once(name));
            }
            IngestEvent::ReferenceChurn { added, removed } => {
                // Global churn: flushes every lane (pending names were
                // observed under the pre-churn list), then edits every
                // session's overlay.
                router.apply_reference_diff(added, removed);
                churn_events += 1;
            }
        }
    }
    let report = router.into_report();
    let elapsed = t0.elapsed().as_secs_f64();

    let mut summary = TextTable::new(
        "routed multi-TLD ingest",
        &["TLD", "Domains", "IDNs", "Detections"],
    );
    for lane in &report.per_tld {
        summary.row(&[
            lane.tld.clone(),
            thousands(lane.report.total_domains as u64),
            thousands(lane.report.idn_count as u64),
            thousands(lane.report.detections.len() as u64),
        ]);
    }
    summary.row(&[
        "total".into(),
        thousands(report.total_domains() as u64),
        thousands(report.idn_count() as u64),
        thousands(report.detection_count() as u64),
    ]);
    println!("{}", summary.render());
    println!(
        "reference churn: {churn_events} events ({} stems in / {} out each)",
        feed.base.churn_size, feed.base.churn_size
    );
    println!(
        "throughput: {:.2}M events/s\n",
        events.len() as f64 / elapsed / 1e6
    );

    // Table 9's question, answered fleet-wide from the live lanes: who
    // is being imitated hardest right now, across every TLD?
    let mut per_target: HashMap<&str, HashSet<&str>> = HashMap::new();
    for d in report.detections() {
        per_target
            .entry(&d.reference)
            .or_default()
            .insert(d.idn_ascii.as_str());
    }
    let mut rows: Vec<(&str, usize)> =
        per_target.into_iter().map(|(t, set)| (t, set.len())).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut top = TextTable::new(
        "top targeted domains (all lanes)",
        &["Rank", "Reference", "# homographs"],
    );
    for (i, (target, n)) in rows.into_iter().take(5).enumerate() {
        top.row(&[(i + 1).to_string(), target.to_string(), n.to_string()]);
    }
    println!("{}", top.render());

    // Cross-check: replay the registrations without churn through a
    // fresh router, and demand each lane's report be *identical* to a
    // one-shot `Framework::run` over that TLD's slice of the feed —
    // routing and batching must be unobservable in the results.
    let mut quiet = SessionRouter::new(Arc::clone(&index)).with_batch_capacity(BATCH);
    let mut per_tld_corpus: HashMap<&str, Vec<DomainName>> = HashMap::new();
    for event in &events {
        if let IngestEvent::Registered(name) = event {
            quiet.push_domains(std::iter::once(name));
            per_tld_corpus.entry(name.tld()).or_default().push(name.clone());
        }
    }
    let routed = quiet.into_report();
    assert_eq!(routed.per_tld.len(), per_tld_corpus.len());
    for lane in &routed.per_tld {
        let corpus = &per_tld_corpus[lane.tld.as_str()];
        let fw = Framework::with_shared_index(Arc::clone(&index), &lane.tld);
        let batch = fw.run(corpus);
        assert_eq!(lane.report, batch, "lane .{} diverged from batch run", lane.tld);
    }
    println!(
        "router ≡ per-TLD batch cross-check: ok ({} lanes identical, {} detections)",
        routed.per_tld.len(),
        thousands(routed.detection_count() as u64)
    );
}
