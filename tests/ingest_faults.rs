//! Fault-injection acceptance suite for the ingest front-end
//! (`sham_core::ingest` + the `sham_workload::faults` harness).
//!
//! The invariants pinned here are the PR's acceptance criteria:
//!
//! 1. **Bit-identity** — with a zero-fault schedule, the service's
//!    router report equals a synchronous `SessionRouter` batch replay
//!    of the same events, byte for byte. CI runs this suite at
//!    `SHAM_THREADS=1` and `=2`, so the identity holds at 1 and N
//!    worker threads.
//! 2. **Exact accounting** — under any seeded schedule of corrupt
//!    records, stalls, disconnects and forced lane panics, the service
//!    never aborts and every delivered event lands in exactly one
//!    bucket: detected/clean (router), unrouted (router), shed, or
//!    lost; every corrupted record is quarantined.
//! 3. **Lossless faults stay invisible** — stalls, disconnects and
//!    lane panics (which poison + retry) leave the router report
//!    bit-identical to the clean run; only corruption (and shed, and
//!    double-panic loss) may change it.
//! 4. **Churn barriers release their connector** — a single feed with
//!    no other traffic finishes however many churns it carries.

use shamfinder::core::{
    Backpressure, DetectionIndex, FeedError, FeedItem, FeedOutcome, FeedSource,
    IngestConfig, IngestService, RetryPolicy, SessionRouter,
};
use shamfinder::simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
use shamfinder::workload::{
    lane_panic_hook, multi_tld_event_stream, Fault, FaultSchedule, FaultyZoneFeed,
    FeedStats, MultiTldConfig, StreamConfig, Workload, WorkloadConfig, ZoneEvent,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A small but detection-rich 3-TLD world, built once.
fn world() -> &'static (Arc<DetectionIndex>, Vec<ZoneEvent>) {
    static WORLD: OnceLock<(Arc<DetectionIndex>, Vec<ZoneEvent>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let workload = Workload::generate(WorkloadConfig {
            benign_ascii: 3_000,
            benign_idns: 300,
            reference_size: 500,
            homograph_permille: 60,
            seed: 0xFA_017,
        });
        let font = shamfinder::glyph::SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                    "Greek and Coptic",
                ]),
                ..BuildConfig::default()
            },
        );
        let index = DetectionIndex::shared(
            HomoglyphDb::new(result.db, shamfinder::confusables::UcDatabase::embedded()),
            workload.references.iter().cloned(),
        );
        let feed_shape = MultiTldConfig {
            base: StreamConfig { churn_every: 512, churn_size: 2, seed: 0xFEED },
            ..MultiTldConfig::default()
        };
        let events = multi_tld_event_stream(&workload, &feed_shape);
        (index, events)
    })
}

/// The synchronous ground truth: the same events through a plain
/// `SessionRouter`, exactly as `examples/phishing_hunt.rs` replays
/// them.
fn batch_replay(
    index: &Arc<DetectionIndex>,
    events: &[ZoneEvent],
    batch: usize,
) -> shamfinder::core::RouterReport {
    let mut router = SessionRouter::new(Arc::clone(index)).with_batch_capacity(batch);
    for event in events {
        match event {
            ZoneEvent::Registered(name) => router.push_domains(std::iter::once(name)),
            ZoneEvent::ReferenceChurn { added, removed } => {
                router.apply_reference_diff(added, removed)
            }
        }
    }
    router.into_report()
}

/// A no-sleep retry policy so fault tests run at full speed.
fn instant_retry() -> RetryPolicy {
    RetryPolicy { base: Duration::ZERO, ..RetryPolicy::default() }
}

fn service_config(batch: usize) -> IngestConfig {
    IngestConfig {
        queue_capacity: 256,
        batch_capacity: batch,
        retry: instant_retry(),
        ..IngestConfig::default()
    }
}

#[test]
fn zero_fault_run_is_bit_identical_to_batch_router() {
    let (index, events) = world();
    let expected = batch_replay(index, events, 64);
    assert!(expected.detection_count() > 50, "world must be detection-rich");
    assert!(expected.reference_diffs > 0, "feed must carry churn");

    let stats = FeedStats::shared();
    let feed = FaultyZoneFeed::new(
        "clean",
        events.clone(),
        FaultSchedule::none(),
        Arc::clone(&stats),
    );
    let service = IngestService::new(Arc::clone(index), service_config(64));
    let report = service.run(vec![Box::new(feed)]);

    assert_eq!(report.router, expected, "queues/threads must be unobservable");
    assert_eq!(report.shed, 0);
    assert_eq!(report.lost, 0);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.lane_panics, 0);
    assert_eq!(report.feeds.len(), 1);
    assert_eq!(report.feeds[0].outcome, FeedOutcome::Completed);
    assert_eq!(
        report.events_accounted(),
        stats.registrations.load(Ordering::Relaxed),
        "every delivered event in exactly one bucket"
    );
}

#[test]
fn lossless_faults_leave_the_report_bit_identical() {
    let (index, events) = world();
    let expected = batch_replay(index, events, 32);

    // Stalls and disconnects sprinkled through the feed, plus forced
    // worker panics on the first .com and .net flushes — all lossless:
    // transients resume, panicked batches retry on a reopened lane.
    let schedule = FaultSchedule::none()
        .with_fault(3, Fault::Stall)
        .with_fault(97, Fault::Disconnect)
        .with_fault(1_203, Fault::Stall)
        .with_fault(2_500, Fault::Disconnect)
        .with_lane_panic("com", 1)
        .with_lane_panic("net", 2);
    let stats = FeedStats::shared();
    let feed =
        FaultyZoneFeed::new("flaky", events.clone(), schedule.clone(), Arc::clone(&stats));
    let service = IngestService::new(Arc::clone(index), service_config(32))
        .with_flush_hook(Arc::new(lane_panic_hook(&schedule)));
    let report = service.run(vec![Box::new(feed)]);

    assert_eq!(report.router, expected, "lossless faults must be unobservable");
    assert_eq!(report.lane_panics, 2, "both scheduled panics fired");
    assert_eq!(report.lost, 0, "poisoned batches were retried, not lost");
    assert_eq!(report.feeds[0].retries, 4, "each transient retried once");
    assert_eq!(report.feeds[0].outcome, FeedOutcome::Completed);
    assert_eq!(
        stats.stalls.load(Ordering::Relaxed) + stats.disconnects.load(Ordering::Relaxed),
        4
    );
}

#[test]
fn seeded_fault_schedule_accounts_every_event_exactly_once() {
    let (index, events) = world();
    // ~1.5% of positions fault (uniform corrupt/stall/disconnect),
    // plus worker panics on early flushes of every lane.
    let schedule = FaultSchedule::seeded(0xD15EA5E, events.len() as u64, 15)
        .with_lane_panic("com", 2)
        .with_lane_panic("net", 1)
        .with_lane_panic("org", 1);
    let stats = FeedStats::shared();
    let feed =
        FaultyZoneFeed::new("noisy", events.clone(), schedule.clone(), Arc::clone(&stats));
    let service = IngestService::new(Arc::clone(index), service_config(32))
        .with_flush_hook(Arc::new(lane_panic_hook(&schedule)));
    let report = service.run(vec![Box::new(feed)]);

    let delivered = stats.registrations.load(Ordering::Relaxed);
    let corrupted = stats.corrupted.load(Ordering::Relaxed);
    assert!(corrupted > 0, "seeded schedule must corrupt something");
    assert_eq!(report.quarantined, corrupted, "every corrupt record quarantined");
    assert_eq!(report.events_delivered(), delivered);
    assert_eq!(
        report.events_accounted(),
        delivered,
        "delivered = routed (detected+clean+unrouted) + shed + lost"
    );
    assert_eq!(report.lane_panics, 3);
    assert_eq!(report.lost, 0, "single panics retry losslessly");
    assert_eq!(report.feeds[0].outcome, FeedOutcome::Completed);
    assert_eq!(
        report.feeds[0].retries,
        stats.stalls.load(Ordering::Relaxed) + stats.disconnects.load(Ordering::Relaxed)
    );
    // Quarantine samples carry provenance.
    assert!(!report.quarantine.is_empty());
    for sample in &report.quarantine {
        assert_eq!(sample.feed, "noisy");
        assert!(sample.detail.contains("corrupted record"), "{}", sample.detail);
    }
}

#[test]
fn shed_backpressure_bounds_the_queue_and_counts_drops() {
    let (index, events) = world();
    let registrations: Vec<ZoneEvent> = events
        .iter()
        .filter(|e| matches!(e, ZoneEvent::Registered(n) if n.tld() == "com"))
        .take(200)
        .cloned()
        .collect();
    let n = registrations.len();
    assert_eq!(n, 200);

    // Gate the drainer: the first flush blocks until the feed is fully
    // produced, so the bounded queue must absorb or shed everything.
    let done = Arc::new(AtomicBool::new(false));
    struct GatedFeed {
        inner: FaultyZoneFeed,
        done: Arc<AtomicBool>,
    }
    impl FeedSource for GatedFeed {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
            let item = self.inner.next();
            if matches!(item, Ok(None)) {
                self.done.store(true, Ordering::Release);
            }
            item
        }
    }
    let gate = Arc::clone(&done);
    let capacity = 16usize;
    let config = IngestConfig {
        queue_capacity: capacity,
        backpressure: Backpressure::Shed,
        batch_capacity: 1,
        retry: instant_retry(),
        ..IngestConfig::default()
    };
    let stats = FeedStats::shared();
    let feed = GatedFeed {
        inner: FaultyZoneFeed::new(
            "burst",
            registrations,
            FaultSchedule::none(),
            Arc::clone(&stats),
        ),
        done,
    };
    let service = IngestService::new(Arc::clone(index), config).with_flush_hook(Arc::new(
        move |_tld: &str, _ordinal: u64| {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
        },
    ));
    let report = service.run(vec![Box::new(feed)]);

    // At most one batch (of one) escapes the queue before the gate
    // closes the drainer, so the shed count is pinned to a 1-wide band.
    let shed = report.shed;
    assert!(
        shed == (n - capacity) as u64 || shed == (n - capacity - 1) as u64,
        "shed {shed} outside the deterministic band"
    );
    assert_eq!(report.events_accounted(), n as u64, "shed events are accounted");
    assert_eq!(report.lanes.len(), 1);
    assert_eq!(report.lanes[0].tld, "com");
    assert_eq!(report.lanes[0].shed, shed);
    assert_eq!(report.lanes[0].blocked, 0, "shed lanes never block");
}

#[test]
fn repeated_failures_open_the_circuit() {
    struct DeadFeed;
    impl FeedSource for DeadFeed {
        fn name(&self) -> &str {
            "dead"
        }
        fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
            Err(FeedError::Disconnect("remote closed".to_string()))
        }
    }
    let (index, _) = world();
    let config = IngestConfig {
        retry: RetryPolicy {
            base: Duration::ZERO,
            circuit_threshold: 3,
        },
        ..IngestConfig::default()
    };
    let service = IngestService::new(Arc::clone(index), config);
    let report = service.run(vec![Box::new(DeadFeed)]);
    assert_eq!(report.feeds[0].outcome, FeedOutcome::CircuitOpen);
    assert_eq!(report.feeds[0].retries, 2, "threshold-1 retries before opening");
    assert!(report.feeds[0].last_error.as_deref().unwrap().contains("remote closed"));
    assert_eq!(report.router.total_domains(), 0);
}

#[test]
fn quarantine_ring_is_bounded_but_counts_everything() {
    let (index, events) = world();
    let registrations: Vec<ZoneEvent> = events
        .iter()
        .filter(|e| matches!(e, ZoneEvent::Registered(_)))
        .take(50)
        .cloned()
        .collect();
    let mut schedule = FaultSchedule::none();
    for position in 0..50 {
        schedule = schedule.with_fault(position, Fault::Corrupt);
    }
    let config = IngestConfig {
        quarantine_capacity: 8,
        retry: instant_retry(),
        ..IngestConfig::default()
    };
    let stats = FeedStats::shared();
    let feed = FaultyZoneFeed::new("all-bad", registrations, schedule, Arc::clone(&stats));
    let service = IngestService::new(Arc::clone(index), config);
    let report = service.run(vec![Box::new(feed)]);

    assert_eq!(report.quarantined, 50);
    assert_eq!(report.quarantine.len(), 8, "ring keeps the newest samples");
    // The ring holds the *last* 8 positions, in order.
    let positions: Vec<u64> = report.quarantine.iter().map(|s| s.position).collect();
    assert_eq!(positions, (43..=50).collect::<Vec<u64>>());
    assert_eq!(report.router.total_domains(), 0, "nothing clean survived");
    assert_eq!(report.feeds[0].quarantined, 50);
}

#[test]
fn fixed_lane_set_counts_foreign_tlds_as_unrouted() {
    let (index, events) = world();
    let stats = FeedStats::shared();
    let feed = FaultyZoneFeed::new(
        "三tld",
        events.clone(),
        FaultSchedule::none(),
        Arc::clone(&stats),
    );
    let config = IngestConfig {
        tlds: Some(vec!["com".to_string(), "net".to_string()]),
        retry: instant_retry(),
        ..IngestConfig::default()
    };
    let service = IngestService::new(Arc::clone(index), config);
    let report = service.run(vec![Box::new(feed)]);

    let org_events = events
        .iter()
        .filter(|e| matches!(e, ZoneEvent::Registered(n) if n.tld() == "org"))
        .count();
    assert!(org_events > 0);
    assert_eq!(report.router.unrouted_domains, org_events);
    assert_eq!(
        report.events_accounted(),
        stats.registrations.load(Ordering::Relaxed),
        "unrouted events are still accounted"
    );
}

#[test]
fn idle_lanes_fold_and_reopen_without_touching_the_report() {
    let (index, events) = world();
    // A bursty single-feed schedule: a .com run, then a .net run (while
    // .com sits idle and folds), then .com again (the folded lane
    // reopens). Queue capacity 4 forces connector/drainer lockstep so
    // the idle clock actually advances between bursts.
    let mut com: Vec<ZoneEvent> = Vec::new();
    let mut net: Vec<ZoneEvent> = Vec::new();
    for event in events.iter() {
        if let ZoneEvent::Registered(name) = event {
            match name.tld() {
                "com" if com.len() < 80 => com.push(event.clone()),
                "net" if net.len() < 40 => net.push(event.clone()),
                _ => {}
            }
        }
    }
    let bursty: Vec<ZoneEvent> = com[..40]
        .iter()
        .chain(net.iter())
        .chain(com[40..].iter())
        .cloned()
        .collect();

    let expected = batch_replay(index, &bursty, 4);
    let config = IngestConfig {
        queue_capacity: 4,
        batch_capacity: 4,
        idle_fold_after: Some(2),
        retry: instant_retry(),
        ..IngestConfig::default()
    };
    let stats = FeedStats::shared();
    let feed =
        FaultyZoneFeed::new("bursty", bursty, FaultSchedule::none(), Arc::clone(&stats));
    let service = IngestService::new(Arc::clone(index), config);
    let report = service.run(vec![Box::new(feed)]);

    assert!(report.lane_folds >= 1, "the idle .com lane must fold");
    assert_eq!(report.router, expected, "folding must be unobservable");
    assert_eq!(report.events_accounted(), 120);
}

/// One feed, 200k churns, nothing else to wake a stalled connector:
/// each churn's submitter must be released by the drainer applying it.
/// A lost wake-up hangs the run forever, so it runs on its own thread
/// and this test fails when the watchdog deadline passes first.
#[test]
fn single_feed_churn_never_loses_its_wakeup() {
    const CHURNS: usize = 200_000;
    let (index, events) = world();
    let names: Vec<&ZoneEvent> = events
        .iter()
        .filter(|e| matches!(e, ZoneEvent::Registered(_)))
        .collect();
    // A registration before every churn gives each barrier a flush to
    // wait for. Empty diffs keep the drainer's apply short, so its
    // wake-up lands close to the connector's check.
    let mut feed_events = Vec::with_capacity(2 * CHURNS);
    for i in 0..CHURNS {
        feed_events.push(names[i % names.len()].clone());
        feed_events.push(ZoneEvent::ReferenceChurn { added: Vec::new(), removed: Vec::new() });
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let index = Arc::clone(index);
    let run = std::thread::spawn(move || {
        let feed =
            FaultyZoneFeed::new("churny", feed_events, FaultSchedule::none(), FeedStats::shared());
        let report = IngestService::new(index, service_config(64)).run(vec![Box::new(feed)]);
        let _ = done_tx.send(());
        report
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        done_rx.recv_timeout(Duration::from_secs(120))
    {
        panic!("single-feed ingest hung: a churn barrier lost its wake-up");
    }
    let report = run.join().expect("ingest run panicked");
    assert_eq!(report.feeds[0].churns, CHURNS as u64);
    assert_eq!(report.router.reference_diffs, CHURNS);
    assert_eq!(report.events_accounted(), CHURNS as u64);
}

#[test]
fn multiple_concurrent_feeds_merge_and_account() {
    let (index, events) = world();
    let registrations: Vec<ZoneEvent> = events
        .iter()
        .filter(|e| matches!(e, ZoneEvent::Registered(_)))
        .cloned()
        .collect();
    let half = registrations.len() / 2;
    let stats_a = FeedStats::shared();
    let stats_b = FeedStats::shared();
    let feed_a = FaultyZoneFeed::new(
        "feed-a",
        registrations[..half].to_vec(),
        FaultSchedule::seeded(7, half as u64, 10),
        Arc::clone(&stats_a),
    );
    let feed_b = FaultyZoneFeed::new(
        "feed-b",
        registrations[half..].to_vec(),
        FaultSchedule::seeded(8, (registrations.len() - half) as u64, 10),
        Arc::clone(&stats_b),
    );
    let service = IngestService::new(Arc::clone(index), service_config(64));
    let report = service.run(vec![Box::new(feed_a), Box::new(feed_b)]);

    let delivered = stats_a.registrations.load(Ordering::Relaxed)
        + stats_b.registrations.load(Ordering::Relaxed);
    let corrupted = stats_a.corrupted.load(Ordering::Relaxed)
        + stats_b.corrupted.load(Ordering::Relaxed);
    assert_eq!(report.feeds.len(), 2);
    assert_eq!(report.feeds[0].name, "feed-a");
    assert_eq!(report.feeds[1].name, "feed-b");
    assert_eq!(report.events_accounted(), delivered);
    assert_eq!(report.quarantined, corrupted);
    // Without churn, feed interleaving is set-invariant: every
    // registration the clean batch run routes is either routed or
    // quarantined here.
    let expected = batch_replay(index, &registrations, 64);
    assert_eq!(
        report.router.total_domains() as u64 + report.quarantined,
        expected.total_domains() as u64
    );
}
