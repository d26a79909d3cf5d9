//! Deterministic fault injection for the ingest front-end.
//!
//! Every failure mode `sham_core::ingest` claims to survive —
//! corrupted records, feed stalls, mid-stream disconnects, forced
//! worker panics — is produced here on a *seeded schedule*, so the
//! fault-injection tests and the CI smoke replay byte-identical
//! failure sequences run after run. The harness has three pieces:
//!
//! * [`FaultSchedule`] — a map from event position to [`Fault`], plus
//!   `(lane, flush-ordinal)` coordinates for forced worker panics;
//!   built explicitly or sampled with [`FaultSchedule::seeded`].
//! * [`FaultyZoneFeed`] — a [`FeedSource`] replaying an
//!   [`IngestEvent`] stream (e.g. from [`crate::stream`]) through the
//!   schedule: a `Corrupt` position swallows the record and delivers
//!   [`FeedItem::Malformed`]; `Stall`/`Disconnect` positions fail the
//!   pull once and deliver the event on the post-backoff retry, so no
//!   event is lost to a transient. With [`FaultSchedule::none`] the
//!   feed is a transparent replay — the bit-identity tests lean on
//!   that.
//! * [`FaultyReader`] — the same idea one layer down, for the
//!   byte-stream feeds: a `Read` adapter that fails or corrupts
//!   whole read calls by ordinal.
//!
//! Shared [`FeedStats`] counters record what was actually injected
//! and delivered, so a test can hold the ground truth after the feed
//! has been boxed and consumed by the service.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sham_core::ingest::{FeedError, FeedItem, FeedSource, IngestEvent};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The record at this position arrives unparseable (quarantine
    /// path). On a churn event the fault downgrades to clean delivery
    /// — only records can corrupt.
    Corrupt,
    /// The pull at this position times out once (retry path).
    Stall,
    /// The transport drops at this position once (retry path).
    Disconnect,
}

/// A deterministic fault plan: event-position faults plus forced lane
/// panics at exact `(tld, flush ordinal)` coordinates.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Event position (0-based) → fault.
    pub faults: BTreeMap<u64, Fault>,
    /// `(tld, per-lane flush ordinal)` pairs at which the installed
    /// flush hook panics (see [`lane_panic_hook`]).
    pub lane_panics: Vec<(String, u64)>,
}

impl FaultSchedule {
    /// The empty schedule: a transparent replay.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Adds one fault at an event position (builder-style).
    pub fn with_fault(mut self, position: u64, fault: Fault) -> Self {
        self.faults.insert(position, fault);
        self
    }

    /// Adds one forced lane panic (builder-style).
    pub fn with_lane_panic(mut self, tld: impl Into<String>, flush_ordinal: u64) -> Self {
        self.lane_panics.push((tld.into(), flush_ordinal));
        self
    }

    /// Samples a schedule over `events` positions: each position
    /// faults with probability `fault_permille`/1000, the kind drawn
    /// uniformly. Same seed, same schedule — always.
    pub fn seeded(seed: u64, events: u64, fault_permille: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = BTreeMap::new();
        for position in 0..events {
            if rng.gen_range(0u32..1_000) < fault_permille {
                let fault = match rng.gen_range(0u32..3) {
                    0 => Fault::Corrupt,
                    1 => Fault::Stall,
                    _ => Fault::Disconnect,
                };
                faults.insert(position, fault);
            }
        }
        FaultSchedule { faults, lane_panics: Vec::new() }
    }

    /// The fault scheduled at `position`, if any.
    pub fn fault_at(&self, position: u64) -> Option<Fault> {
        self.faults.get(&position).copied()
    }
}

/// Ground-truth counters for what a faulty feed actually did, shared
/// (via `Arc`) between the test and the boxed feed the service
/// consumed.
#[derive(Debug, Default)]
pub struct FeedStats {
    /// Registration events delivered (corrupted ones excluded).
    pub registrations: AtomicU64,
    /// Churn events delivered.
    pub churns: AtomicU64,
    /// Records swallowed by `Corrupt` faults (delivered as malformed).
    pub corrupted: AtomicU64,
    /// `Stall` faults injected.
    pub stalls: AtomicU64,
    /// `Disconnect` faults injected.
    pub disconnects: AtomicU64,
}

impl FeedStats {
    /// A fresh shared counter set.
    pub fn shared() -> Arc<FeedStats> {
        Arc::new(FeedStats::default())
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A replay [`FeedSource`] over a pre-generated event stream, filtered
/// through a [`FaultSchedule`]. Stalls and disconnects fail the pull
/// *once* and resume (the event is delivered on retry); corruption
/// swallows the record and delivers it malformed.
pub struct FaultyZoneFeed {
    name: String,
    events: Vec<IngestEvent>,
    schedule: FaultSchedule,
    position: usize,
    /// Whether the fault at the current position already fired (a
    /// retried pull must deliver, not fail forever).
    injected: bool,
    stats: Arc<FeedStats>,
}

impl FaultyZoneFeed {
    /// A feed named `name` replaying `events` through `schedule`,
    /// reporting into `stats`.
    pub fn new(
        name: impl Into<String>,
        events: Vec<IngestEvent>,
        schedule: FaultSchedule,
        stats: Arc<FeedStats>,
    ) -> Self {
        FaultyZoneFeed {
            name: name.into(),
            events,
            schedule,
            position: 0,
            injected: false,
            stats,
        }
    }
}

impl FeedSource for FaultyZoneFeed {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
        if self.position >= self.events.len() {
            return Ok(None);
        }
        let position = self.position as u64;
        if !self.injected {
            match self.schedule.fault_at(position) {
                Some(Fault::Stall) => {
                    self.injected = true;
                    FeedStats::bump(&self.stats.stalls);
                    return Err(FeedError::Stall);
                }
                Some(Fault::Disconnect) => {
                    self.injected = true;
                    FeedStats::bump(&self.stats.disconnects);
                    return Err(FeedError::Disconnect(format!(
                        "scheduled disconnect at event {position}"
                    )));
                }
                _ => {}
            }
        }
        self.injected = false;
        let event = self.events[self.position].clone();
        self.position += 1;
        if let (Some(Fault::Corrupt), IngestEvent::Registered(name)) =
            (self.schedule.fault_at(position), &event)
        {
            FeedStats::bump(&self.stats.corrupted);
            return Ok(Some(FeedItem::Malformed(format!(
                "corrupted record at event {position} ({})",
                name.as_ascii()
            ))));
        }
        match &event {
            IngestEvent::Registered(_) => FeedStats::bump(&self.stats.registrations),
            IngestEvent::ReferenceChurn { .. } => FeedStats::bump(&self.stats.churns),
        }
        Ok(Some(FeedItem::Event(event)))
    }
}

/// The flush hook implementing a schedule's forced lane panics:
/// install it via `IngestService::with_flush_hook` and it panics at
/// exactly the scheduled `(tld, flush ordinal)` coordinates — before
/// the batch reaches the router, so the drainer's poison-and-retry
/// keeps accounting exact.
pub fn lane_panic_hook(
    schedule: &FaultSchedule,
) -> impl Fn(&str, u64) + Send + Sync + 'static {
    let coordinates = schedule.lane_panics.clone();
    move |tld: &str, ordinal: u64| {
        if coordinates.iter().any(|(t, o)| t == tld && *o == ordinal) {
            panic!("scheduled worker panic: lane .{tld} flush #{ordinal}");
        }
    }
}

/// A `Read` adapter injecting transport faults by read-call ordinal:
/// `Stall` → `WouldBlock` once, `Disconnect` → `ConnectionReset`
/// once, `Corrupt` → the read succeeds but every byte is flipped.
/// Drives the byte-stream readers (`ZoneTextFeed`, the zone scanner's
/// `scan_reader`) through the same taxonomy the replay feed exercises.
pub struct FaultyReader<R> {
    inner: R,
    schedule: FaultSchedule,
    reads: u64,
    injected: bool,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, faulting reads per `schedule` (positions are
    /// 0-based read-call ordinals).
    pub fn new(inner: R, schedule: FaultSchedule) -> Self {
        FaultyReader { inner, schedule, reads: 0, injected: false }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let ordinal = self.reads;
        if !self.injected {
            match self.schedule.fault_at(ordinal) {
                Some(Fault::Stall) => {
                    self.injected = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        format!("scheduled stall at read {ordinal}"),
                    ));
                }
                Some(Fault::Disconnect) => {
                    self.injected = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        format!("scheduled disconnect at read {ordinal}"),
                    ));
                }
                _ => {}
            }
        }
        self.injected = false;
        self.reads += 1;
        let n = self.inner.read(buf)?;
        if matches!(self.schedule.fault_at(ordinal), Some(Fault::Corrupt)) {
            for byte in &mut buf[..n] {
                *byte = !*byte;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sham_punycode::DomainName;

    fn reg(s: &str) -> IngestEvent {
        IngestEvent::Registered(DomainName::parse(s).expect("test domain literal must parse"))
    }

    /// Drains a feed, retrying errors immediately (the connector's
    /// job, minus the backoff).
    fn drain(feed: &mut FaultyZoneFeed) -> (Vec<FeedItem>, Vec<FeedError>) {
        let mut items = Vec::new();
        let mut errors = Vec::new();
        loop {
            match feed.next() {
                Ok(Some(item)) => items.push(item),
                Ok(None) => return (items, errors),
                Err(e) => errors.push(e),
            }
        }
    }

    #[test]
    fn transparent_replay_with_empty_schedule() {
        let events = vec![reg("a.com"), reg("b.net"), reg("c.com")];
        let stats = FeedStats::shared();
        let mut feed = FaultyZoneFeed::new(
            "replay",
            events.clone(),
            FaultSchedule::none(),
            Arc::clone(&stats),
        );
        let (items, errors) = drain(&mut feed);
        assert!(errors.is_empty());
        assert_eq!(items.len(), events.len());
        assert_eq!(stats.registrations.load(Ordering::Relaxed), 3);
        assert!(matches!(feed.next(), Ok(None)));
    }

    #[test]
    fn stall_and_disconnect_fail_once_then_deliver() {
        let events = vec![reg("a.com"), reg("b.com"), reg("c.com")];
        let schedule = FaultSchedule::none()
            .with_fault(0, Fault::Stall)
            .with_fault(2, Fault::Disconnect);
        let stats = FeedStats::shared();
        let mut feed = FaultyZoneFeed::new("faulty", events, schedule, Arc::clone(&stats));
        let (items, errors) = drain(&mut feed);
        // Both faulted events still arrive: resume semantics.
        assert_eq!(items.len(), 3);
        assert_eq!(errors.len(), 2);
        assert!(matches!(errors[0], FeedError::Stall));
        assert!(matches!(errors[1], FeedError::Disconnect(_)));
        assert_eq!(stats.registrations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn corruption_swallows_the_record() {
        let events = vec![reg("a.com"), reg("bad.com"), reg("c.com")];
        let schedule = FaultSchedule::none().with_fault(1, Fault::Corrupt);
        let stats = FeedStats::shared();
        let mut feed = FaultyZoneFeed::new("faulty", events, schedule, Arc::clone(&stats));
        let (items, errors) = drain(&mut feed);
        assert!(errors.is_empty());
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[1], FeedItem::Malformed(why) if why.contains("bad.com")));
        assert_eq!(stats.registrations.load(Ordering::Relaxed), 2);
        assert_eq!(stats.corrupted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_scaled() {
        let a = FaultSchedule::seeded(42, 10_000, 10);
        let b = FaultSchedule::seeded(42, 10_000, 10);
        assert_eq!(a.faults, b.faults);
        // 1% of 10k with generous slack.
        assert!((40..=220).contains(&a.faults.len()), "{}", a.faults.len());
        let c = FaultSchedule::seeded(43, 10_000, 10);
        assert_ne!(a.faults, c.faults, "different seeds, different plans");
    }

    #[test]
    fn faulty_reader_faults_by_read_ordinal() {
        let data = b"hello world, this is a zone feed".to_vec();
        let schedule = FaultSchedule::none()
            .with_fault(0, Fault::Stall)
            .with_fault(1, Fault::Corrupt);
        let mut reader = FaultyReader::new(&data[..], schedule);
        let mut buf = [0u8; 8];
        let first = reader.read(&mut buf);
        assert_eq!(first.unwrap_err().kind(), std::io::ErrorKind::WouldBlock);
        // Retry succeeds (ordinal 0 is spent)…
        let n = reader.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], &data[..n]);
        // …and ordinal 1 delivers flipped bytes.
        let n = reader.read(&mut buf).unwrap();
        let flipped: Vec<u8> = data[8..8 + n].iter().map(|b| !b).collect();
        assert_eq!(&buf[..n], &flipped[..]);
    }

    #[test]
    fn lane_panic_hook_fires_only_at_its_coordinates() {
        let schedule = FaultSchedule::none().with_lane_panic("com", 2);
        let hook = lane_panic_hook(&schedule);
        hook("com", 1);
        hook("net", 2);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook("com", 2)));
        assert!(panicked.is_err());
    }
}
