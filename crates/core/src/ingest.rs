//! Fault-tolerant zone-feed ingestion — the always-on front-end over
//! [`SessionRouter`].
//!
//! The paper's production story (§5: continuous scanning of newly
//! registered domains across TLD zone feeds) needs a service that
//! *degrades* instead of dying. This module runs connector threads —
//! one per [`FeedSource`] — that pull [`ZoneEvent`]-shaped items off
//! feeds and push them into per-TLD bounded queues, while a drainer
//! thread drives a `SessionRouter` (and through it the persistent
//! worker pool). Robustness is layered in explicitly:
//!
//! * **Bounded queues + backpressure** — every lane queue holds at
//!   most [`IngestConfig::queue_capacity`] names. A full lane either
//!   blocks the producing connector ([`Backpressure::Block`]) or sheds
//!   the name ([`Backpressure::Shed`]); both outcomes are counted per
//!   lane, so the final report accounts for every event.
//! * **Quarantine** — a malformed record never kills its connector:
//!   the connector counts it, samples it into a bounded quarantine
//!   ring, and moves on.
//! * **Retry / backoff / circuit** — a feed error is retried with
//!   capped exponential backoff plus deterministic jitter; after
//!   [`RetryPolicy::circuit_threshold`] *consecutive* failures the
//!   circuit opens and the feed is reported [`FeedOutcome::CircuitOpen`].
//! * **Panic isolation + lane lifecycle** — a worker panic during a
//!   lane flush poisons only that lane
//!   ([`SessionRouter::poison_lane`]); the batch is retried on a fresh
//!   lane and, if it panics again, counted as lost. Idle lanes are
//!   evicted by folding ([`SessionRouter::fold_lane`]); both folded
//!   and poisoned lanes reopen deterministically on their next domain
//!   with the full reference-diff history replayed.
//!
//! With no faults injected and a single feed, the final
//! [`IngestReport::router`] is **bit-identical** to replaying the same
//! events through a synchronous `SessionRouter` — queues, threads and
//! lane lifecycle are unobservable (pinned by `tests/ingest_faults.rs`
//! at 1 and N worker threads).
//!
//! Reference churn is ordered by a sequence barrier: the churn request
//! carries the global enqueue sequence number at submission; the
//! drainer flushes every pre-barrier name before applying the diff,
//! and the submitting connector blocks until it is applied, so churn
//! sits at exactly the same point of its feed's event order as in a
//! batch replay. (Events of *other* feeds may cross the barrier —
//! inter-feed order is undefined by construction.)
//!
//! [`ZoneEvent`]: IngestEvent

use crate::router::{RouterReport, SessionRouter, DEFAULT_ROUTER_BATCH};
use crate::index::DetectionIndex;
use serde::{Deserialize, Serialize};
use sham_punycode::DomainName;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One parsed zone-feed event, the ingest-facing twin of
/// `sham_workload::ZoneEvent` (kept separate so `sham_core` does not
/// depend on the workload generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestEvent {
    /// A newly registered domain.
    Registered(DomainName),
    /// Global reference-list churn: stems added to and removed from
    /// the popularity list.
    ReferenceChurn {
        /// Stems entering the reference list.
        added: Vec<String>,
        /// Stems leaving it.
        removed: Vec<String>,
    },
}

/// What a feed hands its connector per pull: a parsed event, or a
/// record that failed to parse (quarantined, never fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedItem {
    /// A well-formed event.
    Event(IngestEvent),
    /// A malformed record, with a human-readable reason.
    Malformed(String),
}

/// A feed-level failure (distinct from a malformed *record*): the pull
/// itself failed. The connector retries with backoff; enough
/// consecutive failures open the circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// The feed produced nothing within its deadline.
    Stall,
    /// The transport dropped mid-stream.
    Disconnect(String),
    /// Any other I/O-level failure.
    Io(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Stall => write!(f, "feed stalled"),
            FeedError::Disconnect(why) => write!(f, "feed disconnected: {why}"),
            FeedError::Io(why) => write!(f, "feed i/o error: {why}"),
        }
    }
}

impl std::error::Error for FeedError {}

/// A pull-based zone-event feed. `Ok(None)` is a clean end of stream;
/// `Err` is retried by the connector per its [`RetryPolicy`]. A feed
/// that returned `Err` must be resumable: the connector calls `next`
/// again after backing off.
pub trait FeedSource: Send {
    /// Stable feed name, used in reports and quarantine samples.
    fn name(&self) -> &str;
    /// Pulls the next item.
    fn next(&mut self) -> Result<Option<FeedItem>, FeedError>;
}

/// What a full lane queue does to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backpressure {
    /// Block the connector until the drainer frees space (lossless).
    Block,
    /// Drop the name and count it (lossy, never blocks).
    Shed,
}

/// Backoff ceiling for feed-level retries.
const RETRY_CAP: Duration = Duration::from_secs(2);

/// Seed for the deterministic retry-jitter stream (xorshift64), mixed
/// with each feed's index.
const JITTER_SEED: u64 = 0x5EED_1E55;

/// Retry/backoff/circuit parameters for feed-level errors.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry delay; doubles per consecutive failure up to a 2 s
    /// ceiling. `ZERO` disables sleeping (tests and benches).
    pub base: Duration,
    /// Consecutive failures that open the circuit (feed abandoned,
    /// reported as [`FeedOutcome::CircuitOpen`]).
    pub circuit_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(10),
            circuit_threshold: 8,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `failures` (1-based consecutive
    /// failure count): `min(RETRY_CAP, base · 2^(failures-1))` plus up
    /// to 50% deterministic jitter.
    fn delay(&self, failures: u32, jitter: &mut u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = failures.saturating_sub(1).min(20);
        let raw = self.base.saturating_mul(1u32 << exp);
        let capped = raw.min(RETRY_CAP);
        let nanos = capped.as_nanos() as u64;
        let spread = (nanos / 2).max(1);
        Duration::from_nanos(nanos + xorshift64(jitter) % spread)
    }
}

/// Configuration for an [`IngestService`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Per-lane queue bound.
    pub queue_capacity: usize,
    /// Full-queue behaviour of every lane.
    pub backpressure: Backpressure,
    /// Names the drainer takes from one queue and hands the router per
    /// flush; the router's lanes count to the same capacity and are
    /// flushed after each hand-off. The queues keep owned names: they
    /// are the backpressure buffer, and block and shed count per name.
    pub batch_capacity: usize,
    /// Feed-level retry/backoff/circuit policy.
    pub retry: RetryPolicy,
    /// `Some` fixes the router's lane set (foreign TLDs count as
    /// unrouted); `None` auto-opens a lane per TLD seen.
    pub tlds: Option<Vec<String>>,
    /// `Some(n)`: a router lane idle for `n` consecutive drainer
    /// flushes (with an empty ingest queue) is folded — evicted into
    /// the banked report, reopening on its next domain.
    pub idle_fold_after: Option<u64>,
    /// Quarantine ring bound (samples beyond it are counted, the
    /// oldest sample is dropped).
    pub quarantine_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 1_024,
            backpressure: Backpressure::Block,
            batch_capacity: DEFAULT_ROUTER_BATCH,
            retry: RetryPolicy::default(),
            tlds: None,
            idle_fold_after: None,
            quarantine_capacity: 32,
        }
    }
}

/// One quarantined record: which feed, its position in that feed, and
/// why it failed to parse.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineSample {
    /// Producing feed's name.
    pub feed: String,
    /// 1-based item position within that feed.
    pub position: u64,
    /// Parse-failure detail.
    pub detail: String,
}

/// How a feed ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedOutcome {
    /// Clean end of stream.
    Completed,
    /// Abandoned after `circuit_threshold` consecutive failures.
    CircuitOpen,
}

/// Per-feed outcome accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedReport {
    /// Feed name.
    pub name: String,
    /// Registration events delivered (enqueued, shed or blocked —
    /// every one of them lands in exactly one report bucket).
    pub registrations: u64,
    /// Reference-churn events delivered.
    pub churns: u64,
    /// Malformed records quarantined.
    pub quarantined: u64,
    /// Feed-level errors retried (consecutive failures that did not
    /// open the circuit).
    pub retries: u64,
    /// How the feed ended.
    pub outcome: FeedOutcome,
    /// The last feed-level error message, if any.
    pub last_error: Option<String>,
}

/// Per-lane queue/lifecycle accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneStats {
    /// The lane's TLD.
    pub tld: String,
    /// Names accepted into the queue.
    pub enqueued: u64,
    /// Names handed to the router (detected + clean + unrouted).
    pub routed: u64,
    /// Names dropped by shed backpressure.
    pub shed: u64,
    /// Times a connector blocked on this lane being full.
    pub blocked: u64,
    /// Worker panics that poisoned this lane.
    pub panics: u64,
    /// Idle evictions (folds) of this lane.
    pub folds: u64,
}

/// Final report of an ingest run: the router's detection report plus
/// the robustness ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// The detection outcome — bit-identical to a batch
    /// `SessionRouter` replay when no fault sheds or loses events.
    pub router: RouterReport,
    /// Per-feed accounting, in feed order.
    pub feeds: Vec<FeedReport>,
    /// Per-lane accounting, sorted by TLD.
    pub lanes: Vec<LaneStats>,
    /// Sampled quarantined records (bounded ring; `quarantined` is the
    /// true total).
    pub quarantine: Vec<QuarantineSample>,
    /// Total malformed records quarantined.
    pub quarantined: u64,
    /// Total names dropped by shed backpressure.
    pub shed: u64,
    /// Names lost to a lane that panicked twice on the same batch.
    pub lost: u64,
    /// Worker panics isolated to a lane poison.
    pub lane_panics: u64,
    /// Idle-lane folds.
    pub lane_folds: u64,
}

impl IngestReport {
    /// Registration events accounted for by the pipeline: routed
    /// (detected + clean + unrouted) + shed + lost. Equals the number
    /// of registration events the feeds delivered — the invariant the
    /// fault suite pins.
    pub fn events_accounted(&self) -> u64 {
        self.router.total_domains() as u64 + self.shed + self.lost
    }

    /// Registration events the feeds delivered (sum over feeds).
    pub fn events_delivered(&self) -> u64 {
        self.feeds.iter().map(|f| f.registrations).sum()
    }

    /// Scheduling decisions aggregated across every router lane (see
    /// [`ExecStats`](crate::sched::ExecStats)).
    pub fn exec(&self) -> crate::sched::ExecStats {
        self.router.exec()
    }
}

/// Deterministic jitter stream (splitmix-free xorshift64; zero-proof).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = (*state).max(0x9E37_79B9_7F4A_7C15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One lane's bounded queue. Entries carry the global enqueue
/// sequence number so churn barriers can order flushes against diffs.
struct LaneQueue {
    queue: VecDeque<(u64, DomainName)>,
    stats: LaneStats,
}

/// A pending reference diff: applies once every name enqueued before
/// `barrier` has been flushed.
struct ChurnRequest {
    barrier: u64,
    added: Vec<String>,
    removed: Vec<String>,
}

struct Inner {
    lanes: BTreeMap<String, LaneQueue>,
    churns: VecDeque<ChurnRequest>,
    /// Churns ever submitted. A connector's ticket is this count just
    /// before its own submission.
    churns_submitted: u64,
    /// Churns the drainer has applied. Churns apply in submission
    /// order, so ticket `t` has been applied once this exceeds `t`.
    churns_applied: u64,
    seq: u64,
    live_connectors: usize,
    quarantine: VecDeque<QuarantineSample>,
    quarantined: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when new work (names, churn, connector exit) arrives;
    /// the drainer waits here.
    work: Condvar,
    /// Signalled when the drainer frees queue space or applies churn;
    /// blocked connectors wait here.
    space: Condvar,
}

impl Shared {
    /// Lock with poison recovery: a panicking thread must never wedge
    /// the whole service (panic isolation is the module's point).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Inner>, cv: &Condvar) -> MutexGuard<'a, Inner> {
        cv.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Decrements `live_connectors` even if the connector unwinds, so the
/// drainer always observes termination.
struct ConnectorGuard<'a> {
    shared: &'a Shared,
}

impl Drop for ConnectorGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.live_connectors -= 1;
        drop(inner);
        self.shared.work.notify_all();
    }
}

/// What the drainer decided to do next (computed under the lock,
/// executed outside it).
enum Action {
    Flush { tld: String, batch: Vec<DomainName> },
    Churn { added: Vec<String>, removed: Vec<String> },
    Done,
}

/// A pre-flush hook: called with `(tld, per-lane flush ordinal)`
/// before each router flush. The seam the deterministic fault harness
/// uses to force worker panics at exact coordinates.
pub type FlushHook = Arc<dyn Fn(&str, u64) + Send + Sync>;

/// The fault-tolerant ingestion service: connectors × bounded lanes ×
/// one router-driving drainer. See the module docs for the failure
/// semantics; see `tests/ingest_faults.rs` for the pinned invariants.
pub struct IngestService {
    index: Arc<DetectionIndex>,
    config: IngestConfig,
    /// Test/fault-injection seam: a panic here is handled exactly
    /// like a worker panic in the flush itself.
    flush_hook: Option<FlushHook>,
}

impl IngestService {
    /// A service over a shared detection index with the given config.
    pub fn new(index: Arc<DetectionIndex>, config: IngestConfig) -> Self {
        IngestService { index, config, flush_hook: None }
    }

    /// Installs a pre-flush hook, the seam the deterministic fault
    /// harness uses to force worker panics at exact `(lane, flush)`
    /// coordinates.
    pub fn with_flush_hook(mut self, hook: FlushHook) -> Self {
        self.flush_hook = Some(hook);
        self
    }

    /// Runs the feeds to completion (or circuit-open) and returns the
    /// final report, with every lane flushed. Never panics on feed
    /// faults, malformed records or worker panics.
    pub fn run(&self, feeds: Vec<Box<dyn FeedSource>>) -> IngestReport {
        let shared = Shared {
            inner: Mutex::new(Inner {
                lanes: BTreeMap::new(),
                churns: VecDeque::new(),
                churns_submitted: 0,
                churns_applied: 0,
                seq: 0,
                live_connectors: feeds.len(),
                quarantine: VecDeque::new(),
                quarantined: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        };

        let mut feed_reports: Vec<Option<FeedReport>> = Vec::new();
        let mut drain_outcome = DrainOutcome::default();

        std::thread::scope(|scope| {
            let handles: Vec<_> = feeds
                .into_iter()
                .enumerate()
                .map(|(idx, feed)| {
                    let shared = &shared;
                    let config = &self.config;
                    scope.spawn(move || run_connector(shared, config, feed, idx as u64))
                })
                .collect();

            drain_outcome = self.drain(&shared);

            feed_reports = handles
                .into_iter()
                .map(|h| h.join().ok())
                .collect();
        });

        let mut inner = shared.lock();
        let lanes: Vec<LaneStats> =
            inner.lanes.values().map(|lane| lane.stats.clone()).collect();
        let shed = lanes.iter().map(|l| l.shed).sum();
        let quarantine: Vec<QuarantineSample> = inner.quarantine.drain(..).collect();
        let quarantined = inner.quarantined;
        drop(inner);

        IngestReport {
            router: drain_outcome.report,
            feeds: feed_reports
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| FeedReport {
                        name: "<connector panicked>".to_string(),
                        registrations: 0,
                        churns: 0,
                        quarantined: 0,
                        retries: 0,
                        outcome: FeedOutcome::CircuitOpen,
                        last_error: Some("connector thread panicked".to_string()),
                    })
                })
                .collect(),
            lanes,
            quarantine,
            quarantined,
            shed,
            lost: drain_outcome.lost,
            lane_panics: drain_outcome.lane_panics,
            lane_folds: drain_outcome.lane_folds,
        }
    }

    /// The drainer: picks actions under the lock, drives the router
    /// outside it, isolates flush panics to lane poisons, and folds
    /// idle lanes.
    fn drain(&self, shared: &Shared) -> DrainOutcome {
        let mut router = match &self.config.tlds {
            Some(tlds) => SessionRouter::new(Arc::clone(&self.index))
                .with_tlds(tlds.iter().cloned())
                .with_batch_capacity(self.config.batch_capacity),
            None => SessionRouter::new(Arc::clone(&self.index))
                .with_batch_capacity(self.config.batch_capacity),
        };
        let mut outcome = DrainOutcome::default();
        // Per-lane flush ordinals (the fault harness's panic
        // coordinates) and the global flush clock for idle folding.
        let mut flush_ordinal: BTreeMap<String, u64> = BTreeMap::new();
        let mut last_flush: BTreeMap<String, u64> = BTreeMap::new();
        let mut flush_clock: u64 = 0;

        loop {
            match self.next_action(shared) {
                Action::Done => break,
                Action::Churn { added, removed } => {
                    router.apply_reference_diff(&added, &removed);
                    // Counted under the lock: a connector between its
                    // check and its wait holds the lock, so the count
                    // cannot change, nor the notify fire, in that gap.
                    shared.lock().churns_applied += 1;
                    shared.space.notify_all();
                }
                Action::Flush { tld, batch } => {
                    let ordinal = {
                        let slot = flush_ordinal.entry(tld.clone()).or_insert(0);
                        *slot += 1;
                        *slot
                    };
                    let hook = self.flush_hook.clone();
                    let first = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(hook) = &hook {
                            hook(&tld, ordinal);
                        }
                        router.push_domains(batch.iter());
                        router.flush();
                    }));
                    let mut routed = batch.len() as u64;
                    if first.is_err() {
                        outcome.lane_panics += 1;
                        // The lane's unflushed state is suspect: poison
                        // it (buffer discarded, durable report banked)
                        // and retry the batch once on a fresh lane.
                        router.poison_lane(&tld);
                        let retry = catch_unwind(AssertUnwindSafe(|| {
                            router.push_domains(batch.iter());
                            router.flush();
                        }));
                        if retry.is_err() {
                            router.poison_lane(&tld);
                            outcome.lost += batch.len() as u64;
                            routed = 0;
                        }
                        let mut inner = shared.lock();
                        if let Some(lane) = inner.lanes.get_mut(&tld) {
                            lane.stats.panics += 1;
                        }
                    }
                    {
                        let mut inner = shared.lock();
                        if let Some(lane) = inner.lanes.get_mut(&tld) {
                            lane.stats.routed += routed;
                        }
                    }
                    flush_clock += 1;
                    last_flush.insert(tld, flush_clock);
                    if let Some(idle_after) = self.config.idle_fold_after {
                        self.fold_idle_lanes(
                            shared,
                            &mut router,
                            &last_flush,
                            flush_clock,
                            idle_after,
                            &mut outcome,
                        );
                    }
                }
            }
        }
        outcome.report = router.into_report();
        outcome
    }

    /// Folds every open router lane idle for `idle_after` flush ticks
    /// whose ingest queue is empty. Folding is report-invariant (the
    /// lane reopens with diff history replayed), so the fold *timing*
    /// may be nondeterministic without the report being so.
    fn fold_idle_lanes(
        &self,
        shared: &Shared,
        router: &mut SessionRouter,
        last_flush: &BTreeMap<String, u64>,
        flush_clock: u64,
        idle_after: u64,
        outcome: &mut DrainOutcome,
    ) {
        let open: Vec<String> = router.tlds().map(|t| t.to_string()).collect();
        for tld in open {
            let idle = flush_clock.saturating_sub(last_flush.get(&tld).copied().unwrap_or(0));
            if idle < idle_after {
                continue;
            }
            let queue_empty = {
                let inner = shared.lock();
                inner.lanes.get(&tld).is_none_or(|lane| lane.queue.is_empty())
            };
            if queue_empty && router.fold_lane(&tld) {
                outcome.lane_folds += 1;
                let mut inner = shared.lock();
                if let Some(lane) = inner.lanes.get_mut(&tld) {
                    lane.stats.folds += 1;
                }
            }
        }
    }

    /// Blocks until the next drainer action is ready. Priorities:
    /// satisfy the front churn barrier (flush pre-barrier names, then
    /// apply), then drain the lane with the globally oldest name, then
    /// terminate once all connectors exited and everything is empty.
    fn next_action(&self, shared: &Shared) -> Action {
        let mut inner = shared.lock();
        loop {
            if let Some(front) = inner.churns.front() {
                let barrier = front.barrier;
                let lagging = inner
                    .lanes
                    .iter()
                    .find(|(_, lane)| {
                        lane.queue.front().is_some_and(|(seq, _)| *seq < barrier)
                    })
                    .map(|(tld, _)| tld.clone());
                match lagging {
                    Some(tld) => {
                        let cap = self.config.batch_capacity.max(1);
                        let lane = inner.lanes.get_mut(&tld).expect("lane just found");
                        let mut batch = Vec::new();
                        while batch.len() < cap
                            && lane.queue.front().is_some_and(|(seq, _)| *seq < barrier)
                        {
                            batch.push(lane.queue.pop_front().expect("front checked").1);
                        }
                        shared.space.notify_all();
                        return Action::Flush { tld, batch };
                    }
                    None => {
                        let churn = inner.churns.pop_front().expect("front checked");
                        return Action::Churn { added: churn.added, removed: churn.removed };
                    }
                }
            }

            let oldest = inner
                .lanes
                .iter()
                .filter(|(_, lane)| !lane.queue.is_empty())
                .min_by_key(|(_, lane)| lane.queue.front().expect("nonempty").0)
                .map(|(tld, _)| tld.clone());
            if let Some(tld) = oldest {
                let cap = self.config.batch_capacity.max(1);
                let lane = inner.lanes.get_mut(&tld).expect("lane just found");
                let take = lane.queue.len().min(cap);
                let batch: Vec<DomainName> =
                    lane.queue.drain(..take).map(|(_, name)| name).collect();
                shared.space.notify_all();
                return Action::Flush { tld, batch };
            }

            if inner.live_connectors == 0 {
                return Action::Done;
            }
            inner = shared.wait(inner, &shared.work);
        }
    }
}

#[derive(Default)]
struct DrainOutcome {
    report: RouterReport,
    lost: u64,
    lane_panics: u64,
    lane_folds: u64,
}

/// One connector: pulls `feed` to completion, enqueueing events,
/// quarantining malformed records, and retrying feed errors with
/// backoff until the circuit opens. A panicking feed is contained
/// (treated as an I/O error), so no input can take the service down.
fn run_connector(
    shared: &Shared,
    config: &IngestConfig,
    mut feed: Box<dyn FeedSource>,
    feed_index: u64,
) -> FeedReport {
    let _guard = ConnectorGuard { shared };
    let name = feed.name().to_string();
    let mut report = FeedReport {
        name: name.clone(),
        registrations: 0,
        churns: 0,
        quarantined: 0,
        retries: 0,
        outcome: FeedOutcome::Completed,
        last_error: None,
    };
    let mut consecutive: u32 = 0;
    let mut jitter = JITTER_SEED
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(feed_index);
    let mut position: u64 = 0;

    loop {
        let pulled = catch_unwind(AssertUnwindSafe(|| feed.next()))
            .unwrap_or_else(|_| Err(FeedError::Io("feed panicked".to_string())));
        match pulled {
            Ok(None) => {
                report.outcome = FeedOutcome::Completed;
                break;
            }
            Ok(Some(item)) => {
                consecutive = 0;
                position += 1;
                match item {
                    FeedItem::Event(IngestEvent::Registered(domain)) => {
                        report.registrations += 1;
                        enqueue(shared, config, domain);
                    }
                    FeedItem::Event(IngestEvent::ReferenceChurn { added, removed }) => {
                        report.churns += 1;
                        submit_churn(shared, added, removed);
                    }
                    FeedItem::Malformed(detail) => {
                        report.quarantined += 1;
                        quarantine(shared, config, &name, position, detail);
                    }
                }
            }
            Err(error) => {
                consecutive += 1;
                report.last_error = Some(error.to_string());
                if consecutive >= config.retry.circuit_threshold {
                    report.outcome = FeedOutcome::CircuitOpen;
                    break;
                }
                report.retries += 1;
                let delay = config.retry.delay(consecutive, &mut jitter);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
    report
}

/// Pushes one name into its lane queue, creating the lane on first
/// sight. A full lane blocks (counted once per push attempt) or sheds
/// per the configured policy.
fn enqueue(shared: &Shared, config: &IngestConfig, domain: DomainName) {
    let mut inner = shared.lock();
    let mut counted_block = false;
    loop {
        let seq = inner.seq;
        // `entry` would take an owned key per name: build the TLD's
        // `String`s only to open its lane.
        let lane = match inner.lanes.get_mut(domain.tld()) {
            Some(lane) => lane,
            None => {
                let tld = domain.tld().to_string();
                let stats = LaneStats {
                    tld: tld.clone(),
                    enqueued: 0,
                    routed: 0,
                    shed: 0,
                    blocked: 0,
                    panics: 0,
                    folds: 0,
                };
                inner.lanes.entry(tld).or_insert(LaneQueue {
                    queue: VecDeque::new(),
                    stats,
                })
            }
        };
        if lane.queue.len() < config.queue_capacity {
            lane.queue.push_back((seq, domain));
            lane.stats.enqueued += 1;
            inner.seq += 1;
            drop(inner);
            shared.work.notify_all();
            return;
        }
        match config.backpressure {
            Backpressure::Shed => {
                lane.stats.shed += 1;
                return;
            }
            Backpressure::Block => {
                if !counted_block {
                    lane.stats.blocked += 1;
                    counted_block = true;
                }
                inner = shared.wait(inner, &shared.space);
            }
        }
    }
}

/// Submits a reference diff behind a sequence barrier and blocks until
/// the drainer applies it, so later events of this feed are observed
/// post-diff — the same order a batch replay gives.
fn submit_churn(shared: &Shared, added: Vec<String>, removed: Vec<String>) {
    let mut inner = shared.lock();
    let ticket = inner.churns_submitted;
    inner.churns_submitted += 1;
    let barrier = inner.seq;
    inner.churns.push_back(ChurnRequest { barrier, added, removed });
    shared.work.notify_all();
    while inner.churns_applied <= ticket {
        inner = shared.wait(inner, &shared.space);
    }
}

/// Counts a malformed record and samples it into the bounded ring.
fn quarantine(
    shared: &Shared,
    config: &IngestConfig,
    feed: &str,
    position: u64,
    detail: String,
) {
    let mut inner = shared.lock();
    inner.quarantined += 1;
    inner.quarantine.push_back(QuarantineSample {
        feed: feed.to_string(),
        position,
        detail,
    });
    while inner.quarantine.len() > config.quarantine_capacity.max(1) {
        inner.quarantine.pop_front();
    }
}
