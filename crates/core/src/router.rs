//! Multi-TLD session routing — one interleaved zone feed, many
//! per-TLD detection sessions.
//!
//! A production zone-diff feed rarely carries a single TLD: registrars
//! and zone providers publish interleaved streams where `.com`, `.net`
//! and country-code registrations arrive mixed together (the paper's
//! §5 corpora are per-TLD, but its monitoring story spans them). A
//! [`SessionRouter`] demultiplexes such a stream into one
//! [`DetectorSession`] per TLD, all `Arc`-sharing a single
//! [`DetectionIndex`] — the homoglyph database and indexed reference
//! list are built once for the whole fleet, never per TLD.
//!
//! A lane *is* its TLD's session, and the session is the only buffer:
//! routing a borrowed name counts it and, if it is an IDN, appends its
//! ACE bytes to the session's batch — no name is cloned into a `String`
//! of its own, and the routing thread runs no Punycode. The router
//! finds a name's TLD with one `rfind('.')` and tries the previous
//! name's lane before its binary search, since zone files come grouped
//! by TLD. A lane flushes its batch once it has counted
//! `batch_capacity` owners (or when a reference diff / report boundary
//! forces it); the flush's detection shards decode and match the names,
//! so even a feed trickling in single events drives multi-shard
//! batches through the shared worker pool instead of per-domain
//! detection calls. Because
//! streaming detection is partition-invariant (see `crate::session`),
//! buffering is unobservable in the results: the router's per-TLD
//! reports are *identical* to running each TLD's events through its
//! own one-shot [`Framework::run`](crate::Framework::run).
//!
//! Reference churn is global — popularity lists are not per-TLD — so
//! [`SessionRouter::apply_reference_diff`] flushes every lane (buffered
//! registrations were observed under the pre-diff list) and then
//! applies the diff to every session.
//!
//! Reports merge deterministically: lanes are kept sorted by TLD, and
//! [`RouterReport`] lists per-TLD reports in that order with each
//! lane's detections in its own event order.
//!
//! Lanes have a *lifecycle*: [`SessionRouter::fold_lane`] flushes a
//! lane, folds its report into the final aggregate and closes it (the
//! ingest front-end evicts idle lanes this way, so a junk TLD cannot
//! leak a lane forever), and [`SessionRouter::poison_lane`] does the
//! same after a worker panic, discarding the buffered owners whose
//! fate is unknown. Either way the next domain of that TLD (if the
//! lane set permits it) reopens a fresh lane — and because the router
//! records every reference diff it has applied and replays that
//! history into each newly opened session, a reopened (or late-opened)
//! lane sees exactly the reference view a lane open from the start
//! would: folding and reopening are unobservable in the final report.

use crate::detection::Detection;
use crate::framework::FrameworkReport;
use crate::index::DetectionIndex;
use crate::session::{DetectorSession, DEFAULT_COMPACTION_THRESHOLD};
use serde::{Deserialize, Serialize};
use sham_punycode::DomainName;
use std::sync::Arc;

/// Registrations buffered per lane before a batch flush. Batches of
/// this size shard across the worker pool; the value matches the
/// zone-diff granularity the `phishing_hunt` example ingests.
pub const DEFAULT_ROUTER_BATCH: usize = 1_024;

/// One TLD's slice of a [`RouterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TldReport {
    /// The lane's TLD (`"com"`, `"net"`, …).
    pub tld: String,
    /// The same report a one-shot `Framework::run` over this TLD's
    /// events would produce.
    pub report: FrameworkReport,
}

/// Aggregate outcome of a routed multi-TLD feed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterReport {
    /// Per-TLD reports, sorted by TLD name.
    pub per_tld: Vec<TldReport>,
    /// Domains dropped because their TLD is outside the configured
    /// lane set (always 0 for an auto-opening router).
    pub unrouted_domains: usize,
    /// Reference diffs applied across the fleet.
    pub reference_diffs: usize,
}

impl RouterReport {
    /// Total domains seen, unrouted ones included.
    pub fn total_domains(&self) -> usize {
        self.unrouted_domains
            + self.per_tld.iter().map(|t| t.report.total_domains).sum::<usize>()
    }

    /// Total IDNs matched across all lanes.
    pub fn idn_count(&self) -> usize {
        self.per_tld.iter().map(|t| t.report.idn_count).sum()
    }

    /// Total detections across all lanes.
    pub fn detection_count(&self) -> usize {
        self.per_tld.iter().map(|t| t.report.detections.len()).sum()
    }

    /// All detections in deterministic order: lanes sorted by TLD, each
    /// lane's detections in its own event order.
    pub fn detections(&self) -> impl Iterator<Item = &Detection> {
        self.per_tld.iter().flat_map(|t| t.report.detections.iter())
    }

    /// Scheduling decisions aggregated across every lane (see
    /// [`ExecStats`](crate::sched::ExecStats) — observational, ignored
    /// by report equality).
    pub fn exec(&self) -> crate::sched::ExecStats {
        let mut total = crate::sched::ExecStats::default();
        for lane in &self.per_tld {
            total.merge(&lane.report.exec);
        }
        total
    }
}

/// Demultiplexes one interleaved registration stream into per-TLD
/// [`DetectorSession`]s over a shared [`DetectionIndex`].
///
/// ```
/// use sham_core::{DetectionIndex, SessionRouter};
/// use sham_confusables::UcDatabase;
/// use sham_glyph::SynthUnifont;
/// use sham_punycode::DomainName;
/// use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};
///
/// let font = SynthUnifont::v12();
/// let simchar = build(&font, &BuildConfig {
///     repertoire: Repertoire::Blocks(vec!["Basic Latin", "Cyrillic"]),
///     ..BuildConfig::default()
/// }).db;
/// let index = DetectionIndex::shared(
///     HomoglyphDb::new(simchar, UcDatabase::embedded()),
///     vec!["google".to_string()],
/// );
/// // One index, any number of TLD lanes — opened on first sight.
/// let mut router = SessionRouter::new(index);
/// let feed: Vec<DomainName> = [
///     "xn--ggle-55da.com", // gооgle under .com
///     "ordinary.net",
///     "xn--ggle-55da.net", // …and under .net
/// ].iter().map(|s| DomainName::parse(s)).collect::<Result<_, _>>()?;
/// router.push_domains(&feed);
/// let report = router.into_report();
/// assert_eq!(report.per_tld.len(), 2);
/// assert_eq!(report.detection_count(), 2);
/// assert_eq!(report.per_tld[0].tld, "com");
/// # Ok::<(), sham_punycode::PunycodeError>(())
/// ```
pub struct SessionRouter {
    index: Arc<DetectionIndex>,
    compact_min_dead: usize,
    /// One session per TLD, sorted by TLD (binary-searched when a
    /// routed domain's TLD is not the previous one's).
    lanes: Vec<DetectorSession>,
    /// Where the previous routed domain's lane was: tried first, and
    /// only used if that lane's TLD matches (lanes open and close, so
    /// the index can go stale).
    last_lane: usize,
    /// When false, a domain whose TLD has no lane is counted as
    /// unrouted instead of opening one — unless the TLD is in
    /// `allowed` (a folded or poisoned lane of the fixed set reopens).
    auto_open: bool,
    /// The fixed lane set, sorted, when built via `with_tlds`.
    allowed: Option<Vec<String>>,
    /// Reports of lanes closed by `fold_lane` / `poison_lane`, in
    /// close order; merged back per TLD at report time.
    folded: Vec<TldReport>,
    /// Every reference diff applied so far, replayed into any lane
    /// opened (or reopened) later so late lanes see the same
    /// reference view as lanes open from the start.
    diff_history: Vec<(Vec<String>, Vec<String>)>,
    batch_capacity: usize,
    unrouted: usize,
    reference_diffs: usize,
}

impl SessionRouter {
    /// Opens a router that creates a lane for every TLD it encounters.
    /// Every lane detects with the framework defaults: the union
    /// database and closure indexing.
    pub fn new(index: Arc<DetectionIndex>) -> Self {
        SessionRouter {
            index,
            compact_min_dead: DEFAULT_COMPACTION_THRESHOLD,
            lanes: Vec::new(),
            last_lane: 0,
            auto_open: true,
            allowed: None,
            folded: Vec::new(),
            diff_history: Vec::new(),
            batch_capacity: DEFAULT_ROUTER_BATCH,
            unrouted: 0,
            reference_diffs: 0,
        }
    }

    /// Restricts the router to a fixed lane set: the given TLDs are
    /// opened immediately and domains of any other TLD are counted as
    /// unrouted instead of detected. TLDs of the set whose lane was
    /// later folded or poisoned reopen on their next domain.
    pub fn with_tlds<I, S>(mut self, tlds: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut allowed = Vec::new();
        for tld in tlds {
            let tld = tld.into();
            if let Err(at) = self.lane_position(&tld) {
                self.lanes.insert(at, self.open_session(&tld));
            }
            allowed.push(tld);
        }
        allowed.sort();
        allowed.dedup();
        self.allowed = Some(allowed);
        self.auto_open = false;
        self
    }

    /// Sets every lane's overlay-compaction threshold (see
    /// [`DetectorSession::with_compaction_threshold`]). Builder-phase
    /// only: lanes preopened by [`SessionRouter::with_tlds`] are
    /// reopened with the new threshold (they have no accumulated state
    /// yet).
    pub fn with_compaction_threshold(mut self, min_dead: usize) -> Self {
        self.compact_min_dead = min_dead;
        for at in 0..self.lanes.len() {
            self.lanes[at] = self.open_session(self.lanes[at].tld());
        }
        self
    }

    /// Sets how many registrations a lane counts before flushing their
    /// IDNs as one batch (1 disables buffering). Batching is
    /// unobservable in the report — it only controls how much work each
    /// detection call hands the pool.
    pub fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity.max(1);
        self
    }

    /// The shared index every lane reads.
    pub fn index(&self) -> &Arc<DetectionIndex> {
        &self.index
    }

    /// The TLDs with an open lane, sorted.
    pub fn tlds(&self) -> impl Iterator<Item = &str> {
        self.lanes.iter().map(DetectorSession::tld)
    }

    /// Index of the lane for `tld`, or the insertion point.
    fn lane_position(&self, tld: &str) -> Result<usize, usize> {
        self.lanes.binary_search_by(|lane| lane.tld().cmp(tld))
    }

    /// A fresh session configured like this router's lanes, with every
    /// reference diff applied so far replayed into it — a lane opened
    /// (or reopened) mid-feed sees the same reference view as one open
    /// from the start.
    fn open_session(&self, tld: &str) -> DetectorSession {
        let mut session = DetectorSession::new(Arc::clone(&self.index), tld)
            .with_compaction_threshold(self.compact_min_dead);
        for (added, removed) in &self.diff_history {
            session.apply_reference_diff(added, removed);
        }
        session
    }

    /// Whether a domain of `tld` may open a lane right now: always for
    /// an auto-opening router, and for a fixed lane set exactly when
    /// the TLD belongs to it (a folded/poisoned lane reopening).
    fn lane_permitted(&self, tld: &str) -> bool {
        self.auto_open
            || self.allowed.as_ref().is_some_and(|set| {
                set.binary_search_by(|t| t.as_str().cmp(tld)).is_ok()
            })
    }

    /// Routes one slice of the interleaved feed: each domain joins its
    /// TLD's lane (opened on first sight unless the lane set is fixed),
    /// and any lane that has counted `batch_capacity` owners flushes
    /// their IDNs as one batch.
    pub fn push_domains<'a>(&mut self, domains: impl IntoIterator<Item = &'a DomainName>) {
        for domain in domains {
            let tld = domain.tld();
            let last = self.lanes.get(self.last_lane);
            let at = if last.is_some_and(|lane| lane.tld() == tld) {
                self.last_lane
            } else {
                match self.lane_position(tld) {
                    Ok(at) => at,
                    Err(at) if self.lane_permitted(tld) => {
                        self.lanes.insert(at, self.open_session(tld));
                        at
                    }
                    Err(_) => {
                        self.unrouted += 1;
                        continue;
                    }
                }
            };
            self.last_lane = at;
            let lane = &mut self.lanes[at];
            if lane.buffer(domain) >= self.batch_capacity {
                lane.flush();
            }
        }
    }

    /// Flushes every lane's buffered registrations.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.flush();
        }
    }

    /// Applies global reference churn to the whole fleet: buffered
    /// registrations are flushed first (they were observed under the
    /// pre-diff list), then every lane's session takes the diff.
    pub fn apply_reference_diff(&mut self, added: &[String], removed: &[String]) {
        self.flush();
        for lane in &mut self.lanes {
            lane.apply_reference_diff(added, removed);
        }
        self.diff_history.push((added.to_vec(), removed.to_vec()));
        self.reference_diffs += 1;
    }

    /// Folds one lane: flushes its buffered registrations, closes its
    /// session and banks the report, which report-time merging adds
    /// back into that TLD's aggregate. The ingest front-end evicts
    /// idle lanes this way; the next domain of the TLD (if permitted)
    /// reopens a fresh lane with the diff history replayed, so folding
    /// is unobservable in the final report. Returns `false` if no lane
    /// for `tld` is open.
    pub fn fold_lane(&mut self, tld: &str) -> bool {
        let Ok(at) = self.lane_position(tld) else { return false };
        let mut lane = self.lanes.remove(at);
        lane.flush();
        self.folded.push(TldReport { tld: lane.tld().to_string(), report: lane.into_report() });
        true
    }

    /// Poisons one lane after a worker panic: the buffered owners —
    /// whose fate inside the panicking flush is unknown — are
    /// *discarded* uncounted (their number is returned so the caller
    /// can account the loss), and whatever the session durably
    /// ingested before the panic is banked like a fold. Returns `None`
    /// if no lane for `tld` is open.
    pub fn poison_lane(&mut self, tld: &str) -> Option<usize> {
        let Ok(at) = self.lane_position(tld) else { return None };
        let mut lane = self.lanes.remove(at);
        let dropped = lane.discard();
        self.folded.push(TldReport { tld: lane.tld().to_string(), report: lane.into_report() });
        Some(dropped)
    }

    /// Merges banked (folded/poisoned) lane reports with the live
    /// ones: grouped per TLD in sorted order, counts summed and
    /// detections concatenated in close-then-live order — the
    /// chronological event order for that TLD, hence identical to an
    /// unfolded run.
    fn merge_reports(folded: Vec<TldReport>, live: Vec<TldReport>) -> Vec<TldReport> {
        use std::collections::btree_map::Entry;
        let mut merged: std::collections::BTreeMap<String, FrameworkReport> =
            std::collections::BTreeMap::new();
        for part in folded.into_iter().chain(live) {
            match merged.entry(part.tld) {
                Entry::Vacant(slot) => {
                    slot.insert(part.report);
                }
                Entry::Occupied(mut slot) => {
                    let report = slot.get_mut();
                    report.total_domains += part.report.total_domains;
                    report.idn_count += part.report.idn_count;
                    report.detections.extend(part.report.detections);
                    report.exec.merge(&part.report.exec);
                }
            }
        }
        merged.into_iter().map(|(tld, report)| TldReport { tld, report }).collect()
    }

    /// Flushes and folds the current state into a [`RouterReport`]
    /// without ending the router.
    pub fn report(&mut self) -> RouterReport {
        self.flush();
        let live = self
            .lanes
            .iter()
            .map(|lane| TldReport { tld: lane.tld().to_string(), report: lane.report() })
            .collect();
        RouterReport {
            per_tld: Self::merge_reports(self.folded.clone(), live),
            unrouted_domains: self.unrouted,
            reference_diffs: self.reference_diffs,
        }
    }

    /// Ends the router, yielding the final report without cloning the
    /// accumulated detections.
    pub fn into_report(mut self) -> RouterReport {
        self.flush();
        let live = self
            .lanes
            .into_iter()
            .map(|lane| TldReport { tld: lane.tld().to_string(), report: lane.into_report() })
            .collect();
        RouterReport {
            per_tld: Self::merge_reports(self.folded, live),
            unrouted_domains: self.unrouted,
            reference_diffs: self.reference_diffs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::RefName;
    use sham_confusables::UcDatabase;
    use sham_glyph::SynthUnifont;
    use sham_simchar::{build, BuildConfig, HomoglyphDb, Repertoire};

    fn shared_index(refs: &[&str]) -> Arc<DetectionIndex> {
        let font = SynthUnifont::v12();
        let result = build(
            &font,
            &BuildConfig {
                repertoire: Repertoire::Blocks(vec![
                    "Basic Latin",
                    "Latin-1 Supplement",
                    "Cyrillic",
                ]),
                ..BuildConfig::default()
            },
        );
        DetectionIndex::shared(
            HomoglyphDb::new(result.db, UcDatabase::embedded()),
            refs.iter().map(|s| s.to_string()),
        )
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("test domain literal must parse")
    }

    #[test]
    fn routes_by_tld_and_reports_in_sorted_order() {
        let index = shared_index(&["google", "paypal"]);
        let mut router = SessionRouter::new(Arc::clone(&index)).with_batch_capacity(2);
        router.push_domains(&[
            name("xn--ggle-55da.net"), // gооgle under .net
            name("ordinary.com"),
            name("xn--pypal-4ve.org"), // pаypal under .org
            name("xn--ggle-55da.com"),
            name("benign.net"),
        ]);
        let report = router.into_report();
        let tlds: Vec<&str> = report.per_tld.iter().map(|t| t.tld.as_str()).collect();
        assert_eq!(tlds, ["com", "net", "org"]);
        assert_eq!(report.total_domains(), 5);
        assert_eq!(report.idn_count(), 3);
        assert_eq!(report.detection_count(), 3);
        assert_eq!(report.unrouted_domains, 0);
        // Per-lane counts see only that TLD's slice of the feed.
        assert_eq!(report.per_tld[0].report.total_domains, 2);
        assert_eq!(report.per_tld[1].report.total_domains, 2);
        assert_eq!(report.per_tld[2].report.total_domains, 1);
        // Every lane's detections hold handles on the one shared index.
        for d in report.detections() {
            assert!(RefName::ptr_eq(&d.reference, &index.reference(0))
                || RefName::ptr_eq(&d.reference, &index.reference(1)));
        }
    }

    #[test]
    fn fixed_lane_set_counts_unrouted_domains() {
        let index = shared_index(&["google"]);
        let mut router = SessionRouter::new(index).with_tlds(["com", "net"]);
        router.push_domains(&[
            name("xn--ggle-55da.com"),
            name("xn--ggle-55da.xyz"), // no lane: dropped, counted
            name("plain.net"),
        ]);
        let report = router.report();
        assert_eq!(report.per_tld.len(), 2);
        assert_eq!(report.unrouted_domains, 1);
        assert_eq!(report.total_domains(), 3);
        assert_eq!(report.detection_count(), 1);
    }

    #[test]
    fn global_reference_diff_reaches_every_lane() {
        let index = shared_index(&["google", "amazon"]);
        let mut router = SessionRouter::new(index);
        let com = name("xn--ggle-55da.com");
        let net = name("xn--ggle-55da.net");
        router.push_domains(&[com.clone(), net.clone()]);
        // Drop google fleet-wide; later lookalikes miss on every lane.
        router.apply_reference_diff(&[], &["google".to_string()]);
        router.push_domains(&[com, net]);
        let report = router.into_report();
        assert_eq!(report.reference_diffs, 1);
        assert_eq!(report.detection_count(), 2);
        for lane in &report.per_tld {
            assert_eq!(lane.report.detections.len(), 1, "{}", lane.tld);
        }
    }

    #[test]
    fn folding_and_reopening_is_unobservable() {
        let index = shared_index(&["google", "paypal"]);
        let feed: Vec<DomainName> = (0..30)
            .map(|i| match i % 3 {
                0 => name("xn--ggle-55da.com"),
                1 => name("xn--pypal-4ve.net"),
                _ => name("ordinary.com"),
            })
            .collect();
        let plain = {
            let mut router =
                SessionRouter::new(Arc::clone(&index)).with_batch_capacity(4);
            router.push_domains(&feed);
            router.into_report()
        };
        // Fold every open lane after each third of the feed; lanes
        // reopen on their next domain. The report must not notice.
        let mut router = SessionRouter::new(Arc::clone(&index)).with_batch_capacity(4);
        for (i, domain) in feed.iter().enumerate() {
            router.push_domains(std::iter::once(domain));
            if i % 10 == 9 {
                for tld in ["com", "net"] {
                    router.fold_lane(tld);
                }
            }
        }
        assert_eq!(router.into_report(), plain);
    }

    #[test]
    fn folded_lane_reopens_with_diff_history_replayed() {
        let index = shared_index(&["google", "paypal"]);
        let mut router = SessionRouter::new(index);
        router.push_domains(&[name("xn--ggle-55da.com")]);
        router.apply_reference_diff(&[], &["google".to_string()]);
        assert!(router.fold_lane("com"));
        assert!(!router.fold_lane("com"), "already folded");
        // The reopened lane must observe the pre-fold diff: google is
        // gone, so the same lookalike no longer detects.
        router.push_domains(&[name("xn--ggle-55da.com"), name("xn--pypal-4ve.com")]);
        let report = router.into_report();
        assert_eq!(report.per_tld.len(), 1);
        assert_eq!(report.per_tld[0].report.total_domains, 3);
        let targets: Vec<&str> =
            report.detections().map(|d| d.reference.as_ref()).collect();
        assert_eq!(targets, ["google", "paypal"], "pre-diff hit, then post-diff miss");
    }

    #[test]
    fn poisoned_lane_discards_pending_and_banks_the_rest() {
        let index = shared_index(&["google"]);
        let mut router = SessionRouter::new(Arc::clone(&index))
            .with_tlds(["com", "net"])
            .with_batch_capacity(100);
        // Two flushed (capacity never reached ⇒ flush explicitly),
        // then two stuck in the pending buffer a panic invalidated.
        router.push_domains(&[name("xn--ggle-55da.com"), name("ordinary.com")]);
        router.flush();
        router.push_domains(&[name("benign.com"), name("xn--ggle-55da.com")]);
        assert_eq!(router.poison_lane("com"), Some(2));
        assert_eq!(router.poison_lane("com"), None, "lane already closed");
        // The fixed lane set still permits .com, so the TLD reopens.
        router.push_domains(&[name("xn--ggle-55da.com"), name("foreign.xyz")]);
        let report = router.into_report();
        let com = &report.per_tld[0];
        assert_eq!(com.tld, "com");
        assert_eq!(com.report.total_domains, 3, "2 banked + 1 reopened, 2 dropped");
        assert_eq!(com.report.detections.len(), 2);
        assert_eq!(report.unrouted_domains, 1, ".xyz stays outside the fixed set");
    }

    #[test]
    fn batching_is_unobservable() {
        let index = shared_index(&["google", "paypal"]);
        let feed: Vec<DomainName> = (0..40)
            .map(|i| match i % 4 {
                0 => name("xn--ggle-55da.com"),
                1 => name("xn--pypal-4ve.net"),
                2 => name("ordinary.com"),
                _ => name("plain.net"),
            })
            .collect();
        let run = |capacity: usize| {
            let mut router =
                SessionRouter::new(Arc::clone(&index)).with_batch_capacity(capacity);
            for domain in &feed {
                router.push_domains(std::iter::once(domain));
            }
            router.into_report()
        };
        let single = run(1);
        assert_eq!(single.detection_count(), 20);
        for capacity in [3, 7, 1_024] {
            assert_eq!(run(capacity), single, "capacity {capacity} diverges");
        }
    }
}
