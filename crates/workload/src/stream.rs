//! Zone-diff event streams — the driver-layer input for incremental
//! detection.
//!
//! Production homograph monitoring is not a corpus pass: a TLD
//! publishes zone-file diffs (newly-registered names trickling in),
//! and the popularity reference list itself churns as brands trend in
//! and out. This module turns a generated [`Workload`] into exactly
//! that feed: a deterministic, time-ordered sequence of
//! [`IngestEvent`]s — registration events over the full corpus (both
//! Table 6 exports, unioned) interleaved with reference-churn events —
//! to be replayed into a `sham_core` `DetectorSession`, or through an
//! `IngestService` feed.
//!
//! The registration *order* is a seeded shuffle of the sorted union
//! corpus: zone diffs arrive in registration order, not alphabetical
//! order, and a shuffled replay exercises exactly that while staying
//! reproducible run to run.

use crate::{reference_list, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sham_core::IngestEvent;
use sham_punycode::DomainName;

/// Shape of the generated feed.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Registrations between two churn events; `0` disables churn.
    pub churn_every: usize,
    /// Trending stems rotating in per churn event (the same number
    /// rotates out one event later).
    pub churn_size: usize,
    /// Seed for the registration-order shuffle.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { churn_every: 4_096, churn_size: 2, seed: 0x0005_7EA4 }
    }
}

/// The union corpus of the workload's two exports (zone file + flat
/// list), deduplicated and sorted — the same Step 1 ingestion the
/// batch study performs, so a streamed replay and a batch run see the
/// identical domain set.
pub fn union_corpus(workload: &Workload) -> Vec<DomainName> {
    let (zone, errors) = sham_dns::parse_lenient(&workload.zone_text, "com");
    debug_assert!(errors.is_empty(), "workload zones are well-formed");
    let (list_names, _bad) = sham_dns::parse_domain_list(&workload.domain_list_text);
    let mut union: Vec<DomainName> = zone.owner_names().into_iter().cloned().collect();
    union.extend(list_names);
    union.sort();
    union.dedup();
    union
}

/// Generates the event feed: every union-corpus name exactly once as a
/// [`IngestEvent::Registered`] (in seeded-shuffle order), with a
/// [`IngestEvent::ReferenceChurn`] every `churn_every` registrations.
/// Churn event `k` rotates in `churn_size` fresh trending stems (drawn
/// from beyond the workload's reference window, so they are brand-new
/// to the detector) and rotates out the stems event `k − 1` added —
/// a sliding trending window over an otherwise stable list.
pub fn event_stream(workload: &Workload, config: &StreamConfig) -> Vec<IngestEvent> {
    let mut corpus = union_corpus(workload);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Fisher–Yates: registration order, not alphabetical order.
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, rng.gen_range(0..=i));
    }

    let churn_events = corpus.len().checked_div(config.churn_every).unwrap_or(0);
    // Trending stems come from past the reference window: stems the
    // base list does not contain. `reference_list` is not prefix-stable
    // (mid-rank brands move with the list size), so membership is
    // filtered explicitly rather than assumed from position.
    let need = churn_events * config.churn_size;
    let base: std::collections::HashSet<&String> = workload.references.iter().collect();
    let pool: Vec<String> = reference_list(workload.references.len() + 2 * need + 8)
        .into_iter()
        .filter(|stem| !base.contains(stem))
        .take(need)
        .collect();
    assert!(pool.len() >= need, "trending pool exhausted");

    let mut events = Vec::with_capacity(corpus.len() + churn_events);
    let mut previous: &[String] = &[];
    for (i, name) in corpus.into_iter().enumerate() {
        if config.churn_every > 0 && i > 0 && i % config.churn_every == 0 {
            let k = i / config.churn_every - 1;
            let added = &pool[k * config.churn_size..(k + 1) * config.churn_size];
            events.push(IngestEvent::ReferenceChurn {
                added: added.to_vec(),
                removed: previous.to_vec(),
            });
            previous = added;
        }
        events.push(IngestEvent::Registered(name));
    }
    events
}

/// Shape of a multi-TLD feed: the single-TLD feed parameters plus the
/// TLD set registrations are spread across.
#[derive(Debug, Clone)]
pub struct MultiTldConfig {
    /// Registration order, churn cadence and seed of the base feed.
    pub base: StreamConfig,
    /// TLDs the interleaved feed carries; each registration is assigned
    /// one (seeded, so the assignment is reproducible).
    pub tlds: Vec<String>,
}

impl Default for MultiTldConfig {
    fn default() -> Self {
        MultiTldConfig {
            base: StreamConfig::default(),
            tlds: vec!["com".to_string(), "net".to_string(), "org".to_string()],
        }
    }
}

/// Generates an *interleaved multi-TLD* feed: the same seeded-shuffle
/// registration order and sliding churn window as [`event_stream`],
/// but each registered name is re-homed onto one of `config.tlds`
/// (seeded draw per registration, weighted toward the first TLD the
/// way real zones skew toward `.com` — the first entry gets as many
/// draws as the rest combined). Reference churn stays global: one
/// popularity list serves every TLD, which is exactly the sharing the
/// `sham_core` `SessionRouter` exploits.
///
/// The multiset of registered *stems* is identical to the single-TLD
/// feed's, so per-TLD slices of this feed partition the union corpus —
/// the equivalence the router cross-check in
/// `examples/phishing_hunt.rs` pins.
pub fn multi_tld_event_stream(
    workload: &Workload,
    config: &MultiTldConfig,
) -> Vec<IngestEvent> {
    assert!(!config.tlds.is_empty(), "a feed needs at least one TLD");
    let mut rng = StdRng::seed_from_u64(config.base.seed ^ 0x71D5_F00D);
    event_stream(workload, &config.base)
        .into_iter()
        .map(|event| match event {
            IngestEvent::ReferenceChurn { .. } => event,
            IngestEvent::Registered(name) => {
                // Index 0 is drawn with probability exactly 1/2 (zone
                // skew), the remaining TLDs uniformly with 1/(2(k−1)).
                let tld = if config.tlds.len() == 1 {
                    config.tlds[0].as_str()
                } else {
                    let rest = config.tlds.len() - 1;
                    let draw = rng.gen_range(0..2 * rest);
                    if draw < rest {
                        config.tlds[0].as_str()
                    } else {
                        config.tlds[draw - rest + 1].as_str()
                    }
                };
                let stem = name.without_tld().expect("corpus names have a TLD");
                let rehomed = DomainName::parse(&format!("{stem}.{tld}"))
                    .expect("re-homing a valid name onto a valid TLD stays valid");
                IngestEvent::Registered(rehomed)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadConfig;

    fn workload() -> Workload {
        Workload::generate(WorkloadConfig::test())
    }

    #[test]
    fn stream_replays_the_union_corpus_exactly_once() {
        let w = workload();
        let corpus = union_corpus(&w);
        let events = event_stream(&w, &StreamConfig::default());
        let mut replayed: Vec<DomainName> = events
            .iter()
            .filter_map(|e| match e {
                IngestEvent::Registered(d) => Some(d.clone()),
                IngestEvent::ReferenceChurn { .. } => None,
            })
            .collect();
        replayed.sort();
        assert_eq!(replayed, corpus);
        // Determinism: same seed, same feed.
        assert_eq!(events, event_stream(&w, &StreamConfig::default()));
        // A different seed reorders registrations but keeps the set.
        let other = event_stream(
            &w,
            &StreamConfig { seed: 1, ..StreamConfig::default() },
        );
        assert_ne!(events, other);
    }

    #[test]
    fn churn_rotates_a_sliding_window() {
        let w = workload();
        let config = StreamConfig { churn_every: 500, churn_size: 2, seed: 9 };
        let events = event_stream(&w, &config);
        let churns: Vec<(&[String], &[String])> = events
            .iter()
            .filter_map(|e| match e {
                IngestEvent::ReferenceChurn { added, removed } => {
                    Some((added.as_slice(), removed.as_slice()))
                }
                IngestEvent::Registered(_) => None,
            })
            .collect();
        assert!(churns.len() >= 2, "test corpus must produce churn");
        // First churn removes nothing; each later one removes exactly
        // what its predecessor added.
        assert!(churns[0].1.is_empty());
        for pair in churns.windows(2) {
            assert_eq!(pair[0].0, pair[1].1);
        }
        // Trending stems are new: none is in the base reference list.
        for (added, _) in &churns {
            for stem in *added {
                assert!(!w.references.contains(stem), "{stem} already referenced");
            }
        }
        // Churn off ⇒ registrations only.
        let quiet = event_stream(&w, &StreamConfig { churn_every: 0, churn_size: 0, seed: 9 });
        assert!(quiet
            .iter()
            .all(|e| matches!(e, IngestEvent::Registered(_))));
    }

    #[test]
    fn multi_tld_feed_rehomes_stems_without_losing_any() {
        let w = workload();
        let config = MultiTldConfig::default();
        let events = multi_tld_event_stream(&w, &config);
        // Deterministic: same config, same feed.
        assert_eq!(events, multi_tld_event_stream(&w, &config));

        // Same stem multiset as the single-TLD feed, every TLD from the
        // configured set actually used, nothing else.
        let mut stems: Vec<String> = Vec::new();
        let mut seen_tlds: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        for event in &events {
            if let IngestEvent::Registered(d) = event {
                stems.push(d.without_tld().unwrap().to_string());
                seen_tlds.insert(d.tld().to_string());
            }
        }
        stems.sort();
        let mut base_stems: Vec<String> = union_corpus(&w)
            .iter()
            .map(|d| d.without_tld().unwrap().to_string())
            .collect();
        base_stems.sort();
        assert_eq!(stems, base_stems);
        let expected: std::collections::BTreeSet<String> =
            config.tlds.iter().cloned().collect();
        assert_eq!(seen_tlds, expected);

        // Churn events ride through untouched (same cadence + windows).
        let churn_of = |events: &[IngestEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, IngestEvent::ReferenceChurn { .. }))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(churn_of(&events), churn_of(&event_stream(&w, &config.base)));
    }
}
