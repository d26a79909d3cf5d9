//! Deterministic synthetic workload generation (DESIGN.md §3).
//!
//! The paper measures the real `.com` zone (141 M domains, 955 K IDNs,
//! Alexa references, Farsight passive DNS, three blacklists). None of
//! that data is available offline, so this crate generates a world with
//! the same joint structure at a configurable scale:
//!
//! * an Alexa-like reference ranking with the paper's attack targets at
//!   their published ranks ([`domains`]),
//! * a benign corpus whose IDN language mix follows Table 7,
//! * an attacker/registrant model planting homographs with the class mix
//!   that yields Table 8's UC/SimChar/union arithmetic ([`attacker`]),
//! * the §6 activity funnel, Table 12/13 categories, Table 14 blacklists
//!   and Table 11 high-traffic stars ([`webgen`]),
//! * two overlapping corpus exports — a zone file and a flat domain list
//!   (Table 6) — in their real file formats,
//! * a zone-diff event stream over the corpus — registrations
//!   interleaved with reference-list churn — for driving the
//!   incremental `DetectorSession` ingest path ([`stream`]),
//! * a deterministic fault-injection harness — seeded schedules of
//!   corrupt records, stalls, disconnects and forced lane panics —
//!   for exercising the `sham_core::ingest` robustness layers
//!   ([`faults`]).

pub mod attacker;
pub mod dictionary;
pub mod domains;
pub mod faults;
pub mod stream;
pub mod webgen;
pub mod zonegen;

pub use attacker::{plant, substitutes, HomographPlan, PlantedHomograph, SubClass};
pub use domains::{benign_corpus, popularity_weight, reference_list, LANGUAGE_MIX};
pub use faults::{lane_panic_hook, Fault, FaultSchedule, FaultyReader, FaultyZoneFeed, FeedStats};
pub use stream::{
    event_stream, multi_tld_event_stream, union_corpus, MultiTldConfig, StreamConfig,
};
pub use webgen::{
    assign, domain_list_text, plant_resolution_stars, zone_text, FunnelPlan, GroundTruth,
    SiteAssignment,
};
pub use zonegen::{write_synthetic_zone, ZoneGenConfig, ZoneGenStats};

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Scale and seed knobs for a full world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Benign ASCII registrations.
    pub benign_ascii: usize,
    /// Benign IDN registrations (language mix of Table 7).
    pub benign_idns: usize,
    /// Reference-list length (the paper uses the Alexa top-10K).
    pub reference_size: usize,
    /// Homograph plan scale, per-mille of the paper's 3,280.
    pub homograph_permille: u32,
    /// Master seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The default reproduction scale: ~1 M domains (1/140 of the real
    /// zone) with the homograph population kept at paper scale so the
    /// §6 tables have paper-magnitude counts. Benign IDNs are raised
    /// above the pro-rata share to dilute the homograph
    /// over-representation in the Table 7 language mix (see
    /// EXPERIMENTS.md for both tradeoffs).
    pub fn repro() -> Self {
        WorkloadConfig {
            benign_ascii: 960_000,
            benign_idns: 30_000,
            reference_size: 10_000,
            homograph_permille: 1_000,
            seed: 0x5AC4_11FE,
        }
    }

    /// A small world for tests: ~20 K domains, 10% homograph scale.
    pub fn test() -> Self {
        WorkloadConfig {
            benign_ascii: 18_000,
            benign_idns: 1_500,
            reference_size: 2_000,
            homograph_permille: 100,
            seed: 0x7E57,
        }
    }
}

/// A generated world.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Configuration used.
    pub config: WorkloadConfig,
    /// Alexa-like reference stems in rank order.
    pub references: Vec<String>,
    /// Reference stem → 1-based rank.
    pub reference_ranks: HashMap<String, usize>,
    /// Benign ASCII stems.
    pub benign_ascii: Vec<String>,
    /// Benign IDN stems (Unicode form).
    pub benign_idns: Vec<String>,
    /// Ground truth for homographs, sites and blacklists.
    pub truth: GroundTruth,
    /// The zone-file export (source 1 of Table 6).
    pub zone_text: String,
    /// The flat-list export (source 2 of Table 6).
    pub domain_list_text: String,
}

impl Workload {
    /// Generates the full world for a config.
    pub fn generate(config: WorkloadConfig) -> Workload {
        let references = reference_list(config.reference_size);
        let reference_ranks: HashMap<String, usize> = references
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i + 1))
            .collect();

        let (mut benign_ascii, benign_idns) =
            benign_corpus(config.benign_ascii, config.benign_idns, config.seed ^ 0xB1);
        // Popular reference domains are registered too, of course.
        benign_ascii.extend(references.iter().take(2_000).cloned());

        let plan = HomographPlan::scaled(config.homograph_permille);
        let homographs = plant(&references, &plan, config.seed ^ 0xA7);
        let mut truth = assign(
            homographs,
            &reference_ranks,
            &FunnelPlan::default(),
            config.seed ^ 0xF0,
        );
        plant_resolution_stars(&mut truth);

        // Benign IDNs join the corpus as ACE names via the list/zone
        // renderers below; encode them once here.
        let mut all_benign: Vec<String> = benign_ascii.clone();
        for stem in &benign_idns {
            if let Ok(label) = sham_punycode::ace::to_ascii(stem) {
                all_benign.push(label);
            }
        }

        // Table 6 overlap: the zone carries ~98.9% of benign domains, the
        // list ~98.7%, overlapping heavily.
        let zone_text = zone_text(&all_benign, &truth, 989, config.seed ^ 0x20);
        let domain_list_text =
            domain_list_text(&all_benign, &truth, 987, config.seed ^ 0x21);

        Workload {
            config,
            references,
            reference_ranks,
            benign_ascii,
            benign_idns,
            truth,
            zone_text,
            domain_list_text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_world_generates_consistently() {
        let w = Workload::generate(WorkloadConfig::test());
        assert!(w.references.len() >= 1_990);
        assert!(!w.truth.homographs.is_empty());
        assert!(w.zone_text.contains("$ORIGIN com."));
        assert!(w.domain_list_text.contains(".com"));

        let w2 = Workload::generate(WorkloadConfig::test());
        assert_eq!(w.truth.homographs, w2.truth.homographs);
    }

    #[test]
    fn corpus_parses_and_has_expected_idn_share() {
        let w = Workload::generate(WorkloadConfig::test());
        let (zone, errors) = sham_dns::parse_lenient(&w.zone_text, "com");
        assert!(errors.is_empty());
        let (list, bad) = sham_dns::parse_domain_list(&w.domain_list_text);
        assert_eq!(bad, 0);

        // Union of the two sources.
        let mut union: std::collections::HashSet<String> = zone
            .owner_names()
            .iter()
            .map(|d| d.as_ascii().to_string())
            .collect();
        union.extend(list.iter().map(|d| d.as_ascii().to_string()));

        let idns = union.iter().filter(|d| d.starts_with("xn--")).count();
        let share = idns as f64 / union.len() as f64;
        // test() plants 1,500 benign IDNs + ~360 homographs over ~20K:
        // around 8–10%; the repro() scale lands at the paper's 0.67%.
        assert!(share > 0.05 && share < 0.15, "idn share {share}");
    }
}
