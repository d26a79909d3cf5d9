//! The §5–§6 measurement study over a generated workload.
//!
//! Ingests the two corpus exports (zone file + flat list), extracts IDNs,
//! detects homographs under each database selection, and runs the active
//! analysis: NS/A resolution, port scans, passive-DNS ranking, site
//! classification, redirect analysis, blacklist checks and the §6.4
//! reverting analysis.

use crate::tables::{thousands, TextTable};
use sham_core::{revert_stem, Detection, Framework, Reverted};
use sham_confusables::UcDatabase;
use sham_dns::{
    table10_counts, HostScan, PassiveDns, SimProber, SimResolver,
};
use sham_langid::{identify, table7_rows};
use sham_punycode::DomainName;
use sham_simchar::{DbSelection, SimCharDb};
use sham_web::{
    classify, classify_redirect, observe, table12_counts, table13_counts, Category,
    FetchOutcome, RedirectKind,
};
use sham_workload::Workload;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Corpus statistics for Table 6.
#[derive(Debug, Clone)]
pub struct CorpusStats {
    /// Names in the zone file, and how many are IDNs.
    pub zone: (usize, usize),
    /// Names in the flat list, and how many are IDNs.
    pub list: (usize, usize),
    /// Union, and IDNs in the union.
    pub union: (usize, usize),
}

/// Outcome of the §6.1 activity funnel.
#[derive(Debug, Clone)]
pub struct ActiveAnalysis {
    /// Detected homographs with NS records.
    pub with_ns: usize,
    /// Of those, how many lack A records.
    pub without_a: usize,
    /// Port-scan results for the A-record holders.
    pub scans: Vec<HostScan>,
    /// Hosts answering on TCP/80 or TCP/443 (the "active" set).
    pub active: Vec<String>,
}

/// The full study state after ingestion.
pub struct Study {
    /// The generated world.
    pub workload: Workload,
    /// Union corpus.
    pub domains: Vec<DomainName>,
    /// Table 6 statistics.
    pub corpus_stats: CorpusStats,
    /// IDN stems (unicode, full ACE name).
    pub idns: Vec<(String, String)>,
    /// The resolver over the zone.
    pub resolver: SimResolver,
    /// Detections under the union DB.
    pub detections: Vec<Detection>,
    /// Detection counts per DB selection (Table 8).
    pub detected_by: BTreeMap<&'static str, usize>,
    /// Wall-clock seconds of the union detection run (§4.2).
    pub detection_seconds: f64,
    /// Configured worker-pool size during the detection run. The
    /// executor may engage fewer workers when the corpus produces
    /// fewer shards than this.
    pub detection_threads: usize,
    /// Candidate-generation strategy of the detection run (the
    /// framework default, `CanonicalClosure`).
    pub detection_indexing: String,
    /// The shared detection index the study ran on — kept so follow-up
    /// analyses (reverting, ad-hoc queries) reuse the same build
    /// instead of re-deriving a `HomoglyphDb`.
    pub shared_index: std::sync::Arc<sham_core::DetectionIndex>,
}

impl Study {
    /// Ingests a workload and runs detection with the given SimChar DB.
    pub fn run(workload: Workload, simchar: SimCharDb, uc: UcDatabase) -> Study {
        // Step 1: ingest both sources.
        let (zone, zone_errors) = sham_dns::parse_lenient(&workload.zone_text, "com");
        debug_assert!(zone_errors.is_empty(), "workload zones are well-formed");
        let (list_names, _bad) = sham_dns::parse_domain_list(&workload.domain_list_text);

        let mut zone_names: Vec<DomainName> = zone
            .owner_names()
            .into_iter()
            .cloned()
            .collect();
        zone_names.sort();
        zone_names.dedup();

        let mut union_set: HashSet<DomainName> = zone_names.iter().cloned().collect();
        union_set.extend(list_names.iter().cloned());
        let mut domains: Vec<DomainName> = union_set.into_iter().collect();
        domains.sort();

        let idn_of = |names: &[DomainName]| names.iter().filter(|d| d.is_idn()).count();
        let corpus_stats = CorpusStats {
            zone: (zone_names.len(), idn_of(&zone_names)),
            list: (list_names.len(), {
                let mut uniq: Vec<&DomainName> = list_names.iter().collect();
                uniq.sort();
                uniq.dedup();
                uniq.iter().filter(|d| d.is_idn()).count()
            }),
            union: (domains.len(), idn_of(&domains)),
        };

        let resolver = SimResolver::new([zone]);

        // Steps 2–3: extract IDNs, detect under each selection.
        let fw = Framework::new(
            simchar,
            uc,
            workload.references.iter().cloned(),
            "com",
        );
        let idns = fw.extract_idns(&domains);
        let shared_index = fw.shared_index();
        let detect = |selection| shared_index.detect(&idns, selection, fw.indexing());

        let mut detected_by = BTreeMap::new();
        for (name, selection) in [
            ("UC", DbSelection::UcOnly),
            ("SimChar", DbSelection::SimCharOnly),
        ] {
            let hits = detect(selection);
            let unique: HashSet<&String> = hits.iter().map(|d| &d.idn_ascii).collect();
            detected_by.insert(name, unique.len());
        }

        let t0 = Instant::now();
        let detections = detect(DbSelection::Union);
        let detection_seconds = t0.elapsed().as_secs_f64();
        let detection_threads = rayon::current_num_threads();
        let detection_indexing = format!("{:?}", fw.indexing());
        let unique_union: HashSet<&String> = detections.iter().map(|d| &d.idn_ascii).collect();
        detected_by.insert("UC ∪ SimChar", unique_union.len());

        Study {
            workload,
            domains,
            corpus_stats,
            idns,
            resolver,
            detections,
            detected_by,
            detection_seconds,
            detection_threads,
            detection_indexing,
            shared_index,
        }
    }

    /// The homoglyph database of the shared detection index — the
    /// exact build the detections came from, at zero rebuild cost.
    pub fn shared_db(&self) -> &sham_simchar::HomoglyphDb {
        self.shared_index.db()
    }

    /// Unique detected homograph domains (ACE form).
    pub fn detected_domains(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .detections
            .iter()
            .map(|d| d.idn_ascii.clone())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        v.sort();
        v
    }

    /// Table 6: corpus sizes.
    pub fn table6(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 6: domain lists and IDN counts (paper: 140.9M/0.67%, 139.7M/0.73%, union 141.2M/0.67%)",
            &["Source", "# domains", "# IDNs", "IDN %"],
        );
        let pct = |n: usize, of: usize| format!("{:.2}%", 100.0 * n as f64 / of.max(1) as f64);
        let (zd, zi) = self.corpus_stats.zone;
        let (ld, li) = self.corpus_stats.list;
        let (ud, ui) = self.corpus_stats.union;
        t.row(&["zone file".into(), thousands(zd as u64), thousands(zi as u64), pct(zi, zd)]);
        t.row(&["domain list".into(), thousands(ld as u64), thousands(li as u64), pct(li, ld)]);
        t.row(&["Total (union)".into(), thousands(ud as u64), thousands(ui as u64), pct(ui, ud)]);
        t
    }

    /// Table 7: top languages among the IDNs.
    pub fn table7(&self, top: usize) -> TextTable {
        let rows = table7_rows(self.idns.iter().map(|(stem, _)| identify(stem).language));
        let mut t = TextTable::new(
            "Table 7: top languages used for IDNs (paper: Chinese 46.5%, Korean 10.6%, Japanese 9.3%, German 5.6%, Turkish 3.6%)",
            &["Rank", "Language", "Number", "Fraction"],
        );
        for (i, (lang, count, frac)) in rows.into_iter().take(top).enumerate() {
            t.row(&[
                (i + 1).to_string(),
                lang.name().to_string(),
                thousands(count as u64),
                format!("{:.1}%", frac * 100.0),
            ]);
        }
        t
    }

    /// Table 8: detected homographs per database selection.
    pub fn table8(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 8: detected IDN homographs per homoglyph DB (paper: UC 436, SimChar 3,110, union 3,280)",
            &["Homoglyph DB", "Number"],
        );
        for (name, count) in &self.detected_by {
            t.row(&[name.to_string(), thousands(*count as u64)]);
        }
        t
    }

    /// Table 9: most-targeted reference domains.
    pub fn table9(&self, top: usize) -> TextTable {
        let mut per_target: HashMap<&str, HashSet<&str>> = HashMap::new();
        for d in &self.detections {
            per_target
                .entry(&*d.reference)
                .or_default()
                .insert(d.idn_ascii.as_str());
        }
        let mut rows: Vec<(&str, usize)> =
            per_target.into_iter().map(|(t, set)| (t, set.len())).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut t = TextTable::new(
            "Table 9: top targeted domains (paper: myetherwallet 170, google 114, amazon 75, facebook 72, allstate 68)",
            &["Rank", "Domain", "# homographs"],
        );
        for (i, (target, n)) in rows.into_iter().take(top).enumerate() {
            t.row(&[(i + 1).to_string(), format!("{target}.com"), n.to_string()]);
        }
        t
    }

    /// Table 10: port-scan outcomes of the funnel.
    pub fn table10(&self, analysis: &ActiveAnalysis) -> TextTable {
        let (o80, o443, both, any) = table10_counts(&analysis.scans);
        let mut t = TextTable::new(
            "Table 10: port scans of detected homographs (paper: 80→1,642, 443→700, both→695, unique 1,647)",
            &["Ports", "# domain names"],
        );
        t.row(&["TCP/80".into(), thousands(o80 as u64)]);
        t.row(&["TCP/443".into(), thousands(o443 as u64)]);
        t.row(&["TCP/80 & TCP/443".into(), thousands(both as u64)]);
        t.row(&["Total (unique)".into(), thousands(any as u64)]);
        t.row(&["— detected with NS records".into(), thousands(analysis.with_ns as u64)]);
        t.row(&["— of those, without A records".into(), thousands(analysis.without_a as u64)]);
        t
    }

    /// The §6.1 activity funnel: NS → A → port scan.
    pub fn active_analysis(&self) -> ActiveAnalysis {
        let detected = self.detected_domains();
        let mut with_ns = Vec::new();
        for ace in &detected {
            if let Ok(name) = DomainName::parse(ace) {
                if self.resolver.has_ns(&name) {
                    with_ns.push((ace.clone(), name));
                }
            }
        }
        let with_a: Vec<&(String, DomainName)> = with_ns
            .iter()
            .filter(|(_, name)| !self.resolver.a_records(name).is_empty())
            .collect();
        let without_a = with_ns.len() - with_a.len();

        // Build the simulated prober from ground truth and scan.
        let mut prober = SimProber::new();
        for (ace, assignment) in &self.workload.truth.assignments {
            if assignment.open_80 {
                prober.set(ace, 80, true);
            }
            if assignment.open_443 {
                prober.set(ace, 443, true);
            }
        }
        let hosts: Vec<String> = with_a.iter().map(|(ace, _)| ace.clone()).collect();
        let scans = sham_dns::scan(&prober, &hosts, &[80, 443], 8);

        let active: Vec<String> = scans
            .iter()
            .filter(|s| s.any_open())
            .map(|s| s.host.clone())
            .collect();
        ActiveAnalysis { with_ns: with_ns.len(), without_a, scans, active }
    }

    /// Table 11: top active homographs by passive-DNS resolutions.
    pub fn table11(&self, analysis: &ActiveAnalysis, top: usize) -> TextTable {
        let active: HashSet<&String> = analysis.active.iter().collect();
        let truth: Vec<(&str, u64)> = self
            .workload
            .truth
            .assignments
            .iter()
            .filter(|(ace, _)| active.contains(ace))
            .map(|(ace, a)| (ace.as_str(), a.resolutions))
            .collect();
        let pdns = PassiveDns::from_ground_truth(truth, 4, 0.05, 0xDB5);

        let mut t = TextTable::new(
            "Table 11: top active IDNs by passive-DNS resolutions (paper top: gmaıl, phishing, 615,447)",
            &["Domain (unicode)", "Category", "#resolutions", "MX", "Web link", "SNS"],
        );
        for (ace, observed) in pdns.top(top) {
            let Some(assignment) = self.workload.truth.assignments.get(&ace) else { continue };
            let unicode = DomainName::parse(&ace)
                .ok()
                .and_then(|d| d.to_unicode().ok())
                .unwrap_or_else(|| ace.clone());
            let category = self.categorise_active(&ace, assignment);
            t.row(&[
                unicode,
                category,
                thousands(observed),
                if assignment.has_mx { "yes" } else { "—" }.into(),
                if assignment.web_link { "yes" } else { "—" }.into(),
                if assignment.sns_link { "yes" } else { "—" }.into(),
            ]);
        }
        t
    }

    fn categorise_active(
        &self,
        ace: &str,
        assignment: &sham_workload::SiteAssignment,
    ) -> String {
        let blacklisted = self
            .workload
            .truth
            .blacklists
            .iter()
            .any(|b| b.contains(ace));
        let obs = observe(&assignment.profile, "ns.registrar.example");
        let cat = classify(&obs);
        match (blacklisted, cat) {
            (true, Category::Normal) => "Phishing".to_string(),
            (_, Category::Normal) => "Portal".to_string(),
            (_, Category::DomainParking) => "Parked".to_string(),
            (_, Category::ForSale) => "Sale".to_string(),
            (_, c) => c.name().to_string(),
        }
    }

    /// Tables 12 and 13: classification of active homographs and their
    /// redirects.
    pub fn table12_13(&self, analysis: &ActiveAnalysis) -> (TextTable, TextTable) {
        let active = &analysis.active;
        let mut categories = Vec::new();
        let mut redirect_kinds: Vec<RedirectKind> = Vec::new();
        for ace in active {
            let Some(assignment) = self.workload.truth.assignments.get(ace) else { continue };
            let obs = observe(&assignment.profile, "ns.registrar.example");
            let cat = classify(&obs);
            categories.push(cat);
            if let FetchOutcome::Redirected { final_domain } = &obs.fetch {
                // Which reference does this homograph imitate?
                let reference = self
                    .detections
                    .iter()
                    .find(|d| &d.idn_ascii == ace)
                    .map(|d| format!("{}.com", d.reference))
                    .unwrap_or_default();
                redirect_kinds.push(classify_redirect(
                    &reference,
                    final_domain,
                    &self.workload.truth.blacklists,
                ));
            }
        }
        let mut t12 = TextTable::new(
            "Table 12: classification of active homographs (paper: parking 348, sale 345, redirect 338, normal 281, empty 222, error 113 of 1,647)",
            &["Category", "Number"],
        );
        for (name, count) in table12_counts(&categories) {
            t12.row(&[name.to_string(), thousands(count as u64)]);
        }
        t12.row(&["Total".into(), thousands(categories.len() as u64)]);

        let mut t13 = TextTable::new(
            "Table 13: redirect breakdown (paper: brand protection 178, legitimate 125, malicious 35 of 338)",
            &["Category", "Number"],
        );
        for (name, count) in table13_counts(&redirect_kinds) {
            t13.row(&[name.to_string(), thousands(count as u64)]);
        }
        t13.row(&["Total".into(), thousands(redirect_kinds.len() as u64)]);
        (t12, t13)
    }

    /// Table 14: blacklisted homographs per feed, per DB selection.
    pub fn table14(&self) -> TextTable {
        // Per-selection detected sets.
        let mut per_selection: Vec<(&str, HashSet<String>)> = Vec::new();
        let union_set: HashSet<String> =
            self.detections.iter().map(|d| d.idn_ascii.clone()).collect();
        // UC / SimChar sets: re-derive from detection substitution sources.
        let mut uc_set = HashSet::new();
        let mut sim_set = HashSet::new();
        for d in &self.detections {
            let all_uc = d.substitutions.iter().all(|s| {
                matches!(
                    s.source,
                    Some(sham_simchar::PairSource::Uc) | Some(sham_simchar::PairSource::Both)
                )
            });
            let all_sim = d.substitutions.iter().all(|s| {
                matches!(
                    s.source,
                    Some(sham_simchar::PairSource::SimChar)
                        | Some(sham_simchar::PairSource::Both)
                )
            });
            if all_uc {
                uc_set.insert(d.idn_ascii.clone());
            }
            if all_sim {
                sim_set.insert(d.idn_ascii.clone());
            }
        }
        per_selection.push(("UC", uc_set));
        per_selection.push(("SimChar", sim_set));
        per_selection.push(("UC ∪ SimChar", union_set));

        let mut t = TextTable::new(
            "Table 14: blacklisted homographs (paper row UC∪SimChar: hpHosts 242, GSB 13, Symantec 8)",
            &["Homoglyph DB", "hpHosts", "GSB", "Symantec"],
        );
        for (name, set) in per_selection {
            let counts: Vec<String> = self
                .workload
                .truth
                .blacklists
                .iter()
                .map(|bl| set.iter().filter(|d| bl.contains(d)).count().to_string())
                .collect();
            t.row(&[name.to_string(), counts[0].clone(), counts[1].clone(), counts[2].clone()]);
        }
        t
    }

    /// §6.4: revert malicious homographs and count those whose original
    /// is outside the reference top-1k (paper: 91).
    pub fn revert_analysis(&self, db: &sham_simchar::HomoglyphDb) -> TextTable {
        let top1k: HashSet<&String> =
            self.workload.references.iter().take(1_000).collect();
        let blacklisted: Vec<String> = self
            .detected_domains()
            .into_iter()
            .filter(|d| {
                self.workload.truth.blacklists.iter().any(|bl| bl.contains(d))
            })
            .collect();

        let mut reverted_ok = 0usize;
        let mut outside_top1k = 0usize;
        for ace in &blacklisted {
            let Ok(name) = DomainName::parse(ace) else { continue };
            let Some(stem) = name.unicode_without_tld() else { continue };
            match revert_stem(db, &stem) {
                Reverted::Original(original) => {
                    reverted_ok += 1;
                    if !top1k.contains(&original) {
                        outside_top1k += 1;
                    }
                }
                Reverted::Partial(..) => {}
            }
        }
        let mut t = TextTable::new(
            "§6.4: reverting malicious IDNs to originals (paper: 91 outside the Alexa top-1k)",
            &["Metric", "Count"],
        );
        t.row(&["Blacklisted detected homographs".into(), blacklisted.len().to_string()]);
        t.row(&["Fully reverted to LDH".into(), reverted_ok.to_string()]);
        t.row(&["Original outside reference top-1k".into(), outside_top1k.to_string()]);
        t
    }

    /// §7.2: how many of the detected homographs would each browser
    /// display policy have degraded to Punycode — i.e. how many slip
    /// through in Unicode form? The paper argues the mixed-script rule
    /// leaves accent-only and whole-script homographs fully displayed.
    pub fn policy_analysis(&self) -> TextTable {
        use sham_core::{bypasses_policy, Policy};
        let detected = self.detected_domains();
        let mut bypass_legacy = 0usize;
        let mut bypass_mixed = 0usize;
        for ace in &detected {
            let Ok(name) = DomainName::parse(ace) else { continue };
            if bypasses_policy(&name, Policy::Legacy) {
                bypass_legacy += 1;
            }
            if bypasses_policy(&name, Policy::MixedScriptPunycode) {
                bypass_mixed += 1;
            }
        }
        let mut t = TextTable::new(
            "§7.2: detected homographs displayed in Unicode under each browser policy",
            &["Policy", "Displayed (bypasses)", "Degraded to Punycode"],
        );
        let total = detected.len();
        t.row(&[
            "Legacy (pre-2017)".into(),
            thousands(bypass_legacy as u64),
            thousands((total - bypass_legacy) as u64),
        ]);
        t.row(&[
            "Mixed-script rule".into(),
            thousands(bypass_mixed as u64),
            thousands((total - bypass_mixed) as u64),
        ]);
        t.row(&[
            "ShamFinder warning UI".into(),
            "0 (all flagged with context)".into(),
            "0".into(),
        ]);
        t
    }

    /// §4.2 timing report: per-reference detection cost and the
    /// extrapolation to the paper's corpus size.
    pub fn timing(&self) -> TextTable {
        let refs = self.workload.references.len().max(1);
        let per_ref = self.detection_seconds / refs as f64;
        let mut t = TextTable::new(
            "§4.2: detection timing (paper: 743.6 s for Alexa-10k over 141M names; 0.07 s/reference)",
            &["Metric", "Value"],
        );
        t.row(&["IDNs matched".into(), thousands(self.idns.len() as u64)]);
        t.row(&["References".into(), thousands(refs as u64)]);
        t.row(&["Worker pool (configured)".into(), self.detection_threads.to_string()]);
        t.row(&["Candidate index".into(), self.detection_indexing.clone()]);
        t.row(&["Wall time (s)".into(), format!("{:.3}", self.detection_seconds)]);
        t.row(&["Per reference (s)".into(), format!("{per_ref:.6}")]);
        // Scale-free comparison: cost per (reference × IDN) pair.
        let per_pair = self.detection_seconds / (refs as f64 * self.idns.len().max(1) as f64);
        t.row(&["Per ref×IDN pair (s)".into(), format!("{per_pair:.3e}")]);
        t
    }
}
