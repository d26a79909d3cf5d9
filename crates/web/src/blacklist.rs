//! Blacklist feeds (paper §6.3, Table 14).
//!
//! The paper checks detected homographs against three feeds: hpHosts (a
//! large community hosts-file database), Google Safe Browsing and
//! Symantec DeepSight (small, expert-curated). This module implements the
//! hosts-file format hpHosts distributes and a generic named feed type;
//! the synthetic feeds themselves are planted by `sham-workload` with the
//! paper's relative sizes.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A named blacklist of domain names.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Blacklist {
    /// Feed name (e.g. `hpHosts`).
    pub name: String,
    entries: HashSet<String>,
}

impl Blacklist {
    /// Empty feed.
    pub fn new(name: &str) -> Self {
        Blacklist {
            name: name.to_string(),
            entries: HashSet::new(),
        }
    }

    /// Adds a domain (stored lowercased).
    pub fn add(&mut self, domain: &str) {
        self.entries.insert(domain.to_ascii_lowercase());
    }

    /// True when the exact domain is listed.
    pub fn contains(&self, domain: &str) -> bool {
        self.entries.contains(&domain.to_ascii_lowercase())
    }

    /// True when the domain itself **or any parent suffix** is listed:
    /// `a.b.evil.com` matches an entry `evil.com`. This is the hosts-file
    /// convention (listing an apex blocks the whole subtree) and the
    /// filter the zone scanner runs per candidate domain.
    ///
    /// Each label-suffix of `domain` is one borrowed `&str` probe of the
    /// entry set, so the cost per call is O(labels), independent of
    /// feed size — no linear iteration.
    pub fn contains_suffix(&self, domain: &str) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        // Entries are lowercase: only pay for lowering mixed-case input
        // (zone scan owners are already lowercase ACE).
        let lowered: String;
        let domain = if domain.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = domain.to_ascii_lowercase();
            &lowered
        } else {
            domain
        };
        let mut suffix = domain;
        loop {
            if self.entries.contains(suffix) {
                return true;
            }
            match suffix.find('.') {
                Some(dot) => suffix = &suffix[dot + 1..],
                None => return false,
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the feed is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(String::as_str)
    }

    /// Parses the hosts-file format hpHosts ships:
    /// `127.0.0.1<ws>domain` lines, `#` comments. Unparseable lines are
    /// counted, not fatal (the real feed contains junk).
    pub fn from_hosts_file(name: &str, text: &str) -> (Blacklist, usize) {
        let mut bl = Blacklist::new(name);
        let mut bad = 0usize;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            match (fields.next(), fields.next()) {
                (Some(addr), Some(domain))
                    if (addr == "127.0.0.1" || addr == "0.0.0.0")
                        && domain.contains('.') =>
                {
                    bl.add(domain);
                }
                _ => bad += 1,
            }
        }
        (bl, bad)
    }

    /// Serialises to the hosts-file format, entries sorted.
    pub fn to_hosts_file(&self) -> String {
        let mut s = format!("# {} — {} entries\n", self.name, self.len());
        let mut sorted: Vec<&String> = self.entries.iter().collect();
        sorted.sort();
        for d in sorted {
            s.push_str("127.0.0.1\t");
            s.push_str(d);
            s.push('\n');
        }
        s
    }
}

/// Checks a domain against several feeds, returning the names of feeds
/// that list it.
pub fn check_all<'a>(feeds: &'a [Blacklist], domain: &str) -> Vec<&'a str> {
    feeds
        .iter()
        .filter(|f| f.contains(domain))
        .map(|f| f.name.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_contains_case_insensitive() {
        let mut bl = Blacklist::new("test");
        bl.add("Evil.COM");
        assert!(bl.contains("evil.com"));
        assert!(bl.contains("EVIL.com"));
        assert!(!bl.contains("good.com"));
    }

    #[test]
    fn hosts_file_round_trip() {
        let text = "# header\n127.0.0.1\tbad.com\n0.0.0.0  worse.com\n\ngarbage line\n";
        let (bl, bad) = Blacklist::from_hosts_file("hpHosts", text);
        assert_eq!(bl.len(), 2);
        assert_eq!(bad, 1);
        assert!(bl.contains("bad.com"));
        assert!(bl.contains("worse.com"));

        let text = bl.to_hosts_file();
        assert!(
            text.ends_with("127.0.0.1\tbad.com\n127.0.0.1\tworse.com\n"),
            "{text}"
        );
        let (again, bad2) = Blacklist::from_hosts_file("hpHosts", &text);
        assert_eq!(again.len(), 2);
        assert_eq!(bad2, 0);
    }

    #[test]
    fn check_all_reports_feed_names() {
        let mut a = Blacklist::new("hpHosts");
        a.add("x.com");
        let mut b = Blacklist::new("GSB");
        b.add("x.com");
        let c = Blacklist::new("Symantec");
        let feeds = vec![a, b, c];
        assert_eq!(check_all(&feeds, "x.com"), vec!["hpHosts", "GSB"]);
        assert!(check_all(&feeds, "y.com").is_empty());
    }

    #[test]
    fn suffix_match_exact_parent_and_non_match() {
        let mut bl = Blacklist::new("test");
        bl.add("evil.com");
        bl.add("bad.example.net");

        // Exact match.
        assert!(bl.contains_suffix("evil.com"));
        // Parent-suffix match at any depth.
        assert!(bl.contains_suffix("login.evil.com"));
        assert!(bl.contains_suffix("a.b.c.evil.com"));
        assert!(bl.contains_suffix("deep.bad.example.net"));
        // Non-matches: substring ≠ label suffix.
        assert!(!bl.contains_suffix("evil.com.org"));
        assert!(!bl.contains_suffix("notevil.com"));
        assert!(!bl.contains_suffix("com"));
        assert!(!bl.contains_suffix("example.net"));
        assert!(!bl.contains_suffix("good.com"));
    }

    #[test]
    fn suffix_match_is_case_insensitive() {
        let mut bl = Blacklist::new("test");
        bl.add("Evil.COM");
        assert!(bl.contains_suffix("WWW.EVIL.COM"));
        assert!(bl.contains_suffix("www.evil.com"));
    }

    #[test]
    fn suffix_match_survives_mutation_and_serde() {
        let mut bl = Blacklist::new("test");
        bl.add("first.com");
        // Probe, then mutate: the next lookup must see the new entry.
        assert!(bl.contains_suffix("x.first.com"));
        bl.add("second.net");
        assert!(bl.contains_suffix("x.second.net"));

        // Round-trip through serde: the deserialised feed matches the
        // same suffixes.
        let json = serde_json::to_string(&bl).unwrap();
        let back: Blacklist = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains_suffix("x.first.com"));
        assert!(back.contains_suffix("deep.second.net"));
        assert!(!back.contains_suffix("third.org"));
    }

    #[test]
    fn empty_feed_matches_nothing() {
        let bl = Blacklist::new("empty");
        assert!(!bl.contains_suffix("anything.com"));
    }

    #[test]
    fn rejects_nonsense_addresses() {
        let (bl, bad) = Blacklist::from_hosts_file("t", "10.0.0.1 private.com\n");
        assert_eq!(bl.len(), 0);
        assert_eq!(bad, 1);
    }
}
