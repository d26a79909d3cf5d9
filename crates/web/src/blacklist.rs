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
    /// A one-bit-per-slot filter over the entries (see [`suffix_hash`]),
    /// with at least [`FILTER_BITS_PER_ENTRY`] bits per entry: a clear
    /// bit proves a name unlisted, so most suffix probes skip the set's
    /// keyed hash. Empty means no filter (a deserialized feed).
    #[serde(skip)]
    filter: Vec<u64>,
}

/// Filter bits per entry: about 6% of unlisted names pass the filter.
const FILTER_BITS_PER_ENTRY: usize = 16;

/// FNV-1a over the bytes of a name read right to left, so that one pass
/// over a name yields the hash of each of its label-suffixes in turn.
/// Only the filter uses it; membership is always the set's.
fn suffix_hash(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The hash a name starts from before its last byte.
const SUFFIX_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Blacklist {
    /// Empty feed.
    pub fn new(name: &str) -> Self {
        Blacklist {
            name: name.to_string(),
            entries: HashSet::new(),
            filter: Vec::new(),
        }
    }

    /// Adds a domain (stored lowercased).
    pub fn add(&mut self, domain: &str) {
        let domain = domain.to_ascii_lowercase();
        if self.entries.contains(&domain) {
            return;
        }
        let want = (self.entries.len() + 1) * FILTER_BITS_PER_ENTRY;
        if self.filter.len() * 64 < want {
            // Double (or start) the filter and rebuild it from the set.
            self.filter = vec![0; want.next_power_of_two().max(64) / 64 * 2];
            let listed: Vec<u64> = self.entries.iter().map(|e| Self::hash(e)).collect();
            for hash in listed {
                self.mark(hash);
            }
        }
        self.mark(Self::hash(&domain));
        self.entries.insert(domain);
    }

    /// A whole name's [`suffix_hash`].
    fn hash(name: &str) -> u64 {
        name.bytes().rev().fold(SUFFIX_HASH_SEED, suffix_hash)
    }

    /// The filter bit of `hash`: its top bits, after a multiply that
    /// spreads FNV's low-bit-heavy output.
    fn slot(&self, hash: u64) -> (usize, u64) {
        let bits = (self.filter.len() * 64).trailing_zeros();
        let at = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        (at / 64, 1 << (at % 64))
    }

    fn mark(&mut self, hash: u64) {
        let (word, bit) = self.slot(hash);
        self.filter[word] |= bit;
    }

    /// False only when no label-suffix of `domain` can be listed.
    fn may_list_a_suffix(&self, domain: &str) -> bool {
        let marked = |hash| {
            let (word, bit) = self.slot(hash);
            self.filter[word] & bit != 0
        };
        let mut hash = SUFFIX_HASH_SEED;
        for &byte in domain.as_bytes().iter().rev() {
            // `hash` now covers the suffix after this dot.
            if byte == b'.' && marked(hash) {
                return true;
            }
            hash = suffix_hash(hash, byte);
        }
        marked(hash)
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
    /// feed size — no linear iteration. The filter usually answers an
    /// unlisted name first, in one pass over its bytes.
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
        if !self.filter.is_empty() && !self.may_list_a_suffix(domain) {
            return false;
        }
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The filter never hides a listed suffix: `contains_suffix`
        /// answers like a probe of every suffix, whatever was listed
        /// (including repeats and mixed case) and whatever is asked,
        /// through every filter resize, and after a serde round trip
        /// that drops the filter.
        #[test]
        fn suffix_match_equals_probing_every_suffix(
            listed in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300),
            asked in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            let labels = ["com", "net", "evil", "Evil", "a", "b", "xn--80ak6aa92e", ""];
            let name = |pick: u64| {
                let n = 1 + (pick % 4) as usize;
                let label = |i: usize| labels[(pick >> (3 + 3 * i)) as usize % 8];
                (0..n).map(label).collect::<Vec<_>>().join(".")
            };
            let mut bl = Blacklist::new("p");
            let mut set = HashSet::new();
            for &pick in &listed {
                bl.add(&name(pick));
                set.insert(name(pick).to_ascii_lowercase());
            }
            let json = serde_json::to_string(&bl).unwrap();
            let unfiltered: Blacklist = serde_json::from_str(&json).unwrap();
            for &pick in asked.iter().chain(&listed) {
                let domain = name(pick.rotate_left(7) ^ pick);
                let lowered = domain.to_ascii_lowercase();
                let mut suffixes = vec![lowered.as_str()];
                suffixes.extend(lowered.match_indices('.').map(|(at, _)| &lowered[at + 1..]));
                let expected = suffixes.iter().any(|s| set.contains(*s));
                let answers = (bl.contains_suffix(&domain), unfiltered.contains_suffix(&domain));
                proptest::prop_assert_eq!(answers, (expected, expected), "{}", domain);
            }
        }
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
