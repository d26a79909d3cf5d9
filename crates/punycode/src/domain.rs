//! Domain-name type shared by the whole workspace.
//!
//! A [`DomainName`] is a validated, lowercased, dot-separated sequence of
//! labels in wire (ACE) form. The framework's Step 2 — extracting IDNs
//! from a zone by looking for the `xn--` prefix (paper §3.1) — and the
//! TLD-stripping used by Algorithm 1 both live here.

use crate::{ace, PunycodeError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Maximum total length of a domain name in octets (RFC 1035 presentation
/// form without the trailing dot).
pub const MAX_NAME_OCTETS: usize = 253;

/// A validated domain name held in ACE (wire) form.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DomainName {
    ascii: String,
}

impl Clone for DomainName {
    fn clone(&self) -> Self {
        DomainName {
            ascii: self.ascii.clone(),
        }
    }

    /// Copies `source` into `self`'s buffer: no allocation once the
    /// buffer has room (the zone scanner's reused owner slots).
    fn clone_from(&mut self, source: &Self) {
        self.ascii.clone_from(&source.ascii);
    }
}

impl DomainName {
    /// Parses a domain name given in either Unicode or ACE form.
    ///
    /// Labels are individually converted with [`ace::to_ascii`]; the result
    /// is validated against DNS length limits. A single trailing dot
    /// (root) is accepted and dropped. This is
    /// [`resolve`](Self::resolve) with no origin.
    pub fn parse(input: &str) -> Result<Self, PunycodeError> {
        Self::resolve(input, None)
    }

    /// Like [`resolve_into`](Self::resolve_into), into a new name.
    pub fn resolve(token: &str, origin: Option<&str>) -> Result<Self, PunycodeError> {
        let capacity = token.len() + origin.map_or(0, |o| o.len() + 1);
        let mut name = DomainName { ascii: String::with_capacity(capacity.min(MAX_NAME_OCTETS)) };
        name.resolve_into(token, origin)?;
        Ok(name)
    }

    /// Resolves a name into `self`, reusing its buffer: the one validator
    /// behind [`parse`](Self::parse) and zone-file name resolution.
    ///
    /// With no `origin`, `token` is a whole name, as in `parse`. With an
    /// origin, `token` is in RFC 1035 presentation form: `@` is the
    /// origin, a token ending in `.` is absolute (that dot is dropped),
    /// and any other token is relative to the origin (or the whole name
    /// when the origin is empty). In both cases one trailing dot of the
    /// resulting name is then dropped, and the labels are checked left to
    /// right before the total length.
    ///
    /// An all-ASCII name, the common case, is checked in one pass and
    /// then written in place, lowercased; resolving it allocates nothing
    /// once the buffer has room for it. A name with a non-ASCII label
    /// takes that label through [`ace::to_ascii`] and is written after
    /// the old name, which is then shifted out. Either way, on error
    /// `self` is left as it was.
    pub fn resolve_into(&mut self, token: &str, origin: Option<&str>) -> Result<(), PunycodeError> {
        // The name is `head`, or `head.tail` for a relative token under
        // a non-empty origin.
        let (head, tail) = match origin {
            None => (token, None),
            Some(origin) if token == "@" => (origin, None),
            Some(origin) if !origin.is_empty() && !token.ends_with('.') => (token, Some(origin)),
            Some(_) => (token.strip_suffix('.').unwrap_or(token), None),
        };
        // Then, as for a whole name, one trailing dot (the root) goes.
        let (head, tail) = match tail {
            Some(tail) => (head, Some(tail.strip_suffix('.').unwrap_or(tail))),
            None => (head.strip_suffix('.').unwrap_or(head), None),
        };
        if head.is_empty() && tail.is_none() {
            return Err(PunycodeError::EmptyLabel);
        }
        if ascii_labels(head)? && tail.map_or(Ok(true), ascii_labels)? {
            let len = head.len() + tail.map_or(0, |tail| tail.len() + 1);
            if len > MAX_NAME_OCTETS {
                return Err(PunycodeError::NameTooLong(len));
            }
            self.ascii.clear();
            self.ascii.push_str(head);
            if let Some(tail) = tail {
                self.ascii.push('.');
                self.ascii.push_str(tail);
            }
            self.ascii.make_ascii_lowercase();
            return Ok(());
        }
        // Write after the current name, so an error can truncate back to
        // it; on success the old name is shifted out.
        let start = self.ascii.len();
        let labels = head.split('.').chain(tail.into_iter().flat_map(|t| t.split('.')));
        match push_labels(&mut self.ascii, start, labels) {
            Ok(()) => {
                self.ascii.replace_range(..start, "");
                Ok(())
            }
            Err(e) => {
                self.ascii.truncate(start);
                Err(e)
            }
        }
    }

    /// The full name in ACE form (`xn--…` labels, lowercase).
    pub fn as_ascii(&self) -> &str {
        &self.ascii
    }

    /// Iterates the labels in ACE form, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.ascii.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The rightmost label (the TLD), e.g. `com`.
    pub fn tld(&self) -> &str {
        self.ascii.rfind('.').map_or(&self.ascii, |dot| &self.ascii[dot + 1..])
    }

    /// Everything left of the TLD, or `None` for a bare TLD.
    ///
    /// Algorithm 1 operates on names with "the TLD part removed"; this is
    /// that projection, still in ACE form.
    pub fn without_tld(&self) -> Option<&str> {
        self.ascii.rfind('.').map(|pos| &self.ascii[..pos])
    }

    /// The registrable second-level label (the label left of the TLD),
    /// e.g. `google` for `www.google.com`.
    pub fn sld(&self) -> Option<&str> {
        let labels: Vec<&str> = self.labels().collect();
        if labels.len() >= 2 {
            Some(labels[labels.len() - 2])
        } else {
            None
        }
    }

    /// True when any label carries the ACE prefix — the framework's IDN
    /// extraction predicate (paper Step 2).
    pub fn is_idn(&self) -> bool {
        let name = self.ascii.as_bytes();
        let prefix = ace::ACE_PREFIX.as_bytes();
        name.starts_with(prefix)
            || name
                .windows(prefix.len() + 1)
                .any(|w| w[0] == b'.' && &w[1..] == prefix)
    }

    /// Converts every label to its Unicode form.
    pub fn to_unicode(&self) -> Result<String, PunycodeError> {
        let mut code_points = Vec::with_capacity(self.ascii.len());
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                code_points.push(u32::from('.'));
            }
            ace::to_unicode_into(label, &mut code_points)?;
        }
        crate::collect_chars(&code_points)
    }

    /// Unicode form of the name with the TLD removed — the exact string
    /// Algorithm 1 compares. Falls back to the ACE form for labels that
    /// fail to decode (defensive: zone files contain garbage `xn--` labels).
    /// A wrapper over [`unicode_stem_into`].
    pub fn unicode_without_tld(&self) -> Option<String> {
        let mut code_points = Vec::with_capacity(self.ascii.len());
        if !unicode_stem_into(&self.ascii, &mut code_points) {
            return None;
        }
        crate::collect_chars(&code_points).ok()
    }
}

/// Appends the Unicode stem of the ACE name `ascii` — everything left
/// of its last dot — to `out` as code points: the allocation-free form
/// of [`DomainName::unicode_without_tld`] once `out` has room. Each
/// label goes through [`ace::to_unicode_into`], and a label that fails
/// to decode is appended in its ACE form; labels are joined with `.`.
/// Returns `false`, leaving `out` as it was, for a bare TLD (no dot).
pub fn unicode_stem_into(ascii: &str, out: &mut Vec<u32>) -> bool {
    let Some(dot) = ascii.rfind('.') else {
        return false;
    };
    for (i, label) in ascii[..dot].split('.').enumerate() {
        if i > 0 {
            out.push(u32::from('.'));
        }
        if ace::to_unicode_into(label, out).is_err() {
            out.extend(label.chars().map(u32::from));
        }
    }
    true
}

/// Checks the labels of `part` left to right as [`push_labels`] checks
/// ASCII labels: `Ok(true)` when all of them are ASCII and valid, and
/// `Ok(false)` when a non-ASCII byte turns up before any error, so that
/// `push_labels` must decide.
fn ascii_labels(part: &str) -> Result<bool, PunycodeError> {
    let mut label = 0;
    for &b in part.as_bytes() {
        if b == b'.' {
            ascii_label_len(label)?;
            label = 0;
        } else if b.is_ascii() {
            label += 1;
        } else {
            return Ok(false);
        }
    }
    ascii_label_len(label)?;
    Ok(true)
}

/// The length rule for an ASCII label: 1 to 63 octets.
fn ascii_label_len(len: usize) -> Result<(), PunycodeError> {
    match len {
        0 => Err(PunycodeError::EmptyLabel),
        1..=ace::MAX_LABEL_OCTETS => Ok(()),
        _ => Err(PunycodeError::LabelTooLong(len)),
    }
}

/// Appends `labels` in ACE form, dot-separated, to `out[start..]`.
///
/// Stops writing once the name is over [`MAX_NAME_OCTETS`] but keeps
/// checking labels, so an earlier label error still wins over
/// [`PunycodeError::NameTooLong`] and the error carries the full length.
fn push_labels<'a>(
    out: &mut String,
    start: usize,
    labels: impl Iterator<Item = &'a str>,
) -> Result<(), PunycodeError> {
    let mut len = 0;
    for label in labels {
        let encoded;
        let ace = if label.is_ascii() {
            ascii_label_len(label.len())?;
            label
        } else {
            encoded = ace::to_ascii(label)?;
            &encoded
        };
        if len > 0 {
            len += 1;
        }
        len += ace.len();
        if len <= MAX_NAME_OCTETS {
            if out.len() > start {
                out.push('.');
            }
            let at = out.len();
            out.push_str(ace);
            out[at..].make_ascii_lowercase();
        }
    }
    if len > MAX_NAME_OCTETS {
        return Err(PunycodeError::NameTooLong(len));
    }
    Ok(())
}

impl FromStr for DomainName {
    type Err = PunycodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ascii)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ascii_name() {
        let d = DomainName::parse("WWW.Google.COM").unwrap();
        assert_eq!(d.as_ascii(), "www.google.com");
        assert_eq!(d.tld(), "com");
        assert_eq!(d.sld(), Some("google"));
        assert_eq!(d.without_tld(), Some("www.google"));
        assert!(!d.is_idn());
    }

    #[test]
    fn parse_unicode_name_encodes_labels() {
        let d = DomainName::parse("阿里巴巴.com").unwrap();
        assert_eq!(d.as_ascii(), "xn--tsta8290bfzd.com");
        assert!(d.is_idn());
        assert_eq!(d.to_unicode().unwrap(), "阿里巴巴.com");
    }

    #[test]
    fn parse_ace_name_detects_idn() {
        let d = DomainName::parse("xn--facbook-dya.com").unwrap();
        assert!(d.is_idn());
        assert_eq!(d.unicode_without_tld().unwrap(), "facébook");
    }

    #[test]
    fn trailing_root_dot_accepted() {
        let d = DomainName::parse("example.com.").unwrap();
        assert_eq!(d.as_ascii(), "example.com");
    }

    #[test]
    fn empty_and_dotted_rejected() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse(".").is_err());
        assert!(DomainName::parse("a..b").is_err());
    }

    #[test]
    fn bare_tld_has_no_stem() {
        let d = DomainName::parse("com").unwrap();
        assert_eq!(d.without_tld(), None);
        assert_eq!(d.sld(), None);
        assert_eq!(d.tld(), "com");
        let ace = DomainName::parse("xn--p1ai").unwrap();
        assert_eq!(ace.tld(), "xn--p1ai");
        assert!(ace.is_idn());
        assert_eq!(ace.unicode_without_tld(), None);
        let inner = DomainName::parse("axn--b.shop-xn--c.com").unwrap();
        assert!(!inner.is_idn(), "xn-- inside a label is not a prefix");
    }

    #[test]
    fn name_length_limit() {
        let label = "a".repeat(60);
        let long = format!("{label}.{label}.{label}.{label}.{label}");
        assert!(matches!(
            DomainName::parse(&long),
            Err(PunycodeError::NameTooLong(_))
        ));
    }

    #[test]
    fn garbage_ace_label_survives_unicode_projection() {
        // "xn--zzzzz" may not decode; unicode_without_tld must not panic.
        let d = DomainName::parse("xn--a.com");
        if let Ok(d) = d {
            let _ = d.unicode_without_tld();
        }
    }

    /// A stem's labels decode one by one: a label that fails (a
    /// non-canonical `ü`, an `xn--` label that decodes to ASCII, an
    /// overflow) falls back to its ACE form alone, and the good labels
    /// around it still decode.
    #[test]
    fn only_the_bad_label_of_a_stem_falls_back() {
        let name = "xn--ggle-55da.xn---tda.xn--abc-.xn--99999999999.xn--bcher-kva.com";
        let d = DomainName::parse(name).unwrap();
        let stem = "g\u{43E}\u{43E}gle.xn---tda.xn--abc-.xn--99999999999.bücher";
        assert_eq!(d.unicode_without_tld().unwrap(), stem);
        let mut out = vec![u32::from('!')];
        assert!(unicode_stem_into(d.as_ascii(), &mut out));
        let expected: Vec<u32> = "!".chars().chain(stem.chars()).map(u32::from).collect();
        assert_eq!(out, expected);
        assert!(
            !unicode_stem_into("xn--p1ai", &mut out),
            "a bare TLD has no stem"
        );
        assert_eq!(out, expected);
        assert_eq!(d.to_unicode(), Err(PunycodeError::NotAcePrefixed));
    }

    /// `DomainName::parse` as it was written before the resolver: one
    /// `to_ascii` `String` per label, then a `join`. Kept as the oracle
    /// the resolver must agree with.
    fn oracle_parse(input: &str) -> Result<String, PunycodeError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(PunycodeError::EmptyLabel);
        }
        let mut labels = Vec::new();
        for raw in trimmed.split('.') {
            labels.push(ace::to_ascii(raw)?);
        }
        let ascii = labels.join(".");
        if ascii.len() > MAX_NAME_OCTETS {
            return Err(PunycodeError::NameTooLong(ascii.len()));
        }
        Ok(ascii)
    }

    /// Master-file resolution as it was written before the resolver: the
    /// full name built with `format!`, then the oracle parse.
    fn oracle_resolve(token: &str, origin: &str) -> Result<String, PunycodeError> {
        let full = if token == "@" {
            origin.to_string()
        } else if let Some(absolute) = token.strip_suffix('.') {
            absolute.to_string()
        } else if origin.is_empty() {
            token.to_string()
        } else {
            format!("{token}.{origin}")
        };
        oracle_parse(&full)
    }

    /// Resolves `token` into the reused `name` and checks the outcome
    /// against `expected`: the same name, or the same error with `name`
    /// unchanged.
    fn check_into(
        name: &mut DomainName,
        token: &str,
        origin: Option<&str>,
        expected: Result<String, PunycodeError>,
    ) -> Result<(), String> {
        let before = name.clone();
        let got = name.resolve_into(token, origin).map(|()| name.as_ascii().to_string());
        if got != expected {
            return Err(format!("{token:?} under {origin:?}: got {got:?}, want {expected:?}"));
        }
        if got.is_err() && *name != before {
            return Err(format!("{token:?} under {origin:?} clobbered {before} with {name}"));
        }
        Ok(())
    }

    const ORIGINS: [&str; 7] = ["", "com", "Com", "com.", ".", "a\u{A0}b", "xn--p1ai"];

    /// A name of `lens.len()` labels of the given lengths, cased by the
    /// bits of `case`.
    fn sized_name(lens: &[usize], case: u64) -> String {
        let labels: Vec<String> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| if case >> (i % 64) & 1 == 1 { "A" } else { "b" }.repeat(n))
            .collect();
        labels.join(".")
    }

    #[test]
    fn resolver_keeps_parse_edge_cases() {
        let key = DomainName::resolve("\u{212A}ey", Some("com")).unwrap();
        assert_eq!(key.as_ascii(), "key.com");
        assert_eq!(DomainName::parse("a\u{A0}b").unwrap().as_ascii(), "xn--ab-1ca");
        assert_eq!(DomainName::resolve("foo..", Some("com")).unwrap().as_ascii(), "foo");
        assert_eq!(DomainName::parse("foo.."), Err(PunycodeError::EmptyLabel));
        assert_eq!(DomainName::resolve("@.", Some("com")).unwrap().as_ascii(), "@");
        assert_eq!(DomainName::resolve("@", Some("")), Err(PunycodeError::EmptyLabel));
        assert_eq!(DomainName::resolve("@", Some("Com.")).unwrap().as_ascii(), "com");
        assert_eq!(DomainName::resolve("Foo", Some("Com")).unwrap().as_ascii(), "foo.com");

        let label63 = "a".repeat(63);
        assert!(DomainName::parse(&label63).is_ok());
        let label64 = "a".repeat(64);
        assert_eq!(DomainName::parse(&label64), Err(PunycodeError::LabelTooLong(64)));
        // Three 63-octet labels, a 61-octet one and three dots make 253
        // octets; one more is 254.
        let name253 = sized_name(&[63, 63, 63, 61], 0b1010);
        assert_eq!(name253.len(), 253);
        assert_eq!(DomainName::parse(&name253).unwrap().as_ascii(), name253.to_lowercase());
        let name254 = sized_name(&[63, 63, 63, 62], 0);
        assert_eq!(DomainName::parse(&name254), Err(PunycodeError::NameTooLong(254)));
        // Token labels are checked before origin labels, and a bad label
        // anywhere wins over the total length.
        let long = format!("{name254}.{label64}");
        assert_eq!(DomainName::parse(&long), Err(PunycodeError::LabelTooLong(64)));
        let resolve = |token: &str, origin: &str| DomainName::resolve(token, Some(origin));
        assert_eq!(resolve(&label64, "a..b"), Err(PunycodeError::LabelTooLong(64)));
        assert_eq!(resolve("a..b", &label64), Err(PunycodeError::EmptyLabel));
    }

    #[test]
    fn resolve_into_reuses_its_buffer_and_survives_errors() {
        let mut name = DomainName::parse("seed.com").unwrap();
        for (token, origin) in [
            ("Alpha", "com"),
            ("..bad..", "com"),
            ("beta.Net.", "com"),
            ("@", ""),
            ("\u{212A}ey", "org"),
            ("@", "Com."),
        ] {
            check_into(&mut name, token, Some(origin), oracle_resolve(token, origin)).unwrap();
        }
        assert_eq!(name.as_ascii(), "com");
        let capacity = name.ascii.capacity();
        name.resolve_into("short", Some("com")).unwrap();
        assert_eq!(name.ascii.capacity(), capacity, "an ASCII resolve reallocated");
        let mut slot = DomainName::parse("a-longer-name.example").unwrap();
        let capacity = slot.ascii.capacity();
        slot.clone_from(&name);
        assert_eq!(slot, name);
        assert_eq!(slot.ascii.capacity(), capacity, "clone_from reallocated");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The resolver makes the oracle's decision on arbitrary strings
        /// and on a dot-heavy, mixed-case alphabet with `@`, U+212A and
        /// U+00A0: the same name or the same error, whole or under an
        /// origin, and an error leaves the reused target as it was.
        #[test]
        fn resolver_matches_the_oracle(
            any_text in "\\PC{0,80}",
            dotted in "[aB.\u{212A}\u{A0}@-]{0,80}",
            pick in proptest::prelude::any::<u64>(),
        ) {
            let mut name = DomainName::parse("prev.example").unwrap();
            for token in [any_text.as_str(), dotted.as_str()] {
                let origin = ORIGINS[pick as usize % ORIGINS.len()];
                let result = check_into(&mut name, token, None, oracle_parse(token))
                    .and_then(|()| {
                        check_into(&mut name, token, Some(origin), oracle_resolve(token, origin))
                    })
                    .and_then(|()| {
                        check_into(&mut name, origin, Some(token), oracle_resolve(origin, token))
                    });
                proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
            }
        }

        /// `tld()` and `is_idn()` keep their label definitions: the last
        /// `.`-separated label, and any label starting with `xn--`. The
        /// alphabet makes `xn--` inside labels, after dots and as a
        /// bare TLD common.
        #[test]
        fn tld_and_is_idn_follow_the_labels(text in "(xn--|xn-|x|n|-|a|0|\\.){1,24}") {
            let Ok(d) = DomainName::parse(&text) else { return Ok(()) };
            let labels: Vec<&str> = d.as_ascii().split('.').collect();
            proptest::prop_assert_eq!(d.tld(), *labels.last().unwrap());
            let idn = labels.iter().any(|l| l.starts_with(ace::ACE_PREFIX));
            proptest::prop_assert_eq!(d.is_idn(), idn, "{}", d);
        }

        /// Names around the 63-octet label and 253-octet name limits.
        #[test]
        fn resolver_matches_the_oracle_at_the_limits(
            lens in proptest::collection::vec(56usize..66, 1..7),
            case in proptest::prelude::any::<u64>(),
            absolute in 0u8..2,
        ) {
            let mut name = DomainName::parse("prev.example").unwrap();
            let mut text = sized_name(&lens, case);
            if absolute == 1 {
                text.push('.');
            }
            let (token, origin) = text.split_at(text.find('.').unwrap_or(text.len()));
            let origin = origin.strip_prefix('.').unwrap_or(origin);
            let result = check_into(&mut name, &text, None, oracle_parse(&text))
                .and_then(|()| {
                    check_into(&mut name, token, Some(origin), oracle_resolve(token, origin))
                });
            proptest::prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }
}
