//! ACE (ASCII-Compatible Encoding) label conversion.
//!
//! A Unicode label becomes an ACE label by Punycode-encoding it and
//! prepending `xn--` (RFC 5890). Pure-ASCII labels pass through unchanged
//! (lowercased, since DNS is case-insensitive).

use crate::{bootstring, PunycodeError};

/// The ACE prefix marking an encoded label.
pub const ACE_PREFIX: &str = "xn--";

/// Maximum length of a DNS label in octets.
pub const MAX_LABEL_OCTETS: usize = 63;

/// True when the label (in either form) is an IDN label, i.e. carries the
/// ACE prefix or contains non-ASCII characters.
pub fn is_idn_label(label: &str) -> bool {
    label.starts_with(ACE_PREFIX) || !label.is_ascii()
}

/// Converts a single Unicode label to its ACE form.
///
/// ASCII labels are lowercased and returned as-is; non-ASCII labels are
/// lowercased (simple case folding), Punycode encoded and `xn--` prefixed.
/// The result is checked against the 63-octet DNS label limit.
pub fn to_ascii(label: &str) -> Result<String, PunycodeError> {
    if label.is_empty() {
        return Err(PunycodeError::EmptyLabel);
    }
    let folded: String = label.chars().flat_map(|c| c.to_lowercase()).collect();
    let out = if folded.is_ascii() {
        folded
    } else {
        let mut s = String::from(ACE_PREFIX);
        s.push_str(&bootstring::encode(&folded)?);
        s
    };
    if out.len() > MAX_LABEL_OCTETS {
        return Err(PunycodeError::LabelTooLong(out.len()));
    }
    Ok(out)
}

/// Converts a single label to its Unicode form.
///
/// Labels without the ACE prefix are returned unchanged. Prefixed labels
/// are decoded; a prefixed label that decodes to pure ASCII or fails to
/// round-trip is rejected (RFC 5891's "check hyphens / check ACE" spirit:
/// such labels are spoofing vectors themselves).
pub fn to_unicode(label: &str) -> Result<String, PunycodeError> {
    let mut code_points = Vec::with_capacity(label.len());
    to_unicode_into(label, &mut code_points)?;
    crate::collect_chars(&code_points)
}

/// [`to_unicode`] as code points appended to `out`: the
/// allocation-free form once `out` has room.
///
/// The label is read ASCII-lowercased, so ASCII letters come out
/// lowercase. A prefixed label must decode to at least one non-ASCII
/// code point and re-encode to exactly its own (lowercased) Punycode;
/// the re-encoding is compared byte by byte, without a buffer. On error
/// `out` is left as it was.
pub fn to_unicode_into(label: &str, out: &mut Vec<u32>) -> Result<(), PunycodeError> {
    if label.is_empty() {
        return Err(PunycodeError::EmptyLabel);
    }
    let lower = |c: u32| u8::try_from(c).map_or(c, |b| u32::from(b.to_ascii_lowercase()));
    let encoded = match label.get(..ACE_PREFIX.len()) {
        Some(prefix) if prefix.eq_ignore_ascii_case(ACE_PREFIX) => &label[ACE_PREFIX.len()..],
        _ => {
            out.extend(label.chars().map(|c| lower(u32::from(c))));
            return Ok(());
        }
    };
    let start = out.len();
    bootstring::decode_into(encoded, out)?;
    let decoded = &mut out[start..];
    // Digits are case-insensitive and inserted code points are not
    // ASCII, so this equals decoding the lowercased label.
    for c in decoded.iter_mut() {
        *c = lower(*c);
    }
    // Round-trip check: re-encoding must reproduce the input exactly,
    // otherwise the ACE form is not canonical.
    let result = if decoded.iter().all(|&c| c < 0x80) {
        Err(PunycodeError::NotAcePrefixed)
    } else {
        match bootstring::encodes_to(decoded, encoded.as_bytes()) {
            Ok(true) => Ok(()),
            Ok(false) => Err(PunycodeError::NotAcePrefixed),
            Err(e) => Err(e),
        }
    };
    if result.is_err() {
        out.truncate(start);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_label_passes_through_lowercased() {
        assert_eq!(to_ascii("Google").unwrap(), "google");
        assert_eq!(to_unicode("GOOGLE").unwrap(), "google");
    }

    #[test]
    fn idn_label_round_trip() {
        let ace = to_ascii("münchen").unwrap();
        assert!(ace.starts_with(ACE_PREFIX));
        assert_eq!(to_unicode(&ace).unwrap(), "münchen");
    }

    #[test]
    fn paper_alibaba_example() {
        assert_eq!(to_ascii("阿里巴巴").unwrap(), "xn--tsta8290bfzd");
        assert_eq!(to_unicode("xn--tsta8290bfzd").unwrap(), "阿里巴巴");
    }

    #[test]
    fn uppercase_unicode_is_folded() {
        assert_eq!(to_ascii("MÜNCHEN").unwrap(), to_ascii("münchen").unwrap());
    }

    #[test]
    fn fake_ace_label_rejected() {
        // Decodes to ASCII only — not a legitimate IDN label.
        assert_eq!(to_unicode("xn--abc-"), Err(PunycodeError::NotAcePrefixed));
    }

    #[test]
    fn non_canonical_ace_rejected() {
        // Mixed-case digits decode but re-encode differently... actually
        // digits are case-folded first, so craft a non-shortest form by
        // corrupting a known-good encoding's trailing digit.
        let good = to_ascii("bücher").unwrap(); // xn--bcher-kva
        let mut bad = good.clone();
        bad.pop();
        bad.push('b'); // xn--bcher-kvb decodes to a different char; must round-trip or fail
        if let Ok(s) = to_unicode(&bad) {
            assert_ne!(s, "bücher");
        }
    }

    #[test]
    fn empty_labels_rejected() {
        assert_eq!(to_ascii(""), Err(PunycodeError::EmptyLabel));
        assert_eq!(to_unicode(""), Err(PunycodeError::EmptyLabel));
    }

    #[test]
    fn long_label_rejected() {
        let long = "ü".repeat(80);
        assert!(matches!(to_ascii(&long), Err(PunycodeError::LabelTooLong(_))));
    }

    #[test]
    fn is_idn_label_detection() {
        assert!(is_idn_label("xn--bcher-kva"));
        assert!(is_idn_label("bücher"));
        assert!(!is_idn_label("books"));
    }

    /// `xn--` labels that decode to ASCII, fail the round trip,
    /// overflow or hold invalid digits are refused with the buffer left
    /// as it was; the prefix and digits are read case-insensitively.
    #[test]
    fn to_unicode_into_refuses_bad_ace_labels_and_keeps_the_buffer() {
        let kept = [u32::from('a'), u32::from('.')];
        let mut out = kept.to_vec();
        for (label, error) in [
            ("xn--abc-", PunycodeError::NotAcePrefixed),
            ("xn---tda", PunycodeError::NotAcePrefixed),
            ("xn--bcher-kvb-", PunycodeError::NotAcePrefixed),
            ("xn--99999999999", PunycodeError::Overflow),
            ("XN--ab!c", PunycodeError::InvalidDigit('!')),
            ("xn--b\u{FC}-kva", PunycodeError::NonBasic('\u{FC}')),
            ("", PunycodeError::EmptyLabel),
        ] {
            assert_eq!(to_unicode_into(label, &mut out), Err(error), "{label:?}");
            assert_eq!(out, kept, "{label:?} touched the buffer");
        }
        to_unicode_into("Xn--BCHER-kva", &mut out).unwrap();
        let bucher: Vec<u32> = "bücher".chars().map(u32::from).collect();
        assert_eq!(out[2..], bucher);
        to_unicode_into("Plain", &mut out).unwrap();
        assert_eq!(out[8..], [0x70, 0x6C, 0x61, 0x69, 0x6E]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `to_ascii` then `to_unicode_into` gives back the code points of
        /// any lowercase label (an ASCII label that already reads `xn--…`
        /// is an ACE label itself, so it is left out).
        #[test]
        fn to_ascii_then_to_unicode_into_round_trips(
            raw in "\\PC{1,24}",
            kept in proptest::collection::vec(0u32..0x80, 0..4),
        ) {
            let label: String = raw.chars().flat_map(char::to_lowercase).collect();
            proptest::prop_assume!(!(label.is_ascii() && label.starts_with(ACE_PREFIX)));
            let Ok(ace) = to_ascii(&label) else { return Ok(()) }; // over 63 octets
            let mut out = kept.clone();
            to_unicode_into(&ace, &mut out).unwrap();
            let expected: Vec<u32> = kept.iter().copied().chain(label.chars().map(u32::from)).collect();
            proptest::prop_assert_eq!(out, expected);
        }

        /// An arbitrary `xn--` label either decodes to a non-ASCII label
        /// whose Punycode is exactly the (lowercased) input, or is refused
        /// with the buffer left as it was.
        #[test]
        fn ace_labels_decode_canonically_or_leave_the_buffer(body in "[ -~]{0,24}") {
            let label = format!("xn--{body}");
            let mut out = vec![7, 8];
            match to_unicode_into(&label, &mut out) {
                Ok(()) => {
                    let decoded: String =
                        out[2..].iter().map(|&c| char::from_u32(c).unwrap()).collect();
                    proptest::prop_assert!(!decoded.is_ascii());
                    let punycode = bootstring::encode(&decoded).unwrap();
                    proptest::prop_assert_eq!(punycode, body.to_ascii_lowercase());
                }
                Err(_) => proptest::prop_assert_eq!(out, vec![7, 8]),
            }
        }
    }
}
