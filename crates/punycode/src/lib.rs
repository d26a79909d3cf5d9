//! Punycode (RFC 3492) and IDNA ACE-label handling.
//!
//! IDNs travel on the wire as LDH strings: a Unicode label is transcoded
//! with the Bootstring algorithm of RFC 3492 and prefixed with the ACE
//! marker `xn--` (paper §2.1). This crate provides
//!
//! * [`bootstring`] — the raw Punycode encoder/decoder, implemented from
//!   the RFC with full overflow checking,
//! * [`ace`] — per-label `ToASCII`/`ToUnicode` with the `xn--` prefix,
//! * [`domain`] — a [`DomainName`] type: label splitting, validation,
//!   IDN detection and conversion between the Unicode and ACE forms.
//!
//! # Example
//!
//! ```
//! use sham_punycode::{ace, domain::DomainName};
//!
//! // The paper's running example: facébook.com.
//! let ascii = ace::to_ascii("facébook").unwrap();
//! assert_eq!(ascii, "xn--facbook-dya");
//! assert_eq!(ace::to_unicode(&ascii).unwrap(), "facébook");
//!
//! let d: DomainName = "xn--facbook-dya.com".parse().unwrap();
//! assert!(d.is_idn());
//! assert_eq!(d.to_unicode().unwrap(), "facébook.com");
//! ```

pub mod ace;
pub mod bootstring;
pub mod domain;

pub use ace::{to_ascii, to_unicode};
pub use bootstring::{decode, encode};
pub use domain::DomainName;

use std::fmt;

/// Errors from Punycode/IDNA processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PunycodeError {
    /// A delta overflowed the 32-bit arithmetic mandated by RFC 3492 §6.4.
    Overflow,
    /// The encoded form contains a character outside the Punycode alphabet.
    InvalidDigit(char),
    /// The input to encoding contains a non-basic code point where only
    /// basic (ASCII) code points are allowed.
    NonBasic(char),
    /// Decoding produced a code point outside the Unicode scalar range.
    InvalidCodePoint(u32),
    /// The label is empty.
    EmptyLabel,
    /// The label exceeds 63 octets in ACE form (RFC 5890 §2.3.1).
    LabelTooLong(usize),
    /// The full domain name exceeds 253 octets.
    NameTooLong(usize),
    /// An `xn--` label did not decode to any non-ASCII character, or its
    /// round-trip re-encoding disagrees (a "fake" ACE label).
    NotAcePrefixed,
}

impl fmt::Display for PunycodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PunycodeError::Overflow => write!(f, "punycode delta overflow"),
            PunycodeError::InvalidDigit(c) => write!(f, "invalid punycode digit {c:?}"),
            PunycodeError::NonBasic(c) => write!(f, "non-basic code point {c:?} in basic string"),
            PunycodeError::InvalidCodePoint(v) => write!(f, "invalid code point U+{v:X}"),
            PunycodeError::EmptyLabel => write!(f, "empty label"),
            PunycodeError::LabelTooLong(n) => write!(f, "label is {n} octets (max 63)"),
            PunycodeError::NameTooLong(n) => write!(f, "name is {n} octets (max 253)"),
            PunycodeError::NotAcePrefixed => write!(f, "not a valid ACE (xn--) label"),
        }
    }
}

impl std::error::Error for PunycodeError {}

/// Collects decoded code points into a string. The decoder emits only
/// Unicode scalar values, so the error is for code points from elsewhere.
pub(crate) fn collect_chars(code_points: &[u32]) -> Result<String, PunycodeError> {
    code_points
        .iter()
        .map(|&v| char::from_u32(v).ok_or(PunycodeError::InvalidCodePoint(v)))
        .collect()
}
