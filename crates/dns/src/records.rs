//! DNS resource-record model (the subset the measurement study needs).

use serde::{Deserialize, Serialize};
use sham_punycode::DomainName;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Record types supported by the zone parser and resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum RecordType {
    A,
    Aaaa,
    Ns,
    Mx,
    Cname,
    Txt,
}

impl RecordType {
    /// Presentation-format name.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordType::A => "A",
            RecordType::Aaaa => "AAAA",
            RecordType::Ns => "NS",
            RecordType::Mx => "MX",
            RecordType::Cname => "CNAME",
            RecordType::Txt => "TXT",
        }
    }

    /// Parses a presentation-format type name (case-insensitive,
    /// allocation-free — this runs once per line in the zone scanner).
    /// The length picks the one name to compare.
    pub fn parse(s: &str) -> Option<Self> {
        let t = match (s.len(), s.as_bytes().first()) {
            (1, _) => RecordType::A,
            (2, Some(b'N' | b'n')) => RecordType::Ns,
            (2, _) => RecordType::Mx,
            (3, _) => RecordType::Txt,
            (4, _) => RecordType::Aaaa,
            (5, _) => RecordType::Cname,
            _ => return None,
        };
        s.eq_ignore_ascii_case(t.as_str()).then_some(t)
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(DomainName),
    /// Mail exchanger with preference.
    Mx {
        /// MX preference value.
        preference: u16,
        /// Exchange host.
        exchange: DomainName,
    },
    /// Canonical name alias.
    Cname(DomainName),
    /// Free-form text.
    Txt(String),
}

impl RecordData {
    /// The record type of this data.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Aaaa(_) => RecordType::Aaaa,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Txt(_) => RecordType::Txt,
        }
    }

    /// Presentation-format RDATA.
    pub fn rdata_string(&self) -> String {
        match self {
            RecordData::A(ip) => ip.to_string(),
            RecordData::Aaaa(ip) => ip.to_string(),
            RecordData::Ns(d) => format!("{d}."),
            RecordData::Mx { preference, exchange } => format!("{preference} {exchange}."),
            RecordData::Cname(d) => format!("{d}."),
            RecordData::Txt(t) => format!("\"{t}\""),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed RDATA.
    pub data: RecordData,
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.\t{}\tIN\t{}\t{}",
            self.name,
            self.ttl,
            self.data.record_type(),
            self.data.rdata_string()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Aaaa,
            RecordType::Ns,
            RecordType::Mx,
            RecordType::Cname,
            RecordType::Txt,
        ] {
            assert_eq!(RecordType::parse(t.as_str()), Some(t));
        }
        assert_eq!(RecordType::parse("SOA"), None);
        assert_eq!(RecordType::parse("a"), Some(RecordType::A));
        // Each length has one candidate name (two for length 2).
        let cases = [("ns", RecordType::Ns), ("mX", RecordType::Mx), ("cName", RecordType::Cname)];
        for (text, t) in cases {
            assert_eq!(RecordType::parse(text), Some(t));
        }
        for text in ["", "B", "NX", "MS", "AAA", "AAAAA", "TXTS", "CNAMES"] {
            assert_eq!(RecordType::parse(text), None, "{text:?}");
        }
    }

    #[test]
    fn rdata_presentation() {
        let ns = RecordData::Ns(DomainName::parse("ns1.example.com").unwrap());
        assert_eq!(ns.rdata_string(), "ns1.example.com.");
        let mx = RecordData::Mx {
            preference: 10,
            exchange: DomainName::parse("mail.example.com").unwrap(),
        };
        assert_eq!(mx.rdata_string(), "10 mail.example.com.");
        let a = RecordData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(a.rdata_string(), "192.0.2.1");
    }

    #[test]
    fn display_is_master_file_shaped() {
        let rr = ResourceRecord {
            name: DomainName::parse("example.com").unwrap(),
            ttl: 3600,
            data: RecordData::A(Ipv4Addr::new(198, 51, 100, 7)),
        };
        assert_eq!(rr.to_string(), "example.com.\t3600\tIN\tA\t198.51.100.7");
    }
}
