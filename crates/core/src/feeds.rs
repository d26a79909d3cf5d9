//! The byte-stream [`FeedSource`]: zone master-file text straight off
//! a `Read` transport.
//!
//! This is the "bytes off the wire" half of the ingest front-end (the
//! other half being replay feeds over pre-parsed [`IngestEvent`]s, e.g.
//! the fault harness in `sham_workload`). It keeps the robustness
//! contract of [`FeedSource`]:
//!
//! * a record that fails to *parse* becomes [`FeedItem::Malformed`] —
//!   quarantined by the connector, never fatal, and never
//!   desynchronising (line framing survives a bad payload);
//! * an I/O error becomes a typed [`FeedError`]
//!   ([`std::io::ErrorKind::WouldBlock`]/`TimedOut` → [`FeedError::Stall`],
//!   reset/aborted/broken-pipe/unexpected-EOF → [`FeedError::Disconnect`],
//!   anything else → [`FeedError::Io`]) and the feed stays resumable:
//!   buffered bytes are kept and the next pull continues where the
//!   transport left off.
//!
//! [`ZoneTextFeed`] runs the zone scanner's line stage, so a zone file
//! registers the same owners whether `scan-zone` or the ingest service
//! reads it: one [`IngestEvent::Registered`] per owner that survives
//! the consecutive and window dedup (zone files list each newly
//! registered name as a run of records, and the detection pipeline
//! wants names, not records).

use crate::ingest::{FeedError, FeedItem, FeedSource, IngestEvent};
use crate::scan::{LineStage, StageItem, DEFAULT_DEDUP_WINDOW};
use std::collections::VecDeque;
use std::io::Read;

/// Chunk size per transport read.
const READ_CHUNK: usize = 4_096;

/// Maps an I/O error to the retry taxonomy.
fn map_io(error: &std::io::Error) -> FeedError {
    use std::io::ErrorKind;
    match error.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FeedError::Stall,
        ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::UnexpectedEof => FeedError::Disconnect(error.to_string()),
        _ => FeedError::Io(error.to_string()),
    }
}

/// A master-file zone feed over any byte transport: reads chunks and
/// pushes them through the zone scanner's line stage, which carries a
/// partial line across reads (and across transport errors), quarantines
/// malformed and non-UTF-8 lines, and drops repeated owners with the
/// scanner's dedup window ([`DEFAULT_DEDUP_WINDOW`] owners, no
/// blacklist).
pub struct ZoneTextFeed<R> {
    name: String,
    reader: R,
    stage: LineStage,
    /// Parsed items awaiting delivery.
    pending: VecDeque<FeedItem>,
    eof: bool,
}

impl<R: Read + Send> ZoneTextFeed<R> {
    /// A feed named `name` (reports/quarantine) parsing relative names
    /// against `origin`.
    pub fn new(name: impl Into<String>, origin: &str, reader: R) -> Self {
        ZoneTextFeed {
            name: name.into(),
            reader,
            stage: LineStage::new(origin, DEFAULT_DEDUP_WINDOW, Vec::new()),
            pending: VecDeque::new(),
            eof: false,
        }
    }
}

impl<R: Read + Send> FeedSource for ZoneTextFeed<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self) -> Result<Option<FeedItem>, FeedError> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Ok(Some(item));
            }
            if self.eof {
                return Ok(None);
            }
            let pending = &mut self.pending;
            let mut sink = |item: StageItem<'_>| {
                pending.push_back(match item {
                    StageItem::Owner(owner) => {
                        FeedItem::Event(IngestEvent::Registered(owner.clone()))
                    }
                    StageItem::Quarantined(error) => FeedItem::Malformed(error.to_string()),
                })
            };
            let mut chunk = [0u8; READ_CHUNK];
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    self.stage.finish(&mut sink);
                }
                Ok(n) => self.stage.push(&chunk[..n], &mut sink),
                // The stage keeps the partial line: the feed resumes
                // mid-line after the connector's backoff.
                Err(error) => return Err(map_io(&error)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(feed: &mut dyn FeedSource) -> (Vec<String>, Vec<String>) {
        let mut registered = Vec::new();
        let mut malformed = Vec::new();
        while let Some(item) = feed.next().expect("in-memory feeds never error") {
            match item {
                FeedItem::Event(IngestEvent::Registered(d)) => {
                    registered.push(d.as_ascii().to_string())
                }
                FeedItem::Event(_) => {}
                FeedItem::Malformed(why) => malformed.push(why),
            }
        }
        (registered, malformed)
    }

    #[test]
    fn zone_text_feed_parses_dedups_and_quarantines() {
        let text = b"$ORIGIN com.\n\
                     google IN NS ns1.google.com.\n\
                     google IN NS ns2.google.com.\n\
                     broken IN A not-an-ip\n\
                     xn--ggle-55da 60 IN A 192.0.2.7\n\
                     tail IN NS ns.final.example.";
        let mut feed = ZoneTextFeed::new("zone", "com", &text[..]);
        let (registered, malformed) = names(&mut feed);
        // Two NS records, one owner; the final unterminated line still
        // parses at EOF.
        assert_eq!(registered, ["google.com", "xn--ggle-55da.com", "tail.com"]);
        assert_eq!(malformed.len(), 1);
        assert!(malformed[0].contains("bad IPv4"), "{}", malformed[0]);
        assert!(matches!(feed.next(), Ok(None)), "EOF is sticky");
    }

    /// Hands out `step` bytes per read, stalling before every read.
    struct StallingReader<'a> {
        data: &'a [u8],
        step: usize,
        stall: bool,
    }

    impl Read for StallingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn zone_text_feed_quarantines_bad_bytes_and_resumes_mid_line() {
        let text = b"$ORIGIN com.\n\
                     alpha IN A 192.0.2.1\n\
                     beta IN A 192.0.2.2\n\
                     alpha IN A 192.0.2.3\n\
                     go\xEFgle IN A 192.0.2.4\n\
                     gamma IN A 192.0.2.5\n";
        let mut feed = ZoneTextFeed::new(
            "zone",
            "com",
            StallingReader {
                data: text,
                step: 3,
                stall: false,
            },
        );
        let (mut registered, mut malformed, mut stalls) = (Vec::new(), Vec::new(), 0);
        loop {
            match feed.next() {
                Ok(Some(FeedItem::Event(IngestEvent::Registered(d)))) => {
                    registered.push(d.as_ascii().to_string())
                }
                Ok(Some(FeedItem::Malformed(why))) => malformed.push(why),
                Ok(Some(other)) => panic!("unexpected item {other:?}"),
                Ok(None) => break,
                Err(FeedError::Stall) => stalls += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        // Every line arrived in 3-byte pieces between stalls; the
        // out-of-order `alpha` repeat falls to the window, and the
        // damaged owner is quarantined instead of decoded lossily.
        assert_eq!(registered, ["alpha.com", "beta.com", "gamma.com"]);
        assert_eq!(malformed, ["zone line 5: invalid UTF-8"]);
        assert_eq!(stalls, text.len().div_ceil(3) + 1);
    }
}
