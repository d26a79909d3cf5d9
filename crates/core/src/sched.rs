//! Fixed execution policy + per-call execution statistics.
//!
//! Two partitioning rules, both fixed, send work to the worker pool
//! (vendored `rayon`):
//!
//! * **Detection batches** — `detect_append` splits a batch of IDNs
//!   into shards of `shard_len_for` IDNs: one inline shard at 1 thread,
//!   otherwise ≈ 4 shards per worker so every worker engages and a slow
//!   shard cannot serialise the tail. A lane's batch holds ACE names,
//!   and each shard Punycode-decodes its own names before matching
//!   them, so Step 2's decoding is spread the same way. Flushes (router
//!   lanes, the scanner's pre-stage, the ingest drainer) happen at the
//!   configured batch capacity.
//! * **Zone lines** — the scanner's line stage cuts each pushed span of
//!   complete lines at line starts by `line_shards_for`. The calling
//!   thread runs a head of twice a pool worker's share while the pool
//!   parses the rest in ≈ 4 shards per other worker, none below
//!   [`MIN_LINE_SHARD_BYTES`]; at 1 thread, or when the rest would not
//!   fill one such shard (a `ZoneTextFeed` read is 4 KiB), the head is
//!   everything. The calling thread merges the shards after its head, so
//!   the larger head lets a worker running at half its speed still
//!   finish first: a chunk then takes as long as the calling thread's
//!   part of it, whatever the pool's pace.
//!
//! A fixed rule is enough because each scan has one pool caller:
//! `scan-zone`, `serve-feed`'s drainer and the benchmark workloads all
//! parse and detect from a single thread, and each parallel call waits
//! for its own pool jobs before returning. The calling thread runs a
//! chunk's line shards and then the detection batches their owners
//! fill, in turn; only the detection batches the head's owners fill run
//! while the pool parses, and their jobs wait for a free worker (the
//! calling thread meanwhile runs their shards itself). So the pool is
//! idle at every other partitioning decision.
//!
//! # Determinism
//!
//! Partitioning never changes what is computed. Shard outputs merge in
//! corpus order (see `vendor/rayon`'s in-order chunk merge), line shards
//! merge in stream order with exact seams (see `crate::scan`), and
//! streaming detection is partition-invariant (see `crate::session`),
//! so every thread count, chunk size and batch capacity yields
//! bit-identical reports. The equivalence suites pin exactly that.
//!
//! What was *chosen* is still observable out of band: [`ExecStats`]
//! accumulates per-call decisions (batches, shards, shard sizes,
//! workers engaged) into every report, and [`StageStats`] does the same
//! for the line stage — compared by nothing (report equality ignores
//! them), printed by ledgers.

use serde::{Deserialize, Serialize};

/// Minimum IDNs per shard — amortises the per-shard scratch buffers.
pub const MIN_SHARD_LEN: usize = 64;

/// Execution statistics of the detection calls behind one report:
/// how batches were partitioned, not what they computed. Purely
/// observational — [`FrameworkReport`](crate::FrameworkReport)
/// equality deliberately ignores this field, because partitioning
/// varies with thread count and batching while results must not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Detection batches executed (one per `detect_append` call with
    /// at least one IDN).
    pub batches: u64,
    /// Batches that ran inline on the calling thread (single shard).
    pub inline_batches: u64,
    /// Total shards dispatched across all batches.
    pub shards: u64,
    /// Smallest shard length chosen so far (0 until the first batch).
    pub min_shard_len: usize,
    /// Largest shard length chosen so far.
    pub max_shard_len: usize,
    /// Most workers engaged by a single batch.
    pub max_workers: usize,
}

impl ExecStats {
    /// Folds one executed batch into the totals.
    pub(crate) fn record(&mut self, shards: usize, shard_len: usize, workers: usize) {
        self.batches += 1;
        if workers <= 1 {
            self.inline_batches += 1;
        }
        self.shards += shards as u64;
        self.min_shard_len = if self.min_shard_len == 0 {
            shard_len
        } else {
            self.min_shard_len.min(shard_len)
        };
        self.max_shard_len = self.max_shard_len.max(shard_len);
        self.max_workers = self.max_workers.max(workers);
    }

    /// Folds another accumulator into this one (report merging).
    pub fn merge(&mut self, other: &ExecStats) {
        self.batches += other.batches;
        self.inline_batches += other.inline_batches;
        self.shards += other.shards;
        if other.min_shard_len != 0 {
            self.min_shard_len = if self.min_shard_len == 0 {
                other.min_shard_len
            } else {
                self.min_shard_len.min(other.min_shard_len)
            };
        }
        self.max_shard_len = self.max_shard_len.max(other.max_shard_len);
        self.max_workers = self.max_workers.max(other.max_workers);
    }

    /// True until the first batch is recorded.
    pub fn is_empty(&self) -> bool {
        self.batches == 0
    }
}

/// Minimum bytes per forked line shard, each of which costs a parser
/// fork, a seam re-run and a pool hand-off.
pub const MIN_LINE_SHARD_BYTES: usize = 64 << 10;

/// What the scanner's line stage did with its pushes: how their lines
/// were cut for the pool and how much the calling thread re-ran at the
/// seams, not what they parsed to. Purely observational, like
/// [`ExecStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStats {
    /// Byte spans pushed into the stage (one per read chunk).
    pub pushes: u64,
    /// Pushes whose complete lines were cut into shards for the pool.
    pub split_pushes: u64,
    /// Shards those split pushes were cut into, heads included.
    pub shards: u64,
    /// Shards re-run whole on the calling thread: no line in them named
    /// an owner and parsed, or `$ORIGIN`/`$TTL` changed before them in
    /// the same push.
    pub shards_rerun: u64,
    /// Lines the calling thread re-ran: each shard's lines up to its
    /// first named owner, plus every line of a shard re-run whole.
    pub lines_rerun: u64,
}

/// How a push of `bytes` bytes of complete lines is cut at `threads`
/// configured workers, as `(head, forks)`: the calling thread runs the
/// first `head` bytes itself, while the pool parses the rest in `forks`
/// shards. The head is two shares of `threads + 1`, twice what each
/// other worker gets, and the rest is cut ≈ 4 per other worker, none
/// below [`MIN_LINE_SHARD_BYTES`]. At 1 thread, or when the rest would
/// not fill one such shard, the head is everything.
pub(crate) fn line_shards_for(bytes: usize, threads: usize) -> (usize, usize) {
    if threads <= 1 {
        return (bytes, 0);
    }
    let head = 2 * bytes / (threads + 1);
    match (bytes - head) / MIN_LINE_SHARD_BYTES {
        0 => (bytes, 0),
        forks => (head, forks.min((threads - 1) * 4)),
    }
}

/// Shard length for a `len`-IDN batch at `threads` configured workers:
/// one shard at 1 thread (the caller runs it inline; splitting would
/// only add merge overhead), otherwise ≈ 4 shards per worker, never
/// below [`MIN_SHARD_LEN`].
pub(crate) fn shard_len_for(len: usize, threads: usize) -> usize {
    if threads <= 1 {
        return len.max(1);
    }
    len.div_ceil(threads * 4).max(MIN_SHARD_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_track_extremes() {
        let mut a = ExecStats::default();
        assert!(a.is_empty());
        a.record(1, 500, 1);
        a.record(8, 64, 4);
        assert_eq!(a.batches, 2);
        assert_eq!(a.inline_batches, 1);
        assert_eq!(a.shards, 9);
        assert_eq!(a.min_shard_len, 64);
        assert_eq!(a.max_shard_len, 500);
        assert_eq!(a.max_workers, 4);

        let mut b = ExecStats::default();
        b.record(2, 32, 2);
        b.merge(&a);
        assert_eq!(b.batches, 3);
        assert_eq!(b.shards, 11);
        assert_eq!(b.min_shard_len, 32);
        assert_eq!(b.max_shard_len, 500);
        assert_eq!(b.max_workers, 4);

        // Merging an empty accumulator must not clobber the minimum.
        b.merge(&ExecStats::default());
        assert_eq!(b.min_shard_len, 32);
    }

    #[test]
    fn line_shards_follow_the_fixed_rule() {
        // 1 thread: the calling thread runs the whole push.
        assert_eq!(line_shards_for(1 << 20, 1), (1 << 20, 0));
        // A feed's 4 KiB read, or any push whose pool part would not
        // fill one minimum shard: at 2 threads, under three of them.
        assert_eq!(line_shards_for(4 << 10, 2), (4 << 10, 0));
        let min = MIN_LINE_SHARD_BYTES;
        assert_eq!(line_shards_for(3 * min - 3, 2), (3 * min - 3, 0));
        assert_eq!(line_shards_for(3 * min, 2), (2 * min, 1));
        assert_eq!(line_shards_for(5 * min, 4), (2 * min, 3));
        // A 1 MiB chunk: a head of two shares in threads + 1, ~4 forks
        // per other worker, none below the minimum.
        assert_eq!(line_shards_for(1 << 20, 2), (699_050, 4));
        assert_eq!(line_shards_for(1 << 20, 4), (419_430, 9));
        assert_eq!(line_shards_for(1 << 20, 8), (233_016, 12));
    }

    #[test]
    fn shard_len_follows_the_fixed_rule() {
        // 1 thread: one inline shard, whatever the length.
        assert_eq!(shard_len_for(10_000, 1), 10_000);
        assert_eq!(shard_len_for(0, 1), 1);
        // N threads: ~4 shards per worker.
        assert_eq!(shard_len_for(10_000, 4), 625);
        assert_eq!(shard_len_for(10_000, 2), 1_250);
        assert_eq!(shard_len_for(10_001, 2), 1_251);
        // The shard floor holds whatever the split says.
        assert_eq!(shard_len_for(100, 8), MIN_SHARD_LEN);
        assert_eq!(shard_len_for(1_024, 2), 128);
    }
}
