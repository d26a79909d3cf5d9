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
//!   complete lines at line starts into shards of about
//!   [`MIN_LINE_SHARD_BYTES`], and the two sides of the split claim them
//!   from opposite ends: the calling thread from the front, running each
//!   line straight through the serial path, and the pool workers from the
//!   back, each with a fork of the parser into a reused buffer. They
//!   meet wherever the faster side gets to, so a core slowed for a while
//!   just claims fewer shards, and a chunk waits on it for at most the
//!   shard it holds; the calling thread then merges the pool's tail. At
//!   1 thread, or for a push too small to cut into two shards (a
//!   `ZoneTextFeed` read is 4 KiB), every line runs on the calling
//!   thread.
//!
//! A fixed rule is enough because each scan has one pool caller:
//! `scan-zone`, `serve-feed`'s drainer and the benchmark workloads all
//! parse and detect from a single thread, and each parallel call waits
//! for its own pool jobs before returning. The calling thread runs a
//! chunk's line shards and then the detection batches their owners
//! fill, in turn. Only the detection batches that the front's router
//! pushes flush run while the pool parses, and they never wait behind
//! the pool's parse claims: the calling thread runs such a batch's
//! shards itself, and the copy of its job queued for the busy pool is
//! discarded once a worker dequeues it. So the pool is idle at every
//! other partitioning decision.
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

/// Minimum bytes per line shard: a push's complete lines are cut into
/// as many shards of at least this size as fit. Each shard the pool
/// claims costs a parser fork, a seam re-run and a merge, and each claim
/// a lock.
pub const MIN_LINE_SHARD_BYTES: usize = 64 << 10;

/// What the scanner's line stage did with its pushes: how their lines
/// were cut and claimed, how much the calling thread re-ran at the
/// seams and where the time of a split went, not what they parsed to.
/// Purely observational, like [`ExecStats`]. Each time is taken with
/// one `Instant` pair per phase (per worker for `fork_ns`) and split
/// push, never per line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStats {
    /// Byte spans pushed into the stage (one per read chunk).
    pub pushes: u64,
    /// Pushes whose complete lines were cut into shards and claimed from
    /// both ends.
    pub split_pushes: u64,
    /// Shards those split pushes were cut into, whichever side claimed
    /// them.
    pub shards: u64,
    /// Shards the pool claimed from the back, parsed with forks of the
    /// parser and merged by the calling thread.
    pub shards_forked: u64,
    /// Forked shards re-run whole on the calling thread: no line in them
    /// named an owner and parsed, or `$ORIGIN`/`$TTL` changed before
    /// them in the same push.
    pub shards_rerun: u64,
    /// Lines the calling thread re-ran: each forked shard's lines up to
    /// its first named owner, plus every line of a shard re-run whole.
    pub lines_rerun: u64,
    /// Nanoseconds the calling thread spent on the shards it claimed
    /// from the front.
    pub front_ns: u64,
    /// Nanoseconds the pool spent on the shards it claimed from the
    /// back, summed over the workers.
    pub fork_ns: u64,
    /// Nanoseconds the calling thread waited, once the two sides met,
    /// for shards still in flight.
    pub wait_ns: u64,
    /// Nanoseconds the calling thread spent merging the forked shards.
    pub merge_ns: u64,
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
