//! Fixed execution policy + per-call execution statistics.
//!
//! `detect_append` splits a batch into shards for the worker pool
//! (vendored `rayon`). The rule is fixed (`shard_len_for`): one inline
//! shard at 1 thread, otherwise ≈ 4 shards per worker so every worker
//! engages and a slow shard cannot serialise the tail. Flushes (router
//! lanes, the scanner's pre-stage, the ingest drainer) happen at the
//! configured batch capacity.
//!
//! A fixed rule is enough because there is one detection caller:
//! `scan-zone`, `serve-feed`'s drainer and the benchmark workloads all
//! detect from a single thread, and each parallel call waits for its
//! own pool jobs before returning, so the pool is idle at every
//! partitioning decision.
//!
//! # Determinism
//!
//! Partitioning never changes what is computed. Shard outputs merge in
//! corpus order (see `vendor/rayon`'s in-order chunk merge) and
//! streaming detection is partition-invariant (see `crate::session`),
//! so every thread count and batch capacity yields bit-identical
//! reports. The equivalence suites pin exactly that.
//!
//! What was *chosen* is still observable out of band: [`ExecStats`]
//! accumulates per-call decisions (batches, shards, shard sizes,
//! workers engaged) into every report — compared by nothing (report
//! equality ignores it), printed by ledgers.

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
