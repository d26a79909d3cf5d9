//! Pool telemetry overhead — proof that the counters are (close enough
//! to) free.
//!
//! The executor's telemetry (see `vendor/rayon`) is relaxed atomics
//! bumped on job-level transitions: submit, dequeue, body enter/leave,
//! park/unpark. The design claim is that this is unmeasurable on the
//! hot paths: the 1-thread inline path executes no telemetry
//! instruction at all, and the pooled path pays a handful of relaxed
//! increments *per job* (not per chunk, not per item). This bench
//! prices the two sides of that claim:
//!
//! * `dispatch_on` — a small-work parallel collect (8 192 elements,
//!   tiny per-element work, so dispatch overhead dominates) with the
//!   counters live. At 1 thread it is the inline path.
//! * `stats_read` — `rayon::pool_stats()` snapshots per second: the
//!   ledger/server read path (each snapshot is ~10 relaxed loads plus
//!   the pool-size lock).
//!
//! The snapshot section `pool_telemetry` lands in
//! `BENCH_detection.json` next to `streaming_ingest`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rayon::prelude::*;
use sham_bench::{measure_ops_per_sec, snapshot_samples, snapshot_thread_sweep};

const DISPATCH_ELEMENTS: usize = 8_192;
/// Dispatch passes per snapshot sample: one pass is ~20 µs, far below
/// timer/scheduler noise — a sample times the whole loop.
const PASSES_PER_SAMPLE: usize = 512;
const READS_PER_PASS: usize = 100_000;

/// One dispatch-dominated parallel pass: tiny per-element work over a
/// fixed base, `with_min_len(64)` so the chunk count (and thus the job
/// count) stays stable across thread counts.
fn dispatch_pass(base: &[u64]) -> u64 {
    base.par_iter()
        .with_min_len(64)
        .map(|&x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7))
        .collect::<Vec<u64>>()
        .iter()
        .fold(0u64, |acc, &x| acc ^ x)
}

fn bench_pool_telemetry(c: &mut Criterion) {
    let base: Vec<u64> = (0..DISPATCH_ELEMENTS as u64).collect();

    let mut group = c.benchmark_group("pool_telemetry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DISPATCH_ELEMENTS as u64));
    group.bench_function("dispatch_on", |b| {
        b.iter(|| std::hint::black_box(dispatch_pass(&base)))
    });
    group.bench_function("stats_read", |b| {
        b.iter(|| std::hint::black_box(rayon::pool_stats()))
    });
    group.finish();

    snapshot_thread_sweep("pool_telemetry", &["dispatch_on", "stats_read"], |name| {
        if name == "dispatch_on" {
            let elements = DISPATCH_ELEMENTS * PASSES_PER_SAMPLE;
            measure_ops_per_sec(elements, snapshot_samples(), || {
                for _ in 0..PASSES_PER_SAMPLE {
                    std::hint::black_box(dispatch_pass(&base));
                }
            })
        } else {
            measure_ops_per_sec(READS_PER_PASS, snapshot_samples(), || {
                for _ in 0..READS_PER_PASS {
                    std::hint::black_box(rayon::pool_stats());
                }
            })
        }
    });
}

criterion_group!(benches, bench_pool_telemetry);
criterion_main!(benches);
