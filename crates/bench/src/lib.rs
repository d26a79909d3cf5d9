//! Shared fixtures for the criterion benches.
//!
//! Bench inputs are deterministic and sized so each bench completes in
//! seconds while still measuring the intended code path (the full-scale
//! numbers live in `repro`, which times the real runs — see
//! EXPERIMENTS.md).

use sham_glyph::{Bitmap, SynthUnifont};
use sham_simchar::{render_repertoire, Repertoire};
use std::time::Instant;

/// Renders the PVALID glyphs of the given blocks.
pub fn glyphs_for(blocks: Vec<&'static str>) -> Vec<(u32, Bitmap)> {
    render_repertoire(&SynthUnifont::v12(), &Repertoire::Blocks(blocks))
}

/// A medium corpus: Latin + Cyrillic + Greek + Armenian (~700 glyphs).
pub fn medium_glyph_corpus() -> Vec<(u32, Bitmap)> {
    glyphs_for(vec![
        "Basic Latin",
        "Latin-1 Supplement",
        "Latin Extended-A",
        "Cyrillic",
        "Greek and Coptic",
        "Armenian",
    ])
}

/// Deterministic IDN stems for detection benches: `count` lookalikes of
/// reference stems (every one detectable) mixed 1:1 with benign IDNs.
pub fn detection_corpus(count: usize) -> (Vec<String>, Vec<(String, String)>) {
    let references: Vec<String> = sham_workload::reference_list(10_000);
    let mut idns = Vec::with_capacity(count);
    for i in 0..count {
        let stem = if i % 2 == 0 {
            // A lookalike of a reference.
            let target = &references[(i / 2) % 500];
            let len = target.chars().count().max(1);
            target
                .chars()
                .enumerate()
                .map(|(pos, c)| {
                    if pos == i % len {
                        match c {
                            'a' => 'а',
                            'e' => 'е',
                            'o' => 'о',
                            'c' => 'с',
                            'p' => 'р',
                            other => other,
                        }
                    } else {
                        c
                    }
                })
                .collect::<String>()
        } else {
            // Benign IDN noise.
            format!("münchen-shop-{i}")
        };
        let ace = sham_punycode::ace::to_ascii(&stem)
            .map(|l| format!("{l}.com"))
            .unwrap_or_else(|_| format!("{stem}.com"));
        idns.push((stem, ace));
    }
    (references, idns)
}

/// Path of the perf-trajectory snapshot at the workspace root.
pub fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detection.json")
}

/// Samples per snapshot measurement: 1 in dry-run mode, 5 otherwise.
/// Dry-run detection is criterion's, so the sample gating and the
/// snapshot gating can never disagree about what a dry run is.
pub fn snapshot_samples() -> usize {
    if criterion::dry_run_mode() { 1 } else { 5 }
}

/// Shared scaffolding for the perf-snapshot benches: measures each
/// named config at 1 worker thread and (when the run is configured for
/// more — `SHAM_THREADS` or the machine's available parallelism) at
/// that count — `measure(name)` runs with the thread override already
/// set — then merges the ops/sec entries into `section` of
/// `BENCH_detection.json`. In `--test` dry-run mode the sweep still
/// executes (smoking the measured code path) but the snapshot file is
/// left untouched, so single-sample noise never replaces committed
/// trajectory numbers.
///
/// The machine's hardware thread count is recorded *per run*
/// (`hardware_threads/threads_{top}`), keyed like the measurements, so
/// a 1-thread smoke and a 2-thread smoke stop clobbering each other's
/// context — the old single `hardware_threads` scalar did exactly
/// that, making committed sections lie about which machine measured
/// them.
pub fn snapshot_thread_sweep(
    section: &str,
    configs: &[&str],
    mut measure: impl FnMut(&str) -> f64,
) {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Honour SHAM_THREADS (and any ambient override): a CI smoke at
    // SHAM_THREADS=2 must actually measure the 2-thread pooled path,
    // even on single-core runners where `hardware` alone would say 1.
    let top = rayon::current_num_threads().max(1);
    let threads_list: Vec<usize> = if top > 1 { vec![1, top] } else { vec![1] };
    let mut entries =
        vec![(format!("hardware_threads/threads_{top}"), hardware as f64)];
    for &name in configs {
        for &threads in &threads_list {
            rayon::set_thread_override(Some(threads));
            let ops = measure(name);
            entries.push((format!("{name}/threads_{threads}_ops_per_sec"), ops));
        }
    }
    rayon::set_thread_override(None);
    if criterion::dry_run_mode() {
        println!(
            "snapshot: dry run — leaving {} untouched",
            snapshot_path().display()
        );
    } else {
        record_snapshot(section, &entries);
        println!(
            "snapshot: wrote {section} section of {}",
            snapshot_path().display()
        );
    }
}

/// Times `f` (after one warm-up call) and returns ops/sec for a unit of
/// `elements` items, using the median of `samples` runs.
pub fn measure_ops_per_sec(elements: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2].max(1e-12);
    elements as f64 / median
}

/// Merges one bench's section into `BENCH_detection.json` at the
/// workspace root, preserving the sections other benches wrote — the
/// file accumulates the perf trajectory (ops/sec at 1 thread vs N
/// threads) across bench runs and PRs.
///
/// Within a section, entries merge *by key* into whatever the section
/// already holds: a run that measured only `threads_2` updates those
/// keys and leaves the committed `threads_1` numbers in place, instead
/// of replacing the whole section (which is how per-thread runs used
/// to erase each other). The legacy un-keyed `hardware_threads` scalar
/// is dropped on the way — its per-run replacement
/// (`hardware_threads/threads_{n}`) is one of the merged entries.
pub fn record_snapshot(section: &str, entries: &[(String, f64)]) {
    use serde::Value;
    let path = snapshot_path();
    let mut root: Vec<(String, Value)> = match std::fs::read_to_string(&path) {
        Err(_) => Vec::new(), // first run: no snapshot yet
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Map(entries)) => entries,
            _ => {
                eprintln!(
                    "warning: {} is not a JSON object — rewriting it with only \
                     the {section} section (other sections are lost)",
                    path.display()
                );
                Vec::new()
            }
        },
    };
    let mut merged: Vec<(String, Value)> =
        match root.iter().find(|(k, _)| k == section) {
            Some((_, Value::Map(existing))) => existing
                .iter()
                .filter(|(k, _)| k != "hardware_threads")
                .cloned()
                .collect(),
            _ => Vec::new(),
        };
    for (k, ops) in entries {
        let rounded = Value::F64((ops * 10.0).round() / 10.0);
        match merged.iter_mut().find(|(key, _)| key == k) {
            Some(slot) => slot.1 = rounded,
            None => merged.push((k.clone(), rounded)),
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let section_value = Value::Map(merged);
    match root.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = section_value,
        None => root.push((section.to_string(), section_value)),
    }
    root.sort_by(|a, b| a.0.cmp(&b.0));
    let text = serde_json::to_string(&Value::Map(root)).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_nonempty_and_deterministic() {
        let a = medium_glyph_corpus();
        let b = medium_glyph_corpus();
        assert!(a.len() > 300, "{}", a.len());
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn detection_corpus_has_expected_size() {
        let (refs, idns) = detection_corpus(100);
        assert_eq!(refs.len(), 10_000);
        assert_eq!(idns.len(), 100);
        assert!(idns.iter().all(|(_, ace)| ace.ends_with(".com")));
    }
}
