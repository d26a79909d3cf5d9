//! Process and host readings, order statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux ABI on x86-64 and arm64).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Median of `values` (which need not be sorted); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantiles(values, 2)[0]
}

/// The `n - 1` cut points dividing `values` into `n` groups,
/// interpolated the way Python's `statistics.quantiles(values, n=n)`
/// does by default (the exclusive method). All zero when empty.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    (1..n)
        .map(|i| match len {
            0 => 0.0,
            1 => v[0],
            _ => {
                // Position i·(len+1)/n, 1-based, clamped to the data.
                let m = (len + 1) as f64 * i as f64 / n as f64;
                let j = (m.floor() as usize).clamp(1, len - 1);
                v[j - 1] + (v[j] - v[j - 1]) * (m - j as f64)
            }
        })
        .collect()
}

/// One reported metric: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, values printed with every digit Rust's shortest
/// round-trip formatting gives.
pub fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

/// Where and on what a result was measured, so results from different
/// commits and machines can be told apart.
pub fn host_stamp(pool_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "nproc={nproc} pool_threads={pool_threads} cpu={cpu:?} kernel={kernel} commit={}",
        git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into())
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), [1.0, 2.0, 3.0]);
        // statistics.quantiles(range(1, 11), n=10)[8] == 9.9
        assert!((quantiles(&v, 10)[8] - 9.9).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), (0.8127, "s"));
        assert_eq!(
            result_json(3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
