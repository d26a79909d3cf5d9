//! `perfbench` — the zone-to-detections benchmark.
//!
//! ```text
//! perfbench --workload <scan_sparse|scan_idn_dense|ingest_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`). The process generates or re-verifies the
//! workload's seeded fixture under `.perfbench/`, then measures in a
//! fresh child process so set-up, fixture generation and the output
//! oracle never share its peak-memory reading. The last stdout line is
//! the JSON result; with `--trace 0` it carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of the traced run. The exit
//! code is non-zero when any output check fails.

mod fixtures;
mod pipeline;
mod sys;
mod trace;

use fixtures::WorkloadKind;
use pipeline::{Output, Pipeline};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <scan_sparse|scan_idn_dense|ingest_churn> \
--seed <n> --seconds <s> --trace <0|1>";

/// Scratch directory, relative to the repository root.
const WORK_DIR: &str = ".perfbench";

/// Longest a measuring process may run before it is killed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 5;

/// Which decile of the per-pass distribution the throughput metrics
/// report: the 9th decile of rates (the 1st of CPU per record). On a
/// shared machine, neighbours only ever slow a pass down, for stretches
/// of seconds, which moves a run's median by tens of percent; the fast
/// end of the distribution is the pipeline's own speed.
const FAST_PASS_DECILE: usize = 9;

pub struct Args {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set on the measuring child process.
    measure: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        WorkloadKind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        measure: argv.iter().any(|a| a == "--measure"),
    })
}

fn fixture_root() -> PathBuf {
    Path::new(WORK_DIR).join("fixtures")
}

/// Pins the worker pool at the machine's parallelism — what the CLI
/// runs with — whatever `SHAM_THREADS` says. Returns the thread count.
pub fn pin_pool() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_thread_override(Some(threads));
    threads
}

/// Loads the fixture the parent process generated and verified.
pub fn load_fixture(args: &Args) -> Result<fixtures::Fixture, String> {
    let (dir, params) = fixtures::dir_of(&fixture_root(), args.workload, args.seed);
    fixtures::load(&dir, &params, false)
}

/// Parent: make sure the fixture exists and is intact, then measure in
/// a child process and pass its exit status on.
fn drive(args: &Args) -> ExitCode {
    if let Err(e) = fixtures::ensure(&fixture_root(), args.workload, args.seed) {
        eprintln!("perfbench: fixture: {e}");
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let child = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .arg("--measure")
        .spawn();
    let mut child = match child {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench: cannot start measuring process: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A hung pipeline must not hang the benchmark: past the deadline the
    // child is killed and the run fails.
    let deadline = Instant::now() + CHILD_DEADLINE;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return ExitCode::SUCCESS,
            Ok(Some(status)) => {
                eprintln!("perfbench: measuring process ended with {status}");
                return ExitCode::FAILURE;
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => {
                eprintln!("perfbench: measuring process exceeded {CHILD_DEADLINE:?}; killed");
                let _ = child.kill();
                let _ = child.wait();
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: waiting for measuring process: {e}");
                let _ = child.kill();
                let _ = child.wait();
                return ExitCode::FAILURE;
            }
        }
    }
}

/// Outcome of comparing every pass with the oracle.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    /// Prints the share of passes that failed a check.
    pub fn print_failed_share(&self) {
        println!(
            "failed_share: {} ({} of {} passes)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// Checks passes against their own invariants and the oracle. Outputs
/// are compared with the first pass's as they arrive (so only one is
/// kept), and the first with the oracle at the end.
#[derive(Default)]
pub struct Checker {
    first: Option<Output>,
    /// Passes that matched the first output and passed their own check.
    like_first: u64,
    /// Passes that failed their own check or differed from the first.
    failed: u64,
    attempted: u64,
}

impl Checker {
    pub fn record(&mut self, pass: pipeline::Pass) -> (Duration, u64, u64) {
        self.attempted += 1;
        let summary = (pass.wall, pass.records, pass.bytes);
        if let Err(e) = &pass.check {
            eprintln!("perfbench: pass {} failed its check: {e}", self.attempted);
            self.failed += 1;
            return summary;
        }
        match &self.first {
            None => {
                self.first = Some(pass.output);
                self.like_first += 1;
            }
            Some(first) if *first == pass.output => self.like_first += 1,
            Some(_) => {
                eprintln!(
                    "perfbench: pass {} output differs from pass 1",
                    self.attempted
                );
                self.failed += 1;
            }
        }
        summary
    }

    /// Compares the first output with the oracle's.
    pub fn finish(self, oracle: Result<Output, String>) -> Verdict {
        let oracle_ok = match (&self.first, oracle) {
            (Some(first), Ok(oracle)) => {
                if *first != oracle {
                    describe_mismatch(first, &oracle);
                }
                *first == oracle
            }
            (_, Err(e)) => {
                eprintln!("perfbench: oracle failed: {e}");
                false
            }
            (None, Ok(_)) => true,
        };
        let failed = if oracle_ok {
            self.failed
        } else {
            self.failed + self.like_first
        };
        Verdict {
            attempted: self.attempted,
            failed,
        }
    }
}

fn describe_mismatch(got: &Output, want: &Output) {
    match (got, want) {
        (Output::Detections(got), Output::Detections(want)) => eprintln!(
            "perfbench: detections differ from the oracle: {} missing (e.g. {:?}), {} extra (e.g. {:?})",
            want.difference(got).count(),
            want.difference(got).next(),
            got.difference(want).count(),
            got.difference(want).next()
        ),
        _ => eprintln!("perfbench: ingest report differs from the synchronous router replay"),
    }
}

/// Child, untraced: set up several times, warm up, then run passes for
/// the requested seconds and report the end-to-end metrics.
///
/// Throughput is read from the fast end of the per-pass distribution
/// (see [`FAST_PASS_DECILE`]); the median and quartiles are printed
/// beside it.
fn measure(args: &Args) -> ExitCode {
    let fixture = match load_fixture(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = pin_pool();

    let mut setups = Vec::new();
    let mut pipeline = None;
    for _ in 0..SETUP_REPEATS {
        drop(pipeline.take());
        let started = Instant::now();
        match Pipeline::setup(args.workload, &fixture) {
            Ok(p) => pipeline = Some(p),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let pipeline = pipeline.expect("at least one set-up ran");

    let mut checker = Checker::default();
    // Warm-up: page cache, pool threads and allocator settle here.
    checker.record(pipeline.pass());

    let budget = Duration::from_secs_f64(args.seconds);
    let (mut rates, mut mb_rates, mut cpu_per_record) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while rates.is_empty() || started.elapsed() < budget {
        let cpu_before = sys::cpu_seconds();
        let (wall, records, bytes) = checker.record(pipeline.pass());
        let cpu = sys::cpu_seconds() - cpu_before;
        let secs = wall.as_secs_f64().max(1e-9);
        rates.push(records as f64 / secs);
        mb_rates.push(bytes as f64 / 1e6 / secs);
        cpu_per_record.push(cpu * 1e9 / records.max(1) as f64);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let verdict = checker.finish(pipeline.oracle());

    let shown: Vec<String> = rates.iter().map(|r| format!("{:.0}", r / 1e3)).collect();
    eprintln!("perfbench: pass rates (k records/s): {}", shown.join(" "));
    println!(
        "workload: {} seed {} ({} passes after 1 warm-up)",
        args.workload.name(),
        args.seed,
        rates.len()
    );
    println!("stamp: {}", sys::host_stamp(threads));
    verdict.print_failed_share();
    let mut metrics = sys::Metrics::new();
    let fast = |values: &[f64], higher_is_better: bool| {
        let deciles = sys::quantiles(values, 10);
        if higher_is_better {
            deciles[FAST_PASS_DECILE - 1]
        } else {
            deciles[10 - FAST_PASS_DECILE - 1]
        }
    };
    for (name, unit, values, higher) in [
        ("records_per_s", "1/s", &rates, true),
        ("mb_per_s", "MB/s", &mb_rates, true),
        ("cpu_ns_per_record", "ns", &cpu_per_record, false),
    ] {
        let q = sys::quantiles(values, 4);
        let value = fast(values, higher);
        println!(
            "{name}: {value:.4} {unit} (fast-pass decile) median {:.4} q1 {:.4} q3 {:.4} n {}",
            q[1],
            q[0],
            q[2],
            values.len()
        );
        metrics.insert(name.into(), (value, unit));
    }
    let q = sys::quantiles(&setups, 4);
    println!(
        "setup_s: median {:.4} q1 {:.4} q3 {:.4} n {}",
        q[1],
        q[0],
        q[2],
        setups.len()
    );
    metrics.insert("setup_s".into(), (q[1], "s"));
    metrics.insert("peak_rss_mb".into(), (peak_rss_mb, "MB"));
    println!(
        "{}",
        sys::result_json(verdict.attempted, verdict.failed, &metrics)
    );
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.measure, args.trace) {
        (false, _) => drive(&args),
        (true, false) => measure(&args),
        (true, true) => trace::run(&args),
    }
}
