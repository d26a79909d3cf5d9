//! The `repro` binary refuses arguments it does not know, so a mistyped
//! experiment or scale cannot pass for a successful run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn unknown_experiments_and_scales_are_usage_errors() {
    for (args, named) in [
        (&["--scale", "test", "nonsense-experiment"][..], "\"nonsense-experiment\""),
        (&["table8", "tabel9"][..], "\"tabel9\""),
        (&["--scale", "huge", "table8"][..], "\"huge\" for --scale"),
        (&["table8", "--scale"][..], "--scale needs a value"),
        (&["table8", "--out"][..], "--out needs a directory"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn help_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: repro"));
}
