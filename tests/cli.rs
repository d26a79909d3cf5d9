//! The `shamfinder` binary parses every command's arguments one way:
//! flags go anywhere, and an argument a command cannot use is a usage
//! error, named on stderr with nothing on stdout, before any database
//! is built.

use std::process::{Command, Output};

fn shamfinder(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shamfinder")).args(args).output().expect("run shamfinder")
}

#[test]
fn a_flag_before_the_domain_is_read_as_a_flag() {
    let first = shamfinder(&["check", "--refs", "google", "xn--ggle-55da.com"]);
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert_eq!(first.status.code(), Some(1), "{stdout}");
    assert!(stdout.starts_with("WARNING — use of homoglyph detected."), "{stdout}");
    assert!(stdout.contains("Did you mean google.com?"), "{stdout}");
    let last = shamfinder(&["check", "xn--ggle-55da.com", "--refs", "google"]);
    assert_eq!((last.status.code(), last.stdout), (Some(1), first.stdout));
}

#[test]
fn unusable_arguments_are_usage_errors() {
    // Never written: each command stops before it touches the file.
    let file = std::env::temp_dir().join("shamfinder-cli-never-written.zone");
    let file = file.to_str().expect("a UTF-8 temp dir");
    for (args, named) in [
        (&["check", "--refs", "google"][..], "missing <domain>"),
        (&["check", "a", "b"], "unexpected argument \"b\""),
        (&["scan", file, "--tdl", "net"], "unknown flag \"--tdl\""),
        (&["gen-zone", file, "--malformd", "5"], "unknown flag \"--malformd\""),
        (&["gen-zone", file, "--mb", "1", "--records", "5"], "--mb and --records"),
        (&["serve-feed", "--zone"], "--zone needs a value"),
        (&["serve-feed", "--policy", "bogus"], "\"bogus\" for --policy"),
        (&["serve-feed", "--zone", file, "--faults", "500"], "--faults is not read with --zone"),
        (&["serve-feed", "--seed", "3", "--zone", file], "--seed is not read with --zone"),
        (&["serve-feed", "--zone", file, "--events", "5"], "--events is not read with --zone"),
        (&["serve-feed", "--tld", "com"], "--tld is not read without --zone"),
        (&["scan-zone", file, "--metrics-json"], "--metrics-json needs a value"),
        (&["scan-zone", file, "--batch", "1k"], "error: invalid value \"1k\" for --batch"),
        (&["surface", "paypal", "--tld", "xx"], "\"xx\" for --tld"),
        (&["build-db", "--theta", "32"], "\"32\" for --theta"),
        (&["check", "bad..domain"], "invalid domain \"bad..domain\": empty label"),
        (&["homoglyphs", "U+ZZZZ"], "bad code point \"U+ZZZZ\""),
    ] {
        let out = shamfinder(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("building SimChar"), "{args:?} built SimChar");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
