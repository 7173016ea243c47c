//! The `mec-serve` binary end to end: attaching telemetry to a chaos run
//! changes no stdout byte and writes a trace the report reads, a
//! removed flag is refused, a trace that cannot be written fails the
//! run instead of passing silently, and a malformed `--trace` input exits
//! 2 with a message instead of panicking or hanging.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A small two-shard run whose shard 1 crashes and recovers.
const CHAOS_RUN: &[&str] = &[
    "--stations",
    "12",
    "--requests",
    "400",
    "--shards",
    "2",
    "--rps",
    "2000",
    "--seed",
    "7",
    "--snapshot-every",
    "0",
    "--chaos",
    "crash:shard=1@slot=30,recover@slot=40",
];

fn mec_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mec-serve"))
        .args(args)
        .output()
        .expect("mec-serve starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn telemetry_flags_keep_stdout_and_write_a_readable_trace() {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_chaos_events.jsonl");
    let trace_path = trace.to_str().expect("utf-8 temp path");

    let plain = mec_serve(CHAOS_RUN);
    assert!(plain.status.success(), "{}", stderr(&plain));

    let mut args = CHAOS_RUN.to_vec();
    args.extend([
        "--trace-out",
        trace_path,
        "--learner-events",
        "--telemetry-every",
        "10",
    ]);
    let traced = mec_serve(&args);
    assert!(traced.status.success(), "{}", stderr(&traced));
    assert_eq!(
        plain.stdout, traced.stdout,
        "attaching telemetry changed the snapshots"
    );

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let report = mec_obs::build_report(text.lines()).expect("the report reads the trace");
    assert!(
        report
            .faults_injected
            .iter()
            .any(|(_, shard, _)| *shard == 1),
        "the scripted crash is in the trace"
    );
    assert!(
        !report.arms.is_empty(),
        "the telemetry sweep is in the trace"
    );
}

#[test]
fn flight_dump_filter_is_an_unknown_flag() {
    let out = mec_serve(&["--flight-dump-on", "crash"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with("unknown flag \"--flight-dump-on\""),
        "{}",
        stderr(&out)
    );
}

#[cfg(target_os = "linux")]
#[test]
fn unwritable_trace_fails_the_run() {
    let out = mec_serve(&[
        "--stations",
        "12",
        "--requests",
        "400",
        "--rps",
        "2000",
        "--seed",
        "7",
        "--snapshot-every",
        "0",
        "--trace-out",
        "/dev/full",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("cannot write trace \"/dev/full\""),
        "the error names the trace: {err}"
    );
    assert!(!err.contains("event(s) written"), "{err}");
}

/// Runs `mec-serve` on a one-row `--trace` file and fails the test if it
/// does not exit within 30 s.
fn serve_trace_row(name: &str, row: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let header = mec_workload::write_requests(&[]);
    std::fs::write(&path, format!("{header}{row}\n")).expect("trace written");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mec-serve"))
        .args(["--stations", "4", "--trace", path.to_str().expect("utf-8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mec-serve starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("mec-serve --trace {name} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

#[test]
fn trace_homed_outside_the_topology_is_refused() {
    let out = serve_trace_row("bad_home.csv", "7,bs999,0,10,200,render:64:1,30:1:100");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("request 7 is homed at bs999"), "{err}");
}

#[test]
fn trace_with_a_negative_deadline_is_refused() {
    let out = serve_trace_row("bad_deadline.csv", "0,bs1,0,10,-5,render:64:1,30:1:100");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("cannot parse trace") && err.contains("bad deadline"),
        "{err}"
    );
}
