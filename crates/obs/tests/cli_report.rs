//! CLI behaviour of `mec-obs-report`: trace rendering, empty input,
//! and truncated-final-line salvage. Drives the real binary via
//! `CARGO_BIN_EXE_mec-obs-report`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn report_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mec-obs-report"))
}

fn run_on(content: &str, name: &str) -> Output {
    let path = scratch(name);
    std::fs::write(&path, content).expect("write fixture");
    let out = report_bin().arg(&path).output().expect("spawn report");
    let _ = std::fs::remove_file(&path);
    out
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mec-obs-cli-{}-{name}", std::process::id()));
    p
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const TRACE: &str = concat!(
    r#"{"slot":0,"kind":"run_start","shards":2,"policy":"DynamicRR","seed":7}"#,
    "\n",
    r#"{"slot":3,"kind":"admission","admitted":10,"buffered":0,"spilled":1,"shed":2,"shed_down":0}"#,
    "\n",
    r#"{"slot":9,"kind":"run_end","admitted":10,"shed":2,"completed":9}"#,
    "\n",
);

#[test]
fn renders_a_complete_trace() {
    let out = run_on(TRACE, "ok.jsonl");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("mec-obs report (3 events)"), "{text}");
    assert!(text.contains("admission funnel"), "{text}");
}

#[test]
fn empty_trace_diagnoses_and_fails() {
    for content in ["", "\n\n  \n"] {
        let out = run_on(content, "empty.jsonl");
        assert!(!out.status.success(), "empty input must exit nonzero");
        assert_eq!(stdout(&out), "", "no report for empty input");
        let err = stderr(&out);
        assert!(err.contains("is empty: no events to report"), "{err}");
    }
}

#[test]
fn truncated_last_line_salvages_the_rest() {
    // The writer died mid-flush: the final line is half a JSON object.
    let torn = format!("{TRACE}{}", r#"{"slot":12,"kind":"admis"#);
    let out = run_on(&torn, "torn.jsonl");
    assert!(!out.status.success(), "truncation must exit nonzero");
    let text = stdout(&out);
    assert!(
        text.contains("mec-obs report (3 events)"),
        "complete events still reported: {text}"
    );
    let err = stderr(&out);
    assert!(err.contains("last line 4 is truncated"), "{err}");
    assert!(err.contains("3 complete event(s)"), "{err}");
}

#[test]
fn mid_stream_corruption_is_a_plain_error() {
    let bad = concat!(
        r#"{"slot":0,"kind":"run_start","shards":2}"#,
        "\nnot json at all\n",
        r#"{"slot":9,"kind":"run_end","admitted":1}"#,
        "\n",
    );
    let out = run_on(bad, "corrupt.jsonl");
    assert!(!out.status.success());
    assert_eq!(stdout(&out), "", "corrupt stream renders nothing");
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn one_stream_renders_lifecycle_and_flight_sections() {
    // A serve trace carries lifecycle records and flight dumps alongside
    // the structured events; the torn final line is salvaged as usual.
    let stream = format!(
        "{TRACE}{}\n{}\n{}\n{}\n{}",
        r#"{"slot":3,"kind":"lifecycle","id":4,"stage":"admit","shard":1,"bs":-1}"#,
        r#"{"slot":5,"kind":"lifecycle","id":4,"stage":"complete","shard":1,"bs":-1}"#,
        r#"{"slot":6,"kind":"flight_dump","trigger":"crash","snapshots":1,"evicted":0}"#,
        r#"{"slot":6,"kind":"flight","shard":1,"arm":2,"value":300.0,"active_arms":4,"best_arm":2,"best_mean":0.5,"granted":3,"granted_mhz":900.0,"assign_digest":7,"lp_solves":0,"lp_warm_hits":0,"lp_pivots":0}"#,
        r#"{"slot":7,"kind":"lifecy"#,
    );
    let out = run_on(&stream, "one-stream.jsonl");
    assert!(!out.status.success(), "truncation must exit nonzero");
    let text = stdout(&out);
    for section in ["== run ==", "== lifecycle ==", "== flight recorder =="] {
        assert!(text.contains(section), "missing {section}: {text}");
    }
    assert!(text.contains("2 record(s), 1 request(s)"), "{text}");
    assert!(
        text.contains("dumped 1 snapshot(s) (trigger: crash) over 1 shard(s)"),
        "{text}"
    );
    assert!(
        stderr(&out).contains("last line 8 is truncated"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn non_trace_files_are_refused() {
    // Valid JSON lines that are not trace events, e.g. an old profile
    // stream: refused at the first one, nothing rendered.
    let profile = concat!(
        r#"{"kind":"profile","phase":"engine.step","ms":1.5}"#,
        "\n",
        r#"{"kind":"profile","phase":"policy","ms":0.5}"#,
        "\n",
    );
    let out = run_on(profile, "profile.jsonl");
    assert!(!out.status.success(), "a non-trace must exit nonzero");
    assert_eq!(stdout(&out), "", "a non-trace renders nothing");
    let err = stderr(&out);
    assert!(err.contains("line 1"), "{err}");
    assert!(err.contains("not a trace event"), "{err}");
    // A lone non-trace line is not mistaken for a torn write.
    let out = run_on(r#"{"kind":"profile"}"#, "profile-one.jsonl");
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("not a trace event"), "{err}");
    assert!(!err.contains("truncated"), "{err}");
}
