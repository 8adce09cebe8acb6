//! End-to-end tests of the `rasc` command-line interface against the
//! bundled sample specifications and programs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rasc(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    report(&out)
}

fn report(out: &Output) -> (bool, String) {
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Runs the sample session script through `rasc batch` (plus `extra`
/// arguments) from the directory `name` under the system temp dir, and
/// returns that directory too. The script snapshots to the relative path
/// `target/session.snap`, so the directory gets a `target/`; one
/// directory per test keeps parallel tests from racing over that file,
/// and keeps it out of the checkout and the build tree.
fn run_session(name: &str, extra: &[&str]) -> (bool, String, PathBuf) {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(dir.join("target")).unwrap();
    let manifest = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args([
            "batch",
            "--spec",
            &format!("{manifest}/assets/specs/privilege.spec"),
            "--input",
            &format!("{manifest}/assets/batch/session.jsonl"),
        ])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let (ok, text) = report(&out);
    (ok, text, dir)
}

#[test]
fn check_finds_the_vulnerability() {
    let (ok, text) = rasc(&[
        "check",
        "--spec",
        "assets/specs/privilege.spec",
        "--program",
        "assets/programs/vulnerable.mimp",
        "--trace",
    ]);
    assert!(!ok, "violations exit nonzero");
    assert!(text.contains("VIOLATION"), "{text}");
    assert!(text.contains("witness:"), "{text}");
    assert!(text.contains("execl"), "{text}");
}

#[test]
fn check_passes_the_safe_program() {
    let (ok, text) = rasc(&[
        "check",
        "--spec",
        "assets/specs/privilege.spec",
        "--program",
        "assets/programs/safe.mimp",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("ok: property holds"), "{text}");
}

#[test]
fn check_reports_a_non_ascii_identifier_as_a_parse_error() {
    let path = std::env::temp_dir().join("rasc_cli_non_ascii.mimp");
    std::fs::write(&path, "fn mäin() {\n  event execl;\n}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args([
            "check",
            "--spec",
            "assets/specs/privilege.spec",
            "--program",
        ])
        .arg(&path)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    let (_, text) = report(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("unexpected character 'ä'"), "{text}");
}

#[test]
fn check_engines_agree() {
    for (program, violating) in [("vulnerable", true), ("safe", false)] {
        let verdicts: Vec<String> = ["constraints", "forward", "pushdown"]
            .into_iter()
            .map(|engine| {
                let (ok, text) = rasc(&[
                    "check",
                    "--spec",
                    "assets/specs/privilege.spec",
                    "--program",
                    &format!("assets/programs/{program}.mimp"),
                    "--engine",
                    engine,
                ]);
                assert_eq!(ok, !violating, "{program} under {engine}: {text}");
                // The verdict line names the violation count or the
                // checked point count, without the engine.
                text.lines().next().unwrap_or_default().to_owned()
            })
            .collect();
        assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "{program}: {verdicts:?}"
        );
    }
}

#[test]
fn flow_answers_the_figure_11_queries() {
    let (ok, text) = rasc(&[
        "flow",
        "--program",
        "assets/programs/fig11.mlam",
        "--from",
        "B",
        "--to",
        "V",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("B flows to V (matched): true"), "{text}");
    let (ok, text) = rasc(&[
        "flow",
        "--program",
        "assets/programs/fig11.mlam",
        "--from",
        "A",
        "--to",
        "V",
        "--dual",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("A flows to V (matched): false"), "{text}");
}

#[test]
fn points_to_alias_queries() {
    let (ok, text) = rasc(&[
        "points-to",
        "--program",
        "assets/programs/section_7_5.mptr",
        "--alias",
        "foo::x",
        "foo::y",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("may-alias(foo::x, foo::y) = true"), "{text}");
    let (ok, text) = rasc(&[
        "points-to",
        "--program",
        "assets/programs/section_7_5.mptr",
        "--alias",
        "foo::x",
        "foo::y",
        "--stack-aware",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("may-alias(foo::x, foo::y) = false"), "{text}");
}

#[test]
fn dataflow_at_labels() {
    let base = [
        "dataflow",
        "--program",
        "assets/programs/dataflow.mimp",
        "--fact",
        "x=def_x/kill_x",
    ];
    let (ok, text) = rasc(&[&base[..], &["--at", "p"]].concat());
    assert!(ok, "{text}");
    assert!(text.contains("at `p`: {x}"), "{text}");
    let (ok, text) = rasc(&[&base[..], &["--at", "q"]].concat());
    assert!(ok, "{text}");
    assert!(text.contains("at `q`: {}"), "{text}");
}

#[test]
fn spec_reports_machine_shape() {
    let (ok, text) = rasc(&["spec", "--spec", "assets/specs/privilege.spec", "--monoid"]);
    assert!(ok, "{text}");
    assert!(text.contains("states: 3"), "{text}");
    assert!(text.contains("|F_M^≡| = "), "{text}");
    let (ok, text) = rasc(&["spec", "--spec", "assets/specs/privilege.spec", "--dot"]);
    assert!(ok);
    assert!(text.contains("digraph"), "{text}");
}

#[test]
fn cfg_stats_and_dot() {
    let (ok, text) = rasc(&["cfg", "--program", "assets/programs/vulnerable.mimp"]);
    assert!(ok, "{text}");
    assert!(text.contains("program points:"), "{text}");
    let (ok, text) = rasc(&[
        "cfg",
        "--program",
        "assets/programs/vulnerable.mimp",
        "--dot",
    ]);
    assert!(ok);
    assert!(text.contains("digraph cfg"), "{text}");
}

#[test]
fn parametric_check_via_cli() {
    // A leaky program against the parametric file-state property.
    let dir = std::env::temp_dir().join("rasc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("leak.mimp");
    std::fs::write(
        &prog,
        "fn main() { event open(fd1); event open(fd2); event close(fd1); }",
    )
    .unwrap();
    let (ok, text) = rasc(&[
        "check",
        "--spec",
        "assets/specs/file_state.spec",
        "--program",
        prog.to_str().unwrap(),
    ]);
    assert!(!ok, "fd2 leaks: {text}");
    assert!(text.contains("VIOLATION"), "{text}");
    // The single-machine engines cannot tell fd1 from fd2: they refuse
    // the spec instead of reporting a different set of violations.
    for engine in ["forward", "pushdown"] {
        let (ok, text) = rasc(&[
            "check",
            "--spec",
            "assets/specs/file_state.spec",
            "--program",
            prog.to_str().unwrap(),
            "--engine",
            engine,
        ]);
        assert!(!ok, "{engine}: {text}");
        assert!(
            text.contains("use --engine constraints"),
            "{engine}: {text}"
        );
        assert!(!text.contains("VIOLATION"), "{engine}: {text}");
    }
}

#[test]
fn bad_usage_is_reported() {
    let (ok, text) = rasc(&["check", "--spec", "assets/specs/privilege.spec"]);
    assert!(!ok);
    assert!(text.contains("missing required option --program"), "{text}");
    let (ok, text) = rasc(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"), "{text}");
    let (ok, text) = rasc(&[
        "check",
        "--spec",
        "assets/specs/privilege.spec",
        "--program",
        "assets/programs/vulnerable.mimp",
        "--tracee",
    ]);
    assert!(!ok, "a misspelled flag must not be ignored: {text}");
    assert!(text.contains("unknown option --tracee for check"), "{text}");
    let (ok, text) = rasc(&[
        "serve",
        "--spec",
        "assets/specs/privilege.spec",
        "--solve-threads",
        "4",
    ]);
    assert!(!ok, "{text}");
    assert!(
        text.contains("unknown option --solve-threads for serve"),
        "{text}"
    );
    let (ok, text) = rasc(&["help"]);
    assert!(ok);
    assert!(text.contains("usage:"), "{text}");
}

#[test]
fn batch_runs_an_incremental_session() {
    let (ok, text, _) = run_session("rasc_cli_session_test", &[]);
    assert!(ok, "{text}");
    let lines: Vec<&str> = text.lines().collect();
    // One response per non-comment line of the script.
    assert_eq!(lines.len(), 24, "{text}");
    assert!(
        lines[5].contains(r#""result":true"#),
        "pc reaches Exec accepting: {text}"
    );
    assert!(
        lines[8].contains(r#""result":true"#),
        "the Error state absorbs, so the mid-epoch extension still accepts: {text}"
    );
    assert!(lines[10].contains(r#""ok":"pop""#), "{text}");
    assert!(
        lines[11].contains(r#""result":true"#),
        "pre-epoch result restored: {text}"
    );
    assert!(lines[12].contains(r#""ok":"stats""#), "{text}");
    // Limits / error-recovery tail of the script.
    assert!(
        lines[13].contains(r#""ok":"limits""#) && lines[13].contains(r#""max_steps":1"#),
        "{text}"
    );
    assert!(
        lines[14].contains(r#""code":"budget_exhausted""#)
            && lines[14].contains(r#""reason":"steps""#)
            && lines[14].contains(r#""rolled_back":true"#),
        "budgeted add must fail transactionally: {text}"
    );
    assert!(
        lines[15].contains(r#""ok":"limits""#) && lines[15].contains(r#""max_steps":null"#),
        "bare limits clears every cap: {text}"
    );
    assert!(
        lines[16].contains(r#""ok":"add""#),
        "unbudgeted retry succeeds: {text}"
    );
    assert!(
        lines[17].contains(r#""result":true"#),
        "the retried edge is live: {text}"
    );
    assert!(
        lines[18].contains(r#""ok":"explain""#)
            && lines[18].contains(r#""holds":true"#)
            && lines[18].contains(r#""rule":"constraint""#),
        "explain cites the surface constraints behind the bound: {text}"
    );
    assert!(
        lines[19].contains(r#""code":"unknown_command""#),
        "errors stay in-band: {text}"
    );
    assert!(
        lines[20].contains(r#""ok":"stats""#) && lines[20].contains(r#""fuel_spent""#),
        "{text}"
    );
    // Persistence tail: snapshot, restore, and the round-tripped query.
    assert!(
        lines[21].contains(r#""ok":"snapshot""#) && lines[21].contains(r#""bytes""#),
        "{text}"
    );
    assert!(
        lines[22].contains(r#""ok":"restore""#) && lines[22].contains(r#""consistent":true"#),
        "{text}"
    );
    assert!(
        lines[23].contains(r#""result":true"#),
        "the restored solved form answers without replay: {text}"
    );
}

#[test]
fn batch_trace_writes_a_valid_chrome_trace() {
    let (ok, text, dir) = run_session(
        "rasc_cli_trace_test",
        &["--trace", "session_trace.json", "--profile"],
    );
    assert!(ok, "{text}");
    // --trace reports what it wrote; --profile prints the event summary.
    assert!(text.contains("trace events"), "{text}");
    assert!(text.contains("counters:"), "{text}");
    assert!(text.contains("solver.facts"), "{text}");
    // The file is a schema-valid Chrome trace with real solver activity.
    let trace = std::fs::read_to_string(dir.join("session_trace.json")).unwrap();
    let summary = rasc_devtools::validate_chrome_trace(&trace).expect("schema-valid trace");
    assert!(summary.events > 0);
    assert_eq!(summary.begins, summary.ends, "spans balance");
    assert!(summary.counters > 0);
}

#[test]
fn batch_flushes_each_response_while_stdin_stays_open() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::Duration;

    let mut child = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args(["batch", "--spec", "assets/specs/privilege.spec"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();

    // A driver holding its pipe open must see each response as soon as
    // it sends the command — not when the stream ends.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    for (cmd, expect) in [
        (r#"{"cmd":"declare","cons":"pc"}"#, r#""ok":"declare""#),
        (r#"{"cmd":"add","lhs":"pc","rhs":"Main"}"#, r#""ok":"add""#),
    ] {
        writeln!(stdin, "{cmd}").unwrap();
        stdin.flush().unwrap();
        let response = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("response must arrive while stdin is still open");
        assert!(response.contains(expect), "{response}");
    }
    drop(stdin);
    reader.join().unwrap();
    assert!(child.wait().unwrap().success());
}

#[test]
fn snapshot_and_restore_subcommands_round_trip() {
    let dir = std::env::temp_dir().join("rasc_cli_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let build = dir.join("build.jsonl");
    std::fs::write(
        &build,
        concat!(
            "{\"cmd\":\"declare\",\"cons\":\"pc\"}\n",
            "{\"cmd\":\"add\",\"lhs\":\"pc\",\"rhs\":\"Main\",\"ann\":[\"seteuid_zero\",\"execl\"]}\n",
        ),
    )
    .unwrap();
    let snap = dir.join("cli.snap");

    let (ok, text) = rasc(&[
        "snapshot",
        "--spec",
        "assets/specs/privilege.spec",
        "--input",
        build.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("-byte snapshot to"), "{text}");
    assert!(snap.exists());

    // `rasc restore` answers queries from the solved form — no replay.
    let query = dir.join("query.jsonl");
    std::fs::write(
        &query,
        "{\"cmd\":\"query\",\"kind\":\"occurs\",\"var\":\"Main\",\"cons\":\"pc\"}\n",
    )
    .unwrap();
    let (ok, text) = rasc(&[
        "restore",
        "--spec",
        "assets/specs/privilege.spec",
        "--snapshot",
        snap.to_str().unwrap(),
        "--input",
        query.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("restored 1 constraints"), "{text}");
    assert!(text.contains(r#""result":true"#), "{text}");

    // A torn snapshot is refused with the typed corruption error, not a
    // panic or a silent mis-restore.
    let torn = dir.join("torn.snap");
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let (ok, text) = rasc(&[
        "restore",
        "--spec",
        "assets/specs/privilege.spec",
        "--snapshot",
        torn.to_str().unwrap(),
        "--input",
        query.to_str().unwrap(),
    ]);
    assert!(!ok, "a torn snapshot must fail the restore: {text}");
    assert!(text.contains("corrupt"), "{text}");
}

/// The batch protocol's error codes are a stable API surface — drivers
/// and the server's clients match on them. This pins every code the
/// README documents, including the snapshot taxonomy.
#[test]
fn batch_error_codes_are_stable() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("rasc_cli_codes_test");
    std::fs::create_dir_all(&dir).unwrap();
    let torn = dir.join("torn.snap");
    std::fs::write(&torn, b"RASCSNAP\x01not a real snapshot").unwrap();
    let missing = dir.join("does_not_exist.snap");
    let _ = std::fs::remove_file(&missing);

    let script: Vec<(String, &str)> = vec![
        ("not json at all".into(), "malformed_json"),
        (r#"{"cmd":"frobnicate"}"#.into(), "unknown_command"),
        (r#"{"cmd":"add","lhs":"pc"}"#.into(), "bad_request"),
        (r#"{"cmd":"declare","cons":"pc"}"#.into(), "ok"),
        (
            r#"{"cmd":"add","lhs":"pc","rhs":"V","ann":["no_such_symbol"]}"#.into(),
            "unknown_symbol",
        ),
        (
            r#"{"cmd":"query","kind":"occurs","var":"Missing","cons":"pc"}"#.into(),
            "unknown_variable",
        ),
        (r#"{"cmd":"add","lhs":"pc","rhs":"Main"}"#.into(), "ok"),
        (
            r#"{"cmd":"query","kind":"occurs","var":"Main","cons":"zork"}"#.into(),
            "unknown_constructor",
        ),
        (r#"{"cmd":"pop"}"#.into(), "no_open_epoch"),
        (r#"{"cmd":"stats","scope":"request"}"#.into(), "bad_request"),
        (r#"{"cmd":"stats","scope":"bogus"}"#.into(), "bad_request"),
        (r#"{"cmd":"stats","scope":7}"#.into(), "bad_request"),
        (r#"{"cmd":"snapshot"}"#.into(), "bad_request"),
        (
            format!(r#"{{"cmd":"restore","path":"{}"}}"#, missing.display()),
            "io",
        ),
        (
            format!(r#"{{"cmd":"restore","path":"{}"}}"#, torn.display()),
            "snapshot_corrupt",
        ),
        (r#"{"cmd":"limits","max_steps":1}"#.into(), "ok"),
        (
            r#"{"cmd":"add","lhs":"Main","rhs":"Tail","ann":["execl"]}"#.into(),
            "budget_exhausted",
        ),
    ];

    let mut child = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args(["batch", "--spec", "assets/specs/privilege.spec"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    {
        let mut stdin = child.stdin.take().unwrap();
        for (line, _) in &script {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{text}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), script.len(), "{text}");
    for (i, (line, want)) in script.iter().enumerate() {
        if *want == "ok" {
            assert!(lines[i].contains(r#""ok":"#), "{line} -> {}", lines[i]);
        } else {
            assert!(
                lines[i].contains(&format!(r#""code":"{want}""#)),
                "stable code `{want}` for `{line}` -> {}",
                lines[i]
            );
        }
    }
}

#[test]
fn batch_reports_protocol_errors_in_band() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rasc"))
        .args(["batch", "--spec", "assets/specs/privilege.spec"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"pop\"}\n{\"cmd\":\"declare\",\"cons\":\"c\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{text}");
    assert!(text.lines().next().unwrap().contains("error"), "{text}");
    assert!(text.lines().nth(1).unwrap().contains("declare"), "{text}");
}
