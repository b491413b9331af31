//! The `vex` command-line contract: every subcommand reports a bad
//! invocation with exit code 2, numbers outside a flag's range are bad
//! invocations, each mode has one name, the `vex run` report (from flags
//! and from a one-point spec) and the `vex help` layout are pinned.
//!
//! Every `vex serve` case listens on `127.0.0.1:99999`, whose port is out
//! of range: should a case ever get past argument reading, the server
//! fails at bind (exit 1) before it starts a single worker process, and
//! without a name lookup (a host that is not an IP literal, such as
//! `256.0.0.1`, would go to the resolver first).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const VEX: &str = env!("CARGO_BIN_EXE_vex");

/// Keeps `vex serve` from ever binding (see the module docs).
const NO_BIND: [&str; 2] = ["--listen", "127.0.0.1:99999"];

/// Runs `vex` from the workspace root with stdin closed.
fn vex(args: &[&str]) -> Output {
    Command::new(VEX)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdin(Stdio::null())
        .output()
        .expect("spawn vex")
}

/// Runs every case and fails listing each one whose exit code differs.
#[track_caller]
fn assert_exits(cases: &[(Vec<&str>, i32)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|(args, want)| {
            let out = vex(args);
            (out.status.code() != Some(*want)).then(|| {
                format!(
                    "vex {}: exit {:?}, want {want}; stderr: {}",
                    args.join(" "),
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr).trim_end()
                )
            })
        })
        .collect();
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// Each subcommand with the arguments that precede a tested one, a flag
/// that takes a value, and whether it takes a single file operand.
fn subcommands() -> Vec<(Vec<&'static str>, Option<&'static str>, bool)> {
    vec![
        (vec!["asm"], Some("-o"), true),
        (vec!["check"], Some("--machine"), true),
        (vec!["disasm"], Some("--output"), true),
        (vec!["run"], Some("--threads"), false),
        (vec!["trace"], Some("--out"), true),
        (vec!["sweep"], Some("--out"), true),
        (
            vec!["serve", NO_BIND[0], NO_BIND[1]],
            Some("--port-file"),
            true,
        ),
        (vec!["worker"], Some("--connect"), false),
        (vec!["submit"], Some("--connect"), true),
        (vec!["fuzz"], Some("--seed-count"), false),
        (vec!["export-workloads"], None, true),
    ]
}

fn with<'a>(head: &[&'a str], tail: &[&'a str]) -> Vec<&'a str> {
    head.iter().chain(tail).copied().collect()
}

#[test]
fn every_subcommand_rejects_bad_invocations_with_exit_2() {
    let mut cases = Vec::new();
    for (head, value_flag, one_operand) in subcommands() {
        cases.push((with(&head, &["--no-such-flag"]), 2));
        if let Some(flag) = value_flag {
            cases.push((with(&head, &[flag]), 2));
        }
        if one_operand {
            cases.push((with(&head, &["a.in", "b.in"]), 2));
        }
    }
    // `--attribute` used to take its path over an earlier operand.
    cases.push((vec!["trace", "a.vext", "--attribute", "b.vext"], 2));
    // A sweep attempts each point once: `--retries` is refused before the
    // spec is read (only `vex serve` has a retry budget).
    cases.push((vec!["sweep", "a.toml", "--retries", "1"], 2));
    assert_exits(&cases);
}

#[test]
fn numbers_outside_a_flags_range_exit_2() {
    let serve = |flag, v| (vec!["serve", NO_BIND[0], NO_BIND[1], flag, v], 2);
    assert_exits(&[
        (vec!["run", "--threads", "0"], 2),
        (vec!["run", "--threads", "300"], 2),
        (vec!["sweep", "--workers", "0"], 2),
        (vec!["fuzz", "--seed-count", "0"], 2),
        (vec!["fuzz", "--size", "0"], 2),
        (vec!["submit", "--poll-ms", "0"], 2),
        serve("--heartbeat-ms", "0"),
        serve("--quarantine", "0"),
        serve("--retries", "4294967296"),
        serve("--workers", "4294967296"),
        serve("--workers", "1025"),
    ]);
}

#[test]
fn each_mode_has_one_name() {
    let run = |mt| {
        vec![
            "run",
            "tests/fixtures/golden.vex",
            "--threads",
            "1",
            "--mt",
            mt,
        ]
    };
    assert_exits(&[(run("interleaved"), 2), (run("imt"), 0)]);
}

#[test]
fn run_report_is_pinned() {
    let out = vex(&[
        "run",
        "tests/fixtures/golden.vex",
        "--threads",
        "4",
        "--technique",
        "cosi",
        "--comm",
        "as",
        "--mt",
        "imt",
        "--memory",
        "perfect",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = include_str!("fixtures/cli/run_report.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn help_lists_run_options_under_run() {
    let out = vex(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let at = |s: &str| {
        help.find(s)
            .unwrap_or_else(|| panic!("`{s}` missing from help"))
    };
    assert!(
        at("RUN OPTIONS:") < at("--technique") && at("--technique") < at("TRACE OPTIONS:"),
        "`--technique` must sit between `RUN OPTIONS:` and `TRACE OPTIONS:`\n{help}"
    );
}

/// A fresh scratch directory for one test of this process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vex_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A quick-scale spec of built-ins that expands to exactly one point,
/// with `extra` appended at the top level.
fn one_point_spec(extra: &str) -> String {
    format!(
        "name = \"one-point\"\n\
         scale = \"quick\"\n\
         techniques = [\"CCSI AS\"]\n\
         threads = [2]\n\
         mixes = [\"llhh\"]\n{extra}"
    )
}

#[test]
fn run_spec_report_is_pinned() {
    let dir = scratch_dir("run_spec");
    let spec = dir.join("one.toml");
    std::fs::write(&spec, one_point_spec("")).unwrap();
    let out = vex(&["run", "--spec", spec.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = include_str!("fixtures/cli/run_spec_report.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_spec_trace_flag_overrides_the_specs_trace_key() {
    let dir = scratch_dir("run_spec_trace");
    let (from_spec, from_flag) = (dir.join("from_spec.vext"), dir.join("from_flag.vext"));
    let spec = dir.join("traced.toml");
    let key = format!("trace = \"{}\"\n", from_spec.display());
    std::fs::write(&spec, one_point_spec(&key)).unwrap();
    let out = vex(&[
        "run",
        "--spec",
        spec.to_str().unwrap(),
        "--trace",
        from_flag.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Tracing does not change the run.
    let want = include_str!("fixtures/cli/run_spec_report.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    let trace = std::fs::read(&from_flag).expect("the --trace file is written");
    assert!(trace.starts_with(b"VEXT"), "not a .vext trace");
    assert!(
        !from_spec.exists(),
        "the spec's own trace path must not be created"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_spec_of_two_points_exits_3_and_names_sweep() {
    let dir = scratch_dir("run_spec_two");
    let spec = dir.join("two.toml");
    let text = one_point_spec("").replace("[\"CCSI AS\"]", "[\"CSMT\", \"CCSI AS\"]");
    std::fs::write(&spec, text).unwrap();
    let out = vex(&["run", "--spec", spec.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("expands to 2 grid points") && stderr.contains("vex sweep"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
