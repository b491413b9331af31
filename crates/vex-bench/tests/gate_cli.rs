//! The `bench-gate` command-line contract, driven through tiny shell
//! scripts: exit 1 and an `::error` annotation on a regression, 0 on a
//! pass, 2 on a failed run or a usage error.
#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The scripts, all written before any test spawns a process: a script
/// still open for writing in one thread while another forks could not
/// be executed ("text file busy").
fn scripts() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("bench_gate_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body) in [
            ("fast.sh", "sleep 0.05"),
            ("slow.sh", "sleep 0.08"),
            ("broken.sh", "echo 'no such input' >&2; exit 3"),
            ("a.sh", "echo a >> \"$(dirname \"$0\")/order.log\""),
            ("b.sh", "echo b >> \"$(dirname \"$0\")/order.log\""),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        dir
    })
}

fn gate(args: &[&str]) -> Output {
    let dir = scripts();
    let args: Vec<PathBuf> = args.iter().map(|a| dir.join(a)).collect();
    Command::new(env!("CARGO_BIN_EXE_bench-gate"))
        .args(&args)
        .output()
        .unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_slower_change_fails_with_an_error_annotation() {
    let out = gate(&["fast.sh", "slow.sh"]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("bench-gate: FAIL"), "{stdout}");
    assert!(stdout.contains("::error"), "{stdout}");
    assert_eq!(stdout.matches("round ").count(), 12, "{stdout}");
}

#[test]
fn the_same_script_twice_passes() {
    let out = gate(&["fast.sh", "fast.sh"]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("bench-gate: PASS"), "{stdout}");
    assert!(!stdout.contains("::error"), "{stdout}");
}

#[test]
fn the_parent_goes_first_in_odd_rounds_and_the_change_in_even_ones() {
    // Runs of a few milliseconds: either verdict is noise here.
    let out = gate(&["a.sh", "b.sh"]);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
    let order = std::fs::read_to_string(scripts().join("order.log")).unwrap();
    assert_eq!(
        order.split_whitespace().collect::<String>(),
        "abba".repeat(6)
    );
}

#[test]
fn a_failed_run_exits_2_naming_the_script_and_its_status() {
    let out = gate(&["broken.sh", "fast.sh"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("broken.sh"), "{stderr}");
    assert!(stderr.contains("exit status: 3"), "{stderr}");
    assert!(stderr.contains("no such input"), "{stderr}");
}

#[test]
fn a_missing_operand_exits_2_with_the_usage_line() {
    let out = gate(&["fast.sh"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("usage: bench-gate PARENT CHANGE [-- ARGS...]"));
}
