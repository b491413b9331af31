//! `vex serve` must refuse a submission whose program fails static
//! analysis — at SUBMIT time, over the wire, before any worker sees a
//! job — and stay healthy for subsequent well-formed submissions. The
//! client reads no program files, so the refusal is the server's.
//!
//! The probe program passes the structural validator (per-instruction
//! shape is fine) but const-prop proves its store lands in the code
//! space, so only the analyzer can reject it.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const VEX: &str = env!("CARGO_BIN_EXE_vex");

/// A structurally valid program whose store address folds to
/// 0x40000100 — inside the code space, a mem-bounds analysis error.
const BAD_PROGRAM: &str = "\
.name oob
.clusters 4
.code
  c0 mov $r0.1 = 0x40000000
;;
  nop
;;
  c0 stw 256[$r0.1] = $r0.0
;;
  c0 halt
;;
";

/// A bundle five ALU ops wide: it can never issue on the 4-slot paper
/// machine, so the service must refuse it before any worker sees it.
const FAT_PROGRAM: &str = "\
.name fat
.clusters 4
.code
  c0 mov $r0.1 = 1
  c0 mov $r0.2 = 2
  c0 mov $r0.3 = 3
  c0 mov $r0.4 = 4
  c0 mov $r0.5 = 5
;;
  c0 halt
;;
";

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vex_serve_reject_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_server(dir: &Path) -> (Child, String, PathBuf) {
    let port_file = dir.join("port");
    let log_path = dir.join("server.log");
    let log = std::fs::File::create(&log_path).unwrap();
    let child = Command::new(VEX)
        .arg("serve")
        .args(["--listen", "127.0.0.1:0", "--zero-wall", "--workers", "1"])
        .args(["--port-file", port_file.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(log))
        .spawn()
        .expect("spawn vex serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(a) = std::fs::read_to_string(&port_file) {
            if !a.is_empty() {
                break a;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its port file; log:\n{}",
            std::fs::read_to_string(&log_path).unwrap_or_default()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr, log_path)
}

fn submit(dir: &Path, spec: &Path, addr: &str, out_name: &str) -> (i32, String) {
    let out = Command::new(VEX)
        .arg("submit")
        .arg(spec)
        .args(["--connect", addr.trim()])
        .args(["--out", dir.join(out_name).to_str().unwrap()])
        .args(["--poll-ms", "20"])
        .output()
        .expect("run vex submit");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn analysis_errors_are_refused_at_submit() {
    let dir = scratch();
    let program = dir.join("oob.vex");
    std::fs::write(&program, BAD_PROGRAM).unwrap();
    let bad_spec = dir.join("bad.toml");
    std::fs::write(
        &bad_spec,
        format!(
            "name = \"reject\"\n\
             inst_limit = 1000\n\
             timeslice = 500\n\
             techniques = [\"SMT\"]\n\
             threads = [1]\n\
             [[mix]]\n\
             name = \"oobmix\"\n\
             members = [\"{}\"]\n",
            program.display()
        ),
    )
    .unwrap();
    let good_spec = dir.join("good.toml");
    std::fs::write(
        &good_spec,
        "name = \"ok\"\n\
         inst_limit = 1000\n\
         timeslice = 500\n\
         techniques = [\"SMT\"]\n\
         threads = [1]\n\
         mixes = [\"llll\"]\n",
    )
    .unwrap();

    let (mut child, addr, log_path) = spawn_server(&dir);
    let result = std::panic::catch_unwind(|| {
        let (code, stderr) = submit(&dir, &bad_spec, &addr, "bad.json");
        assert_ne!(code, 0, "a rejected submission must not exit 0:\n{stderr}");
        assert!(
            stderr.contains("server rejected the spec") && stderr.contains("static analysis"),
            "the server must refuse, naming static analysis as the cause:\n{stderr}"
        );
        // The refusal happened before scheduling: no point of the bad
        // spec was ever assigned to a worker.
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        assert!(
            !log.contains("oobmix"),
            "the rejected spec must never reach the scheduler:\n{log}"
        );
        // An infeasible bundle (5 ops on a 4-slot cluster) is refused the
        // same way: at SUBMIT, before scheduling.
        let fat = dir.join("fat.vex");
        std::fs::write(&fat, FAT_PROGRAM).unwrap();
        let fat_spec = dir.join("fat.toml");
        std::fs::write(
            &fat_spec,
            format!(
                "name = \"reject-fat\"\n\
                 inst_limit = 1000\n\
                 timeslice = 500\n\
                 techniques = [\"SMT\"]\n\
                 threads = [1]\n\
                 [[mix]]\n\
                 name = \"fatmix\"\n\
                 members = [\"{}\"]\n",
                fat.display()
            ),
        )
        .unwrap();
        let (code, stderr) = submit(&dir, &fat_spec, &addr, "fat.json");
        assert_ne!(code, 0, "an infeasible bundle must be refused:\n{stderr}");
        assert!(
            stderr.contains("server rejected the spec")
                && stderr.contains("exceed")
                && stderr.contains("issue slots"),
            "the server must refuse, naming the infeasible bundle:\n{stderr}"
        );
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        assert!(
            !log.contains("fatmix"),
            "the infeasible spec must never reach the scheduler:\n{log}"
        );

        // The server is still healthy: a clean spec completes normally.
        let (code, stderr) = submit(&dir, &good_spec, &addr, "good.json");
        assert_eq!(code, 0, "follow-up submission failed:\n{stderr}\n{log}");
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}
