//! Supervision tests for the `vex serve` sweep service: real server and
//! worker *processes*, scripted faults (worker SIGKILL-equivalents via
//! abort, silent hangs, poison points, server SIGKILL + resume), and the
//! crash-equivalence bar: with a fixed spec and `--zero-wall`, the JSON a
//! client assembles after any scripted fault schedule must be
//! byte-identical to an uninterrupted run's.
//!
//! Fault injection rides the `VEX_WORKER_FAULT` environment variable
//! (documented in `vex-serve`'s worker module), which the server passes
//! through to the pool it spawns.
//!
//! Every server and client runs in the directory it is given, so a test
//! can give the two different copies of a program file.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const VEX: &str = env!("CARGO_BIN_EXE_vex");

/// Per-test scratch directory under the target tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vex_serve_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small two-point spec: quick to simulate, two distinct labels
/// (`llll/CSMT/2t/paper`, `llll/SMT/2t/paper`) so poison directives can
/// target exactly one of them.
const SPEC: &str = "\
name = \"srv\"
inst_limit = 2000
timeslice = 500
techniques = [\"CSMT\", \"SMT\"]
threads = [2]
mixes = [\"llll\"]
";

/// A three-point superset of [`SPEC`] (adds CCSI AS) for resume tests.
const SPEC_SUPERSET: &str = "\
name = \"srv\"
inst_limit = 2000
timeslice = 500
techniques = [\"CSMT\", \"SMT\", \"CCSI AS\"]
threads = [2]
mixes = [\"llll\"]
";

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

/// A running `vex serve` process, killed on drop so a failing test never
/// leaks servers (worker children die with their queue on the next GET,
/// or at worst as orphans of a dead supervisor with no listener).
struct Server {
    child: Child,
    addr: String,
    stderr_path: PathBuf,
}

impl Server {
    /// Spawns a server with `extra` flags, waits for its port file.
    fn spawn(dir: &Path, tag: &str, extra: &[&str], fault: Option<&str>) -> Server {
        let port_file = dir.join(format!("port_{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let stderr_path = dir.join(format!("server_{tag}.log"));
        let log = std::fs::File::create(&stderr_path).unwrap();
        let mut cmd = Command::new(VEX);
        cmd.arg("serve")
            .current_dir(dir)
            .args(["--listen", "127.0.0.1:0", "--zero-wall", "--workers", "2"])
            .args(["--port-file", port_file.to_str().unwrap()])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log));
        match fault {
            Some(f) => cmd.env("VEX_WORKER_FAULT", f),
            None => cmd.env_remove("VEX_WORKER_FAULT"),
        };
        let child = cmd.spawn().expect("spawn vex serve");
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
                std::fs::read_to_string(&stderr_path).unwrap_or_default()
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Server {
            child,
            addr,
            stderr_path,
        }
    }

    fn log(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// The log once it contains `line`, or as it stands after the 20 s
    /// `spawn` allows: the server writes its port file before it replays
    /// its journal, so lines about the replay may still be due when
    /// `spawn` returns.
    fn log_after(&self, line: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let log = self.log();
            if log.contains(line) || Instant::now() >= deadline {
                return log;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGTERM + wait: the graceful-drain exit must be 0.
    fn drain(mut self) -> (String, bool) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(self.child.id() as i32, 15);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Ok(Some(s)) = self.child.try_wait() {
                break s;
            }
            assert!(
                Instant::now() < deadline,
                "server did not drain within 30s; log:\n{}",
                self.log()
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let log = self.log();
        // Disarm the drop-kill: the child is already reaped.
        std::mem::forget(self);
        (log, status.success())
    }

    /// SIGKILL mid-flight (the server gets no chance to clean up).
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::mem::forget(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `vex submit` in `dir` against `addr`; returns (exit code, JSON
/// written to `out`, stderr text). A client still running after 60 s is
/// killed and reads as exit code -1.
fn submit(dir: &Path, spec: &Path, addr: &str, out_name: &str) -> (i32, String, String) {
    let out_path = dir.join(out_name);
    let err_path = dir.join(format!("{out_name}.stderr"));
    let mut child = Command::new(VEX)
        .current_dir(dir)
        .arg("submit")
        .arg(spec)
        .args(["--connect", addr.trim()])
        .args(["--out", out_path.to_str().unwrap()])
        .args(["--poll-ms", "20"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(std::fs::File::create(&err_path).unwrap()))
        .spawn()
        .expect("run vex submit");
    let deadline = Instant::now() + Duration::from_secs(60);
    let code = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status.code().unwrap_or(-1);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break -1;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let json = std::fs::read_to_string(&out_path).unwrap_or_default();
    (code, json, stderr)
}

/// The reference result: an uninterrupted in-process `vex sweep` in `dir`
/// of the same spec with `--zero-wall` — the service must reproduce these
/// bytes under every fault schedule.
fn reference_json(dir: &Path, spec: &Path, out_name: &str) -> String {
    let out_path = dir.join(out_name);
    let output = Command::new(VEX)
        .current_dir(dir)
        .arg("sweep")
        .arg(spec)
        .args(["--zero-wall", "--out", out_path.to_str().unwrap()])
        .output()
        .expect("run vex sweep");
    assert!(
        output.status.success(),
        "reference sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(&out_path).unwrap()
}

// ---- the tests ----------------------------------------------------

#[test]
fn clean_sweep_then_resubmit_hits_the_cache() {
    let dir = scratch("clean");
    let spec = write(&dir, "spec.toml", SPEC);
    let reference = reference_json(&dir, &spec, "ref.json");

    let server = Server::spawn(&dir, "clean", &[], None);
    let (code, json, stderr) = submit(&dir, &spec, &server.addr, "out1.json");
    assert_eq!(code, 0, "first submit failed:\n{stderr}\n{}", server.log());
    assert_eq!(json, reference, "service output != in-process sweep");

    // Resubmitting a completed spec must perform zero simulations.
    let (code, json2, stderr) = submit(&dir, &spec, &server.addr, "out2.json");
    assert_eq!(code, 0, "resubmit failed:\n{stderr}");
    assert_eq!(json2, reference);
    assert!(
        stderr.contains("2 cached, 0 newly scheduled"),
        "resubmission must be answered entirely from the cache:\n{stderr}"
    );

    let (log, clean) = server.drain();
    assert!(clean, "drain must exit 0; log:\n{log}");
    assert!(log.contains("drained"), "{log}");
}

/// A program-file member is the server's copy of the file: the server
/// reads it (relative to its own directory) and keys its points, and the
/// client takes the keys from its reply, whatever its own copy holds.
#[test]
fn a_program_file_member_is_the_server_s_copy() {
    let dir = scratch("files");
    let (server_dir, client_dir) = (dir.join("server"), dir.join("client"));
    for d in [&server_dir, &client_dir] {
        std::fs::create_dir_all(d).unwrap();
    }
    let out = Command::new(VEX)
        .arg("export-workloads")
        .arg(dir.join("wl"))
        .output()
        .expect("run vex export-workloads");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let kernel = |name: &str, to: &Path| {
        std::fs::copy(dir.join("wl").join(format!("{name}.vex")), to.join("k.vex")).unwrap();
    };
    kernel("mcf", &server_dir);
    kernel("bzip2", &client_dir);
    let spec = write(
        &dir,
        "spec.toml",
        "name = \"files\"\ninst_limit = 2000\ntimeslice = 500\n\
         techniques = [\"CSMT\", \"SMT\"]\nthreads = [1]\n\
         [[mix]]\nname = \"k\"\nmembers = [\"k.vex\"]\n",
    );
    let reference = reference_json(&server_dir, &spec, "ref.json");

    let server = Server::spawn(&server_dir, "files", &[], None);
    let (code, json, stderr) = submit(&client_dir, &spec, &server.addr, "differs.json");
    assert_eq!(
        code,
        0,
        "a client whose k.vex differs:\n{stderr}\n{}",
        server.log()
    );
    assert_eq!(json, reference, "the points must be the server's k.vex");
    std::fs::remove_file(client_dir.join("k.vex")).unwrap();
    let (code, json, stderr) = submit(&client_dir, &spec, &server.addr, "missing.json");
    assert_eq!(
        code,
        0,
        "a client with no k.vex:\n{stderr}\n{}",
        server.log()
    );
    assert_eq!(json, reference);
    assert!(stderr.contains("2 cached, 0 newly scheduled"), "{stderr}");
    let (_, clean) = server.drain();
    assert!(clean);
}

#[test]
fn crashed_worker_is_retried_and_output_is_byte_identical() {
    let dir = scratch("crash");
    let spec = write(&dir, "spec.toml", SPEC);
    let reference = reference_json(&dir, &spec, "ref.json");

    let marker = dir.join("crash_marker");
    let server = Server::spawn(
        &dir,
        "crash",
        &[],
        Some(&format!("crash-once:{}", marker.display())),
    );
    let (code, json, stderr) = submit(&dir, &spec, &server.addr, "out.json");
    assert_eq!(code, 0, "submit failed:\n{stderr}\n{}", server.log());
    assert_eq!(json, reference, "a worker crash must not change the bytes");
    assert!(marker.exists(), "the fault was never injected");
    assert!(
        server.log().contains("worker exited"),
        "supervisor never reaped the crash:\n{}",
        server.log()
    );
    let (_, clean) = server.drain();
    assert!(clean);
}

#[test]
fn hung_worker_is_reaped_by_heartbeat_timeout() {
    let dir = scratch("hang");
    let spec = write(&dir, "spec.toml", SPEC);
    let reference = reference_json(&dir, &spec, "ref.json");

    let marker = dir.join("hang_marker");
    // Tight heartbeat so the 5x-interval reaper fires fast.
    let server = Server::spawn(
        &dir,
        "hang",
        &["--heartbeat-ms", "50"],
        Some(&format!("hang-once:{}", marker.display())),
    );
    let (code, json, stderr) = submit(&dir, &spec, &server.addr, "out.json");
    assert_eq!(code, 0, "submit failed:\n{stderr}\n{}", server.log());
    assert_eq!(json, reference, "a hung worker must not change the bytes");
    assert!(marker.exists(), "the fault was never injected");
    assert!(
        server.log().contains("reaping worker"),
        "the heartbeat reaper never fired:\n{}",
        server.log()
    );
    let (_, clean) = server.drain();
    assert!(clean);
}

#[test]
fn poison_point_fails_on_its_retry_budget_and_the_rest_completes() {
    let dir = scratch("poison");
    let spec = write(&dir, "spec.toml", SPEC);

    let counter = dir.join("poison_count");
    // The SMT point aborts its worker every time (100 >> 1 + retries).
    let server = Server::spawn(
        &dir,
        "poison",
        &["--retries", "1"],
        Some(&format!("poison:/SMT/:100:{}", counter.display())),
    );
    let (code, json, stderr) = submit(&dir, &spec, &server.addr, "out.json");
    assert_eq!(
        code,
        4,
        "a sweep with a failed point must exit 4:\n{stderr}\n{}",
        server.log()
    );
    assert!(
        stderr.contains("[crash  ] llll/SMT/2t"),
        "the failure must name the crashing point:\n{stderr}"
    );
    // The healthy point still completed and is in the JSON.
    assert!(json.contains("\"technique\": \"CSMT\""), "{json}");
    assert!(
        json.contains("\"cause\": \"crash\", \"attempts\": 2"),
        "{json}"
    );
    // The budget allowed exactly 1 + retries crashes, not the full 100.
    let crashes: u32 = std::fs::read_to_string(&counter)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(crashes, 2, "the retry budget must stop the crash loop");

    let (log, clean) = server.drain();
    assert!(clean, "a failed point must not block the drain:\n{log}");
}

#[test]
fn sigkilled_server_resumes_byte_identically_and_without_recomputing() {
    let dir = scratch("resume");
    let spec = write(&dir, "spec.toml", SPEC);
    let superset = write(&dir, "superset.toml", SPEC_SUPERSET);
    let reference = reference_json(&dir, &superset, "ref.json");
    let journal = dir.join("j.vexj");
    let jflags = ["--journal", journal.to_str().unwrap(), "--resume"];

    // First life: complete the two-point subset, then SIGKILL.
    let server = Server::spawn(&dir, "life1", &jflags, None);
    let (code, _, stderr) = submit(&dir, &spec, &server.addr, "out1.json");
    assert_eq!(code, 0, "subset submit failed:\n{stderr}\n{}", server.log());
    server.kill9();

    // Second life: resume the journal, submit the superset. Only the new
    // point may be scheduled; the bytes must match a clean run.
    let server = Server::spawn(&dir, "life2", &jflags, None);
    let log = server.log_after("replayed 2 completed point(s)");
    assert!(
        log.contains("replayed 2 completed point(s)"),
        "resume must replay the journal:\n{log}"
    );
    let (code, json, stderr) = submit(&dir, &superset, &server.addr, "out2.json");
    assert_eq!(code, 0, "superset submit failed:\n{stderr}");
    assert!(
        stderr.contains("2 cached, 1 newly scheduled"),
        "resume must only compute the new point:\n{stderr}"
    );
    assert_eq!(
        json, reference,
        "a SIGKILL + resume must not change the bytes"
    );
    let (_, clean) = server.drain();
    assert!(clean);
}

#[test]
fn draining_server_refuses_new_submissions() {
    let dir = scratch("refuse");
    let spec = write(&dir, "spec.toml", SPEC);

    let server = Server::spawn(&dir, "refuse", &[], None);
    // Finish a sweep so the drain below is instant.
    let (code, _, _) = submit(&dir, &spec, &server.addr, "out.json");
    assert_eq!(code, 0);

    // Ask for a drain over the wire, then try to submit again.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(server.child.id() as i32, 15);
    }
    // The drain flag is set in the accept loop; give it a tick.
    std::thread::sleep(Duration::from_millis(100));
    let (code, _, stderr) = submit(&dir, &spec, &server.addr, "out2.json");
    assert!(
        code != 0 || stderr.contains("draining"),
        "a draining server must refuse or already be gone: code={code}\n{stderr}"
    );
    // And it still exits 0.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut server = server;
    let status = loop {
        if let Ok(Some(s)) = server.child.try_wait() {
            break s;
        }
        assert!(Instant::now() < deadline, "drain hang:\n{}", server.log());
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{}", server.log());
    std::mem::forget(server);
}

/// The looped crash-equivalence property: several distinct fault
/// schedules (including a double fault), every one of which must produce
/// the reference bytes.
#[test]
fn fault_schedules_are_byte_equivalent() {
    let dir = scratch("schedules");
    let spec = write(&dir, "spec.toml", SPEC);
    let reference = reference_json(&dir, &spec, "ref.json");

    let schedules: &[&[&str]] = &[
        &["crash-once:{d}/m0"],
        &["crash-once:{d}/m1", "crash-once:{d}/m2"],
        &["poison:/CSMT/:1:{d}/c0"],
        &["crash-once:{d}/m3", "poison:/SMT/:2:{d}/c1"],
    ];
    for (i, schedule) in schedules.iter().enumerate() {
        let fault: Vec<String> = schedule
            .iter()
            .map(|d| d.replace("{d}", dir.to_str().unwrap()))
            .collect();
        let server = Server::spawn(
            &dir,
            &format!("sched{i}"),
            &["--retries", "5"],
            Some(&fault.join(";")),
        );
        let (code, json, stderr) = submit(&dir, &spec, &server.addr, &format!("out{i}.json"));
        assert_eq!(code, 0, "schedule {i} failed:\n{stderr}\n{}", server.log());
        assert_eq!(
            json,
            reference,
            "schedule {i} changed the output bytes:\n{}",
            server.log()
        );
        let (_, clean) = server.drain();
        assert!(clean, "schedule {i} broke the drain");
    }
}
