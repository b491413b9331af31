//! The worker process: connects to a sweep server, pulls point
//! assignments, simulates them, and streams heartbeats from inside the
//! cycle loop so the supervisor can tell "still grinding" from "hung".
//!
//! Everything a worker needs arrives in the assignment (a canonical
//! single-point spec), and everything it produces leaves as a journal
//! payload. Killing a worker at any instant loses at most the in-flight
//! point, which the server re-queues — that is the whole fault-isolation
//! contract. A point that fails on its own (an error or a panic) is
//! reported with `FAIL`, which the server takes as final; a fault of the
//! worker itself ends the process, so the server re-queues its point as
//! after a crash. The one thing it keeps between assignments is every
//! built-in it has prepared (compiled and decoded), by (machine, name),
//! for its whole life: a built-in's code is fixed when `vex` is built, and
//! the paper's grids draw on twelve kernels however many mixes they
//! combine them into. It reads program-file members again on every
//! assignment, since they may change on disk, and re-derives and checks
//! the key every time.
//!
//! ## Fault injection (`VEX_WORKER_FAULT`)
//!
//! The supervision test harness drives workers into scripted misbehaviour
//! through the `VEX_WORKER_FAULT` environment variable (inherited from
//! the server, so `vex serve` tests can script the pool): a
//! semicolon-separated list of directives, each gated on a filesystem
//! marker so "once" means once across respawns:
//!
//! * `crash-once:<marker>` — the first worker to claim `<marker>`
//!   (atomic `create_new`) aborts before simulating its assignment.
//! * `hang-once:<marker>` — likewise, but sleeps forever without
//!   heartbeating (exercises the heartbeat reaper).
//! * `poison:<substr>:<times>:<counter>` — abort on any assignment whose
//!   label contains `<substr>`, up to `<times>` times (the count lives in
//!   `<counter>`); exercises the retry budget.

use crate::proto::{parse_key, read_frame, split_message, write_frame};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vex_experiments::jobs::resolve_member;
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{panic_message, point_key, program_digest, JournalEntry, ProgramMemo};
use vex_sim::{run_prepared_observed, PreparedProgram};
use vex_spec::{RunSpec, SweepSpec};

/// How often (in simulated cycles) the engine surfaces control to the
/// heartbeat hook. Cheap enough to be negligible, frequent enough that a
/// live worker never looks silent (the hook rate-limits actual sends).
const OBSERVE_EVERY_CYCLES: u64 = 50_000;

/// The built-ins a worker has prepared, with their compiled digests.
type Builtins = ProgramMemo<(PreparedProgram, u64)>;

/// Runs the worker loop against the server at `addr` until the server
/// says `SHUTDOWN`.
pub fn worker_main(addr: &str, loader: Option<ProgramLoader<'_>>) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();
    expect_ok(&mut stream, &format!("HELLO {}", std::process::id()))?;
    let mut builtins = Builtins::new();
    loop {
        let reply = request(&mut stream, "GET")?;
        let (head, body) = split_message(&reply);
        let mut parts = head.split(' ');
        match parts.next().unwrap_or("") {
            "ASSIGN" => {
                let key = parse_key(parts.next().ok_or("ASSIGN without a key")?)?;
                let zero_wall = parts.next() == Some("1");
                let heartbeat_ms: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(1000);
                // Not the point's fault: end the worker, and the server
                // re-queues the point as lost.
                let hb_stream = stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone the connection for heartbeats: {e}"))?;
                let outcome = run_point(
                    hb_stream,
                    body,
                    key,
                    zero_wall,
                    heartbeat_ms,
                    loader,
                    &mut builtins,
                );
                match outcome {
                    Ok(entry) => expect_ok(
                        &mut stream,
                        &format!("RESULT {key:016x}\n{}", entry.to_payload()),
                    )?,
                    Err(msg) => {
                        eprintln!(
                            "[vex worker {}] point {key:016x}: {msg}",
                            std::process::id()
                        );
                        expect_ok(&mut stream, &format!("FAIL {key:016x}\n{msg}"))?;
                    }
                }
            }
            "SHUTDOWN" => return Ok(()),
            other => return Err(format!("unexpected server reply `{other}`")),
        }
    }
}

/// One request/reply exchange.
fn request(stream: &mut TcpStream, text: &str) -> Result<String, String> {
    write_frame(stream, text).map_err(|e| format!("cannot send to the server: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("cannot read from the server: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

/// A request whose only acceptable reply is `OK`.
fn expect_ok(stream: &mut TcpStream, text: &str) -> Result<(), String> {
    let reply = request(stream, text)?;
    if reply == "OK" {
        Ok(())
    } else {
        Err(format!(
            "server rejected `{}`: {reply}",
            split_message(text).0
        ))
    }
}

/// Simulates one assignment: parses the single-point spec, prepares its
/// programs (built-ins through `builtins`), re-derives the
/// content-addressed key (refusing a mismatched assignment — the key is
/// the integrity check of the whole exchange), and runs the engine with
/// the heartbeat hook writing to `hb_stream`, a clone of the server
/// connection.
fn run_point(
    hb_stream: TcpStream,
    spec_text: &str,
    key: u64,
    zero_wall: bool,
    heartbeat_ms: u64,
    loader: Option<ProgramLoader<'_>>,
    builtins: &mut Builtins,
) -> Result<JournalEntry, String> {
    let spec = SweepSpec::parse(spec_text).map_err(|e| format!("bad assignment spec: {e}"))?;
    let points = spec.expand();
    let [run] = points.as_slice() else {
        return Err(format!(
            "assignment expands to {} points, expected exactly 1",
            points.len()
        ));
    };
    let (workload, computed) = prepare_point(run, loader, builtins)?;
    if computed != key {
        return Err(format!(
            "key mismatch: assigned {key:016x}, recomputed {computed:016x}"
        ));
    }

    fault_gate(&run.label());

    let cfg = run.to_sim_config();

    // Heartbeats ride the same connection as one-way frames; the hook
    // rate-limits to half the supervisor's interval so a live worker
    // always beats well inside the 5x timeout.
    let min_gap = Duration::from_millis((heartbeat_ms / 2).max(1));
    let mut last_sent = Instant::now();
    let hook = Box::new(move |cycle: u64| {
        if last_sent.elapsed() >= min_gap {
            last_sent = Instant::now();
            let mut w = &hb_stream;
            let _ = write_frame(&mut w, &format!("HEARTBEAT {key:016x} {cycle}"));
        }
    });

    let started = Instant::now();
    let sim = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_prepared_observed(&cfg, &workload, OBSERVE_EVERY_CYCLES, hook)
    }));
    match sim {
        Ok((stats, stop)) => Ok(JournalEntry {
            key,
            label: run.label(),
            stop,
            wall_secs: if zero_wall {
                0.0
            } else {
                started.elapsed().as_secs_f64()
            },
            stats,
        }),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// The prepared members of `run`'s mix, in order, and its point key.
fn prepare_point(
    run: &RunSpec,
    loader: Option<ProgramLoader<'_>>,
    builtins: &mut Builtins,
) -> Result<(Vec<PreparedProgram>, u64), String> {
    let mut files = ProgramMemo::new();
    let mut workload = Vec::with_capacity(run.mix.members.len());
    let mut digests = Vec::with_capacity(run.mix.members.len());
    for m in &run.mix.members {
        let (program, digest) = resolve_member(run, m, loader, builtins, &mut files, |p| {
            let digest = program_digest(&p);
            (PreparedProgram::prepare(p), digest)
        })?;
        workload.push(program);
        digests.push(digest);
    }
    Ok((workload, point_key(run, &digests)))
}

/// Applies `VEX_WORKER_FAULT` directives (see the module docs). May abort
/// or hang the process — that is the point.
fn fault_gate(label: &str) {
    let Ok(plan) = std::env::var("VEX_WORKER_FAULT") else {
        return;
    };
    for directive in plan.split(';').filter(|d| !d.is_empty()) {
        let parts: Vec<&str> = directive.split(':').collect();
        match parts.as_slice() {
            ["crash-once", marker] if claim_marker(marker) => {
                eprintln!("[vex worker {}] fault: crashing once", std::process::id());
                std::process::abort();
            }
            ["hang-once", marker] if claim_marker(marker) => {
                eprintln!("[vex worker {}] fault: hanging once", std::process::id());
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            ["poison", substr, times, counter] if label.contains(substr) => {
                let n: u32 = std::fs::read_to_string(counter)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                let limit: u32 = times.parse().unwrap_or(0);
                if n < limit {
                    let _ = std::fs::write(counter, (n + 1).to_string());
                    eprintln!(
                        "[vex worker {}] fault: poisoning `{label}` ({}/{limit})",
                        std::process::id(),
                        n + 1
                    );
                    std::process::abort();
                }
            }
            _ => {}
        }
    }
}

/// Atomically claims a once-only fault marker: exactly one worker across
/// all respawns wins the `create_new`.
fn claim_marker(path: &str) -> bool {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use vex_experiments::{single_point_spec, spec_point_keys};
    use vex_isa::{MachineConfig, Program};
    use vex_spec::{MixSpec, WorkloadRef};

    fn point(members: &[WorkloadRef], machine: MachineConfig) -> RunSpec {
        let mut spec = SweepSpec::base(vex_sim::Scale {
            inst_limit: 100,
            timeslice: 50,
        });
        spec.machines[0].config = machine;
        spec.mixes = vec![MixSpec {
            name: "m".into(),
            members: members.to_vec(),
            seed: 1,
        }];
        spec.expand().remove(0)
    }

    fn builtin(name: &str) -> WorkloadRef {
        WorkloadRef::Builtin(name.into())
    }

    /// The key the server derives for `run`.
    fn server_key(run: &RunSpec, loader: Option<ProgramLoader<'_>>) -> u64 {
        spec_point_keys(&single_point_spec(run), loader, &mut ProgramMemo::new()).unwrap()[0].1
    }

    #[test]
    fn a_built_in_is_prepared_once_per_machine_for_the_worker_s_life() {
        let paper = MachineConfig::paper_4c4w();
        let narrow = MachineConfig::narrow_2c();
        let mut builtins = Builtins::new();
        let first = point(&[builtin("mcf"), builtin("idct")], paper.clone());
        let (a, key) = prepare_point(&first, None, &mut builtins).unwrap();
        assert_eq!(key, server_key(&first, None));
        // Another mix: only its new member is prepared.
        let second = point(&[builtin("idct"), builtin("x264")], paper.clone());
        let (b, key) = prepare_point(&second, None, &mut builtins).unwrap();
        assert_eq!(key, server_key(&second, None));
        assert_eq!(builtins.len(), 3);
        assert!(
            Arc::ptr_eq(a[1].program(), b[0].program()),
            "idct was prepared again"
        );
        // The same built-in on another machine is another program.
        prepare_point(
            &point(&[builtin("mcf")], narrow.clone()),
            None,
            &mut builtins,
        )
        .unwrap();
        assert_eq!(builtins.len(), 4);
        let mcf = |m: &MachineConfig| builtins[&(m.clone(), "mcf".to_string())].1;
        assert_ne!(mcf(&paper), mcf(&narrow));
    }

    #[test]
    fn a_program_file_is_read_again_on_every_assignment() {
        let path = std::env::temp_dir().join(format!("vex_worker_file_{}.vex", std::process::id()));
        let reads = AtomicUsize::new(0);
        // The file names a built-in, which the loader compiles: editing
        // the file changes the program.
        let load = |p: &str| -> Result<Program, String> {
            reads.fetch_add(1, Ordering::SeqCst);
            let name = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
            let paper = MachineConfig::paper_4c4w();
            Ok((*vex_workloads::compile_benchmark_for(name.trim(), &paper)?).clone())
        };
        let run = point(
            &[WorkloadRef::Path(path.display().to_string())],
            MachineConfig::paper_4c4w(),
        );
        let mut builtins = Builtins::new();
        std::fs::write(&path, "mcf").unwrap();
        let (_, before) = prepare_point(&run, Some(&load), &mut builtins).unwrap();
        std::fs::write(&path, "gsmencode").unwrap();
        let (_, after) = prepare_point(&run, Some(&load), &mut builtins).unwrap();
        assert_eq!(reads.load(Ordering::SeqCst), 2, "one read per assignment");
        assert!(builtins.is_empty(), "a program file is never kept");
        assert_ne!(after, before);
        assert_eq!(
            after,
            server_key(&run, Some(&load)),
            "keyed from the new bytes"
        );
        std::fs::remove_file(&path).ok();
    }
}
