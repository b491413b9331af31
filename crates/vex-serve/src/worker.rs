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
//! after a crash. The one thing it keeps between assignments is a cache
//! derivable from the assignment alone: the prepared (compiled and
//! decoded) programs of its last mix, reused when the next assignment
//! names the same machine and the same built-in members — a spec's
//! points share their mix, so consecutive assignments usually do. It
//! holds at most one mix (a different one replaces it), re-reads
//! program-file members on every assignment, and re-derives and checks
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
use vex_experiments::jobs::{key_of, PreparedMap};
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{panic_message, prepare_programs, JournalEntry};
use vex_isa::MachineConfig;
use vex_sim::{run_prepared_observed, PreparedProgram};
use vex_spec::{RunSpec, SweepSpec, WorkloadRef};

/// How often (in simulated cycles) the engine surfaces control to the
/// heartbeat hook. Cheap enough to be negligible, frequent enough that a
/// live worker never looks silent (the hook rate-limits actual sends).
const OBSERVE_EVERY_CYCLES: u64 = 50_000;

/// The prepared programs of the last assignment and what they were
/// prepared for.
struct PreparedMix {
    machine: MachineConfig,
    members: Vec<WorkloadRef>,
    programs: PreparedMap,
}

impl PreparedMix {
    /// Whether `run` can use these programs as they are: the same machine
    /// and the same members, all built-ins (a program file may have
    /// changed on disk since it was read).
    fn serves(&self, run: &RunSpec) -> bool {
        self.machine == run.machine.config
            && self.members == run.mix.members
            && run
                .mix
                .members
                .iter()
                .all(|m| matches!(m, WorkloadRef::Builtin(_)))
    }
}

/// Runs the worker loop against the server at `addr` until the server
/// says `SHUTDOWN`.
pub fn worker_main(addr: &str, loader: Option<ProgramLoader<'_>>) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();
    expect_ok(&mut stream, &format!("HELLO {}", std::process::id()))?;
    let mut mix: Option<PreparedMix> = None;
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
                    &mut mix,
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
/// programs (or reuses `mix`, the last assignment's), re-derives the
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
    mix: &mut Option<PreparedMix>,
) -> Result<JournalEntry, String> {
    let spec = SweepSpec::parse(spec_text).map_err(|e| format!("bad assignment spec: {e}"))?;
    let points = spec.expand();
    let [run] = points.as_slice() else {
        return Err(format!(
            "assignment expands to {} points, expected exactly 1",
            points.len()
        ));
    };
    let prepared = match mix {
        Some(m) if m.serves(run) => &m.programs,
        _ => {
            // Replace, never accumulate: the old programs go before the
            // new ones are built.
            *mix = None;
            &mix.insert(PreparedMix {
                machine: run.machine.config.clone(),
                members: run.mix.members.clone(),
                programs: prepare_programs(points.as_slice(), loader)?,
            })
            .programs
        }
    };
    let computed = key_of(run, prepared);
    if computed != key {
        return Err(format!(
            "key mismatch: assigned {key:016x}, recomputed {computed:016x}"
        ));
    }

    fault_gate(&run.label());

    let workload: Vec<PreparedProgram> = run
        .mix
        .members
        .iter()
        .map(|m| {
            prepared[&(run.machine_index, m.as_str().to_string())]
                .0
                .clone()
        })
        .collect();
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
    use vex_spec::MixSpec;

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

    fn mix_for(members: &[WorkloadRef], machine: MachineConfig) -> PreparedMix {
        PreparedMix {
            machine,
            members: members.to_vec(),
            programs: PreparedMap::new(),
        }
    }

    #[test]
    fn a_prepared_mix_serves_only_its_machine_and_built_in_members() {
        let paper = MachineConfig::paper_4c4w();
        let builtins = [WorkloadRef::Builtin("mcf".into())];
        let mix = mix_for(&builtins, paper.clone());
        assert!(mix.serves(&point(&builtins, paper.clone())));
        assert!(!mix.serves(&point(&[WorkloadRef::Builtin("gsm".into())], paper.clone())));
        assert!(!mix.serves(&point(&builtins, MachineConfig::narrow_2c())));

        let file = [WorkloadRef::Path("kernel.vex".into())];
        assert!(
            !mix_for(&file, paper.clone()).serves(&point(&file, paper)),
            "a program file may have changed on disk: it is read again"
        );
    }
}
