//! `vex` — assembler, disassembler and simulator driver for the
//! clustered VLIW SMT stack.
//!
//! ```text
//! vex asm [FILE] [-o OUT]        assemble .vex text to .vexb binary
//! vex check [FILE] [options]     static-analyse a program (lint suite)
//! vex disasm [FILE] [-o OUT]     decode .vexb back to canonical text
//! vex run [FILE...] [options]    run programs through the simulator
//! vex run --spec SPEC.toml       run a single-point spec file
//! vex trace --attribute T.vext   replay a trace into a cycle attribution
//! vex sweep SPEC.toml [--out F]  execute a sweep spec, emit JSON results
//! vex fuzz --seed-count N        differential-test random programs
//! vex export-workloads [DIR]     dump the built-in benchmarks as .vex
//! ```
//!
//! `FILE` defaults to stdin (`-`); `run` autodetects text vs binary input
//! by the `VEXB` magic, so `vex asm prog.vex | vex run --threads 4` works.
//! Spec files are the declarative grid format of `vex-spec` (grammar in
//! `docs/SPECS.md`; examples under `examples/*.toml`).

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use vex_experiments::SweepRunner;
use vex_isa::{MachineConfig, Program};
use vex_sim::{CommPolicy, MemoryMode, MtMode, SimConfig, StopReason, Technique};
use vex_spec::SweepSpec;

const USAGE: &str = "\
vex — textual VEX assembly tools for the SMT clustered VLIW simulator

USAGE:
    vex asm [FILE] [-o OUT]          assemble text to .vexb (stdin/stdout default)
                                     (--check also runs the static analyzer)
    vex check [FILE] [OPTIONS]       run the static-analysis lint suite over a
                                     program and print caret diagnostics
                                     (see docs/ANALYZE.md)
    vex disasm [FILE] [-o OUT]       decode .vexb to canonical .vex text
    vex run [FILE...] [OPTIONS]      simulate programs (text or .vexb input)
    vex run --spec SPEC.toml         simulate a single-point spec file
    vex trace --attribute FILE       replay a .vext trace into a per-thread,
                                     per-cycle attribution (see docs/TRACE.md)
    vex sweep SPEC.toml [OPTIONS]    run a sweep spec (see docs/SPECS.md)
    vex serve [SPEC.toml] [OPTIONS]  run the fault-tolerant sweep service: a
                                     supervised worker pool behind a TCP
                                     submission endpoint (docs/ROBUSTNESS.md)
    vex worker --connect ADDR        run one sweep worker process (normally
                                     spawned by `vex serve` itself)
    vex submit SPEC.toml --connect ADDR [OPTIONS]
                                     submit a sweep to a running service and
                                     wait for its results
    vex fuzz [OPTIONS]               differential-test seeded random programs
                                     against the in-order reference interpreter
    vex export-workloads [DIR]       write the 12 built-in benchmarks as .vex
    vex help                         show this message

CHECK OPTIONS:
    --machine paper|narrow_2c|CxW         machine to lint against [default: the
                                          paper machine at the program's own
                                          cluster count]
    --json                                emit the report as JSON (schema in
                                          docs/ANALYZE.md)

FUZZ OPTIONS:
    --seed-count N                        seeds to sweep          [default: 100]
    --seed-base S                         first seed              [default: 0]
    --machine paper|narrow_2c|CxW         target machine geometry [default: paper]
                                          (CxW = C clusters of W-issue, e.g. 2x2)
    --size N                              program-size knob       [default: 24]
    --out FILE                            where to write the offending program
                                          on mismatch  [default: fuzz_failure.vex]

SWEEP OPTIONS:
    --out FILE                            write JSON results to FILE
                                          (default: stdout)
    --workers N                           simulation fan-out     [default: #cores]
    --journal FILE                        append each completed point to FILE
                                          (a crash-safe sidecar; overrides the
                                          spec's `journal` knob)
    --resume                              skip points already in the journal
                                          (requires a journal path)
    --keep-going                          simulate every point even after one
                                          fails (default: stop scheduling new
                                          points at the first failure)
    --retries N                           re-run a failed/panicked point up to
                                          N extra times         [default: spec]
    --zero-wall                           report wall_secs as 0.0 everywhere
                                          so resumed and uninterrupted sweeps
                                          are byte-identical

SERVE OPTIONS (flags override the spec's `[serve]` table, see docs/SPECS.md):
    --listen ADDR                         bind address   [default: 127.0.0.1:0]
    --workers N                           worker processes        [default: #cores]
    --journal FILE                        crash-safe result journal; also logs
                                          submissions to FILE.subs for `--resume`
    --resume                              replay the journal and re-enqueue
                                          interrupted submissions
    --zero-wall                           report wall_secs as 0.0 in results
    --port-file FILE                      write the bound address to FILE
    --heartbeat-ms N                      worker heartbeat interval; a worker
                                          silent for 5x this is reaped [default: 1000]
    --point-timeout-ms N                  wall-clock ceiling per assignment
                                          (0 = none)              [default: 0]
    --retries N                           extra attempts per point [default: 3]
    --quarantine N                        crashes before a point is declared
                                          poison and failed       [default: 5]
    --backoff-base-ms N / --backoff-max-ms N
                                          retry backoff (exponential, jittered)
                                          [defaults: 100 / 5000]

SUBMIT OPTIONS:
    --connect ADDR                        server address (required)
    --out FILE                            write JSON results to FILE
                                          (default: stdout)
    --poll-ms N                           completion poll interval [default: 100]

RUN OPTIONS:
    --spec FILE                           take the whole configuration from a
                                          spec expanding to exactly one point
                                          (only --profile/--trace may accompany
                                          it; --trace overrides the spec's
                                          `trace` knob)
    --profile                             print the simulator fast-path profile
                                          (cache miss ratios, issue scans,
                                          evaluated operations)
    --trace FILE                          stream the run's event trace to FILE
                                          in the binary .vext format

TRACE OPTIONS:
    --attribute FILE                      replay FILE (`-` = stdin) and bin
                                          every simulated cycle by cause
    --json                                emit the attribution as JSON
    --out FILE                            write the report to FILE (stdout
                                          default)
    --technique csmt|smt|ccsi|cosi|oosi   issue technique        [default: ccsi]
    --comm ns|as                          split communication instructions
                                          (ns = never, as = always) [default: ns]
    --threads N                           hardware contexts; inputs are cycled
                                          to fill them            [default: #inputs]
    --memory real|perfect                 cache model             [default: real]
    --mt smt|imt|bmt                      multithreading mode     [default: smt]
    --no-renaming                         disable cluster renaming
    --respawn                             restart programs that halt early
    --timeslice N                         scheduler timeslice in cycles
    --inst-limit N                        stop after N retired instructions
    --max-cycles N                        safety bound            [default: 200000000]
    --seed N                              scheduler seed          [default: 12648430]
    --no-validate                         skip program validation before the run

EXIT CODES:
    0  success
    1  runtime error (simulation, trace sink, writing results)
    2  usage error (bad flags, unknown subcommand)
    3  input error (unreadable or malformed program/spec/trace file)
    4  sweep completed, but one or more points failed
    5  static analysis found errors (vex check / vex asm --check)
";

/// A subcommand failure carrying the process exit code it maps to.
///
/// The contract (also in the README and `vex help`): `1` runtime, `2`
/// usage, `3` input, `4` sweep-completed-with-failed-points. Plain
/// `String` errors from the library layers convert to runtime failures.
struct Fail {
    code: u8,
    msg: String,
}

impl Fail {
    /// A bad invocation: unknown flag, missing value, wrong arity.
    fn usage(msg: impl Into<String>) -> Fail {
        Fail {
            code: 2,
            msg: msg.into(),
        }
    }

    /// An unreadable or malformed input file (program, spec, trace).
    fn input(msg: impl Into<String>) -> Fail {
        Fail {
            code: 3,
            msg: msg.into(),
        }
    }

    /// The sweep ran to completion but some points failed.
    fn points(msg: impl Into<String>) -> Fail {
        Fail {
            code: 4,
            msg: msg.into(),
        }
    }

    /// Static analysis found error-severity diagnostics.
    fn analysis(msg: impl Into<String>) -> Fail {
        Fail {
            code: 5,
            msg: msg.into(),
        }
    }
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail { code: 1, msg }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "asm" => cmd_asm(rest),
        "check" => cmd_check(rest),
        "disasm" => cmd_disasm(rest),
        "run" => cmd_run(rest),
        "trace" => cmd_trace(rest),
        "sweep" => cmd_sweep(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "submit" => cmd_submit(rest),
        "fuzz" => cmd_fuzz(rest),
        "export-workloads" => cmd_export(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(Fail::usage(format!(
            "unknown subcommand `{other}`; try `vex help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("vex: {}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

// ---- input/output helpers -----------------------------------------

fn read_input(path: &str) -> Result<Vec<u8>, String> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(path).map_err(|e| format!("reading `{path}`: {e}"))
    }
}

fn write_output(path: Option<&str>, bytes: &[u8]) -> Result<(), String> {
    match path {
        Some(p) => std::fs::write(p, bytes).map_err(|e| format!("writing `{p}`: {e}")),
        None => out(bytes),
    }
}

/// Writes to stdout, exiting quietly when the reader hung up (`vex disasm
/// | head` must not panic on the broken pipe, as `println!` would).
fn out(bytes: &[u8]) -> Result<(), String> {
    match std::io::stdout().write_all(bytes) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

/// `out` for formatted text lines.
fn outln(text: &str) -> Result<(), String> {
    out(text.as_bytes())?;
    out(b"\n")
}

/// Loads a program from text or binary, autodetected.
fn load_program(path: &str) -> Result<Program, String> {
    let bytes = read_input(path)?;
    if vex_asm::is_binary(&bytes) {
        vex_asm::decode(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text =
            String::from_utf8(bytes).map_err(|e| format!("{path}: input is not UTF-8: {e}"))?;
        vex_asm::parse_program(&text).map_err(|e| format!("{path}:\n{e}"))
    }
}

/// The machine a program runs on: the paper machine, widened or narrowed
/// to the program's cluster count if it differs.
fn machine_for(p: &Program) -> MachineConfig {
    let mut m = MachineConfig::paper_4c4w();
    m.n_clusters = vex_asm::program_clusters(p);
    m
}

// ---- subcommands --------------------------------------------------

fn cmd_asm(args: &[String]) -> Result<(), Fail> {
    let check = args.iter().any(|a| a == "--check");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--check").cloned().collect();
    let (input, output) = parse_io_args(&rest, "asm").map_err(Fail::usage)?;
    let (program, spans, source) = load_program_spanned(&input).map_err(Fail::input)?;
    program
        .validate(&machine_for(&program))
        .map_err(|e| Fail::input(format!("invalid program: {e}")))?;
    if check {
        let report = vex_analyze::analyze(&program, &machine_for(&program));
        if !report.diags.is_empty() {
            eprint!(
                "{}",
                render_report(&report, spans.as_ref(), source.as_deref())
            );
        }
        if !report.is_clean() {
            return Err(Fail::analysis(format!(
                "static analysis found {} error(s) (see diagnostics above)",
                report.errors()
            )));
        }
    }
    write_output(output.as_deref(), &vex_asm::encode(&program))?;
    Ok(())
}

/// Loads a program like [`load_program`], additionally returning the
/// source span table and text when the input was `.vex` assembly (binary
/// inputs have no spans; their diagnostics use op coordinates).
fn load_program_spanned(
    path: &str,
) -> Result<(Program, Option<vex_asm::SpanTable>, Option<String>), String> {
    let bytes = read_input(path)?;
    if vex_asm::is_binary(&bytes) {
        let program = vex_asm::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        Ok((program, None, None))
    } else {
        let text =
            String::from_utf8(bytes).map_err(|e| format!("{path}: input is not UTF-8: {e}"))?;
        let (program, spans) =
            vex_asm::parse_program_spanned(&text).map_err(|e| format!("{path}:\n{e}"))?;
        Ok((program, Some(spans), Some(text)))
    }
}

/// Renders an analyzer report. With a span table and source text (text
/// input), each diagnostic points at its source line with a caret run;
/// otherwise diagnostics carry `(instruction, cluster, op)` coordinates.
fn render_report(
    report: &vex_analyze::Report,
    spans: Option<&vex_asm::SpanTable>,
    source: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let lines: Vec<&str> = source.map(|s| s.lines().collect()).unwrap_or_default();
    let mut out = String::new();
    for d in &report.diags {
        let span = spans.and_then(|s| match (d.cluster, d.op) {
            (Some(c), Some(o)) => s.op_spans.get(&(d.inst, c, o)).copied(),
            _ => s.inst_spans.get(d.inst).copied(),
        });
        match span {
            Some(sp) => {
                let _ = writeln!(
                    out,
                    "{}[{}] at line {}:{}: {}",
                    d.severity.label(),
                    d.check.name(),
                    sp.line,
                    sp.col,
                    d.message
                );
                let src = lines
                    .get(sp.line.saturating_sub(1) as usize)
                    .copied()
                    .unwrap_or("");
                let _ = writeln!(out, "  | {src}");
                let _ = writeln!(
                    out,
                    "  | {}{}",
                    " ".repeat(sp.col.saturating_sub(1) as usize),
                    "^".repeat(sp.len.max(1) as usize)
                );
            }
            None => {
                let _ = writeln!(out, "{d}");
            }
        }
    }
    let _ = writeln!(
        out,
        "{} error(s), {} warning(s)",
        report.errors(),
        report.warnings()
    );
    out
}

fn cmd_check(args: &[String]) -> Result<(), Fail> {
    let mut input: Option<String> = None;
    let mut machine: Option<MachineConfig> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                let v = it
                    .next()
                    .ok_or_else(|| Fail::usage("`--machine` needs a value"))?;
                machine = Some(parse_machine(v).map_err(Fail::usage)?);
            }
            "--json" => json = true,
            "-" => input = Some("-".to_string()),
            f if !f.starts_with('-') => {
                if input.is_some() {
                    return Err(Fail::usage("`vex check` takes at most one input file"));
                }
                input = Some(f.to_string());
            }
            other => {
                return Err(Fail::usage(format!(
                    "unknown option `{other}` for `vex check`"
                )))
            }
        }
    }
    let input = input.unwrap_or_else(|| "-".to_string());
    let (program, spans, source) = load_program_spanned(&input).map_err(Fail::input)?;
    let machine = machine.unwrap_or_else(|| machine_for(&program));
    let report = vex_analyze::analyze(&program, &machine);
    if json {
        out(report.to_json().as_bytes())?;
    } else {
        out(render_report(&report, spans.as_ref(), source.as_deref()).as_bytes())?;
    }
    if !report.is_clean() {
        return Err(Fail::analysis(format!(
            "static analysis found {} error(s) in `{}`",
            report.errors(),
            if program.name.is_empty() {
                &input
            } else {
                &program.name
            }
        )));
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), Fail> {
    let (input, output) = parse_io_args(args, "disasm").map_err(Fail::usage)?;
    let program = load_program(&input).map_err(Fail::input)?;
    write_output(
        output.as_deref(),
        vex_asm::print_program(&program).as_bytes(),
    )?;
    Ok(())
}

/// Shared `[FILE] [-o OUT]` argument shape of `asm`/`disasm`.
fn parse_io_args(args: &[String], cmd: &str) -> Result<(String, Option<String>), String> {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => {
                output = Some(
                    it.next()
                        .ok_or_else(|| format!("`{a}` needs a path"))?
                        .clone(),
                )
            }
            "-" => input = Some("-".to_string()),
            f if !f.starts_with('-') => {
                if input.is_some() {
                    return Err(format!("`vex {cmd}` takes at most one input file"));
                }
                input = Some(f.to_string());
            }
            other => return Err(format!("unknown option `{other}` for `vex {cmd}`")),
        }
    }
    Ok((input.unwrap_or_else(|| "-".to_string()), output))
}

fn cmd_export(args: &[String]) -> Result<(), Fail> {
    if args.len() > 1 || args.iter().any(|a| a.starts_with('-')) {
        return Err(Fail::usage("usage: vex export-workloads [DIR]"));
    }
    let dir = args.first().map(String::as_str).unwrap_or("workloads");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating `{dir}`: {e}"))?;
    for (name, program) in vex_workloads::compile_all() {
        let path = format!("{dir}/{name}.vex");
        std::fs::write(&path, vex_asm::print_program(&program))
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        outln(&format!(
            "wrote {path}: {} instructions, {} ops",
            program.len(),
            program.total_ops()
        ))?;
    }
    Ok(())
}

// ---- differential fuzzing -----------------------------------------

/// Resolves a `--machine` argument: a named geometry or `CxW` (C clusters
/// of W-issue slots each).
fn parse_machine(spec: &str) -> Result<MachineConfig, String> {
    match spec {
        "paper" => return Ok(MachineConfig::paper_4c4w()),
        "narrow_2c" => return Ok(MachineConfig::narrow_2c()),
        _ => {}
    }
    if let Some((c, w)) = spec.split_once('x') {
        let parse = |v: &str, what: &str| -> Result<u8, String> {
            v.parse()
                .ok()
                .filter(|&n| (1..=16).contains(&n))
                .ok_or_else(|| format!("bad {what} `{v}` in machine `{spec}` (1..=16)"))
        };
        return Ok(MachineConfig::small(
            parse(c, "cluster count")?,
            parse(w, "issue width")?,
        ));
    }
    Err(format!(
        "unknown machine `{spec}` (paper, narrow_2c, or CxW like 2x2)"
    ))
}

/// Parsed `vex fuzz` options.
struct FuzzOpts {
    seed_count: u64,
    seed_base: u64,
    machine: MachineConfig,
    machine_name: String,
    size: u32,
    out_path: String,
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzOpts, String> {
    let mut seed_count: u64 = 100;
    let mut seed_base: u64 = 0;
    let mut machine = MachineConfig::paper_4c4w();
    let mut machine_name = "paper".to_string();
    let mut size: u32 = vex_gen::GenConfig::DEFAULT_SIZE;
    let mut out_path = "fuzz_failure.vex".to_string();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .map(std::string::ToString::to_string)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed-count" => {
                let v = value(&mut it, a)?;
                seed_count = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad seed count `{v}`"))?;
            }
            "--seed-base" => seed_base = parse_u64(&value(&mut it, a)?, a)?,
            "--machine" => {
                machine_name = value(&mut it, a)?;
                machine = parse_machine(&machine_name)?;
            }
            "--size" => {
                let v = value(&mut it, a)?;
                size = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad size `{v}`"))?;
            }
            "--out" => out_path = value(&mut it, a)?,
            other => return Err(format!("unknown option `{other}` for `vex fuzz`")),
        }
    }
    Ok(FuzzOpts {
        seed_count,
        seed_base,
        machine,
        machine_name,
        size,
        out_path,
    })
}

fn cmd_fuzz(args: &[String]) -> Result<(), Fail> {
    let o = parse_fuzz_args(args).map_err(Fail::usage)?;
    let t0 = std::time::Instant::now();
    for i in 0..o.seed_count {
        let seed = o.seed_base.wrapping_add(i);
        let cfg = vex_gen::GenConfig {
            machine: o.machine.clone(),
            seed,
            size: o.size,
        };
        // Generated programs must be analysis-clean (no static-analysis
        // errors): the generator promises well-formed resource usage,
        // in-range branch targets, and paired channel ops, and the
        // analyzer cross-checks that promise on every seed.
        let program = vex_gen::generate(&cfg)?;
        let report = vex_analyze::analyze(&program, &cfg.machine);
        if !report.is_clean() {
            let text = vex_asm::print_program(&program);
            if let Err(e) = std::fs::write(&o.out_path, &text) {
                eprintln!("[vex fuzz] warning: could not write `{}`: {e}", o.out_path);
            } else {
                eprintln!(
                    "[vex fuzz] analysis-rejected program written to `{}`",
                    o.out_path
                );
            }
            eprint!("{}", report.render());
            return Err(Fail::analysis(format!(
                "seed {seed}: generated program fails static analysis with {} error(s)\n  \
                 reproduce: vex fuzz --machine {} --seed-base {seed} --seed-count 1 --size {}",
                report.errors(),
                o.machine_name,
                o.size
            )));
        }
        // The analyzed program is the one checked: generate once per seed.
        let program = Arc::new(program);
        if let Err(mismatch) = vex_gen::check_program(&program, &cfg.machine) {
            let failure = vex_gen::Failure {
                program: Arc::try_unwrap(program).unwrap_or_else(|a| (*a).clone()),
                mismatch,
            };
            report_fuzz_failure(&cfg, failure, &o.machine_name, &o.out_path)?;
            return Ok(());
        }
        if (i + 1) % 100 == 0 {
            eprintln!(
                "[vex fuzz] {}/{} seeds clean ({:.1}s)",
                i + 1,
                o.seed_count,
                t0.elapsed().as_secs_f32()
            );
        }
    }
    outln(&format!(
        "vex fuzz: {} seed(s) x 8 techniques x {{1,2,4}} threads on `{}`: \
         all runs byte-identical to the reference interpreter ({:.1}s)",
        o.seed_count,
        o.machine_name,
        t0.elapsed().as_secs_f32()
    ))?;
    Ok(())
}

/// Shrinks a differential failure by re-seeding at smaller sizes, writes
/// the offending program as round-trippable `.vex` text, and reports the
/// reproduction command.
fn report_fuzz_failure(
    cfg: &vex_gen::GenConfig,
    failure: vex_gen::Failure,
    machine_name: &str,
    out_path: &str,
) -> Result<(), String> {
    eprintln!(
        "[vex fuzz] seed {} diverged ({}); shrinking by re-seeding...",
        cfg.seed, failure.mismatch
    );
    let (small_cfg, small) = vex_gen::shrink(cfg, failure);
    let text = vex_asm::print_program(&small.program);
    // The printed text must reproduce the program exactly; a round-trip
    // failure would make the artifact useless for replay, so check
    // unconditionally (this path only runs on a divergence) and flag the
    // artifact rather than uploading it silently broken.
    if vex_asm::parse_program(&text).as_ref() != Ok(&small.program) {
        eprintln!(
            "[vex fuzz] warning: the offending program does not round-trip through \
             `.vex` text — replaying the artifact may not reproduce the divergence; \
             use the `reproduce:` command below instead"
        );
    }
    if let Err(e) = std::fs::write(out_path, &text) {
        eprintln!("[vex fuzz] warning: could not write `{out_path}`: {e}");
    } else {
        eprintln!("[vex fuzz] offending program written to `{out_path}`");
    }
    // A static-analysis report of the shrunk program often localises the
    // divergence (e.g. an uninitialised read the oracle and engine break
    // ties on differently), so store one next to the artifact.
    let report = vex_analyze::analyze(&small.program, &small_cfg.machine);
    let analysis_path = format!("{out_path}.analysis.txt");
    if let Err(e) = std::fs::write(&analysis_path, report.render()) {
        eprintln!("[vex fuzz] warning: could not write `{analysis_path}`: {e}");
    } else {
        eprintln!("[vex fuzz] analyzer report written to `{analysis_path}`");
    }
    eprint!("{text}");
    Err(format!(
        "architectural divergence: {}\n  reproduce: vex fuzz --machine {machine_name} \
         --seed-base {} --seed-count 1 --size {}",
        small.mismatch, small_cfg.seed, small_cfg.size
    ))
}

// ---- spec-driven runs ---------------------------------------------

/// Reads and parses a sweep spec, prefixing diagnostics with the path.
fn load_spec(path: &str) -> Result<SweepSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    SweepSpec::parse(&text).map_err(|e| format!("{path}:\n{e}"))
}

/// The program resolver handed to the sweep runner: `.vex`/`.vexb` mix
/// members load through the same autodetecting frontend as `vex run`.
fn resolve_program(path: &str) -> Result<Program, String> {
    load_program(path)
}

/// Parsed `vex sweep` options.
struct SweepOpts {
    spec_path: String,
    out_path: Option<String>,
    workers: Option<usize>,
    journal: Option<String>,
    resume: bool,
    keep_going: bool,
    retries: Option<u32>,
    zero_wall: bool,
}

fn parse_sweep_args(args: &[String]) -> Result<SweepOpts, String> {
    let mut spec_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut keep_going = false;
    let mut retries: Option<u32> = None;
    let mut zero_wall = false;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .map(std::string::ToString::to_string)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(value(&mut it, a)?),
            "--journal" => journal = Some(value(&mut it, a)?),
            "--resume" => resume = true,
            "--keep-going" => keep_going = true,
            "--zero-wall" => zero_wall = true,
            "--retries" => {
                let v = value(&mut it, a)?;
                retries = Some(v.parse().map_err(|_| format!("bad retry count `{v}`"))?);
            }
            "--workers" => {
                let v = value(&mut it, a)?;
                workers = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad worker count `{v}`"))?,
                );
            }
            f if !f.starts_with('-') => {
                if spec_path.is_some() {
                    return Err("`vex sweep` takes exactly one spec file".to_string());
                }
                spec_path = Some(f.to_string());
            }
            other => return Err(format!("unknown option `{other}` for `vex sweep`")),
        }
    }
    let spec_path = spec_path.ok_or_else(|| {
        "usage: vex sweep SPEC.toml [--out FILE] [--journal FILE [--resume]] \
         [--keep-going] [--retries N] [--zero-wall]"
            .to_string()
    })?;
    Ok(SweepOpts {
        spec_path,
        out_path,
        workers,
        journal,
        resume,
        keep_going,
        retries,
        zero_wall,
    })
}

fn cmd_sweep(args: &[String]) -> Result<(), Fail> {
    let o = parse_sweep_args(args).map_err(Fail::usage)?;
    let spec = load_spec(&o.spec_path).map_err(Fail::input)?;
    if o.resume && o.journal.is_none() && spec.journal.is_none() {
        return Err(Fail::usage(
            "`--resume` needs a journal path: pass `--journal FILE` or set \
             `journal = \"...\"` in the spec",
        ));
    }

    let mut runner = SweepRunner::new(&spec)
        .loader(&resolve_program)
        .resume(o.resume)
        .keep_going(o.keep_going)
        .deterministic_wall(o.zero_wall);
    if let Some(n) = o.workers {
        runner = runner.workers(n);
    }
    if let Some(j) = &o.journal {
        runner = runner.journal(j);
    }
    if let Some(r) = o.retries {
        runner = runner.retries(r);
    }
    let t0 = std::time::Instant::now();
    let outcome = runner.run()?;
    let resumed = outcome.points.iter().filter(|p| p.resumed).count();
    eprintln!(
        "[vex sweep] {}: {} points ({} replayed from the journal) in {:.1}s",
        spec.name,
        outcome.points.len(),
        resumed,
        t0.elapsed().as_secs_f32()
    );
    let json = outcome.to_json();
    match &o.out_path {
        Some(p) => {
            std::fs::write(p, &json).map_err(|e| format!("writing `{p}`: {e}"))?;
            outln(&format!("wrote {p}"))?;
        }
        None => out(json.as_bytes())?,
    }
    if !outcome.errors.is_empty() {
        // The JSON (with its `errors` table) is already on disk/stdout;
        // repeat the table on stderr and exit with the distinct code so
        // scripts notice without parsing.
        eprintln!("[vex sweep] {} point(s) failed:", outcome.errors.len());
        for e in &outcome.errors {
            eprintln!("  [{:<7}] {}: {}", e.cause.tag(), e.label, e.cause);
        }
        return Err(Fail::points(format!(
            "{} of {} point(s) failed",
            outcome.errors.len(),
            outcome.errors.len() + outcome.points.len()
        )));
    }
    Ok(())
}

// ---- the sweep service --------------------------------------------

fn cmd_serve(args: &[String]) -> Result<(), Fail> {
    let mut cfg = vex_serve::ServeConfig::default();
    let mut spec_path: Option<String> = None;
    let mut workers: Option<u32> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut point_timeout_ms: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut quarantine: Option<u32> = None;
    let mut backoff_base_ms: Option<u64> = None;
    let mut backoff_max_ms: Option<u64> = None;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .map(std::string::ToString::to_string)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    let num = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, String> {
        let v = value(it, flag)?;
        v.parse()
            .map_err(|_| format!("bad value `{v}` for `{flag}`"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => cfg.listen = value(&mut it, a)?,
            "--journal" => cfg.journal = Some(value(&mut it, a)?),
            "--port-file" => cfg.port_file = Some(value(&mut it, a)?),
            "--resume" => cfg.resume = true,
            "--zero-wall" => cfg.zero_wall = true,
            "--workers" => workers = Some(num(&mut it, a)? as u32),
            "--heartbeat-ms" => heartbeat_ms = Some(num(&mut it, a)?),
            "--point-timeout-ms" => point_timeout_ms = Some(num(&mut it, a)?),
            "--retries" => retries = Some(num(&mut it, a)? as u32),
            "--quarantine" => quarantine = Some(num(&mut it, a)? as u32),
            "--backoff-base-ms" => backoff_base_ms = Some(num(&mut it, a)?),
            "--backoff-max-ms" => backoff_max_ms = Some(num(&mut it, a)?),
            f if !f.starts_with('-') => {
                if spec_path.is_some() {
                    return Err(Fail::usage("`vex serve` takes at most one spec file"));
                }
                spec_path = Some(f.to_string());
            }
            other => {
                return Err(Fail::usage(format!(
                    "unknown option `{other}` for `vex serve`"
                )))
            }
        }
    }

    // A spec file's `[serve]` table seeds the policy; flags override it.
    if let Some(p) = &spec_path {
        let spec = load_spec(p).map_err(Fail::input)?;
        if let Some(s) = spec.serve {
            cfg.policy = s;
        }
    }
    if let Some(v) = heartbeat_ms {
        if v == 0 {
            return Err(Fail::usage("`--heartbeat-ms` must be at least 1"));
        }
        cfg.policy.heartbeat_ms = v;
    }
    if let Some(v) = point_timeout_ms {
        cfg.policy.point_timeout_ms = v;
    }
    if let Some(v) = retries {
        cfg.policy.retries = v;
    }
    if let Some(v) = quarantine {
        if v == 0 {
            return Err(Fail::usage("`--quarantine` must be at least 1"));
        }
        cfg.policy.quarantine = v;
    }
    if let Some(v) = backoff_base_ms {
        cfg.policy.backoff_base_ms = v;
    }
    if let Some(v) = backoff_max_ms {
        cfg.policy.backoff_max_ms = v;
    }
    cfg.workers = workers.unwrap_or(cfg.policy.workers);
    if cfg.resume && cfg.journal.is_none() {
        return Err(Fail::usage("`--resume` needs `--journal FILE`"));
    }

    // The pool runs this very binary as `vex worker`.
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the vex binary for worker spawning: {e}"))?;
    cfg.worker_cmd = Some(vec![exe.display().to_string(), "worker".to_string()]);

    vex_serve::serve(&cfg, Some(&resolve_program)).map_err(Fail::from)
}

fn cmd_worker(args: &[String]) -> Result<(), Fail> {
    let mut connect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => {
                connect = Some(
                    it.next()
                        .map(std::string::ToString::to_string)
                        .ok_or_else(|| Fail::usage("`--connect` needs an address"))?,
                )
            }
            other => {
                return Err(Fail::usage(format!(
                    "unknown option `{other}` for `vex worker`"
                )))
            }
        }
    }
    let addr = connect.ok_or_else(|| Fail::usage("usage: vex worker --connect ADDR"))?;
    vex_serve::worker_main(&addr, Some(&resolve_program)).map_err(Fail::from)
}

fn cmd_submit(args: &[String]) -> Result<(), Fail> {
    let mut spec_path: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut poll_ms: u64 = 100;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .map(std::string::ToString::to_string)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(value(&mut it, a).map_err(Fail::usage)?),
            "--out" => out_path = Some(value(&mut it, a).map_err(Fail::usage)?),
            "--poll-ms" => {
                let v = value(&mut it, a).map_err(Fail::usage)?;
                poll_ms = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| Fail::usage(format!("bad poll interval `{v}`")))?;
            }
            f if !f.starts_with('-') => {
                if spec_path.is_some() {
                    return Err(Fail::usage("`vex submit` takes exactly one spec file"));
                }
                spec_path = Some(f.to_string());
            }
            other => {
                return Err(Fail::usage(format!(
                    "unknown option `{other}` for `vex submit`"
                )))
            }
        }
    }
    let spec_path = spec_path.ok_or_else(|| {
        Fail::usage("usage: vex submit SPEC.toml --connect ADDR [--out FILE] [--poll-ms N]")
    })?;
    let addr = connect.ok_or_else(|| Fail::usage("`vex submit` needs `--connect ADDR`"))?;
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| Fail::input(format!("reading `{spec_path}`: {e}")))?;

    let t0 = std::time::Instant::now();
    let sub = vex_serve::submit(&addr, &text, Some(&resolve_program), poll_ms)?;
    eprintln!(
        "[vex submit] {}: {} points — {} cached, {} newly scheduled, {} failed in {:.1}s",
        sub.outcome.spec.name,
        sub.total,
        sub.cached,
        sub.enqueued,
        sub.outcome.errors.len(),
        t0.elapsed().as_secs_f32()
    );
    let json = sub.outcome.to_json();
    match &out_path {
        Some(p) => {
            std::fs::write(p, &json).map_err(|e| format!("writing `{p}`: {e}"))?;
            outln(&format!("wrote {p}"))?;
        }
        None => out(json.as_bytes())?,
    }
    if !sub.outcome.errors.is_empty() {
        eprintln!("[vex submit] {} point(s) failed:", sub.outcome.errors.len());
        for e in &sub.outcome.errors {
            eprintln!("  [{:<7}] {}: {}", e.cause.tag(), e.label, e.cause);
        }
        return Err(Fail::points(format!(
            "{} of {} point(s) failed",
            sub.outcome.errors.len(),
            sub.total
        )));
    }
    Ok(())
}

/// Runs a workload like [`vex_sim::run_programs`], optionally streaming
/// the event trace to `trace` in the binary `.vext` format. The sink is
/// finished (flushed, deferred I/O errors surfaced) before the report
/// prints, so a reported run always has a complete trace on disk.
fn run_traced(
    cfg: &SimConfig,
    workload: &[Arc<Program>],
    trace: Option<&str>,
) -> Result<(vex_sim::Engine, StopReason), String> {
    let mut engine = vex_sim::Engine::new(cfg.clone(), workload);
    if let Some(path) = trace {
        engine.set_tracer(Box::new(vex_sim::FileSink::create(path)?));
    }
    let reason = engine.run();
    if let Some(mut sink) = engine.take_tracer() {
        sink.finish()?;
        if let Some(path) = trace {
            eprintln!("[vex run] trace written to `{path}`");
        }
    }
    Ok((engine, reason))
}

/// `vex run --spec FILE`: the whole configuration — machine, caches,
/// technique, workload — comes from a spec that must expand to exactly
/// one grid point. `cli_trace` (the `--trace` flag) overrides the spec's
/// own `trace` knob.
fn cmd_run_spec(path: &str, profile: bool, cli_trace: Option<String>) -> Result<(), Fail> {
    let spec = load_spec(path).map_err(Fail::input)?;
    let points = spec.expand();
    let [run] = points.as_slice() else {
        return Err(Fail::input(format!(
            "`{path}` expands to {} grid points; `vex run --spec` needs exactly one \
             (sweep it with `vex sweep {path}`)",
            points.len()
        )));
    };
    let machine = &run.machine.config;
    let workload: Vec<Arc<Program>> = run
        .mix
        .members
        .iter()
        .map(|m| match m {
            vex_spec::WorkloadRef::Builtin(name) => {
                vex_workloads::compile_benchmark_for(name, machine)
            }
            vex_spec::WorkloadRef::Path(p) => {
                let program = load_program(p)?;
                program.validate(machine).map_err(|e| {
                    format!("`{p}` does not fit machine `{}`: {e}", run.machine.name)
                })?;
                Ok(Arc::new(program))
            }
        })
        .collect::<Result<_, String>>()
        .map_err(Fail::input)?;
    let cfg = run.to_sim_config();
    let trace = cli_trace.or_else(|| run.trace.clone());
    let (engine, reason) = run_traced(&cfg, &workload, trace.as_deref())?;
    print_report(&cfg, &workload, &engine, reason)?;
    if profile {
        outln("")?;
        out(engine.profile().render().as_bytes())?;
    }
    Ok(())
}

struct RunOpts {
    inputs: Vec<String>,
    profile: bool,
    trace: Option<String>,
    technique: String,
    comm: CommPolicy,
    threads: Option<u8>,
    memory: MemoryMode,
    mt: MtMode,
    renaming: bool,
    respawn: bool,
    timeslice: u64,
    inst_limit: u64,
    max_cycles: u64,
    seed: u64,
    validate: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        inputs: Vec::new(),
        profile: false,
        trace: None,
        technique: "ccsi".to_string(),
        comm: CommPolicy::NoSplit,
        threads: None,
        memory: MemoryMode::Real,
        mt: MtMode::Simultaneous,
        renaming: true,
        respawn: false,
        timeslice: u64::MAX,
        inst_limit: u64::MAX,
        max_cycles: 200_000_000,
        seed: 0xC0FFEE,
        validate: true,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .map(std::string::ToString::to_string)
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--technique" => {
                let v = value(&mut it, a)?;
                if !["csmt", "smt", "ccsi", "cosi", "oosi"].contains(&v.as_str()) {
                    return Err(format!(
                        "unknown technique `{v}` (csmt, smt, ccsi, cosi, oosi)"
                    ));
                }
                o.technique = v;
            }
            "--comm" => {
                o.comm = match value(&mut it, a)?.as_str() {
                    "ns" | "no-split" => CommPolicy::NoSplit,
                    "as" | "always-split" => CommPolicy::AlwaysSplit,
                    other => return Err(format!("unknown comm policy `{other}` (ns, as)")),
                }
            }
            "--threads" => {
                let v = value(&mut it, a)?;
                let n: u8 = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad thread count `{v}`"))?;
                o.threads = Some(n);
            }
            "--memory" => {
                o.memory = match value(&mut it, a)?.as_str() {
                    "real" => MemoryMode::Real,
                    "perfect" => MemoryMode::Perfect,
                    other => return Err(format!("unknown memory mode `{other}` (real, perfect)")),
                }
            }
            "--mt" => {
                o.mt = match value(&mut it, a)?.as_str() {
                    "smt" | "simultaneous" => MtMode::Simultaneous,
                    "imt" | "interleaved" => MtMode::Interleaved,
                    "bmt" | "blocked" => MtMode::Blocked,
                    other => return Err(format!("unknown mt mode `{other}` (smt, imt, bmt)")),
                }
            }
            "--no-renaming" => o.renaming = false,
            "--profile" => o.profile = true,
            "--trace" => o.trace = Some(value(&mut it, a)?),
            "--respawn" => o.respawn = true,
            "--no-validate" => o.validate = false,
            "--timeslice" => o.timeslice = parse_u64(&value(&mut it, a)?, a)?,
            "--inst-limit" => o.inst_limit = parse_u64(&value(&mut it, a)?, a)?,
            "--max-cycles" => o.max_cycles = parse_u64(&value(&mut it, a)?, a)?,
            "--seed" => o.seed = parse_u64(&value(&mut it, a)?, a)?,
            "-" => o.inputs.push("-".to_string()),
            f if !f.starts_with('-') => o.inputs.push(f.to_string()),
            other => return Err(format!("unknown option `{other}` for `vex run`")),
        }
    }
    if o.inputs.is_empty() {
        o.inputs.push("-".to_string());
    }
    Ok(o)
}

fn parse_u64(v: &str, flag: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("bad value `{v}` for `{flag}`"))
}

fn cmd_run(args: &[String]) -> Result<(), Fail> {
    if args.iter().any(|a| a == "--spec") {
        let mut profile = false;
        let mut trace: Option<String> = None;
        let mut path: Option<String> = None;
        let mut it = args.iter();
        let bad = || {
            Fail::usage(
                "`--spec` replaces every other `vex run` option (except --profile/--trace): \
                 vex run --spec FILE [--profile] [--trace FILE]",
            )
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                // The spec path may follow the flag as a bare token.
                "--spec" => {}
                "--profile" => profile = true,
                "--trace" => {
                    trace = Some(
                        it.next()
                            .ok_or_else(|| Fail::usage("`--trace` needs a path"))?
                            .clone(),
                    )
                }
                f if !f.starts_with('-') => {
                    if path.is_some() {
                        return Err(bad());
                    }
                    path = Some(f.to_string());
                }
                _ => return Err(bad()),
            }
        }
        let path = path.ok_or_else(bad)?;
        return cmd_run_spec(&path, profile, trace);
    }
    let opts = parse_run_args(args).map_err(Fail::usage)?;
    let programs: Vec<Arc<Program>> = opts
        .inputs
        .iter()
        .map(|p| load_program(p).map(Arc::new))
        .collect::<Result<_, String>>()
        .map_err(Fail::input)?;

    let technique = match opts.technique.as_str() {
        "csmt" => Technique::csmt(),
        "smt" => Technique::smt(),
        "ccsi" => Technique::ccsi(opts.comm),
        "cosi" => Technique::cosi(opts.comm),
        _ => Technique::oosi(opts.comm),
    };
    let n_threads = opts.threads.unwrap_or(programs.len().min(255) as u8).max(1);
    if (n_threads as usize) < programs.len() {
        return Err(Fail::usage(format!(
            "{} input programs but only {n_threads} hardware threads — every input \
             must get a context (raise --threads or drop inputs)",
            programs.len()
        )));
    }

    // All programs share the machine; they must agree on cluster count.
    let machine = machine_for(&programs[0]);
    for p in programs.iter() {
        if vex_asm::program_clusters(p) != machine.n_clusters {
            return Err(Fail::input(format!(
                "program `{}` targets {} clusters but `{}` targets {}",
                p.name,
                vex_asm::program_clusters(p),
                programs[0].name,
                machine.n_clusters
            )));
        }
        if opts.validate {
            p.validate(&machine).map_err(|e| {
                Fail::input(format!("invalid program (use --no-validate to force): {e}"))
            })?;
        }
    }

    // Cycle the inputs to fill all hardware contexts.
    let workload: Vec<Arc<Program>> = (0..n_threads as usize)
        .map(|i| Arc::clone(&programs[i % programs.len()]))
        .collect();

    let cfg = SimConfig {
        machine,
        caches: vex_sim::MemConfig::paper(),
        technique,
        n_threads,
        renaming: opts.renaming,
        memory: opts.memory,
        timeslice: opts.timeslice,
        inst_limit: opts.inst_limit,
        max_cycles: opts.max_cycles,
        seed: opts.seed,
        mt_mode: opts.mt,
        respawn: opts.respawn,
    };
    let (engine, reason) = run_traced(&cfg, &workload, opts.trace.as_deref())?;
    print_report(&cfg, &workload, &engine, reason)?;
    if opts.profile {
        outln("")?;
        out(engine.profile().render().as_bytes())?;
    }
    Ok(())
}

/// `vex trace --attribute FILE`: streams a recorded `.vext` trace (from
/// FILE, or stdin for `-`) into the per-thread, per-cycle attribution and
/// renders it as tables (or JSON). The replay validates every record,
/// hard-checks the defining identity — every thread's bins sum exactly to
/// the run's total cycles — and fails loudly on a torn, truncated or
/// inconsistent stream rather than reporting partial numbers.
fn cmd_trace(args: &[String]) -> Result<(), Fail> {
    let mut input: Option<String> = None;
    let mut attribute = false;
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--attribute" => {
                attribute = true;
                // The trace path may ride on the flag or stand alone.
                let rides_flag = it
                    .clone()
                    .next()
                    .is_some_and(|next| !next.starts_with('-') || next == "-");
                if rides_flag {
                    input = it.next().cloned();
                }
            }
            "--json" => json = true,
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| Fail::usage("`--out` needs a path"))?
                        .clone(),
                )
            }
            "-" => input = Some("-".to_string()),
            f if !f.starts_with('-') => {
                if input.is_some() {
                    return Err(Fail::usage("`vex trace` takes exactly one trace file"));
                }
                input = Some(f.to_string());
            }
            other => {
                return Err(Fail::usage(format!(
                    "unknown option `{other}` for `vex trace`"
                )))
            }
        }
    }
    if !attribute {
        return Err(Fail::usage(
            "usage: vex trace --attribute FILE [--json] [--out FILE]",
        ));
    }
    let input = input.unwrap_or_else(|| "-".to_string());
    let source: Box<dyn Read> = if input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(
            std::fs::File::open(&input)
                .map_err(|e| Fail::input(format!("reading `{input}`: {e}")))?,
        )
    };
    let (meta, attr) =
        vex_trace::attribute_stream(source).map_err(|e| Fail::input(format!("{input}: {e}")))?;
    let report = if json {
        vex_sim::attribution_json(&meta, &attr)
    } else {
        vex_sim::render_attribution(&meta, &attr)
    };
    write_output(out_path.as_deref(), report.as_bytes())?;
    Ok(())
}

fn print_report(
    cfg: &SimConfig,
    workload: &[Arc<Program>],
    engine: &vex_sim::Engine,
    reason: StopReason,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let s = &engine.stats;
    let mt = match cfg.mt_mode {
        MtMode::Simultaneous => "smt",
        MtMode::Interleaved => "imt",
        MtMode::Blocked => "bmt",
    };
    let memory = match cfg.memory {
        MemoryMode::Real => "real",
        MemoryMode::Perfect => "perfect",
    };
    let mut r = String::new();
    let _ = writeln!(
        r,
        "## vex run: technique={} threads={} mt={mt} memory={memory}",
        cfg.technique.label(),
        cfg.n_threads
    );
    let _ = writeln!(r, "stop reason      {reason:?}");
    let _ = writeln!(r, "cycles           {}", s.cycles);
    let _ = writeln!(r, "ops issued       {}", s.total_ops);
    let _ = writeln!(r, "insts retired    {}", s.total_insts);
    let _ = writeln!(r, "IPC              {:.3}", s.ipc());
    let _ = writeln!(
        r,
        "vertical waste   {:.1}%  (empty cycles)",
        s.vertical_waste() * 100.0
    );
    let _ = writeln!(
        r,
        "horizontal waste {:.1}%  (unused slots in busy cycles)",
        s.horizontal_waste(cfg.machine.total_issue_width()) * 100.0
    );
    let _ = writeln!(r, "merged cycles    {}", s.merged_cycles);
    let _ = writeln!(r);
    let _ = writeln!(
        r,
        "thread  program           ops         insts  runs  split-insts  mem digest"
    );
    for (i, (t, p)) in s.per_thread.iter().zip(workload).enumerate() {
        let _ = writeln!(
            r,
            "t{i:<6} {:<16} {:>10} {:>8} {:>5} {:>12}  {:016x}",
            p.name,
            t.ops_issued,
            t.insts_retired,
            t.runs_completed,
            t.split_instructions,
            engine.contexts[i].mem.digest()
        );
    }
    out(r.as_bytes())
}
