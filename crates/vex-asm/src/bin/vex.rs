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
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::sync::Arc;
use vex_experiments::{SweepOutcome, SweepRunner};
use vex_isa::{MachineConfig, Program};
use vex_serve::ServeConfig;
use vex_sim::config::name_list;
use vex_sim::{CommPolicy, MemoryMode, MtMode, SimConfig, Technique};
use vex_spec::{ServeSpec, SweepSpec};

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
    --retries N                           extra attempts for a point whose
                                          worker crashed or hung  [default: 3]
                                          (a clean failure is final)

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

TRACE OPTIONS:
    --attribute FILE                      replay FILE (`-` = stdin) and bin
                                          every simulated cycle by cause
    --json                                emit the attribution as JSON
    --out FILE                            write the report to FILE (stdout
                                          default)

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

// ---- argument reading ---------------------------------------------

/// One subcommand's arguments, read left to right. Every error it
/// reports is a usage error (exit 2).
struct Args<'a> {
    cmd: &'static str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn new(cmd: &'static str, args: &'a [String]) -> Self {
        Args {
            cmd,
            rest: args.iter(),
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The token after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, Fail> {
        self.next()
            .ok_or_else(|| Fail::usage(format!("`{flag}` needs a value")))
    }

    /// The token after `flag`, parsed as the flag's own type and checked
    /// against `range`.
    fn num<T: std::str::FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, Fail> {
        let v = self.value(flag)?;
        v.parse()
            .ok()
            .filter(|n| range.contains(n))
            .ok_or_else(|| Fail::usage(format!("bad value `{v}` for `{flag}`")))
    }

    /// The token after `flag`, looked up in a `(value, name)` table.
    fn named<T: Copy>(&mut self, flag: &str, table: &[(T, &str)]) -> Result<T, Fail> {
        let v = self.value(flag)?;
        let found = table.iter().find(|&&(_, n)| n == v).map(|&(t, _)| t);
        found.ok_or_else(|| {
            let names = name_list(table);
            Fail::usage(format!("bad value `{v}` for `{flag}` ({names})"))
        })
    }

    /// Whether `arg` is a file operand rather than an option. `-` (stdin)
    /// is one only for the subcommands that read their input from stdin.
    fn is_operand(&self, arg: &str) -> bool {
        !arg.starts_with('-')
            || arg == "-" && matches!(self.cmd, "asm" | "check" | "disasm" | "run" | "trace")
    }

    /// Takes `arg` as the subcommand's one file operand; any other
    /// dash-led token is an unknown option.
    fn operand(&self, slot: &mut Option<&'a str>, arg: &'a str) -> Result<(), Fail> {
        if !self.is_operand(arg) {
            return Err(self.unknown(arg));
        }
        if slot.replace(arg).is_some() {
            return Err(Fail::usage(format!(
                "`vex {}` takes at most one file operand",
                self.cmd
            )));
        }
        Ok(())
    }

    fn unknown(&self, flag: &str) -> Fail {
        Fail::usage(format!("unknown option `{flag}` for `vex {}`", self.cmd))
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

/// Loads a program from text or binary, autodetected. Also the program
/// resolver the sweep runner, service and worker use for `.vex`/`.vexb`
/// mix members.
fn load_program(path: &str) -> Result<Program, String> {
    load_program_spanned(path).map(|(program, _, _)| program)
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

/// The machine a program runs on: the paper machine, widened or narrowed
/// to the program's cluster count if it differs.
fn machine_for(p: &Program) -> MachineConfig {
    let mut m = MachineConfig::paper_4c4w();
    m.n_clusters = vex_asm::program_clusters(p);
    m
}

// ---- subcommands --------------------------------------------------

fn cmd_asm(args: &[String]) -> Result<(), Fail> {
    let (mut input, mut output, mut check) = (None, None, false);
    let mut a = Args::new("asm", args);
    while let Some(arg) = a.next() {
        match arg {
            "-o" | "--output" => output = Some(a.value(arg)?),
            "--check" => check = true,
            _ => a.operand(&mut input, arg)?,
        }
    }
    let input = input.unwrap_or("-");
    let (program, spans, source) = load_program_spanned(input).map_err(Fail::input)?;
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
    write_output(output, &vex_asm::encode(&program))?;
    Ok(())
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
    let (mut input, mut machine, mut json) = (None, None, false);
    let mut a = Args::new("check", args);
    while let Some(arg) = a.next() {
        match arg {
            "--machine" => machine = Some(parse_machine(a.value(arg)?).map_err(Fail::usage)?),
            "--json" => json = true,
            _ => a.operand(&mut input, arg)?,
        }
    }
    let input = input.unwrap_or("-");
    let (program, spans, source) = load_program_spanned(input).map_err(Fail::input)?;
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
                input
            } else {
                &program.name
            }
        )));
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), Fail> {
    let (mut input, mut output) = (None, None);
    let mut a = Args::new("disasm", args);
    while let Some(arg) = a.next() {
        match arg {
            "-o" | "--output" => output = Some(a.value(arg)?),
            _ => a.operand(&mut input, arg)?,
        }
    }
    let program = load_program(input.unwrap_or("-")).map_err(Fail::input)?;
    write_output(output, vex_asm::print_program(&program).as_bytes())?;
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), Fail> {
    let mut dir = None;
    let mut a = Args::new("export-workloads", args);
    while let Some(arg) = a.next() {
        a.operand(&mut dir, arg)?;
    }
    let dir = dir.unwrap_or("workloads");
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

fn cmd_fuzz(args: &[String]) -> Result<(), Fail> {
    let mut gen = vex_gen::GenConfig {
        machine: MachineConfig::paper_4c4w(),
        seed: 0,
        size: vex_gen::GenConfig::DEFAULT_SIZE,
    };
    let (mut seed_count, mut seed_base) = (100u64, 0u64);
    let (mut machine_name, mut out_path) = ("paper", "fuzz_failure.vex");
    let mut a = Args::new("fuzz", args);
    while let Some(arg) = a.next() {
        match arg {
            "--seed-count" => seed_count = a.num(arg, 1..)?,
            "--seed-base" => seed_base = a.num(arg, ..)?,
            "--machine" => {
                machine_name = a.value(arg)?;
                gen.machine = parse_machine(machine_name).map_err(Fail::usage)?;
            }
            "--size" => gen.size = a.num(arg, 1..)?,
            "--out" => out_path = a.value(arg)?,
            _ => return Err(a.unknown(arg)),
        }
    }
    let t0 = std::time::Instant::now();
    for i in 0..seed_count {
        let seed = seed_base.wrapping_add(i);
        let cfg = vex_gen::GenConfig {
            seed,
            ..gen.clone()
        };
        // Generated programs must be analysis-clean (no static-analysis
        // errors): the generator promises well-formed resource usage,
        // in-range branch targets, and paired channel ops, and the
        // analyzer cross-checks that promise on every seed.
        let program = vex_gen::generate(&cfg)?;
        let report = vex_analyze::analyze(&program, &cfg.machine);
        if !report.is_clean() {
            let text = vex_asm::print_program(&program);
            if let Err(e) = std::fs::write(out_path, &text) {
                eprintln!("[vex fuzz] warning: could not write `{out_path}`: {e}");
            } else {
                eprintln!("[vex fuzz] analysis-rejected program written to `{out_path}`");
            }
            eprint!("{}", report.render());
            return Err(Fail::analysis(format!(
                "seed {seed}: generated program fails static analysis with {} error(s)\n  \
                 reproduce: vex fuzz --machine {machine_name} --seed-base {seed} --seed-count 1 \
                 --size {}",
                report.errors(),
                cfg.size
            )));
        }
        // The analyzed program is the one checked: generate once per seed.
        let program = Arc::new(program);
        if let Err(mismatch) = vex_gen::check_program(&program, &cfg.machine) {
            let failure = vex_gen::Failure {
                program: Arc::try_unwrap(program).unwrap_or_else(|a| (*a).clone()),
                mismatch,
            };
            report_fuzz_failure(&cfg, failure, machine_name, out_path)?;
            return Ok(());
        }
        if (i + 1) % 100 == 0 {
            eprintln!(
                "[vex fuzz] {}/{seed_count} seeds clean ({:.1}s)",
                i + 1,
                t0.elapsed().as_secs_f32()
            );
        }
    }
    outln(&format!(
        "vex fuzz: {seed_count} seed(s) x 8 techniques x {{1,2,4}} threads on `{machine_name}`: \
         all runs byte-identical to the reference interpreter ({:.1}s)",
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

/// Writes a finished sweep's JSON results to `out_path` (stdout without
/// one). If points failed, the JSON's `errors` table is repeated on
/// stderr and the command fails with exit code 4, so scripts notice
/// without parsing.
fn emit_outcome(
    cmd: &str,
    outcome: &SweepOutcome,
    out_path: Option<&str>,
    total: usize,
) -> Result<(), Fail> {
    write_output(out_path, outcome.to_json().as_bytes())?;
    if let Some(p) = out_path {
        outln(&format!("wrote {p}"))?;
    }
    if outcome.errors.is_empty() {
        return Ok(());
    }
    eprintln!("[vex {cmd}] {} point(s) failed:", outcome.errors.len());
    for e in &outcome.errors {
        eprintln!("  [{:<7}] {}: {}", e.cause.tag(), e.label, e.cause);
    }
    Err(Fail::points(format!(
        "{} of {total} point(s) failed",
        outcome.errors.len()
    )))
}

fn cmd_sweep(args: &[String]) -> Result<(), Fail> {
    let (mut spec_path, mut out_path, mut journal) = (None, None, None);
    let mut workers = vex_experiments::default_workers();
    let (mut resume, mut keep_going, mut zero_wall) = (false, false, false);
    let mut a = Args::new("sweep", args);
    while let Some(arg) = a.next() {
        match arg {
            "--out" => out_path = Some(a.value(arg)?),
            "--workers" => workers = a.num(arg, 1..)?,
            "--journal" => journal = Some(a.value(arg)?),
            "--resume" => resume = true,
            "--keep-going" => keep_going = true,
            "--zero-wall" => zero_wall = true,
            _ => a.operand(&mut spec_path, arg)?,
        }
    }
    let spec_path = spec_path.ok_or_else(|| {
        Fail::usage(
            "usage: vex sweep SPEC.toml [--out FILE] [--journal FILE [--resume]] \
             [--keep-going] [--zero-wall]",
        )
    })?;
    let spec = load_spec(spec_path).map_err(Fail::input)?;
    if resume && journal.is_none() && spec.journal.is_none() {
        return Err(Fail::usage(
            "`--resume` needs a journal path: pass `--journal FILE` or set \
             `journal = \"...\"` in the spec",
        ));
    }

    let mut runner = SweepRunner::new(&spec)
        .loader(&load_program)
        .workers(workers)
        .resume(resume)
        .keep_going(keep_going)
        .deterministic_wall(zero_wall);
    if let Some(j) = journal {
        runner = runner.journal(j);
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
    let total = outcome.errors.len() + outcome.points.len();
    emit_outcome("sweep", &outcome, out_path, total)
}

// ---- the sweep service --------------------------------------------

fn cmd_serve(args: &[String]) -> Result<(), Fail> {
    let mut cfg = ServeConfig::default();
    // A spec file's `[serve]` table seeds the policy and flags override
    // it, wherever the spec operand sits: read the flags once to find the
    // spec, then once more over its policy.
    if let Some(path) = read_serve_args(args, &mut cfg)? {
        if let Some(policy) = load_spec(path).map_err(Fail::input)?.serve {
            cfg.policy = policy;
            read_serve_args(args, &mut cfg)?;
        }
    }
    if cfg.resume && cfg.journal.is_none() {
        return Err(Fail::usage("`--resume` needs `--journal FILE`"));
    }

    // The pool runs this very binary as `vex worker`.
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the vex binary for worker spawning: {e}"))?;
    cfg.worker_cmd = Some(vec![exe.display().to_string(), "worker".to_string()]);

    vex_serve::serve(&cfg, Some(&load_program)).map_err(Fail::from)
}

/// Reads `vex serve`'s flags into `cfg`, returning the spec operand.
fn read_serve_args<'a>(args: &'a [String], cfg: &mut ServeConfig) -> Result<Option<&'a str>, Fail> {
    let mut spec_path = None;
    let mut a = Args::new("serve", args);
    while let Some(arg) = a.next() {
        let p = &mut cfg.policy;
        match arg {
            "--listen" => cfg.listen = a.value(arg)?.to_string(),
            "--journal" => cfg.journal = Some(a.value(arg)?.to_string()),
            "--port-file" => cfg.port_file = Some(a.value(arg)?.to_string()),
            "--resume" => cfg.resume = true,
            "--zero-wall" => cfg.zero_wall = true,
            "--workers" => p.workers = a.num(arg, 0..=ServeSpec::MAX_WORKERS)?,
            "--heartbeat-ms" => p.heartbeat_ms = a.num(arg, 1..)?,
            "--retries" => p.retries = a.num(arg, ..)?,
            _ => a.operand(&mut spec_path, arg)?,
        }
    }
    Ok(spec_path)
}

fn cmd_worker(args: &[String]) -> Result<(), Fail> {
    let mut connect = None;
    let mut a = Args::new("worker", args);
    while let Some(arg) = a.next() {
        match arg {
            "--connect" => connect = Some(a.value(arg)?),
            _ => return Err(a.unknown(arg)),
        }
    }
    let addr = connect.ok_or_else(|| Fail::usage("usage: vex worker --connect ADDR"))?;
    vex_serve::worker_main(addr, Some(&load_program)).map_err(Fail::from)
}

fn cmd_submit(args: &[String]) -> Result<(), Fail> {
    let (mut spec_path, mut connect, mut out_path, mut poll_ms) = (None, None, None, 100);
    let mut a = Args::new("submit", args);
    while let Some(arg) = a.next() {
        match arg {
            "--connect" => connect = Some(a.value(arg)?),
            "--out" => out_path = Some(a.value(arg)?),
            "--poll-ms" => poll_ms = a.num(arg, 1..)?,
            _ => a.operand(&mut spec_path, arg)?,
        }
    }
    let spec_path = spec_path.ok_or_else(|| {
        Fail::usage("usage: vex submit SPEC.toml --connect ADDR [--out FILE] [--poll-ms N]")
    })?;
    let addr = connect.ok_or_else(|| Fail::usage("`vex submit` needs `--connect ADDR`"))?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| Fail::input(format!("reading `{spec_path}`: {e}")))?;

    let t0 = std::time::Instant::now();
    let sub = vex_serve::submit(addr, &text, Some(&load_program), poll_ms)?;
    eprintln!(
        "[vex submit] {}: {} points — {} cached, {} newly scheduled, {} failed in {:.1}s",
        sub.outcome.spec.name,
        sub.total,
        sub.cached,
        sub.enqueued,
        sub.outcome.errors.len(),
        t0.elapsed().as_secs_f32()
    );
    emit_outcome("submit", &sub.outcome, out_path, sub.total)
}

// ---- simulation ---------------------------------------------------

/// A technique family: it builds its technique for a `--comm` policy.
type Family = fn(CommPolicy) -> Technique;

/// `vex run --technique` names (CSMT and SMT never split, so they ignore
/// the `--comm` policy).
const TECHNIQUES: [(Family, &str); 5] = [
    (|_| Technique::csmt(), "csmt"),
    (|_| Technique::smt(), "smt"),
    (Technique::ccsi, "ccsi"),
    (Technique::cosi, "cosi"),
    (Technique::oosi, "oosi"),
];

fn cmd_run(args: &[String]) -> Result<(), Fail> {
    if args.iter().any(|a| a == "--spec") {
        return cmd_run_spec(args);
    }
    let mut cfg = SimConfig {
        timeslice: u64::MAX,
        inst_limit: u64::MAX,
        max_cycles: 200_000_000,
        respawn: false,
        ..SimConfig::paper(Technique::ccsi(CommPolicy::NoSplit), 1)
    };
    let mut technique: Family = Technique::ccsi;
    let (mut comm, mut threads) = (CommPolicy::NoSplit, None);
    let (mut inputs, mut trace, mut profile, mut validate) = (Vec::new(), None, false, true);
    let mut a = Args::new("run", args);
    while let Some(arg) = a.next() {
        match arg {
            "--technique" => technique = a.named(arg, &TECHNIQUES)?,
            "--comm" => comm = a.named(arg, &CommPolicy::NAMED)?,
            "--threads" => threads = Some(a.num(arg, 1..)?),
            "--memory" => cfg.memory = a.named(arg, &MemoryMode::NAMED)?,
            "--mt" => cfg.mt_mode = a.named(arg, &MtMode::NAMED)?,
            "--no-renaming" => cfg.renaming = false,
            "--respawn" => cfg.respawn = true,
            "--timeslice" => cfg.timeslice = a.num(arg, ..)?,
            "--inst-limit" => cfg.inst_limit = a.num(arg, ..)?,
            "--max-cycles" => cfg.max_cycles = a.num(arg, ..)?,
            "--seed" => cfg.seed = a.num(arg, ..)?,
            "--profile" => profile = true,
            "--trace" => trace = Some(a.value(arg)?),
            "--no-validate" => validate = false,
            _ if a.is_operand(arg) => inputs.push(arg),
            _ => return Err(a.unknown(arg)),
        }
    }
    if inputs.is_empty() {
        inputs.push("-");
    }
    let programs: Vec<Arc<Program>> = inputs
        .iter()
        .map(|p| load_program(p).map(Arc::new))
        .collect::<Result<_, String>>()
        .map_err(Fail::input)?;

    cfg.technique = technique(comm);
    cfg.n_threads = threads.unwrap_or(programs.len().min(255) as u8).max(1);
    if (cfg.n_threads as usize) < programs.len() {
        return Err(Fail::usage(format!(
            "{} input programs but only {} hardware threads — every input \
             must get a context (raise --threads or drop inputs)",
            programs.len(),
            cfg.n_threads
        )));
    }

    // All programs share the machine; they must agree on cluster count.
    cfg.machine = machine_for(&programs[0]);
    for p in programs.iter() {
        if vex_asm::program_clusters(p) != cfg.machine.n_clusters {
            return Err(Fail::input(format!(
                "program `{}` targets {} clusters but `{}` targets {}",
                p.name,
                vex_asm::program_clusters(p),
                programs[0].name,
                cfg.machine.n_clusters
            )));
        }
        if validate {
            p.validate(&cfg.machine).map_err(|e| {
                Fail::input(format!("invalid program (use --no-validate to force): {e}"))
            })?;
        }
    }

    // Cycle the inputs to fill all hardware contexts.
    let workload: Vec<Arc<Program>> = (0..cfg.n_threads as usize)
        .map(|i| Arc::clone(&programs[i % programs.len()]))
        .collect();
    run_and_report(&cfg, &workload, trace, profile)
}

/// `vex run --spec FILE`: the whole configuration — machine, caches,
/// technique, workload — comes from a spec that must expand to exactly
/// one grid point. `--trace` overrides the spec's own `trace` knob.
fn cmd_run_spec(args: &[String]) -> Result<(), Fail> {
    let (mut path, mut trace, mut profile) = (None, None, false);
    let bad = || {
        Fail::usage(
            "`--spec` replaces every other `vex run` option (except --profile/--trace): \
             vex run --spec FILE [--profile] [--trace FILE]",
        )
    };
    let mut a = Args::new("run", args);
    while let Some(arg) = a.next() {
        match arg {
            // The spec path may follow the flag as a bare token.
            "--spec" => {}
            "--profile" => profile = true,
            "--trace" => trace = Some(a.value(arg)?),
            _ if !arg.starts_with('-') && path.is_none() => path = Some(arg),
            _ => return Err(bad()),
        }
    }
    let path = path.ok_or_else(bad)?;
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
    let trace = trace.or(run.trace.as_deref());
    run_and_report(&run.to_sim_config(), &workload, trace, profile)
}

/// Runs `workload` under `cfg` and prints the run report, followed with
/// `profile` by the simulator fast-path profile. With `trace`, the event
/// trace streams to that file in the binary `.vext` format; the sink is
/// finished (flushed, deferred I/O errors surfaced) before the report
/// prints, so a reported run always has a complete trace on disk.
fn run_and_report(
    cfg: &SimConfig,
    workload: &[Arc<Program>],
    trace: Option<&str>,
    profile: bool,
) -> Result<(), Fail> {
    use std::fmt::Write as _;
    let mut engine = vex_sim::Engine::new(cfg.clone(), workload);
    if let Some(path) = trace {
        engine.set_tracer(Box::new(vex_sim::FileSink::create(path)?));
    }
    let reason = engine.run();
    if let (Some(path), Some(mut sink)) = (trace, engine.take_tracer()) {
        sink.finish()?;
        eprintln!("[vex run] trace written to `{path}`");
    }

    let s = &engine.stats;
    let mut r = String::new();
    let _ = writeln!(
        r,
        "## vex run: technique={} threads={} mt={} memory={}",
        cfg.technique.label(),
        cfg.n_threads,
        cfg.mt_mode.name(),
        cfg.memory.name()
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
    out(r.as_bytes())?;
    if profile {
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
    let (mut input, mut attribute, mut json, mut out_path) = (None, false, false, None);
    let mut a = Args::new("trace", args);
    while let Some(arg) = a.next() {
        match arg {
            // The trace path may ride on the flag or stand alone.
            "--attribute" => attribute = true,
            "--json" => json = true,
            "--out" => out_path = Some(a.value(arg)?),
            _ => a.operand(&mut input, arg)?,
        }
    }
    if !attribute {
        return Err(Fail::usage(
            "usage: vex trace --attribute FILE [--json] [--out FILE]",
        ));
    }
    let input = input.unwrap_or("-");
    let source: Box<dyn Read> = if input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(
            std::fs::File::open(input)
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
    write_output(out_path, report.as_bytes())?;
    Ok(())
}
