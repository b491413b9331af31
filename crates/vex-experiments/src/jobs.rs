//! The reusable job model shared by the in-process
//! [`SweepRunner`](crate::SweepRunner) and the `vex serve` sweep service:
//! program preparation + content-addressed point keys, and the
//! single-point spec conversion the service uses as its assignment wire
//! format.
//!
//! The unit of work everywhere is a *point job*: one [`RunSpec`] plus its
//! FNV-64 [`point_key`], which hashes every result-affecting field and
//! the member programs' compiled digests. The key is what makes work
//! distributable: any process that expands the same spec against the same
//! programs derives the same keys, so results can be cached, journaled and
//! exchanged between processes without trusting anything but the key.
//!
//! A long-lived process keeps what it has made of each built-in in a
//! [`ProgramMemo`]: a built-in's code is fixed when `vex` is built, so the
//! server compiles each (machine, built-in) pair once in its life, for its
//! digest, and a worker prepares each once. Program files are resolved
//! again for every submission and every assignment, since they may change
//! on disk.

use crate::journal::{point_key, program_digest};
use crate::runner::ProgramLoader;
use std::collections::HashMap;
use std::sync::Arc;
use vex_isa::{MachineConfig, Program};
use vex_sim::PreparedProgram;
use vex_spec::{RunSpec, SweepSpec, WorkloadRef};
use vex_workloads::compile_benchmark_for;

/// Every distinct (machine index, member name) program of a spec, mapped
/// to its prepared form and compiled digest — the shared input of
/// [`key_of`] and workload assembly.
pub type PreparedMap = HashMap<(usize, String), (PreparedProgram, u64)>;

/// What a process has made of member programs, by (machine, member name):
/// a compiled digest to key points with, or a prepared program and its
/// digest to simulate them.
pub type ProgramMemo<V> = HashMap<(MachineConfig, String), V>;

/// Expands `spec` into its run points; a spec with an empty axis is an
/// error.
pub fn expand_points(spec: &SweepSpec) -> Result<Vec<RunSpec>, String> {
    let points = spec.expand();
    if points.is_empty() {
        return Err(format!(
            "spec `{}` expands to no run points (empty axis)",
            spec.name
        ));
    }
    Ok(points)
}

/// Resolves `member` of `run`'s mix to its program for `run`'s machine:
/// compiled for a built-in, resolved through `loader` for a `.vex`/`.vexb`
/// path (an error if no loader is plugged in), then validated and
/// statically analyzed.
fn load_member(
    run: &RunSpec,
    member: &WorkloadRef,
    loader: Option<ProgramLoader<'_>>,
) -> Result<Arc<Program>, String> {
    let machine = &run.machine.config;
    match member {
        WorkloadRef::Builtin(name) => {
            compile_benchmark_for(name, machine).map_err(|e| format!("mix `{}`: {e}", run.mix.name))
        }
        WorkloadRef::Path(path) => {
            let Some(loader) = loader else {
                return Err(format!(
                    "mix `{}` member `{path}` is a program file but this runner \
                     has no loader (run it through the `vex` CLI)",
                    run.mix.name
                ));
            };
            let program = loader(path)?;
            program.validate(machine).map_err(|e| {
                format!("`{path}` does not fit machine `{}`: {e}", run.machine.name)
            })?;
            // Structural validation is per-instruction; the static
            // analyzer additionally proves whole-program properties
            // (branch targets, channel pairing, constant-address
            // bounds). Rejecting here keeps a doomed program from
            // ever being scheduled onto a worker.
            let report = vex_analyze::analyze(&program, machine);
            if !report.is_clean() {
                let first = report
                    .error_diags()
                    .next()
                    .map(std::string::ToString::to_string)
                    .unwrap_or_default();
                return Err(format!(
                    "`{path}` fails static analysis on machine `{}` with {} error(s); \
                     first: {first} (run `vex check {path}` for the full report)",
                    run.machine.name,
                    report.errors()
                ));
            }
            Ok(Arc::new(program))
        }
    }
}

/// Prepares every distinct (machine index, member) program of `points`
/// exactly once: compiled for built-ins; resolved through `loader`,
/// validated and analyzed for `.vex`/`.vexb` paths (an error if a path
/// member appears and no loader is plugged in). Returns the prepared
/// program and its digest, keyed for lookup from any point.
pub fn prepare_programs(
    points: &[RunSpec],
    loader: Option<ProgramLoader<'_>>,
) -> Result<PreparedMap, String> {
    let mut prepared: PreparedMap = HashMap::new();
    for p in points {
        for member in &p.mix.members {
            let key = (p.machine_index, member.as_str().to_string());
            if prepared.contains_key(&key) {
                continue;
            }
            let program = load_member(p, member, loader)?;
            let digest = program_digest(&program);
            prepared.insert(key, (PreparedProgram::prepare(program), digest));
        }
    }
    Ok(prepared)
}

/// `member` of `run`'s mix as the `V` that `make` builds from its program
/// the first time it is asked for. A built-in is kept in `builtins`, which
/// may live as long as the process. A program file is kept in `files`,
/// which must serve one submission or assignment only: the file may
/// change on disk before the next.
pub fn resolve_member<V: Clone>(
    run: &RunSpec,
    member: &WorkloadRef,
    loader: Option<ProgramLoader<'_>>,
    builtins: &mut ProgramMemo<V>,
    files: &mut ProgramMemo<V>,
    make: impl FnOnce(Arc<Program>) -> V,
) -> Result<V, String> {
    let memo = match member {
        WorkloadRef::Builtin(_) => builtins,
        WorkloadRef::Path(_) => files,
    };
    let slot = (run.machine.config.clone(), member.as_str().to_string());
    if let Some(v) = memo.get(&slot) {
        return Ok(v.clone());
    }
    let v = make(load_member(run, member, loader)?);
    memo.insert(slot, v.clone());
    Ok(v)
}

/// The content-addressed key of `run`, looked up against a
/// [`prepare_programs`] table.
pub fn key_of(run: &RunSpec, prepared: &PreparedMap) -> u64 {
    let member_digests: Vec<u64> = run
        .mix
        .members
        .iter()
        .map(|m| prepared[&(run.machine_index, m.as_str().to_string())].1)
        .collect();
    point_key(run, &member_digests)
}

/// Expands `spec` and computes every point's content-addressed key —
/// what a scheduler needs to enqueue, dedup and cache jobs without
/// simulating anything. A built-in is compiled only if `builtins` lacks
/// its digest, and each program file is resolved once per call.
pub fn spec_point_keys(
    spec: &SweepSpec,
    loader: Option<ProgramLoader<'_>>,
    builtins: &mut ProgramMemo<u64>,
) -> Result<Vec<(RunSpec, u64)>, String> {
    let points = expand_points(spec)?;
    let mut files = ProgramMemo::new();
    let mut keyed = Vec::with_capacity(points.len());
    for run in points {
        let mut digests = Vec::with_capacity(run.mix.members.len());
        for m in &run.mix.members {
            digests.push(resolve_member(
                &run,
                m,
                loader,
                builtins,
                &mut files,
                |p| program_digest(&p),
            )?);
        }
        let key = point_key(&run, &digests);
        keyed.push((run, key));
    }
    Ok(keyed)
}

/// Wraps one resolved point back into a spec that expands to exactly that
/// point — the sweep service's assignment wire format. The canonical
/// printer emits every result-affecting field explicitly (including the
/// mix's resolved seed and the full machine geometry), and
/// `parse(print(spec)) == spec`, so a worker that parses the printed form
/// recomputes the identical [`point_key`].
pub fn single_point_spec(run: &RunSpec) -> SweepSpec {
    let mut spec = SweepSpec::base(vex_sim::Scale {
        inst_limit: run.inst_limit,
        timeslice: run.timeslice,
    });
    spec.name = run.spec_name.clone();
    spec.max_cycles = run.max_cycles;
    spec.seed = run.mix.seed;
    spec.threads = vec![run.threads];
    spec.techniques = vec![run.technique];
    spec.renaming = run.renaming;
    spec.memory = run.memory;
    spec.mt = run.mt;
    spec.respawn = run.respawn;
    spec.caches = run.caches;
    spec.trace = None;
    spec.journal = None;
    spec.machines = vec![run.machine.clone()];
    spec.mixes = vec![run.mix.clone()];
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_sim::{Scale, Technique};
    use vex_spec::MixSpec;

    fn spec() -> SweepSpec {
        let mut spec = SweepSpec::base(Scale {
            inst_limit: 500,
            timeslice: 250,
        });
        spec.name = "jobs-test".into();
        spec.techniques = vec![Technique::csmt(), Technique::smt()];
        spec.threads = vec![2];
        spec.mixes = vec![MixSpec::builtin("llll", 7)];
        spec
    }

    #[test]
    fn point_keys_are_distinct_and_stable() {
        let spec = spec();
        let mut memo = ProgramMemo::new();
        let a = spec_point_keys(&spec, None, &mut memo).unwrap();
        assert_eq!(memo.len(), 4, "one digest per (machine, built-in)");
        // Keyed from the memo alone, and afresh: the same keys.
        let b = spec_point_keys(&spec, None, &mut memo).unwrap();
        assert_eq!(memo.len(), 4);
        let c = spec_point_keys(&spec, None, &mut ProgramMemo::new()).unwrap();
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].1, a[1].1);
        // The runner keys its points through `prepare_programs`.
        let prepared = prepare_programs(&spec.expand(), None).unwrap();
        for (((run, ka), (_, kb)), (_, kc)) in a.iter().zip(&b).zip(&c) {
            assert_eq!(ka, kb);
            assert_eq!(ka, kc);
            assert_eq!(*ka, key_of(run, &prepared));
        }
    }

    #[test]
    fn single_point_spec_round_trips_the_key() {
        let spec = spec();
        let mut memo = ProgramMemo::new();
        for (run, key) in spec_point_keys(&spec, None, &mut memo).unwrap() {
            let single = single_point_spec(&run);
            // Over the wire: print, parse, expand, re-key.
            let printed = single.print();
            let parsed = SweepSpec::parse(&printed).unwrap();
            let points = spec_point_keys(&parsed, None, &mut memo).unwrap();
            assert_eq!(points.len(), 1, "single-point spec must stay single");
            assert_eq!(points[0].1, key, "key must survive the wire format");
            assert_eq!(points[0].0.label(), run.label());
        }
    }
}
