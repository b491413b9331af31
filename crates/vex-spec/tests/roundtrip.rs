//! Round-trip property of the spec layer: `parse(print(spec)) == spec`
//! for randomized specs covering every axis (techniques, threads, machine
//! geometries, split cache geometries, built-in and path workloads), plus
//! a few targeted fixed cases.

use proptest::prelude::*;
use vex_isa::{ClusterResources, Latencies, MachineConfig};
use vex_mem::{CacheParams, MemConfig};
use vex_sim::{MemoryMode, MtMode, Scale, Technique};
use vex_spec::{MachineSpec, MixSpec, ServeSpec, SweepSpec, WorkloadRef};

// ---- strategies ---------------------------------------------------

fn technique() -> impl Strategy<Value = Technique> {
    (0usize..Technique::FIGURE16_SET.len()).prop_map(|i| Technique::FIGURE16_SET[i].1)
}

/// A valid cache geometry: power-of-two set count by construction.
fn cache_params() -> impl Strategy<Value = CacheParams> {
    ((0u32..10), (1u32..9), (2u32..8)).prop_map(|(sets_log, assoc, line_log)| {
        let line_bytes = 1 << line_log;
        CacheParams {
            size_bytes: (1 << sets_log) * assoc * line_bytes,
            assoc,
            line_bytes,
        }
    })
}

fn mem_config() -> impl Strategy<Value = MemConfig> {
    (cache_params(), cache_params(), (0u32..200)).prop_map(|(icache, dcache, miss_penalty)| {
        MemConfig {
            icache,
            dcache,
            miss_penalty,
        }
    })
}

fn machine() -> impl Strategy<Value = MachineSpec> {
    (
        ((1u8..17), (1u8..9), (1u8..9), (0u8..5)),
        ((1u8..3), (1u8..3), (0u8..3), (0u8..3)),
        ((1u8..5), (1u8..5), (1u8..5), (1u8..5), (1u8..5)),
        ((0u8..4), (2u8..65), (1u8..9)),
        any::<u16>(),
    )
        .prop_map(
            |(
                (n_clusters, slots, alu, mul),
                (mem, br, send, recv),
                (lat_alu, lat_mul, lat_mem, lat_xfer, cmp_to_br),
                (taken_branch_penalty, n_gprs, n_bregs),
                tag,
            )| {
                MachineSpec {
                    name: format!("mach{tag}"),
                    config: MachineConfig {
                        n_clusters,
                        cluster: ClusterResources {
                            slots,
                            alu,
                            mul,
                            mem,
                            br,
                            send,
                            recv,
                        },
                        lat: Latencies {
                            alu: lat_alu,
                            mul: lat_mul,
                            mem: lat_mem,
                            xfer: lat_xfer,
                            cmp_to_br,
                        },
                        taken_branch_penalty,
                        n_gprs,
                        n_bregs,
                    },
                }
            },
        )
}

fn workload_ref() -> impl Strategy<Value = WorkloadRef> {
    prop_oneof![
        (0usize..vex_workloads::BENCHMARKS.len())
            .prop_map(|i| WorkloadRef::Builtin(vex_workloads::BENCHMARKS[i].name.to_string())),
        any::<u16>().prop_map(|n| WorkloadRef::Path(format!("workloads/k{n}.vexb"))),
        any::<u16>().prop_map(|n| WorkloadRef::Path(format!("progs/t{n}.vex"))),
    ]
}

fn mix() -> impl Strategy<Value = MixSpec> {
    (
        any::<u16>(),
        prop::collection::vec(workload_ref(), 1..5),
        any::<u64>(),
    )
        .prop_map(|(tag, members, seed)| MixSpec {
            name: format!("mx{tag}"),
            members,
            seed,
        })
}

fn serve_spec() -> impl Strategy<Value = Option<ServeSpec>> {
    prop_oneof![
        Just(None),
        (
            0u32..ServeSpec::MAX_WORKERS + 1,
            (1u64..1 << 40),
            any::<u32>(),
        )
            .prop_map(|(workers, heartbeat_ms, retries)| {
                Some(ServeSpec {
                    workers,
                    heartbeat_ms,
                    retries,
                })
            }),
    ]
}

fn sweep_spec() -> impl Strategy<Value = SweepSpec> {
    (
        (
            any::<u16>(),
            (1u64..1 << 40),
            (1u64..1 << 40),
            (1u64..1 << 40),
            any::<u64>(),
        ),
        (
            prop::collection::vec(1u8..9, 1..4),
            prop::collection::vec(technique(), 1..9),
        ),
        (
            any::<bool>(),
            prop_oneof![Just(MemoryMode::Real), Just(MemoryMode::Perfect)],
            prop_oneof![
                Just(MtMode::Simultaneous),
                Just(MtMode::Interleaved),
                Just(MtMode::Blocked)
            ],
            any::<bool>(),
            (any::<bool>(), any::<u16>())
                .prop_map(|(some, n)| some.then(|| format!("trace_{n}.vext"))),
            (any::<bool>(), any::<u16>())
                .prop_map(|(some, n)| some.then(|| format!("journal_{n}.vexj"))),
        ),
        (mem_config(), serve_spec()),
        prop::collection::vec(machine(), 1..3),
        prop::collection::vec(mix(), 1..4),
    )
        .prop_map(
            |(
                (tag, inst_limit, timeslice, max_cycles, seed),
                (threads, techniques),
                (renaming, memory, mt, respawn, trace, journal),
                (caches, serve),
                machines,
                mixes,
            )| {
                SweepSpec {
                    name: format!("spec{tag}"),
                    inst_limit,
                    timeslice,
                    max_cycles,
                    seed,
                    threads,
                    techniques,
                    renaming,
                    memory,
                    mt,
                    respawn,
                    trace,
                    journal,
                    serve,
                    caches,
                    machines,
                    mixes,
                }
            },
        )
}

// ---- properties ---------------------------------------------------

proptest! {
    #[test]
    fn parse_print_is_identity(spec in sweep_spec()) {
        let text = spec.print();
        let reparsed = SweepSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text must parse:\n{e}\n---\n{text}"));
        prop_assert_eq!(&reparsed, &spec, "round-trip mismatch for:\n{}", text);
        // And printing is a fixed point.
        prop_assert_eq!(reparsed.print(), text);
    }
}

// ---- fixed cases ---------------------------------------------------

#[test]
fn builders_round_trip() {
    for scale in [Scale::QUICK, Scale::DEFAULT, Scale::FULL, Scale::PAPER] {
        let spec = SweepSpec::paper_grid(scale);
        assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);
    }
}

#[test]
fn shorthand_and_sugar_resolve() {
    let spec = SweepSpec::parse(
        "scale = \"quick\"\n\
         techniques = \"ccsi as\"\n\
         threads = 4\n\
         mixes = \"mmhh\"\n",
    )
    .unwrap();
    assert_eq!(spec.inst_limit, Scale::QUICK.inst_limit);
    assert_eq!(spec.timeslice, Scale::QUICK.timeslice);
    assert_eq!(spec.threads, vec![4]);
    assert_eq!(
        spec.techniques,
        vec![Technique::ccsi(vex_sim::CommPolicy::AlwaysSplit)]
    );
    // mmhh is MIXES index 7: the seed keeps the full-grid offset.
    assert_eq!(spec.mixes[0].seed, vex_spec::DEFAULT_SEED + 7);
    assert_eq!(spec.mixes[0].members.len(), 4);
    // Sugar resolves to the same value as the canonical form.
    assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);
}

#[test]
fn explicit_budgets_override_scale_sugar() {
    let spec = SweepSpec::parse(
        "scale = \"full\"\n\
         inst_limit = 1234\n\
         mixes = [\"llll\"]\n",
    )
    .unwrap();
    assert_eq!(spec.inst_limit, 1234);
    assert_eq!(spec.timeslice, Scale::FULL.timeslice);
}

#[test]
fn split_cache_tables_round_trip() {
    let spec = SweepSpec::parse(
        "mixes = [\"llll\"]\n\
         [cache]\n\
         miss_penalty = 31\n\
         [icache]\n\
         size_bytes = 16384\n\
         assoc = 2\n\
         line_bytes = 64\n\
         [dcache]\n\
         size_bytes = 262144\n\
         assoc = 8\n\
         line_bytes = 32\n",
    )
    .unwrap();
    assert_ne!(spec.caches.icache, spec.caches.dcache);
    assert_eq!(spec.caches.miss_penalty, 31);
    assert_eq!(spec.caches.dcache.size_bytes, 256 * 1024);
    assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);
}

#[test]
fn limits_table_and_legacy_max_cycles() {
    // `[limits]` is the canonical home for execution-policy knobs.
    let spec = SweepSpec::parse(
        "mixes = [\"llll\"]\n\
         [limits]\n\
         max_cycles = 5000\n",
    )
    .unwrap();
    assert_eq!(spec.max_cycles, 5000);
    assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);

    // The original top-level spelling still works...
    let legacy = SweepSpec::parse("max_cycles = 77\nmixes = [\"llll\"]\n").unwrap();
    assert_eq!(legacy.max_cycles, 77);

    // ...but giving both is ambiguous and rejected.
    let err = SweepSpec::parse("max_cycles = 1\nmixes = [\"llll\"]\n[limits]\nmax_cycles = 2\n")
        .unwrap_err();
    assert!(err.to_string().contains("both"), "{err}");
}

#[test]
fn comments_and_hex_are_accepted() {
    let spec = SweepSpec::parse(
        "# full-line comment\n\
         seed = 0x5EED_0000  # trailing comment\n\
         mixes = [\"hhhh\"]   # another\n",
    )
    .unwrap();
    assert_eq!(spec.seed, 0x5EED_0000);
    assert_eq!(spec.mixes[0].seed, 0x5EED_0000 + 8);
}

#[test]
fn partial_serve_table_fills_defaults() {
    let spec = SweepSpec::parse(
        "mixes = [\"llll\"]\n\
         [serve]\n\
         workers = 2\n\
         heartbeat_ms = 250\n",
    )
    .unwrap();
    let v = spec.serve.expect("[serve] parsed");
    assert_eq!(v.workers, 2);
    assert_eq!(v.heartbeat_ms, 250);
    let d = ServeSpec::default();
    assert_eq!(v.retries, d.retries);
    // A spec without the table has no serve config at all.
    assert_eq!(
        SweepSpec::parse("mixes = [\"llll\"]\n").unwrap().serve,
        None
    );
    // And the canonical form round-trips.
    assert_eq!(SweepSpec::parse(&spec.print()).unwrap(), spec);
}
