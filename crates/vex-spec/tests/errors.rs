//! Snapshot tests for spec diagnostics: the full rendered message —
//! position, explanation, source line and caret — is asserted verbatim,
//! so any change to error output is a conscious one.

use vex_spec::SweepSpec;

/// Asserts the full rendered diagnostic for `src`.
#[track_caller]
fn snapshot(src: &str, expected: &str) {
    let err = SweepSpec::parse(src).expect_err("spec must not parse");
    let rendered = err.to_string();
    assert_eq!(
        rendered.trim_end(),
        expected.trim_end(),
        "\n--- rendered ---\n{rendered}\n--- expected ---\n{expected}"
    );
}

#[test]
fn too_many_clusters() {
    snapshot(
        "mixes = [\"llll\"]\n[[machine]]\nclusters = 32\n",
        "\
error at line 3:12: machine has 32 clusters but the simulator supports 1 to 16
  | clusters = 32
  |            ^^",
    );
}

#[test]
fn zero_alus_rejected() {
    snapshot(
        "mixes = [\"llll\"]\n[[machine]]\nalu = 0\n",
        "\
error at line 3:7: `alu` must be between 1 and 255, got 0
  | alu = 0
  |       ^",
    );
}

#[test]
fn non_power_of_two_cache() {
    snapshot(
        "mixes = [\"llll\"]\n[cache]\nsize_bytes = 96000\n",
        "\
error at line 3:14: cache of 96000 bytes with 4-way sets of 32-byte lines needs a power-of-two set count (4 x 32 x 2^k bytes)
  | size_bytes = 96000
  |              ^^^^^",
    );
}

#[test]
fn non_power_of_two_line() {
    snapshot(
        "mixes = [\"llll\"]\n[dcache]\nline_bytes = 48\n",
        "\
error at line 3:14: `line_bytes` must be a power of two, got 48
  | line_bytes = 48
  |              ^^",
    );
}

#[test]
fn unknown_technique() {
    snapshot(
        "techniques = [\"CSMT\", \"WARP9\"]\nmixes = [\"llll\"]\n",
        "\
error at line 1:23: unknown technique `WARP9` (CSMT, SMT, CCSI NS, CCSI AS, COSI NS, COSI AS, OOSI NS, OOSI AS)
  | techniques = [\"CSMT\", \"WARP9\"]
  |                       ^^^^^^^",
    );
}

#[test]
fn unknown_benchmark_in_mix() {
    snapshot(
        "[[mix]]\nname = \"bad\"\nmembers = [\"quake3\"]\n",
        "\
error at line 3:12: `quake3` is neither a built-in benchmark (mcf, bzip2, blowfish, gsmencode, g721encode, g721decode, cjpeg, djpeg, imgpipe, x264, idct, colorspace) nor a .vex/.vexb path
  | members = [\"quake3\"]
  |            ^^^^^^^^",
    );
}

#[test]
fn unknown_builtin_mix() {
    snapshot(
        "mixes = [\"llxx\"]\n",
        "\
error at line 1:10: unknown built-in mix `llxx` (llll, lmmh, mmmm, llmm, llmh, llhh, lmhh, mmhh, hhhh)
  | mixes = [\"llxx\"]
  |          ^^^^^^",
    );
}

#[test]
fn unknown_key() {
    snapshot(
        "turbo = true\nmixes = [\"llll\"]\n",
        "\
error at line 1:1: unknown key `turbo` in the top level
  | turbo = true
  | ^^^^^",
    );
}

#[test]
fn cache_entry_before_its_section_header() {
    // A section-schema key at the top level means the author forgot the
    // header: the diagnostic names the section instead of rejecting the
    // key generically (and the parser must never panic here).
    snapshot(
        "size_bytes = 131072\nmixes = [\"llll\"]\n",
        "\
error at line 1:1: `size_bytes` appears before its `[cache]` section header (add the header above it)
  | size_bytes = 131072
  | ^^^^^^^^^^",
    );
}

#[test]
fn machine_entry_before_its_section_header() {
    snapshot(
        "mixes = [\"llll\"]\nclusters = 2\n",
        "\
error at line 2:1: `clusters` appears before its `[[machine]]` section header (add the header above it)
  | clusters = 2
  | ^^^^^^^^",
    );
}

#[test]
fn mix_entry_before_its_section_header() {
    snapshot(
        "members = [\"idct\"]\nmixes = [\"llll\"]\n",
        "\
error at line 1:1: `members` appears before its `[[mix]]` section header (add the header above it)
  | members = [\"idct\"]
  | ^^^^^^^",
    );
}

#[test]
fn unknown_section() {
    snapshot(
        "mixes = [\"llll\"]\n[network]\nports = 2\n",
        "\
error at line 2:1: unknown table `[network]` (cache, icache, dcache, limits, serve)
  | [network]
  | ^^^^^^^^^",
    );
}

#[test]
fn duplicate_key() {
    snapshot(
        "seed = 1\nseed = 2\nmixes = [\"llll\"]\n",
        "\
error at line 2:1: duplicate key `seed`
  | seed = 2
  | ^^^^",
    );
}

#[test]
fn missing_members() {
    snapshot(
        "[[mix]]\nname = \"empty\"\n",
        "\
error at line 1:1: mix needs a `members` list (benchmark names or .vex/.vexb paths)
  | [[mix]]
  | ^^^^^^^",
    );
}

#[test]
fn no_workload_at_all() {
    snapshot(
        "name = \"hollow\"\n",
        "\
error at line 1:1: spec has no workload: add `mixes = [...]` or a `[[mix]]` table
  | name = \"hollow\"
  | ^^^^^^^^^^^^^^^",
    );
}

#[test]
fn bare_word_value() {
    snapshot(
        "memory = perfect\nmixes = [\"llll\"]\n",
        "\
error at line 1:10: bare word `perfect` (strings are double-quoted)
  | memory = perfect
  |          ^^^^^^^",
    );
}

#[test]
fn unterminated_array() {
    snapshot(
        "threads = [2, 4\nmixes = [\"llll\"]\n",
        "\
error at line 1:16: unterminated array (arrays are single-line)
  | threads = [2, 4
  |                ^",
    );
}

#[test]
fn bad_thread_count() {
    snapshot(
        "threads = [2, 0]\nmixes = [\"llll\"]\n",
        "\
error at line 1:15: thread count must be between 1 and 255, got 0
  | threads = [2, 0]
  |               ^",
    );
}

#[test]
fn missing_equals() {
    snapshot(
        "just some words\n",
        "\
error at line 1:1: expected `key = value` or a `[section]` header
  | just some words
  | ^^^^^^^^^^^^^^^",
    );
}

#[test]
fn unknown_mode_names() {
    snapshot(
        "mixes = [\"llll\"]\nmt = \"interleaved\"\n",
        "\
error at line 2:6: unknown mt mode `interleaved` (smt, imt, bmt)
  | mt = \"interleaved\"
  |      ^^^^^^^^^^^^^",
    );
    snapshot(
        "mixes = [\"llll\"]\nmemory = \"ideal\"\n",
        "\
error at line 2:10: unknown memory mode `ideal` (real, perfect)
  | memory = \"ideal\"
  |          ^^^^^^^",
    );
}

#[test]
fn serve_pool_beyond_the_worker_bound() {
    snapshot(
        "mixes = [\"llll\"]\n[serve]\nworkers = 1025\n",
        "\
error at line 3:11: `workers` must be between 0 and 1024, got 1025
  | workers = 1025
  |           ^^^^",
    );
}

#[test]
fn retries_is_not_a_limits_key() {
    // A sweep attempts each point once; only `[serve]` has a retry budget.
    snapshot(
        "mixes = [\"llll\"]\n[limits]\nretries = 2\n",
        "\
error at line 3:1: unknown key `retries` in [limits]
  | retries = 2
  | ^^^^^^^",
    );
}

#[test]
fn serve_entry_before_its_section_header() {
    snapshot(
        "retries = 2\nmixes = [\"llll\"]\n",
        "\
error at line 1:1: `retries` appears before its `[serve]` section header (add the header above it)
  | retries = 2
  | ^^^^^^^",
    );
}

#[test]
fn quarantine_is_not_a_serve_key() {
    // A crash-looping point fails on its retry budget; no second crash
    // count can stop it earlier.
    snapshot(
        "mixes = [\"llll\"]\n[serve]\nquarantine = 5\n",
        "\
error at line 3:1: unknown key `quarantine` in [serve]
  | quarantine = 5
  | ^^^^^^^^^^",
    );
}

#[test]
fn backoff_key_gets_no_section_hint() {
    // The retry backoff is fixed, so no section has the key to point at.
    snapshot(
        "backoff_base_ms = 10\nmixes = [\"llll\"]\n",
        "\
error at line 1:1: unknown key `backoff_base_ms` in the top level
  | backoff_base_ms = 10
  | ^^^^^^^^^^^^^^^",
    );
}
