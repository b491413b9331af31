//! Throughput benchmark support for the reproduction: the
//! `sim_throughput` bench (`cargo bench --bench sim_throughput`) and the
//! paired `bench-gate` regression check. The paper's tables come from the
//! `repro` binary and `vex sweep examples/paper.toml`.
//!
//! The library part holds the gate's verdict ([`gate::judge`]) and the
//! helpers the `sim_throughput` bench shares with its unit tests: the
//! history-carrying logic for the `BENCH_sim_throughput.json` artifact
//! and [`gate::mean_stddev`]. The artifact's mean and stddev are a trend
//! record across runs; no gate reads them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

/// Extracts the entries of the `"history"` array from a previous
/// `BENCH_sim_throughput.json` artifact, one compact JSON object string
/// per entry, so the next run can append its own entry after them.
///
/// The artifact is hand-emitted (no serde in the offline build), so this
/// scanner must not depend on the exact formatting the emitter happened
/// to use: it brace-matches the array with a real string-aware scan and
/// therefore tolerates re-indented, compact (single-line) and
/// pretty-printed variants alike. The line-oriented predecessor silently
/// dropped the whole history when the file had been reformatted.
///
/// Missing file content, a pre-history schema or a malformed array all
/// yield an empty list (the trajectory restarts rather than the bench
/// failing).
pub fn extract_history(json: &str) -> Vec<String> {
    // Locate the `"history"` key followed by `:` and `[` (whitespace of
    // any shape in between).
    let Some(key_pos) = json.find("\"history\"") else {
        return Vec::new();
    };
    let after_key = &json[key_pos + "\"history\"".len()..];
    let mut rest = after_key.trim_start();
    let Some(stripped) = rest.strip_prefix(':') else {
        return Vec::new();
    };
    rest = stripped.trim_start();
    let Some(array) = rest.strip_prefix('[') else {
        return Vec::new();
    };

    // Walk the array, collecting each balanced top-level `{...}` group.
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = None;
    for (i, c) in array.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(array[s..=i].to_string());
                    }
                }
            }
            ']' if depth == 0 => return out,
            _ => {}
        }
    }
    // Unterminated array: keep whatever complete entries were found.
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY_A: &str = r#"{"aggregate_cycles_per_sec": 3210000.0, "total_wall_secs": 0.60, "timestamp": "2026-01-01"}"#;
    const ENTRY_B: &str = r#"{"aggregate_cycles_per_sec": 2640000.0, "total_wall_secs": 0.72, "timestamp": "unstamped"}"#;

    #[test]
    fn reads_the_emitters_own_format() {
        let json = format!(
            "{{\n  \"benchmark\": \"sim_throughput\",\n  \"history\": [\n    {ENTRY_A},\n    {ENTRY_B}\n  ]\n}}\n"
        );
        assert_eq!(extract_history(&json), vec![ENTRY_A, ENTRY_B]);
    }

    #[test]
    fn tolerates_compact_single_line_json() {
        // `python3 -m json.tool` round-trips or any minifier may collapse
        // the artifact; the history must survive.
        let json = format!(r#"{{"benchmark":"sim_throughput","history":[{ENTRY_A},{ENTRY_B}]}}"#);
        assert_eq!(extract_history(&json), vec![ENTRY_A, ENTRY_B]);
    }

    #[test]
    fn tolerates_reindented_json() {
        // A pretty-printer may put the bracket on its own line and spread
        // each object across several lines.
        let json = format!(
            "{{\n    \"history\":\n    [\n        {},\n        {ENTRY_B}\n    ]\n}}\n",
            ENTRY_A.replace(", ", ",\n            ")
        );
        let got = extract_history(&json);
        assert_eq!(got.len(), 2);
        assert!(got[0].contains("3210000.0"));
        assert_eq!(got[1], ENTRY_B);
    }

    #[test]
    fn empty_and_missing_histories_yield_nothing() {
        assert!(extract_history("{\"benchmark\": \"sim_throughput\"}").is_empty());
        assert!(extract_history("{\"history\": []}").is_empty());
        assert!(extract_history("").is_empty());
        assert!(extract_history("{\"history\": 3}").is_empty());
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_the_scan() {
        let tricky = r#"{"timestamp": "odd {\"quoted\"} ] stamp", "total_wall_secs": 1.0}"#;
        let json = format!("{{\"history\": [{tricky}]}}");
        assert_eq!(extract_history(&json), vec![tricky]);
    }

    #[test]
    fn unterminated_array_keeps_complete_entries() {
        let json = format!("{{\"history\": [{ENTRY_A}, {{\"partial\": ");
        assert_eq!(extract_history(&json), vec![ENTRY_A]);
    }

    /// The append path must re-serialize variance-carrying entries
    /// losslessly: the bench re-emits each prior entry verbatim, so a
    /// mean/stddev/reps triple written by one run must survive any number
    /// of later runs byte-for-byte — the trend record is exactly these
    /// strings.
    #[test]
    fn variance_fields_round_trip_through_the_append_path() {
        let entry_v = r#"{"aggregate_cycles_per_sec": 3300123.4, "aggregate_cycles_per_sec_mean": 3254321.1, "aggregate_cycles_per_sec_stddev": 41234.567891, "reps": 5, "total_wall_secs": 0.591234, "timestamp": "2026-08-08-pr6"}"#;
        let first = format!("{{\n  \"history\": [\n    {ENTRY_A},\n    {entry_v}\n  ]\n}}\n");

        // One full append cycle, exactly as the bench does it: extract,
        // push a new entry, re-emit, extract again.
        let mut history = extract_history(&first);
        history.push(ENTRY_B.to_string());
        let mut second = String::from("{\n  \"history\": [\n");
        for (i, h) in history.iter().enumerate() {
            second.push_str(&format!(
                "    {h}{}\n",
                if i + 1 == history.len() { "" } else { "," }
            ));
        }
        second.push_str("  ]\n}\n");

        let reread = extract_history(&second);
        assert_eq!(reread, vec![ENTRY_A, entry_v, ENTRY_B]);
    }
}
