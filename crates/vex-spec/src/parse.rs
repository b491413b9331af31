//! Hand-rolled parser for the TOML subset spec grammar (see
//! `docs/SPECS.md`): top-level `key = value` pairs, `[cache]` /
//! `[icache]` / `[dcache]` / `[limits]` tables, and `[[machine]]` /
//! `[[mix]]` table arrays. Values are integers (decimal or `0x` hex, `_` separators),
//! double-quoted strings, booleans and single-line arrays of scalars.
//!
//! Parsing resolves everything: scale sugar becomes explicit budgets, mix
//! seeds become absolute, machine and cache tables are completed with the
//! paper defaults — so the canonical printer round-trips
//! (`parse ∘ print = id`) and semantic validation (cluster counts against
//! the simulator's `MAX_CLUSTERS`, functional-unit minimums, power-of-two
//! cache geometry, known technique labels and benchmark names) can point a
//! caret at the offending token.

use crate::diag::{Span, SpecError};
use crate::{
    MachineSpec, MixSpec, ServeSpec, SweepSpec, WorkloadRef, DEFAULT_MAX_CYCLES, DEFAULT_SEED,
};
use vex_isa::{ClusterResources, Latencies, MachineConfig};
use vex_mem::{CacheParams, MemConfig};
use vex_sim::config::name_list;
use vex_sim::{MemoryMode, MtMode, Scale, Technique, MAX_CLUSTERS};

// ---- raw values -----------------------------------------------------

#[derive(Clone, Debug)]
enum Value {
    Int(u64),
    Str(String),
    Bool(bool),
    Array(Vec<(Value, Span)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Str(_) => "a string",
            Value::Bool(_) => "a boolean",
            Value::Array(_) => "an array",
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    key: String,
    value: Value,
    val_span: Span,
    line: String,
}

impl Entry {
    fn err(&self, msg: impl Into<String>) -> SpecError {
        SpecError::new(self.val_span, msg, self.line.clone())
    }

    fn int(&self) -> Result<u64, SpecError> {
        match &self.value {
            Value::Int(n) => Ok(*n),
            v => Err(self.err(format!("`{}` wants an integer, got {}", self.key, v.kind()))),
        }
    }

    fn int_in(&self, lo: u64, hi: u64) -> Result<u64, SpecError> {
        let n = self.int()?;
        if n < lo || n > hi {
            return Err(self.err(format!(
                "`{}` must be between {lo} and {hi}, got {n}",
                self.key
            )));
        }
        Ok(n)
    }

    fn str(&self) -> Result<&str, SpecError> {
        match &self.value {
            Value::Str(s) => Ok(s),
            v => Err(self.err(format!("`{}` wants a string, got {}", self.key, v.kind()))),
        }
    }

    fn bool(&self) -> Result<bool, SpecError> {
        match &self.value {
            Value::Bool(b) => Ok(*b),
            v => Err(self.err(format!(
                "`{}` wants `true` or `false`, got {}",
                self.key,
                v.kind()
            ))),
        }
    }

    /// The value as a list of scalars: arrays as-is, a lone scalar as a
    /// singleton (so `threads = 4` means `threads = [4]`).
    fn list(&self) -> Vec<(Value, Span)> {
        match &self.value {
            Value::Array(items) => items.clone(),
            v => vec![(v.clone(), self.val_span)],
        }
    }
}

// ---- sections -------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct Sect {
    entries: Vec<Entry>,
    header_span: Span,
    header_line: String,
}

impl Sect {
    fn push(&mut self, e: Entry) -> Result<(), SpecError> {
        if self.entries.iter().any(|q| q.key == e.key) {
            return Err(SpecError::new(
                Span::new(e.val_span.line, 1, e.key.chars().count() as u32),
                format!("duplicate key `{}`", e.key),
                e.line,
            ));
        }
        self.entries.push(e);
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<Entry> {
        self.entries
            .iter()
            .position(|e| e.key == key)
            .map(|i| self.entries.remove(i))
    }

    /// Errors on the first key not consumed by the section's schema.
    fn reject_unknown(&self, section: &str) -> Result<(), SpecError> {
        if let Some(e) = self.entries.first() {
            return Err(SpecError::new(
                Span::new(e.val_span.line, 1, e.key.chars().count() as u32),
                format!("unknown key `{}` in {section}", e.key),
                e.line.clone(),
            ));
        }
        Ok(())
    }

    fn header_err(&self, msg: impl Into<String>) -> SpecError {
        SpecError::new(self.header_span, msg, self.header_line.clone())
    }
}

// ---- line-level parsing ---------------------------------------------

/// Strips a `#` comment (outside double quotes) and trailing whitespace.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line[..i].trim_end(),
            _ => {}
        }
    }
    line.trim_end()
}

/// A cursor over one line's value region, tracking 1-based columns.
struct Cursor<'a> {
    rest: &'a str,
    col: u32,
    line_no: u32,
    line: &'a str,
}

impl<'a> Cursor<'a> {
    fn err_here(&self, len: u32, msg: impl Into<String>) -> SpecError {
        SpecError::new(
            Span::new(self.line_no, self.col, len),
            msg,
            self.line.to_string(),
        )
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest.trim_start_matches([' ', '\t']);
        self.col += (self.rest.len() - trimmed.len()) as u32;
        self.rest = trimmed;
    }

    fn eat(&mut self, n_bytes: usize) {
        self.col += self.rest[..n_bytes].chars().count() as u32;
        self.rest = &self.rest[n_bytes..];
    }

    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    /// Parses one scalar or array value.
    fn value(&mut self) -> Result<(Value, Span), SpecError> {
        self.skip_ws();
        match self.peek() {
            Some('[') => {
                let start = Span::new(self.line_no, self.col, 1);
                self.eat(1);
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(']') => {
                            self.eat(1);
                            break;
                        }
                        None => {
                            return Err(
                                self.err_here(0, "unterminated array (arrays are single-line)")
                            )
                        }
                        Some('[') => {
                            return Err(self.err_here(1, "nested arrays are not supported"))
                        }
                        _ => {}
                    }
                    items.push(self.scalar()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.eat(1),
                        Some(']') => {}
                        Some(c) => {
                            return Err(
                                self.err_here(c.len_utf8() as u32, "expected `,` or `]` in array")
                            )
                        }
                        None => {
                            return Err(
                                self.err_here(0, "unterminated array (arrays are single-line)")
                            )
                        }
                    }
                }
                Ok((Value::Array(items), start))
            }
            _ => self.scalar(),
        }
    }

    /// Parses one scalar: integer, string or boolean.
    fn scalar(&mut self) -> Result<(Value, Span), SpecError> {
        self.skip_ws();
        let start_col = self.col;
        match self.peek() {
            Some('"') => {
                self.eat(1);
                let Some(end) = self.rest.find('"') else {
                    return Err(self.err_here(0, "unterminated string"));
                };
                let s = &self.rest[..end];
                if s.contains('\\') {
                    return Err(self.err_here(
                        s.chars().count() as u32,
                        "escape sequences are not supported in strings",
                    ));
                }
                let len = s.chars().count() as u32 + 2;
                self.eat(end + 1);
                Ok((
                    Value::Str(s.to_string()),
                    Span::new(self.line_no, start_col, len),
                ))
            }
            Some(c) if c.is_ascii_digit() => {
                let end = self
                    .rest
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .unwrap_or(self.rest.len());
                let tok = &self.rest[..end];
                let span = Span::new(self.line_no, start_col, tok.chars().count() as u32);
                let digits: String = tok.chars().filter(|&c| c != '_').collect();
                let parsed = if let Some(hex) = digits
                    .strip_prefix("0x")
                    .or_else(|| digits.strip_prefix("0X"))
                {
                    u64::from_str_radix(hex, 16)
                } else {
                    digits.parse()
                };
                let n = parsed.map_err(|_| {
                    SpecError::new(span, format!("bad integer `{tok}`"), self.line.to_string())
                })?;
                self.eat(end);
                Ok((Value::Int(n), span))
            }
            Some(c) if c.is_ascii_alphabetic() => {
                let end = self
                    .rest
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .unwrap_or(self.rest.len());
                let tok = &self.rest[..end];
                let span = Span::new(self.line_no, start_col, tok.chars().count() as u32);
                let v = match tok {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    _ => {
                        return Err(SpecError::new(
                            span,
                            format!("bare word `{tok}` (strings are double-quoted)"),
                            self.line.to_string(),
                        ))
                    }
                };
                self.eat(end);
                Ok((v, span))
            }
            Some(c) => Err(self.err_here(c.len_utf8() as u32, "expected a value")),
            None => Err(self.err_here(0, "expected a value")),
        }
    }
}

// ---- the parser -----------------------------------------------------

/// Parses a [`SweepSpec`] from its text form. See the module docs for the
/// grammar; all semantic validation happens here, with caret diagnostics.
pub fn parse_sweep(text: &str) -> Result<SweepSpec, SpecError> {
    let mut top = Sect::default();
    let mut cache: Option<Sect> = None;
    let mut icache: Option<Sect> = None;
    let mut dcache: Option<Sect> = None;
    let mut limits: Option<Sect> = None;
    let mut serve: Option<Sect> = None;
    let mut machines: Vec<Sect> = Vec::new();
    let mut mix_sects: Vec<Sect> = Vec::new();

    // Which section subsequent `key = value` lines belong to.
    enum Where {
        Top,
        Cache,
        ICache,
        DCache,
        Limits,
        Serve,
        Machine,
        Mix,
    }
    let mut cur = Where::Top;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = strip_comment(raw);
        let trimmed = line.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        let indent = (line.chars().count() - trimmed.chars().count()) as u32;

        if let Some(inner) = trimmed
            .strip_prefix("[[")
            .and_then(|s| s.strip_suffix("]]"))
        {
            let span = Span::new(line_no, indent + 1, trimmed.chars().count() as u32);
            let sect = Sect {
                entries: Vec::new(),
                header_span: span,
                header_line: raw.to_string(),
            };
            match inner.trim() {
                "machine" => {
                    machines.push(sect);
                    cur = Where::Machine;
                }
                "mix" => {
                    mix_sects.push(sect);
                    cur = Where::Mix;
                }
                other => {
                    return Err(SpecError::new(
                        span,
                        format!("unknown table array `[[{other}]]` (machine, mix)"),
                        raw.to_string(),
                    ))
                }
            }
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let span = Span::new(line_no, indent + 1, trimmed.chars().count() as u32);
            let sect = Sect {
                entries: Vec::new(),
                header_span: span,
                header_line: raw.to_string(),
            };
            let (slot, place): (&mut Option<Sect>, Where) = match inner.trim() {
                "cache" => (&mut cache, Where::Cache),
                "icache" => (&mut icache, Where::ICache),
                "dcache" => (&mut dcache, Where::DCache),
                "limits" => (&mut limits, Where::Limits),
                "serve" => (&mut serve, Where::Serve),
                other => {
                    return Err(SpecError::new(
                        span,
                        format!("unknown table `[{other}]` (cache, icache, dcache, limits, serve)"),
                        raw.to_string(),
                    ))
                }
            };
            if slot.is_some() {
                return Err(SpecError::new(
                    span,
                    format!("table `[{}]` given twice", inner.trim()),
                    raw.to_string(),
                ));
            }
            *slot = Some(sect);
            cur = place;
            continue;
        }

        // `key = value`.
        let Some(eq) = trimmed.find('=') else {
            return Err(SpecError::new(
                Span::new(line_no, indent + 1, trimmed.chars().count() as u32),
                "expected `key = value` or a `[section]` header",
                raw.to_string(),
            ));
        };
        let key = trimmed[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::new(
                Span::new(line_no, indent + 1, eq.max(1) as u32),
                format!("bad key `{key}`"),
                raw.to_string(),
            ));
        }
        let val_off =
            (line.chars().count() - trimmed.chars().count()) + trimmed[..eq + 1].chars().count();
        let mut cursor = Cursor {
            rest: trimmed[eq + 1..].trim_end(),
            col: val_off as u32 + 1,
            line_no,
            line: raw,
        };
        let (value, val_span) = cursor.value()?;
        cursor.skip_ws();
        if let Some(c) = cursor.peek() {
            return Err(cursor.err_here(c.len_utf8() as u32, "trailing text after value"));
        }
        let entry = Entry {
            key: key.to_string(),
            value,
            val_span,
            line: raw.to_string(),
        };
        // `cur` only names a section after its header was parsed, but the
        // slot lookups must never be able to panic: a missing section
        // becomes a caret diagnostic pointing at the stray entry instead.
        let dest: &mut Sect = match cur {
            Where::Top => &mut top,
            Where::Cache => section_slot(cache.as_mut(), "[cache]", &entry)?,
            Where::ICache => section_slot(icache.as_mut(), "[icache]", &entry)?,
            Where::DCache => section_slot(dcache.as_mut(), "[dcache]", &entry)?,
            Where::Limits => section_slot(limits.as_mut(), "[limits]", &entry)?,
            Where::Serve => section_slot(serve.as_mut(), "[serve]", &entry)?,
            Where::Machine => section_slot(machines.last_mut(), "[[machine]]", &entry)?,
            Where::Mix => section_slot(mix_sects.last_mut(), "[[mix]]", &entry)?,
        };
        dest.push(entry)?;
    }

    build_spec(
        text, top, cache, icache, dcache, limits, serve, machines, mix_sects,
    )
}

/// The section an entry was routed to, or a caret diagnostic at the
/// entry when the section's storage is missing (an entry appearing
/// before its section header).
fn section_slot<'a>(
    slot: Option<&'a mut Sect>,
    header: &str,
    entry: &Entry,
) -> Result<&'a mut Sect, SpecError> {
    slot.ok_or_else(|| {
        SpecError::new(
            Span::new(entry.val_span.line, 1, entry.key.chars().count() as u32),
            format!(
                "`{}` appears before its `{header}` section header",
                entry.key
            ),
            entry.line.clone(),
        )
    })
}

/// The section header a key belongs to, when it is not a top-level key —
/// used to turn "unknown key at the top level" into a pointer at the
/// section the author forgot to open.
fn owning_section(key: &str) -> Option<&'static str> {
    match key {
        "size_bytes" | "assoc" | "line_bytes" | "miss_penalty" => Some("[cache]"),
        "max_cycles" => Some("[limits]"),
        "clusters"
        | "slots"
        | "alu"
        | "mul"
        | "mem"
        | "br"
        | "send"
        | "recv"
        | "lat_alu"
        | "lat_mul"
        | "lat_mem"
        | "lat_xfer"
        | "cmp_to_br"
        | "taken_branch_penalty"
        | "gprs"
        | "bregs" => Some("[[machine]]"),
        "members" => Some("[[mix]]"),
        "workers" | "heartbeat_ms" | "retries" => Some("[serve]"),
        _ => None,
    }
}

// ---- semantic build -------------------------------------------------

// One parameter per grammar section; bundling them would only obscure
// the call site in `parse`.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    text: &str,
    mut top: Sect,
    cache: Option<Sect>,
    icache: Option<Sect>,
    dcache: Option<Sect>,
    limits: Option<Sect>,
    serve_sect: Option<Sect>,
    machine_sects: Vec<Sect>,
    mix_sects: Vec<Sect>,
) -> Result<SweepSpec, SpecError> {
    let name = match top.take("name") {
        Some(e) => e.str()?.to_string(),
        None => String::new(),
    };

    // Scale: the named preset is sugar; explicit budgets override it.
    let mut scale = Scale::DEFAULT;
    if let Some(e) = top.take("scale") {
        scale = match e.str()? {
            "quick" => Scale::QUICK,
            "default" => Scale::DEFAULT,
            "full" => Scale::FULL,
            "paper" => Scale::PAPER,
            other => {
                return Err(e.err(format!(
                    "unknown scale `{other}` (quick, default, full, paper)"
                )))
            }
        };
    }
    let inst_limit = match top.take("inst_limit") {
        Some(e) => e.int_in(1, u64::MAX)?,
        None => scale.inst_limit,
    };
    let timeslice = match top.take("timeslice") {
        Some(e) => e.int_in(1, u64::MAX)?,
        None => scale.timeslice,
    };
    // Execution-policy knobs live in `[limits]`.
    let mut max_cycles = DEFAULT_MAX_CYCLES;
    if let Some(mut s) = limits {
        if let Some(e) = s.take("max_cycles") {
            max_cycles = e.int_in(1, u64::MAX)?;
        }
        s.reject_unknown("[limits]")?;
    }
    // `[serve]` — sweep-service pool knobs; every key defaults
    // individually so a partial table is fine.
    let serve = match serve_sect {
        None => None,
        Some(mut s) => {
            let mut v = ServeSpec::default();
            if let Some(e) = s.take("workers") {
                v.workers = e.int_in(0, ServeSpec::MAX_WORKERS.into())? as u32;
            }
            if let Some(e) = s.take("heartbeat_ms") {
                v.heartbeat_ms = e.int_in(1, u64::MAX)?;
            }
            if let Some(e) = s.take("retries") {
                v.retries = e.int_in(0, u32::MAX as u64)? as u32;
            }
            s.reject_unknown("[serve]")?;
            Some(v)
        }
    };
    let seed = match top.take("seed") {
        Some(e) => e.int()?,
        None => DEFAULT_SEED,
    };

    let threads = match top.take("threads") {
        Some(e) => {
            let mut out = Vec::new();
            for (v, span) in e.list() {
                match v {
                    Value::Int(n) if (1..=255).contains(&n) => out.push(n as u8),
                    Value::Int(n) => {
                        return Err(SpecError::new(
                            span,
                            format!("thread count must be between 1 and 255, got {n}"),
                            e.line.clone(),
                        ))
                    }
                    v => {
                        return Err(SpecError::new(
                            span,
                            format!("thread counts are integers, got {}", v.kind()),
                            e.line.clone(),
                        ))
                    }
                }
            }
            if out.is_empty() {
                return Err(e.err("`threads` must list at least one thread count"));
            }
            out
        }
        None => vec![2, 4],
    };

    let techniques = match top.take("techniques") {
        Some(e) => {
            let mut out = Vec::new();
            for (v, span) in e.list() {
                let label = match &v {
                    Value::Str(s) => s.as_str(),
                    v => {
                        return Err(SpecError::new(
                            span,
                            format!("technique labels are strings, got {}", v.kind()),
                            e.line.clone(),
                        ))
                    }
                };
                let Some(tech) = Technique::from_label(label) else {
                    return Err(SpecError::new(
                        span,
                        format!(
                            "unknown technique `{label}` (CSMT, SMT, CCSI NS, CCSI AS, \
                             COSI NS, COSI AS, OOSI NS, OOSI AS)"
                        ),
                        e.line.clone(),
                    ));
                };
                out.push(tech);
            }
            if out.is_empty() {
                return Err(e.err("`techniques` must list at least one technique"));
            }
            out
        }
        None => Technique::FIGURE16_SET.iter().map(|&(_, t)| t).collect(),
    };

    let renaming = match top.take("renaming") {
        Some(e) => e.bool()?,
        None => true,
    };
    let memory = match top.take("memory") {
        Some(e) => {
            let v = e.str()?;
            MemoryMode::from_name(v).ok_or_else(|| {
                let names = name_list(&MemoryMode::NAMED);
                e.err(format!("unknown memory mode `{v}` ({names})"))
            })?
        }
        None => MemoryMode::Real,
    };
    let mt = match top.take("mt") {
        Some(e) => {
            let v = e.str()?;
            MtMode::from_name(v).ok_or_else(|| {
                let names = name_list(&MtMode::NAMED);
                e.err(format!("unknown mt mode `{v}` ({names})"))
            })?
        }
        None => MtMode::Simultaneous,
    };
    let respawn = match top.take("respawn") {
        Some(e) => e.bool()?,
        None => true,
    };
    let trace = match top.take("trace") {
        Some(e) => {
            let path = e.str()?;
            if path.is_empty() {
                return Err(e.err("`trace` needs a non-empty output path"));
            }
            Some(path.to_string())
        }
        None => None,
    };
    let journal = match top.take("journal") {
        Some(e) => {
            let path = e.str()?;
            if path.is_empty() {
                return Err(e.err("`journal` needs a non-empty sidecar path"));
            }
            Some(path.to_string())
        }
        None => None,
    };

    // Built-in mix shorthand; full [[mix]] tables are appended after.
    let mut mixes: Vec<MixSpec> = Vec::new();
    if let Some(e) = top.take("mixes") {
        for (v, span) in e.list() {
            let mname = match &v {
                Value::Str(s) => s.as_str(),
                v => {
                    return Err(SpecError::new(
                        span,
                        format!("mix names are strings, got {}", v.kind()),
                        e.line.clone(),
                    ))
                }
            };
            if !vex_workloads::MIXES.iter().any(|m| m.name == mname) {
                let known: Vec<&str> = vex_workloads::MIXES.iter().map(|m| m.name).collect();
                return Err(SpecError::new(
                    span,
                    format!("unknown built-in mix `{mname}` ({})", known.join(", ")),
                    e.line.clone(),
                ));
            }
            mixes.push(MixSpec::builtin(mname, seed));
        }
    }
    // Unknown top-level keys: if the key belongs to a section schema, the
    // author most likely forgot the header — say so instead of a generic
    // rejection.
    if let Some(e) = top.entries.first() {
        let msg = match owning_section(&e.key) {
            Some(header) => format!(
                "`{}` appears before its `{header}` section header (add the header above it)",
                e.key
            ),
            None => format!("unknown key `{}` in the top level", e.key),
        };
        return Err(SpecError::new(
            Span::new(e.val_span.line, 1, e.key.chars().count() as u32),
            msg,
            e.line.clone(),
        ));
    }

    let caches = build_caches(cache, icache, dcache)?;

    let machines = if machine_sects.is_empty() {
        vec![MachineSpec::paper()]
    } else {
        machine_sects
            .into_iter()
            .enumerate()
            .map(|(i, s)| build_machine(s, i))
            .collect::<Result<_, _>>()?
    };

    for (i, sect) in mix_sects.into_iter().enumerate() {
        let position = mixes.len();
        mixes.push(build_mix(sect, i, position, seed)?);
    }
    if mixes.is_empty() {
        let first = text.lines().next().unwrap_or("").to_string();
        return Err(SpecError::new(
            Span::new(1, 1, first.chars().count().max(1) as u32),
            "spec has no workload: add `mixes = [...]` or a `[[mix]]` table",
            first,
        ));
    }

    Ok(SweepSpec {
        name,
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
        caches,
        trace,
        journal,
        serve,
        machines,
        mixes,
    })
}

/// Resolves `[cache]` (both caches + miss penalty) then applies the
/// per-cache `[icache]` / `[dcache]` geometry overrides.
fn build_caches(
    cache: Option<Sect>,
    icache: Option<Sect>,
    dcache: Option<Sect>,
) -> Result<MemConfig, SpecError> {
    let mut out = MemConfig::paper();
    if let Some(mut s) = cache {
        if let Some(e) = s.take("miss_penalty") {
            out.miss_penalty = e.int_in(0, 1_000_000)? as u32;
        }
        let shared = cache_geometry(&mut s, out.icache)?;
        s.reject_unknown("[cache]")?;
        out.icache = shared;
        out.dcache = shared;
    }
    if let Some(mut s) = icache {
        out.icache = cache_geometry(&mut s, out.icache)?;
        s.reject_unknown("[icache]")?;
    }
    if let Some(mut s) = dcache {
        out.dcache = cache_geometry(&mut s, out.dcache)?;
        s.reject_unknown("[dcache]")?;
    }
    Ok(out)
}

/// Reads `size_bytes` / `assoc` / `line_bytes` over `base` defaults and
/// validates the geometry the `Cache` model requires (power-of-two line
/// size and set count).
fn cache_geometry(s: &mut Sect, base: CacheParams) -> Result<CacheParams, SpecError> {
    let mut p = base;
    let mut size_entry: Option<Entry> = None;
    if let Some(e) = s.take("size_bytes") {
        p.size_bytes = e.int_in(1, 1 << 30)? as u32;
        size_entry = Some(e);
    }
    if let Some(e) = s.take("assoc") {
        p.assoc = e.int_in(1, 64)? as u32;
    }
    if let Some(e) = s.take("line_bytes") {
        let n = e.int_in(4, 4096)? as u32;
        if !n.is_power_of_two() {
            return Err(e.err(format!("`line_bytes` must be a power of two, got {n}")));
        }
        p.line_bytes = n;
    }
    let per_set = p.assoc * p.line_bytes;
    let bad = p.size_bytes % per_set != 0 || !(p.size_bytes / per_set).is_power_of_two();
    if bad {
        let msg = format!(
            "cache of {} bytes with {}-way sets of {}-byte lines needs a \
             power-of-two set count ({} x {} x 2^k bytes)",
            p.size_bytes, p.assoc, p.line_bytes, p.assoc, p.line_bytes
        );
        return Err(match size_entry {
            Some(e) => e.err(msg),
            None => s.header_err(msg),
        });
    }
    Ok(p)
}

/// Takes a `u8`-ranged machine key with a default.
fn take_u8(s: &mut Sect, key: &str, default: u8, lo: u64) -> Result<u8, SpecError> {
    match s.take(key) {
        Some(e) => Ok(e.int_in(lo, 255)? as u8),
        None => Ok(default),
    }
}

fn build_machine(mut s: Sect, idx: usize) -> Result<MachineSpec, SpecError> {
    let paper = MachineConfig::paper_4c4w();
    let name = match s.take("name") {
        Some(e) => e.str()?.to_string(),
        None => format!("m{idx}"),
    };

    let n_clusters = match s.take("clusters") {
        Some(e) => {
            let n = e.int()?;
            if n < 1 || n > MAX_CLUSTERS as u64 {
                return Err(e.err(format!(
                    "machine has {n} clusters but the simulator supports 1 to {MAX_CLUSTERS}"
                )));
            }
            n as u8
        }
        None => paper.n_clusters,
    };
    let cluster = ClusterResources {
        slots: take_u8(&mut s, "slots", paper.cluster.slots, 1)?,
        alu: take_u8(&mut s, "alu", paper.cluster.alu, 1)?,
        mul: take_u8(&mut s, "mul", paper.cluster.mul, 0)?,
        mem: take_u8(&mut s, "mem", paper.cluster.mem, 1)?,
        br: take_u8(&mut s, "br", paper.cluster.br, 1)?,
        send: take_u8(&mut s, "send", paper.cluster.send, 0)?,
        recv: take_u8(&mut s, "recv", paper.cluster.recv, 0)?,
    };
    let lat = Latencies {
        alu: take_u8(&mut s, "lat_alu", paper.lat.alu, 1)?,
        mul: take_u8(&mut s, "lat_mul", paper.lat.mul, 1)?,
        mem: take_u8(&mut s, "lat_mem", paper.lat.mem, 1)?,
        xfer: take_u8(&mut s, "lat_xfer", paper.lat.xfer, 1)?,
        cmp_to_br: take_u8(&mut s, "cmp_to_br", paper.lat.cmp_to_br, 1)?,
    };
    let taken_branch_penalty = take_u8(
        &mut s,
        "taken_branch_penalty",
        paper.taken_branch_penalty,
        0,
    )?;
    let n_gprs = match s.take("gprs") {
        Some(e) => e.int_in(2, 64)? as u8,
        None => paper.n_gprs,
    };
    let n_bregs = match s.take("bregs") {
        Some(e) => e.int_in(1, 8)? as u8,
        None => paper.n_bregs,
    };
    s.reject_unknown("[[machine]]")?;

    Ok(MachineSpec {
        name,
        config: MachineConfig {
            n_clusters,
            cluster,
            lat,
            taken_branch_penalty,
            n_gprs,
            n_bregs,
        },
    })
}

fn build_mix(
    mut s: Sect,
    idx: usize,
    position: usize,
    base_seed: u64,
) -> Result<MixSpec, SpecError> {
    let name = match s.take("name") {
        Some(e) => e.str()?.to_string(),
        None => format!("mix{idx}"),
    };
    let Some(members_entry) = s.take("members") else {
        return Err(
            s.header_err("mix needs a `members` list (benchmark names or .vex/.vexb paths)")
        );
    };
    let mut members = Vec::new();
    for (v, span) in members_entry.list() {
        let m = match &v {
            Value::Str(s) => s.as_str(),
            v => {
                return Err(SpecError::new(
                    span,
                    format!("mix members are strings, got {}", v.kind()),
                    members_entry.line.clone(),
                ))
            }
        };
        let r = WorkloadRef::classify(m);
        if let WorkloadRef::Builtin(b) = &r {
            if vex_workloads::by_name(b).is_none() {
                let known: Vec<&str> = vex_workloads::BENCHMARKS.iter().map(|b| b.name).collect();
                return Err(SpecError::new(
                    span,
                    format!(
                        "`{b}` is neither a built-in benchmark ({}) nor a .vex/.vexb path",
                        known.join(", ")
                    ),
                    members_entry.line.clone(),
                ));
            }
        }
        members.push(r);
    }
    if members.is_empty() {
        return Err(members_entry.err("mix needs at least one member"));
    }
    let seed = match s.take("seed") {
        Some(e) => e.int()?,
        None => {
            // A mix named after a built-in keeps its Figure 13(b) offset so
            // sub-grids reproduce full-grid numbers; custom mixes take their
            // position in the spec's mix list.
            match vex_workloads::MIXES.iter().position(|m| m.name == name) {
                Some(i) => base_seed + i as u64,
                None => base_seed + position as u64,
            }
        }
    };
    s.reject_unknown("[[mix]]")?;
    Ok(MixSpec {
        name,
        members,
        seed,
    })
}
