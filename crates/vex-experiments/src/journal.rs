//! Crash-safe sweep journal: an append-only sidecar file recording every
//! completed grid point, so an interrupted sweep can resume without
//! re-simulating finished work.
//!
//! ## File format (`VEXJ 1`)
//!
//! ```text
//! VEXJ 1\n
//! +<len:hex> <crc32:08x>\n
//! <payload of exactly len bytes>\n
//! +<len:hex> <crc32:08x>\n
//! ...
//! ```
//!
//! Each record is self-delimiting (length-prefixed) and self-checking
//! (CRC-32 over the payload), so replay can always tell a complete record
//! from a torn one: a crash mid-append leaves a truncated or garbled tail,
//! which [`Journal::open_resume`] detects, reports, and drops — never a
//! fatal error. The framing is [`FramedLog`], which `vex serve`'s
//! submission log uses too. The journal's payload is line-oriented text:
//!
//! ```text
//! key=<16 hex digits>        content-addressed point identity
//! label=<RunSpec::label()>   human-readable point name
//! stop=<StopReason::tag()>   how the simulation ended
//! wall_bits=<16 hex digits>  f64::to_bits of the wall-clock seconds
//! <SimStats::snapshot()>     the full statistics dump
//! ```
//!
//! The **key** is what makes resume safe against spec edits: it hashes the
//! point's entire simulated configuration — technique, thread count,
//! machine geometry, caches, budgets, seed — plus a digest of every member
//! program's compiled form. Change anything that could change the result
//! and the key changes, so a stale journal entry can never be replayed
//! into the wrong point. Cosmetic fields (spec name, mix name, trace and
//! journal paths) are deliberately excluded.
//!
//! Durability: every append ends with `fdatasync`, so a record that
//! replay accepts was fully on disk before the sweep moved on. Creating
//! a journal also fsyncs the *parent directory* ([`sync_parent_dir`]),
//! so the file's directory entry itself survives a crash right after
//! creation, not just its contents.
//!
//! Concurrency: a journal is single-writer. Opening one takes an
//! advisory lock — a `<path>.lock` sidecar holding the owner's PID
//! (`flock` isn't in std) — so two processes appending to the same file
//! fail fast with a clear error instead of interleaving records. Locks
//! left behind by dead PIDs are detected and reclaimed.

use std::fs::{self, File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use vex_isa::Program;
use vex_sim::rng::mix64;
use vex_sim::{SimStats, StopReason};
use vex_spec::RunSpec;

/// The sweep journal's header and name.
const JOURNAL: LogKind = LogKind {
    magic: "VEXJ 1\n",
    name: "vex sweep journal",
};

// ---- hashing --------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, bitwise — no table, speed is irrelevant
/// at one record per simulated grid point).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// The FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hasher. It implements [`std::hash::Hasher`], so any
/// `Hash` value can be digested structurally, and `std::fmt::Write`, so
/// formatted text can be streamed into it without intermediate strings.
pub struct Fnv64(u64);

impl Fnv64 {
    /// The standard FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state, one at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Every integer is folded as fixed-width little-endian bytes (`usize`
/// and enum discriminants as 8), so a digest does not depend on the
/// host's pointer width: the default methods would hash native-endian
/// bytes.
impl Hasher for Fnv64 {
    /// Folds a byte string a little-endian 8-byte word at a time, each
    /// word through [`mix64`] before the FNV-1a step, then its last
    /// `len % 8` bytes one at a time; a write shorter than a word folds
    /// exactly as [`Fnv64::update`] does. The mix matters: a multiply
    /// carries a difference only upward and passes one in bit 63
    /// unchanged, so raw words could cancel a change in one word with a
    /// change in the next. It does not depend on the state, so it stays
    /// off the serial chain. In [`program_digest`] the name, the data
    /// segments, the instruction addresses and every `u8` field come
    /// through here. Text keys and `vex serve`'s retry jitter call
    /// `update` and stay byte-serial.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            self.0 = (self.0 ^ mix64(word)).wrapping_mul(FNV64_PRIME);
        }
        self.update(words.remainder());
    }

    fn write_u16(&mut self, n: u16) {
        self.update(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.update(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.update(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The digest so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Structural digest of a compiled program: its `Hash` — name,
/// every operation of every bundle, the instruction addresses and the
/// data segments, each `Vec` length-prefixed — fed through [`Fnv64`],
/// whose `Hasher::write` folds the data bytes a word at a time.
/// The compiler is deterministic, so this is stable across processes
/// for the same source and machine — exactly what cross-run resume needs.
pub fn program_digest(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    program.hash(&mut h);
    h.0
}

/// Content-addressed identity of a grid point: every field that reaches
/// the simulator, plus the member program digests. Two points with equal
/// keys produce bit-identical statistics.
pub fn point_key(run: &RunSpec, member_digests: &[u64]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv64::new();
    let _ = write!(
        h,
        "{}|{}|{}|{:?}|{:?}|{}|{}|{}|{}|{}|{:?}|{:?}|",
        run.technique.label(),
        run.threads,
        run.renaming,
        run.memory,
        run.mt,
        run.respawn,
        run.inst_limit,
        run.timeslice,
        run.max_cycles,
        run.mix.seed,
        run.machine.config,
        run.caches,
    );
    for &d in member_digests {
        h.update(&d.to_le_bytes());
    }
    h.0
}

// ---- records --------------------------------------------------------

/// One journaled grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Content-addressed point identity ([`point_key`]).
    pub key: u64,
    /// Human-readable point label (`RunSpec::label()`).
    pub label: String,
    /// How the simulation ended.
    pub stop: StopReason,
    /// Wall-clock seconds of the original simulation.
    pub wall_secs: f64,
    /// The full statistics.
    pub stats: SimStats,
}

impl JournalEntry {
    /// Serializes the entry as the journal's line-oriented payload text.
    /// This is also the sweep service's result wire format, so it is
    /// public: a worker sends `to_payload()`, the server re-parses it
    /// with [`JournalEntry::from_payload`] and journals it verbatim.
    pub fn to_payload(&self) -> String {
        format!(
            "key={:016x}\nlabel={}\nstop={}\nwall_bits={:016x}\n{}",
            self.key,
            self.label,
            self.stop.tag(),
            self.wall_secs.to_bits(),
            self.stats.snapshot(),
        )
    }

    /// Parses a payload produced by [`JournalEntry::to_payload`].
    pub fn from_payload(payload: &str) -> Result<JournalEntry, String> {
        fn line<'a>(rest: &mut &'a str, key: &str) -> Result<&'a str, String> {
            let (head, tail) = rest
                .split_once('\n')
                .ok_or_else(|| format!("payload ends before `{key}`"))?;
            *rest = tail;
            head.strip_prefix(key)
                .and_then(|v| v.strip_prefix('='))
                .ok_or_else(|| format!("expected `{key}=...`, got `{head}`"))
        }
        let mut rest = payload;
        let key = u64::from_str_radix(line(&mut rest, "key")?, 16)
            .map_err(|_| "bad hex in `key`".to_string())?;
        let label = line(&mut rest, "label")?.to_string();
        let stop_tag = line(&mut rest, "stop")?;
        let stop = StopReason::from_tag(stop_tag)
            .ok_or_else(|| format!("unknown stop reason `{stop_tag}`"))?;
        let wall_secs = f64::from_bits(
            u64::from_str_radix(line(&mut rest, "wall_bits")?, 16)
                .map_err(|_| "bad hex in `wall_bits`".to_string())?,
        );
        let stats = SimStats::from_snapshot(rest)?;
        Ok(JournalEntry {
            key,
            label,
            stop,
            wall_secs,
            stats,
        })
    }
}

/// What replay found in an existing journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Complete, checksum-valid records replayed.
    pub valid: usize,
    /// Bytes of torn/garbled tail dropped (0 for a clean shutdown).
    pub dropped_bytes: u64,
}

/// Fsyncs the directory containing `path`, making the file's directory
/// entry itself durable. On non-Unix platforms this is a no-op (directory
/// fsync is not portably available there).
pub fn sync_parent_dir(path: &Path) -> Result<(), String> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("cannot sync directory `{}`: {e}", parent.display()))?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Is `pid` a live process? Checked via `/proc` on Linux; elsewhere we
/// conservatively report "alive", so foreign locks are never reclaimed.
fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// An advisory single-writer lock on a journal: a `<path>.lock` sidecar
/// holding the owner's PID. Acquisition is atomic (the PID file is
/// written aside and hard-linked into place), liveness is checked before
/// refusing, and stale locks from dead PIDs are reclaimed. Released on
/// drop.
#[derive(Debug)]
pub struct LockGuard {
    lock_path: PathBuf,
}

impl LockGuard {
    /// Takes the lock guarding `target`, or explains who holds it.
    pub fn acquire(target: &Path) -> Result<LockGuard, String> {
        let mut lock_os = target.as_os_str().to_os_string();
        lock_os.push(".lock");
        let lock_path = PathBuf::from(lock_os);
        let pid = std::process::id();

        // Write the PID aside, then hard-link into place: link(2) fails
        // if the lock exists, and the lock file is never observable in a
        // half-written state.
        let mut tmp_os = lock_path.as_os_str().to_os_string();
        tmp_os.push(format!(".{pid}"));
        let tmp = PathBuf::from(tmp_os);
        fs::write(&tmp, format!("{pid}\n"))
            .map_err(|e| format!("cannot write lockfile `{}`: {e}", tmp.display()))?;

        let mut result = Err(format!(
            "journal `{}` is locked (lockfile `{}` contested)",
            target.display(),
            lock_path.display()
        ));
        // Two attempts: the second follows a stale-lock reclaim.
        for _ in 0..2 {
            match fs::hard_link(&tmp, &lock_path) {
                Ok(()) => {
                    result = Ok(LockGuard {
                        lock_path: lock_path.clone(),
                    });
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&lock_path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(p) if p != pid && pid_alive(p) => {
                            result = Err(format!(
                                "journal `{}` is locked by running process {p} \
                                 (lockfile `{}`); is another sweep writing it?",
                                target.display(),
                                lock_path.display()
                            ));
                            break;
                        }
                        Some(p) if p == pid => {
                            result = Err(format!(
                                "journal `{}` is already locked by this process",
                                target.display()
                            ));
                            break;
                        }
                        // Dead PID or unreadable/torn lockfile: stale.
                        // Reclaim and retry once.
                        _ => {
                            fs::remove_file(&lock_path).ok();
                        }
                    }
                }
                Err(e) => {
                    result = Err(format!(
                        "cannot create lockfile `{}`: {e}",
                        lock_path.display()
                    ));
                    break;
                }
            }
        }
        fs::remove_file(&tmp).ok();
        result
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        fs::remove_file(&self.lock_path).ok();
    }
}

// ---- framed log -------------------------------------------------------

/// What a [`FramedLog`] is called and how its file starts.
#[derive(Clone, Copy, Debug)]
pub struct LogKind {
    /// The header line the file starts with (`"VEXJ 1\n"`).
    pub magic: &'static str,
    /// Its name in error messages (`"vex sweep journal"`).
    pub name: &'static str,
}

/// An append-only file of CRC-framed records behind a header line:
///
/// ```text
/// <magic>
/// +<len:hex> <crc32:08x>\n<payload of exactly len bytes>\n
/// ...
/// ```
///
/// Every write ends with `fdatasync`; creating the file also syncs its
/// directory ([`sync_parent_dir`]). Opening an existing file keeps its
/// longest prefix of valid records and truncates the rest, so appends
/// always start on a record boundary.
#[derive(Debug)]
pub struct FramedLog {
    path: PathBuf,
    file: File,
    kind: LogKind,
}

impl FramedLog {
    /// Creates (or truncates) the file at `path` and writes the header.
    pub fn create(path: &Path, kind: LogKind) -> Result<FramedLog, String> {
        let name = kind.name;
        let mut file = File::create(path)
            .map_err(|e| format!("cannot create {name} `{}`: {e}", path.display()))?;
        file.write_all(kind.magic.as_bytes())
            .and_then(|_| file.sync_data())
            .map_err(|e| format!("cannot write {name} `{}`: {e}", path.display()))?;
        // Make the directory entry durable too: without this, a crash
        // right after creation can lose the whole file even though its
        // contents were synced.
        sync_parent_dir(path)?;
        Ok(FramedLog {
            path: path.to_path_buf(),
            file,
            kind,
        })
    }

    /// Opens the file at `path` for appending after its valid records.
    /// `accept` sees each checksum-valid payload in order; the first one
    /// it rejects ends the valid prefix like a torn record does. Returns
    /// the log and the number of bytes dropped after that prefix.
    ///
    /// A missing file starts fresh. So does a strict prefix of the header
    /// (including an empty file): a crash can tear even the first write.
    /// Any other file without the header was never such a log, and is
    /// refused rather than clobbered.
    pub fn open(
        path: &Path,
        kind: LogKind,
        mut accept: impl FnMut(&str) -> bool,
    ) -> Result<(FramedLog, u64), String> {
        if !path.exists() {
            return Ok((FramedLog::create(path, kind)?, 0));
        }
        let name = kind.name;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open {name} `{}`: {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read {name} `{}`: {e}", path.display()))?;
        let magic = kind.magic.as_bytes();
        if !bytes.starts_with(magic) {
            if magic.starts_with(&bytes) {
                drop(file);
                return Ok((FramedLog::create(path, kind)?, bytes.len() as u64));
            }
            return Err(format!(
                "`{}` is not a {name} (missing `{}` header)",
                path.display(),
                kind.magic.trim_end()
            ));
        }
        let mut valid_end = magic.len();
        while let Some((payload, len)) = parse_frame(&bytes[valid_end..]) {
            if !accept(payload) {
                break;
            }
            valid_end += len;
        }
        file.set_len(valid_end as u64)
            .and_then(|_| file.seek(SeekFrom::End(0)))
            .and_then(|_| file.sync_data())
            .map_err(|e| format!("cannot truncate {name} `{}`: {e}", path.display()))?;
        let log = FramedLog {
            path: path.to_path_buf(),
            file,
            kind,
        };
        Ok((log, (bytes.len() - valid_end) as u64))
    }

    /// Appends one record and syncs it to disk before returning.
    pub fn append(&mut self, payload: &str) -> Result<(), String> {
        let record = format!(
            "+{:x} {:08x}\n{payload}\n",
            payload.len(),
            crc32(payload.as_bytes()),
        );
        self.file
            .write_all(record.as_bytes())
            .and_then(|_| self.file.sync_data())
            .map_err(|e| {
                let name = self.kind.name;
                format!("cannot append to {name} `{}`: {e}", self.path.display())
            })
    }

    /// The file's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses one `+<len> <crc>\n<payload>\n` frame from the front of `rest`.
/// Returns the payload and the frame's total length, or `None` if the
/// frame is incomplete or invalid.
fn parse_frame(rest: &[u8]) -> Option<(&str, usize)> {
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&rest[..nl]).ok()?;
    let (len_hex, crc_hex) = header.strip_prefix('+')?.split_once(' ')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    let body_start = nl + 1;
    let body_end = body_start.checked_add(len)?;
    // The payload plus its trailing newline must be fully present.
    if body_end >= rest.len() || rest[body_end] != b'\n' {
        return None;
    }
    let payload = &rest[body_start..body_end];
    if crc32(payload) != crc {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, body_end + 1))
}

// ---- the journal --------------------------------------------------------

/// An open journal file, positioned for appending. Holds the advisory
/// lock ([`LockGuard`]) for as long as it is open.
#[derive(Debug)]
pub struct Journal {
    log: FramedLog,
    _lock: LockGuard,
}

impl Journal {
    /// Creates (or truncates) a journal at `path` and writes the header.
    /// Takes the advisory lock; fails fast if another live process holds
    /// it.
    pub fn create(path: &Path) -> Result<Journal, String> {
        let lock = LockGuard::acquire(path)?;
        Ok(Journal {
            log: FramedLog::create(path, JOURNAL)?,
            _lock: lock,
        })
    }

    /// Opens an existing journal for resume: replays every valid record,
    /// truncates any torn tail, and returns the journal positioned for
    /// appending. A record whose payload does not parse ends the valid
    /// prefix. A missing file is not an error — it starts fresh. Takes
    /// the advisory lock first, like [`Journal::create`].
    pub fn open_resume(path: &Path) -> Result<(Journal, Vec<JournalEntry>, ReplayReport), String> {
        let lock = LockGuard::acquire(path)?;
        let mut entries = Vec::new();
        let (log, dropped_bytes) = FramedLog::open(path, JOURNAL, |payload| {
            match JournalEntry::from_payload(payload) {
                Ok(e) => {
                    entries.push(e);
                    true
                }
                Err(_) => false,
            }
        })?;
        let report = ReplayReport {
            valid: entries.len(),
            dropped_bytes,
        };
        Ok((Journal { log, _lock: lock }, entries, report))
    }

    /// Appends one record and syncs it to disk before returning.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), String> {
        self.log.append(&entry.to_payload())
    }

    /// The journal's path (for diagnostics).
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_sim::ThreadStats;

    fn entry(key: u64) -> JournalEntry {
        JournalEntry {
            key,
            label: "llhh/CCSI_AS/2t/paper".into(),
            stop: StopReason::InstLimit,
            wall_secs: 0.25,
            stats: SimStats {
                cycles: 100 + key,
                total_ops: 250,
                per_thread: vec![ThreadStats::default(), ThreadStats::default()],
                ..Default::default()
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vexj_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn entry_payload_round_trips() {
        let e = entry(0xdead_beef);
        assert_eq!(JournalEntry::from_payload(&e.to_payload()).unwrap(), e);
    }

    #[test]
    fn second_opener_fails_fast_while_lock_is_held() {
        let path = tmp("locked");
        let j = Journal::create(&path).unwrap();
        let err = Journal::open_resume(&path).unwrap_err();
        assert!(err.contains("already locked by this process"), "{err}");
        drop(j);
        // Dropping the journal releases the lock.
        let (_, entries, _) = Journal::open_resume(&path).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_reclaimed() {
        let path = tmp("stale");
        std::fs::remove_file(&path).ok();
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));
        // u32::MAX is far above any real pid_max, so this PID is dead.
        std::fs::write(&lock_path, format!("{}\n", u32::MAX)).unwrap();
        let mut j = Journal::create(&path).unwrap();
        j.append(&entry(1)).unwrap();
        drop(j);
        assert!(!lock_path.exists(), "lock released on drop");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_lockfile_is_treated_as_stale() {
        let path = tmp("torn_lock");
        std::fs::remove_file(&path).ok();
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));
        std::fs::write(&lock_path, "not a pid").unwrap();
        let j = Journal::create(&path).unwrap();
        drop(j);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn lock_held_by_live_foreign_pid_is_refused() {
        let path = tmp("foreign");
        std::fs::remove_file(&path).ok();
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));
        // PID 1 is always alive and never us.
        std::fs::write(&lock_path, "1\n").unwrap();
        let err = Journal::create(&path).unwrap_err();
        assert!(err.contains("locked by running process 1"), "{err}");
        std::fs::remove_file(&lock_path).ok();
    }

    #[test]
    fn create_append_resume() {
        let path = tmp("basic");
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&entry(1)).unwrap();
            j.append(&entry(2)).unwrap();
        }
        let (_, entries, report) = Journal::open_resume(&path).unwrap();
        assert_eq!(entries, vec![entry(1), entry(2)]);
        assert_eq!(
            report,
            ReplayReport {
                valid: 2,
                dropped_bytes: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_appending_continues() {
        let path = tmp("torn");
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&entry(1)).unwrap();
            j.append(&entry(2)).unwrap();
        }
        // Simulate a crash mid-append: cut the file inside record 2.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();

        let (mut j, entries, report) = Journal::open_resume(&path).unwrap();
        assert_eq!(entries, vec![entry(1)]);
        assert!(report.dropped_bytes > 0);

        // The truncation restored a record boundary: appends still work.
        j.append(&entry(3)).unwrap();
        drop(j);
        let (_, entries, report) = Journal::open_resume(&path).unwrap();
        assert_eq!(entries, vec![entry(1), entry(3)]);
        assert_eq!(report.dropped_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbled_record_is_dropped() {
        let path = tmp("garbled");
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&entry(1)).unwrap();
            j.append(&entry(2)).unwrap();
        }
        // Flip one payload byte in record 2: its CRC no longer matches.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, entries, report) = Journal::open_resume(&path).unwrap();
        assert_eq!(entries, vec![entry(1)]);
        assert!(report.dropped_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appended_garbage_is_dropped() {
        let path = tmp("garbage");
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&entry(9)).unwrap();
        }
        let garbage: &[u8] = b"\x00\xffnot a record at all";
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(garbage);
        std::fs::write(&path, &bytes).unwrap();
        let (_, entries, report) = Journal::open_resume(&path).unwrap();
        assert_eq!(entries, vec![entry(9)]);
        assert_eq!(report.dropped_bytes, garbage.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_starts_fresh_but_foreign_file_is_refused() {
        let path = tmp("fresh");
        std::fs::remove_file(&path).ok();
        let (j, entries, _) = Journal::open_resume(&path).unwrap();
        assert!(entries.is_empty());
        drop(j);

        std::fs::write(&path, "just some text\n").unwrap();
        let err = Journal::open_resume(&path).unwrap_err();
        assert!(err.contains("not a vex sweep journal"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_restarts_fresh_instead_of_refusing() {
        let path = tmp("torn_header");
        // A crash cut the very first write mid-magic: every strict prefix
        // of `VEXJ 1\n` (including the empty file) must be recognised as
        // ours and rewritten, not refused as a foreign file.
        for cut in 0..JOURNAL.magic.len() {
            std::fs::write(&path, &JOURNAL.magic.as_bytes()[..cut]).unwrap();
            let (mut j, entries, report) = Journal::open_resume(&path).unwrap();
            assert!(entries.is_empty());
            assert_eq!(report.dropped_bytes, cut as u64);
            j.append(&entry(9)).unwrap();
            drop(j);
            let (_, entries, _) = Journal::open_resume(&path).unwrap();
            assert_eq!(entries.len(), 1, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A two-instruction, two-segment program built by hand, so its
    /// digest does not depend on the compiler.
    fn hand_built() -> Program {
        use vex_isa::{DataSegment, Instruction, Opcode, Operand, Operation, Reg};
        let load = Operation::load(Opcode::Ldw, Reg::new(0, 2), Reg::new(0, 1), 8);
        let add = Operation::bin(
            Opcode::Add,
            Reg::new(1, 3),
            Operand::Gpr(Reg::new(1, 3)),
            Operand::Imm(-5),
        );
        let mut halt = Instruction::nop(4);
        halt.bundles[0].ops.push(Operation::new(Opcode::Halt));
        Program::new(
            "pinned",
            vec![Instruction::from_ops(4, [(0, load), (1, add)]), halt],
            vec![
                DataSegment {
                    base: 0x100,
                    bytes: vec![1, 2, 3, 4],
                },
                DataSegment {
                    base: 0x2000,
                    bytes: vec![0xff; 6],
                },
            ],
        )
    }

    #[test]
    fn integers_fold_as_fixed_width_little_endian() {
        let digest = |f: &dyn Fn(&mut Fnv64)| {
            let mut h = Fnv64::new();
            f(&mut h);
            h.finish()
        };
        let bytes = |b: &[u8]| digest(&|h| h.update(b));
        assert_eq!(digest(&|h| h.write_u16(0x0102)), bytes(&[2, 1]));
        assert_eq!(digest(&|h| h.write_u32(0x0102_0304)), bytes(&[4, 3, 2, 1]));
        assert_eq!(
            digest(&|h| h.write_i32(-2)),
            bytes(&[0xfe, 0xff, 0xff, 0xff])
        );
        assert_eq!(
            digest(&|h| h.write_usize(3)),
            bytes(&[3, 0, 0, 0, 0, 0, 0, 0]),
            "usize is hashed as 8 bytes on every host"
        );
        assert_eq!(
            digest(&|h| vex_isa::Operand::Imm(1).hash(h)),
            bytes(&[3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]),
            "an enum's discriminant is hashed as 8 bytes, then its fields"
        );
    }

    #[test]
    fn builtin_compiled_twice_digests_equal() {
        let m = vex_isa::MachineConfig::paper_4c4w();
        let a = vex_workloads::compile_benchmark_for("mcf", &m).unwrap();
        let b = vex_workloads::compile_benchmark_for("mcf", &m).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &b), "two separate compiles");
        assert_eq!(program_digest(&a), program_digest(&b));
    }

    #[test]
    fn every_field_reaches_the_digest() {
        let base = hand_built();
        let d0 = program_digest(&base);
        type Mutation = (&'static str, fn(&mut Program));
        let mutations: [Mutation; 7] = [
            ("name", |p| p.name.push('x')),
            ("immediate", |p| {
                p.instructions[0].bundles[0].ops[0].imm += 1
            }),
            ("destination register", |p| {
                p.instructions[0].bundles[1].ops[0].dst =
                    vex_isa::Dest::Gpr(vex_isa::Reg::new(1, 4))
            }),
            ("instruction address", |p| p.inst_addr[1] += 4),
            ("segment base", |p| p.data[1].base += 4),
            ("data byte", |p| p.data[0].bytes[3] ^= 1),
            ("segment order", |p| p.data.swap(0, 1)),
        ];
        for (what, mutate) in mutations {
            let mut p = base.clone();
            mutate(&mut p);
            assert_ne!(p, base, "{what}: the mutation must change the program");
            assert_ne!(program_digest(&p), d0, "{what} does not reach the digest");
        }
    }

    /// Pins key derivation: journals and served caches are keyed by this
    /// digest, so a change here orphans every stored result and must be
    /// a deliberate, visible edit.
    #[test]
    fn hand_built_program_digest_is_pinned() {
        assert_eq!(program_digest(&hand_built()), 0xdc93_3529_0b34_0d49);
    }

    #[test]
    fn every_data_byte_reaches_the_digest() {
        // 1 to 17 bytes: a tail alone, one word, and words plus a tail.
        for len in 1..=17u8 {
            let mut p = hand_built();
            p.data[0].bytes = (1..=len).collect();
            let d0 = program_digest(&p);
            for i in 0..len as usize {
                let mut q = p.clone();
                q.data[0].bytes[i] ^= 0x80;
                assert_ne!(program_digest(&q), d0, "byte {i} of {len}");
            }
        }
    }

    /// Over a 20-byte segment (two words and a tail), the data with any one
    /// or two bits flipped all digest differently from each other and from
    /// the original, so no change of up to four data bits cancels out:
    /// the sign bits of two `u32`s at offsets 4 and 12, say, or of three
    /// at 4, 8 and 12.
    #[test]
    fn no_edit_of_up_to_four_data_bits_cancels() {
        let mut base = hand_built();
        base.data[0].bytes = (0..20u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let bits = base.data[0].bytes.len() * 8;
        let flipped = |flips: &[usize]| {
            let mut p = base.clone();
            for &bit in flips {
                p.data[0].bytes[bit / 8] ^= 1 << (bit % 8);
            }
            program_digest(&p)
        };
        let mut seen = std::collections::HashMap::new();
        seen.insert(flipped(&[]), vec![]);
        for i in 0..bits {
            for flips in std::iter::once(vec![i]).chain((i + 1..bits).map(|j| vec![i, j])) {
                if let Some(other) = seen.insert(flipped(&flips), flips.clone()) {
                    panic!("flipping bits {flips:?} digests as flipping {other:?}");
                }
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn wall_bits_round_trip_is_exact() {
        for w in [0.0, 1.5e-9, 0.123456789, f64::MAX] {
            let mut e = entry(5);
            e.wall_secs = w;
            let back = JournalEntry::from_payload(&e.to_payload()).unwrap();
            assert_eq!(back.wall_secs.to_bits(), w.to_bits());
        }
    }
}
