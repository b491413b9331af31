//! The sweep server: accepts spec submissions over TCP, expands them into
//! content-addressed point jobs, fans the jobs out to a supervised pool of
//! worker *processes*, and serves the results back.
//!
//! ## Supervision model
//!
//! Workers are separate OS processes (fault isolation the in-process
//! runner cannot give: a segfault, OOM kill or runaway loop in one point
//! cannot take the sweep down). The server supervises them three ways:
//!
//! * **Exit reaping** — a worker process that dies (crash, kill, abort)
//!   has its in-flight point re-queued with crash accounting.
//! * **Heartbeats** — workers report liveness from inside the simulator's
//!   cycle loop (see `vex_sim::run_prepared_observed`); a worker silent
//!   for 5× the heartbeat interval is presumed hung, killed, and its
//!   point re-queued.
//! * **Point timeout** — an optional wall-clock ceiling per assignment
//!   (`[serve] point_timeout_ms`), layered on top of the simulated-cycle
//!   watchdog (`[limits] max_cycles`) that the point itself carries.
//!
//! Re-queued points wait out an exponential-backoff-with-jitter delay
//! ([`BackoffPolicy`]) and are retried up to the budget; a point whose
//! workers keep *crashing* is quarantined after `[serve] quarantine`
//! crashes — a poison point must not eat the pool.
//!
//! ## Durability
//!
//! Results live in a content-addressed cache keyed by the point key, and
//! — when a journal path is configured — every result is appended to a
//! crash-safe VEXJ journal (fsynced before the worker's `RESULT` is
//! acknowledged) and every submission to a `<journal>.subs` sidecar.
//! `--resume` replays both: completed points come back byte-identically
//! without re-simulation, and interrupted submissions re-enqueue their
//! missing points.
//!
//! ## Drain
//!
//! SIGTERM/SIGINT (or the `DRAIN` verb) puts the server into drain mode:
//! new submissions are refused, accepted work is finished and journaled,
//! idle workers are told to `SHUTDOWN`, and the server exits 0.
//!
//! ## Threads
//!
//! A blocking acceptor thread takes connections and gives each its own
//! thread; the main thread supervises the pool on a 10 ms tick. Nothing
//! on the request path sleeps: a worker's `GET` parks on a condition
//! variable paired with the state mutex until a task is assignable (a
//! timed wait when the soonest one is behind a backoff delay), drain has
//! made every task terminal, or the server closes. Every state change
//! that can end such a wait notifies it.

use crate::proto::{parse_key, read_frame, split_message, write_frame};
use std::collections::HashMap;
use std::fs;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{
    single_point_spec, spec_point_keys, BackoffPolicy, FramedLog, Journal, JournalEntry, LogKind,
};
use vex_spec::{ServeSpec, SweepSpec};

/// Everything a [`serve`] call needs to know.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Worker pool size (0 = one per available core).
    pub workers: u32,
    /// Supervision policy: heartbeat interval, timeouts, retry budget,
    /// backoff, quarantine threshold.
    pub policy: ServeSpec,
    /// Result journal path; also enables the `<path>.subs` submission log.
    pub journal: Option<String>,
    /// Replay the journal and submission log instead of truncating them.
    pub resume: bool,
    /// Report every `wall_secs` as zero, making results byte-reproducible
    /// across fault schedules (the crash-equivalence tests diff them).
    pub zero_wall: bool,
    /// Write the actual listen address here once bound (test support:
    /// lets a harness bind port 0 and discover the port).
    pub port_file: Option<String>,
    /// Command to spawn one worker (`--connect ADDR` is appended). None
    /// means no pool is spawned — only external `vex worker` processes
    /// serve the queue.
    pub worker_cmd: Option<Vec<String>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 0,
            policy: ServeSpec::default(),
            journal: None,
            resume: false,
            zero_wall: false,
            port_file: None,
            worker_cmd: None,
        }
    }
}

// ---- signals ------------------------------------------------------

static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Routes SIGTERM/SIGINT into a drain request. Std has no signal API, but
/// `signal(2)` is in libc, which every linux-gnu/macOS binary links.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        DRAIN_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_term as *const () as usize); // SIGTERM
        signal(2, on_term as *const () as usize); // SIGINT
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// SIGKILLs a process by id (used to reap hung workers; external workers
/// on the same host are covered too, not just our children).
#[cfg(unix)]
fn kill_process(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, 9);
    }
}

#[cfg(not(unix))]
fn kill_process(_pid: u32) {}

// ---- submission log -----------------------------------------------

/// The submission log's header and name.
const SUBS: LogKind = LogKind {
    magic: "VEXS 1\n",
    name: "vex serve submission log",
};

/// Opens (resuming) or creates the append-only log of submitted spec
/// texts, so a server killed mid-sweep can re-enqueue what it had
/// accepted; returns the log and the prior submissions. It is framed like
/// the result journal, and torn tails are truncated on open the same way.
fn open_subs_log(path: &Path, resume: bool) -> Result<(FramedLog, Vec<String>), String> {
    if !resume {
        return Ok((FramedLog::create(path, SUBS)?, Vec::new()));
    }
    let mut texts = Vec::new();
    let (log, _) = FramedLog::open(path, SUBS, |text| {
        texts.push(text.to_string());
        true
    })?;
    Ok((log, texts))
}

// ---- task state ---------------------------------------------------

#[derive(Debug)]
enum TaskState {
    /// Waiting for a worker (possibly not before `ready_at`).
    Queued,
    /// Assigned to worker `pid`.
    Running {
        pid: u32,
        since: Instant,
        last_hb: Instant,
    },
    /// Result is in the cache.
    Done,
    /// Out of retries or quarantined.
    Failed { msg: String },
}

#[derive(Debug)]
struct Task {
    label: String,
    /// The assignment wire text: a canonical single-point spec.
    assign: String,
    /// Times this point has been assigned (1 = first try).
    attempts: u32,
    /// Times a worker died (crash/hang/timeout) while holding it.
    crashes: u32,
    /// Earliest next assignment (backoff).
    ready_at: Instant,
    state: TaskState,
}

struct State {
    tasks: HashMap<u64, Task>,
    /// Stable iteration order (first-enqueued first).
    order: Vec<u64>,
    /// Content-addressed result cache; also fed by journal replay.
    cache: HashMap<u64, JournalEntry>,
    draining: bool,
}

impl State {
    fn all_terminal(&self) -> bool {
        self.tasks
            .values()
            .all(|t| matches!(t.state, TaskState::Done | TaskState::Failed { .. }))
    }
}

struct Shared<'a> {
    cfg: &'a ServeConfig,
    loader: Option<ProgramLoader<'a>>,
    backoff: BackoffPolicy,
    state: Mutex<State>,
    /// Paired with `state`: notified on every change that can end a
    /// parked `GET` (a task became assignable or terminal, drain, close).
    ready: Condvar,
    journal: Mutex<Option<Journal>>,
    subs: Mutex<Option<FramedLog>>,
    /// Clones of every accepted connection, so drain can unblock their
    /// reader threads.
    conns: Mutex<Vec<TcpStream>>,
    /// Set (under the `state` lock, so no parked `GET` misses it) when
    /// the server shuts down.
    closed: AtomicBool,
}

impl<'a> Shared<'a> {
    /// Opens the durable state `cfg` names — the result journal, whose
    /// replayed entries fill the cache, and the submission log — and
    /// returns it with the logged submission texts to re-enqueue.
    fn open(
        cfg: &'a ServeConfig,
        loader: Option<ProgramLoader<'a>>,
    ) -> Result<(Shared<'a>, Vec<String>), String> {
        let mut cache: HashMap<u64, JournalEntry> = HashMap::new();
        let journal = match &cfg.journal {
            Some(p) if cfg.resume => {
                let (j, entries, report) = Journal::open_resume(Path::new(p))?;
                eprintln!(
                    "[vex serve] journal `{p}`: replayed {} completed point(s){}",
                    entries.len(),
                    if report.dropped_bytes > 0 {
                        format!(" (dropped a torn {}-byte tail)", report.dropped_bytes)
                    } else {
                        String::new()
                    }
                );
                for e in entries {
                    cache.insert(e.key, e);
                }
                Some(j)
            }
            Some(p) => Some(Journal::create(Path::new(p))?),
            None => None,
        };
        let (subs, prior) = match &cfg.journal {
            Some(p) => {
                let (s, texts) = open_subs_log(Path::new(&format!("{p}.subs")), cfg.resume)?;
                (Some(s), texts)
            }
            None => (None, Vec::new()),
        };
        let shared = Shared {
            cfg,
            loader,
            backoff: BackoffPolicy {
                base_ms: cfg.policy.backoff_base_ms,
                max_ms: cfg.policy.backoff_max_ms,
                jitter: true,
            },
            state: Mutex::new(State {
                tasks: HashMap::new(),
                order: Vec::new(),
                cache,
                draining: false,
            }),
            ready: Condvar::new(),
            journal: Mutex::new(journal),
            subs: Mutex::new(subs),
            conns: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        };
        Ok((shared, prior))
    }

    /// Marks the server closed and wakes every parked `GET` to see it.
    fn shut(&self) {
        {
            let _st = lock(&self.state);
            self.closed.store(true, Ordering::SeqCst);
        }
        self.ready.notify_all();
    }
}

/// Mutex lock that shrugs off poisoning: the protected data is only ever
/// whole values.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

const DRAINING_MSG: &str = "server is draining; not accepting new submissions";

// ---- submission / queue -------------------------------------------

/// Expands a submitted spec and enqueues every point not already cached
/// or pending. Returns `(total, cached, newly_enqueued)`.
fn enqueue_spec(
    shared: &Shared<'_>,
    text: &str,
    record: bool,
) -> Result<(usize, usize, usize), String> {
    let spec = SweepSpec::parse(text).map_err(|e| format!("bad spec: {e}"))?;
    // Expansion compiles the member programs (to derive the point keys);
    // do it outside the state lock.
    let points = spec_point_keys(&spec, shared.loader)?;

    let mut st = lock(&shared.state);
    if st.draining {
        return Err(DRAINING_MSG.to_string());
    }
    let now = Instant::now();
    let (mut cached, mut enqueued) = (0, 0);
    for (run, key) in &points {
        if st.cache.contains_key(key) {
            cached += 1;
            continue;
        }
        match st.tasks.get_mut(key) {
            Some(t) => {
                // A fresh submission grants a failed point a fresh budget.
                if matches!(t.state, TaskState::Failed { .. }) {
                    t.attempts = 0;
                    t.crashes = 0;
                    t.ready_at = now;
                    t.state = TaskState::Queued;
                    enqueued += 1;
                }
                // Queued/Running points are shared with the submission
                // that created them.
            }
            None => {
                st.tasks.insert(
                    *key,
                    Task {
                        label: run.label(),
                        assign: single_point_spec(run).print(),
                        attempts: 0,
                        crashes: 0,
                        ready_at: now,
                        state: TaskState::Queued,
                    },
                );
                st.order.push(*key);
                enqueued += 1;
            }
        }
    }
    drop(st);
    shared.ready.notify_all();
    if record {
        if let Some(s) = lock(&shared.subs).as_mut() {
            s.append(text)?;
        }
    }
    Ok((points.len(), cached, enqueued))
}

/// Answers worker `pid`'s `GET` on connection `peer`: blocks until a task
/// is assignable (`ASSIGN`) or drain has made every task terminal
/// (`SHUTDOWN`). `None` when the server closes or the worker hung up
/// while parked: the connection is over, and no task was taken.
fn next_assignment(shared: &Shared<'_>, pid: u32, peer: &TcpStream) -> Option<String> {
    let mut st = lock(&shared.state);
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            return None;
        }
        let now = Instant::now();
        let mut soonest: Option<Instant> = None;
        let mut ready: Option<u64> = None;
        for key in &st.order {
            match st.tasks.get(key) {
                Some(t) if matches!(t.state, TaskState::Queued) => {
                    if t.ready_at <= now {
                        ready = Some(*key);
                        break;
                    }
                    soonest = Some(soonest.map_or(t.ready_at, |s| s.min(t.ready_at)));
                }
                _ => {}
            }
        }
        if let Some(key) = ready {
            // A dead worker's parked GET must not take the task it can
            // never run (its process is reaped, so nothing else would
            // re-queue the point until the heartbeat timeout).
            if peer_gone(peer) {
                return None;
            }
            let t = st.tasks.get_mut(&key).expect("key from the same map");
            t.attempts += 1;
            t.state = TaskState::Running {
                pid,
                since: now,
                last_hb: now,
            };
            return Some(format!(
                "ASSIGN {key:016x} {} {}\n{}",
                if shared.cfg.zero_wall { 1 } else { 0 },
                shared.cfg.policy.heartbeat_ms,
                t.assign
            ));
        }
        if st.draining && st.all_terminal() {
            return Some("SHUTDOWN".to_string());
        }
        st = match soonest {
            Some(at) => {
                shared
                    .ready
                    .wait_timeout(st, at - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared
                .ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// Whether the peer has closed its end of `stream`. A worker parked on
/// `GET` sends nothing until it is answered, so a nonblocking peek finds
/// either nothing (alive) or the end of the stream (gone).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
        ),
    };
    stream.set_nonblocking(false).ok();
    gone
}

/// Journals and caches a completed point. The journal append (fsync
/// included) happens before the caller acknowledges the worker, so an
/// acknowledged result is durable.
fn handle_result(shared: &Shared<'_>, key: u64, payload: &str) -> Result<(), String> {
    let entry = JournalEntry::from_payload(payload)?;
    if entry.key != key {
        return Err(format!(
            "result key {:016x} does not match claimed key {key:016x}",
            entry.key
        ));
    }
    if let Some(j) = lock(&shared.journal).as_mut() {
        j.append(&entry)?;
    }
    let mut st = lock(&shared.state);
    st.cache.insert(key, entry);
    if let Some(t) = st.tasks.get_mut(&key) {
        t.state = TaskState::Done;
    }
    drop(st);
    // During drain, this may have been the last task that was not
    // terminal.
    shared.ready.notify_all();
    Ok(())
}

/// A worker reported a clean per-point failure (simulation error, bad
/// assignment): retry within the budget, no crash accounting.
fn handle_fail(shared: &Shared<'_>, key: u64, msg: &str) {
    let policy = shared.cfg.policy;
    let mut st = lock(&shared.state);
    if let Some(t) = st.tasks.get_mut(&key) {
        if matches!(t.state, TaskState::Running { .. }) {
            if t.attempts > policy.retries {
                t.state = TaskState::Failed {
                    msg: format!("failed: {msg} (after {} attempts)", t.attempts),
                };
            } else {
                let delay = shared.backoff.delay_ms(key, t.attempts + 1);
                t.ready_at = Instant::now() + Duration::from_millis(delay);
                t.state = TaskState::Queued;
            }
        }
    }
    drop(st);
    shared.ready.notify_all();
}

/// Crash accounting for one task whose worker died while holding it:
/// quarantine poison points, fail exhausted budgets, otherwise re-queue
/// behind the backoff delay.
fn task_crashed(t: &mut Task, key: u64, policy: &ServeSpec, backoff: &BackoffPolicy, why: &str) {
    t.crashes += 1;
    if t.crashes >= policy.quarantine {
        t.state = TaskState::Failed {
            msg: format!(
                "quarantined as a poison point: {} worker crashes ({why})",
                t.crashes
            ),
        };
    } else if t.attempts > policy.retries {
        t.state = TaskState::Failed {
            msg: format!("{why} (after {} attempts)", t.attempts),
        };
    } else {
        let delay = backoff.delay_ms(key, t.attempts + 1);
        t.ready_at = Instant::now() + Duration::from_millis(delay);
        t.state = TaskState::Queued;
    }
}

/// Re-queues everything a dead worker was holding. Idempotent: a pid with
/// no running tasks is a no-op (the reap may race the timeout path).
fn worker_died(shared: &Shared<'_>, pid: u32, why: &str) {
    let policy = shared.cfg.policy;
    let mut st = lock(&shared.state);
    let keys: Vec<u64> = st
        .tasks
        .iter()
        .filter(|(_, t)| matches!(t.state, TaskState::Running { pid: p, .. } if p == pid))
        .map(|(k, _)| *k)
        .collect();
    for key in keys {
        let t = st.tasks.get_mut(&key).expect("key from the same map");
        task_crashed(t, key, &policy, &shared.backoff, why);
        eprintln!(
            "[vex serve] worker {pid} lost point {} ({why}); {}",
            t.label,
            match &t.state {
                TaskState::Queued => "re-queued".to_string(),
                TaskState::Failed { msg } => msg.clone(),
                _ => unreachable!("crash leaves a task queued or failed"),
            }
        );
    }
    drop(st);
    shared.ready.notify_all();
}

// ---- status / fetch / poll ----------------------------------------

fn status_reply(shared: &Shared<'_>) -> String {
    use std::fmt::Write as _;
    let st = lock(&shared.state);
    let (mut q, mut r, mut d, mut f) = (0, 0, 0, 0);
    for t in st.tasks.values() {
        match t.state {
            TaskState::Queued => q += 1,
            TaskState::Running { .. } => r += 1,
            TaskState::Done => d += 1,
            TaskState::Failed { .. } => f += 1,
        }
    }
    let mut out = format!(
        "tasks={} queued={q} running={r} done={d} failed={f} draining={}",
        st.tasks.len(),
        st.draining as u8
    );
    for key in &st.order {
        let Some(t) = st.tasks.get(key) else { continue };
        let state = match &t.state {
            TaskState::Queued => "queued",
            TaskState::Running { .. } => "running",
            TaskState::Done => "done",
            TaskState::Failed { .. } => "failed",
        };
        let _ = write!(
            out,
            "\ntask {key:016x} {state} attempts={} crashes={} label={}",
            t.attempts, t.crashes, t.label
        );
    }
    out
}

fn poll_reply(shared: &Shared<'_>, body: &str) -> String {
    let st = lock(&shared.state);
    let (mut done, mut failed, mut total) = (0usize, 0usize, 0usize);
    for line in body.lines().filter(|l| !l.is_empty()) {
        total += 1;
        match parse_key(line) {
            Ok(key) if st.cache.contains_key(&key) => done += 1,
            Ok(key)
                if st
                    .tasks
                    .get(&key)
                    .is_some_and(|t| matches!(t.state, TaskState::Failed { .. })) =>
            {
                failed += 1
            }
            _ => {}
        }
    }
    if done + failed == total {
        format!("READY {done} {failed}")
    } else {
        format!("PENDING {} {total}", done + failed)
    }
}

fn fetch_reply(shared: &Shared<'_>, key: u64) -> String {
    let st = lock(&shared.state);
    if let Some(entry) = st.cache.get(&key) {
        return format!("ENTRY\n{}", entry.to_payload());
    }
    match st.tasks.get(&key) {
        Some(t) => match &t.state {
            TaskState::Failed { msg } => format!("FAILED {}\n{msg}", t.attempts),
            _ => "PENDING".to_string(),
        },
        None => "UNKNOWN".to_string(),
    }
}

// ---- connection handling ------------------------------------------

fn handle_conn(shared: &Shared<'_>, mut stream: TcpStream) {
    let mut peer_pid: u32 = 0;
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        // Clean disconnect, torn frame, or drain-time shutdown: the
        // peer is gone either way. In-flight work it held is covered
        // by process supervision, not connection state.
        let Ok(Some(msg)) = read_frame(&mut stream) else {
            return;
        };
        let (head, body) = split_message(&msg);
        let mut parts = head.split(' ');
        let verb = parts.next().unwrap_or("");
        let reply: Option<String> = match verb {
            "HELLO" => {
                peer_pid = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
                Some("OK".to_string())
            }
            "GET" => match next_assignment(shared, peer_pid, &stream) {
                Some(reply) => Some(reply),
                None => return,
            },
            "HEARTBEAT" => {
                // One-way: refresh the liveness stamp if this worker
                // still holds the point (a reaped worker's stale beats
                // must not refresh a reassigned task).
                if let Ok(key) = parts.next().map_or(Err(String::new()), parse_key) {
                    let mut st = lock(&shared.state);
                    if let Some(t) = st.tasks.get_mut(&key) {
                        if let TaskState::Running { pid, last_hb, .. } = &mut t.state {
                            if *pid == peer_pid {
                                *last_hb = Instant::now();
                            }
                        }
                    }
                }
                None
            }
            "RESULT" => Some(match parts.next().map_or(Err(String::new()), parse_key) {
                Ok(key) => match handle_result(shared, key, body) {
                    Ok(()) => "OK".to_string(),
                    Err(e) => format!("ERROR {}", e.replace('\n', " ")),
                },
                Err(e) => format!("ERROR {e}"),
            }),
            "FAIL" => Some(match parts.next().map_or(Err(String::new()), parse_key) {
                Ok(key) => {
                    handle_fail(shared, key, body.trim_end());
                    "OK".to_string()
                }
                Err(e) => format!("ERROR {e}"),
            }),
            "SUBMIT" => Some(match enqueue_spec(shared, body, true) {
                Ok((total, cached, enqueued)) => {
                    eprintln!(
                        "[vex serve] submission: {total} points ({cached} cached, \
                         {enqueued} newly scheduled)"
                    );
                    format!("ACCEPTED {total} {cached} {enqueued}")
                }
                Err(e) if e == DRAINING_MSG => "DRAINING".to_string(),
                Err(e) => format!("ERROR {}", e.replace('\n', " ")),
            }),
            "POLL" => Some(poll_reply(shared, body)),
            "FETCH" => Some(match parts.next().map_or(Err(String::new()), parse_key) {
                Ok(key) => fetch_reply(shared, key),
                Err(e) => format!("ERROR {e}"),
            }),
            "STATUS" => Some(status_reply(shared)),
            "DRAIN" => {
                DRAIN_REQUESTED.store(true, Ordering::SeqCst);
                Some("OK".to_string())
            }
            other => Some(format!("ERROR unknown verb `{other}`")),
        };
        if let Some(reply) = reply {
            if write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }
}

// ---- supervision --------------------------------------------------

fn spawn_worker(cmd: &[String], addr: &str) -> Result<Child, String> {
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .arg("--connect")
        .arg(addr)
        .spawn()
        .map_err(|e| format!("cannot spawn worker `{}`: {e}", cmd[0]))
}

/// One supervisor pass: reap dead children, kill hung/overtime workers,
/// and keep the pool at strength while not draining.
fn supervise(
    shared: &Shared<'_>,
    children: &mut Vec<Child>,
    addr: &str,
    pool_size: usize,
    draining: bool,
) {
    // Reap exited workers and re-queue what they held.
    children.retain_mut(|c| match c.try_wait() {
        Ok(Some(status)) => {
            worker_died(shared, c.id(), &format!("worker exited ({status})"));
            false
        }
        Ok(None) => true,
        Err(_) => true,
    });

    // Heartbeat / point-timeout supervision.
    let policy = shared.cfg.policy;
    let hb_timeout = Duration::from_millis(policy.heartbeat_ms.saturating_mul(5).max(200));
    let now = Instant::now();
    let mut to_kill: Vec<u32> = Vec::new();
    {
        let mut st = lock(&shared.state);
        let keys: Vec<u64> = st.order.clone();
        for key in keys {
            let Some(t) = st.tasks.get_mut(&key) else {
                continue;
            };
            let TaskState::Running {
                pid,
                since,
                last_hb,
            } = t.state
            else {
                continue;
            };
            let hung = now.duration_since(last_hb) > hb_timeout;
            let overtime = policy.point_timeout_ms > 0
                && now.duration_since(since) > Duration::from_millis(policy.point_timeout_ms);
            if hung || overtime {
                let why = if hung {
                    format!(
                        "no heartbeat for {}ms",
                        now.duration_since(last_hb).as_millis()
                    )
                } else {
                    format!("point exceeded {}ms wall clock", policy.point_timeout_ms)
                };
                eprintln!(
                    "[vex serve] reaping worker {pid} holding {}: {why}",
                    t.label
                );
                task_crashed(t, key, &policy, &shared.backoff, &why);
                to_kill.push(pid);
            }
        }
    }
    if !to_kill.is_empty() {
        shared.ready.notify_all();
    }
    for pid in to_kill {
        kill_process(pid);
        // The child reap on a later pass removes it from the pool; its
        // tasks were already re-queued above, so `worker_died` then
        // finds nothing (idempotent by design).
    }

    if !draining {
        fill_pool(shared.cfg, children, addr, pool_size);
    }
}

/// Spawns workers until the pool is at strength.
fn fill_pool(cfg: &ServeConfig, children: &mut Vec<Child>, addr: &str, pool_size: usize) {
    if let Some(cmd) = &cfg.worker_cmd {
        while children.len() < pool_size {
            match spawn_worker(cmd, addr) {
                Ok(c) => children.push(c),
                Err(e) => {
                    eprintln!("[vex serve] {e}");
                    break;
                }
            }
        }
    }
}

// ---- the server ---------------------------------------------------

/// Enters drain mode (idempotent): refuse new submissions, and wake parked
/// `GET`s so idle workers learn of the drain once nothing is left to do.
fn begin_drain(shared: &Shared<'_>) {
    let mut st = lock(&shared.state);
    if st.draining {
        return;
    }
    st.draining = true;
    eprintln!(
        "[vex serve] drain requested: finishing {} in-flight point(s), \
         refusing new submissions",
        st.tasks
            .values()
            .filter(|t| !matches!(t.state, TaskState::Done | TaskState::Failed { .. }))
            .count()
    );
    drop(st);
    shared.ready.notify_all();
}

/// Shuts the server down so the thread scope can join: wakes parked
/// `GET`s, unblocks every connection thread, and wakes the acceptor by
/// connecting to its own address until it has exited.
fn close(
    shared: &Shared<'_>,
    mut bound: SocketAddr,
    acceptor: &std::thread::ScopedJoinHandle<'_, Result<(), String>>,
) {
    shared.shut();
    for c in lock(&shared.conns).drain(..) {
        c.shutdown(Shutdown::Both).ok();
    }
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    while !acceptor.is_finished() {
        TcpStream::connect_timeout(&bound, Duration::from_secs(1)).ok();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs the sweep service until drained (SIGTERM/SIGINT or the `DRAIN`
/// verb). Returns once every accepted point is terminal, the journal is
/// synced, and the worker pool has exited.
pub fn serve(cfg: &ServeConfig, loader: Option<ProgramLoader<'_>>) -> Result<(), String> {
    DRAIN_REQUESTED.store(false, Ordering::SeqCst);
    install_signal_handlers();

    let listener =
        TcpListener::bind(&cfg.listen).map_err(|e| format!("cannot bind `{}`: {e}", cfg.listen))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot read the bound address: {e}"))?;
    let addr = bound.to_string();

    // Start the pool first: the workers' process start-up overlaps the
    // journal's creation (four fsyncs) or replay, and their connections
    // wait in the listen backlog until the acceptor runs.
    let pool_size = if cfg.worker_cmd.is_none() {
        0
    } else if cfg.workers == 0 {
        vex_experiments::default_workers()
    } else {
        cfg.workers as usize
    };
    let mut children: Vec<Child> = Vec::new();
    fill_pool(cfg, &mut children, &addr, pool_size);
    let opened = (|| {
        if let Some(pf) = &cfg.port_file {
            // Write-then-rename so a polling test never reads a
            // half-written address.
            let tmp = format!("{pf}.tmp");
            fs::write(&tmp, &addr)
                .and_then(|_| fs::rename(&tmp, pf))
                .map_err(|e| format!("cannot write port file `{pf}`: {e}"))?;
        }
        eprintln!("[vex serve] listening on {addr}");
        Shared::open(cfg, loader)
    })();
    let (shared, prior) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            for c in &mut children {
                c.kill().ok();
                c.wait().ok();
            }
            return Err(e);
        }
    };

    // Re-enqueue interrupted submissions before accepting new ones: the
    // cache short-circuits every point the journal already has.
    for text in &prior {
        match enqueue_spec(&shared, text, false) {
            Ok((total, cached, enqueued)) => eprintln!(
                "[vex serve] resumed submission: {total} points \
                 ({cached} already journaled, {enqueued} re-enqueued)"
            ),
            Err(e) => eprintln!("[vex serve] dropping unreplayable submission: {e}"),
        }
    }

    let served = std::thread::scope(|s| -> Result<(), String> {
        let shared = &shared;
        let acceptor = s.spawn(move || -> Result<(), String> {
            for conn in listener.incoming() {
                // Checked under the `conns` lock, so a connection is either
                // registered before `close` shuts them all down or dropped
                // here.
                let mut conns = lock(&shared.conns);
                if shared.closed.load(Ordering::SeqCst) {
                    return Ok(());
                }
                let stream = conn.map_err(|e| format!("accept failed: {e}"))?;
                stream.set_nodelay(true).ok();
                if let Ok(clone) = stream.try_clone() {
                    conns.push(clone);
                }
                drop(conns);
                s.spawn(move || handle_conn(shared, stream));
            }
            Ok(())
        });

        // Supervision tick; it ends once drained, or when accepting failed.
        while !acceptor.is_finished() {
            if DRAIN_REQUESTED.load(Ordering::SeqCst) {
                begin_drain(shared);
            }
            let draining = lock(&shared.state).draining;
            supervise(shared, &mut children, &addr, pool_size, draining);
            if draining && lock(&shared.state).all_terminal() && children.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        close(shared, bound, &acceptor);
        acceptor
            .join()
            .unwrap_or_else(|_| Err("the acceptor thread panicked".to_string()))
    });
    served?;

    let st = lock(&shared.state);
    eprintln!(
        "[vex serve] drained: {} point(s) served, {} failed; exiting cleanly",
        st.cache.len(),
        st.tasks
            .values()
            .filter(|t| matches!(t.state, TaskState::Failed { .. }))
            .count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::mpsc;

    /// The longest any dispatch test waits for a reply that must come.
    const BOUND: Duration = Duration::from_secs(10);

    /// One point, small enough to compile in milliseconds.
    const ONE_POINT: &str = "name = \"d\"\ninst_limit = 100\ntimeslice = 50\n\
                             techniques = [\"SMT\"]\nthreads = [1]\nmixes = [\"llll\"]\n";

    /// Both ends of a loopback connection: (server side, worker side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, worker)
    }

    /// Closes the server when dropped, so a failed assertion releases a
    /// still-parked `GET` instead of hanging the thread scope.
    struct ShutOnDrop<'s, 'a>(&'s Shared<'a>);

    impl Drop for ShutOnDrop<'_, '_> {
        fn drop(&mut self) {
            self.0.shut();
        }
    }

    /// Runs worker 1's `GET` on its own thread; `body` gets the channel
    /// its reply arrives on.
    fn with_parked_get(shared: &Shared<'_>, body: impl FnOnce(&mpsc::Receiver<Option<String>>)) {
        let (peer, _worker) = socket_pair();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let peer = &peer;
            s.spawn(move || tx.send(next_assignment(shared, 1, peer)).ok());
            let _shut = ShutOnDrop(shared);
            body(&rx);
        });
    }

    fn assigned_key(reply: &str) -> u64 {
        let head = split_message(reply).0;
        assert!(
            head.starts_with("ASSIGN "),
            "expected an assignment, got `{head}`"
        );
        parse_key(head.split(' ').nth(1).unwrap()).unwrap()
    }

    #[test]
    fn parked_get_is_assigned_once_a_spec_is_enqueued() {
        let cfg = ServeConfig::default();
        let (shared, _) = Shared::open(&cfg, None).unwrap();
        with_parked_get(&shared, |rx| {
            // An empty queue parks the GET: no reply at all, not a
            // wait-and-ask-again.
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            enqueue_spec(&shared, ONE_POINT, false).unwrap();
            let reply = rx
                .recv_timeout(BOUND)
                .expect("the parked GET was never woken");
            assigned_key(&reply.expect("a live worker gets a reply"));
        });
    }

    #[test]
    fn backed_off_task_is_assigned_when_its_delay_passes() {
        let mut cfg = ServeConfig::default();
        cfg.policy.backoff_base_ms = 200;
        let (shared, _) = Shared::open(&cfg, None).unwrap();
        enqueue_spec(&shared, ONE_POINT, false).unwrap();
        let (peer, _worker) = socket_pair();
        let key = assigned_key(&next_assignment(&shared, 1, &peer).unwrap());
        handle_fail(&shared, key, "transient");
        let ready_at = lock(&shared.state).tasks[&key].ready_at;
        assert!(
            ready_at > Instant::now(),
            "the retry must be behind a delay"
        );
        with_parked_get(&shared, |rx| {
            let reply = rx
                .recv_timeout(BOUND)
                .expect("the delay never ended the wait");
            assert_eq!(assigned_key(&reply.unwrap()), key);
            assert!(
                Instant::now() >= ready_at,
                "assigned before its backoff delay"
            );
        });
        assert_eq!(lock(&shared.state).tasks[&key].attempts, 2);
    }

    #[test]
    fn drain_answers_a_parked_get_with_shutdown() {
        let cfg = ServeConfig::default();
        let (shared, _) = Shared::open(&cfg, None).unwrap();
        with_parked_get(&shared, |rx| {
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            begin_drain(&shared);
            let reply = rx.recv_timeout(BOUND).expect("drain never woke the GET");
            assert_eq!(reply.as_deref(), Some("SHUTDOWN"));
        });
    }

    #[test]
    fn drain_waits_for_the_last_result_then_shuts_down() {
        let cfg = ServeConfig::default();
        let (shared, _) = Shared::open(&cfg, None).unwrap();
        enqueue_spec(&shared, ONE_POINT, false).unwrap();
        let (peer, _worker) = socket_pair();
        let key = assigned_key(&next_assignment(&shared, 1, &peer).unwrap());
        with_parked_get(&shared, |rx| {
            begin_drain(&shared);
            // A point is still running: the idle worker stays parked.
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            let entry = JournalEntry {
                key,
                label: "llll/SMT/1t/paper".into(),
                stop: vex_sim::StopReason::InstLimit,
                wall_secs: 0.0,
                stats: vex_sim::SimStats::default(),
            };
            handle_result(&shared, key, &entry.to_payload()).unwrap();
            let reply = rx
                .recv_timeout(BOUND)
                .expect("the last result never woke the GET");
            assert_eq!(reply.as_deref(), Some("SHUTDOWN"));
        });
    }

    #[test]
    fn get_of_a_worker_that_hung_up_takes_no_task() {
        let cfg = ServeConfig::default();
        let (shared, _) = Shared::open(&cfg, None).unwrap();
        let (peer, worker) = socket_pair();
        drop(worker);
        let deadline = Instant::now() + BOUND;
        while !peer_gone(&peer) {
            assert!(Instant::now() < deadline, "the hang-up never showed");
            std::thread::sleep(Duration::from_millis(1));
        }
        enqueue_spec(&shared, ONE_POINT, false).unwrap();
        assert_eq!(next_assignment(&shared, 1, &peer), None);
        let st = lock(&shared.state);
        assert!(st
            .tasks
            .values()
            .all(|t| matches!(t.state, TaskState::Queued) && t.attempts == 0));
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vexs_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn subs_log_round_trips_and_truncates_torn_tails() {
        let path = tmp("subs");
        {
            let (mut log, prior) = open_subs_log(&path, false).unwrap();
            assert!(prior.is_empty());
            log.append("name = \"a\"\nmixes = [\"llll\"]\n").unwrap();
            log.append("name = \"b\"\nmixes = [\"hhhh\"]\n").unwrap();
        }
        let (_, prior) = open_subs_log(&path, true).unwrap();
        assert_eq!(prior.len(), 2);
        assert!(prior[0].contains("\"a\""));

        // Tear the tail mid-record: the valid prefix survives.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut log, prior) = open_subs_log(&path, true).unwrap();
        assert_eq!(prior.len(), 1);
        log.append("name = \"c\"\nmixes = [\"llll\"]\n").unwrap();
        drop(log);
        let (_, prior) = open_subs_log(&path, true).unwrap();
        assert_eq!(prior.len(), 2);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_subs_log_yields_a_prefix_or_the_foreign_file_error() {
        let path = tmp("subs_flipped");
        let texts = [
            "name = \"a\"\nmixes = [\"llll\"]\n",
            "name = \"b\"\nmixes = [\"hhhh\"]\n",
            "name = \"c\"\nseed = 3\nmixes = [\"llhh\"]\n",
        ];
        {
            let (mut log, _) = open_subs_log(&path, false).unwrap();
            for t in texts {
                log.append(t).unwrap();
            }
        }
        let clean = fs::read(&path).unwrap();
        // splitmix64, so every run flips the same bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for case in 0..256 {
            // One to four flipped bytes, a quarter of them in the first 16.
            let mut bytes = clean.clone();
            for _ in 0..1 + below(4) {
                let at = if below(4) == 0 {
                    below(16)
                } else {
                    below(bytes.len())
                };
                bytes[at] ^= 1 + below(255) as u8;
            }
            let n = SUBS.magic.len();
            let hit_magic = bytes[..n] != clean[..n];
            fs::write(&path, &bytes).unwrap();
            match open_subs_log(&path, true) {
                Ok((_, prior)) => {
                    assert!(!hit_magic, "case {case}: a flipped header was accepted");
                    assert!(
                        prior.len() <= texts.len() && prior.iter().zip(texts).all(|(p, t)| p == t),
                        "case {case}: {prior:?} is not a prefix of the submissions"
                    );
                }
                Err(e) => {
                    assert!(hit_magic, "case {case}: refused without a header flip: {e}");
                    assert!(e.contains("not a vex serve submission log"), "{e}");
                }
            }
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_subs_file_is_refused() {
        let path = tmp("subs_foreign");
        fs::write(&path, "definitely not a log\n").unwrap();
        let err = open_subs_log(&path, true).unwrap_err();
        assert!(err.contains("not a vex serve submission log"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn crashing_task_backs_off_then_quarantines() {
        let policy = ServeSpec {
            retries: 10,
            quarantine: 3,
            ..ServeSpec::default()
        };
        let backoff = BackoffPolicy {
            base_ms: 100,
            max_ms: 5_000,
            jitter: false,
        };
        let mut t = Task {
            label: "p".into(),
            assign: String::new(),
            attempts: 1,
            crashes: 0,
            ready_at: Instant::now(),
            state: TaskState::Running {
                pid: 1,
                since: Instant::now(),
                last_hb: Instant::now(),
            },
        };
        task_crashed(&mut t, 7, &policy, &backoff, "died");
        assert!(matches!(t.state, TaskState::Queued));
        assert!(t.ready_at > Instant::now() - Duration::from_millis(1));
        t.attempts = 2;
        task_crashed(&mut t, 7, &policy, &backoff, "died");
        assert!(matches!(t.state, TaskState::Queued));
        t.attempts = 3;
        task_crashed(&mut t, 7, &policy, &backoff, "died");
        let TaskState::Failed { msg } = &t.state else {
            panic!("third crash must quarantine");
        };
        assert!(msg.contains("quarantined"), "{msg}");
        assert_eq!(t.crashes, 3);
    }

    #[test]
    fn exhausted_retry_budget_fails_without_quarantine() {
        let policy = ServeSpec {
            retries: 1,
            quarantine: 50,
            ..ServeSpec::default()
        };
        let backoff = BackoffPolicy::none();
        let mut t = Task {
            label: "p".into(),
            assign: String::new(),
            attempts: 2,
            crashes: 0,
            ready_at: Instant::now(),
            state: TaskState::Running {
                pid: 1,
                since: Instant::now(),
                last_hb: Instant::now(),
            },
        };
        // attempts (2) > retries (1): the budget is spent.
        task_crashed(&mut t, 9, &policy, &backoff, "died");
        let TaskState::Failed { msg } = &t.state else {
            panic!("spent budget must fail");
        };
        assert!(msg.contains("after 2 attempts"), "{msg}");
    }
}
