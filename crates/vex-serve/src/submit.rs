//! The client side of the sweep service: submits a spec, polls until
//! every point is terminal, fetches the results and reassembles a
//! [`SweepOutcome`] indistinguishable from an in-process run.
//!
//! The client expands the spec *locally* to derive the point keys it will
//! poll and fetch — the keys are content-addressed, so the client and
//! server independently agree on the identity of every point without
//! exchanging anything but the spec text.

use crate::proto::{read_frame, split_message, write_frame};
use std::net::TcpStream;
use std::time::Duration;
use vex_experiments::runner::ProgramLoader;
use vex_experiments::{
    spec_point_keys, JournalEntry, PointError, PointFailure, PointResult, SweepOutcome,
};
use vex_spec::SweepSpec;

/// What [`submit`] brings back: the reassembled outcome plus the server's
/// accounting of how much work the submission actually caused.
pub struct Submission {
    /// Results and errors, in spec expansion order — byte-identical JSON
    /// to an uninterrupted in-process sweep of the same spec.
    pub outcome: SweepOutcome,
    /// Points in the spec.
    pub total: usize,
    /// Points served straight from the content-addressed cache.
    pub cached: usize,
    /// Points newly scheduled by this submission (0 on a resubmission of
    /// a completed sweep: the cache answers everything).
    pub enqueued: usize,
}

/// Submits `spec_text` to the server at `addr` and blocks until every
/// point is terminal, polling every `poll_ms` milliseconds.
pub fn submit(
    addr: &str,
    spec_text: &str,
    loader: Option<ProgramLoader<'_>>,
    poll_ms: u64,
) -> Result<Submission, String> {
    let spec = SweepSpec::parse(spec_text).map_err(|e| format!("bad spec: {e}"))?;
    let points = spec_point_keys(&spec, loader)?;

    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();

    let reply = request(&mut stream, &format!("SUBMIT\n{spec_text}"))?;
    let (head, _) = split_message(&reply);
    let mut parts = head.split(' ');
    let (total, cached, enqueued) = match parts.next().unwrap_or("") {
        "ACCEPTED" => {
            let mut next = || {
                parts
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("malformed ACCEPTED reply `{head}`"))
            };
            (next()?, next()?, next()?)
        }
        "DRAINING" => return Err("server is draining; not accepting new submissions".to_string()),
        "ERROR" => {
            let why = head.split_once(' ').map_or("", |(_, msg)| msg);
            return Err(format!("server rejected the spec: {why}"));
        }
        other => return Err(format!("unexpected reply to SUBMIT: `{other}`")),
    };
    if total != points.len() {
        return Err(format!(
            "server expanded {total} points, client expanded {} — spec disagreement",
            points.len()
        ));
    }

    // Poll until every key is terminal.
    let poll_body: String = points
        .iter()
        .map(|(_, key)| format!("{key:016x}\n"))
        .collect();
    let poll_msg = format!("POLL\n{poll_body}");
    loop {
        let reply = request(&mut stream, &poll_msg)?;
        let word = reply.split(' ').next().unwrap_or("");
        match word {
            "READY" => break,
            "PENDING" => std::thread::sleep(Duration::from_millis(poll_ms)),
            _ => return Err(format!("unexpected reply to POLL: `{reply}`")),
        }
    }

    // Fetch every point, preserving expansion order so the assembled
    // outcome is byte-identical to an in-process run.
    let mut results: Vec<PointResult> = Vec::with_capacity(points.len());
    let mut errors: Vec<PointError> = Vec::new();
    for (run, key) in points {
        let reply = request(&mut stream, &format!("FETCH {key:016x}"))?;
        let (head, body) = split_message(&reply);
        let mut parts = head.split(' ');
        match parts.next().unwrap_or("") {
            "ENTRY" => {
                let entry = JournalEntry::from_payload(body)?;
                if entry.key != key {
                    return Err(format!(
                        "server returned entry {:016x} for point {key:016x}",
                        entry.key
                    ));
                }
                results.push(PointResult {
                    run,
                    stats: entry.stats,
                    stop: entry.stop,
                    wall_secs: entry.wall_secs,
                    key,
                    resumed: false,
                    attempts: 1,
                });
            }
            "FAILED" => {
                let attempts: u32 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                let msg = body.trim_end().to_string();
                errors.push(PointError {
                    key,
                    label: run.label(),
                    attempts,
                    cause: match parts.next() {
                        Some("crash") => PointFailure::Crash(msg),
                        _ => PointFailure::Failed(msg),
                    },
                });
            }
            other => {
                return Err(format!(
                    "point {key:016x} is `{other}` after the server reported READY"
                ))
            }
        }
    }

    Ok(Submission {
        outcome: SweepOutcome {
            spec,
            points: results,
            errors,
        },
        total,
        cached,
        enqueued,
    })
}

/// One request/reply exchange.
fn request(stream: &mut TcpStream, text: &str) -> Result<String, String> {
    write_frame(stream, text).map_err(|e| format!("cannot send to the server: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("cannot read from the server: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot server that answers every connection's first frame with
    /// the next of `replies`.
    fn fake_server(replies: &'static [&'static str]) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for reply in replies {
                let (mut conn, _) = listener.accept().unwrap();
                read_frame(&mut conn).unwrap();
                write_frame(&mut conn, reply).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn error_reply_with_or_without_a_message_is_an_error() {
        let spec = "name = \"e\"\ninst_limit = 100\ntimeslice = 50\n\
                    techniques = [\"SMT\"]\nthreads = [1]\nmixes = [\"llll\"]\n";
        let (addr, server) = fake_server(&["ERROR\nno reason on the verb line", "ERROR bad spec"]);
        let bare = submit(&addr, spec, None, 1)
            .err()
            .expect("a bare ERROR is an error");
        assert_eq!(bare, "server rejected the spec: ");
        let with_msg = submit(&addr, spec, None, 1)
            .err()
            .expect("ERROR <msg> is an error");
        assert_eq!(with_msg, "server rejected the spec: bad spec");
        server.join().unwrap();
    }
}
