//! The client side of the sweep service: submits a spec, polls until
//! every point is terminal, fetches the results and reassembles a
//! [`SweepOutcome`] indistinguishable from an in-process run.
//!
//! The server keys the points, and its `ACCEPTED` reply carries the keys
//! in expansion order. The client expands the spec too, but only for the
//! points' labels and order: it compiles and loads nothing, so a program
//! file member is whatever the server's copy of it is.

use crate::proto::{parse_key, read_frame, split_message, write_frame};
use std::net::TcpStream;
use std::time::Duration;
use vex_experiments::{
    expand_points, JournalEntry, PointError, PointFailure, PointResult, SweepOutcome,
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
pub fn submit(addr: &str, spec_text: &str, poll_ms: u64) -> Result<Submission, String> {
    let spec = SweepSpec::parse(spec_text).map_err(|e| format!("bad spec: {e}"))?;
    let runs = expand_points(&spec)?;

    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    stream.set_nodelay(true).ok();

    let reply = request(&mut stream, &format!("SUBMIT\n{spec_text}"))?;
    let (head, body) = split_message(&reply);
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
    let keys = body
        .lines()
        .map(parse_key)
        .collect::<Result<Vec<u64>, _>>()?;
    if total != runs.len() || keys.len() != runs.len() {
        return Err(format!(
            "server expanded {total} points and sent {} point keys, client expanded {} \
             — spec disagreement (a server that sends no keys is older than this client)",
            keys.len(),
            runs.len()
        ));
    }
    let points: Vec<_> = runs.into_iter().zip(keys).collect();

    // Poll until every key is terminal; the keys, one per line, are the
    // poll's body as they were the reply's.
    let poll_msg = format!("POLL\n{body}");
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

    /// A one-point spec.
    const ONE_POINT: &str = "name = \"e\"\ninst_limit = 100\ntimeslice = 50\n\
                             techniques = [\"SMT\"]\nthreads = [1]\nmixes = [\"llll\"]\n";

    #[test]
    fn error_reply_with_or_without_a_message_is_an_error() {
        let (addr, server) = fake_server(&["ERROR\nno reason on the verb line", "ERROR bad spec"]);
        let bare = submit(&addr, ONE_POINT, 1)
            .err()
            .expect("a bare ERROR is an error");
        assert_eq!(bare, "server rejected the spec: ");
        let with_msg = submit(&addr, ONE_POINT, 1)
            .err()
            .expect("ERROR <msg> is an error");
        assert_eq!(with_msg, "server rejected the spec: bad spec");
        server.join().unwrap();
    }

    #[test]
    fn accepted_without_one_key_per_point_is_an_error() {
        // Each reply accepts the one point; a client that took it would
        // poll next, and the fake server answers nothing more.
        let (addr, server) = fake_server(&[
            "ACCEPTED 1 0 1",
            "ACCEPTED 1 0 1\n0000000000000001\n0000000000000002\n",
        ]);
        for case in ["no key body (an older server)", "two keys for one point"] {
            let err = submit(&addr, ONE_POINT, 1).err().expect(case);
            assert!(err.contains("1 points and sent"), "{case}: {err}");
        }
        server.join().unwrap();
    }
}
