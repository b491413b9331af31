//! Wire protocol of the sweep service: length-prefixed UTF-8 text frames
//! over TCP, one message per frame.
//!
//! ## Framing
//!
//! ```text
//! <len: u32 little-endian> <len bytes of UTF-8 text>
//! ```
//!
//! Length prefixes make every message self-delimiting regardless of its
//! content (submitted spec files and journal payloads are multi-line), and
//! a reader can always tell a short read from a complete frame — the same
//! property the on-disk journal gets from its `+<len> <crc>` headers. No
//! checksum here: TCP already covers the transport, and everything written
//! to disk goes through the checksummed journal format.
//!
//! ## Messages
//!
//! A message is the frame's text: the first line is the verb and its
//! space-separated arguments, everything after the first newline is the
//! body. The conversation is strict request/reply per connection — the
//! sender of a request reads exactly one reply — with one exception:
//! `HEARTBEAT` is one-way (a worker mid-simulation fires it from the
//! engine's heartbeat hook and immediately resumes the cycle loop).
//!
//! Worker → server: `HELLO <pid>`, `GET`, `HEARTBEAT <key> <cycle>`,
//! `RESULT <key>` + journal payload body, `FAIL <key>` + message body.
//! Server → worker: `OK`, `ASSIGN <key> <zero_wall> <heartbeat_ms>` +
//! single-point spec body, `SHUTDOWN`. The reply to `GET` comes when
//! there is one: the server holds it until a point can be assigned
//! (`ASSIGN`) or a drain has finished every point (`SHUTDOWN`), so an
//! idle worker never polls.
//! Client → server: `SUBMIT` + spec body, `POLL` + key-per-line body,
//! `FETCH <key>`, `STATUS`, `DRAIN`.
//! Server → client: `ACCEPTED <total> <cached> <enqueued>` + key-per-line
//! body, `DRAINING`, `ERROR <msg>`, `READY <done> <failed>`, `PENDING
//! <done> <total>`, `ENTRY` + payload body, `FAILED <attempts> <cause>` +
//! message body (`error` for a clean failure, `crash` for a point its
//! workers kept losing), `UNKNOWN`.
//!
//! `ACCEPTED`'s body is the submission's point keys in expansion order,
//! one 16-digit hex key per line: the server derives the keys, so a client
//! compiles and loads nothing. A client that predates the body reads the
//! verb line only and ignores it; a client refuses an `ACCEPTED` that does
//! not carry one key per point, as a server that predates the body sends.

use std::io::{self, Read, Write};

/// Upper bound on a frame's size (16 MiB). A submitted spec or a result
/// payload is kilobytes; anything larger is a corrupt or hostile stream
/// and is refused before allocating.
pub const MAX_FRAME: u32 = 16 << 20;

/// Writes one frame. The text's length must fit [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, text: &str) -> io::Result<()> {
    let len = text.len() as u32;
    debug_assert!(len <= MAX_FRAME);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF on the
/// length prefix boundary); an EOF mid-frame is an error — the peer died
/// mid-message.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no more frames" from "torn frame": only an EOF before
    // the first length byte is clean.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

/// Splits a message into its verb line and body (empty when the message
/// is a single line).
pub fn split_message(text: &str) -> (&str, &str) {
    match text.split_once('\n') {
        Some((head, body)) => (head, body),
        None => (text, ""),
    }
}

/// Parses a 16-digit hex point key argument.
pub fn parse_key(arg: &str) -> Result<u64, String> {
    u64::from_str_radix(arg, 16).map_err(|_| format!("bad point key `{arg}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "HELLO 42").unwrap();
        write_frame(&mut buf, "RESULT 00000000deadbeef\nkey=...\nmulti\nline").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "HELLO 42");
        let msg = read_frame(&mut r).unwrap().unwrap();
        let (head, body) = split_message(&msg);
        assert_eq!(head, "RESULT 00000000deadbeef");
        assert_eq!(body, "key=...\nmulti\nline");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_header_and_torn_body_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "STATUS").unwrap();
        // Cut inside the next frame's header.
        buf.extend_from_slice(&[7, 0]);
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).is_err());

        // Cut inside a frame's body.
        let mut buf = Vec::new();
        write_frame(&mut buf, "0123456789").unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_is_refused_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = buf.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn single_line_message_has_empty_body() {
        let (head, body) = split_message("GET");
        assert_eq!(head, "GET");
        assert_eq!(body, "");
    }

    #[test]
    fn keys_parse_back() {
        assert_eq!(parse_key("00000000deadbeef").unwrap(), 0xdead_beef);
        assert!(parse_key("xyz").is_err());
    }
}
