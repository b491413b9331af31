//! Trace sinks: where the engine streams its events.
//!
//! The engine holds a `Box<dyn TraceSink>` and calls [`TraceSink::record`]
//! at each emission site; when no sink is attached the sites compile down
//! to a single branch on an `Option` discriminant, so tracing costs
//! nothing when disabled.

use crate::event::{TraceEvent, TraceMeta};
use crate::format::{encode_header, encode_record};
use std::any::Any;
use std::io::Write;
use std::path::Path;

/// Receiver of a trace event stream.
///
/// `begin` is called once when the sink is attached to an engine (with
/// the run's geometry), `record` once per event, and `finish` when the
/// owner is done — file-backed sinks flush there and report any deferred
/// I/O error. The `Any` accessors let owners recover the concrete sink
/// (e.g. a [`RingSink`]'s buffered events) from the boxed trait object.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Starts a stream for a run with geometry `meta`.
    fn begin(&mut self, meta: &TraceMeta);
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Ends the stream, flushing buffered state. Returns the first error
    /// the sink encountered, if any.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Downcast support (`&mut` form).
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Downcast support (owned form).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// An in-memory buffer of every event of a run, which the test suite
/// uses to replay whole runs.
#[derive(Debug, Default)]
pub struct RingSink {
    meta: Option<TraceMeta>,
    events: Vec<TraceEvent>,
}

impl RingSink {
    /// A sink that keeps every event of the run.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// The geometry the stream was begun with, once attached.
    pub fn meta(&self) -> Option<TraceMeta> {
        self.meta
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Consumes the sink, returning the buffered events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Recovers a `RingSink` from a boxed [`TraceSink`] (e.g. the value
    /// handed back by `Engine::take_tracer`). Returns `None` if the boxed
    /// sink is some other type.
    pub fn reclaim(sink: Box<dyn TraceSink>) -> Option<RingSink> {
        sink.into_any().downcast::<RingSink>().ok().map(|b| *b)
    }
}

impl TraceSink for RingSink {
    fn begin(&mut self, meta: &TraceMeta) {
        self.meta = Some(*meta);
    }

    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Streams the `VEXT` binary format to a file through a 64 KiB buffered
/// writer.
///
/// I/O errors are latched at the first failure and reported by
/// [`TraceSink::finish`]; the per-record path never panics mid-run.
#[derive(Debug)]
pub struct FileSink {
    path: String,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    error: Option<String>,
    records: u64,
}

impl FileSink {
    /// Creates (truncates) `path` for writing. The header is written when
    /// the engine attaches the sink and supplies the run geometry.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<FileSink, String> {
        let path_str = path.as_ref().display().to_string();
        let file = std::fs::File::create(path.as_ref())
            .map_err(|e| format!("creating trace file `{path_str}`: {e}"))?;
        Ok(FileSink {
            path: path_str,
            writer: Some(std::io::BufWriter::with_capacity(1 << 16, file)),
            error: None,
            records: 0,
        })
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.write_all(bytes) {
                self.error = Some(format!("writing trace file `{}`: {e}", self.path));
            }
        }
    }
}

impl TraceSink for FileSink {
    fn begin(&mut self, meta: &TraceMeta) {
        let header = encode_header(meta);
        self.write(&header);
    }

    fn record(&mut self, ev: &TraceEvent) {
        let rec = encode_record(ev);
        self.write(&rec);
        self.records += 1;
        // `End` closes the stream semantically: flush eagerly so the file
        // is complete on disk even if the owner crashes before `finish`,
        // and so a write error surfaces while it can still be reported.
        if let TraceEvent::End { .. } = ev {
            if let Some(w) = &mut self.writer {
                if let Err(e) = w.flush() {
                    self.error
                        .get_or_insert(format!("flushing trace file `{}`: {e}", self.path));
                }
            }
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(mut w) = self.writer.take() {
            if let Err(e) = w.flush() {
                self.error
                    .get_or_insert(format!("flushing trace file `{}`: {e}", self.path));
            }
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Drop for FileSink {
    /// A latched I/O error must not vanish silently if the owner forgot
    /// to call [`TraceSink::finish`]: flush what remains and report the
    /// first error to stderr as a last resort.
    fn drop(&mut self) {
        if let Some(mut w) = self.writer.take() {
            if let Err(e) = w.flush() {
                self.error
                    .get_or_insert(format!("flushing trace file `{}`: {e}", self.path));
            }
        }
        if let Some(e) = self.error.take() {
            eprintln!("warning: trace sink dropped with an unreported error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::read_trace;

    fn meta() -> TraceMeta {
        TraceMeta {
            n_contexts: 2,
            hw_threads: 2,
            n_clusters: 4,
        }
    }

    fn issue(cycle: u64) -> TraceEvent {
        TraceEvent::Issue {
            cycle,
            thread: 0,
            inst: 0,
            ops: 1,
            clusters: 1,
            completed: true,
        }
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut ring = RingSink::unbounded();
        ring.begin(&meta());
        for c in 0..1000 {
            ring.record(&issue(c));
        }
        assert_eq!(ring.into_events().len(), 1000);
    }

    #[test]
    fn ring_reclaims_through_the_trait_object() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingSink::unbounded());
        boxed.begin(&meta());
        boxed.record(&issue(7));
        let ring = RingSink::reclaim(boxed).expect("downcast succeeds");
        assert_eq!(ring.meta(), Some(meta()));
        assert_eq!(ring.into_events(), vec![issue(7)]);
    }

    #[test]
    fn file_sink_writes_a_readable_trace() {
        let path = std::env::temp_dir().join(format!("vex_trace_sink_{}.vext", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.begin(&meta());
        sink.record(&issue(1));
        sink.record(&TraceEvent::End { cycle: 2 });
        sink.finish().unwrap();

        let bytes = std::fs::read(&path).unwrap();
        let (m, events) = read_trace(&bytes).unwrap();
        assert_eq!(m, meta());
        assert_eq!(events, vec![issue(1), TraceEvent::End { cycle: 2 }]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn end_record_flushes_before_finish() {
        let path = std::env::temp_dir().join(format!("vex_trace_end_{}.vext", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.begin(&meta());
        sink.record(&issue(1));
        sink.record(&TraceEvent::End { cycle: 2 });
        // No `finish` yet — the End record alone must have flushed the
        // stream to disk (crash-safety: the engine emits End in
        // `finalize_stats`, possibly long before the CLI exits).
        let bytes = std::fs::read(&path).unwrap();
        let (_, events) = read_trace(&bytes).unwrap();
        assert_eq!(events.last(), Some(&TraceEvent::End { cycle: 2 }));
        sink.finish().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_an_unfinished_sink_flushes_it() {
        let path = std::env::temp_dir().join(format!("vex_trace_drop_{}.vext", std::process::id()));
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.begin(&meta());
            sink.record(&issue(1));
            // Dropped without finish: Drop must flush the buffered bytes.
        }
        let bytes = std::fs::read(&path).unwrap();
        let (_, events) = read_trace(&bytes).unwrap();
        assert_eq!(events, vec![issue(1)]);
        let _ = std::fs::remove_file(&path);
    }
}
