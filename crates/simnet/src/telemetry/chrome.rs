//! Chrome trace-event export: completed [`OpSpan`]s plus the free-form
//! [`Trace`] ring rendered as a JSON document Perfetto and
//! `chrome://tracing` load directly.
//!
//! Layout: one process (`nadfs-sim`), one named thread ("track") per
//! component — `client-N`, `control`, `nic-N`, `storage-N` — all on the
//! simulated clock. Spans become complete (`ph: "X"`) slices with nested
//! per-phase child slices; trace-ring records become instant (`ph: "i"`)
//! events. Timestamps are microseconds (the trace-event unit) derived from
//! sim-time picoseconds, so sub-nanosecond precision survives as decimals.

use std::collections::BTreeMap;

use super::json;
use super::span::OpSpan;
use crate::time::Time;
use crate::trace::Trace;

const PID: u32 = 1;

fn ts_us(t: Time) -> String {
    json::fmt_f64(t.ps() as f64 / 1e6)
}

struct Tracks {
    ids: BTreeMap<String, u32>,
}

impl Tracks {
    fn new() -> Tracks {
        Tracks {
            ids: BTreeMap::new(),
        }
    }

    fn tid(&mut self, track: &str) -> u32 {
        if let Some(&id) = self.ids.get(track) {
            return id;
        }
        let id = self.ids.len() as u32 + 1;
        self.ids.insert(track.to_owned(), id);
        id
    }
}

fn push_event(out: &mut Vec<String>, body: String) {
    out.push(format!("    {{{body}}}"));
}

/// Render spans + trace ring into a trace-event JSON document.
pub fn chrome_trace_json<'a>(spans: impl Iterator<Item = &'a OpSpan>, trace: &Trace) -> String {
    let mut tracks = Tracks::new();
    let mut events: Vec<String> = Vec::new();

    for sp in spans {
        let tid = tracks.tid(&sp.track);
        push_event(
            &mut events,
            format!(
                "\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": {PID}, \"tid\": {tid}, \"args\": {{\"span\": {}, \"ok\": {}}}",
                json::str_lit(&sp.label),
                json::str_lit(sp.kind.as_str()),
                ts_us(sp.start),
                json::fmt_f64(sp.e2e().0 as f64 / 1e6),
                sp.id,
                sp.ok
            ),
        );
        // Nested per-phase slices: each phase spans from the previous mark
        // (span start for the first) to its own mark time.
        let mut prev = sp.start;
        for &(name, at) in &sp.marks {
            push_event(
                &mut events,
                format!(
                    "\"name\": {}, \"cat\": \"phase\", \"ph\": \"X\", \"ts\": {}, \
                     \"dur\": {}, \"pid\": {PID}, \"tid\": {tid}, \
                     \"args\": {{\"span\": {}}}",
                    json::str_lit(name),
                    ts_us(prev),
                    json::fmt_f64(at.since(prev).0 as f64 / 1e6),
                    sp.id
                ),
            );
            prev = at;
        }
    }

    for e in trace.entries() {
        let track = match e.node {
            Some(n) => format!("{}-{n}", e.who),
            None => e.who.to_owned(),
        };
        let tid = tracks.tid(&track);
        push_event(
            &mut events,
            format!(
                "\"name\": {}, \"cat\": {}, \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                 \"pid\": {PID}, \"tid\": {tid}",
                json::str_lit(&e.what),
                json::str_lit(e.who),
                ts_us(e.at)
            ),
        );
    }

    // Metadata events naming the process and each track. Track ids were
    // assigned in first-appearance order; emit metadata sorted by name so
    // output is deterministic.
    let mut meta: Vec<String> = Vec::new();
    meta.push(format!(
        "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PID}, \
         \"args\": {{\"name\": \"nadfs-sim\"}}}}"
    ));
    for (track, tid) in &tracks.ids {
        meta.push(format!(
            "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \
             \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
            json::str_lit(track)
        ));
    }

    let mut s = String::new();
    s.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    let all: Vec<String> = meta.into_iter().chain(events).collect();
    s.push_str(&all.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::json::{self, Json};
    use crate::telemetry::span::{phase, OpKind, SpanBook};
    use crate::trace::Trace;

    fn track_names(doc: &Json) -> Vec<String> {
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(|n| n.as_str().map(str::to_owned))
            .collect()
    }

    #[test]
    fn export_has_tracks_spans_and_instants() {
        let mut book = SpanBook::new(8);
        let id = book.begin(OpKind::Write, "client-0", "write f1", Time(1_000_000));
        book.mark(id, phase::RESOLVED, Time(2_000_000));
        book.end(id, Time(5_000_000), true);

        let trace = Trace::new(16);
        trace
            .borrow_mut()
            .emit_from(Time(3_000_000), "nic", Some(4), || {
                "validated w1".to_owned()
            });
        trace
            .borrow_mut()
            .emit_with(Time(4_000_000), "control", || "commit f1".to_owned());

        let out = chrome_trace_json(book.done(), &trace.borrow());
        let doc = json::parse(&out).expect("chrome JSON parses");
        let tracks = track_names(&doc);
        assert!(tracks.contains(&"client-0".to_owned()));
        assert!(tracks.contains(&"nic-4".to_owned()));
        assert!(tracks.contains(&"control".to_owned()));

        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        // Parent slice + 2 phase slices (resolved, completed) + 2 instants
        // + 1 process_name + 3 thread_name.
        assert_eq!(events.len(), 9);
        let parent = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("write f1"))
            .expect("parent slice");
        assert_eq!(parent.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(parent.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parent.get("dur").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn empty_export_is_valid_json() {
        let book = SpanBook::new(1);
        let trace = Trace::disabled();
        let out = chrome_trace_json(book.done(), &trace.borrow());
        let doc = json::parse(&out).expect("parses");
        assert!(doc.get("traceEvents").and_then(Json::as_array).is_some());
    }
}
