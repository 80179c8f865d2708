//! Chrome `trace_event` JSON exporter.
//!
//! Emits the "JSON object format" (`{"traceEvents": [...]}`) understood
//! by `chrome://tracing` and Perfetto's legacy importer. Timestamps in
//! that format are **microseconds**; ours are virtual nanoseconds, so
//! values are written as fractional micros to preserve ns precision.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::{cat, ArgValue, Phase, TraceEvent};

/// Serialize `events` (borrowed, oldest first: a slice, or a ring read
/// in place) as a complete Chrome trace JSON document.
///
/// `dropped` (from the ring buffer) is recorded twice: in the
/// top-level `metadata` object, and — when non-zero — as a
/// `trace.dropped` metadata event *inside* `traceEvents`, because most
/// viewers surface events but not document metadata. Truncated traces
/// must never look complete.
pub fn export<'a>(events: impl IntoIterator<Item = &'a TraceEvent>, dropped: u64) -> String {
    let events = events.into_iter();
    let mut out = String::with_capacity(events.size_hint().0 * 120 + 128);
    out.push_str("{\"traceEvents\":[");
    let mut any = false;
    for ev in events {
        if any {
            out.push(',');
        }
        write_event(&mut out, ev);
        any = true;
    }
    if dropped > 0 {
        if any {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"trace.dropped\",\"cat\":\"__metadata\",\"ph\":\"M\",\
             \"ts\":0,\"pid\":1,\"tid\":0,\"args\":{{\"dropped_events\":{dropped}}}}}"
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"metadata\":{");
    let _ = write!(out, "\"clock\":\"virtual\",\"dropped_events\":{dropped}");
    out.push_str("}}");
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let ph = match ev.phase {
        Phase::Complete => "X",
        Phase::Instant => "i",
        Phase::Counter => "C",
        Phase::Metadata => "M",
        Phase::FlowStart => "s",
        Phase::FlowEnd => "f",
    };
    out.push_str("{\"name\":");
    write_str(out, &ev.name);
    out.push_str(",\"cat\":");
    write_str(out, ev.cat);
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":");
    write_micros(out, ev.ts_ns);
    if ev.phase == Phase::Complete {
        out.push_str(",\"dur\":");
        write_micros(out, ev.dur_ns);
    }
    if ev.phase == Phase::Instant {
        // Thread-scoped instant: renders as a tick on its lane.
        out.push_str(",\"s\":\"t\"");
    }
    if matches!(ev.phase, Phase::FlowStart | Phase::FlowEnd) {
        let _ = write!(out, ",\"id\":{}", ev.id);
        if ev.phase == Phase::FlowEnd {
            // Bind the arrow head to the enclosing slice, the viewer
            // convention for hand-offs that complete inside a span.
            out.push_str(",\"bp\":\"e\"");
        }
    }
    let _ = write!(out, ",\"pid\":1,\"tid\":{}", ev.tid);
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, k);
            out.push(':');
            write_arg(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

/// Write `ns` as microseconds with nanosecond precision, avoiding
/// float formatting (exact, and stable across platforms).
fn write_micros(out: &mut String, ns: u64) {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        let _ = write!(out, "{whole}");
    } else {
        let _ = write!(out, "{whole}.{frac:03}");
    }
}

fn write_arg(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        // JSON has no NaN/Inf; stringify them rather than corrupt
        // the document.
        ArgValue::F64(x) => write_str(out, &x.to_string()),
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ArgValue::Str(s) => write_str(out, s),
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: export straight from a [`RingSink`](crate::RingSink),
/// reading its ring in place.
pub fn export_sink(sink: &crate::RingSink) -> String {
    sink.with_events(|ring| export(ring, ring.dropped()))
}

/// Intern a parsed category back onto the workspace's `&'static`
/// vocabulary. Unknown categories map to the empty string — the
/// importer exists for re-analysis, and the analyzers only dispatch on
/// well-known names.
fn intern_cat(s: &str) -> &'static str {
    for known in [
        cat::ENGINE,
        cat::CORE,
        cat::FS,
        cat::NET,
        cat::JVM,
        cat::FAULT,
        cat::PERF,
        cat::SCHED,
        cat::PROC,
        cat::CAUSAL,
    ] {
        if s == known {
            return known;
        }
    }
    if s == "__metadata" {
        return "__metadata";
    }
    ""
}

/// Arg keys the emitters use, interned for the same reason.
fn intern_key(s: &str) -> Option<&'static str> {
    [
        "trace",
        "span",
        "parent",
        "wait",
        "class",
        "key",
        "value",
        "kind",
        "name",
        "pid",
        "thread",
        "step",
        "dropped_events",
    ]
    .into_iter()
    .find(|k| s == *k)
}

/// Parse a document produced by [`export`] back into events plus the
/// recorded dropped-event count — the strict half of the round-trip
/// the causal analyzer is tested against. Unknown arg keys are
/// skipped; malformed documents (or ones this exporter could not have
/// written) are errors, not best-effort guesses.
pub fn import(doc: &str) -> Result<(Vec<TraceEvent>, u64), String> {
    let v = json::parse(doc)?;
    let evs = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    let dropped = v
        .get("metadata")
        .and_then(|m| m.get("dropped_events"))
        .and_then(Json::as_u64)
        .ok_or("missing metadata.dropped_events")?;
    let ts_of = |e: &Json, key: &str| -> Result<u64, String> {
        let us = e
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric {key}"))?;
        Ok((us * 1000.0).round() as u64)
    };
    let mut out = Vec::with_capacity(evs.len());
    for e in evs {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event missing name")?
            .to_string();
        let cat_name = e
            .get("cat")
            .and_then(Json::as_str)
            .ok_or("event missing cat")?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event missing ph")?;
        let phase = match ph {
            "X" => Phase::Complete,
            "i" => Phase::Instant,
            "C" => Phase::Counter,
            "M" => Phase::Metadata,
            "s" => Phase::FlowStart,
            "f" => Phase::FlowEnd,
            other => return Err(format!("unknown phase {other:?}")),
        };
        let dur_ns = if phase == Phase::Complete {
            ts_of(e, "dur")?
        } else {
            0
        };
        // Ids and integer args are read exactly: they use all 64 bits.
        let id = match e.get("id") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("event {name:?} has a non-integer id"))?,
            None if matches!(phase, Phase::FlowStart | Phase::FlowEnd) => {
                return Err(format!("flow event {name:?} missing id"))
            }
            None => 0,
        };
        let mut args = Vec::new();
        if let Some(Json::Obj(map)) = e.get("args") {
            for (k, val) in map {
                let Some(key) = intern_key(k) else { continue };
                let arg = match (val.as_u64(), val) {
                    (Some(n), _) => ArgValue::U64(n),
                    (None, Json::Num(n)) => ArgValue::F64(*n),
                    (None, Json::Bool(b)) => ArgValue::Bool(*b),
                    (None, Json::Str(s)) => ArgValue::Str(Cow::Owned(s.clone())),
                    _ => continue,
                };
                args.push((key, arg));
            }
        }
        out.push(TraceEvent {
            name: Cow::Owned(name),
            cat: intern_cat(cat_name),
            phase,
            ts_ns: ts_of(e, "ts")?,
            dur_ns,
            tid: e.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            id,
            args,
        });
    }
    Ok((out, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::borrow::Cow;

    fn ev(name: &'static str, phase: Phase, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat: "engine",
            phase,
            ts_ns: ts,
            dur_ns: dur,
            tid: 0,
            id: 0,
            args: vec![],
        }
    }

    #[test]
    fn export_parses_and_round_trips_fields() {
        let mut e = ev("dispatch", Phase::Complete, 1_234_567, 2_500);
        e.args = vec![
            ("kind", "timer".into()),
            ("n", 42u64.into()),
            ("killed", false.into()),
        ];
        let doc = export(&[e, ev("mark", Phase::Instant, 5_000, 0)], 3);
        let v = json::parse(&doc).expect("exporter output must be valid JSON");
        let evs = v.get("traceEvents").and_then(Json::as_array).unwrap();
        // Two recorded events plus the trace.dropped marker.
        assert_eq!(evs.len(), 3);
        let first = &evs[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("dispatch"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        // 1_234_567 ns == 1234.567 us
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(1234.567));
        assert_eq!(first.get("dur").unwrap().as_f64(), Some(2.5));
        let args = first.get("args").unwrap();
        assert_eq!(args.get("kind").unwrap().as_str(), Some("timer"));
        assert_eq!(args.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(evs[1].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(
            v.get("metadata")
                .unwrap()
                .get("dropped_events")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut e = ev("q", Phase::Instant, 0, 0);
        e.args = vec![("path", String::from("/tmp/\"x\"\n\\y").into())];
        let doc = export(&[e], 0);
        let v = json::parse(&doc).expect("escaped output parses");
        let evs = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(
            evs[0].get("args").unwrap().get("path").unwrap().as_str(),
            Some("/tmp/\"x\"\n\\y")
        );
    }

    #[test]
    fn dropped_events_surface_inside_the_event_stream() {
        let doc = export(&[ev("e", Phase::Instant, 1, 0)], 7);
        let v = json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").and_then(Json::as_array).unwrap();
        let meta = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("trace.dropped"))
            .expect("trace.dropped metadata event present");
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            meta.get("args").unwrap().get("dropped_events").unwrap(),
            &Json::Num(7.0)
        );
        // A complete trace stays free of the marker.
        let clean = export(&[ev("e", Phase::Instant, 1, 0)], 0);
        assert!(!clean.contains("trace.dropped"));
    }

    #[test]
    fn flow_phases_survive_export_and_import() {
        let mut s = ev("pipe", Phase::FlowStart, 1_000, 0);
        s.cat = cat::CAUSAL;
        s.id = 77;
        s.args = vec![("trace", 5u64.into()), ("span", 6u64.into())];
        let mut f = ev("pipe", Phase::FlowEnd, 2_500, 0);
        f.cat = cat::CAUSAL;
        f.id = 77;
        f.args = vec![("trace", 5u64.into()), ("span", 9u64.into())];
        let doc = export(&[s, f], 0);
        let v = json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(evs[0].get("id").unwrap().as_f64(), Some(77.0));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(evs[1].get("bp").unwrap().as_str(), Some("e"));

        let (parsed, dropped) = import(&doc).expect("round-trip");
        assert_eq!(dropped, 0);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].phase, Phase::FlowStart);
        assert_eq!(parsed[0].id, 77);
        assert_eq!(parsed[0].cat, cat::CAUSAL);
        assert_eq!(parsed[0].ts_ns, 1_000);
        assert_eq!(parsed[1].phase, Phase::FlowEnd);
        assert_eq!(
            parsed[1].args,
            vec![("span", ArgValue::U64(9)), ("trace", ArgValue::U64(5)),]
        );
    }

    #[test]
    fn ids_past_2_63_survive_export_and_import_exactly() {
        // As f64s all three would read back as 11400714819323199488.
        let (flow, trace, span) = (
            11_400_714_819_323_198_485u64,
            11_400_714_819_323_198_486u64,
            11_400_714_819_323_198_487u64,
        );
        let mut s = ev("pipe", Phase::FlowStart, 1_000, 0);
        s.cat = cat::CAUSAL;
        s.id = flow;
        // Args in key order, the order the importer reads them back in.
        s.args = vec![("span", span.into()), ("trace", trace.into())];
        let mut f = ev("pipe", Phase::FlowEnd, 2_000, 0);
        f.cat = cat::CAUSAL;
        f.id = flow;
        f.args = vec![("span", u64::MAX.into()), ("trace", trace.into())];
        let doc = export(&[s, f], 0);
        let (parsed, _) = import(&doc).expect("round-trip");
        assert_eq!((parsed[0].id, parsed[1].id), (flow, flow));
        assert_eq!(
            parsed[0].args,
            vec![
                ("span", ArgValue::U64(span)),
                ("trace", ArgValue::U64(trace))
            ]
        );
        assert_eq!(
            parsed[1].args,
            vec![
                ("span", ArgValue::U64(u64::MAX)),
                ("trace", ArgValue::U64(trace))
            ]
        );
        // Re-exporting the import writes the same bytes.
        assert_eq!(export(&parsed, 0), doc);
    }

    #[test]
    fn import_rejects_flow_events_without_an_id() {
        let doc = "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"causal\",\
                    \"ph\":\"s\",\"ts\":1,\"pid\":1,\"tid\":0}],\
                    \"metadata\":{\"dropped_events\":0}}";
        assert!(import(doc).unwrap_err().contains("missing id"));
    }

    #[test]
    fn import_recovers_the_dropped_count() {
        let doc = export(&[ev("e", Phase::Instant, 1, 0)], 7);
        let (evs, dropped) = import(&doc).unwrap();
        assert_eq!(dropped, 7);
        // The trace.dropped metadata marker is parsed, not invented.
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn empty_trace_is_valid() {
        let v = json::parse(&export(&[], 0)).unwrap();
        assert_eq!(
            v.get("traceEvents").and_then(Json::as_array).map(Vec::len),
            Some(0)
        );
    }
}
