//! Trace exporters: Chrome trace-event JSON (Perfetto) and JSONL.
//!
//! - [`chrome_trace_json`] renders a sealed [`Trace`] in the [Chrome
//!   trace-event format] — loadable in Perfetto or `chrome://tracing`.
//!   Every actor becomes a named thread track (pid 0); message records
//!   become short slices with **flow arrows** from each `Sent` slice to its
//!   `Delivered` slice, bound by the per-run [`MsgId`](crate::trace::MsgId); losses, timers,
//!   notes and fault-plane events become instant events.
//! - [`jsonl`] renders one self-describing JSON object per record — the
//!   streaming companion of the `--obs-out` snapshots.
//! - [`validate_chrome`] is the small schema check CI runs over emitted
//!   files: top-level shape, required fields per phase, and every flow
//!   start matched by exactly one flow finish.
//!
//! [Chrome trace-event format]:
//! https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps: the format counts in **microseconds**; simulation time is
//! integer nanoseconds, exported as fractional µs so Δ < 1 µs stays
//! visible.

use std::collections::HashSet;

use serde::Value;

use crate::network::ActorId;
use crate::time::SimTime;
use crate::trace::{Trace, TraceKind};

/// Virtual process id all tracks live under (one simulation = one process).
const PID: u64 = 0;

fn ts_us(at: SimTime) -> Value {
    Value::Float(at.as_nanos() as f64 / 1000.0)
}

fn event(ph: &str, tid: ActorId, at: SimTime, name: String) -> Vec<(String, Value)> {
    vec![
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("pid".to_string(), Value::UInt(PID)),
        ("tid".to_string(), Value::UInt(tid as u64)),
        ("ts".to_string(), ts_us(at)),
        ("name".to_string(), Value::Str(name)),
    ]
}

/// Render a sealed trace as Chrome trace-event JSON.
///
/// `actor_name` labels each track (e.g. `"sensor 3"`, `"root"`).
pub fn chrome_trace_json(trace: &Trace, actor_name: impl Fn(ActorId) -> String) -> String {
    let records = trace.records();
    // Flow arrows need both endpoints: collect the ids that were sent so a
    // Delivered without a Sent (an injected world event) emits no dangling
    // flow-finish.
    let mut sent_ids: HashSet<u64> = HashSet::new();
    let mut actors: Vec<ActorId> = Vec::new();
    for r in records {
        if let TraceKind::Sent { msg, .. } = &r.kind {
            sent_ids.insert(msg.0);
        }
        let a = r.kind.actor();
        if !actors.contains(&a) {
            actors.push(a);
        }
    }
    actors.sort_unstable();

    let mut events: Vec<Value> = Vec::with_capacity(records.len() * 2 + actors.len());
    for &a in &actors {
        let mut m = event("M", a, SimTime::ZERO, "thread_name".to_string());
        // Metadata events take their payload under args.name.
        m.retain(|(k, _)| k != "ts");
        m.push((
            "args".to_string(),
            Value::Map(vec![("name".to_string(), Value::Str(actor_name(a)))]),
        ));
        events.push(Value::Map(m));
    }

    for r in records {
        match &r.kind {
            TraceKind::Sent { from, to, bytes, msg } => {
                let mut e = event("X", *from, r.at, format!("send → {to}"));
                e.push(("cat".to_string(), Value::Str("net".to_string())));
                e.push(("dur".to_string(), Value::Float(0.001)));
                e.push((
                    "args".to_string(),
                    Value::Map(vec![
                        ("msg".to_string(), Value::UInt(msg.0)),
                        ("bytes".to_string(), Value::UInt(*bytes as u64)),
                    ]),
                ));
                events.push(Value::Map(e));
                let mut s = event("s", *from, r.at, "msg".to_string());
                s.push(("cat".to_string(), Value::Str("flow".to_string())));
                s.push(("id".to_string(), Value::UInt(msg.0)));
                events.push(Value::Map(s));
            }
            TraceKind::Delivered { from, to, msg } => {
                let mut e = event("X", *to, r.at, format!("recv ← {from}"));
                e.push(("cat".to_string(), Value::Str("net".to_string())));
                e.push(("dur".to_string(), Value::Float(0.001)));
                e.push((
                    "args".to_string(),
                    Value::Map(vec![("msg".to_string(), Value::UInt(msg.0))]),
                ));
                events.push(Value::Map(e));
                if sent_ids.contains(&msg.0) {
                    let mut f = event("f", *to, r.at, "msg".to_string());
                    f.push(("cat".to_string(), Value::Str("flow".to_string())));
                    f.push(("id".to_string(), Value::UInt(msg.0)));
                    f.push(("bp".to_string(), Value::Str("e".to_string())));
                    events.push(Value::Map(f));
                }
            }
            TraceKind::Lost { from: _, to, msg } => {
                let mut e = event("i", r.kind.actor(), r.at, format!("lost → {to}"));
                e.push(("cat".to_string(), Value::Str("net".to_string())));
                e.push(("s".to_string(), Value::Str("t".to_string())));
                e.push((
                    "args".to_string(),
                    Value::Map(vec![("msg".to_string(), Value::UInt(msg.0))]),
                ));
                events.push(Value::Map(e));
            }
            TraceKind::TimerFired { actor, tag } => {
                let mut e = event("i", *actor, r.at, format!("timer {tag}"));
                e.push(("cat".to_string(), Value::Str("timer".to_string())));
                e.push(("s".to_string(), Value::Str("t".to_string())));
                events.push(Value::Map(e));
            }
            TraceKind::Note { actor, label } => {
                let mut e = event("i", *actor, r.at, label.clone());
                e.push(("cat".to_string(), Value::Str("note".to_string())));
                e.push(("s".to_string(), Value::Str("t".to_string())));
                events.push(Value::Map(e));
            }
            TraceKind::Fault { actor, kind, detail } => {
                let mut e = event("i", *actor, r.at, format!("fault: {}", kind.label()));
                e.push(("cat".to_string(), Value::Str("fault".to_string())));
                e.push(("s".to_string(), Value::Str("t".to_string())));
                e.push((
                    "args".to_string(),
                    Value::Map(vec![("detail".to_string(), Value::UInt(*detail))]),
                ));
                events.push(Value::Map(e));
            }
        }
    }

    let doc = Value::Map(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Seq(events)),
    ]);
    let mut out = String::new();
    serde_json::write_value_to(&doc, &mut out);
    out
}

/// Render a sealed trace as JSONL: one JSON object per record, in
/// recording order. Schema (fields per `event` discriminant) is documented
/// in the repository README under *Observability*.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        let mut m: Vec<(String, Value)> = vec![
            ("seq".to_string(), Value::UInt(r.seq)),
            ("at_ns".to_string(), Value::UInt(r.at.as_nanos())),
        ];
        match &r.kind {
            TraceKind::Sent { from, to, bytes, msg } => {
                m.push(("event".to_string(), Value::Str("sent".to_string())));
                m.push(("from".to_string(), Value::UInt(*from as u64)));
                m.push(("to".to_string(), Value::UInt(*to as u64)));
                m.push(("bytes".to_string(), Value::UInt(*bytes as u64)));
                m.push(("msg".to_string(), Value::UInt(msg.0)));
            }
            TraceKind::Delivered { from, to, msg } => {
                m.push(("event".to_string(), Value::Str("delivered".to_string())));
                m.push(("from".to_string(), Value::UInt(*from as u64)));
                m.push(("to".to_string(), Value::UInt(*to as u64)));
                m.push(("msg".to_string(), Value::UInt(msg.0)));
            }
            TraceKind::Lost { from, to, msg } => {
                m.push(("event".to_string(), Value::Str("lost".to_string())));
                m.push(("from".to_string(), Value::UInt(*from as u64)));
                m.push(("to".to_string(), Value::UInt(*to as u64)));
                m.push(("msg".to_string(), Value::UInt(msg.0)));
            }
            TraceKind::TimerFired { actor, tag } => {
                m.push(("event".to_string(), Value::Str("timer".to_string())));
                m.push(("actor".to_string(), Value::UInt(*actor as u64)));
                m.push(("tag".to_string(), Value::UInt(*tag)));
            }
            TraceKind::Note { actor, label } => {
                m.push(("event".to_string(), Value::Str("note".to_string())));
                m.push(("actor".to_string(), Value::UInt(*actor as u64)));
                m.push(("label".to_string(), Value::Str(label.clone())));
            }
            TraceKind::Fault { actor, kind, detail } => {
                m.push(("event".to_string(), Value::Str("fault".to_string())));
                m.push(("actor".to_string(), Value::UInt(*actor as u64)));
                m.push(("kind".to_string(), Value::Str(kind.label().to_string())));
                m.push(("detail".to_string(), Value::UInt(*detail)));
            }
        }
        serde_json::write_value_to(&Value::Map(m), &mut out);
        out.push('\n');
    }
    out
}

/// Summary returned by [`validate_chrome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total `traceEvents` entries.
    pub events: usize,
    /// Matched flow-arrow pairs (`s` bound to `f` by id).
    pub flows: usize,
}

/// Validate Chrome trace-event JSON produced by [`chrome_trace_json`] (the
/// CI schema check): top-level map with a `traceEvents` array; every event
/// a map with string `ph`, integer `pid`/`tid`, a `name`, and a numeric
/// `ts` (metadata events exempt); every flow start has exactly one finish.
pub fn validate_chrome(json: &str) -> Result<ChromeSummary, String> {
    let doc = serde_json::parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let top = doc.as_map().ok_or("top level must be an object")?;
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_seq())
        .ok_or("missing traceEvents array")?;
    let mut starts: Vec<u64> = Vec::new();
    let mut finishes: Vec<u64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let m = e.as_map().ok_or_else(|| format!("event {i}: not an object"))?;
        let field = |name: &str| m.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let ph =
            field("ph").and_then(Value::as_str).ok_or_else(|| format!("event {i}: missing ph"))?;
        for req in ["pid", "tid"] {
            match field(req) {
                Some(Value::UInt(_)) | Some(Value::Int(_)) => {}
                _ => return Err(format!("event {i}: missing integer {req}")),
            }
        }
        if field("name").is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ph != "M" {
            match field("ts") {
                Some(Value::Float(_)) | Some(Value::UInt(_)) | Some(Value::Int(_)) => {}
                _ => return Err(format!("event {i}: ph {ph:?} needs numeric ts")),
            }
        }
        let flow_id = || match field("id") {
            Some(Value::UInt(id)) => Ok(*id),
            _ => Err(format!("event {i}: flow event needs integer id")),
        };
        match ph {
            "s" => starts.push(flow_id()?),
            "f" => finishes.push(flow_id()?),
            "X" | "i" | "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    starts.sort_unstable();
    finishes.sort_unstable();
    for f in &finishes {
        if starts.binary_search(f).is_err() {
            return Err(format!("flow finish id {f} has no start"));
        }
    }
    Ok(ChromeSummary { events: events.len(), flows: finishes.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MsgId;

    fn sample_trace() -> Trace {
        let mut t = Trace::enabled();
        t.record(
            SimTime::from_millis(1),
            TraceKind::Sent { from: 0, to: 1, bytes: 16, msg: MsgId(7) },
        );
        t.record(SimTime::from_millis(4), TraceKind::Delivered { from: 0, to: 1, msg: MsgId(7) });
        t.record(SimTime::from_millis(5), TraceKind::Lost { from: 1, to: 0, msg: MsgId(8) });
        t.record(SimTime::from_millis(6), TraceKind::TimerFired { actor: 1, tag: 2 });
        t.record(SimTime::from_millis(7), TraceKind::Note { actor: 1, label: "hi".into() });
        t.record(
            SimTime::from_millis(7),
            TraceKind::Fault { actor: 0, kind: crate::trace::FaultRecordKind::Crash, detail: 0 },
        );
        // An injected delivery: no Sent with this id → no flow finish.
        t.record(SimTime::from_millis(8), TraceKind::Delivered { from: 2, to: 1, msg: MsgId(99) });
        t.seal();
        t
    }

    #[test]
    fn chrome_export_is_valid_and_binds_flows() {
        let t = sample_trace();
        let json = chrome_trace_json(&t, |a| format!("actor {a}"));
        let summary = validate_chrome(&json).expect("valid");
        assert_eq!(summary.flows, 1, "one sent→delivered pair");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("actor 0"));
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_record() {
        let t = sample_trace();
        let text = jsonl(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), t.len());
        for line in &lines {
            serde_json::parse(line).expect("each line parses");
        }
        assert!(lines[0].contains("\"event\":\"sent\""));
        assert!(lines[1].contains("\"event\":\"delivered\""));
    }

    #[test]
    fn validator_rejects_dangling_flow_finish() {
        let json = r#"{"traceEvents":[
            {"ph":"f","pid":0,"tid":0,"ts":1.0,"name":"msg","id":5}
        ]}"#;
        assert!(validate_chrome(json).is_err());
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome("[]").is_err(), "top level must be an object");
        assert!(validate_chrome(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
    }
}
