//! Chrome trace-event JSON emission (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Only the subset the pipeline visualizer needs is modelled: complete
//! (`ph:"X"`) duration events with microsecond timestamps, plus
//! process/thread-name metadata (`ph:"M"`) so lanes are labelled. The
//! output is the plain *array* form — open it directly in
//! <https://ui.perfetto.dev>.

use serde_json::{json, Value};

/// One complete-duration event (`ph:"X"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label shown on the slice.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Process id lane.
    pub pid: u64,
    /// Thread id lane within the process.
    pub tid: u64,
    /// Free-form argument payload (shown in the detail pane).
    pub args: Value,
}

/// One counter sample (`ph:"C"`): Perfetto renders a counter track per
/// `(pid, name)` with one series per key in `args`.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent {
    /// Counter-track name.
    pub name: String,
    /// Sample timestamp in microseconds.
    pub ts_us: f64,
    /// Process id lane.
    pub pid: u64,
    /// Series name → value at this timestamp.
    pub series: Vec<(String, f64)>,
}

/// Builder for a Chrome trace: events plus lane-name metadata.
#[derive(Debug, Default, Clone)]
pub struct ChromeTrace {
    process_names: Vec<(u64, String)>,
    thread_names: Vec<(u64, u64, String)>,
    events: Vec<TraceEvent>,
    counters: Vec<CounterEvent>,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Label process lane `pid`.
    pub fn name_process(&mut self, pid: u64, name: impl Into<String>) -> &mut Self {
        self.process_names.push((pid, name.into()));
        self
    }

    /// Label thread lane `tid` within `pid`.
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: impl Into<String>) -> &mut Self {
        self.thread_names.push((pid, tid, name.into()));
        self
    }

    /// Append a complete event; `ts`/`dur` are in **nanoseconds** (the
    /// simulator's unit) and converted to the format's microseconds here.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event field list
    pub fn complete_ns(
        &mut self,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_ns: f64,
        dur_ns: f64,
        pid: u64,
        tid: u64,
        args: Value,
    ) -> &mut Self {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ts_us: ts_ns / 1e3,
            dur_us: dur_ns / 1e3,
            pid,
            tid,
            args,
        });
        self
    }

    /// Append one counter sample (`ph:"C"`); `ts` in **nanoseconds**.
    /// Each `(series, value)` pair becomes one stacked series on the
    /// `(pid, name)` counter track.
    pub fn counter_ns(
        &mut self,
        name: impl Into<String>,
        ts_ns: f64,
        pid: u64,
        series: Vec<(String, f64)>,
    ) -> &mut Self {
        self.counters.push(CounterEvent { name: name.into(), ts_us: ts_ns / 1e3, pid, series });
        self
    }

    /// Number of duration events recorded (counter samples not included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no duration event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The trace as a JSON array of trace events (metadata first).
    pub fn to_json(&self) -> Value {
        let mut out: Vec<Value> = Vec::new();
        for (pid, name) in &self.process_names {
            out.push(json!({
                "name": "process_name",
                "ph": "M",
                "pid": *pid,
                "tid": 0u64,
                "args": { "name": name.clone() },
            }));
        }
        for (pid, tid, name) in &self.thread_names {
            out.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": *pid,
                "tid": *tid,
                "args": { "name": name.clone() },
            }));
        }
        for e in &self.events {
            out.push(json!({
                "name": e.name.clone(),
                "cat": e.cat.clone(),
                "ph": "X",
                "ts": e.ts_us,
                "dur": e.dur_us,
                "pid": e.pid,
                "tid": e.tid,
                "args": e.args.clone(),
            }));
        }
        for c in &self.counters {
            let args = Value::Map(c.series.iter().map(|(k, v)| (k.clone(), json!(*v))).collect());
            out.push(json!({
                "name": c.name.clone(),
                "ph": "C",
                "ts": c.ts_us,
                "pid": c.pid,
                "tid": 0u64,
                "args": args,
            }));
        }
        Value::Seq(out)
    }

    /// The trace in Chrome's *object* form: `{"traceEvents": [...], ...}`
    /// with `extras` appended as additional top-level keys. Perfetto loads
    /// the object form and ignores unknown keys, so callers can embed
    /// machine-readable sidecar data (span records, SLO analyses) in the
    /// same file the UI opens.
    pub fn to_object_json(&self, extras: Vec<(String, Value)>) -> Value {
        let mut map = vec![("traceEvents".to_string(), self.to_json())];
        map.extend(extras);
        Value::Map(map)
    }

    /// Compact JSON string of [`ChromeTrace::to_json`].
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_convert_ns_to_us() {
        let mut t = ChromeTrace::new();
        t.complete_ns("qk", "matmul", 1500.0, 500.0, 1, 2, json!({"row": 0}));
        let arr = match t.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!((e.get("ts").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-12);
        assert!((e.get("dur").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(e.get("pid").unwrap().as_f64().unwrap() as u64, 1);
        assert_eq!(e.get("tid").unwrap().as_f64().unwrap() as u64, 2);
    }

    #[test]
    fn metadata_precedes_events() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "attention");
        t.name_thread(1, 3, "softmax#0");
        t.complete_ns("sm", "softmax", 0.0, 10.0, 1, 3, json!({}));
        let arr = match t.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].get("ph").and_then(Value::as_str), Some("M"));
        assert_eq!(arr[1].get("name").and_then(Value::as_str), Some("thread_name"));
        assert_eq!(arr[2].get("ph").and_then(Value::as_str), Some("X"));
    }

    #[test]
    fn counter_events_render_as_ph_c() {
        let mut t = ChromeTrace::new();
        t.counter_ns("queue depth", 2000.0, 9, vec![("queued".into(), 3.0), ("busy".into(), 1.0)]);
        assert_eq!(t.len(), 0, "counters are not duration events");
        let arr = match t.to_json() {
            Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("C"));
        assert!((e.get("ts").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-12);
        let args = e.get("args").expect("counter args");
        assert_eq!(args.get("queued").and_then(Value::as_f64), Some(3.0));
        assert_eq!(args.get("busy").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn object_form_wraps_trace_events_and_extras() {
        let mut t = ChromeTrace::new();
        t.complete_ns("a", "c", 0.0, 1.0, 1, 1, json!({}));
        let obj = t.to_object_json(vec![("star".to_string(), json!({"k": 1}))]);
        let events = obj.get("traceEvents").expect("traceEvents key");
        assert_eq!(events, &t.to_json());
        assert_eq!(obj.get("star").and_then(|s| s.get("k")).and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn round_trips_through_parser() {
        let mut t = ChromeTrace::new();
        t.complete_ns("a", "c", 0.0, 1.0, 0, 0, json!({"k": 1.5}));
        let s = t.to_json_string();
        let back: Value = serde_json::from_str(&s).expect("valid JSON");
        assert_eq!(back, t.to_json());
    }
}
