//! Trace exports: Chrome `trace_event` JSON and flamegraph-folded text.
//!
//! Both exports cover **kept traces only** — the set whose root `request`
//! span carries [`flags::KEPT`] after tail sampling — so
//! the output is the interesting tail, not the firehose.
//!
//! * [`chrome_trace`] emits the Trace Event Format understood by
//!   `chrome://tracing` and Perfetto: one complete event (`"ph": "X"`) per
//!   span, timestamps/durations in microseconds, the trace id as `pid` (so
//!   each request groups into its own track), the recording ring's index as
//!   `tid`, and span attributes under `args`.
//! * [`folded`] emits flamegraph-folded lines (`stack;frames count`) with a
//!   synthetic stack from [`SpanName::folded_parent`]: pipeline stages nest
//!   under `solve`, everything else under `request`; counts are self-time
//!   microseconds (a stack's total minus its direct children's totals, floored
//!   at zero), so a flamegraph tool that sums frames counts each microsecond
//!   once. Feed to `inferno`/`flamegraph.pl`.

use std::collections::HashSet;
use std::fmt::Write as _;

use taxi_bench::json::{JsonArray, JsonObject, JsonValue};

use crate::{flags, Span, SpanName, TraceId, Tracer};

/// Collects resident spans and the kept-trace id set.
fn kept_spans(tracer: &Tracer) -> (Vec<(String, Vec<Span>)>, HashSet<u64>) {
    let rings = tracer.spans();
    let mut kept = HashSet::new();
    for (_, spans) in &rings {
        for span in spans {
            if span.name == SpanName::Request && span.kept() {
                kept.insert(span.trace.as_u64());
            }
        }
    }
    (rings, kept)
}

/// Renders every kept trace as Chrome `trace_event` JSON (see module docs).
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(tracer: &Tracer) -> String {
    let (rings, kept) = kept_spans(tracer);
    let mut events = JsonArray::new();
    for (ring_index, (label, spans)) in rings.iter().enumerate() {
        for span in spans {
            if span.trace == TraceId::NONE || !kept.contains(&span.trace.as_u64()) {
                continue;
            }
            let mut args = JsonObject::new().str("ring", label);
            for &(key, value) in span.attrs() {
                args = args.uint(key.label(), value);
            }
            if span.name == SpanName::Request {
                args = args
                    .bool("kept", span.kept())
                    .bool("failed", span.flags & flags::FAILED != 0)
                    .bool("shed", span.flags & flags::SHED != 0)
                    .bool("deadline_missed", span.flags & flags::DEADLINE_MISS != 0);
            }
            events = events.push_object(
                JsonObject::new()
                    .str("name", span.name.label())
                    .str("ph", "X")
                    .num("ts", span.start.as_nanos() as f64 / 1_000.0, 3)
                    .num("dur", span.duration.as_nanos() as f64 / 1_000.0, 3)
                    .uint("pid", span.trace.as_u64())
                    .uint("tid", ring_index as u64)
                    .object("args", args),
            );
        }
    }
    JsonObject::new()
        .array("traceEvents", events)
        .str("displayTimeUnit", "ms")
        .field(
            "otherData",
            JsonValue::Object(
                JsonObject::new()
                    .uint("kept_traces", kept.len() as u64)
                    .str("source", "taxi-trace"),
            ),
        )
        .render()
}

/// Renders kept traces as flamegraph-folded text: one `stack count` line per
/// distinct stack, counts in self-time microseconds (see module docs).
pub fn folded(tracer: &Tracer) -> String {
    let (rings, kept) = kept_spans(tracer);
    // Aggregate µs per synthetic stack. The stack space is tiny (one path per
    // span name), so a linear-scan Vec keeps ordering deterministic.
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (_, spans) in &rings {
        for span in spans {
            if span.trace == TraceId::NONE || !kept.contains(&span.trace.as_u64()) {
                continue;
            }
            let mut frames = vec![span.name.label()];
            let mut cursor = span.name;
            while let Some(parent) = cursor.folded_parent() {
                frames.push(parent.label());
                cursor = parent;
            }
            frames.reverse();
            let stack = frames.join(";");
            let us = (span.duration.as_nanos() / 1_000).min(u128::from(u64::MAX)) as u64;
            match totals.iter_mut().find(|(s, _)| *s == stack) {
                Some((_, total)) => *total = total.saturating_add(us),
                None => totals.push((stack, us)),
            }
        }
    }
    totals.sort();
    let mut out = String::new();
    for (stack, us) in &totals {
        let children = totals
            .iter()
            .filter(|(child, _)| {
                child
                    .strip_prefix(stack.as_str())
                    .and_then(|rest| rest.strip_prefix(';'))
                    .is_some_and(|frame| !frame.contains(';'))
            })
            .fold(0u64, |sum, (_, child_us)| sum.saturating_add(*child_us));
        let _ = writeln!(out, "{stack} {}", us.saturating_sub(children));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrKey, RequestFacts, TraceConfig};
    use std::time::{Duration, Instant};

    fn traced() -> Tracer {
        let tracer = Tracer::new(TraceConfig::new().with_keep_probability(0.0));
        let sink = tracer.register("worker-0");
        let start = Instant::now();

        // Kept trace: deadline miss.
        let kept = tracer.mint();
        sink.record(
            kept,
            SpanName::Solve,
            start,
            Duration::from_micros(500),
            &[(AttrKey::Backend, 1)],
        );
        sink.record(
            kept,
            SpanName::StageCluster,
            start,
            Duration::from_micros(120),
            &[],
        );
        tracer.finish(
            kept,
            start,
            &RequestFacts::completed(Duration::from_micros(700)).deadline_missed(),
            &[(AttrKey::Shard, 2)],
        );

        // Dropped trace: fast and healthy at keep probability zero.
        let dropped = tracer.mint();
        sink.record(
            dropped,
            SpanName::Solve,
            start,
            Duration::from_micros(10),
            &[],
        );
        tracer.finish(
            dropped,
            start,
            &RequestFacts::completed(Duration::from_micros(20)),
            &[],
        );
        tracer
    }

    #[test]
    fn chrome_trace_exports_only_kept_traces() {
        let tracer = traced();
        let out = chrome_trace(&tracer);
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"solve\""));
        assert!(out.contains("\"stage_cluster\""));
        assert!(out.contains("\"deadline_missed\": true"));
        assert!(out.contains("\"shard\": 2"));
        assert!(out.contains("\"kept_traces\": 1"));
        // The dropped trace (pid 2) must be absent.
        assert!(!out.contains("\"pid\": 2"));
    }

    #[test]
    fn folded_nests_stages_under_solve() {
        let tracer = traced();
        let out = folded(&tracer);
        // Self-time: request 700 - solve 500, solve 500 - stage_cluster 120.
        assert!(out.contains("request;solve;stage_cluster 120\n"), "{out}");
        assert!(out.contains("request;solve 380\n"), "{out}");
        assert!(out.contains("request 200\n"), "{out}");
        // Exactly the kept trace's spans: 3 lines.
        assert_eq!(out.lines().count(), 3, "{out}");
    }

    #[test]
    fn exports_are_empty_when_nothing_is_kept() {
        let tracer = Tracer::new(TraceConfig::new().with_keep_probability(0.0));
        let sink = tracer.register("w");
        let id = tracer.mint();
        sink.record(id, SpanName::Solve, Instant::now(), Duration::ZERO, &[]);
        tracer.finish(
            id,
            Instant::now(),
            &RequestFacts::completed(Duration::ZERO),
            &[],
        );
        assert!(chrome_trace(&tracer).contains("\"traceEvents\": []"));
        assert!(folded(&tracer).is_empty());
    }
}
