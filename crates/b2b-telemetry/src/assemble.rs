//! The trace assembler: merges per-node flight recorders into per-round
//! distributed traces and exports them.
//!
//! Every traced [`TraceEvent`] carries `(trace_id, span_id, parent_span)`
//! stamped by the coordinators (ids are derived from protocol content, so
//! the same scenario yields the same ids on any fabric). [`assemble`]
//! groups events into [`DistributedTrace`]s — one per coordination round,
//! membership change or recovery — and the exporters render them as:
//!
//! - [`DistributedTrace::canonical_dag`] — a time-free structural string of
//!   the causal DAG, used to pin that the simulator and the TCP fabric
//!   reconstruct the *same* causality for the same scenario;
//! - [`DistributedTrace::ascii_timeline`] — a human-readable timeline with
//!   causal indentation;
//! - [`chrome_trace_json`] — the Chrome trace-event JSON format
//!   (`chrome://tracing` / Perfetto), with flow arrows for causal edges.

use crate::trace::TraceEvent;
use serde::json::write_str;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One causal DAG assembled across every node that took part in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedTrace {
    /// The content-derived trace id shared by all member events.
    pub trace_id: u64,
    /// Member events, sorted by `(time_ms, party, span_id, span, phase)`.
    pub events: Vec<TraceEvent>,
}

/// One span of a distributed trace: all events recorded under a span id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanInfo {
    party: String,
    parent_span: u64,
    /// Sorted unique `span/phase` labels of the member events.
    labels: BTreeSet<String>,
    first_ms: u64,
    last_ms: u64,
}

/// Groups traced events (`trace_id != 0`) into distributed traces, sorted
/// by trace id. Untraced events are ignored, which automatically excludes
/// net-layer retransmission/dedup noise from assembled traces.
pub fn assemble(events: &[TraceEvent]) -> Vec<DistributedTrace> {
    let mut by_trace: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.trace_id != 0 {
            by_trace.entry(e.trace_id).or_default().push(e.clone());
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut events)| {
            events.sort_by(|a, b| {
                (a.time_ms, &a.party, a.span_id, &a.span, &a.phase, &a.detail)
                    .cmp(&(b.time_ms, &b.party, b.span_id, &b.span, &b.phase, &b.detail))
            });
            DistributedTrace { trace_id, events }
        })
        .collect()
}

impl DistributedTrace {
    /// Per-span bookkeeping keyed by span id.
    fn spans(&self) -> BTreeMap<u64, SpanInfo> {
        let mut spans: BTreeMap<u64, SpanInfo> = BTreeMap::new();
        for e in &self.events {
            let info = spans.entry(e.span_id).or_insert_with(|| SpanInfo {
                party: e.party.clone(),
                parent_span: e.parent_span,
                labels: BTreeSet::new(),
                first_ms: e.time_ms,
                last_ms: e.time_ms,
            });
            info.labels.insert(format!("{}/{}", e.span, e.phase));
            info.first_ms = info.first_ms.min(e.time_ms);
            info.last_ms = info.last_ms.max(e.time_ms);
            if info.parent_span == 0 {
                info.parent_span = e.parent_span;
            }
        }
        spans
    }

    /// The parties that recorded at least one event, sorted.
    pub fn parties(&self) -> Vec<String> {
        let mut parties: Vec<String> = self
            .events
            .iter()
            .map(|e| e.party.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        parties.sort();
        parties
    }

    /// Renders the causal DAG as a canonical, time-free string.
    ///
    /// Each node is `party[label,…]`, children are rendered in sorted
    /// order inside `(…)`, and timestamps, span ids and details are all
    /// omitted — so two runs of the same scenario over different fabrics
    /// (different wall clocks, different locally-allocated span ids)
    /// produce byte-identical canonical DAGs as long as their *causality*
    /// matches.
    pub fn canonical_dag(&self) -> String {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots: Vec<u64> = Vec::new();
        for (id, info) in &spans {
            if info.parent_span != 0 && spans.contains_key(&info.parent_span) {
                children.entry(info.parent_span).or_default().push(*id);
            } else {
                roots.push(*id);
            }
        }
        fn render(
            id: u64,
            spans: &BTreeMap<u64, SpanInfo>,
            children: &BTreeMap<u64, Vec<u64>>,
            depth: usize,
        ) -> String {
            let info = &spans[&id];
            let labels: Vec<&str> = info.labels.iter().map(String::as_str).collect();
            let mut out = format!("{}[{}]", info.party, labels.join(","));
            // The hop counter bounds real traces; the depth guard only
            // protects the renderer against corrupt (cyclic) input.
            if depth < 64 {
                if let Some(kids) = children.get(&id) {
                    let mut rendered: Vec<String> = kids
                        .iter()
                        .map(|k| render(*k, spans, children, depth + 1))
                        .collect();
                    rendered.sort();
                    if !rendered.is_empty() {
                        let _ = write!(out, "({})", rendered.join(","));
                    }
                }
            }
            out
        }
        let mut rendered: Vec<String> = roots
            .iter()
            .map(|r| render(*r, &spans, &children, 0))
            .collect();
        rendered.sort();
        rendered.join("\n")
    }

    /// Renders a human-readable timeline: events in time order, indented
    /// by their span's causal depth from the root.
    pub fn ascii_timeline(&self) -> String {
        let spans = self.spans();
        // Depth of each span by walking parent links (bounded).
        let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
        for id in spans.keys() {
            let mut d = 0usize;
            let mut cur = *id;
            while d < 64 {
                let parent = spans.get(&cur).map(|s| s.parent_span).unwrap_or(0);
                if parent == 0 || !spans.contains_key(&parent) {
                    break;
                }
                cur = parent;
                d += 1;
            }
            depth.insert(*id, d);
        }
        let mut out = format!("trace {:016x}\n", self.trace_id);
        for e in &self.events {
            let d = depth.get(&e.span_id).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "t={:>6} {:<10} {}{}/{}{}{}",
                e.time_ms,
                e.party,
                "  ".repeat(d),
                e.span,
                e.phase,
                if e.detail.is_empty() { "" } else { " " },
                e.detail
            );
        }
        out
    }
}

/// Exports traces as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array Format" wrapped in a `traceEvents` object).
///
/// Each party becomes a process (with a `process_name` metadata event),
/// each span a `ph:"X"` complete event placed at its first event's
/// timestamp, and each causal parent→child edge a `ph:"s"` / `ph:"f"`
/// flow-event pair so the viewer draws the cross-node arrows. Timestamps
/// are microseconds (`time_ms × 1000`); everything is integer arithmetic
/// over deterministic inputs, so the output is byte-stable.
pub fn chrome_trace_json(traces: &[DistributedTrace]) -> String {
    let mut parties: BTreeSet<String> = BTreeSet::new();
    for t in traces {
        parties.extend(t.parties());
    }
    let pid_of: BTreeMap<&str, usize> = parties
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();
    let mut events: Vec<String> = Vec::new();
    for (party, pid) in &pid_of {
        let mut e = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        write_str(party, &mut e);
        e.push_str("}}");
        events.push(e);
    }
    for t in traces {
        let spans = t.spans();
        for (id, info) in &spans {
            let pid = pid_of[info.party.as_str()];
            let ts = info.first_ms * 1000;
            let dur = ((info.last_ms - info.first_ms) * 1000).max(1);
            let labels: Vec<&str> = info.labels.iter().map(String::as_str).collect();
            let name = labels
                .first()
                .and_then(|l| l.split('/').next())
                .unwrap_or("span");
            let mut e = String::from("{\"name\":");
            write_str(name, &mut e);
            let _ = write!(
                e,
                ",\"cat\":\"trace-{:016x}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{pid},\"tid\":0,\"args\":{{\"span\":\"{id:016x}\",\"phases\":",
                t.trace_id
            );
            write_str(&labels.join(","), &mut e);
            e.push_str("}}");
            events.push(e);
        }
        // Flow arrows: one start/finish pair per causal edge, identified by
        // the child span id (unique within the trace).
        for (id, info) in &spans {
            let Some(parent) = spans.get(&info.parent_span) else {
                continue;
            };
            let ppid = pid_of[parent.party.as_str()];
            let cpid = pid_of[info.party.as_str()];
            events.push(format!(
                "{{\"name\":\"causal\",\"cat\":\"trace-{:016x}\",\"ph\":\"s\",\
                 \"ts\":{},\"pid\":{ppid},\"tid\":0,\"id\":{id}}}",
                t.trace_id,
                parent.first_ms * 1000
            ));
            events.push(format!(
                "{{\"name\":\"causal\",\"cat\":\"trace-{:016x}\",\"ph\":\"f\",\
                 \"bp\":\"e\",\"ts\":{},\"pid\":{cpid},\"tid\":0,\"id\":{id}}}",
                t.trace_id,
                info.first_ms * 1000
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, party: &str, span: &str, phase: &str, ids: (u64, u64, u64)) -> TraceEvent {
        TraceEvent {
            time_ms: t,
            party: party.to_string(),
            span: span.to_string(),
            phase: phase.to_string(),
            detail: String::new(),
            trace_id: ids.0,
            span_id: ids.1,
            parent_span: ids.2,
        }
    }

    /// A two-party round: org0's root span fans out to org1 and back.
    fn sample() -> Vec<TraceEvent> {
        vec![
            ev(1, "org0", "state_run", "propose", (7, 10, 0)),
            ev(2, "org1", "state_run", "respond", (7, 20, 10)),
            ev(3, "org0", "state_run", "decide", (7, 30, 20)),
            // Untraced net noise must be excluded from assembly.
            ev(2, "org0", "net", "retransmit", (0, 0, 0)),
            // A second, unrelated trace.
            ev(5, "org1", "membership", "connect", (9, 40, 0)),
        ]
    }

    #[test]
    fn assembly_groups_by_trace_and_drops_untraced() {
        let traces = assemble(&sample());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, 7);
        assert_eq!(traces[0].events.len(), 3);
        assert_eq!(traces[1].trace_id, 9);
        assert_eq!(traces[0].parties(), vec!["org0", "org1"]);
    }

    #[test]
    fn canonical_dag_is_structural_and_time_free() {
        let traces = assemble(&sample());
        let dag = traces[0].canonical_dag();
        assert_eq!(
            dag,
            "org0[state_run/propose](org1[state_run/respond](org0[state_run/decide]))"
        );
        // Shifting every timestamp (a different fabric's clock) and
        // renaming every span id (different local allocation) leaves the
        // canonical DAG unchanged.
        let mut shifted = sample();
        for e in &mut shifted {
            e.time_ms += 1000;
            if e.span_id != 0 {
                e.span_id += 500;
            }
            if e.parent_span != 0 {
                e.parent_span += 500;
            }
        }
        let traces2 = assemble(&shifted);
        assert_eq!(traces2[0].canonical_dag(), dag);
    }

    #[test]
    fn ascii_timeline_indents_by_causal_depth() {
        let traces = assemble(&sample());
        let text = traces[0].ascii_timeline();
        assert!(text.starts_with("trace 0000000000000007"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("state_run/propose"));
        assert!(lines[2].contains("  state_run/respond"));
        assert!(lines[3].contains("    state_run/decide"));
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        // org1's name and phase carry quotes, a backslash, a newline, a
        // raw control character and non-ASCII text, so do its details
        // (which the export leaves out).
        let hostile = "o\"r\\g\n\u{1}é—名";
        let mut recorded = sample();
        for e in recorded.iter_mut().filter(|e| e.party == "org1") {
            e.party = hostile.to_string();
            e.phase = format!("respond {hostile}");
            e.detail = hostile.to_string();
        }
        let traces = assemble(&recorded);
        let json = chrome_trace_json(&traces);
        // Parse it back through the vendored JSON decoder: structurally
        // valid JSON with the required trace-event keys.
        let doc: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde::Value::Map(fields) = &doc else {
            panic!("top level must be an object");
        };
        let (_, events) = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents key");
        let serde::Value::Seq(events) = events else {
            panic!("traceEvents must be an array");
        };
        // 2 process_name metadata + 4 spans + 2 flow edges × 2 = 10.
        assert_eq!(events.len(), 10);
        let mut phases = BTreeSet::new();
        let mut args = Vec::new();
        for e in events {
            let serde::Value::Map(fields) = e else {
                panic!("each event must be an object");
            };
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let Some(serde::Value::Str(ph)) = field("ph") else {
                panic!("ph must be a string");
            };
            phases.insert(ph.clone());
            assert!(field("pid").is_some());
            if let Some(serde::Value::Map(a)) = field("args") {
                args.extend(a.iter().filter_map(|(_, v)| match v {
                    serde::Value::Str(s) => Some(s.clone()),
                    _ => None,
                }));
            }
        }
        assert_eq!(
            phases.into_iter().collect::<Vec<_>>(),
            vec!["M", "X", "f", "s"]
        );
        // The hostile strings parse back as written: the party as its
        // process name, the phase inside its span's label list.
        assert!(args.contains(&hostile.to_string()), "{args:?}");
        assert!(
            args.contains(&format!("state_run/respond {hostile}")),
            "{args:?}"
        );
        // Determinism: rendering twice gives identical bytes.
        assert_eq!(json, chrome_trace_json(&traces));
    }
}
