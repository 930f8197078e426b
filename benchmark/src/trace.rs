//! Outside-in spans: recorded by the benchmark around its own calls into a
//! layer, kept in memory, written as Chrome-trace JSON when the run ends.
//! Spans inside the crates are a later issue.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's buffer.
    pub parent: Option<u32>,
    /// Shared by every span of one client operation.
    pub op: u64,
}

/// Switch shared by every thread's [`SpanBuf`]; the main thread flips it at
/// slice boundaries of a traced run.
#[derive(Clone)]
pub struct TraceSwitch {
    on: Arc<AtomicBool>,
    t0: Instant,
}

impl TraceSwitch {
    pub fn new(t0: Instant) -> TraceSwitch {
        TraceSwitch {
            on: Arc::new(AtomicBool::new(false)),
            t0,
        }
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn buf(&self, thread: u32) -> SpanBuf {
        SpanBuf {
            switch: self.clone(),
            thread,
            spans: Vec::new(),
        }
    }
}

/// One thread's span buffer.
pub struct SpanBuf {
    switch: TraceSwitch,
    pub thread: u32,
    pub spans: Vec<Span>,
}

/// An open span; `None` inside when tracing is off.
pub struct Open(Option<u32>);

impl Open {
    pub fn id(&self) -> Option<u32> {
        self.0
    }
}

impl SpanBuf {
    fn now_ns(&self) -> u64 {
        self.switch.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> Open {
        if !self.switch.on.load(Ordering::Relaxed) {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Open(Some(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open);
        out
    }
}

/// Per span name: `(count, total µs, self µs)`. Self time is a span's
/// duration minus what its children cover.
pub fn self_times(bufs: &[SpanBuf]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut by_name: HashMap<&'static str, (u64, f64, f64)> = HashMap::new();
    for buf in bufs {
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in buf.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e3;
            e.2 += total.saturating_sub(kids) as f64 / 1e3;
        }
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    rows
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event per
/// span, `args` carrying the op id and the parent's index.
pub fn chrome_json(bufs: &[SpanBuf]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                buf.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_self_time_subtracts_children() {
        let switch = TraceSwitch::new(Instant::now());
        let mut buf = switch.buf(0);
        let o = buf.open("op.write", None, 1);
        assert!(o.id().is_none());
        buf.close(o);
        assert!(buf.spans.is_empty());

        switch.set(true);
        let root = buf.open("op.write", None, 2);
        buf.within("http.post", root.id(), 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.close(root);
        let rows = self_times(&[buf]);
        let (_, n, total, own) = rows.iter().find(|r| r.0 == "op.write").unwrap();
        assert_eq!(*n, 1);
        assert!(*own < *total && *total >= 2_000.0);
    }

    #[test]
    fn chrome_json_parses() {
        let switch = TraceSwitch::new(Instant::now());
        switch.set(true);
        let mut buf = switch.buf(3);
        buf.within("setup.start", None, 0, || ());
        let v: serde::Value = serde_json::from_str(&chrome_json(&[buf])).unwrap();
        assert!(v.as_map().is_some());
    }
}
