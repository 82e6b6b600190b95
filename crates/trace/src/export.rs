//! Chrome trace-event JSON rendering.
//!
//! The exporter walks the recorded state in deterministic (BTreeMap /
//! insertion) order and formats all numbers explicitly, so the same run
//! always produces byte-identical output.

use std::fmt::Write as _;

use crate::State;

/// Escapes `s` as a JSON string literal (quotes included).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Virtual ns -> trace-event microseconds (fractional).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

struct EventList {
    out: String,
    first: bool,
}

impl EventList {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
        }
    }

    fn push(&mut self, event: String) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(&event);
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Renders the full recorded state as Chrome trace-event JSON.
///
/// Layout: one trace process per simulated node. Track 0 carries message
/// instants and flow arrows, track 1 the protocol-cost spans, track 2 the
/// fetch and sync-wait spans. Cross-node message causality is expressed
/// with `s`/`f` flow events joining the sender's transmission instant to
/// the receiver's in-order delivery instant.
pub(crate) fn chrome_trace(st: &State) -> String {
    let mut ev = EventList::new();
    for node in 0..st.n_nodes {
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"node {node}\"}}}}"
        ));
        for (tid, name) in [(0, "net"), (1, "cost"), (2, "waits")] {
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
    }
    // Flows: a tx instant on the sender, an rx instant on the receiver,
    // joined by an s/f flow arrow. Flow ids must be unique per arrow; the
    // BTreeMap iteration index is stable across runs.
    for (id, flow) in st.flows.values().enumerate() {
        let label = flow.label();
        let Some(sent) = flow.msg_at.or(flow.sent_at) else {
            continue;
        };
        let name = match flow.handler {
            Some(h) => format!("{label} h{h:#x} n{}->n{}", flow.key.src, flow.key.dst),
            None => format!("{label} n{}->n{}", flow.key.src, flow.key.dst),
        };
        let args = format!(
            "{{\"seq\":{},\"bytes\":{},\"retransmits\":{},\"drops\":{}}}",
            flow.key.seq, flow.bytes, flow.retransmits, flow.drops
        );
        ev.push(format!(
            "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"s\":\"t\",\"cat\":\"net\",\
             \"name\":{},\"ts\":{},\"args\":{}}}",
            flow.key.src,
            json_string(&format!("tx {name}")),
            us(sent),
            args
        ));
        let Some(recv) = flow.ready_at.or(flow.delivered_at) else {
            continue;
        };
        ev.push(format!(
            "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"s\":\"t\",\"cat\":\"net\",\
             \"name\":{},\"ts\":{},\"args\":{}}}",
            flow.key.dst,
            json_string(&format!("rx {name}")),
            us(recv),
            args
        ));
        if flow.key.src != flow.key.dst {
            ev.push(format!(
                "{{\"ph\":\"s\",\"pid\":{},\"tid\":0,\"cat\":\"net\",\"id\":{id},\
                 \"name\":{},\"ts\":{}}}",
                flow.key.src,
                json_string(label),
                us(sent)
            ));
            ev.push(format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":0,\"cat\":\"net\",\
                 \"id\":{id},\"name\":{},\"ts\":{}}}",
                flow.key.dst,
                json_string(label),
                us(recv)
            ));
        }
    }
    for span in &st.spans {
        let tid = if span.cat == "cost" { 1 } else { 2 };
        ev.push(format!(
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"cat\":{},\"name\":{},\
             \"ts\":{},\"dur\":{}}}",
            span.node,
            json_string(span.cat),
            json_string(&span.name),
            us(span.start),
            us(span.end - span.start)
        ));
    }
    for inst in &st.instants {
        ev.push(format!(
            "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"s\":\"t\",\"cat\":{},\
             \"name\":{},\"ts\":{}}}",
            inst.node,
            json_string(inst.cat),
            json_string(&inst.name),
            us(inst.at)
        ));
    }
    ev.finish()
}
