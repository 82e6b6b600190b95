//! Chrome trace-event JSON and Graphviz DOT rendering.
//!
//! Both exporters walk the recorded state in deterministic (BTreeMap /
//! insertion) order and format all numbers explicitly, so the same run
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

/// Renders the causal message graph in Graphviz DOT.
///
/// Each completed flow contributes a send vertex on the sender and a
/// receive vertex on the receiver, joined by a wire edge labelled with the
/// flow's class and latency. Vertices on the same simulated node are
/// chained in virtual-time order (program order), so the rendered graph is
/// the run's happens-before skeleton.
pub(crate) fn dot_graph(st: &State) -> String {
    let mut out = String::from("digraph carlos_trace {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n");
    // (node, time, vertex-id) for program-order chaining.
    let mut per_node: Vec<Vec<(u64, String)>> = vec![Vec::new(); st.n_nodes];
    let mut edges = String::new();
    for flow in st.flows.values() {
        let (Some(sent), Some(recv)) = (flow.msg_at.or(flow.sent_at), flow.ready_at) else {
            continue;
        };
        let k = flow.key;
        let tx = format!("tx_{}_{}_{}", k.src, k.dst, k.seq);
        let rx = format!("rx_{}_{}_{}", k.src, k.dst, k.seq);
        let _ = writeln!(
            out,
            "  {tx} [label=\"n{} tx {} seq={}\\n@{}us\"];",
            k.src,
            flow.label(),
            k.seq,
            sent / 1000
        );
        let _ = writeln!(
            out,
            "  {rx} [label=\"n{} rx {} seq={}\\n@{}us\"];",
            k.dst,
            flow.label(),
            k.seq,
            recv / 1000
        );
        let _ = writeln!(
            edges,
            "  {tx} -> {rx} [label=\"{}us{}\"];",
            recv.saturating_sub(sent) / 1000,
            if flow.retransmits > 0 {
                format!(" ({}rtx)", flow.retransmits)
            } else {
                String::new()
            }
        );
        if (k.src as usize) < per_node.len() {
            per_node[k.src as usize].push((sent, tx));
        }
        if (k.dst as usize) < per_node.len() {
            per_node[k.dst as usize].push((recv, rx));
        }
    }
    // Program order: stable sort by time keeps equal-time vertices in flow
    // order, which is itself deterministic.
    for events in &mut per_node {
        events.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for pair in events.windows(2) {
            let _ = writeln!(
                edges,
                "  {} -> {} [style=dashed,color=gray];",
                pair[0].1, pair[1].1
            );
        }
    }
    out.push_str(&edges);
    out.push_str("}\n");
    out
}
