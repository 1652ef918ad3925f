//! Exporters for recorded event streams: JSON lines (one event per line,
//! matching the bench binary's hand-rolled style) and the Chrome
//! trace-event format understood by Perfetto / `chrome://tracing`.

use super::Event;

/// Escape `s` as a JSON string literal (with quotes).
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a JSON value: non-finite values become `null`
/// (JSON has no Infinity/NaN), integral values keep a `.0` suffix so the
/// type is stable across exports.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{}", v);
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{}.0", s)
    }
}

/// One event as a single-line JSON object with a `"kind"` discriminator.
pub fn json_line(ev: &Event) -> String {
    match ev {
        Event::KernelRun { end_ns, events } => format!(
            "{{\"kind\":\"kernel_run\",\"end_ns\":{},\"events\":{}}}",
            end_ns, events
        ),
        Event::TcpSample {
            channel,
            t_ns,
            cwnd,
            ssthresh,
            phase,
            outcome,
        } => format!(
            "{{\"kind\":\"tcp_sample\",\"channel\":{},\"t_ns\":{},\"cwnd\":{},\
             \"ssthresh\":{},\"phase\":{},\"outcome\":{}}}",
            channel,
            t_ns,
            cwnd,
            json_f64(*ssthresh),
            json_string(phase),
            json_string(outcome)
        ),
        Event::FlowStart {
            channel,
            t_ns,
            bytes,
            queued,
        } => format!(
            "{{\"kind\":\"flow_start\",\"channel\":{},\"t_ns\":{},\"bytes\":{},\"queued\":{}}}",
            channel, t_ns, bytes, queued
        ),
        Event::FlowFinish {
            channel,
            t_ns,
            bytes,
        } => format!(
            "{{\"kind\":\"flow_finish\",\"channel\":{},\"t_ns\":{},\"bytes\":{}}}",
            channel, t_ns, bytes
        ),
        Event::LinkSample {
            link,
            t_ns,
            delivered_bytes,
        } => format!(
            "{{\"kind\":\"link_sample\",\"link\":{},\"t_ns\":{},\"delivered_bytes\":{}}}",
            link,
            t_ns,
            json_f64(*delivered_bytes)
        ),
        Event::MpiSpan {
            rank,
            op,
            peer,
            bytes,
            start_ns,
            end_ns,
            msg_id,
        } => format!(
            "{{\"kind\":\"mpi_span\",\"rank\":{},\"op\":{},\"peer\":{},\"bytes\":{},\
             \"start_ns\":{},\"end_ns\":{},\"msg_id\":{}}}",
            rank,
            json_string(op),
            peer,
            bytes,
            start_ns,
            end_ns,
            msg_id
        ),
        Event::Phase { rank, name, t_ns } => format!(
            "{{\"kind\":\"phase\",\"rank\":{},\"name\":{},\"t_ns\":{}}}",
            rank,
            json_string(name),
            t_ns
        ),
        Event::Fault {
            kind,
            subject,
            t_ns,
            info,
        } => format!(
            "{{\"kind\":\"fault\",\"fault\":{},\"subject\":{},\"t_ns\":{},\"info\":{}}}",
            json_string(kind),
            subject,
            t_ns,
            json_f64(*info)
        ),
    }
}

/// The whole stream as JSON lines, one event per line, trailing newline.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&json_line(ev));
        out.push('\n');
    }
    out
}

/// Virtual-time ns → Chrome trace microseconds (fractional µs keep
/// sub-microsecond resolution).
fn us(ns: u64) -> String {
    json_f64(ns as f64 / 1000.0)
}

/// Process ids used to group rows in the trace viewer.
const PID_RANKS: u32 = 1;
const PID_CHANNELS: u32 = 2;
const PID_LINKS: u32 = 3;
const PID_FAULTS: u32 = 4;

fn meta_process(pid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        pid,
        json_string(name)
    )
}

fn meta_thread(pid: u32, tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
        pid,
        tid,
        json_string(name)
    )
}

/// Render a recorded event stream as a Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`), loadable in Perfetto / `chrome://tracing`.
///
/// Layout: process "ranks" has one row (thread) per MPI rank carrying the
/// operation spans and phase instants; process "channels" has one row per
/// channel with flow spans plus a `cwnd[ch..]` counter track fed by the
/// TCP samples; process "links" carries one `link[..] delivered` counter
/// track per directed link.
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_with_drops(events, 0)
}

/// [`chrome_trace`], annotated with how many events the recording ring
/// dropped before export (`RingSink::dropped`). A non-zero count appears
/// as a top-level `"droppedEvents"` key — Chrome's format ignores unknown
/// top-level keys, and `repro validate` warns when it sees one — so a
/// truncated recording can never silently pass for a complete one.
pub fn chrome_trace_with_drops(events: &[Event], dropped: u64) -> String {
    let mut rows: Vec<String> = Vec::new();
    let mut rank_rows: Vec<u64> = Vec::new();
    let mut chan_rows: Vec<u64> = Vec::new();
    // Flow spans are reconstructed by matching starts to finishes FIFO
    // per channel: the flow model drains one transfer at a time per
    // channel, so the earliest unmatched start is the one finishing.
    let mut open_starts: Vec<(u64, u64, u64)> = Vec::new(); // (channel, t_ns, bytes)

    let seen_rank = |rows: &mut Vec<String>, rank_rows: &mut Vec<u64>, rank: u64| {
        if !rank_rows.contains(&rank) {
            rank_rows.push(rank);
            rows.push(meta_thread(PID_RANKS, rank, &format!("rank {}", rank)));
        }
    };
    let seen_chan = |rows: &mut Vec<String>, chan_rows: &mut Vec<u64>, ch: u64| {
        if !chan_rows.contains(&ch) {
            chan_rows.push(ch);
            rows.push(meta_thread(PID_CHANNELS, ch, &format!("channel {}", ch)));
        }
    };

    rows.push(meta_process(PID_RANKS, "ranks"));
    rows.push(meta_process(PID_CHANNELS, "channels"));
    rows.push(meta_process(PID_LINKS, "links"));
    if events.iter().any(|e| matches!(e, Event::Fault { .. })) {
        rows.push(meta_process(PID_FAULTS, "faults"));
        rows.push(meta_thread(PID_FAULTS, 0, "fault injector"));
    }

    for ev in events {
        match ev {
            Event::MpiSpan {
                rank,
                op,
                peer,
                bytes,
                start_ns,
                end_ns,
                msg_id,
            } => {
                seen_rank(&mut rows, &mut rank_rows, *rank);
                let dur_ns = end_ns.saturating_sub(*start_ns);
                rows.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":{},\"cat\":\"mpi_span\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"peer\":{},\"bytes\":{},\"msg_id\":{}}}}}",
                    PID_RANKS,
                    rank,
                    json_string(op),
                    us(*start_ns),
                    us(dur_ns),
                    peer,
                    bytes,
                    msg_id
                ));
            }
            Event::Phase { rank, name, t_ns } => {
                seen_rank(&mut rows, &mut rank_rows, *rank);
                rows.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"name\":{},\"ts\":{},\"s\":\"t\"}}",
                    PID_RANKS,
                    rank,
                    json_string(name),
                    us(*t_ns)
                ));
            }
            Event::TcpSample {
                channel,
                t_ns,
                cwnd,
                ..
            } => {
                seen_chan(&mut rows, &mut chan_rows, *channel);
                rows.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{},\"tid\":{},\"name\":\"cwnd[ch{}]\",\"ts\":{},\
                     \"args\":{{\"cwnd\":{}}}}}",
                    PID_CHANNELS,
                    channel,
                    channel,
                    us(*t_ns),
                    cwnd
                ));
            }
            Event::FlowStart {
                channel,
                t_ns,
                bytes,
                ..
            } => {
                seen_chan(&mut rows, &mut chan_rows, *channel);
                open_starts.push((*channel, *t_ns, *bytes));
            }
            Event::FlowFinish {
                channel,
                t_ns,
                bytes,
            } => {
                seen_chan(&mut rows, &mut chan_rows, *channel);
                let start = open_starts
                    .iter()
                    .position(|(c, _, _)| c == channel)
                    .map(|i| open_starts.remove(i));
                let (start_ns, span_bytes) = match start {
                    Some((_, s, b)) => (s, b),
                    None => (*t_ns, *bytes),
                };
                rows.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"flow {} B\",\"ts\":{},\
                     \"dur\":{},\"args\":{{\"bytes\":{}}}}}",
                    PID_CHANNELS,
                    channel,
                    span_bytes,
                    us(start_ns),
                    us(t_ns.saturating_sub(start_ns)),
                    bytes
                ));
            }
            Event::LinkSample {
                link,
                t_ns,
                delivered_bytes,
            } => {
                rows.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{},\"tid\":{},\"name\":\"link[{}] delivered\",\
                     \"ts\":{},\"args\":{{\"bytes\":{}}}}}",
                    PID_LINKS,
                    link,
                    link,
                    us(*t_ns),
                    json_f64(*delivered_bytes)
                ));
            }
            Event::KernelRun { end_ns, events } => {
                rows.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"name\":\"run end ({} events)\",\
                     \"ts\":{},\"s\":\"g\"}}",
                    PID_RANKS,
                    events,
                    us(*end_ns)
                ));
            }
            Event::Fault {
                kind,
                subject,
                t_ns,
                info,
            } => {
                rows.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"name\":\"{} #{}\",\"ts\":{},\
                     \"s\":\"p\",\"args\":{{\"info\":{}}}}}",
                    PID_FAULTS,
                    kind,
                    subject,
                    us(*t_ns),
                    json_f64(*info)
                ));
            }
        }
    }

    let mut out = String::from("{\"traceEvents\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(row);
    }
    out.push_str("\n]");
    if dropped > 0 {
        out.push_str(&format!(",\"droppedEvents\":{}", dropped));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::FlowStart {
                channel: 0,
                t_ns: 0,
                bytes: 1024,
                queued: 0,
            },
            Event::TcpSample {
                channel: 0,
                t_ns: 100_000,
                cwnd: 2920,
                ssthresh: f64::INFINITY,
                phase: "slow_start",
                outcome: "progress",
            },
            Event::FlowFinish {
                channel: 0,
                t_ns: 200_000,
                bytes: 1024,
            },
            Event::LinkSample {
                link: 3,
                t_ns: 200_000,
                delivered_bytes: 1024.0,
            },
            Event::MpiSpan {
                rank: 1,
                op: "send",
                peer: 0,
                bytes: 1024,
                start_ns: 0,
                end_ns: 200_000,
                msg_id: 7,
            },
            Event::Phase {
                rank: 1,
                name: "timed",
                t_ns: 200_000,
            },
            Event::KernelRun {
                end_ns: 200_000,
                events: 42,
            },
            Event::Fault {
                kind: "link_down",
                subject: 3,
                t_ns: 150_000,
                info: 0.25,
            },
        ]
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let text = jsonl(&sample_events());
        for line in text.lines() {
            crate::obs::json::validate(line).expect("each line must parse");
        }
        assert!(text.contains("\"ssthresh\":null"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rows() {
        let doc = chrome_trace(&sample_events());
        crate::obs::json::validate(&doc).expect("trace must parse");
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("cwnd[ch0]"));
        assert!(doc.contains("link[3] delivered"));
        assert!(doc.contains("\"rank 1\""));
        // Flow span matched start→finish: dur = 200 µs.
        assert!(doc.contains("\"dur\":200.0"));
        // Fault instants land on their own process row.
        assert!(doc.contains("\"fault injector\""));
        assert!(doc.contains("link_down #3"));
    }

    #[test]
    fn chrome_trace_surfaces_ring_drops() {
        // Overflow a two-slot ring: only the newest two events survive,
        // and the exporter must say how many were lost.
        let sink = crate::obs::RingSink::new(2);
        for ev in sample_events() {
            use crate::obs::Recorder as _;
            sink.record(&ev);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), sample_events().len() as u64 - 2);
        let doc = chrome_trace_with_drops(&sink.events(), sink.dropped());
        crate::obs::json::validate(&doc).expect("trace must parse");
        assert!(doc.contains(&format!("\"droppedEvents\":{}", sink.dropped())));
        // A complete recording carries no such key at all.
        assert!(!chrome_trace(&sample_events()).contains("droppedEvents"));
    }

    #[test]
    fn json_f64_edge_cases() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
