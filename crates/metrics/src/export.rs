//! Trace export for offline analysis.
//!
//! Field scientists post-process recordings in whatever environment they
//! like; this module flattens a simulation [`Trace`] into CSV so R,
//! pandas, or a spreadsheet can pick it up without Rust bindings.

use enviromic_sim::{Trace, TraceEvent};
use std::io::{self, Write};

/// The CSV header written by [`write_csv`].
pub const CSV_HEADER: &str = "t_secs,kind,node,origin,event,t0_secs,t1_secs,bytes,extra";

fn esc(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Writes the trace as CSV rows, one per event.
///
/// Columns: event time, record kind, acting node, data origin (when the
/// record concerns stored audio), event/file ID, interval bounds, byte
/// counts, and a kind-specific `extra` field (message kind, drop reason,
/// migration peer…). Missing fields are empty.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_csv<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    writeln!(out, "{CSV_HEADER}")?;
    for e in trace.iter() {
        let t = e.time().as_secs_f64();
        let row = match e {
            TraceEvent::Recorded {
                node,
                event,
                t0,
                t1,
                bytes,
                kind,
            } => format!(
                "{t:.4},recorded,{},{},{},{:.4},{:.4},{},{:?}",
                node.0,
                node.0,
                event.map(|e| e.to_string()).unwrap_or_default(),
                t0.as_secs_f64(),
                t1.as_secs_f64(),
                bytes,
                kind
            ),
            TraceEvent::RecordDropped {
                node,
                t0,
                t1,
                reason,
            } => format!(
                "{t:.4},dropped,{},,,{:.4},{:.4},,{:?}",
                node.0,
                t0.as_secs_f64(),
                t1.as_secs_f64(),
                reason
            ),
            TraceEvent::Erased {
                node,
                t0,
                t1,
                bytes,
            } => format!(
                "{t:.4},erased,{},,,{:.4},{:.4},{},",
                node.0,
                t0.as_secs_f64(),
                t1.as_secs_f64(),
                bytes
            ),
            TraceEvent::MessageSent {
                node, kind, bytes, ..
            } => format!(
                "{t:.4},message,{},,,,,{},{}",
                node.0,
                bytes,
                esc(kind.label())
            ),
            TraceEvent::ChunkStored {
                node,
                origin,
                event,
                audio_t0,
                audio_t1,
                bytes,
                ..
            } => format!(
                "{t:.4},chunk_stored,{},{},{},{:.4},{:.4},{},",
                node.0,
                origin.0,
                event.map(|e| e.to_string()).unwrap_or_default(),
                audio_t0.as_secs_f64(),
                audio_t1.as_secs_f64(),
                bytes
            ),
            TraceEvent::ChunkRemoved {
                node,
                origin,
                audio_t0,
                audio_t1,
                ..
            } => format!(
                "{t:.4},chunk_removed,{},{},,{:.4},{:.4},,",
                node.0,
                origin.0,
                audio_t0.as_secs_f64(),
                audio_t1.as_secs_f64()
            ),
            TraceEvent::Migrated {
                from,
                to,
                chunks,
                bytes,
                duplicated,
                ..
            } => format!(
                "{t:.4},migrated,{},,,,,{},to={} chunks={} duplicated={}",
                from.0, bytes, to.0, chunks, duplicated
            ),
            TraceEvent::LeaderElected {
                node,
                event,
                handoff,
                ..
            } => format!("{t:.4},leader,{},,{},,,,handoff={}", node.0, event, handoff),
            TraceEvent::Occupancy {
                node,
                used,
                capacity,
                ..
            } => format!(
                "{t:.4},occupancy,{},,,,,{},capacity={}",
                node.0, used, capacity
            ),
            TraceEvent::SourceStarted { source, .. } => {
                format!("{t:.4},source_started,,,,,,,{source}")
            }
            TraceEvent::SourceStopped { source, .. } => {
                format!("{t:.4},source_stopped,,,,,,,{source}")
            }
            TraceEvent::FaultInjected { kind, node, .. } => format!(
                "{t:.4},fault,{},,,,,,{}",
                node.map(|n| n.0.to_string()).unwrap_or_default(),
                esc(kind.label())
            ),
        };
        writeln!(out, "{row}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use enviromic_sim::RecordKind;
    use enviromic_types::{EventId, MsgKind, NodeId, SimTime};

    fn t(secs: f64) -> SimTime {
        SimTime::from_jiffies((secs * 32_768.0) as u64)
    }

    #[test]
    fn csv_has_header_and_one_row_per_event() {
        let trace: Trace = vec![
            TraceEvent::Recorded {
                node: NodeId(3),
                event: Some(EventId::new(NodeId(1), 7)),
                t0: t(1.0),
                t1: t(2.0),
                bytes: 2730,
                kind: RecordKind::Task,
            },
            TraceEvent::MessageSent {
                node: NodeId(4),
                kind: MsgKind::Sensing,
                bytes: 12,
                t: t(1.5),
            },
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].contains("recorded"));
        assert!(lines[1].contains("evt-1.7"));
        assert!(lines[2].contains("SENSING"));
        // Every row has the same number of commas as the header.
        let commas = |s: &str| s.matches(',').count();
        for l in &lines[1..] {
            assert_eq!(commas(l), commas(CSV_HEADER), "ragged row: {l}");
        }
    }

    #[test]
    fn all_variants_export_without_panicking() {
        use enviromic_sim::acoustics::SourceId;
        use enviromic_sim::{DropReason, FaultKind};
        let trace: Trace = vec![
            TraceEvent::RecordDropped {
                node: NodeId(0),
                t0: t(0.0),
                t1: t(1.0),
                reason: DropReason::StorageFull,
            },
            TraceEvent::Erased {
                node: NodeId(0),
                t0: t(0.0),
                t1: t(1.0),
                bytes: 10,
            },
            TraceEvent::ChunkStored {
                node: NodeId(0),
                origin: NodeId(1),
                event: None,
                audio_t0: t(0.0),
                audio_t1: t(0.1),
                bytes: 232,
                t: t(0.1),
            },
            TraceEvent::ChunkRemoved {
                node: NodeId(0),
                origin: NodeId(1),
                audio_t0: t(0.0),
                audio_t1: t(0.1),
                t: t(0.2),
            },
            TraceEvent::Migrated {
                from: NodeId(0),
                to: NodeId(1),
                chunks: 4,
                bytes: 928,
                duplicated: true,
                t: t(0.3),
            },
            TraceEvent::LeaderElected {
                node: NodeId(2),
                event: EventId::new(NodeId(2), 1),
                handoff: false,
                t: t(0.4),
            },
            TraceEvent::Occupancy {
                node: NodeId(0),
                used: 5,
                capacity: 10,
                t: t(0.5),
            },
            TraceEvent::SourceStarted {
                source: SourceId(9),
                t: t(0.6),
            },
            TraceEvent::SourceStopped {
                source: SourceId(9),
                t: t(0.7),
            },
            TraceEvent::FaultInjected {
                kind: FaultKind::BlackoutStart,
                node: None,
                t: t(0.8),
            },
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 11);
        assert!(text.ends_with(",fault,,,,,,,BLACKOUT_START\n"), "{text}");
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
