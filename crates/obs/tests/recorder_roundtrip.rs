//! End-to-end recorder exercises: overflow accounting under a small ring
//! and lossless JSONL round-trips of a mixed event stream through the
//! one trace parser.

use trustlite_obs::{
    parse_trace, sink, Event, ExcFrame, IpcKind, LoaderStage, ObsLevel, Recorder, SwitchEdge,
    TraceRecord,
};

/// Parses an event JSONL document with the trace-stream parser,
/// asserting every record is a plain event.
fn parse_events(doc: &str) -> Vec<Event> {
    parse_trace(doc)
        .expect("parses back")
        .into_iter()
        .map(|r| match r {
            TraceRecord::Event(e) => e,
            other => panic!("event line parsed as {other:?}"),
        })
        .collect()
}

fn mixed_stream() -> Vec<Event> {
    vec![
        Event::LoaderPhase {
            start: 0,
            phase: LoaderStage::Reset,
            ops: 1,
        },
        Event::RegsCleared {
            cycle: 10,
            count: 8,
        },
        Event::ExceptionEnter {
            cycle: 10,
            frame: Box::new(ExcFrame {
                vector: 32,
                trustlet: Some(1),
                interrupted_ip: 0x1000_0420,
                saved_sp: 0x1000_0700,
                cycles: 42,
            }),
        },
        Event::ContextSwitch {
            cycle: 52,
            edge: Box::new(SwitchEdge {
                from: "t1".into(),
                to: "os".into(),
            }),
            ip: 0x400,
        },
        Event::IpcSend {
            cycle: 60,
            from: 0xa0,
            to: 0xa1,
            kind: IpcKind::Syn,
        },
        Event::IpcRecv {
            cycle: 70,
            from: 0xa0,
            to: 0xa1,
            kind: IpcKind::Syn,
        },
        Event::ExceptionExit {
            cycle: 90,
            resumed_ip: 0x1000_0424,
            cycles: 8,
        },
    ]
}

#[test]
fn overflow_is_counted_and_surfaced() {
    let mut r = Recorder::new(ObsLevel::Events);
    r.ring.set_capacity(4);
    for e in mixed_stream() {
        r.emit(e);
    }
    assert_eq!(r.ring.len(), 4, "ring bounded at capacity");
    assert_eq!(r.ring.dropped(), 3, "evictions counted");
    // The survivors are the newest events, oldest first.
    let cycles: Vec<u64> = r.ring.iter().map(|e| e.cycle()).collect();
    assert_eq!(cycles, [52, 60, 70, 90]);
}

#[test]
fn jsonl_round_trip_preserves_every_event() {
    let events = mixed_stream();
    let doc = sink::jsonl(&events);
    assert_eq!(doc.lines().count(), events.len());
    assert_eq!(parse_events(&doc), events);
}

#[test]
fn jsonl_round_trip_through_a_recorder() {
    let mut r = Recorder::new(ObsLevel::Full);
    r.set_now(5);
    r.emit_fine(Event::InstrRetired {
        cycle: 5,
        ip: 0x40,
        word: 0x1234_5678,
        cost: 1,
    });
    for e in mixed_stream() {
        r.emit(e);
    }
    let doc = sink::jsonl(r.ring.iter());
    let original: Vec<Event> = r.ring.iter().cloned().collect();
    assert_eq!(parse_events(&doc), original);
}
