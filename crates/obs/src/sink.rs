//! Event sinks: render a recorded event stream as human-readable text,
//! JSON Lines, or a Chrome `trace_event` file loadable in
//! `chrome://tracing` / Perfetto. Event JSON Lines is a valid fleet trace
//! stream without a meta line, so [`crate::trace::parse_trace`] reads it
//! back (every record a [`crate::TraceRecord::Event`]).

use std::fmt::Write as _;

use crate::event::{AccessClass, Event, ExcFrame, IpcKind, LoaderStage, SwitchEdge, Verdict};
use crate::json::{self, Json};

// --- text ---------------------------------------------------------------

/// Renders events as one human-readable line each, oldest first.
/// Instruction words are disassembled via `trustlite-isa`.
pub fn text<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        let _ = match e {
            Event::InstrRetired {
                cycle,
                ip,
                word,
                cost,
            } => writeln!(
                out,
                "[{cycle:>10}] instr      {ip:08x}  {:<28} (+{cost})",
                trustlite_isa::disassemble(*word)
            ),
            Event::MpuCheck {
                cycle,
                subject,
                addr,
                kind,
                verdict,
            } => writeln!(
                out,
                "[{cycle:>10}] mpu-check  subject={subject:08x} addr={addr:08x} {kind} -> {verdict}"
            ),
            Event::MpuFault {
                cycle,
                ip,
                addr,
                kind,
            } => writeln!(
                out,
                "[{cycle:>10}] MPU-FAULT  ip={ip:08x} addr={addr:08x} {kind}"
            ),
            Event::ExceptionEnter { cycle, frame } => {
                let ExcFrame {
                    vector,
                    trustlet,
                    interrupted_ip,
                    saved_sp,
                    cycles,
                } = &**frame;
                match trustlet {
                    Some(t) => writeln!(
                        out,
                        "[{cycle:>10}] exc-enter  vec={vector} trustlet={t} ip={interrupted_ip:08x} saved_sp={saved_sp:08x} (+{cycles})"
                    ),
                    None => writeln!(
                        out,
                        "[{cycle:>10}] exc-enter  vec={vector} ip={interrupted_ip:08x} (+{cycles})"
                    ),
                }
            }
            Event::ExceptionExit {
                cycle,
                resumed_ip,
                cycles,
            } => writeln!(
                out,
                "[{cycle:>10}] exc-exit   resume={resumed_ip:08x} (+{cycles})"
            ),
            Event::RegsCleared { cycle, count } => {
                writeln!(out, "[{cycle:>10}] regs-clear {count} registers")
            }
            Event::LoaderPhase { start, phase, ops } => {
                writeln!(out, "[{start:>10}] loader     {phase} ({ops} ops)")
            }
            Event::ContextSwitch { cycle, edge, ip } => {
                writeln!(
                    out,
                    "[{cycle:>10}] switch     {} -> {} at {ip:08x}",
                    edge.from, edge.to
                )
            }
            Event::IpcSend {
                cycle,
                from,
                to,
                kind,
            } => {
                writeln!(out, "[{cycle:>10}] ipc-send   {from} -> {to} [{kind}]")
            }
            Event::IpcRecv {
                cycle,
                from,
                to,
                kind,
            } => {
                writeln!(out, "[{cycle:>10}] ipc-recv   {from} -> {to} [{kind}]")
            }
        };
    }
    out
}

// --- JSONL --------------------------------------------------------------

/// Renders one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(e: &Event) -> String {
    let mut o = String::from("{\"kind\":\"");
    o.push_str(e.kind_name());
    o.push('"');
    match e {
        Event::InstrRetired {
            cycle,
            ip,
            word,
            cost,
        } => {
            let _ = write!(
                o,
                ",\"cycle\":{cycle},\"ip\":{ip},\"word\":{word},\"cost\":{cost}"
            );
        }
        Event::MpuCheck {
            cycle,
            subject,
            addr,
            kind,
            verdict,
        } => {
            let _ = write!(
                o,
                ",\"cycle\":{cycle},\"subject\":{subject},\"addr\":{addr},\"access\":\"{}\",\"verdict\":\"{}\"",
                kind.name(),
                verdict.name()
            );
        }
        Event::MpuFault {
            cycle,
            ip,
            addr,
            kind,
        } => {
            let _ = write!(
                o,
                ",\"cycle\":{cycle},\"ip\":{ip},\"addr\":{addr},\"access\":\"{}\"",
                kind.name()
            );
        }
        Event::ExceptionEnter { cycle, frame } => {
            let ExcFrame {
                vector,
                trustlet,
                interrupted_ip,
                saved_sp,
                cycles,
            } = &**frame;
            let _ = write!(o, ",\"cycle\":{cycle},\"vector\":{vector},\"trustlet\":");
            match trustlet {
                Some(t) => {
                    let _ = write!(o, "{t}");
                }
                None => o.push_str("null"),
            }
            let _ = write!(
                o,
                ",\"interrupted_ip\":{interrupted_ip},\"saved_sp\":{saved_sp},\"cycles\":{cycles}"
            );
        }
        Event::ExceptionExit {
            cycle,
            resumed_ip,
            cycles,
        } => {
            let _ = write!(
                o,
                ",\"cycle\":{cycle},\"resumed_ip\":{resumed_ip},\"cycles\":{cycles}"
            );
        }
        Event::RegsCleared { cycle, count } => {
            let _ = write!(o, ",\"cycle\":{cycle},\"count\":{count}");
        }
        Event::LoaderPhase { start, phase, ops } => {
            let _ = write!(
                o,
                ",\"start\":{start},\"phase\":\"{}\",\"ops\":{ops}",
                phase.name()
            );
        }
        Event::ContextSwitch { cycle, edge, ip } => {
            let _ = write!(o, ",\"cycle\":{cycle},\"from\":");
            json::write_str(&mut o, &edge.from);
            o.push_str(",\"to\":");
            json::write_str(&mut o, &edge.to);
            let _ = write!(o, ",\"ip\":{ip}");
        }
        Event::IpcSend {
            cycle,
            from,
            to,
            kind,
        }
        | Event::IpcRecv {
            cycle,
            from,
            to,
            kind,
        } => {
            let _ = write!(
                o,
                ",\"cycle\":{cycle},\"from\":{from},\"to\":{to},\"msg\":\"{}\"",
                kind.name()
            );
        }
    }
    o.push('}');
    o
}

/// Renders events as JSON Lines, one event per line.
pub fn jsonl<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn field_u32(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(v, key)?).map_err(|_| format!("field `{key}` out of u32 range"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn field_access(v: &Json, key: &str) -> Result<AccessClass, String> {
    AccessClass::from_name(&field_str(v, key)?).ok_or_else(|| "bad access class".to_string())
}

fn field_loader_stage(v: &Json) -> Result<LoaderStage, String> {
    let s = field_str(v, "phase")?;
    LoaderStage::from_name(&s).ok_or_else(|| format!("unknown loader phase `{s}`"))
}

fn field_ipc_kind(v: &Json) -> Result<IpcKind, String> {
    let s = field_str(v, "msg")?;
    IpcKind::from_name(&s).ok_or_else(|| format!("unknown ipc message kind `{s}`"))
}

/// Parses an [`Event`] from an already-parsed JSON object: the event
/// lines of a trace stream and the event arrays nested inside
/// flight-recorder dumps.
pub fn event_from_json(v: &Json) -> Result<Event, String> {
    let kind = field_str(v, "kind")?;
    match kind.as_str() {
        "instr_retired" => Ok(Event::InstrRetired {
            cycle: field_u64(v, "cycle")?,
            ip: field_u32(v, "ip")?,
            word: field_u32(v, "word")?,
            cost: field_u64(v, "cost")?,
        }),
        "mpu_check" => Ok(Event::MpuCheck {
            cycle: field_u64(v, "cycle")?,
            subject: field_u32(v, "subject")?,
            addr: field_u32(v, "addr")?,
            kind: field_access(v, "access")?,
            verdict: Verdict::from_name(&field_str(v, "verdict")?)
                .ok_or_else(|| "bad verdict".to_string())?,
        }),
        "mpu_fault" => Ok(Event::MpuFault {
            cycle: field_u64(v, "cycle")?,
            ip: field_u32(v, "ip")?,
            addr: field_u32(v, "addr")?,
            kind: field_access(v, "access")?,
        }),
        "exception_enter" => Ok(Event::ExceptionEnter {
            cycle: field_u64(v, "cycle")?,
            frame: Box::new(ExcFrame {
                vector: u8::try_from(field_u64(v, "vector")?)
                    .map_err(|_| "vector out of range".to_string())?,
                trustlet: match v.get("trustlet") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_u64()
                            .and_then(|t| u32::try_from(t).ok())
                            .ok_or_else(|| "bad trustlet field".to_string())?,
                    ),
                },
                interrupted_ip: field_u32(v, "interrupted_ip")?,
                saved_sp: field_u32(v, "saved_sp")?,
                cycles: field_u64(v, "cycles")?,
            }),
        }),
        "exception_exit" => Ok(Event::ExceptionExit {
            cycle: field_u64(v, "cycle")?,
            resumed_ip: field_u32(v, "resumed_ip")?,
            cycles: field_u64(v, "cycles")?,
        }),
        "regs_cleared" => Ok(Event::RegsCleared {
            cycle: field_u64(v, "cycle")?,
            count: field_u32(v, "count")?,
        }),
        "loader_phase" => Ok(Event::LoaderPhase {
            start: field_u64(v, "start")?,
            phase: field_loader_stage(v)?,
            ops: field_u64(v, "ops")?,
        }),
        "context_switch" => Ok(Event::ContextSwitch {
            cycle: field_u64(v, "cycle")?,
            edge: Box::new(SwitchEdge {
                from: field_str(v, "from")?,
                to: field_str(v, "to")?,
            }),
            ip: field_u32(v, "ip")?,
        }),
        "ipc_send" => Ok(Event::IpcSend {
            cycle: field_u64(v, "cycle")?,
            from: field_u32(v, "from")?,
            to: field_u32(v, "to")?,
            kind: field_ipc_kind(v)?,
        }),
        "ipc_recv" => Ok(Event::IpcRecv {
            cycle: field_u64(v, "cycle")?,
            from: field_u32(v, "from")?,
            to: field_u32(v, "to")?,
            kind: field_ipc_kind(v)?,
        }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

// --- Chrome trace_event -------------------------------------------------

const PID: u32 = 1;
const TID_DOMAINS: u32 = 1;
const TID_EXC: u32 = 2;
const TID_LOADER: u32 = 3;
const TID_MARKS: u32 = 4;

fn chrome_slice(out: &mut String, name: &str, tid: u32, ts: u64, dur: u64, args: &str) {
    out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
    let _ = write!(out, "{tid},\"ts\":{ts},\"dur\":{},\"name\":", dur.max(1));
    json::write_str(out, name);
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        out.push_str(args);
        out.push('}');
    }
    out.push_str("},");
}

fn chrome_instant(out: &mut String, name: &str, ts: u64, args: &str) {
    out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
    let _ = write!(out, "{TID_MARKS},\"ts\":{ts},\"name\":");
    json::write_str(out, name);
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        out.push_str(args);
        out.push('}');
    }
    out.push_str("},");
}

/// Renders events as a Chrome `trace_event` JSON document (1 simulated
/// cycle = 1 µs). Domain occupancy, exceptions and loader phases become
/// duration slices; faults and IPC traffic become instant markers.
/// `end_cycle` closes the final domain slice (pass the machine's cycle
/// counter).
pub fn chrome<'a>(events: impl IntoIterator<Item = &'a Event>, end_cycle: u64) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (tid, name) in [
        (TID_DOMAINS, "domains"),
        (TID_EXC, "exceptions"),
        (TID_LOADER, "loader"),
        (TID_MARKS, "events"),
    ] {
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    // Open domain slice: (name, start cycle).
    let mut open: Option<(String, u64)> = None;
    let mut last_cycle = 0u64;
    for e in events {
        last_cycle = last_cycle.max(e.cycle());
        match e {
            Event::ContextSwitch { cycle, edge, .. } => {
                let (name, start) = open.take().unwrap_or_else(|| (edge.from.clone(), 0));
                chrome_slice(&mut out, &name, TID_DOMAINS, start, cycle - start, "");
                open = Some((edge.to.clone(), *cycle));
            }
            Event::ExceptionEnter { cycle, frame } => {
                let vector = frame.vector;
                let mut args = format!("\"vector\":{vector}");
                if let Some(t) = frame.trustlet {
                    let _ = write!(args, ",\"trustlet\":{t}");
                }
                chrome_slice(
                    &mut out,
                    &format!("exc vec={vector}"),
                    TID_EXC,
                    *cycle,
                    frame.cycles,
                    &args,
                );
            }
            Event::ExceptionExit {
                cycle,
                resumed_ip,
                cycles,
            } => {
                chrome_slice(
                    &mut out,
                    "iret",
                    TID_EXC,
                    *cycle,
                    *cycles,
                    &format!("\"resumed_ip\":{resumed_ip}"),
                );
            }
            Event::LoaderPhase { start, phase, ops } => {
                chrome_slice(
                    &mut out,
                    phase.name(),
                    TID_LOADER,
                    *start,
                    (*ops).max(1),
                    &format!("\"ops\":{ops}"),
                );
            }
            Event::MpuFault {
                cycle,
                ip,
                addr,
                kind,
            } => {
                chrome_instant(
                    &mut out,
                    "mpu fault",
                    *cycle,
                    &format!("\"ip\":{ip},\"addr\":{addr},\"access\":\"{}\"", kind.name()),
                );
            }
            Event::IpcSend {
                cycle,
                from,
                to,
                kind,
            } => {
                chrome_instant(
                    &mut out,
                    &format!("ipc send [{kind}]"),
                    *cycle,
                    &format!("\"from\":{from},\"to\":{to}"),
                );
            }
            Event::IpcRecv {
                cycle,
                from,
                to,
                kind,
            } => {
                chrome_instant(
                    &mut out,
                    &format!("ipc recv [{kind}]"),
                    *cycle,
                    &format!("\"from\":{from},\"to\":{to}"),
                );
            }
            Event::RegsCleared { cycle, count } => {
                chrome_instant(
                    &mut out,
                    "regs cleared",
                    *cycle,
                    &format!("\"count\":{count}"),
                );
            }
            // The firehose variants would swamp the viewer; they are
            // available via the text/JSONL sinks instead.
            Event::InstrRetired { .. } | Event::MpuCheck { .. } => {}
        }
    }
    if let Some((name, start)) = open {
        let end = end_cycle.max(last_cycle).max(start);
        chrome_slice(&mut out, &name, TID_DOMAINS, start, end - start, "");
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_trace, parse_trace_line, TraceRecord};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::InstrRetired {
                cycle: 0,
                ip: 0x1000,
                word: 0,
                cost: 1,
            },
            Event::MpuCheck {
                cycle: 1,
                subject: 0x1000,
                addr: 0x8000,
                kind: AccessClass::Write,
                verdict: Verdict::Allow,
            },
            Event::MpuFault {
                cycle: 2,
                ip: 0x1004,
                addr: 0x9000,
                kind: AccessClass::Read,
            },
            Event::ExceptionEnter {
                cycle: 3,
                frame: Box::new(ExcFrame {
                    vector: 16,
                    trustlet: Some(1),
                    interrupted_ip: 0x4000,
                    saved_sp: 0x5000,
                    cycles: 21,
                }),
            },
            Event::ExceptionEnter {
                cycle: 30,
                frame: Box::new(ExcFrame {
                    vector: 8,
                    trustlet: None,
                    interrupted_ip: 0x1008,
                    saved_sp: 0,
                    cycles: 21,
                }),
            },
            Event::ExceptionExit {
                cycle: 60,
                resumed_ip: 0x1008,
                cycles: 8,
            },
            Event::RegsCleared {
                cycle: 61,
                count: 8,
            },
            Event::LoaderPhase {
                start: 0,
                phase: LoaderStage::CopyImages,
                ops: 12,
            },
            Event::ContextSwitch {
                cycle: 70,
                edge: Box::new(SwitchEdge {
                    from: "os".to_string(),
                    to: "t0".to_string(),
                }),
                ip: 0x4000,
            },
            Event::IpcSend {
                cycle: 71,
                from: 1,
                to: 2,
                kind: IpcKind::Syn,
            },
            Event::IpcRecv {
                cycle: 72,
                from: 1,
                to: 2,
                kind: IpcKind::Syn,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let events = sample_events();
        let doc = jsonl(&events);
        assert_eq!(doc.lines().count(), events.len());
        let parsed = parse_trace(&doc).expect("round-trip parses");
        let parsed: Vec<Event> = parsed
            .into_iter()
            .map(|r| match r {
                TraceRecord::Event(e) => e,
                other => panic!("event line parsed as {other:?}"),
            })
            .collect();
        assert_eq!(parsed, events);
    }

    #[test]
    fn no_event_kind_shadows_a_trace_record_kind() {
        // Event lines share the trace stream with meta/span/hist/flight
        // records, and `parse_trace_line` dispatches on those kinds
        // before falling back to events, so an event named like one
        // would silently misparse. The match has no wildcard: a new
        // variant stops compiling here until `sample_events` carries it.
        let mut seen = [false; 10];
        for e in sample_events() {
            let i = match e {
                Event::InstrRetired { .. } => 0,
                Event::MpuCheck { .. } => 1,
                Event::MpuFault { .. } => 2,
                Event::ExceptionEnter { .. } => 3,
                Event::ExceptionExit { .. } => 4,
                Event::RegsCleared { .. } => 5,
                Event::LoaderPhase { .. } => 6,
                Event::ContextSwitch { .. } => 7,
                Event::IpcSend { .. } => 8,
                Event::IpcRecv { .. } => 9,
            };
            seen[i] = true;
            let kind = e.kind_name();
            assert!(
                !["meta", "span", "hist", "flight"].contains(&kind),
                "event kind `{kind}` collides with a trace record kind"
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "sample_events covers every variant"
        );
    }

    #[test]
    fn text_sink_mentions_each_event() {
        let rendered = text(&sample_events());
        for needle in [
            "instr",
            "mpu-check",
            "MPU-FAULT",
            "exc-enter",
            "exc-exit",
            "regs-clear",
            "loader",
            "switch",
            "ipc-send",
            "ipc-recv",
        ] {
            assert!(rendered.contains(needle), "missing {needle}: {rendered}");
        }
    }

    #[test]
    fn chrome_output_is_valid_json_with_slices() {
        let doc = chrome(&sample_events(), 100);
        let v = json::parse(&doc).expect("chrome trace is valid JSON");
        let events = match v.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("bad traceEvents: {other:?}"),
        };
        // 4 thread-name metadata + 2 exc enters + 1 exit + 1 loader +
        // 1 fault + 2 ipc + 1 regs + 2 domain slices (switch closes
        // implicit first slice, final slice closed by end_cycle).
        assert_eq!(events.len(), 14);
        let has = |ph: &str, name: &str| {
            events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
        };
        assert!(has("X", "exc vec=16"));
        assert!(has("X", "copy_images"));
        assert!(has("X", "os"));
        assert!(has("X", "t0"));
        assert!(has("i", "mpu fault"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_trace_line("{\"kind\":\"nope\"}").is_err());
        assert!(parse_trace_line("{\"cycle\":1}").is_err());
        assert!(parse_trace_line("not json").is_err());
        assert!(
            parse_trace("{\"kind\":\"regs_cleared\",\"cycle\":1,\"count\":8}\ngarbage\n").is_err()
        );
    }
}
