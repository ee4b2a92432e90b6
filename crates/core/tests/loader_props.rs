//! Property tests on the PROM firmware format and the exception engine's
//! save/restore path.

use std::collections::BTreeSet;

use proptest::prelude::*;
use trustlite::loader::FW_TABLE_OFF;
use trustlite::prom::{parse, read_table, stage, PromEntry, FLAG_AUTHENTICATED, MAGIC};
use trustlite::spec::TrustletOptions;
use trustlite::TrustliteError;
use trustlite_cpu::{HaltReason, RunExit};
use trustlite_isa::Reg;
use trustlite_mem::{map, Bus, Rom};

/// Bytes from the firmware table to the end of PROM.
const WINDOW: u32 = map::PROM_SIZE - FW_TABLE_OFF;

fn any_entry() -> impl Strategy<Value = PromEntry> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<bool>(),
        proptest::option::of(any::<[u8; 32]>()),
        any::<u32>(),
    )
        .prop_map(|(id, dst_base, code, measured, auth_tag, main)| PromEntry {
            id,
            dst_base,
            code,
            entry_len: 8,
            measured,
            auth_tag,
            main,
        })
}

/// Overwrites the little-endian word at `off`.
fn put_word(blob: &mut [u8], off: usize, v: u32) {
    blob[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// A staged table with one mutation applied: none, a bad magic, an
/// arbitrary entry count, an arbitrary (often huge) `code_len`, a first
/// entry whose payload ends near the end of the window (so the payload,
/// the next header or the tag runs off it), or raw noise with or without
/// the magic.
fn any_prom_table() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any_entry(), 1..4),
        0u8..7,
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(entries, kind, v, noise)| {
            let mut blob = stage(&entries);
            match kind {
                1 => blob[v as usize % 4] ^= 0x80,
                2 => put_word(&mut blob, 4, if v & 1 == 0 { v % 1100 } else { v }),
                3 => put_word(&mut blob, 16, v),
                4 => {
                    put_word(&mut blob, 4, 1 + v % 3);
                    put_word(&mut blob, 16, WINDOW - 104 + (v >> 8) % 128);
                    put_word(&mut blob, 24, v >> 16 & 3);
                }
                5 => blob = MAGIC.to_le_bytes().into_iter().chain(noise).collect(),
                6 => blob = noise,
                _ => {}
            }
            blob
        })
}

/// A bus whose PROM holds `table` at the firmware-table offset, and the
/// whole window as `parse` would see it.
fn prom_with(table: &[u8]) -> (Bus, Vec<u8>) {
    let mut bus = Bus::new();
    bus.map(map::PROM_BASE, Box::new(Rom::new(map::PROM_SIZE)))
        .expect("prom maps");
    assert!(bus.host_load(map::PROM_BASE + FW_TABLE_OFF, table));
    let window = bus
        .read_bytes(map::PROM_BASE + FW_TABLE_OFF, WINDOW)
        .expect("window readable");
    (bus, window)
}

/// A one-entry table whose payload (`code_len` bytes, then a tag when
/// `authenticated`) ends `slack` bytes before the end of the window
/// (after it when negative), followed by a second header.
fn table_ending_at(slack: i64, authenticated: bool) -> Vec<u8> {
    let mut blob = stage(&[]);
    put_word(&mut blob, 4, 2);
    let tag = if authenticated { 32 } else { 0 };
    let code_len = i64::from(WINDOW) - 8 - 32 - tag - slack;
    let mut header = [0u8; 32];
    header[8..12].copy_from_slice(&(code_len as u32).to_le_bytes());
    let flags = if authenticated { FLAG_AUTHENTICATED } else { 0 };
    header[16..20].copy_from_slice(&flags.to_le_bytes());
    blob.extend_from_slice(&header);
    blob
}

/// `read_table` walks only the table, yet at the very end of the window
/// it must fail exactly where and how `parse` of the whole window does:
/// a truncated payload, a truncated tag, and a truncated next header
/// all occur in this sweep.
#[test]
fn read_table_matches_parse_at_the_window_end() {
    let mut seen = BTreeSet::new();
    for authenticated in [false, true] {
        for slack in -40..=40 {
            let (mut bus, window) = prom_with(&table_ending_at(slack, authenticated));
            let got = read_table(&mut bus);
            assert_eq!(got, parse(&window), "slack={slack} auth={authenticated}");
            if let Err(TrustliteError::BadFirmware(m)) = got {
                seen.insert(m);
            }
        }
    }
    for m in [
        "truncated code payload",
        "truncated auth tag",
        "truncated word",
    ] {
        assert!(seen.contains(m), "sweep never hit {m:?}: {seen:?}");
    }
}

proptest! {
    /// Reading the firmware table off the bus agrees with parsing the
    /// whole PROM window — the same entries or the same `BadFirmware` —
    /// for valid, truncated, oversized and garbage tables, and never
    /// panics.
    #[test]
    fn read_table_matches_parse_of_full_window(table in any_prom_table()) {
        let (mut bus, window) = prom_with(&table);
        prop_assert_eq!(read_table(&mut bus), parse(&window));
    }

    /// The firmware table round-trips arbitrary entry lists.
    #[test]
    fn prom_stage_parse_roundtrip(entries in proptest::collection::vec(any_entry(), 0..6)) {
        let blob = stage(&entries);
        prop_assert_eq!(parse(&blob).expect("parses"), entries);
    }

    /// Any truncation of a non-empty table is rejected, never panics.
    #[test]
    fn prom_truncation_never_panics(
        entries in proptest::collection::vec(any_entry(), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let blob = stage(&entries);
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        if cut < blob.len() {
            let _ = parse(&blob[..cut]);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The secure exception engine's save + the continue() restore is
    /// lossless for arbitrary register contents: a trustlet loads eight
    /// arbitrary values, is interrupted via swi, resumed via its entry
    /// vector, and must observe exactly the same values. (Each case boots
    /// a full platform; the case count is reduced accordingly.)
    #[test]
    fn exception_save_restore_is_lossless(values in any::<[u32; 8]>()) {
        use trustlite::platform::PlatformBuilder;
        use trustlite_cpu::vectors;

        let mut b = PlatformBuilder::new();
        let plan = b.plan_trustlet("probe", 0x400, 0x200, 0x100);
        let mut t = plan.begin_program();
        {
            let a = &mut t.asm;
            a.label("main");
            for (i, r) in Reg::GPRS.iter().enumerate() {
                a.li(*r, values[i]);
            }
            a.swi(3); // interrupted with the values live
            // After resumption, store every register to the data region.
            a.push(Reg::R6);
            a.li(Reg::R6, plan.data_base);
            for (i, r) in Reg::GPRS.iter().enumerate() {
                if *r == Reg::R6 {
                    continue;
                }
                a.sw(Reg::R6, (4 * i) as i16, *r);
            }
            // r6 itself was saved on the stack.
            a.pop(Reg::R7);
            a.sw(Reg::R6, 4 * 6, Reg::R7);
            a.halt();
        }
        b.add_trustlet(&plan, t.finish().expect("assembles"), TrustletOptions::default())
            .expect("registers");
        let mut os = b.begin_os();
        let stack_top = os.stack_top;
        os.asm.label("main");
        os.asm.li(Reg::Sp, stack_top);
        os.asm.halt();
        os.asm.label("resume");
        // The OS resumes the trustlet through its entry vector.
        os.asm.li(Reg::R1, plan.continue_entry());
        os.asm.jr(Reg::R1);
        let os_img = os.finish().expect("assembles");
        b.set_os(os_img, &[(vectors::swi_vector(3), "resume")]);
        let mut p = b.build().expect("boots");

        p.start_trustlet("probe").expect("starts");
        let exit = p.run(100_000);
        prop_assert!(
            matches!(exit, RunExit::Halted(HaltReason::Halt { .. })),
            "{exit:?}"
        );
        for (i, expected) in values.iter().enumerate() {
            // r7 is clobbered by the final bookkeeping; every other GPR
            // must round-trip exactly.
            if i == 7 {
                continue;
            }
            let got = p.machine.sys.hw_read32(plan.data_base + 4 * i as u32).expect("read");
            prop_assert_eq!(got, *expected, "r{} corrupted across preemption", i);
        }
    }
}
