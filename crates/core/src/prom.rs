//! The PROM firmware table: how trustlets are stored in boot memory.
//!
//! Figure 5 of the paper shows trustlets residing in PROM as meta-data +
//! program code + entries vector, which the Secure Loader parses and loads
//! into SRAM at boot. This module defines that on-flash format:
//!
//! ```text
//! +0   magic "TLFW"
//! +4   entry count
//! +8   first entry
//!
//! entry (32-byte header, then payload):
//!   +0   id
//!   +4   dst_base     (SRAM load address)
//!   +8   code_len     (bytes; payload is padded to a word multiple)
//!   +12  entry_len    (entry vector bytes)
//!   +16  flags        (bit0 measured, bit1 authenticated)
//!   +20  main         (initial entry point, absolute)
//!   +24  reserved
//!   +28  reserved
//!   code bytes [code_len, padded to 4]
//!   auth tag [32 bytes, only if flags bit1]
//! ```

use trustlite_mem::{map, Bus};

use crate::error::TrustliteError;
use crate::loader::FW_TABLE_OFF;

/// Magic number at the start of the firmware table ("TLFW", little-endian).
pub const MAGIC: u32 = u32::from_le_bytes(*b"TLFW");

/// Header flag: measure the code at load time.
pub const FLAG_MEASURED: u32 = 1;
/// Header flag: a 32-byte HMAC tag follows the code.
pub const FLAG_AUTHENTICATED: u32 = 2;

/// Size of one entry header in bytes.
pub const HEADER_BYTES: u32 = 32;

/// A parsed firmware entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromEntry {
    /// Trustlet identifier.
    pub id: u32,
    /// SRAM destination base.
    pub dst_base: u32,
    /// Code bytes (unpadded length preserved).
    pub code: Vec<u8>,
    /// Entry vector length in bytes.
    pub entry_len: u32,
    /// Whether the loader must measure this entry.
    pub measured: bool,
    /// Secure-boot tag, if present.
    pub auth_tag: Option<[u8; 32]>,
    /// Initial entry point.
    pub main: u32,
}

fn pad4(n: usize) -> usize {
    (n + 3) & !3
}

/// Serializes firmware entries into the PROM table format.
pub fn stage(entries: &[PromEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        let mut flags = 0u32;
        if e.measured {
            flags |= FLAG_MEASURED;
        }
        if e.auth_tag.is_some() {
            flags |= FLAG_AUTHENTICATED;
        }
        for w in [
            e.id,
            e.dst_base,
            e.code.len() as u32,
            e.entry_len,
            flags,
            e.main,
            0,
            0,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&e.code);
        out.resize(pad4(out.len()), 0);
        if let Some(tag) = e.auth_tag {
            out.extend_from_slice(&tag);
        }
    }
    out
}

/// Parses a firmware table from raw PROM bytes.
pub fn parse(bytes: &[u8]) -> Result<Vec<PromEntry>, TrustliteError> {
    parse_window(Window {
        len: bytes.len(),
        fetch: |off: usize, buf: &mut [u8]| {
            buf.copy_from_slice(&bytes[off..off + buf.len()]);
            Ok(())
        },
    })
}

/// Reads the firmware table straight out of the PROM window
/// (`FW_TABLE_OFF` to the end of PROM): the table header, each entry's
/// header, code and tag, and nothing past the last entry. Accepts and
/// rejects exactly what [`parse`] does on the whole window read into
/// memory, with the same `BadFirmware` messages; a bus fault inside the
/// window is a `BadFirmware` carrying the bus error.
pub fn read_table(bus: &mut Bus) -> Result<Vec<PromEntry>, TrustliteError> {
    let base = map::PROM_BASE + FW_TABLE_OFF;
    parse_window(Window {
        len: (map::PROM_SIZE - FW_TABLE_OFF) as usize,
        fetch: |off: usize, buf: &mut [u8]| {
            bus.read_into(base + off as u32, buf)
                .map_err(|e| TrustliteError::BadFirmware(e.to_string()))
        },
    })
}

fn bad(m: &str) -> TrustliteError {
    TrustliteError::BadFirmware(m.to_string())
}

/// `len` bytes of firmware table, read through `fetch`. Every read is
/// bounds-checked before `fetch` runs, so a field past the end is a
/// `BadFirmware` error and a huge `code_len` never allocates.
struct Window<F> {
    len: usize,
    fetch: F,
}

impl<F: FnMut(usize, &mut [u8]) -> Result<(), TrustliteError>> Window<F> {
    fn fits(&self, off: usize, n: usize) -> bool {
        off.checked_add(n).is_some_and(|end| end <= self.len)
    }

    fn read(&mut self, off: usize, buf: &mut [u8], what: &str) -> Result<(), TrustliteError> {
        if !self.fits(off, buf.len()) {
            return Err(bad(what));
        }
        (self.fetch)(off, buf)
    }

    fn word(&mut self, off: usize) -> Result<u32, TrustliteError> {
        let mut w = [0u8; 4];
        self.read(off, &mut w, "truncated word")?;
        Ok(u32::from_le_bytes(w))
    }

    /// [`Window::read`] into a fresh buffer, allocated only once the
    /// range is known to fit.
    fn bytes(&mut self, off: usize, n: usize, what: &str) -> Result<Vec<u8>, TrustliteError> {
        if !self.fits(off, n) {
            return Err(bad(what));
        }
        let mut buf = vec![0u8; n];
        self.read(off, &mut buf, what)?;
        Ok(buf)
    }
}

fn parse_window<F>(mut win: Window<F>) -> Result<Vec<PromEntry>, TrustliteError>
where
    F: FnMut(usize, &mut [u8]) -> Result<(), TrustliteError>,
{
    if win.word(0)? != MAGIC {
        return Err(bad("bad magic"));
    }
    let count = win.word(4)? as usize;
    if count > 1024 {
        return Err(bad("implausible entry count"));
    }
    let mut entries = Vec::with_capacity(count);
    let mut off = 8usize;
    for _ in 0..count {
        // The six meaningful header words; the two reserved words are
        // never read.
        let mut h = [0u8; 24];
        win.read(off, &mut h, "truncated word")?;
        let field = |i: usize| u32::from_le_bytes(h[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        let (id, dst_base, code_len) = (field(0), field(1), field(2) as usize);
        let (entry_len, flags, main) = (field(3), field(4), field(5));
        off += HEADER_BYTES as usize;
        let code = win.bytes(off, code_len, "truncated code payload")?;
        off += pad4(code_len);
        let auth_tag = if flags & FLAG_AUTHENTICATED != 0 {
            let mut t = [0u8; 32];
            win.read(off, &mut t, "truncated auth tag")?;
            off += 32;
            Some(t)
        } else {
            None
        };
        entries.push(PromEntry {
            id,
            dst_base,
            code,
            entry_len,
            measured: flags & FLAG_MEASURED != 0,
            auth_tag,
            main,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PromEntry> {
        vec![
            PromEntry {
                id: 0xA,
                dst_base: 0x1000_1000,
                code: vec![1, 2, 3, 4, 5],
                entry_len: 8,
                measured: true,
                auth_tag: None,
                main: 0x1000_1010,
            },
            PromEntry {
                id: 0xB,
                dst_base: 0x1000_2000,
                code: vec![9; 16],
                entry_len: 8,
                measured: false,
                auth_tag: Some([0x77; 32]),
                main: 0x1000_2008,
            },
        ]
    }

    #[test]
    fn stage_parse_roundtrip() {
        let entries = sample();
        let blob = stage(&entries);
        assert_eq!(parse(&blob).unwrap(), entries);
    }

    #[test]
    fn empty_table_roundtrips() {
        let blob = stage(&[]);
        assert_eq!(parse(&blob).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = stage(&sample());
        blob[0] ^= 0xff;
        assert!(matches!(parse(&blob), Err(TrustliteError::BadFirmware(_))));
    }

    #[test]
    fn truncation_rejected() {
        let blob = stage(&sample());
        for cut in [6, 12, 40, blob.len() - 1] {
            assert!(
                matches!(parse(&blob[..cut]), Err(TrustliteError::BadFirmware(_))),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn implausible_count_rejected() {
        let mut blob = stage(&[]);
        blob[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse(&blob), Err(TrustliteError::BadFirmware(_))));
    }

    #[test]
    fn odd_length_code_padded_but_preserved() {
        let entries = vec![PromEntry {
            id: 1,
            dst_base: 0,
            code: vec![0xaa; 7],
            entry_len: 4,
            measured: false,
            auth_tag: Some([1; 32]),
            main: 0,
        }];
        let parsed = parse(&stage(&entries)).unwrap();
        assert_eq!(parsed[0].code.len(), 7);
        assert_eq!(parsed[0].auth_tag, Some([1; 32]));
    }
}
