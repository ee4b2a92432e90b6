//! Unified error type for platform construction and loading.

use core::fmt;

use trustlite_isa::builder::AsmError;
use trustlite_mem::MapError;
use trustlite_mpu::ProgramError;

/// Errors raised while building, loading or inspecting a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrustliteError {
    /// A memory mapping failed.
    Map(MapError),
    /// Assembly of a generated program failed.
    Asm(AsmError),
    /// MPU programming failed (typically: out of rule slots).
    Mpu(ProgramError),
    /// The platform ran out of MPU rule slots for the requested policy.
    OutOfMpuSlots { needed: usize, available: usize },
    /// The layout allocator ran out of SRAM.
    OutOfSram { requested: u32 },
    /// A named trustlet does not exist.
    UnknownTrustlet(String),
    /// A trustlet name was registered twice.
    DuplicateTrustlet(String),
    /// The PROM firmware table is malformed.
    BadFirmware(String),
    /// Secure-boot authentication of a trustlet failed.
    AuthFailed(String),
    /// The OS image was not provided before `build()`.
    MissingOs,
    /// A code image does not match its reserved plan location.
    PlanMismatch {
        name: String,
        expected: u32,
        actual: u32,
    },
    /// The image is larger than the reserved region.
    ImageTooLarge {
        name: String,
        reserved: u32,
        actual: u32,
    },
    /// Snapshot/fork failed: the named component cannot be deep-copied.
    Snapshot(&'static str),
    /// A fleet configuration is degenerate: the named knob is zero where
    /// a nonzero value is required (e.g. `devices`, `rounds`).
    DegenerateFleet { what: &'static str },
    /// A fleet configuration names a workload the fleet cannot build.
    UnknownWorkload(String),
}

impl fmt::Display for TrustliteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustliteError::Map(e) => write!(f, "mapping error: {e}"),
            TrustliteError::Asm(e) => write!(f, "assembly error: {e}"),
            TrustliteError::Mpu(e) => write!(f, "MPU programming error: {e}"),
            TrustliteError::OutOfMpuSlots { needed, available } => {
                write!(
                    f,
                    "policy needs {needed} MPU slots, only {available} available"
                )
            }
            TrustliteError::OutOfSram { requested } => {
                write!(f, "SRAM exhausted allocating {requested:#x} bytes")
            }
            TrustliteError::UnknownTrustlet(n) => write!(f, "unknown trustlet `{n}`"),
            TrustliteError::UnknownWorkload(n) => write!(f, "unknown workload `{n}`"),
            TrustliteError::DuplicateTrustlet(n) => write!(f, "duplicate trustlet `{n}`"),
            TrustliteError::BadFirmware(m) => write!(f, "malformed PROM firmware: {m}"),
            TrustliteError::AuthFailed(n) => {
                write!(f, "secure-boot authentication failed for `{n}`")
            }
            TrustliteError::MissingOs => write!(f, "no OS image provided"),
            TrustliteError::Snapshot(what) => {
                write!(f, "snapshot unsupported by component `{what}`")
            }
            TrustliteError::DegenerateFleet { what } => {
                write!(
                    f,
                    "degenerate fleet configuration: `{what}` must be nonzero"
                )
            }
            TrustliteError::PlanMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "image for `{name}` assembled at {actual:#010x}, plan reserved {expected:#010x}"
            ),
            TrustliteError::ImageTooLarge {
                name,
                reserved,
                actual,
            } => write!(
                f,
                "image for `{name}` is {actual:#x} bytes, exceeds reserved {reserved:#x}"
            ),
        }
    }
}

impl std::error::Error for TrustliteError {}

impl From<MapError> for TrustliteError {
    fn from(e: MapError) -> Self {
        TrustliteError::Map(e)
    }
}

impl From<AsmError> for TrustliteError {
    fn from(e: AsmError) -> Self {
        TrustliteError::Asm(e)
    }
}

impl From<ProgramError> for TrustliteError {
    fn from(e: ProgramError) -> Self {
        TrustliteError::Mpu(e)
    }
}
