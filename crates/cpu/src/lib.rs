//! The SP32 CPU core simulator.
//!
//! Models the class of core the TrustLite prototype extends (Intel
//! Siskiyou Peak: 32-bit, single-issue, 5-stage, Harvard-style), with the
//! paper's two hardware additions wired in:
//!
//! * every access is validated by the **EA-MPU** before it reaches the
//!   bus, with the current instruction pointer as the subject
//!   (`trustlite-mpu`, paper Figure 2);
//! * the exception engine optionally implements the **secure exception
//!   flow** of Section 3.4: on interrupting a trustlet it saves the
//!   complete CPU state to the *trustlet's* stack, records the stack
//!   pointer in the Trustlet Table, clears the general-purpose registers,
//!   and only then switches to the OS stack and invokes the (untrusted)
//!   handler.
//!
//! Cycle accounting follows the paper's Section 5.4 numbers structurally:
//! the regular exception entry takes [`costs::EXC_REGULAR_TOTAL`] = 21
//! cycles; the secure flow adds 2 cycles of trustlet detection, one cycle
//! per saved word (10: eight GPRs, flags, return IP — "all but the ESP"),
//! and one cycle per cleared register plus the Trustlet Table write (9).
//! The totals *emerge from operation counts*, they are not asserted.

pub mod costs;
pub mod fault;
pub mod machine;
pub mod predecode;
pub mod regs;
pub mod sysbus;
pub mod ttable;
pub mod vectors;

pub use fault::Fault;
pub use machine::{ExcRecord, ExtUnit, HaltReason, HwConfig, Machine, RunExit, StepOutcome};
pub use predecode::{BlockStats, PredecodeStats};
pub use regs::{Flags, RegFile};
pub use sysbus::{Engine, SystemBus};
pub use ttable::{TrustletRow, TT_ROW_BYTES};
