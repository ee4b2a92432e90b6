//! The parallel fleet engine.
//!
//! TrustLite targets *fleets* of tiny embedded devices; the protocols
//! built on it (remote attestation, trustlet provisioning) are only
//! interesting when a verifier talks to many devices at once — and only
//! trustworthy when parts of that fleet misbehave. This crate scales the
//! single-`Platform` simulator out and stress-tests it:
//!
//! * **snapshot/fork boot** — the Secure Loader and trustlet staging run
//!   *once per image*; every device is an O(memcpy) fork of the booted
//!   master with per-device divergence (device id, RNG seed, platform
//!   key) applied afterwards ([`Fleet::boot`]);
//! * **sharded execution** — devices are partitioned over `std::thread`
//!   workers with a work-stealing run queue and quantum-based stepping;
//!   a cross-device message fabric carries verifier↔device attestation
//!   traffic with delivery pinned to quantum boundaries, so any run is
//!   reproducible from `(image, seed, nworkers)` and aggregates are
//!   bit-identical at 1 or 16 workers ([`Fleet::run`]);
//! * **deterministic fault injection** — a `trustlite-chaos`
//!   [`FaultPlan`](trustlite_chaos::FaultPlan), pure in
//!   `(fleet_seed, device, round)`, injects RAM bit-flips, tampered
//!   measurements, wrong keys, dropped/corrupted/delayed responses and
//!   mid-round crash/warm-reset (Secure Loader re-entry) without
//!   breaking run reproducibility;
//! * **resilient attestation fabric** — the verifier retries failing
//!   devices with round-counted exponential backoff, quarantines
//!   devices that exhaust their retry budget (excluding them from
//!   stepping without stalling the barrier) and reports per-device
//!   [`DeviceHealth`] plus `attest.reject.*` reason counters;
//! * **merged observability** — per-device `trustlite-obs` registries
//!   merge into one fleet report in which counters and cycle attribution
//!   still sum exactly, warm resets included ([`FleetReport`]);
//! * **observation without perturbation** — a [`TraceLevel`]-gated span
//!   trace (attestation round trips, shard phases on the host clock),
//!   always-on deterministic latency histograms (`fleet.*`) and a
//!   per-device flight recorder dumped on quarantine or crash-reset;
//!   state digests and merged metrics are byte-identical at every trace
//!   level and worker count ([`observatory`]);
//! * **firmware-update campaigns** — staged rollout of an A/B-slot
//!   update across the fleet: canary wave then ramp
//!   ([`CampaignConfig::canary_pct`]), per-device reboot into the
//!   staged slot, an *attested re-measurement* commit gate, forced
//!   rollback to the always-bootable PROM slot when the gate keeps
//!   failing, and a rollback circuit breaker
//!   ([`CampaignConfig::failure_budget`]); orchestration runs in the
//!   deterministic phase-B path, so campaign outcomes are bit-identical
//!   at any worker count ([`campaign`]).

pub mod campaign;
pub mod engine;
pub mod observatory;
pub mod report;
pub mod resilience;

pub use campaign::{CampaignConfig, UpdateState};
pub use engine::{DeviceSim, Fleet, FleetConfig};
pub use observatory::{chrome_trace, trace_jsonl, TraceLevel};
pub use report::FleetReport;
pub use resilience::{DeviceHealth, FailReason};
pub use trustlite_bench::state_digest;
