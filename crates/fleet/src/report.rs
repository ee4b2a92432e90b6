//! The merged fleet report.

use trustlite_obs::{FlightDump, MetricsReport, SpanRecord};

use crate::campaign::UpdateState;
use crate::observatory::TraceLevel;
use crate::resilience::DeviceHealth;

/// What a fleet run produced, merged across all devices.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Device count.
    pub devices: usize,
    /// Worker-thread count actually used.
    pub workers: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Steps per device per round.
    pub quantum: u64,
    /// The fleet seed.
    pub seed: u64,
    /// The workload every device ran.
    pub workload: String,
    /// The span-collection level the run used. Observation never
    /// perturbs: `digest` and `merged` are byte-identical at every
    /// level.
    pub trace_level: TraceLevel,
    /// Whether a fault plan was active.
    pub chaos: bool,
    /// Whether an update campaign was configured.
    pub campaign: bool,
    /// Per-device campaign outcome (empty when no campaign ran).
    pub campaign_states: Vec<UpdateState>,
    /// Post-fork instructions retired, summed over devices.
    pub total_instret: u64,
    /// Simulated cycles, summed over devices.
    pub total_cycles: u64,
    /// Attestation responses the verifier accepted.
    pub attest_ok: u64,
    /// Attestation responses the verifier rejected (timeouts included);
    /// always equals the sum of the `attest.reject.*` counters in
    /// `merged`.
    pub attest_fail: u64,
    /// Per-device health at the end of the run (the verifier's view:
    /// healthy, retrying with a backoff, or quarantined with a reason
    /// and the round the decision was made in).
    pub health: Vec<DeviceHealth>,
    /// Collected trace spans (empty at [`TraceLevel::Off`]): fork/
    /// execute/verify/merge shard phases on the host clock, then device
    /// and verifier spans in deterministic phase-B order.
    pub spans: Vec<SpanRecord>,
    /// Flight-recorder dumps captured during the run — one per
    /// crash-reset and one per quarantine, at *every* trace level (the
    /// black box is always on).
    pub flight_dumps: Vec<FlightDump>,
    /// All telemetry registries merged: one boot registry per image plus
    /// every device's post-fork registry. Counters and cycle attribution
    /// sum exactly; `loader.runs` counts Secure Loader executions (one
    /// per image, however many devices were forked from it).
    pub merged: MetricsReport,
    /// Mean host microseconds spent forking+diverging one device
    /// (host-side timing; never part of `digest`).
    pub fork_us_per_device: f64,
    /// Host-side materialized bytes summed over all devices at the end
    /// of the run (sparse COW backing makes this a small fraction of
    /// `addressable_bytes`; the dense reference backing makes them
    /// equal). Host-side diagnostics; never part of `digest`.
    pub resident_bytes: u64,
    /// Addressable bytes summed over all devices.
    pub addressable_bytes: u64,
    /// Host-side bytes backing the predecode/superblock code caches,
    /// summed over all devices with each `Arc`-shared chunk amortized
    /// over its sharers (so the sum reflects physical allocation, not
    /// per-device table size). Host-side diagnostics; never part of
    /// `digest`.
    pub code_cache_bytes: u64,
    /// Order-independent digest over every device's final architectural
    /// state plus the merged aggregates; bit-identical across worker
    /// counts.
    pub digest: [u8; 32],
}

impl FleetReport {
    /// The digest as lowercase hex.
    pub fn digest_hex(&self) -> String {
        self.digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Devices still healthy at the end of the run.
    pub fn healthy(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == DeviceHealth::Healthy)
            .count()
    }

    /// Devices in a retry/backoff cycle at the end of the run.
    pub fn retrying(&self) -> usize {
        self.health
            .iter()
            .filter(|h| matches!(h, DeviceHealth::Retrying(_)))
            .count()
    }

    /// Devices quarantined during the run.
    pub fn quarantined(&self) -> usize {
        self.health.iter().filter(|h| h.is_quarantined()).count()
    }

    /// Devices whose update was confirmed behind the attested
    /// re-measurement gate.
    pub fn campaign_completed(&self) -> usize {
        self.campaign_states
            .iter()
            .filter(|s| **s == UpdateState::Confirmed)
            .count()
    }

    /// Devices that fell back to slot A (loader rejection or forced
    /// rollback).
    pub fn campaign_rolled_back(&self) -> usize {
        self.campaign_states
            .iter()
            .filter(|s| **s == UpdateState::RolledBack)
            .count()
    }

    /// Devices quarantined before reaching a terminal campaign state
    /// (disjoint from completed/rolled-back: a device that confirmed
    /// and *then* quarantined counts as completed).
    pub fn campaign_quarantined(&self) -> usize {
        self.campaign_states
            .iter()
            .zip(&self.health)
            .filter(|(s, h)| !s.is_terminal() && h.is_quarantined())
            .count()
    }

    /// Devices the campaign never resolved: not terminal, not
    /// quarantined — the rollout ran out of rounds or the circuit
    /// breaker stopped staging them.
    pub fn campaign_skipped(&self) -> usize {
        self.campaign_states
            .iter()
            .zip(&self.health)
            .filter(|(s, h)| !s.is_terminal() && !h.is_quarantined())
            .count()
    }

    /// The rounds quarantine decisions were made in (one entry per
    /// quarantined device; "rounds to detect" in the chaos sweep).
    pub fn quarantine_rounds(&self) -> Vec<u64> {
        self.health
            .iter()
            .filter_map(|h| match h {
                DeviceHealth::Quarantined { round, .. } => Some(*round),
                _ => None,
            })
            .collect()
    }

    /// Renders the report as JSON (selected merged counters only: the
    /// full registry has per-slot MPU detail that would swamp the file).
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        for (k, v) in &self.merged.counters {
            if !counters.is_empty() {
                counters.push_str(", ");
            }
            counters.push_str(&format!("\"{k}\": {v}"));
        }
        let mut attribution = String::new();
        for (name, cycles) in &self.merged.attribution {
            if !attribution.is_empty() {
                attribution.push_str(", ");
            }
            attribution.push_str(&format!("\"{name}\": {cycles}"));
        }
        let mut health = String::new();
        for h in &self.health {
            if !health.is_empty() {
                health.push_str(", ");
            }
            health.push_str(&format!("\"{}\"", h.label()));
        }
        let mut campaign_states = String::new();
        for s in &self.campaign_states {
            if !campaign_states.is_empty() {
                campaign_states.push_str(", ");
            }
            campaign_states.push_str(&format!("\"{}\"", s.label()));
        }
        format!(
            "{{\n  \"devices\": {}, \"workers\": {}, \"rounds\": {}, \"quantum\": {},\n  \
             \"seed\": {}, \"workload\": \"{}\",\n  \
             \"trace_level\": \"{}\", \"chaos\": {}, \"spans\": {}, \"flight_dumps\": {},\n  \
             \"campaign\": {}, \"campaign_completed\": {}, \"campaign_rolled_back\": {},\n  \
             \"campaign_quarantined\": {}, \"campaign_skipped\": {},\n  \
             \"campaign_states\": [{}],\n  \
             \"fork_us_per_device\": {:.3},\n  \
             \"resident_bytes\": {}, \"addressable_bytes\": {}, \"code_cache_bytes\": {},\n  \
             \"total_instret\": {}, \"total_cycles\": {},\n  \
             \"attest_ok\": {}, \"attest_fail\": {},\n  \
             \"healthy\": {}, \"retrying\": {}, \"quarantined\": {},\n  \
             \"health\": [{}],\n  \
             \"digest\": \"{}\",\n  \
             \"counters\": {{{}}},\n  \
             \"attribution\": {{{}}}\n}}\n",
            self.devices,
            self.workers,
            self.rounds,
            self.quantum,
            self.seed,
            self.workload,
            self.trace_level.name(),
            self.chaos,
            self.spans.len(),
            self.flight_dumps.len(),
            self.campaign,
            self.campaign_completed(),
            self.campaign_rolled_back(),
            self.campaign_quarantined(),
            self.campaign_skipped(),
            campaign_states,
            self.fork_us_per_device,
            self.resident_bytes,
            self.addressable_bytes,
            self.code_cache_bytes,
            self.total_instret,
            self.total_cycles,
            self.attest_ok,
            self.attest_fail,
            self.healthy(),
            self.retrying(),
            self.quarantined(),
            health,
            self.digest_hex(),
            counters,
            attribution,
        )
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} devices x {} rounds x {} steps on {} workers: \
             {} instret, {} cycles, attest {}/{} ok, digest {}",
            self.devices,
            self.rounds,
            self.quantum,
            self.workers,
            self.total_instret,
            self.total_cycles,
            self.attest_ok,
            self.attest_ok + self.attest_fail,
            &self.digest_hex()[..16],
        )
    }

    /// One machine-greppable memory-footprint line (`memory: R resident
    /// / A addressable bytes (P%, sparse), code cache C bytes (shared),
    /// fork F us/device`), used by the CLI and CI. The backing words are
    /// fixed: sparse memory and shared code caches are the only
    /// configuration a [`crate::FleetConfig`] runs (the reference modes
    /// are reachable only through [`crate::Fleet::boot_with`]).
    /// Host-side only; never digested.
    pub fn memory_line(&self) -> String {
        let pct = if self.addressable_bytes > 0 {
            100.0 * self.resident_bytes as f64 / self.addressable_bytes as f64
        } else {
            0.0
        };
        format!(
            "memory: {} resident / {} addressable bytes ({:.1}%, sparse), \
             code cache {} bytes (shared), fork {:.1} us/device",
            self.resident_bytes,
            self.addressable_bytes,
            pct,
            self.code_cache_bytes,
            self.fork_us_per_device,
        )
    }

    /// One machine-greppable campaign outcome line (`campaign: C
    /// completed, R rolled back, Q quarantined, S skipped of N`), used
    /// by the CLI, the campaign sweep and CI. Every device lands in
    /// exactly one of the four buckets.
    pub fn campaign_line(&self) -> String {
        format!(
            "campaign: {} completed, {} rolled back, {} quarantined, {} skipped of {}",
            self.campaign_completed(),
            self.campaign_rolled_back(),
            self.campaign_quarantined(),
            self.campaign_skipped(),
            self.campaign_states.len(),
        )
    }

    /// One machine-greppable line of fleet health (`health: H healthy,
    /// R retrying, Q quarantined`), used by the CLI and CI.
    pub fn health_line(&self) -> String {
        format!(
            "health: {} healthy, {} retrying, {} quarantined",
            self.healthy(),
            self.retrying(),
            self.quarantined()
        )
    }
}
