//! Local and remote attestation (Sections 3.6, 4.2.2, 6).
//!
//! *Local attestation*: before trusting a peer, a trustlet inspects the
//! platform state — the Trustlet Table entry, the EA-MPU rules protecting
//! the peer, and (optionally) a hash of the peer's code region, either
//! computed directly or taken from the Secure Loader's load-time
//! measurement. All of these reads are tamper-proof by construction:
//! physical addressing plus persistent MPU rules mean nothing can remap
//! or intercept the inspection (Section 4.2.2).
//!
//! *Remote attestation*: the Secure Loader acts as a root of trust for
//! measurement; an attestation trustlet with exclusive access to the
//! platform key answers challenges with
//! `HMAC(key, nonce || measurements)`.

use core::fmt;

use trustlite_crypto::{hmac_sha256, sponge_hash, Hmac};
use trustlite_mpu::{AccessKind, Subject};
use trustlite_periph::KeyStore;

use crate::error::TrustliteError;
use crate::platform::Platform;

/// Computes the reference measurement of a code image (what the Secure
/// Loader stores in the measurement table).
pub fn measure_code(code: &[u8]) -> [u8; 32] {
    sponge_hash(code)
}

/// Measurement of a whole protection region: the image zero-padded to the
/// region size. The Secure Loader measures regions (not raw images) so
/// that any verifier — including another trustlet hashing the live region
/// — reproduces the digest without knowing the image length.
pub fn measure_region(code: &[u8], region_size: u32) -> [u8; 32] {
    let mut padded = code.to_vec();
    padded.resize(region_size as usize, 0);
    sponge_hash(&padded)
}

/// The result of a local attestation of one trustlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAttestation {
    /// The Trustlet Table row exists and matches the plan.
    pub table_ok: bool,
    /// MPU rules isolate the trustlet (own rx code, private rw data, no
    /// foreign write path to either).
    pub isolation_ok: bool,
    /// The code in memory hashes to the loader's recorded measurement.
    pub measurement_ok: bool,
}

impl LocalAttestation {
    /// True when every check passed.
    pub fn trusted(&self) -> bool {
        self.table_ok && self.isolation_ok && self.measurement_ok
    }
}

impl fmt::Display for LocalAttestation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "table:{} isolation:{} measurement:{}",
            self.table_ok, self.isolation_ok, self.measurement_ok
        )
    }
}

/// Performs a local attestation of trustlet `name` — the host-side model
/// of the inspection sequence in Figure 6 (`findTask`, `verifyMPU`,
/// `attest`).
pub fn local_attest(
    platform: &mut Platform,
    name: &str,
) -> Result<LocalAttestation, TrustliteError> {
    let plan = platform.plan(name)?.clone();

    // (1) Trustlet Table lookup by identifier.
    let row = trustlite_cpu::ttable::read_row(
        &mut platform.machine.sys,
        platform.machine.hw.tt_base,
        plan.tt_index,
    )
    .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
    let table_ok =
        row.id == plan.id && row.code_start == plan.code_base && row.code_end == plan.code_end();

    // (2) MPU-rule validation: reads of the MPU register window are secure
    // from manipulation, so the checks below reflect ground truth.
    let mpu = &platform.machine.sys.mpu;
    let foreign_ip = 0xdead_0000; // an address provably outside any region
    let code_mid = plan.code_base + plan.entry_len;
    let data_mid = plan.data_base;
    let own_exec = mpu.allows(code_mid, code_mid + 4, AccessKind::Execute);
    let own_data = mpu.allows(code_mid, data_mid, AccessKind::Read)
        && mpu.allows(code_mid, data_mid, AccessKind::Write);
    let foreign_cant_write_code = !mpu.allows(foreign_ip, code_mid, AccessKind::Write);
    let foreign_cant_touch_data = !mpu.allows(foreign_ip, data_mid, AccessKind::Read)
        && !mpu.allows(foreign_ip, data_mid, AccessKind::Write);
    let foreign_cant_exec_body = !mpu.allows(foreign_ip, code_mid, AccessKind::Execute);
    let isolation_ok = own_exec
        && own_data
        && foreign_cant_write_code
        && foreign_cant_touch_data
        && foreign_cant_exec_body;

    // (3) Code-hash check against the loader's measurement: hash the
    // live region and compare with the recorded digest.
    let live_code = platform
        .machine
        .sys
        .bus
        .read_bytes(plan.code_base, plan.code_size)
        .map_err(|e| TrustliteError::BadFirmware(e.to_string()))?;
    let recorded = platform.measurement(name)?;
    let measurement_ok = measure_code(&live_code) == recorded;

    Ok(LocalAttestation {
        table_ok,
        isolation_ok,
        measurement_ok,
    })
}

/// Checks whether *any* EA-MPU rule grants a foreign subject write access
/// into `[start, end)` other than the listed allowed subject slots. Used
/// by tests to reason about policy strength.
pub fn foreign_write_paths(
    platform: &Platform,
    start: u32,
    end: u32,
    allowed_subject_slots: &[usize],
) -> Vec<usize> {
    platform
        .machine
        .sys
        .mpu
        .slots()
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.enabled
                && s.perms.allows(AccessKind::Write)
                && s.start < end
                && start < s.end
                && match s.subject {
                    Subject::Any => true,
                    Subject::Region(r) => !allowed_subject_slots.contains(&(r as usize)),
                }
                && !allowed_subject_slots.contains(i)
        })
        .map(|(i, _)| i)
        .collect()
}

// --- Remote attestation ---

/// A remote verifier's challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge {
    /// Fresh verifier nonce.
    pub nonce: [u8; 16],
}

/// The device's attestation response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Measurements included in the report (one per trustlet, in table
    /// order).
    pub measurements: Vec<[u8; 32]>,
    /// `HMAC(platform key, nonce || measurements)`.
    pub tag: [u8; 32],
}

/// Device side: produces an attestation report over the measurement
/// table. This is the host-side model of the attestation trustlet (the
/// in-simulator version lives in the `remote_attestation` example).
pub fn respond(platform: &mut Platform, challenge: &Challenge) -> Result<Response, TrustliteError> {
    let names: Vec<String> = platform.plans.keys().cloned().collect();
    let mut ordered: Vec<(u32, String)> = names
        .iter()
        .map(|n| (platform.plans[n].tt_index, n.clone()))
        .collect();
    ordered.sort();
    let mut measurements = Vec::new();
    for (_, name) in &ordered {
        measurements.push(platform.measurement(name)?);
    }
    let key = platform
        .machine
        .sys
        .bus
        .device_mut::<KeyStore>("keystore")
        .and_then(|ks| ks.key(0))
        .ok_or_else(|| TrustliteError::BadFirmware("no platform key".to_string()))?;
    let mut mac = Hmac::new(&key);
    mac.update(&challenge.nonce);
    for m in &measurements {
        mac.update(m);
    }
    Ok(Response {
        measurements,
        tag: mac.finish(),
    })
}

/// Why the verifier rejected an attestation response. The variants map
/// one-to-one onto the fleet's `attest.reject.*` reason counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The reported measurements differ from the enrolment reference —
    /// loaded code is not what the verifier expects.
    BadMeasurement,
    /// Measurements match but the HMAC tag does not verify: wrong or
    /// corrupted key, tampered report, or a transit-corrupted tag.
    BadTag,
}

impl RejectReason {
    /// The `attest.reject.*` counter this reason increments.
    pub fn counter_name(&self) -> &'static str {
        match self {
            RejectReason::BadMeasurement => "attest.reject.bad_measurement",
            RejectReason::BadTag => "attest.reject.bad_tag",
        }
    }
}

/// Verifier side: checks a response against the expected measurements,
/// reporting *why* a rejection happened. Measurement comparison comes
/// first (it is public data); the tag check is constant-time.
pub fn verify_detailed(
    key: &[u8; 32],
    challenge: &Challenge,
    response: &Response,
    expected: &[[u8; 32]],
) -> Result<(), RejectReason> {
    if response.measurements != expected {
        return Err(RejectReason::BadMeasurement);
    }
    let mut msg = Vec::new();
    msg.extend_from_slice(&challenge.nonce);
    for m in &response.measurements {
        msg.extend_from_slice(m);
    }
    if trustlite_crypto::ct_eq(&hmac_sha256(key, &msg), &response.tag) {
        Ok(())
    } else {
        Err(RejectReason::BadTag)
    }
}

/// Verifier side: checks a response against the expected measurements.
pub fn verify(
    key: &[u8; 32],
    challenge: &Challenge,
    response: &Response,
    expected: &[[u8; 32]],
) -> bool {
    verify_detailed(key, challenge, response, expected).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_deterministic_and_content_sensitive() {
        assert_eq!(measure_code(b"abc"), measure_code(b"abc"));
        assert_ne!(measure_code(b"abc"), measure_code(b"abd"));
    }

    #[test]
    fn verify_rejects_wrong_measurements_and_tags() {
        let key = [7u8; 32];
        let challenge = Challenge { nonce: [1; 16] };
        let m = [measure_code(b"tl-a"), measure_code(b"tl-b")];
        let mut msg = Vec::new();
        msg.extend_from_slice(&challenge.nonce);
        for x in &m {
            msg.extend_from_slice(x);
        }
        let response = Response {
            measurements: m.to_vec(),
            tag: hmac_sha256(&key, &msg),
        };
        assert!(verify(&key, &challenge, &response, &m));
        // Wrong expectation.
        let other = [measure_code(b"evil"), m[1]];
        assert!(!verify(&key, &challenge, &response, &other));
        // Tampered tag.
        let mut bad = response.clone();
        bad.tag[0] ^= 1;
        assert!(!verify(&key, &challenge, &bad, &m));
        // Wrong key.
        assert!(!verify(&[8u8; 32], &challenge, &response, &m));
    }

    #[test]
    fn verify_detailed_names_the_reject_reason() {
        let key = [7u8; 32];
        let challenge = Challenge { nonce: [1; 16] };
        let m = [measure_code(b"tl-a")];
        let mut msg = Vec::new();
        msg.extend_from_slice(&challenge.nonce);
        msg.extend_from_slice(&m[0]);
        let response = Response {
            measurements: m.to_vec(),
            tag: hmac_sha256(&key, &msg),
        };
        assert_eq!(verify_detailed(&key, &challenge, &response, &m), Ok(()));
        // A device reporting unexpected code fails on the measurement.
        let other = [measure_code(b"evil")];
        assert_eq!(
            verify_detailed(&key, &challenge, &response, &other),
            Err(RejectReason::BadMeasurement)
        );
        // A wrong key fails on the tag, not the measurement.
        assert_eq!(
            verify_detailed(&[8u8; 32], &challenge, &response, &m),
            Err(RejectReason::BadTag)
        );
        assert_eq!(
            RejectReason::BadMeasurement.counter_name(),
            "attest.reject.bad_measurement"
        );
        assert_eq!(RejectReason::BadTag.counter_name(), "attest.reject.bad_tag");
    }

    #[test]
    fn response_binds_nonce() {
        let key = [7u8; 32];
        let m = [measure_code(b"x")];
        let make = |nonce: [u8; 16]| {
            let mut msg = Vec::new();
            msg.extend_from_slice(&nonce);
            msg.extend_from_slice(&m[0]);
            Response {
                measurements: m.to_vec(),
                tag: hmac_sha256(&key, &msg),
            }
        };
        let r1 = make([1; 16]);
        assert!(
            !verify(&key, &Challenge { nonce: [2; 16] }, &r1, &m),
            "replay rejected"
        );
    }
}
