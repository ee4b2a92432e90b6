//! Dense-vs-sparse backing identity: the page-granular COW store behind
//! `Ram`/`Rom` is a host-side artifact, so fleets running on sparse and
//! dense memory must produce byte-identical digests, counters and health
//! at every capture level, worker count, and chaos on/off — while the
//! host-side footprint fields (the only place backing is allowed to
//! show) differ exactly as designed. The same contract holds for the
//! `Arc`-shared code caches against their private (deep-copied)
//! reference mode.
//!
//! Neither reference mode is a fleet option: the tests reach them
//! through the [`Fleet::boot_with`] seam, which prepares the master
//! platform before any device is forked from it.

use std::process::Command;

use proptest::prelude::*;
use trustlite_chaos::ChaosConfig;
use trustlite_fleet::{CampaignConfig, Fleet, FleetConfig, FleetReport};
use trustlite_obs::ObsLevel;

/// How the master platform is prepared before the fleet forks from it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Sparse COW memory and `Arc`-shared code caches (what every
    /// `FleetConfig` runs).
    Default,
    /// Dense reference memory backing.
    Dense,
    /// Private (deep-copied) reference code caches.
    PrivateCode,
}

fn run(cfg: &FleetConfig, mode: Mode, workers: usize) -> FleetReport {
    let cfg = FleetConfig {
        workers,
        ..cfg.clone()
    };
    Fleet::boot_with(cfg, |p| match mode {
        Mode::Default => Ok(()),
        Mode::Dense => p.set_dense_memory(true),
        Mode::PrivateCode => {
            p.machine.sys.set_private_code_caches(true);
            Ok(())
        }
    })
    .expect("boot")
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn dense_and_sparse_backing_digest_identically(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        rounds in 2u64..5,
        level_ix in 0usize..4,
        chaos_on in any::<bool>(),
    ) {
        let level = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events, ObsLevel::Full]
            [level_ix];
        let cfg = FleetConfig {
            devices,
            rounds,
            quantum: 1_500,
            seed,
            level,
            attest_every: 1,
            chaos: if chaos_on {
                ChaosConfig { seed: seed ^ 0xc0c0, fault_rate_pm: 700, malicious_pm: 300 }
            } else {
                ChaosConfig::off()
            },
            ..FleetConfig::default()
        };
        let sparse = run(&cfg, Mode::Default, 1);
        for workers in [1usize, 4] {
            let dense = run(&cfg, Mode::Dense, workers);
            prop_assert_eq!(
                &dense.digest, &sparse.digest,
                "backing leaked into the digest at level {:?}, {} workers, chaos {}",
                level, workers, chaos_on
            );
            prop_assert_eq!(&dense.merged.counters, &sparse.merged.counters);
            prop_assert_eq!(&dense.merged.attribution, &sparse.merged.attribution);
            prop_assert_eq!(&dense.health, &sparse.health);
            prop_assert_eq!(dense.total_instret, sparse.total_instret);
            // The footprint is where the backing IS allowed to differ:
            // dense materializes the whole address space, sparse only
            // what the devices actually touched.
            prop_assert_eq!(dense.resident_bytes, dense.addressable_bytes);
            prop_assert!(
                sparse.resident_bytes < sparse.addressable_bytes / 2,
                "sparse fleets must not materialize most of the address space: {} of {}",
                sparse.resident_bytes, sparse.addressable_bytes
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn shared_and_private_code_caches_digest_identically(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        rounds in 2u64..5,
        level_ix in 0usize..4,
        chaos_on in any::<bool>(),
    ) {
        let level = [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events, ObsLevel::Full]
            [level_ix];
        let cfg = FleetConfig {
            devices,
            rounds,
            quantum: 1_500,
            seed,
            level,
            attest_every: 1,
            chaos: if chaos_on {
                ChaosConfig { seed: seed ^ 0xc0c0, fault_rate_pm: 700, malicious_pm: 300 }
            } else {
                ChaosConfig::off()
            },
            ..FleetConfig::default()
        };
        let shared = run(&cfg, Mode::Default, 1);
        for workers in [1usize, 4] {
            let private = run(&cfg, Mode::PrivateCode, workers);
            prop_assert_eq!(
                &private.digest, &shared.digest,
                "code-cache sharing leaked into the digest at level {:?}, {} workers, chaos {}",
                level, workers, chaos_on
            );
            prop_assert_eq!(&private.merged.counters, &shared.merged.counters);
            prop_assert_eq!(&private.merged.attribution, &shared.merged.attribution);
            prop_assert_eq!(&private.health, &shared.health);
            prop_assert_eq!(private.total_instret, shared.total_instret);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Campaign outcomes (per-device states, counters, digest) are a
    /// pure function of the config: the memory backing, the code-cache
    /// sharing mode and the worker count must not change which devices
    /// complete, roll back, or how many reboots it took.
    #[test]
    fn campaign_outcome_is_backing_and_worker_invariant(
        seed in 1u64..1_000_000,
        devices in 3usize..6,
        canary_pct in 1u32..100,
        chaos_on in any::<bool>(),
    ) {
        let cfg = FleetConfig {
            devices,
            rounds: 10,
            quantum: 1_000,
            seed,
            attest_every: 2,
            max_retries: u32::MAX,
            campaign: Some(CampaignConfig {
                canary_pct,
                failure_budget: devices as u32,
                ..CampaignConfig::default()
            }),
            chaos: if chaos_on {
                ChaosConfig { seed: seed ^ 0xc0c0, fault_rate_pm: 500, malicious_pm: 0 }
            } else {
                ChaosConfig::off()
            },
            ..FleetConfig::default()
        };
        let reference = run(&cfg, Mode::Default, 1);
        prop_assert_eq!(
            reference.campaign_completed()
                + reference.campaign_rolled_back()
                + reference.campaign_quarantined()
                + reference.campaign_skipped(),
            devices,
            "every device lands in exactly one campaign bucket"
        );
        for (mode, workers) in [(Mode::Default, 4), (Mode::Dense, 1), (Mode::Dense, 4)] {
            let other = run(&cfg, mode, workers);
            prop_assert_eq!(
                &other.digest, &reference.digest,
                "campaign digest diverged: {:?}, {} workers, chaos {}",
                mode, workers, chaos_on
            );
            prop_assert_eq!(&other.campaign_states, &reference.campaign_states);
            prop_assert_eq!(&other.merged.counters, &reference.merged.counters);
            prop_assert_eq!(&other.health, &reference.health);
        }
        let private = run(&cfg, Mode::PrivateCode, 4);
        prop_assert_eq!(&private.digest, &reference.digest);
        prop_assert_eq!(&private.campaign_states, &reference.campaign_states);
    }
}

/// The footprint fields themselves must never enter the digest: two runs
/// differing only in backing agree on the digest even though
/// resident_bytes differ by an order of magnitude.
#[test]
fn footprint_fields_stay_out_of_the_digest() {
    let cfg = FleetConfig {
        devices: 4,
        rounds: 3,
        quantum: 2_000,
        ..FleetConfig::default()
    };
    let sparse = run(&cfg, Mode::Default, 1);
    let dense = run(&cfg, Mode::Dense, 1);
    assert_eq!(sparse.digest, dense.digest);
    assert!(sparse.resident_bytes * 2 < dense.resident_bytes);
    assert_eq!(sparse.addressable_bytes, dense.addressable_bytes);
    assert_eq!(dense.resident_bytes, dense.addressable_bytes);
    assert!(sparse.fork_us_per_device > 0.0);
    // Code-cache footprint follows the same rules: reported, positive,
    // never digested, and the shared mode must be cheaper than running
    // every device on its own private tables.
    let private = run(&cfg, Mode::PrivateCode, 1);
    assert_eq!(private.digest, sparse.digest);
    assert!(sparse.code_cache_bytes > 0);
    assert!(private.code_cache_bytes > 0);
}

/// `tlfleet`'s own defaults, so the fixed matrices below run exactly the
/// configurations the CLI runs for the same flags.
fn tlfleet_defaults() -> FleetConfig {
    FleetConfig {
        devices: 16,
        workers: 1,
        quantum: 10_000,
        rounds: 8,
        attest_every: 4,
        ..FleetConfig::default()
    }
}

/// The `tlfleet --digest` output for `args`: ties each matrix reference
/// below to the CLI invocation it stands for.
fn cli_digest(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tlfleet"))
        .args(args.split_whitespace())
        .arg("--digest")
        .output()
        .expect("spawn tlfleet");
    assert!(out.status.success(), "tlfleet {args} failed");
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .trim()
        .to_string()
}

/// One cell of a fixed matrix: the `tlfleet` arguments of the reference
/// run and the same configuration as a `FleetConfig`.
struct Cell {
    args: String,
    cfg: FleetConfig,
}

/// `--devices 24 --rounds 4 --quantum 2000 --attest-every 1`, with chaos
/// off and with `--chaos 7 --fault-rate 500 --malicious 400
/// --max-retries 1`.
fn fork_matrix() -> [Cell; 2] {
    let args = "--devices 24 --rounds 4 --quantum 2000 --attest-every 1";
    let base = FleetConfig {
        devices: 24,
        rounds: 4,
        quantum: 2_000,
        attest_every: 1,
        ..tlfleet_defaults()
    };
    [
        Cell {
            args: args.to_string(),
            cfg: base.clone(),
        },
        Cell {
            args: format!("{args} --chaos 7 --fault-rate 500 --malicious 400 --max-retries 1"),
            cfg: FleetConfig {
                chaos: ChaosConfig {
                    fault_rate_pm: 500,
                    malicious_pm: 400,
                    ..ChaosConfig::with_seed(7)
                },
                max_retries: 1,
                ..base
            },
        },
    ]
}

/// `--devices 24 --rounds 10 --quantum 1000 --attest-every 2 --campaign
/// --canary-pct 25 --failure-budget 24`, with chaos off and with
/// `--chaos 7 --fault-rate 500 --max-retries 1000000`.
fn campaign_matrix() -> [Cell; 2] {
    let args = "--devices 24 --rounds 10 --quantum 1000 --attest-every 2 \
                --campaign --canary-pct 25 --failure-budget 24";
    let base = FleetConfig {
        devices: 24,
        rounds: 10,
        quantum: 1_000,
        attest_every: 2,
        campaign: Some(CampaignConfig {
            canary_pct: 25,
            failure_budget: 24,
            ..CampaignConfig::default()
        }),
        ..tlfleet_defaults()
    };
    [
        Cell {
            args: args.to_string(),
            cfg: base.clone(),
        },
        Cell {
            args: format!("{args} --chaos 7 --fault-rate 500 --max-retries 1000000"),
            cfg: FleetConfig {
                chaos: ChaosConfig {
                    fault_rate_pm: 500,
                    ..ChaosConfig::with_seed(7)
                },
                max_retries: 1_000_000,
                ..base
            },
        },
    ]
}

/// Runs every `(mode, workers)` variant of each cell and checks its
/// digest against the cell's 1-worker default-mode reference, which must
/// itself equal what `tlfleet` prints for the cell's arguments.
fn assert_matrix(cells: [Cell; 2], variants: &[(Mode, usize)]) {
    for cell in cells {
        let reference = run(&cell.cfg, Mode::Default, 1);
        assert_eq!(
            reference.digest_hex(),
            cli_digest(&cell.args),
            "matrix reference drifted from `tlfleet {}`",
            cell.args
        );
        for &(mode, workers) in variants {
            let other = run(&cell.cfg, mode, workers);
            assert_eq!(
                other.digest_hex(),
                reference.digest_hex(),
                "{mode:?} x {workers} workers moved the digest of `tlfleet {}`",
                cell.args
            );
        }
    }
}

/// Dense memory at 1 and 4 workers, chaos off and on, digests exactly
/// like the default 1-worker fleet.
#[test]
fn fork_matrix_dense_memory_is_invisible() {
    assert_matrix(fork_matrix(), &[(Mode::Dense, 1), (Mode::Dense, 4)]);
}

/// Private code caches at 1 and 4 workers, chaos off and on, digest
/// exactly like the default 1-worker fleet.
#[test]
fn fork_matrix_private_code_is_invisible() {
    assert_matrix(
        fork_matrix(),
        &[(Mode::PrivateCode, 1), (Mode::PrivateCode, 4)],
    );
}

/// Campaign outcomes at 1 and 4 workers on sparse and dense memory,
/// chaos off and on, digest exactly like the 1-worker sparse campaign.
#[test]
fn campaign_matrix_is_worker_and_backing_invariant() {
    assert_matrix(
        campaign_matrix(),
        &[
            (Mode::Default, 1),
            (Mode::Default, 4),
            (Mode::Dense, 1),
            (Mode::Dense, 4),
        ],
    );
}
