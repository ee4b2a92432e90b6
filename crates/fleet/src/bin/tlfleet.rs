//! `tlfleet` — boot and run a TrustLite device fleet from the command
//! line.
//!
//! ```text
//! tlfleet [--devices N] [--workers N] [--rounds N] [--quantum N]
//!         [--seed N] [--workload NAME] [--level off|metrics|events|full]
//!         [--attest-every N] [--chaos SEED] [--fault-rate PM]
//!         [--malicious PM] [--max-retries N] [--timeout-rounds N]
//!         [--trace-level off|spans|full] [--trace-jsonl PATH]
//!         [--chrome-trace PATH] [--campaign] [--canary-pct N]
//!         [--failure-budget N] [--rollback-report] [--digest]
//!         [--expect HEX] [--json]
//! ```
//!
//! `--digest` prints only the aggregate digest (CI compares this across
//! worker counts); `--expect HEX` additionally compares it against a
//! reference and exits nonzero (printing both and the trace level, since
//! a level-dependent digest would be an observation-perturbs bug) on
//! mismatch. `--json` prints the full merged report. `--chaos SEED`
//! enables deterministic fault injection; `--fault-rate`/`--malicious`
//! tune the per-mille rates (defaults 150‰ each when `--chaos` is
//! given). `--trace-jsonl` writes the mixed span/histogram/flight-dump
//! trace (pipe into `tlstats`); `--chrome-trace` writes a Chrome
//! `trace_event` timeline with one lane per engine shard and per device.
//! Either trace sink implies `--trace-level spans` unless a level was
//! given explicitly.
//!
//! `--campaign` runs a firmware-update campaign over the fleet: A/B
//! slots, canary/ramp waves (`--canary-pct`, default 25), an attested
//! re-measurement commit gate and a rollback circuit breaker
//! (`--failure-budget`, default 8). `--rollback-report` additionally
//! prints each device's campaign outcome and the update counters.

use trustlite::TrustliteError;
use trustlite_chaos::ChaosConfig;
use trustlite_fleet::{chrome_trace, trace_jsonl, CampaignConfig, Fleet, FleetConfig, TraceLevel};
use trustlite_obs::ObsLevel;

fn usage() -> ! {
    eprintln!(
        "usage: tlfleet [--devices N] [--workers N] [--rounds N] [--quantum N]\n\
         \x20              [--seed N] [--workload NAME] [--level off|metrics|events|full]\n\
         \x20              [--attest-every N] [--chaos SEED] [--fault-rate PM]\n\
         \x20              [--malicious PM] [--max-retries N] [--timeout-rounds N]\n\
         \x20              [--trace-level off|spans|full] [--trace-jsonl PATH]\n\
         \x20              [--chrome-trace PATH] [--campaign] [--canary-pct N]\n\
         \x20              [--failure-budget N] [--rollback-report] [--digest]\n\
         \x20              [--expect HEX] [--json]"
    );
    std::process::exit(2);
}

fn parse_level(s: &str) -> ObsLevel {
    match s {
        "off" => ObsLevel::Off,
        "metrics" => ObsLevel::Metrics,
        "events" => ObsLevel::Events,
        "full" => ObsLevel::Full,
        _ => usage(),
    }
}

fn main() {
    let mut cfg = FleetConfig {
        devices: 16,
        workers: 1,
        quantum: 10_000,
        rounds: 8,
        attest_every: 4,
        ..FleetConfig::default()
    };
    let mut digest_only = false;
    let mut json = false;
    let mut expect: Option<String> = None;
    let mut fault_rate: Option<u64> = None;
    let mut malicious: Option<u64> = None;
    let mut trace_level: Option<TraceLevel> = None;
    let mut trace_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut campaign = false;
    let mut canary_pct: Option<u32> = None;
    let mut failure_budget: Option<u32> = None;
    let mut rollback_report = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--devices" => cfg.devices = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rounds" => cfg.rounds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quantum" => cfg.quantum = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workload" => cfg.workload = value(&mut i),
            "--level" => cfg.level = parse_level(&value(&mut i)),
            "--attest-every" => {
                cfg.attest_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos" => {
                let seed = value(&mut i).parse().unwrap_or_else(|_| usage());
                cfg.chaos = ChaosConfig::with_seed(seed);
            }
            "--fault-rate" => fault_rate = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--malicious" => malicious = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--max-retries" => cfg.max_retries = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--timeout-rounds" => {
                cfg.timeout_rounds = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--trace-level" => {
                trace_level = Some(TraceLevel::parse(&value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--trace-jsonl" => trace_path = Some(value(&mut i)),
            "--chrome-trace" => chrome_path = Some(value(&mut i)),
            "--campaign" => campaign = true,
            "--canary-pct" => canary_pct = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--failure-budget" => {
                failure_budget = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--rollback-report" => rollback_report = true,
            "--digest" => digest_only = true,
            "--expect" => expect = Some(value(&mut i)),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(pm) = fault_rate {
        cfg.chaos.fault_rate_pm = pm.min(trustlite_chaos::PER_MILLE);
    }
    if let Some(pm) = malicious {
        cfg.chaos.malicious_pm = pm.min(trustlite_chaos::PER_MILLE);
    }
    if campaign || canary_pct.is_some() || failure_budget.is_some() {
        let mut c = CampaignConfig::default();
        if let Some(pct) = canary_pct {
            c.canary_pct = pct.min(100);
        }
        if let Some(budget) = failure_budget {
            c.failure_budget = budget;
        }
        cfg.campaign = Some(c);
    }
    cfg.trace = match trace_level {
        Some(level) => level,
        // Asking for a trace sink implies collecting spans.
        None if trace_path.is_some() || chrome_path.is_some() => TraceLevel::Spans,
        None => TraceLevel::Off,
    };

    let chaos_on = cfg.chaos.enabled();
    let level = cfg.level;
    let campaign_desc = cfg.campaign.as_ref().map(|c| {
        format!(
            "campaign(canary {}%, failure budget {}, {} confirm attempts, version {})",
            c.canary_pct, c.failure_budget, c.max_confirm_attempts, c.version
        )
    });
    let fleet = match Fleet::boot(cfg) {
        Ok(f) => f,
        Err(e @ TrustliteError::UnknownWorkload(_)) => {
            eprintln!("tlfleet: {e}");
            usage();
        }
        Err(e) => {
            eprintln!("tlfleet: boot failed: {e}");
            std::process::exit(1);
        }
    };
    let report = fleet.run();

    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, trace_jsonl(&report)) {
            eprintln!("tlfleet: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &chrome_path {
        if let Err(e) = std::fs::write(path, chrome_trace(&report)) {
            eprintln!("tlfleet: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(want) = &expect {
        let got = report.digest_hex();
        if &got != want {
            // Name the campaign config in the mismatch: campaign state
            // bytes enter the digest, so comparing a campaign digest
            // against a non-campaign reference (or different knobs) is
            // the first thing to rule out.
            eprintln!(
                "tlfleet: digest mismatch (trace level {}, {})\n  \
                 expected: {want}\n  actual:   {got}",
                report.trace_level.name(),
                campaign_desc.as_deref().unwrap_or("no campaign"),
            );
            std::process::exit(1);
        }
    }
    if digest_only {
        println!("{}", report.digest_hex());
    } else if json {
        print!("{}", report.to_json());
    } else {
        println!("{}", report.summary());
        println!("{}", report.health_line());
        if report.campaign {
            println!("{}", report.campaign_line());
        }
        println!("{}", report.memory_line());
        if !report.flight_dumps.is_empty() {
            println!("flight dumps captured: {}", report.flight_dumps.len());
        }
        // The loader counts its runs in the metrics registry, which
        // capture Off leaves empty: say so instead of printing a zero.
        let loader_runs = match level {
            ObsLevel::Off => "n/a (telemetry off)".to_string(),
            _ => {
                let runs = report.merged.counters.get("loader.runs").copied();
                runs.unwrap_or(0).to_string()
            }
        };
        println!("loader runs (merged): {loader_runs}");
        if rollback_report && report.campaign {
            for (id, s) in report.campaign_states.iter().enumerate() {
                println!("device {id}: {}", s.label());
            }
            for counter in [
                "campaign.staged",
                "campaign.reboots",
                "campaign.confirmed",
                "campaign.rollbacks",
                "campaign.forced_rollbacks",
                "campaign.gate_retries",
                "chaos.update_bit_flips",
                "chaos.update_stale_replays",
                "chaos.update_crash_resets",
            ] {
                println!(
                    "{counter}: {}",
                    report.merged.counters.get(counter).copied().unwrap_or(0)
                );
            }
        }
        if chaos_on {
            println!(
                "chaos resets injected: {}",
                report
                    .merged
                    .counters
                    .get("chaos.crash_resets")
                    .copied()
                    .unwrap_or(0)
            );
            for reason in [
                "attest.reject.bad_measurement",
                "attest.reject.bad_tag",
                "attest.reject.timeout",
            ] {
                println!(
                    "{reason}: {}",
                    report.merged.counters.get(reason).copied().unwrap_or(0)
                );
            }
        }
    }
}
