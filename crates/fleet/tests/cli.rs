//! CLI-level behavior of `tlfleet`: degenerate configurations must exit
//! nonzero with a named error, `--expect` must turn a digest mismatch
//! into a nonzero exit that prints both digests and the trace level,
//! and the trace sinks must write schema-valid streams without moving
//! the digest.

use std::process::Command;

fn tlfleet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tlfleet"))
}

/// Small-but-real fleet arguments shared by the digest tests (debug
/// profile: keep the work tiny).
const SMALL: [&str; 8] = [
    "--devices",
    "4",
    "--rounds",
    "2",
    "--quantum",
    "1000",
    "--workers",
    "2",
];

#[test]
fn zero_devices_is_a_named_boot_failure() {
    let out = tlfleet()
        .args(["--devices", "0"])
        .output()
        .expect("spawn tlfleet");
    assert!(!out.status.success(), "devices=0 must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("boot failed"), "stderr: {stderr}");
    assert!(
        stderr.contains("`devices` must be nonzero"),
        "the failing knob must be named: {stderr}"
    );
}

#[test]
fn zero_rounds_is_a_named_boot_failure() {
    let out = tlfleet()
        .args(["--rounds", "0"])
        .output()
        .expect("spawn tlfleet");
    assert!(!out.status.success(), "rounds=0 must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`rounds` must be nonzero"),
        "the failing knob must be named: {stderr}"
    );
}

#[test]
fn unknown_workload_is_a_usage_error_not_a_panic() {
    let out = tlfleet()
        .args(["--workload", "nope"])
        .output()
        .expect("spawn tlfleet");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown workload is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown workload `nope`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: tlfleet"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn expect_matching_digest_succeeds() {
    let out = tlfleet()
        .args(SMALL)
        .arg("--digest")
        .output()
        .expect("spawn tlfleet");
    assert!(out.status.success());
    let digest = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert_eq!(digest.len(), 64, "digest is 32 hex bytes: {digest}");

    let out = tlfleet()
        .args(SMALL)
        .args(["--digest", "--expect", &digest])
        .output()
        .expect("spawn tlfleet");
    assert!(
        out.status.success(),
        "matching --expect must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn expect_mismatch_prints_both_digests_and_fails() {
    let bogus = "0".repeat(64);
    let out = tlfleet()
        .args(SMALL)
        .args(["--digest", "--expect", &bogus])
        .output()
        .expect("spawn tlfleet");
    assert!(!out.status.success(), "digest mismatch must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("digest mismatch"), "stderr: {stderr}");
    assert!(stderr.contains(&bogus), "expected digest printed: {stderr}");
    assert!(
        stderr.contains("actual:"),
        "actual digest printed: {stderr}"
    );
    // An observation-perturbs bug is diagnosed from this line alone, so
    // the mismatch names the trace level the run was captured at, and
    // whether campaign bytes entered the digest.
    assert!(
        stderr.contains("(trace level off, no campaign)"),
        "trace level printed on mismatch: {stderr}"
    );
}

#[test]
fn expect_mismatch_names_the_active_trace_level() {
    let bogus = "0".repeat(64);
    let out = tlfleet()
        .args(SMALL)
        .args(["--trace-level", "full", "--digest", "--expect", &bogus])
        .output()
        .expect("spawn tlfleet");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("(trace level full,"),
        "mismatch at full must say so: {stderr}"
    );
}

#[test]
fn expect_mismatch_names_the_campaign_config() {
    let bogus = "0".repeat(64);
    let out = tlfleet()
        .args(SMALL)
        .args(["--campaign", "--digest", "--expect", &bogus])
        .output()
        .expect("spawn tlfleet");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Campaign state bytes enter the digest, so a mismatch against a
    // non-campaign reference must be diagnosable from this line alone.
    assert!(
        stderr.contains("campaign(canary 25%, failure budget 8"),
        "campaign config printed on mismatch: {stderr}"
    );
}

#[test]
fn trace_level_never_moves_the_digest() {
    let digest_at = |extra: &[&str]| {
        let out = tlfleet()
            .args(SMALL)
            .args(["--chaos", "9", "--fault-rate", "700", "--malicious", "300"])
            .args(extra)
            .arg("--digest")
            .output()
            .expect("spawn tlfleet");
        assert!(out.status.success(), "{:?}", extra);
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    let off = digest_at(&[]);
    assert_eq!(off, digest_at(&["--trace-level", "spans"]));
    assert_eq!(off, digest_at(&["--trace-level", "full"]));
}

#[test]
fn trace_jsonl_is_schema_valid_and_chrome_trace_is_json() {
    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("tlfleet-cli-{}.jsonl", std::process::id()));
    let chrome = dir.join(format!("tlfleet-cli-{}.chrome.json", std::process::id()));
    let out = tlfleet()
        .args(SMALL)
        .args(["--chaos", "9", "--fault-rate", "700", "--malicious", "300"])
        .args(["--trace-level", "full"])
        .args(["--trace-jsonl", jsonl.to_str().unwrap()])
        .args(["--chrome-trace", chrome.to_str().unwrap()])
        .output()
        .expect("spawn tlfleet");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = std::fs::read_to_string(&jsonl).expect("trace written");
    let records = trustlite_obs::parse_trace(&doc).expect("stream satisfies the schema");
    assert!(
        records
            .iter()
            .any(|r| matches!(r, trustlite_obs::TraceRecord::Meta(_))),
        "meta line present"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r, trustlite_obs::TraceRecord::Span(_))),
        "span lines present"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r, trustlite_obs::TraceRecord::Hist(_))),
        "histogram lines present"
    );

    // The Chrome timeline is one JSON array of objects with the
    // trace_event phase field.
    let chrome_doc = std::fs::read_to_string(&chrome).expect("chrome trace written");
    match trustlite_obs::json::parse(&chrome_doc).expect("chrome trace is valid JSON") {
        trustlite_obs::json::Json::Arr(events) => {
            assert!(!events.is_empty());
            for e in &events {
                assert!(e.get("ph").is_some(), "every event carries a phase");
            }
        }
        other => panic!("chrome trace must be an array, got {other:?}"),
    }

    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn chaos_run_reports_health_and_reject_counters() {
    let out = tlfleet()
        .args(SMALL)
        .args(["--chaos", "9", "--fault-rate", "800", "--malicious", "400"])
        .output()
        .expect("spawn tlfleet");
    assert!(out.status.success(), "chaos run itself must succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("health: "), "health line present: {stdout}");
    assert!(
        stdout.contains("loader runs (merged): "),
        "loader line present: {stdout}"
    );
    assert!(
        stdout.contains("chaos resets injected: "),
        "reset line present: {stdout}"
    );
    assert!(
        stdout.contains("attest.reject.bad_tag: "),
        "reject counters present: {stdout}"
    );
}

#[test]
fn default_output_reports_the_memory_footprint() {
    let out = tlfleet().args(SMALL).output().expect("spawn tlfleet");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mem = stdout
        .lines()
        .find(|l| l.starts_with("memory: "))
        .unwrap_or_else(|| panic!("no memory line in: {stdout}"));
    assert!(mem.contains("sparse"), "default backing is sparse: {mem}");
    assert!(mem.contains("us/device"), "fork timing missing: {mem}");
}

#[test]
fn reference_mode_flags_are_not_options() {
    // Dense memory and private code caches are test seams
    // (`Fleet::boot_with`), not fleet configurations.
    for flag in ["--dense-mem", "--private-code"] {
        let out = tlfleet()
            .args(SMALL)
            .arg(flag)
            .output()
            .expect("spawn tlfleet");
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: tlfleet"),
            "{flag} must print usage"
        );
    }
}

#[test]
fn loader_runs_are_unavailable_at_capture_off_not_zero() {
    let loader_line = |level: &str| {
        let out = tlfleet()
            .args(SMALL)
            .args(["--level", level])
            .output()
            .expect("spawn tlfleet");
        assert!(out.status.success(), "--level {level} run must succeed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.strip_prefix("loader runs (merged): ").map(str::to_string))
            .unwrap_or_else(|| panic!("--level {level}: no loader line"))
    };
    // The loader ran at boot either way; capture Off just did not count it.
    assert_eq!(loader_line("off"), "n/a (telemetry off)");
    let runs: u64 = loader_line("metrics")
        .parse()
        .expect("capture Metrics reports a number");
    assert!(runs >= 1, "the boot itself is a loader run");
}
