//! Per-layer metrics of a traced run: span self-times at each layer
//! boundary, and the counters the layers expose, divided where the work
//! happens.
//!
//! Each traced repetition's time closes to its total: boot + run =
//! fork + execute + verify + merge + unattributed, where unattributed is
//! what no timed call covers.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::workload::{DeviceCounts, Rep};
use crate::{median, quantile, Metric, Noise};

pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Metrics whose source the workload does not have, with the reason.
    /// Their value is printed as -1, never as 0.
    pub unavailable: Vec<(&'static str, &'static str)>,
    /// Median phase times in milliseconds, for the trace file.
    pub phases_ms: Vec<(&'static str, f64)>,
    /// Median execute time of each shard in milliseconds (one entry on a
    /// single device), for the trace file.
    pub shards_ms: Vec<f64>,
}

/// One traced repetition's wall time split into phases, in nanoseconds.
struct Phases {
    boot: f64,
    run: f64,
    fork: f64,
    /// Wall time while devices execute: the quanta of a single device,
    /// or per fleet round the span from the first shard's start to the
    /// last shard's end.
    execute: f64,
    verify: f64,
    merge: f64,
    /// Execution time summed over shards (equals `execute` for one).
    busy: f64,
    /// Execution time of each shard.
    shard_busy: Vec<f64>,
    shard_skew: f64,
    serial_share: f64,
    quantum_us: Vec<f64>,
}

fn phases(tr: &Tracer, rep: &Rep) -> Phases {
    let root = rep.root.expect("traced repetition");
    let child = |parent: usize, name: &str| {
        tr.children(parent)
            .find(|&i| tr.spans[i].name == name)
            .expect("phase span recorded")
    };
    let (boot, run) = (child(root, "boot"), child(root, "run"));
    let sum = |parent: usize, name: &str| -> f64 {
        tr.children(parent)
            .filter(|&i| name.is_empty() || tr.spans[i].name == name)
            .map(|i| tr.spans[i].ns() as f64)
            .sum()
    };
    let fleet = rep.counts.devices > 1;
    let (execute, shard_busy, shard_skew, serial_share, quantum_us);
    if fleet {
        // Per round: (first start, last end, summed shard time).
        let mut rounds: BTreeMap<u64, (u64, u64, f64)> = BTreeMap::new();
        let mut shards: BTreeMap<u32, f64> = BTreeMap::new();
        for i in tr.children(run).filter(|&i| tr.spans[i].name == "execute") {
            let s = &tr.spans[i];
            let r = rounds
                .entry(s.round.unwrap_or(0))
                .or_insert((u64::MAX, 0, 0.0));
            r.0 = r.0.min(s.start_ns);
            r.1 = r.1.max(s.end_ns);
            r.2 += s.ns() as f64;
            *shards.entry(s.shard.unwrap_or(0)).or_default() += s.ns() as f64;
        }
        execute = rounds.values().map(|r| (r.1 - r.0) as f64).sum();
        shard_busy = shards.into_values().collect::<Vec<_>>();
        let busy: f64 = shard_busy.iter().sum();
        let max = shard_busy.iter().copied().fold(0.0, f64::max);
        shard_skew = max / (busy / shard_busy.len().max(1) as f64);
        let total = tr.spans[boot].ns() as f64 + tr.spans[run].ns() as f64;
        serial_share = 1.0 - execute / total;
        let devices = rep.counts.devices as f64;
        quantum_us = rounds.values().map(|r| r.2 / devices / 1e3).collect();
    } else {
        execute = sum(run, "cpu.run");
        shard_busy = vec![execute];
        // One device on one thread: nothing runs in parallel.
        shard_skew = 1.0;
        serial_share = 1.0;
        quantum_us = tr
            .children(run)
            .filter(|&i| tr.spans[i].name == "cpu.run")
            .map(|i| tr.spans[i].ns() as f64 / 1e3)
            .collect();
    }
    Phases {
        boot: tr.spans[boot].ns() as f64,
        run: tr.spans[run].ns() as f64,
        // The engine's fork phase covers master build, Secure Loader and
        // the fork loop; a single device's boot is exactly those calls.
        fork: if fleet {
            sum(boot, "fork")
        } else {
            sum(boot, "")
        },
        execute,
        verify: sum(run, "verify"),
        merge: sum(run, "merge"),
        busy: shard_busy.iter().sum(),
        shard_busy,
        shard_skew,
        serial_share,
        quantum_us,
    }
}

pub fn per_layer(
    tr: &Tracer,
    reps: &[Rep],
    traced: &[Rep],
    dev: &DeviceCounts,
    noise: &Noise,
) -> Layers {
    let ph: Vec<Phases> = traced.iter().map(|r| phases(tr, r)).collect();
    let med = |f: &dyn Fn(&Phases) -> f64| median(&ph.iter().map(f).collect::<Vec<_>>());
    let span_med = |name: &str, scale: f64| median(&tr.durations(name)) / scale;
    let quanta: Vec<f64> = ph.iter().flat_map(|p| p.quantum_us.clone()).collect();
    let c = &traced[0].counts;
    let instret = c.instret as f64;
    let per = |n: u64, d: u64| (d > 0).then(|| n as f64 / d as f64);
    let d = dev;
    let dev_instret = d.instret as f64;
    let lookups = d.block_hits + d.block_misses;
    let wall = |rs: &[Rep]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let mut l = Layers {
        metrics: Vec::new(),
        unavailable: Vec::new(),
        phases_ms: Vec::new(),
        shards_ms: Vec::new(),
    };
    let mut put =
        |name: &'static str, v: Option<f64>, unit: &'static str, why: &'static str| match v
            .filter(|v| v.is_finite())
        {
            Some(v) => l.metrics.push((name, v, unit)),
            None => {
                l.metrics.push((name, -1.0, unit));
                l.unavailable.push((name, why));
            }
        };
    let none = "";
    put(
        "cpu.ns_per_instr",
        Some(med(&|p| p.busy) / instret),
        "ns",
        none,
    );
    put(
        "cpu.quantum_us.p50",
        Some(quantile(&quanta, 0.5)),
        "us",
        none,
    );
    put(
        "cpu.quantum_us.p99",
        Some(quantile(&quanta, 0.99)),
        "us",
        none,
    );
    let no_blocks = "no block lookups";
    put(
        "cpu.block.hit_ratio",
        per(d.block_hits, lookups),
        "ratio",
        no_blocks,
    );
    put(
        "cpu.block.instret_share",
        per(d.block_instret, d.instret),
        "ratio",
        none,
    );
    put(
        "cpu.block.mean_len",
        per(d.block_instret, lookups),
        "instr",
        no_blocks,
    );
    put(
        "cpu.block.build_per_minstr",
        Some(d.block_misses as f64 * 1e6 / dev_instret),
        "1/Minstr",
        none,
    );
    put(
        "cpu.block.flush_per_minstr",
        Some(d.block_flushes as f64 * 1e6 / dev_instret),
        "1/Minstr",
        none,
    );
    put(
        "cpu.predecode.hit_ratio",
        per(d.predecode_hits, d.predecode_hits + d.predecode_misses),
        "ratio",
        "no predecode lookups",
    );
    put(
        "cpu.exc.taken_per_kinstr",
        Some(d.exc_entry.0 as f64 * 1e3 / dev_instret),
        "1/kinstr",
        none,
    );
    put(
        "cpu.exc.entry_cycles_mean",
        per(d.exc_entry.1, d.exc_entry.0),
        "cycles",
        "no exception was taken",
    );
    put(
        "cpu.exc.exit_cycles_mean",
        d.exc_exit.and_then(|(n, sum)| per(sum, n)),
        "cycles",
        if d.exc_exit.is_none() {
            "capture Off does not count exception returns"
        } else {
            "no exception returned"
        },
    );
    put(
        "mpu.checks_per_instr",
        Some(d.mpu_checks as f64 / dev_instret),
        "checks/instr",
        none,
    );
    put("mpu.denials", Some(d.mpu_denials as f64), "count", none);
    put(
        "obs.events_per_instr",
        Some(d.events as f64 / dev_instret),
        "events/instr",
        none,
    );
    put(
        "obs.metrics_report_us",
        Some(span_med("obs.metrics_report", 1e3)),
        "us",
        none,
    );
    put(
        "obs.tracing_overhead",
        Some(wall(traced) / wall(reps)),
        "ratio",
        none,
    );
    put(
        "core.build_ms",
        Some(span_med("core.build", 1e6)),
        "ms",
        none,
    );
    put("core.fork_us", Some(span_med("core.fork", 1e3)), "us", none);
    put(
        "core.diverge_us",
        Some(span_med("core.diverge", 1e3)),
        "us",
        none,
    );
    put(
        "core.reset_us",
        Some(span_med("core.reset", 1e3)),
        "us",
        none,
    );
    put(
        "core.respond_us",
        Some(span_med("core.respond", 1e3)),
        "us",
        none,
    );
    put(
        "core.verify_us",
        Some(span_med("core.verify", 1e3)),
        "us",
        none,
    );
    put(
        "core.attest_fail_share",
        per(c.attest_fail, c.attest_ok + c.attest_fail),
        "ratio",
        none,
    );
    let total = |p: &Phases| p.boot + p.run;
    put("phase.boot_ms", Some(med(&|p| p.boot) / 1e6), "ms", none);
    put("phase.run_ms", Some(med(&|p| p.run) / 1e6), "ms", none);
    put("phase.fork_ms", Some(med(&|p| p.fork) / 1e6), "ms", none);
    put(
        "phase.execute_ms",
        Some(med(&|p| p.execute) / 1e6),
        "ms",
        none,
    );
    put(
        "phase.verify_ms",
        Some(med(&|p| p.verify) / 1e6),
        "ms",
        none,
    );
    put("phase.merge_ms", Some(med(&|p| p.merge) / 1e6), "ms", none);
    put(
        "phase.unattributed_share",
        Some(med(&|p| {
            (total(p) - p.fork - p.execute - p.verify - p.merge) / total(p)
        })),
        "ratio",
        none,
    );
    put(
        "phase.serial_share",
        Some(med(&|p| p.serial_share)),
        "ratio",
        none,
    );
    put(
        "phase.shard_skew",
        Some(med(&|p| p.shard_skew)),
        "ratio",
        none,
    );
    let per_dev = |b: u64| Some(b as f64 / 1024.0 / c.devices as f64);
    put(
        "mem.resident_growth_kib_per_device",
        per_dev(c.resident_growth_bytes),
        "KiB",
        none,
    );
    put(
        "mem.code_cache_kib_per_device",
        per_dev(c.code_cache_bytes),
        "KiB",
        none,
    );
    put(
        "digest.us_per_device",
        Some(span_med("digest", 1e3)),
        "us",
        none,
    );
    put("host.wall_cpu_ratio", Some(noise.ratio), "ratio", none);
    put(
        "host.noisy_share",
        Some(noise.noisy as f64 / noise.reps as f64),
        "ratio",
        none,
    );

    for (name, f) in [
        ("boot", &(|p: &Phases| p.boot) as &dyn Fn(&Phases) -> f64),
        ("run", &|p| p.run),
        ("fork", &|p| p.fork),
        ("execute", &|p| p.execute),
        ("verify", &|p| p.verify),
        ("merge", &|p| p.merge),
        ("unattributed", &|p| {
            total(p) - p.fork - p.execute - p.verify - p.merge
        }),
    ] {
        l.phases_ms.push((name, med(f) / 1e6));
    }
    let shards = ph.iter().map(|p| p.shard_busy.len()).max().unwrap_or(0);
    l.shards_ms = (0..shards)
        .map(|i| med(&|p| p.shard_busy.get(i).copied().unwrap_or(0.0)) / 1e6)
        .collect();
    l
}
