//! The TrustLite simulator benchmark.
//!
//! ```text
//! perfbench --workload kernel|preempt|fleet --seed N --seconds S --trace 0|1
//! perfbench --workload W --seed N --emit-pin
//! ```
//!
//! Repeats one workload for `S` seconds and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run first measures untraced repetitions for half
//! its budget (the base of `obs.tracing_overhead`), then traced ones, and
//! writes its spans to `perfbench/traces/<workload>-seed<N>.json`.
//! `--emit-pin` prints one repetition's outputs as a `pins.txt` row.
//!
//! Every repetition's outputs must equal the row pinned in `pins.txt`
//! (or, for a fleet seed without a row, the first repetition's) and keep
//! the workload's invariants; otherwise it counts as failed.

mod layers;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use trustlite_bench::timing::{is_noisy, wall_cpu_ratio};

use crate::trace::Tracer;
use crate::workload::{Outputs, Rep, Single};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Kernel,
    Preempt,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "kernel" => Workload::Kernel,
            "preempt" => Workload::Preempt,
            "fleet" => Workload::Fleet,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Kernel => "kernel",
            Workload::Preempt => "preempt",
            Workload::Fleet => "fleet",
        }
    }

    fn single(self) -> Option<&'static Single> {
        match self {
            Workload::Kernel => Some(&workload::KERNEL),
            Workload::Preempt => Some(&workload::PREEMPT),
            Workload::Fleet => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_pin: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload kernel|preempt|fleet --seed N --seconds S --trace 0|1 [--emit-pin]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut emit_pin) =
        (None, None, 10.0, false, false);
    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => {
                let v = val(i);
                workload =
                    Some(Workload::parse(&v).unwrap_or_else(|| usage(&format!("no workload {v}"))));
                i += 1;
            }
            "--seed" => {
                seed = Some(val(i).parse().unwrap_or_else(|_| usage("bad --seed")));
                i += 1;
            }
            "--seconds" => {
                seconds = val(i)
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .unwrap_or_else(|| usage("--seconds must be in (0, 120]"));
                i += 1;
            }
            "--trace" => {
                trace = match val(i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
                i += 1;
            }
            "--emit-pin" => emit_pin = true,
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
        emit_pin,
    }
}

/// The pinned outputs for `(workload, seed)` from `pins.txt`; a `*` seed
/// pins every seed.
fn pinned(workload: &str, seed: u64) -> Option<Vec<(String, String)>> {
    include_str!("../pins.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s) = (f.next()?, f.next()?);
            (w == workload && (s == "*" || s.parse() == Ok(seed))).then(|| {
                f.filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect()
            })
        })
}

fn same(out: &Outputs, reference: &[(String, String)]) -> bool {
    out.len() == reference.len()
        && out
            .iter()
            .zip(reference)
            .all(|((k, v), (rk, rv))| k == rk && v == rv)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; NaN for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

struct Ctx {
    workload: Workload,
    seed: u64,
    enrolment: Vec<[u8; 32]>,
}

impl Ctx {
    fn rep(&self, tr: &mut Tracer) -> Rep {
        match self.workload.single() {
            Some(w) => workload::single_rep(w, self.seed, &self.enrolment, tr),
            None => workload::fleet_rep(self.seed, tr),
        }
    }
}

/// Repeats until `budget` has passed since `start` and at least `min`
/// repetitions ran.
fn repeat(ctx: &Ctx, tr: &mut Tracer, start: Instant, budget: Duration, min: usize) -> Vec<Rep> {
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed() < budget {
        reps.push(ctx.rep(tr));
    }
    reps
}

fn main() {
    let args = parse_args();
    let wl = args.workload;
    let (guest, level) = match wl.single() {
        Some(w) => (w.guest, w.level),
        None => (workload::FLEET_GUEST, workload::FLEET_LEVEL),
    };
    let ctx = Ctx {
        workload: wl,
        seed: args.seed,
        enrolment: workload::enrolment(guest, level),
    };

    if args.emit_pin {
        let rep = ctx.rep(&mut Tracer::new(false));
        let mut row = format!("{} {}", wl.name(), args.seed);
        for (k, v) in &rep.out {
            let _ = write!(row, " {k}={v}");
        }
        println!("{row}");
        return;
    }

    // One warm-up repetition lets lazy host set-up (allocator arenas,
    // worker stacks) finish before timing; its outputs are still checked.
    let warmup = ctx.rep(&mut Tracer::new(false));
    let start = Instant::now();
    let total = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { total / 2 } else { total };
    let reps = repeat(&ctx, &mut Tracer::new(false), start, untraced_budget, 3);
    let mut tr = Tracer::new(true);
    let mut probes = Vec::new();
    let traced = if args.trace {
        let mut traced = Vec::new();
        while traced.is_empty() || start.elapsed() < total {
            traced.push(ctx.rep(&mut tr));
            if wl == Workload::Fleet {
                probes.push(workload::fleet_probe(ctx.seed, &ctx.enrolment, &mut tr));
            }
        }
        traced
    } else {
        Vec::new()
    };

    // Output checks: every repetition, traced or not, must reproduce the
    // pinned outputs and keep the workload's invariants.
    let pin = pinned(wl.name(), args.seed);
    let reference: Vec<(String, String)> = pin.clone().unwrap_or_else(|| {
        warmup
            .out
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    });
    let mut failed = 0u64;
    for (i, r) in std::iter::once(&warmup)
        .chain(&reps)
        .chain(&traced)
        .enumerate()
    {
        let matches = same(&r.out, &reference);
        if !matches || !r.broken.is_empty() {
            failed += 1;
            if failed <= 3 {
                eprintln!(
                    "perfbench: repetition {i} failed: outputs {:?}{}; broken invariants {:?}",
                    r.out,
                    if matches {
                        ""
                    } else {
                        " differ from the reference"
                    },
                    r.broken
                );
            }
        }
    }
    for (_, broken) in probes.iter().filter(|(_, b)| !b.is_empty()) {
        failed += 1;
        eprintln!("perfbench: fleet probe failed: {broken:?}");
    }
    if pin.is_none() {
        eprintln!(
            "perfbench: no pinned outputs for {} seed {}: checked invariants and that every repetition agrees",
            wl.name(),
            args.seed
        );
    }
    let attempted = (1 + reps.len() + traced.len() + probes.len()) as u64;

    let noise = Noise::of(&reps);
    eprintln!(
        "perfbench: {} {} repetitions (+{} traced); wall/cpu median {:.3}, noisy {}/{}",
        wl.name(),
        reps.len(),
        traced.len(),
        noise.ratio,
        noise.noisy,
        reps.len()
    );

    let metrics = if args.trace {
        let dev = traced[0].device.as_ref().or(probes.first().map(|(d, _)| d));
        let l = layers::per_layer(&tr, &reps, &traced, dev.expect("device counters"), &noise);
        write_trace(&args, &tr, &l, &reps, &traced, &reference);
        l.metrics
    } else {
        end_to_end(&reps)
    };

    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    );
}

/// Wall time against CPU time of the run phase, over untraced
/// repetitions. CPU time is summed over the load threads, so a parallel
/// run reads below 1 unless its threads were kept off the CPU; dividing
/// by the thread count instead would flag every fleet repetition, whose
/// serial verifier phase leaves one worker idle by design.
pub struct Noise {
    pub ratio: f64,
    pub noisy: usize,
    pub reps: usize,
}

impl Noise {
    fn of(reps: &[Rep]) -> Noise {
        let ratios: Vec<f64> = reps
            .iter()
            .map(|r| wall_cpu_ratio(r.wall_s * 1e3, r.cpu_s * 1e3))
            .collect();
        Noise {
            ratio: median(&ratios),
            noisy: reps
                .iter()
                .filter(|r| is_noisy(r.wall_s * 1e3, r.cpu_s * 1e3))
                .count(),
            reps: reps.len(),
        }
    }
}

pub type Metric = (&'static str, f64, &'static str);

/// Throughputs are the best repetition's: every repetition does the same
/// deterministic work, and host contention only ever slows one down.
/// Set-up time is the median set-up.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let best = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).fold(f64::MIN, f64::max);
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let judged = |r: &Rep| (r.counts.attest_ok + r.counts.attest_fail) as f64;
    vec![
        (
            "sim_mips",
            best(&|r| r.counts.instret as f64 / r.cpu_s / 1e6),
            "MIPS",
        ),
        ("setup_s", med(&|r| r.setup_s), "s"),
        ("attest_per_s", best(&|r| judged(r) / r.cpu_s), "1/s"),
        (
            "attest_ok_share",
            med(&|r| r.counts.attest_ok as f64 / judged(r)),
            "ratio",
        ),
        (
            "sim_cpi",
            med(&|r| r.counts.cycles as f64 / r.counts.instret as f64),
            "cycles/instr",
        ),
        (
            "resident_kib_per_device",
            med(&|r| r.resident_kib_per_device),
            "KiB",
        ),
    ]
}

fn write_trace(
    args: &Args,
    tr: &Tracer,
    l: &layers::Layers,
    reps: &[Rep],
    traced: &[Rep],
    reference: &[(String, String)],
) {
    let mut o = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {},\n",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let list = |v: &mut dyn Iterator<Item = String>| v.collect::<Vec<_>>().join(", ");
    let _ = writeln!(
        o,
        "\"outputs\": {{{}}},",
        list(&mut reference.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")))
    );
    let rep_rows = |rs: &[Rep]| {
        list(&mut rs.iter().map(|r| {
            format!(
                "{{\"setup_s\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"threads\": {}, \"noisy\": {}}}",
                r.setup_s,
                r.wall_s,
                r.cpu_s,
                r.threads,
                is_noisy(r.wall_s * 1e3, r.cpu_s * 1e3)
            )
        }))
    };
    let _ = writeln!(o, "\"untraced\": [{}],", rep_rows(reps));
    let _ = writeln!(o, "\"traced\": [{}],", rep_rows(traced));
    let _ = writeln!(
        o,
        "\"per_layer\": {{{}}},",
        list(
            &mut l
                .metrics
                .iter()
                .map(|(n, v, u)| { format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}") })
        )
    );
    let _ = writeln!(
        o,
        "\"unavailable\": {{{}}},",
        list(
            &mut l
                .unavailable
                .iter()
                .map(|(n, why)| format!("\"{n}\": \"{why}\""))
        )
    );
    let _ = writeln!(
        o,
        "\"phases_ms\": {{{}}},",
        list(&mut l.phases_ms.iter().map(|(n, v)| format!("\"{n}\": {v}")))
    );
    let _ = writeln!(
        o,
        "\"execute_by_shard_ms\": [{}],",
        list(&mut l.shards_ms.iter().map(|v| v.to_string()))
    );
    let _ = writeln!(o, "\"spans\": {}}}", tr.to_json());
    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, o)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("perfbench: spans written to {}", path.display());
}
