//! End-to-end benchmark of the Alchemist reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload ckks_apps --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Three seeded workloads drive the public APIs of `service`, `fhe-ckks`,
//! `fhe-tfhe` and `bridge`; every result is checked against its cleartext
//! reference. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same workload with calls into each layer timed from this crate, adds
//! short passes of the other workloads for the layers it does not reach,
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object; the exit code is non-zero if any result failed its check.
//!
//! `BENCHMARK.json` lists `ckks_apps` and `cross_scheme` only. On a shared
//! 2-vCPU host, ten seeds of `serve_skewed` spread by 45% (IQR over
//! median) in `job_tail_ms` and 17% in `jobs_per_s`: its two workers run
//! memory-bound N = 2^13 requests side by side, and their slowdown follows
//! the host. It still runs by name, and every traced run measures the
//! service layer through it.

mod apps;
mod cross;
mod layers;
mod report;
mod serve;
mod single;

use report::{metric, Outcome, Tracer};

/// Workload arguments.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median and the fixed job set
    /// must give bit-identical results in each.
    pub setups: usize,
}

const WORKLOADS: [&str; 3] = ["serve_skewed", "ckks_apps", "cross_scheme"];
const SETUPS: usize = 3;
/// Timed seconds of the short passes a traced run adds for the layers its
/// own workload does not reach.
const COMPANION_SECONDS: f64 = 3.0;

/// Per-layer metrics in report order, with the end-to-end metric and
/// workload each one should move.
const PER_LAYER: [(&str, &str); 29] = [
    ("service.submit_us", "job_p50_ms on serve_skewed"),
    ("service.compile_us", "job_p50_ms on serve_skewed"),
    ("service.plan_gate_us", "job_p50_ms on serve_skewed"),
    ("service.exec_ckks_ms", "jobs_per_s (max rate) and job_p50_ms on serve_skewed"),
    ("service.exec_tfhe_ms", "jobs_per_s (max rate) and job_p50_ms on serve_skewed"),
    ("service.keygen_ms", "job_tail_ms on serve_skewed (cold tenants)"),
    ("service.keycache_hit_rate", "job_tail_ms on serve_skewed"),
    ("service.pack_ratio", "jobs_per_s (max rate) on serve_skewed"),
    ("service.reject_share", "job_tail_ms near the max rate on serve_skewed"),
    ("service.backlog_max", "job_tail_ms near the max rate on serve_skewed"),
    ("service.generator_lag_ms", "job_tail_ms near the max rate on serve_skewed"),
    ("fhe_math.ntt_fwd_n8192_us", "jobs_per_s (max rate) on serve_skewed"),
    ("fhe_math.modup_n8192_us", "jobs_per_s (max rate) on serve_skewed"),
    ("fhe_ckks.encode_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.encrypt_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.decrypt_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.lola_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.helr_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.bootstrap_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.rotate_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.mul_relin_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_ckks.rescale_ms", "job_p50_ms and jobs_per_s on ckks_apps"),
    ("fhe_math.ntt_fwd_n512_us", "job_p50_ms on ckks_apps"),
    ("fhe_math.modup_n512_us", "job_p50_ms on ckks_apps"),
    ("fhe_tfhe.pbs_ms", "job_p50_ms and jobs_per_s on cross_scheme"),
    ("fhe_tfhe.polymul_us", "job_p50_ms and jobs_per_s on cross_scheme"),
    ("bridge.switch_ms", "job_p50_ms and jobs_per_s on cross_scheme"),
    ("fhe_tfhe.keygen_s", "setup_s on cross_scheme"),
    ("core.modeled_us", "no host time; must repeat exactly for a given seed"),
];

/// What a change to one mechanism should move, and what it should leave
/// alone; printed with the traced run's table.
const INTERACTIONS: [&str; 4] = [
    "fhe_math::par kernel threads: job_p50_ms on ckks_apps and cross_scheme, where the second \
     core is idle; not serve_skewed, whose workers fill the cores with kernels pinned",
    "key cache or slot packer: serve_skewed only",
    "fhe-tfhe (PBS, key switching): cross_scheme only",
    "queue-wait and stage times inside the server need spans in the program; not measured here",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2e --workload <serve_skewed|ckks_apps|cross_scheme> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// splitmix64 of `seed` and a stream index: independent sub-seeds for
/// every input the workloads draw.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_workload(name: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "serve_skewed" => serve::run(cfg, tracer),
        "ckks_apps" => apps::run(cfg, tracer),
        "cross_scheme" => cross::run(cfg, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the workload itself, then short passes of the others,
/// then the modeled time; per-layer metrics in [`PER_LAYER`] order.
fn traced(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    for m in &outcome.end_to_end {
        println!("traced end-to-end {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for other in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
        println!("companion pass for the {other} layers ({COMPANION_SECONDS} s)");
        let cfg = RunConfig { seed: args.seed, seconds: COMPANION_SECONDS, setups: 1 };
        let mut tracer = Tracer::new(true);
        let o = run_workload(other, &cfg, &mut tracer)?;
        outcome.attempted += o.attempted;
        outcome.failed += o.failed;
        outcome.per_layer.extend(o.per_layer);
    }
    let modeled = layers::modeled_us(&serve::fixed_plans(args.seed)?);
    outcome.per_layer.push(metric("core.modeled_us", modeled, "us"));
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    println!("{:<28} {:>14}  {:<8} should move", "layer metric", "value", "unit");
    for (name, moves) in PER_LAYER {
        let m = outcome
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("traced run did not measure {name}"))?;
        println!("{:<28} {:>14.4}  {:<8} {moves}", m.name, m.value, m.unit);
        ordered.push(m.clone());
    }
    for line in INTERACTIONS {
        println!("expected: {line}");
    }
    outcome.per_layer = ordered;
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = RunConfig { seed: args.seed, seconds: args.seconds, setups: SETUPS };
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match run_workload(&args.workload, &cfg, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        if let Err(e) = traced(&args, &mut outcome) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    } else {
        for m in &outcome.end_to_end {
            println!("{:<16} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    report::print(&outcome, args.trace);
    std::process::exit(if outcome.failed == 0 { 0 } else { 1 });
}
