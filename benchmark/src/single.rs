//! The driver shared by the single-client workloads: one client, one job at
//! a time, on the default kernel thread budget.

use std::time::Instant;

use crate::report::{self, metric, Outcome, Tracer};
use crate::{derive_seed, RunConfig};

/// Jobs in the fixed seeded job set, run in every set-up.
const FIXED_JOBS: u64 = 2;
/// Precision reported for an exact result.
const PRECISION_CAP: f64 = 52.0;

/// Builds the workload's rig `cfg.setups` times, running the fixed job set
/// in each (it doubles as warm-up and must give bit-identical results every
/// time), then runs jobs back to back on the last rig for `cfg.seconds`.
///
/// `build` makes a rig from a seed; `job` runs one job on inputs drawn from
/// a seed and returns its largest error against the cleartext reference,
/// or what failed. Seeds come from `stream` and up, so workloads draw
/// independent inputs from one `--seed`.
pub fn run<R>(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    describe: &str,
    stream: u64,
    mut build: impl FnMut(u64, &mut Tracer) -> Result<R, String>,
    job: impl Fn(&R, u64, &mut Tracer) -> Result<f64, String>,
) -> Result<(R, Outcome), String> {
    fhe_math::par::set_max_threads(0);
    println!("{describe}; kernel_threads={}", fhe_math::par::max_threads());

    let rig_seed = derive_seed(cfg.seed, stream);
    let fixed_seeds: Vec<u64> =
        (0..FIXED_JOBS).map(|i| derive_seed(cfg.seed, stream + 1 + i)).collect();
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut fixed_sets: Vec<Vec<Result<f64, String>>> = Vec::with_capacity(cfg.setups);
    let mut rig = None;
    for _ in 0..cfg.setups {
        drop(rig.take());
        let t0 = Instant::now();
        let r = build(rig_seed, tracer)?;
        let mut quiet = Tracer::new(false);
        fixed_sets.push(fixed_seeds.iter().map(|&s| job(&r, s, &mut quiet)).collect());
        setup_s.push(t0.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let rig = rig.ok_or("no set-up ran")?;
    let bits = |set: &[Result<f64, String>]| -> Vec<Option<u64>> {
        set.iter().map(|r| r.as_ref().ok().map(|v| v.to_bits())).collect()
    };
    let fixed = &fixed_sets[0];
    let repeats = fixed_sets.iter().all(|s| bits(s) == bits(fixed));
    if !repeats {
        println!("fixed job set: results differ between set-ups of the same seed");
    }
    for err in fixed.iter().filter_map(|r| r.as_ref().err()) {
        println!("fixed job failed: {err}");
    }
    let fixed_ok = fixed.iter().filter(|r| r.is_ok()).count() as u64;
    let fixed_err = fixed.iter().filter_map(|r| r.as_ref().ok()).fold(0.0f64, |a, &b| a.max(b));

    let mut times_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut idx = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let result = job(&rig, derive_seed(cfg.seed, stream + 1_000 + idx), tracer);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        idx += 1;
        match result {
            Ok(_) => times_ms.push(ms),
            Err(err) => {
                println!("timed job failed: {err}");
                failed += 1;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (tail_ms, pct, n) = report::tail(&times_ms);
    println!("timed: {idx} jobs in {wall:.2} s; job_tail_ms is p{pct:.1} of {n} samples");

    let outcome = Outcome {
        attempted: FIXED_JOBS + idx,
        failed: (FIXED_JOBS - fixed_ok) + failed + u64::from(!repeats),
        end_to_end: vec![
            metric("setup_s", report::median(&setup_s), "s"),
            metric("job_p50_ms", report::median(&times_ms), "ms"),
            metric("job_tail_ms", tail_ms, "ms"),
            metric("jobs_per_s", times_ms.len() as f64 / wall, "1/s"),
            metric("ok_share", fixed_ok as f64 / FIXED_JOBS as f64, "share"),
            metric("precision_bits", report::precision_bits(fixed_err, PRECISION_CAP), "bits"),
            metric("peak_mb", report::peak_rss_mb()?, "MB"),
        ],
        per_layer: Vec::new(),
    };
    Ok((rig, outcome))
}
