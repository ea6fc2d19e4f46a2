//! Per-layer measurements shared by the workloads: single kernels of
//! `fhe-math` and the simulator's modeled Alchemist time.

use std::time::Instant;

use alchemist_core::workloads::{self, CkksSimParams, TfheSimParams};
use alchemist_core::{ArchConfig, Simulator};
use fhe_ckks::CkksContext;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{self, metric, Metric};

/// Calls of each kernel timed; the median is reported.
const KERNEL_REPS: usize = 201;

/// Median wall time of `f` in µs over [`KERNEL_REPS`] calls, after one
/// warm-up call.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report::median(&samples)
}

/// Forward NTT of one channel and the keyswitch Modup of the first digit
/// (onto the rest of `Q` and all of `P`) at the context's top level.
pub fn math_kernels(
    ctx: &CkksContext,
    ntt_name: &'static str,
    modup_name: &'static str,
) -> Result<Vec<Metric>, String> {
    let n = ctx.n();
    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
    let table = ctx.table(0);
    let q = table.modulus().value();
    let mut buf: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    let ntt_us = time_us(|| table.forward(std::hint::black_box(&mut buf)));

    let digit = ctx.digits()[0].clone();
    let dst: Vec<usize> =
        (0..ctx.q_len()).filter(|c| !digit.contains(c)).chain(ctx.p_indices()).collect();
    let src: Vec<Vec<u64>> = digit
        .iter()
        .map(|&c| {
            let q = ctx.rns().moduli()[c].value();
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();
    let src_refs: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
    let mut out = vec![Vec::new(); dst.len()];
    ctx.rns().modup_into(&src_refs, &digit, &dst, &mut out).map_err(|e| format!("modup: {e}"))?;
    let modup_us = time_us(|| {
        ctx.rns().modup_into(&src_refs, &digit, &dst, &mut out).expect("shapes checked above");
    });
    Ok(vec![metric(ntt_name, ntt_us, "us"), metric(modup_name, modup_us, "us")])
}

/// Simulated Alchemist time per job, in µs, over a fixed job set: the
/// paper-parameter LoLa, HELR, bootstrapping and TFHE PBS graphs plus the
/// given service plans. Pure function of its inputs, so it repeats exactly.
pub fn modeled_us(service_plans: &[Vec<alchemist_core::Step>]) -> f64 {
    let sim = Simulator::new(ArchConfig::paper());
    let paper = CkksSimParams::paper();
    let graphs = [
        workloads::lola_mnist(false).1,
        workloads::helr_iteration(&paper),
        workloads::bootstrapping(&paper),
        workloads::tfhe_pbs(&TfheSimParams::set_i(), 1),
    ];
    let jobs = graphs.iter().chain(service_plans);
    let (cycles, count) =
        jobs.fold((0u64, 0u64), |(c, k), steps| (c + sim.run(steps).cycles, k + 1));
    // 1 cycle = 1 ns at the modeled 1 GHz clock.
    cycles as f64 / count as f64 / 1e3
}
