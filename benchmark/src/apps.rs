//! `ckks_apps`: one client, one job at a time. A job encrypts fresh seeded
//! inputs, runs LoLa-style inference and one HELR training step at
//! N = 512, bootstraps an exhausted ciphertext at N = 256, and checks all
//! three against their cleartext references.

use fhe_ckks::bootstrap::{Bootstrapper, EvalModConfig};
use fhe_ckks::workloads::{HelrIteration, MlpModel};
use fhe_ckks::{CkksContext, CkksParams, Encoder, Evaluator, GaloisKeys, RelinKey, SecretKey};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{self, metric, Metric, Outcome, Tracer};
use crate::{single, RunConfig};

/// LoLa/HELR ring: N = 512, L = 8, dnum = 2, Δ = 2^30. Reduced, INSECURE.
const APPS_RING: (usize, usize, usize, u32) = (512, 8, 2, 30);
/// Bootstrapping ring: N = 256, L = 16, dnum = 3, Δ = 2^45, q0 = 2^51.
/// Reduced, INSECURE.
const BOOT_RING: (usize, usize, usize, u32, u32) = (256, 16, 3, 45, 51);
/// Largest acceptable slot error (the library's own test tolerance).
const VERIFY_TOL: f64 = 0.05;

fn describe() -> String {
    let (n, l, d, b) = APPS_RING;
    let (bn, bl, bd, bb, bq) = BOOT_RING;
    format!(
        "ckks_apps: closed loop, 1 client, 1 job at a time; LoLa MLP + HELR step at CKKS N={n} \
         L={l} dnum={d} scale=2^{b}, bootstrap at N={bn} L={bl} dnum={bd} scale=2^{bb} \
         q0=2^{bq} (reduced, INSECURE)"
    )
}

/// Contexts, keys and models of one set-up.
struct Rig {
    ctx: CkksContext,
    sk: SecretKey,
    rlk: RelinKey,
    gk: GaloisKeys,
    model: MlpModel,
    helr: HelrIteration,
    boot_ctx: CkksContext,
    boot_sk: SecretKey,
    boot_rlk: RelinKey,
    boot_gk: GaloisKeys,
    boot: Bootstrapper,
}

impl Rig {
    fn new(seed: u64) -> Result<Self, String> {
        let e = |what: &'static str| move |err: fhe_ckks::CkksError| format!("{what}: {err}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, l, d, b) = APPS_RING;
        let ctx = CkksContext::new(CkksParams::new(n, l, d, b).map_err(e("apps params"))?)
            .map_err(e("apps context"))?;
        let sk = SecretKey::generate(&ctx, &mut rng).map_err(e("secret key"))?;
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng).map_err(e("relin key"))?;
        let slots = n / 2;
        let model = MlpModel::random(slots, &mut rng);
        let helr = HelrIteration::random(slots, &mut rng);
        let mut rots = model.required_rotations();
        rots.extend(helr.required_rotations());
        // Rotation by one for the single-op measurement.
        rots.push(1);
        rots.sort_unstable();
        rots.dedup();
        let gk = GaloisKeys::generate(&ctx, &sk, &rots, false, &mut rng).map_err(e("galois"))?;

        let (bn, bl, bd, bb, bq) = BOOT_RING;
        let params = CkksParams::with_first_prime_bits(bn, bl, bd, bb, bq);
        let boot_ctx =
            CkksContext::new(params.map_err(e("boot params"))?).map_err(e("boot context"))?;
        let boot_sk = SecretKey::generate(&boot_ctx, &mut rng).map_err(e("boot secret key"))?;
        let boot_rlk =
            RelinKey::generate(&boot_ctx, &boot_sk, &mut rng).map_err(e("boot relin key"))?;
        let boot = Bootstrapper::new(&boot_ctx, EvalModConfig::default()).map_err(e("boot"))?;
        let boot_gk =
            GaloisKeys::generate(&boot_ctx, &boot_sk, &boot.required_rotations(), true, &mut rng)
                .map_err(e("boot galois"))?;
        Ok(Rig { ctx, sk, rlk, gk, model, helr, boot_ctx, boot_sk, boot_rlk, boot_gk, boot })
    }

    /// One job on inputs drawn from `job_seed`. Returns the largest slot
    /// error of the three results, or an error naming the failed stage.
    fn job(&self, job_seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
        let e = |what: &'static str| move |err: fhe_ckks::CkksError| format!("{what}: {err}");
        let mut rng = ChaCha8Rng::seed_from_u64(job_seed);
        let enc = Encoder::new(&self.ctx);
        let ev = Evaluator::new(&self.ctx);
        let slots = enc.slots();
        let max_err = |want: &[f64], got: &[f64]| report::max_abs_err(want.iter().copied(), got);

        // LoLa-style inference.
        let x: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pt = tracer.time("fhe_ckks.encode", || enc.encode(&x)).map_err(e("encode"))?;
        let ct = tracer
            .time("fhe_ckks.encrypt", || self.sk.encrypt(&self.ctx, &pt, &mut rng))
            .map_err(e("encrypt"))?;
        let out = tracer
            .time("fhe_ckks.lola", || {
                self.model.infer_encrypted(&ev, &enc, &ct, &self.gk, &self.rlk)
            })
            .map_err(e("lola"))?;
        let dec =
            tracer.time("fhe_ckks.decrypt", || self.sk.decrypt(&out)).map_err(e("decrypt"))?;
        let lola_err =
            max_err(&self.model.infer_plain(&x), &enc.decode(&dec).map_err(e("decode"))?);

        // One HELR training iteration on an encrypted weight vector.
        let w: Vec<f64> = (0..slots).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let ct_w = self.sk.encrypt(&self.ctx, &enc.encode(&w).map_err(e("encode"))?, &mut rng);
        let ct_w = ct_w.map_err(e("encrypt"))?;
        let out = tracer
            .time("fhe_ckks.helr", || {
                self.helr.step_encrypted(&ev, &enc, &ct_w, &self.gk, &self.rlk)
            })
            .map_err(e("helr"))?;
        let got = enc.decode(&self.sk.decrypt(&out).map_err(e("decrypt"))?).map_err(e("decode"))?;
        let helr_err = max_err(&self.helr.step_plain(&w), &got);

        // Bootstrap a ciphertext exhausted to level 0.
        let benc = Encoder::new(&self.boot_ctx);
        let bev = Evaluator::new(&self.boot_ctx);
        let v: Vec<f64> = (0..benc.slots()).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let fresh =
            self.boot_sk.encrypt(&self.boot_ctx, &benc.encode(&v).map_err(e("encode"))?, &mut rng);
        let exhausted =
            bev.level_down(&fresh.map_err(e("encrypt"))?, 0).map_err(e("level_down"))?;
        let refreshed = tracer
            .time("fhe_ckks.bootstrap", || {
                self.boot.bootstrap(&bev, &benc, &exhausted, &self.boot_rlk, &self.boot_gk)
            })
            .map_err(e("bootstrap"))?;
        let got = benc
            .decode(&self.boot_sk.decrypt(&refreshed).map_err(e("decrypt"))?)
            .map_err(e("decode"))?;
        let boot_err = max_err(&v, &got);

        let errs = [lola_err, helr_err, boot_err];
        if errs.iter().any(|e| e.is_nan() || *e > VERIFY_TOL) {
            return Err(format!(
                "job {job_seed:#x} off its reference: lola {lola_err:.3e}, helr {helr_err:.3e}, \
                 bootstrap {boot_err:.3e}"
            ));
        }
        Ok(lola_err.max(helr_err).max(boot_err))
    }

    /// Single scheme operations at the apps ring, timed per call.
    fn single_ops(&self, tracer: &mut Tracer) -> Result<(), String> {
        let e = |what: &'static str| move |err: fhe_ckks::CkksError| format!("{what}: {err}");
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let enc = Encoder::new(&self.ctx);
        let ev = Evaluator::new(&self.ctx);
        let x: Vec<f64> = (0..enc.slots()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ct = self.sk.encrypt(&self.ctx, &enc.encode(&x).map_err(e("encode"))?, &mut rng);
        let ct = ct.map_err(e("encrypt"))?;
        for _ in 0..21 {
            tracer.time("fhe_ckks.rotate", || ev.rotate(&ct, 1, &self.gk)).map_err(e("rotate"))?;
            let prod = tracer
                .time("fhe_ckks.mul_relin", || ev.mul(&ct, &ct, &self.rlk))
                .map_err(e("mul"))?;
            tracer.time("fhe_ckks.rescale", || ev.rescale(&prod)).map_err(e("rescale"))?;
        }
        Ok(())
    }
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (rig, mut outcome) =
        single::run(cfg, tracer, &describe(), 10_000, |seed, _| Rig::new(seed), Rig::job)?;
    if tracer.on() {
        rig.single_ops(tracer)?;
        outcome.per_layer = ckks_layers(tracer)?;
        outcome.per_layer.extend(crate::layers::math_kernels(
            &rig.ctx,
            "fhe_math.ntt_fwd_n512_us",
            "fhe_math.modup_n512_us",
        )?);
    }
    Ok(outcome)
}

fn ckks_layers(tracer: &Tracer) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("fhe_ckks.encode_ms", tracer.median("fhe_ckks.encode", 1.0)?, "ms"),
        metric("fhe_ckks.encrypt_ms", tracer.median("fhe_ckks.encrypt", 1.0)?, "ms"),
        metric("fhe_ckks.decrypt_ms", tracer.median("fhe_ckks.decrypt", 1.0)?, "ms"),
        metric("fhe_ckks.lola_ms", tracer.median("fhe_ckks.lola", 1.0)?, "ms"),
        metric("fhe_ckks.helr_ms", tracer.median("fhe_ckks.helr", 1.0)?, "ms"),
        metric("fhe_ckks.bootstrap_ms", tracer.median("fhe_ckks.bootstrap", 1.0)?, "ms"),
        metric("fhe_ckks.rotate_ms", tracer.median("fhe_ckks.rotate", 1.0)?, "ms"),
        metric("fhe_ckks.mul_relin_ms", tracer.median("fhe_ckks.mul_relin", 1.0)?, "ms"),
        metric("fhe_ckks.rescale_ms", tracer.median("fhe_ckks.rescale", 1.0)?, "ms"),
    ])
}
