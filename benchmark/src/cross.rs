//! `cross_scheme`: one client. A job CKKS-encrypts two integer scores,
//! adds them, drops to level 0, switches the sum onto the TFHE key through
//! the bridge, applies a threshold by programmable bootstrapping at TFHE
//! parameter set I, and checks the decrypted decision.

use fhe_ckks::{CkksContext, CkksParams, Encoder, Evaluator, SecretKey};
use fhe_tfhe::{generate_keys, ClientKey, NegacyclicMultiplier, ServerKey, TfheParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scheme_bridge::CkksToTfheBridge;

use crate::report::{self, metric, Metric, Outcome, Tracer};
use crate::{single, RunConfig};

/// CKKS side: N = 1024, L = 2, dnum = 1, Δ = 2^30, q0 = 2^33 — the 3-bit
/// q0/Δ gap gives the bridge an 8-sector message space. Reduced, INSECURE.
const RING: (usize, usize, usize, u32, u32) = (1024, 2, 1, 30, 33);

fn describe() -> String {
    let (n, l, d, b, q) = RING;
    let t = TfheParams::set_i();
    format!(
        "cross_scheme: closed loop, 1 client, 1 job at a time; CKKS N={n} L={l} dnum={d} \
         scale=2^{b} q0=2^{q} (reduced, INSECURE) -> bridge -> TFHE set I (n={} N={} l={})",
        t.lwe_dim, t.poly_size, t.pbs_levels
    )
}

struct Rig {
    ctx: CkksContext,
    sk: SecretKey,
    client: ClientKey,
    server: ServerKey,
    bridge: CkksToTfheBridge,
}

impl Rig {
    fn new(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (n, l, d, b, q) = RING;
        let params = CkksParams::with_first_prime_bits(n, l, d, b, q)
            .map_err(|e| format!("ckks params: {e}"))?;
        let ctx = CkksContext::new(params).map_err(|e| format!("ckks context: {e}"))?;
        let sk = SecretKey::generate(&ctx, &mut rng).map_err(|e| format!("ckks key: {e}"))?;
        let (client, server) = tracer
            .time("fhe_tfhe.keygen", || generate_keys(&TfheParams::set_i(), &mut rng))
            .map_err(|e| format!("tfhe keys: {e}"))?;
        let bridge = CkksToTfheBridge::new(&ctx, &sk, &client, &mut rng)
            .map_err(|e| format!("bridge keys: {e}"))?;
        Ok(Rig { ctx, sk, client, server, bridge })
    }

    /// One job on scores drawn from `job_seed`. Returns the CKKS-stage
    /// error of the encrypted sum, or an error naming the failed stage.
    fn job(&self, job_seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
        let e = |what: &'static str| move |err: fhe_ckks::CkksError| format!("{what}: {err}");
        let mut rng = ChaCha8Rng::seed_from_u64(job_seed);
        let enc = Encoder::new(&self.ctx);
        let ev = Evaluator::new(&self.ctx);
        // Sums stay in the lower half of the 8-sector space, as the
        // programmable bootstrap requires.
        let a: u64 = rng.gen_range(0..4);
        let b: u64 = rng.gen_range(0..4 - a);
        let threshold: u64 = rng.gen_range(1..4);
        let mut encrypt = |m: u64| -> Result<_, String> {
            let pt = enc.encode(&vec![m as f64; enc.slots()]).map_err(e("encode"))?;
            self.sk.encrypt(&self.ctx, &pt, &mut rng).map_err(e("encrypt"))
        };
        let (ct_a, ct_b) = (encrypt(a)?, encrypt(b)?);
        let sum = ev.add(&ct_a, &ct_b).map_err(e("add"))?;
        let total = ev.level_down(&sum, 0).map_err(e("level_down"))?;
        let lwe = tracer
            .time("bridge.switch", || self.bridge.switch(&self.ctx, &total, 0))
            .map_err(|err| format!("switch: {err}"))?;
        let space = self.bridge.message_space();
        let decision = tracer
            .time("fhe_tfhe.pbs", || {
                self.server.bootstrap_with_lut(&lwe, space, |m| u64::from(m >= threshold))
            })
            .map_err(|err| format!("pbs: {err}"))?;
        let flag = self.client.decrypt_message(&decision, space) == 1;
        if flag != (a + b >= threshold) {
            return Err(format!("job {job_seed:#x}: {a} + {b} >= {threshold} decided {flag}"));
        }
        let got =
            enc.decode(&self.sk.decrypt(&total).map_err(e("decrypt"))?).map_err(e("decode"))?;
        let err = report::max_abs_err(std::iter::repeat((a + b) as f64), &got);
        // Off by half a unit, the bridge would round the sum to another
        // integer.
        if err.is_nan() || err >= 0.5 {
            return Err(format!("job {job_seed:#x}: CKKS sum off by {err:.3e}"));
        }
        Ok(err)
    }
}

/// One negacyclic product at the TFHE ring degree, timed per call.
fn polymul(tracer: &mut Tracer) -> Result<(), String> {
    let n = TfheParams::set_i().poly_size;
    let mul = NegacyclicMultiplier::new(n).map_err(|e| format!("multiplier: {e}"))?;
    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
    let ints: Vec<i64> = (0..n).map(|_| rng.gen_range(-64..64)).collect();
    let torus: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
    for _ in 0..101 {
        tracer
            .time("fhe_tfhe.polymul", || mul.mul_int_torus(&ints, &torus))
            .map_err(|e| format!("polymul: {e}"))?;
    }
    Ok(())
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (_, mut outcome) = single::run(cfg, tracer, &describe(), 20_000, Rig::new, Rig::job)?;
    if tracer.on() {
        polymul(tracer)?;
        outcome.per_layer = tfhe_layers(tracer)?;
    }
    Ok(outcome)
}

fn tfhe_layers(tracer: &Tracer) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("fhe_tfhe.pbs_ms", tracer.median("fhe_tfhe.pbs", 1.0)?, "ms"),
        metric("fhe_tfhe.polymul_us", tracer.median("fhe_tfhe.polymul", 1e3)?, "us"),
        metric("bridge.switch_ms", tracer.median("bridge.switch", 1.0)?, "ms"),
        metric("fhe_tfhe.keygen_s", tracer.median("fhe_tfhe.keygen", 1e-3)?, "s"),
    ])
}
