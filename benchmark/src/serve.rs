//! `serve_skewed`: seeded multi-tenant traffic against the batch server at
//! CKKS N = 2^13.
//!
//! Set-up (repeated, median reported): start the server, run the fixed
//! seeded job set one request at a time (its composition cannot depend on
//! timing, so `precision_bits` and `ok_share` repeat exactly), then make
//! every hot tenant's CKKS and TFHE keys resident. The timed phase first
//! offers open-loop Poisson arrivals at the frozen nominal rate, which
//! gives the latency metrics, then runs closed-loop probes at rising
//! depths of outstanding requests, which give the highest throughput
//! whose tail meets the limit.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use alchemist_core::{ArchConfig, Simulator};
use fhe_ckks::{CkksContext, CkksParams};
use fhe_tfhe::TfheParams;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use service::trace::TraceEntry;
use service::{
    Completion, FaultFlag, KeyCache, Payload, Request, Scheme, Server, ServerConfig, ServiceError,
    Template, TraceConfig,
};

use crate::report::{self, metric, Metric, Outcome, Tracer};
use crate::{derive_seed, RunConfig};

/// CKKS ring of the server: N = 2^13, L = 3, dnum = 2, Δ = 2^30. Reduced,
/// not checked against a security table, and tenant keys derive from a
/// fixed server seed: insecure, a measurement ring only.
const RING: (usize, usize, usize, u32) = (8192, 3, 2, 30);
/// Offered load of the latency measurement. Frozen: changing it changes
/// what `job_p50_ms` and `job_tail_ms` mean.
const NOMINAL_RPS: f64 = 5.0;
/// Tail latency limit that defines the maximum rate. Frozen.
const TAIL_LIMIT_MS: f64 = 500.0;
/// Requests kept outstanding per worker in the closed-loop probes, tried
/// in order until one breaks the limit. The probes are closed-loop because
/// a closed loop cannot build a backlog and its throughput is a time
/// average; the crossing rate of open-loop rate probes spread by a quarter
/// between runs of one seed on a shared 2-vCPU host, since a few seconds
/// of Poisson traffic near the knee ride on whichever slow stretch the
/// host has.
const PROBE_DEPTHS: [usize; 3] = [2, 4, 8];
/// Shares of `--seconds` spent at the nominal rate and in each probe, and
/// the shortest probe (short traced passes would otherwise probe for
/// fractions of a second).
const NOMINAL_SHARE: f64 = 0.5;
const PROBE_SHARE: f64 = 0.5 / PROBE_DEPTHS.len() as f64;
const PROBE_MIN_SECS: f64 = 1.5;
/// Requests in the fixed seeded job set.
const FIXED_JOBS: u64 = 12;
/// Hot tenants whose keys are made resident before timing (the trace's
/// hot set).
const HOT_TENANTS: u64 = 64;
/// Largest acceptable slot error at this ring.
const VERIFY_TOL: f64 = 1e-3;
/// Precision reported for an exact result.
const PRECISION_CAP: f64 = 52.0;

fn describe() -> String {
    let (n, l, dnum, bits) = RING;
    format!(
        "serve_skewed: 1 generator thread; open loop, Poisson arrivals at {NOMINAL_RPS} req/s, \
         then closed-loop probes at {PROBE_DEPTHS:?} outstanding per worker, tail limit \
         {TAIL_LIMIT_MS} ms; CKKS N={n} L={l} dnum={dnum} scale=2^{bits} (reduced, INSECURE); \
         TFHE toy n=16 N=64 (INSECURE toy); 64 hot of 1e6 tenants at 90%, 2% TFHE NAND, \
         no faults"
    )
}

fn server_config(seed: u64, workers: usize) -> Result<ServerConfig, String> {
    let (n, l, dnum, bits) = RING;
    Ok(ServerConfig {
        workers,
        seed,
        params: CkksParams::new(n, l, dnum, bits).map_err(|e| format!("serve params: {e}"))?,
        tfhe: TfheParams::toy(),
        ..ServerConfig::default()
    })
}

fn trace(requests: u64, seed: u64) -> Vec<TraceEntry> {
    service::generate(&TraceConfig { requests, seed, ..TraceConfig::default() })
}

/// Largest slot error of a result against the template's cleartext
/// function; `None` when the result is wrong in shape or, for TFHE, value.
fn check(entry: &TraceEntry, got: &[f64]) -> Option<f64> {
    let want = entry.template.expected(&entry.request.payload);
    if got.len() < want.len() || want.is_empty() {
        return None;
    }
    let err = report::max_abs_err(want.iter().copied(), got);
    let tol = if entry.template.is_tfhe() { 0.0 } else { VERIFY_TOL };
    (err <= tol).then_some(if entry.template.is_tfhe() { 0.0 } else { err })
}

/// Result of the fixed job set: counts, worst CKKS error, and the raw bits
/// of every result for the same-seed comparison.
#[derive(Debug, PartialEq)]
struct FixedSet {
    ok: u64,
    attempted: u64,
    max_err: f64,
    result_bits: Vec<u64>,
}

/// Submits the fixed job set one request at a time, so every batch is a
/// singleton and every request id is the same in every set-up.
fn fixed_pass(server: &Server, entries: &[TraceEntry]) -> FixedSet {
    let mut set = FixedSet { ok: 0, attempted: 0, max_err: 0.0, result_bits: Vec::new() };
    for entry in entries {
        set.attempted += 1;
        let Ok(rx) = server.submit(entry.request.clone()) else { continue };
        let Ok(Completion { result: Ok(values), .. }) = rx.recv() else { continue };
        set.result_bits.extend(values.iter().map(|v| v.to_bits()));
        if let Some(err) = check(entry, &values) {
            set.ok += 1;
            if !entry.template.is_tfhe() {
                set.max_err = set.max_err.max(err);
            }
        }
    }
    set
}

/// Makes every hot tenant's CKKS and TFHE keys resident: one TFHE request
/// per hot tenant fetches both halves of its key entry.
fn warm_hot_keys(server: &Server) -> Result<(), String> {
    let mut pending = Vec::new();
    for tenant in 0..HOT_TENANTS {
        let req = Request {
            tenant,
            scheme: Scheme::Tfhe,
            ops: Template::TfheNand.ops(),
            payload: Payload::TfheBits(vec![true, false]),
            fault: FaultFlag::None,
        };
        pending.push(server.submit(req).map_err(|e| format!("warm-up submit: {e}"))?);
    }
    for rx in pending {
        match rx.recv() {
            Ok(Completion { result: Ok(_), .. }) => {}
            Ok(Completion { result: Err(e), .. }) => return Err(format!("warm-up request: {e}")),
            Err(_) => return Err("warm-up request lost".into()),
        }
    }
    Ok(())
}

/// What one load phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Open loop: the offered rate. Closed loop: verified completions per
    /// second inside the window.
    rate: f64,
    /// Requests kept outstanding (closed loop), 0 for the open loop.
    depth: usize,
    /// Latency of every verified request, ms: from its scheduled send time
    /// (open loop) or its submission (closed loop) to its completion.
    latencies_ms: Vec<f64>,
    sent: u64,
    /// Admission rejections, errors and wrong results.
    missed: u64,
    backlog_max: u64,
    batch_sizes: Vec<f64>,
}

impl Phase {
    fn tail_ms(&self) -> f64 {
        if self.missed > 0 {
            return f64::INFINITY;
        }
        report::tail(&self.latencies_ms).0
    }

    /// Checks one completion; returns whether it verified.
    fn collect(&mut self, entry: &TraceEntry, c: Completion, waited: Duration) -> bool {
        self.batch_sizes.push(c.batch_size as f64);
        let verified = c.result.as_deref().is_ok_and(|v| check(entry, v).is_some());
        if verified {
            self.latencies_ms.push((waited + c.latency).as_secs_f64() * 1e3);
        } else {
            self.missed += 1;
        }
        verified
    }

    fn submit(
        &mut self,
        server: &Server,
        entry: &TraceEntry,
        tracer: &mut Tracer,
    ) -> Option<Receiver<Completion>> {
        let t = Instant::now();
        let submitted = server.submit(entry.request.clone());
        tracer.record("service.submit", t.elapsed().as_secs_f64() * 1e6);
        self.sent += 1;
        self.backlog_max = self.backlog_max.max(server.inflight());
        if submitted.is_err() {
            self.missed += 1;
        }
        submitted.ok()
    }
}

/// Offers seeded Poisson arrivals at `rate` for `secs`, then collects every
/// completion. Latency runs from each request's scheduled send time, so a
/// stall also charges the requests that were due behind it.
fn open_loop(
    server: &Server,
    entries: &mut impl Iterator<Item = TraceEntry>,
    rate: f64,
    secs: f64,
    rng: &mut ChaCha8Rng,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase { rate, ..Phase::default() };
    let mut pending = Vec::new();
    // A Poisson process conditioned on its count: `rate × secs` arrivals at
    // independent uniform times, so every seed offers the same load.
    let mut times: Vec<f64> =
        (0..(rate * secs).round() as usize).map(|_| rng.gen::<f64>() * secs).collect();
    times.sort_by(f64::total_cmp);
    let start = Instant::now();
    for t in times {
        let due = start + Duration::from_secs_f64(t);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let entry = entries.next().expect("trace iterator cycles");
        let late = Instant::now().saturating_duration_since(due);
        tracer.record("service.generator_lag", late.as_secs_f64() * 1e3);
        if let Some(rx) = phase.submit(server, &entry, tracer) {
            pending.push((entry, late, rx));
        }
    }
    for (entry, late, rx) in pending {
        match rx.recv() {
            Ok(c) => {
                phase.collect(&entry, c, late);
            }
            Err(_) => phase.missed += 1,
        }
    }
    phase
}

/// Keeps `depth` requests outstanding for `secs`: each completion releases
/// the next send. Then drains. The phase rate counts verified completions
/// inside the window; latency runs from submission.
fn closed_loop(
    server: &Server,
    entries: &mut impl Iterator<Item = TraceEntry>,
    depth: usize,
    secs: f64,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase { depth, ..Phase::default() };
    let mut pending: Vec<(TraceEntry, Receiver<Completion>)> = Vec::new();
    let window = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut in_window = 0u64;
    loop {
        while start.elapsed() < window && pending.len() < depth {
            let entry = entries.next().expect("trace iterator cycles");
            if let Some(rx) = phase.submit(server, &entry, tracer) {
                pending.push((entry, rx));
            }
        }
        if pending.is_empty() {
            break;
        }
        let mut reaped = false;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].1.try_recv() {
                Ok(c) => {
                    let (entry, _) = pending.swap_remove(i);
                    if phase.collect(&entry, c, Duration::ZERO) && start.elapsed() <= window {
                        in_window += 1;
                    }
                    reaped = true;
                }
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    pending.swap_remove(i);
                    phase.missed += 1;
                }
            }
        }
        if !reaped {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    phase.rate = in_window as f64 / secs;
    phase
}

/// The highest throughput whose tail meets the limit: interpolated
/// (log-tail linear in throughput) between the probes that bracket the
/// limit, so it is continuous in the measured tails. When even the deepest
/// probe meets the limit its throughput stands: the server is saturated
/// there, and deeper queues only add wait.
fn max_rate(probes: &[Phase]) -> f64 {
    let Some(fail) = probes.iter().position(|p| p.tail_ms() > TAIL_LIMIT_MS) else {
        return probes.last().map_or(0.0, |p| p.rate);
    };
    let hi = &probes[fail];
    if fail == 0 {
        return hi.rate * (TAIL_LIMIT_MS / hi.tail_ms()).min(1.0);
    }
    let lo = &probes[fail - 1];
    // A miss makes the failing tail infinite: the crossing is at `lo`.
    let (t_lo, t_hi) = (lo.tail_ms().ln(), hi.tail_ms().ln());
    let frac = (TAIL_LIMIT_MS.ln() - t_lo) / (t_hi - t_lo);
    lo.rate + (hi.rate - lo.rate) * frac.clamp(0.0, 1.0)
}

/// Times the layer calls the server makes, from the benchmark's side:
/// compile, plan gate, key fetch/keygen and execution, one request at a
/// time on this thread.
fn trace_layers(
    ctx: &CkksContext,
    sample: &[TraceEntry],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let sim = Simulator::new(ArchConfig::paper());
    let mut cache = KeyCache::new(256, seed);
    let stats = cache.stats();
    let tfhe = TfheParams::toy();
    let cancel = AtomicBool::new(false);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Four TFHE requests ride along so exec_tfhe has samples at 2% traffic.
    let nand = (0..4u64).map(|t| TraceEntry {
        request: Request {
            tenant: t,
            scheme: Scheme::Tfhe,
            ops: Template::TfheNand.ops(),
            payload: Payload::TfheBits(vec![t % 2 == 0, t / 2 == 0]),
            fault: FaultFlag::None,
        },
        template: Template::TfheNand,
    });
    for entry in sample.iter().cloned().chain(nand) {
        let req = &entry.request;
        let plan = tracer.time("service.compile", || service::compile(req, ctx));
        let plan = plan.map_err(|e| format!("compile: {e}"))?;
        tracer
            .time("service.plan_gate", || sim.run_checked(&plan.steps, &plan.manifest))
            .map_err(|e| format!("plan gate: {e}"))?;
        // Only a CKKS miss is a pure keygen; a TFHE fetch may add the
        // TFHE upgrade on top.
        let misses = stats.misses();
        let t = Instant::now();
        let keys = match req.scheme {
            Scheme::Ckks => cache.get_ckks(req.tenant, ctx),
            Scheme::Tfhe => cache.get_tfhe(req.tenant, ctx, &tfhe),
        };
        let keys = keys.map_err(|e| format!("keys: {e}"))?;
        if req.scheme == Scheme::Ckks && stats.misses() > misses {
            tracer.record("service.keygen", t.elapsed().as_secs_f64() * 1e3);
        }
        let got = match (&req.payload, &keys.tfhe) {
            (Payload::CkksSlots(slots), _) => tracer.time("service.exec_ckks", || {
                service::exec::execute_ckks(
                    ctx,
                    &keys,
                    &plan,
                    slots,
                    FaultFlag::None,
                    0,
                    &mut rng,
                    &cancel,
                )
            }),
            (Payload::TfheBits(bits), Some((ck, sk))) => tracer.time("service.exec_tfhe", || {
                service::exec::execute_tfhe(ck, sk, &plan, bits, FaultFlag::None, &mut rng, &cancel)
            }),
            (Payload::TfheBits(_), None) => return Err("TFHE keys missing".into()),
        };
        let got = got.map_err(|e: ServiceError| format!("execute: {e}"))?;
        if check(&entry, &got).is_none() {
            return Err(format!("direct execution of {:?} failed its check", entry.template));
        }
    }
    Ok(())
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One level of parallelism: request workers own the cores, kernels
    // stay on their worker's thread.
    fhe_math::par::set_max_threads(1);
    println!("{}; workers={workers} kernel_threads=1", describe());

    let server_seed = derive_seed(cfg.seed, 1);
    let fixed = trace(FIXED_JOBS, derive_seed(cfg.seed, 2));
    let set_up = || -> Result<(Server, f64, FixedSet), String> {
        let t0 = Instant::now();
        let server = Server::start(server_config(server_seed, workers)?)
            .map_err(|e| format!("server start: {e}"))?;
        let fixed_set = fixed_pass(&server, &fixed);
        warm_hot_keys(&server)?;
        Ok((server, t0.elapsed().as_secs_f64(), fixed_set))
    };
    // The timed phase runs on the first set-up, so its memory peak carries
    // no allocator state left behind by earlier servers; the other set-ups
    // follow it.
    let (server, first_setup_s, fixed_set) = set_up()?;

    // Timed phase.
    let nominal_secs = cfg.seconds * NOMINAL_SHARE;
    let probe_secs = (cfg.seconds * PROBE_SHARE).max(PROBE_MIN_SECS);
    // Enough requests for the nominal phase and probes at up to 50 req/s;
    // the trace repeats if a faster server outruns that.
    let planned = NOMINAL_RPS * nominal_secs + 50.0 * probe_secs * PROBE_DEPTHS.len() as f64;
    let timed = trace(planned as u64 + 64, derive_seed(cfg.seed, 3));
    let mut entries = timed.iter().cloned().cycle();
    let mut arrivals = ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, 4));
    let queue = server.queue_stats();
    let cache = server.key_cache_stats();
    let (acc0, rej0) = (queue.accepted(), queue.rejected_full() + queue.rejected_share());
    let (hit0, miss0) = (cache.hits(), cache.misses());

    let nominal =
        open_loop(&server, &mut entries, NOMINAL_RPS, nominal_secs, &mut arrivals, tracer);
    // Peak memory through set-up and the nominal phase: the probes' extra
    // cold tenants would tie it to how fast the probes went.
    let peak_mb = report::peak_rss_mb()?;
    let mut probes = Vec::new();
    for per_worker in PROBE_DEPTHS {
        let p = closed_loop(&server, &mut entries, per_worker * workers, probe_secs, tracer);
        let done = p.tail_ms() > TAIL_LIMIT_MS;
        probes.push(p);
        if done {
            break;
        }
    }
    let max_rps = max_rate(&probes);
    println!("phase        rate_rps  sent  missed  p50_ms  tail_ms  backlog_max");
    for p in std::iter::once(&nominal).chain(&probes) {
        let kind = if p.depth == 0 { "open".to_string() } else { format!("depth {:2}", p.depth) };
        println!(
            "{kind:<10}  {:9.3}  {:4}  {:6}  {:6.1}  {:7.1}  {:11}",
            p.rate,
            p.sent,
            p.missed,
            report::median(&p.latencies_ms),
            p.tail_ms(),
            p.backlog_max
        );
    }
    let (tail_ms, tail_pct, n) = report::tail(&nominal.latencies_ms);
    println!(
        "nominal: job_tail_ms is p{tail_pct:.1} of {n} samples; max rate under the tail limit \
         interpolated to {max_rps:.3} req/s"
    );

    // Every request of every phase is checked and every miss is a failure:
    // a probe past the limit is slow, not wrong.
    let phases: Vec<&Phase> = std::iter::once(&nominal).chain(&probes).collect();
    let attempted = fixed_set.attempted + phases.iter().map(|p| p.sent).sum::<u64>();
    let failed =
        (fixed_set.attempted - fixed_set.ok) + phases.iter().map(|p| p.missed).sum::<u64>();
    let mut end_to_end = vec![
        metric("job_p50_ms", report::median(&nominal.latencies_ms), "ms"),
        metric("job_tail_ms", tail_ms, "ms"),
        metric("jobs_per_s", max_rps, "1/s"),
        metric("ok_share", fixed_set.ok as f64 / fixed_set.attempted as f64, "share"),
        metric("precision_bits", report::precision_bits(fixed_set.max_err, PRECISION_CAP), "bits"),
        metric("peak_mb", peak_mb, "MB"),
    ];

    let mut per_layer = Vec::new();
    if tracer.on() {
        let accepted = queue.accepted() - acc0;
        let rejected = queue.rejected_full() + queue.rejected_share() - rej0;
        let (hits, misses) = (cache.hits() - hit0, cache.misses() - miss0);
        let sizes: Vec<f64> = phases.iter().flat_map(|p| p.batch_sizes.iter().copied()).collect();
        trace_layers(server.ctx(), &timed[..48.min(timed.len())], server_seed, tracer)?;
        per_layer =
            service_layers(tracer, accepted, rejected, hits, misses, &sizes, nominal.backlog_max)?;
        per_layer.extend(crate::layers::math_kernels(
            server.ctx(),
            "fhe_math.ntt_fwd_n8192_us",
            "fhe_math.modup_n8192_us",
        )?);
    }
    drop(server);

    let mut setup_s = vec![first_setup_s];
    let mut repeats = true;
    for _ in 1..cfg.setups {
        let (server, secs, again) = set_up()?;
        drop(server);
        setup_s.push(secs);
        repeats &= again == fixed_set;
    }
    if !repeats {
        println!("fixed job set: results differ between set-ups of the same seed");
    }
    end_to_end.insert(0, metric("setup_s", report::median(&setup_s), "s"));
    Ok(Outcome { attempted, failed: failed + u64::from(!repeats), end_to_end, per_layer })
}

fn service_layers(
    tracer: &Tracer,
    accepted: u64,
    rejected: u64,
    hits: u64,
    misses: u64,
    batch_sizes: &[f64],
    backlog_max: u64,
) -> Result<Vec<Metric>, String> {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok(vec![
        metric("service.submit_us", tracer.median("service.submit", 1.0)?, "us"),
        metric("service.compile_us", tracer.median("service.compile", 1e3)?, "us"),
        metric("service.plan_gate_us", tracer.median("service.plan_gate", 1e3)?, "us"),
        metric("service.exec_ckks_ms", tracer.median("service.exec_ckks", 1.0)?, "ms"),
        metric("service.exec_tfhe_ms", tracer.median("service.exec_tfhe", 1.0)?, "ms"),
        metric("service.keygen_ms", tracer.median("service.keygen", 1.0)?, "ms"),
        metric("service.keycache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "share"),
        metric("service.pack_ratio", mean(batch_sizes), "members"),
        metric(
            "service.reject_share",
            rejected as f64 / (accepted + rejected).max(1) as f64,
            "share",
        ),
        metric("service.backlog_max", backlog_max as f64, "requests"),
        metric(
            "service.generator_lag_ms",
            report::tail(tracer.samples("service.generator_lag")).0,
            "ms",
        ),
    ])
}

/// Simulator schedules of the fixed job set's plans at the server ring.
pub fn fixed_plans(seed: u64) -> Result<Vec<Vec<alchemist_core::Step>>, String> {
    let (n, l, dnum, bits) = RING;
    let params = CkksParams::new(n, l, dnum, bits).map_err(|e| format!("serve params: {e}"))?;
    let ctx = CkksContext::new(params).map_err(|e| format!("serve context: {e}"))?;
    trace(FIXED_JOBS, derive_seed(seed, 2))
        .iter()
        .map(|e| service::compile(&e.request, &ctx).map(|p| p.steps))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("compile: {e}"))
}
