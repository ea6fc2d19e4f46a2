//! Sample statistics, the per-layer tracer and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (requests) attempted, fixed set and timed phase together.
    pub attempted: u64,
    /// Attempts that did not end in a verified-correct result.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, sample count)`. With ten or fewer samples no such
/// percentile exists and the maximum is returned as p100.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0, n);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// Largest `|want - got|` over paired values; NaN if any difference is NaN,
/// so a garbage result can never pass as exact.
pub fn max_abs_err(want: impl IntoIterator<Item = f64>, got: &[f64]) -> f64 {
    want.into_iter().zip(got).map(|(w, g)| (w - g).abs()).fold(0.0, |worst, e| {
        if e.is_nan() || e > worst {
            e
        } else {
            worst
        }
    })
}

/// `-log2` of the largest absolute error; `cap` bits when exact, none
/// when NaN.
pub fn precision_bits(max_abs_err: f64, cap: f64) -> f64 {
    if max_abs_err.is_nan() {
        0.0
    } else if max_abs_err > 0.0 {
        (-max_abs_err.log2()).min(cap)
    } else {
        cap
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Times calls into the layers from the benchmark's own code. Disabled, it
/// only runs the closures, so the untraced runs pay one branch per call.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, samples: BTreeMap::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its wall time in ms under `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn record(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples recorded under `name`, scaled by `scale`.
    pub fn median(&self, name: &str, scale: f64) -> Result<f64, String> {
        match self.samples.get(name) {
            Some(v) if !v.is_empty() => Ok(median(v) * scale),
            _ => Err(format!("traced run recorded no `{name}` samples")),
        }
    }
}

/// Prints the one-line JSON result: the per-layer metrics of a traced run,
/// else the end-to-end ones.
pub fn print(outcome: &Outcome, traced: bool) {
    let shown = if traced { &outcome.per_layer } else { &outcome.end_to_end };
    let mut fields = Vec::with_capacity(shown.len());
    for m in shown {
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

/// Full-precision JSON number (non-finite values have no JSON form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
