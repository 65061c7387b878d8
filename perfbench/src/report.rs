//! Turns the legs' raw samples into named metrics, applies the output
//! checks, and prints the host fingerprint, a readable table and the
//! one-line JSON result.

use stco_obs::json::JsonValue;
use stco_serve::protocol::Request;

use crate::flowleg::LoopOutcome;
use crate::loadgen::StepResult;
use crate::setup::SetupTimes;
use crate::stats::{self, median};
use crate::sweepleg::SweepRep;

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub setup: Vec<SetupTimes>,
    pub lo_steps: Vec<StepResult>,
    pub hi_steps: Vec<StepResult>,
    pub goodput: Vec<f64>,
    /// `metrics`-op snapshots (traced runs): after the first lo step
    /// and after the last fixed-rate step, both before the goodput
    /// search overloads a server on purpose.
    pub server_after_lo: Option<JsonValue>,
    pub server_after_fixed: Option<JsonValue>,
    pub protocol_us: Option<(f64, f64)>,
    pub serve_inputs: Vec<Request>,
    pub sweeps: Vec<SweepRep>,
    pub records_written: u64,
    pub loop_outcome: LoopOutcome,
    /// Wall time of the rounds, s.
    pub measured_s: f64,
    /// Operations attempted outside the fixed-rate serving steps.
    pub attempted: usize,
    /// Failed operations and failed output checks, with reasons.
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A step whose generator ran late (p99) by more than this share of the
/// step's p99 latency measured the generator as much as the server.
const UNRESOLVED_LATE_SHARE: f64 = 0.25;

/// The goodput ladder: 1000 rps × 1.05^k up to 16 000 rps.
pub fn goodput_ladder() -> Vec<f64> {
    (0..57).map(|k| 1000.0 * 1.05_f64.powi(k)).collect()
}

/// Due-ordered latencies of a step, ms (refused and lost read ∞).
fn latencies(step: &StepResult) -> Vec<f64> {
    step.latency.iter().map(|&(_, ms)| ms).collect()
}

/// The backlog grows when the last quarter of a step waits more than
/// twice as long as the first quarter (plus 1 ms of slack).
fn backlog_grows(step: &StepResult) -> bool {
    let lat = latencies(step);
    let q = lat.len() / 4;
    q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 1.0
}

/// Tail latency of a step under the tail rule, ms.
fn step_p99(step: &StepResult) -> f64 {
    stats::quantile_sorted(&stats::sorted(&latencies(step)), 0.99)
}

/// A goodput rung passes: every request answered correctly, p99 within
/// the limit, no growing backlog.
pub fn step_meets_limit(step: &StepResult, p99_limit_ms: f64) -> bool {
    step.failed == 0
        && step.shed == 0
        && step.sent == step.scheduled
        && step_p99(step) <= p99_limit_ms
        && !backlog_grows(step)
}

pub fn fixed_rate(steps: &[StepResult], q: f64) -> f64 {
    let per_step: Vec<f64> = steps
        .iter()
        .map(|s| stats::quantile_sorted(&stats::sorted(&latencies(s)), q))
        .collect();
    median(&per_step)
}

impl Report {
    fn fixed_steps(&self) -> impl Iterator<Item = &StepResult> {
        self.lo_steps.iter().chain(&self.hi_steps)
    }

    fn attempted_total(&self) -> usize {
        self.attempted + self.fixed_steps().map(|s| s.scheduled).sum::<usize>()
    }

    fn failed_total(&self) -> usize {
        self.failures.len() + self.fixed_steps().map(|s| s.failed + s.shed).sum::<usize>()
    }

    /// True when every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed_total() == 0
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&mut self) -> Vec<Metric> {
        let setup_s = median(&self.setup.iter().map(|t| t.total_s).collect::<Vec<_>>());
        let fast_ms: Vec<f64> = self
            .loop_outcome
            .fast
            .iter()
            .map(|t| t.wall_s * 1e3)
            .collect();
        let fast = stats::summarize(&fast_ms);
        if fast.tail_pct.is_none_or(|p| p < 90.0) {
            self.failures
                .push(format!("{} fast iterations cannot support p90", fast.n));
        }
        let short: Vec<String> = self
            .fixed_steps()
            .filter(|s| stats::tail_percentile(s.scheduled).is_none_or(|p| p < 99.0))
            .map(|s| format!("{} requests in a step cannot support p99", s.scheduled))
            .collect();
        self.failures.extend(short);
        let fast_p90 = stats::quantile_sorted(&stats::sorted(&fast_ms), 0.9);
        let sweep_rate: Vec<f64> = self
            .sweeps
            .iter()
            .map(|r| r.executed as f64 / r.sweep_s)
            .collect();
        let ok_ratio = 1.0 - self.failed_total() as f64 / self.attempted_total().max(1) as f64;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("ok_ratio", ok_ratio, "ratio"),
            metric("fast_iter_ms.p50", fast.p50, "ms"),
            metric("fast_iter_ms.p90", fast_p90, "ms"),
            metric(
                "trad_iter_s.p50",
                median_or_nan(&self.loop_outcome.trad_rounds),
                "s",
            ),
            metric("sweep_scen_per_s", median_or_nan(&sweep_rate), "1/s"),
        ]
    }

    /// Prints the fingerprint, the readable table and the result line;
    /// returns whether every check passed.
    pub fn print(mut self, workload: &str, seed: u64, trace: bool) -> bool {
        let e2e = self.end_to_end();
        println!(
            "# host {}",
            host_fingerprint(workload, seed, trace).render()
        );
        for m in &e2e {
            println!("# e2e {:<24} {:>14.6} {}", m.name, m.value, m.unit);
        }
        // The samples behind the per-rep medians, in run order, so a
        // reader can tell a slow phase of the host from a slow rep.
        let samples = |v: &mut dyn Iterator<Item = f64>| {
            v.map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
        };
        println!(
            "# setup reps s: {}",
            samples(&mut self.setup.iter().map(|t| t.total_s))
        );
        println!(
            "# trad round means s: {}",
            samples(&mut self.loop_outcome.trad_rounds.iter().copied())
        );
        println!(
            "# sweep reps 1/s: {}",
            samples(&mut self.sweeps.iter().map(|r| r.executed as f64 / r.sweep_s))
        );
        println!(
            "# measured {:.1} s in rounds: {} fast iterations, {} traditional, {} sweep reps",
            self.measured_s,
            self.loop_outcome.fast.len(),
            self.loop_outcome.trad.len(),
            self.sweeps.len()
        );
        for m in &self.layers {
            println!(
                "# layer {:<40} {:>14.6} {:<8} moves {}",
                m.name,
                m.value,
                m.unit,
                crate::layers::moves(&m.name)
            );
        }
        for s in self.fixed_steps() {
            let late_p99 = stats::quantile_sorted(&stats::sorted(&s.late_ms), 0.99);
            let p99 = step_p99(s);
            println!(
                "# serve step {:.0} rps: sent {} ok {} shed {} failed {}, p99 {:.3} ms, generator late p99 {:.3} ms{}",
                s.rate,
                s.sent,
                s.ok,
                s.shed,
                s.failed,
                p99,
                late_p99,
                if late_p99 > UNRESOLVED_LATE_SHARE * p99 {
                    " (unresolved: the generator ran late by a large share of p99)"
                } else {
                    ""
                }
            );
        }
        let shown: Vec<Metric> = if trace { self.layers.clone() } else { e2e };
        let unmeasured: Vec<String> = shown
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} was not measured", m.name))
            .collect();
        self.failures.extend(unmeasured);
        for f in self.failures.iter().take(20) {
            println!("# FAILED {f}");
        }
        let metrics = JsonValue::Obj(
            shown
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() {
                        JsonValue::Num(m.value)
                    } else {
                        JsonValue::Null
                    };
                    (
                        m.name.clone(),
                        JsonValue::Obj(vec![
                            ("value".to_string(), value),
                            ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let result = JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Num(self.attempted_total() as f64),
            ),
            (
                "failed".to_string(),
                JsonValue::Num(self.failed_total() as f64),
            ),
            ("metrics".to_string(), metrics),
        ]);
        println!("{}", result.render());
        self.correct()
    }
}

pub fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// What the numbers depend on besides the code: results with different
/// fingerprints are not comparable.
pub fn host_fingerprint(workload: &str, seed: u64, trace: bool) -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            s.split("target-cpu=")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "default".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let s = |v: String| JsonValue::Str(v);
    JsonValue::Obj(vec![
        ("cpu".to_string(), s(cpu)),
        ("nproc".to_string(), JsonValue::Num(nproc as f64)),
        ("target_cpu".to_string(), s(target_cpu)),
        (
            "stco_threads".to_string(),
            s(std::env::var("STCO_THREADS").unwrap_or_else(|_| "unset".to_string())),
        ),
        ("rustc".to_string(), s(rustc)),
        ("workload".to_string(), s(workload.to_string())),
        ("seed".to_string(), JsonValue::Num(seed as f64)),
        ("trace".to_string(), JsonValue::Bool(trace)),
    ])
}
