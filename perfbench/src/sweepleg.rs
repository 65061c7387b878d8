//! The sweep leg: `SweepEngine::run_sweep` of the fast flow
//! (`FlowEval`) over 3 technologies × a benchmark pair × a seeded
//! corner grid, journaled into a fresh registry, then a read-only
//! resume pass and Pareto extraction.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use stco_compact::tech::CornerGrid;
use stco_core::flow::{TechnologyStage, TrainedSurrogates};
use stco_numerics::rng::Xorshift;
use stco_store::Registry;
use stco_sweep::{
    front_fingerprint, pareto_front, FlowEval, Scenario, ScenarioEval, ScenarioResult, SweepEngine,
    SweepSpec,
};
use stco_system::bench_gen::Benchmark;
use stco_tcad::materials::Technology;

/// The seeded sweep spec: the default grid with each range pulled in
/// by up to 3 % at either end (a different grid per seed, at nearly the
/// same evaluation cost).
pub fn spec(seed: u64, benchmarks: &[Benchmark], levels: usize) -> SweepSpec {
    let mut rng = Xorshift::new(seed ^ 0x5EE9);
    let mut shrink = |(lo, hi): (f64, f64)| {
        let w = hi - lo;
        (lo + 0.03 * w * rng.uniform(), hi - 0.03 * w * rng.uniform())
    };
    let base = CornerGrid::default();
    SweepSpec {
        technologies: Technology::ALL.to_vec(),
        benchmarks: benchmarks.to_vec(),
        grid: CornerGrid {
            vdd: shrink(base.vdd),
            vth_shift: shrink(base.vth_shift),
            cox_scale: shrink(base.cox_scale),
        },
        levels,
        eval_tag: "perfbench-fast".to_string(),
    }
}

/// `FlowEval` with a per-scenario wall clock (a mutex push per scenario
/// of tens of milliseconds, so untraced runs use it too and both kinds
/// of run time the same code).
pub struct TimedEval {
    inner: FlowEval,
    /// Evaluation seconds, in completion order.
    pub seconds: Mutex<Vec<f64>>,
}

impl ScenarioEval for TimedEval {
    fn evaluate(&self, scenario: &Scenario) -> stco_sweep::Result<ScenarioResult> {
        let t0 = Instant::now();
        let out = self.inner.evaluate(scenario);
        self.seconds
            .lock()
            .expect("no evaluator panics while holding the timing lock")
            .push(t0.elapsed().as_secs_f64());
        out
    }
}

/// One sweep rep.
pub struct SweepRep {
    /// Scenarios executed by the first pass.
    pub executed: usize,
    /// Wall time of the first pass, s.
    pub sweep_s: f64,
    /// Wall time of the read-only resume pass, s.
    pub resume_s: f64,
    /// Pareto extraction + fingerprint, s.
    pub pareto_s: f64,
    /// Per-scenario evaluation seconds.
    pub eval_s: Vec<f64>,
    /// `par.pool_utilization` right after the first pass.
    pub pool_utilization: f64,
}

/// Runs one sweep rep in a fresh journal at `dir`.
pub fn run_rep(
    dir: &Path,
    spec: &SweepSpec,
    surrogates: &TrainedSurrogates,
) -> Result<SweepRep, String> {
    let registry = Registry::open(dir).map_err(|e| format!("sweep journal: {e}"))?;
    let engine = SweepEngine::new(spec, registry).map_err(|e| format!("sweep spec: {e}"))?;
    let flow = FlowEval::new(spec, TechnologyStage::Fast, Some(surrogates.clone()))
        .map_err(|e| format!("sweep flows: {e}"))?;
    let eval = TimedEval {
        inner: flow,
        seconds: Mutex::new(Vec::new()),
    };
    let first = engine
        .run_sweep(&eval, None)
        .map_err(|e| format!("sweep: {e}"))?;
    let pool_utilization = stco_obs::Recorder::global()
        .metrics()
        .gauge("par.pool_utilization")
        .get();
    if !first.is_complete() || first.executed != spec.scenario_count() {
        return Err(format!(
            "sweep: executed {} of {} scenarios",
            first.executed,
            spec.scenario_count()
        ));
    }
    for (scenario, r) in &first.records {
        for v in [r.delay, r.power, r.area] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("sweep scenario {}: PPA value {v}", scenario.index));
            }
        }
    }
    let t0 = Instant::now();
    let front = pareto_front(&first.records);
    let fingerprint = front_fingerprint(&front);
    let pareto_s = t0.elapsed().as_secs_f64();
    let resume = engine
        .run_sweep(&eval, None)
        .map_err(|e| format!("sweep resume: {e}"))?;
    if resume.executed != 0 || front_fingerprint(&pareto_front(&resume.records)) != fingerprint {
        return Err(format!(
            "sweep resume executed {} scenarios or changed the Pareto front",
            resume.executed
        ));
    }
    Ok(SweepRep {
        executed: first.executed,
        sweep_s: first.seconds,
        resume_s: resume.seconds,
        pareto_s,
        eval_s: eval.seconds.into_inner().unwrap_or_default(),
        pool_utilization,
    })
}
