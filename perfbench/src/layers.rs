//! The per-layer pass of a traced run. Every number is timed by this
//! file around calls into one crate's public functions, or read from a
//! `stco-obs` counter or gauge the program already keeps; nothing is
//! added to the program. Kernel rates divide FLOPs and bytes computed
//! from the shapes by the measured time.
//!
//! The pass also runs the stage-sum check: for every timed fast and
//! traditional iteration, device + compact + cells + system from
//! `IterationResult::seconds` plus the unattributed rest must equal the
//! wall time the benchmark measured, and the rest may not exceed
//! [`OTHER_TOLERANCE`] of it.

use std::path::Path;
use std::time::Instant;

use stco_cells::charac::CharConfig;
use stco_cells::encode::CellGraph;
use stco_cells::liberty::Library;
use stco_compact::extract::{extract_parameters, TransferCurve};
use stco_compact::tech::{Corner, TechnologyCard};
use stco_core::flow::{fast_device_solution, predicted_library, StcoFlow, TrainedSurrogates};
use stco_numerics::rng::Xorshift;
use stco_numerics::Matrix;
use stco_serve::protocol::Request;
use stco_serve::service::PredictInput;
use stco_store::Registry;
use stco_surrogate::cell_model::{metric_index, BatchedCellGraph, CellModelConfig, METRICS};
use stco_sweep::{SweepJournal, SweepSpec};
use stco_system::ppa::{evaluate_system, EvalConfig};
use stco_tcad::device::Bias;
use stco_tcad::poisson::solve_poisson;
use stco_tcad::transport::drain_current;

use crate::flowleg::Timed;
use crate::report::{fixed_rate, median_or_nan, metric, Metric, Report};
use crate::serve::snapshot_num;
use crate::stats::{self, median};

/// Largest share of an iteration's wall time the stage timers may
/// leave unattributed (device build, gate sweep and card assembly run
/// outside the four stages; they measure well under 5 %).
pub const OTHER_TOLERANCE: f64 = 0.10;

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload (first matching name prefix wins).
const MOVES: [(&str, &str); 28] = [
    (
        "core.fast.system",
        "fast_iter_ms and sweep_scen_per_s on sweep_large, fast_iter_ms a little on table1_loop",
    ),
    (
        "core.fast.",
        "fast_iter_ms on table1_loop (device is the largest part there)",
    ),
    ("core.trad.", "trad_iter_s.p50"),
    ("surrogate.cell_predict_many", "fast_iter_ms on table1_loop"),
    (
        "surrogate.cell_",
        "serve.goodput_rps and serve.client_p50_ms.hi",
    ),
    ("surrogate.", "fast_iter_ms on table1_loop"),
    (
        "numerics.",
        "fast_iter_ms on table1_loop, serve.goodput_rps",
    ),
    ("tcad.dataset", "setup_s"),
    ("tcad.", "trad_iter_s.p50"),
    ("compact.", "fast_iter_ms on table1_loop"),
    ("cells.dataset", "setup_s"),
    ("cells.", "trad_iter_s.p50"),
    ("spice.", "trad_iter_s.p50"),
    ("nn.", "setup_s"),
    ("par.pool_utilization.sweep", "sweep_scen_per_s"),
    ("par.", "setup_s"),
    (
        "system.",
        "sweep_scen_per_s and fast_iter_ms on sweep_large, fast_iter_ms a little on table1_loop",
    ),
    ("sweep.", "sweep_scen_per_s"),
    ("store.record", "sweep_scen_per_s"),
    ("store.", "setup_s"),
    ("serve.batch_size", "serve.goodput_rps"),
    (
        "serve.queue_wait",
        "serve.client_p50_ms.* and serve.client_p99_ms.*",
    ),
    ("serve.server_p99", "serve.client_p99_ms.*"),
    ("serve.outside", "serve.client_p50_ms.lo"),
    ("serve.client", "nothing gated: client-side serving figures"),
    (
        "serve.goodput",
        "serve.client_p50_ms.lo (the same forward cost, at saturation)",
    ),
    ("serve.", "ok_ratio on table1_loop"),
    ("protocol.", "serve.client_p50_ms.lo"),
];

/// The end-to-end metric and workload a per-layer metric should move.
pub fn moves(name: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or(
            "the validity of the client-side serving latencies (generator lateness)",
            |m| m.1,
        )
}

/// What the per-layer pass needs from the run.
pub struct Context<'a> {
    pub flows: &'a [StcoFlow],
    pub sweep_flows: &'a [StcoFlow],
    pub corners: &'a [Corner],
    pub bundle: &'a TrainedSurrogates,
    pub spec: &'a SweepSpec,
    pub char_config: &'a CharConfig,
    pub dir: &'a Path,
}

/// Median seconds per call of `f` over `reps` calls.
fn time_per_call<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn counter(name: &str) -> u64 {
    stco_obs::Recorder::global().metrics().counter(name).get()
}

/// Stage breakdown of timed iterations, medians, in `scale` units, plus
/// the stage-sum check.
fn stages(prefix: &str, iters: &[Timed], scale: f64, unit: &'static str, rep: &mut Report) {
    let mut parts: [Vec<f64>; 5] = Default::default();
    for t in iters {
        let s = t.seconds;
        let other = t.wall_s - s.total();
        if other < -1e-9 || other > OTHER_TOLERANCE * t.wall_s {
            rep.failures.push(format!(
                "stage sum: {prefix} iteration of {:.3} ms leaves {:.3} ms unattributed (limit {:.0} %)",
                t.wall_s * 1e3,
                other * 1e3,
                OTHER_TOLERANCE * 100.0
            ));
        }
        for (slot, v) in parts
            .iter_mut()
            .zip([s.device, s.compact, s.cells, s.system, other])
        {
            slot.push(v * scale);
        }
    }
    for (name, values) in ["device", "compact", "cells", "system", "other"]
        .iter()
        .zip(&parts)
    {
        let suffix = if unit == "ms" { "ms" } else { "s" };
        rep.layers.push(metric(
            format!("{prefix}.{name}_{suffix}"),
            median_or_nan(values),
            unit,
        ));
    }
}

/// Runs the per-layer pass and appends its metrics to `rep.layers`.
pub fn measure(ctx: &Context<'_>, rep: &mut Report) {
    let mut out: Vec<Metric> = Vec::new();
    let outcome = std::mem::take(&mut rep.loop_outcome);
    stages("core.fast", &outcome.fast, 1e3, "ms", rep);
    stages("core.trad", &outcome.trad, 1.0, "s", rep);
    rep.loop_outcome = outcome;

    if let Err(e) = device_and_compact(ctx, &mut out) {
        rep.failures.push(e);
    }
    cell_inference(ctx, rep, &mut out);
    numerics_gemm(&mut out);
    if let Err(e) = characterization(ctx, &mut out) {
        rep.failures.push(e);
    }
    if let Err(e) = system_and_store(ctx, &mut out) {
        rep.failures.push(e);
    }

    // Set-up steps: medians over the reps.
    let setup = |f: fn(&crate::setup::SetupTimes) -> f64| {
        median(&rep.setup.iter().map(f).collect::<Vec<_>>())
    };
    out.push(metric("tcad.dataset_s", setup(|t| t.tcad_dataset_s), "s"));
    out.push(metric("cells.dataset_s", setup(|t| t.cells_dataset_s), "s"));
    out.push(metric(
        "nn.train_poisson_s",
        setup(|t| t.train_poisson_s),
        "s",
    ));
    out.push(metric("nn.train_iv_s", setup(|t| t.train_iv_s), "s"));
    out.push(metric("nn.train_cell_s", setup(|t| t.train_cell_s), "s"));
    out.push(metric(
        "store.load_ms",
        setup(|t| t.store_load_s) * 1e3,
        "ms",
    ));
    out.push(metric(
        "par.pool_utilization.train",
        setup(|t| t.pool_util_train),
        "ratio",
    ));
    out.push(metric(
        "par.pool_utilization.charac",
        setup(|t| t.pool_util_charac),
        "ratio",
    ));

    // Sweep leg.
    let threads = stco_par::ParConfig::current().threads as f64;
    let evals: Vec<f64> = rep
        .sweeps
        .iter()
        .flat_map(|r| r.eval_s.iter().map(|s| s * 1e3))
        .collect();
    let sorted_evals = stats::sorted(&evals);
    let field = |f: fn(&crate::sweepleg::SweepRep) -> f64| {
        median_or_nan(&rep.sweeps.iter().map(f).collect::<Vec<_>>())
    };
    out.push(metric(
        "par.pool_utilization.sweep",
        field(|r| r.pool_utilization),
        "ratio",
    ));
    out.push(metric(
        "sweep.busy_ratio",
        field(|r| r.eval_s.iter().sum::<f64>() / r.sweep_s) / threads,
        "ratio",
    ));
    if !evals.is_empty() {
        out.push(metric(
            "sweep.eval_ms.p50",
            stats::quantile_sorted(&sorted_evals, 0.5),
            "ms",
        ));
        out.push(metric(
            "sweep.eval_ms.p90",
            stats::quantile_sorted(&sorted_evals, 0.9),
            "ms",
        ));
    }
    out.push(metric(
        "sweep.records_written",
        rep.records_written as f64,
        "count",
    ));
    out.push(metric("sweep.pareto_ms", field(|r| r.pareto_s) * 1e3, "ms"));
    out.push(metric("store.resume_ms", field(|r| r.resume_s) * 1e3, "ms"));

    serve_layers(rep, &mut out);
    rep.layers.extend(out);
}

/// TCAD, surrogate device inference and compact extraction at the
/// first loop benchmark and the middle seeded corner.
fn device_and_compact(ctx: &Context<'_>, out: &mut Vec<Metric>) -> Result<(), String> {
    let flow = &ctx.flows[0];
    let corner = ctx.corners[ctx.corners.len() / 2];
    let spec = flow.device_at(corner);
    let device = spec.build().map_err(|e| format!("device build: {e}"))?;
    let (gates, vd) = flow.gate_sweep(corner);
    let biases: Vec<Bias> = gates.iter().map(|&g| Bias { gate: g, drain: vd }).collect();

    // Traditional device stage: Newton–Poisson + drain current.
    let newton_before = counter("tcad.newton_iters");
    let mut solve_s = Vec::new();
    let mut current_s = Vec::new();
    let mut iters = 0usize;
    for &bias in &biases {
        let t0 = Instant::now();
        let sol = solve_poisson(&device, bias).map_err(|e| format!("solve_poisson: {e}"))?;
        solve_s.push(t0.elapsed().as_secs_f64());
        iters += sol.newton_iterations;
        current_s.push(time_per_call(5, || drain_current(&device, &sol, bias)));
    }
    let newton_counted = counter("tcad.newton_iters") - newton_before;
    if newton_counted != iters as u64 {
        return Err(format!(
            "tcad.newton_iters counter moved by {newton_counted}, solutions report {iters}"
        ));
    }
    out.push(metric(
        "tcad.solve_poisson_ms",
        median(&solve_s) * 1e3,
        "ms",
    ));
    out.push(metric("tcad.newton_iters", iters as f64, "count"));
    out.push(metric(
        "tcad.drain_current_ms",
        median(&current_s) * 1e3,
        "ms",
    ));

    // Fast device stage: the surrogate Poisson loop, then IV.
    let poisson = &ctx.bundle.poisson;
    let iv = &ctx.bundle.iv;
    let mut samples = Vec::with_capacity(biases.len());
    for &bias in &biases {
        samples.push(
            fast_device_solution(&spec, bias, poisson)
                .map_err(|e| format!("fast_device_solution: {e}"))?,
        );
    }
    out.push(metric(
        "surrogate.poisson_predict_us",
        time_per_call(30, || poisson.predict(&samples[0])) * 1e6,
        "us",
    ));
    out.push(metric(
        "surrogate.iv_predict_us",
        time_per_call(30, || iv.predict_current(&samples[0])) * 1e6,
        "us",
    ));

    // Compact extraction on the fast flow's transfer curve.
    let sign = spec.channel.polarity.sign();
    let curve = TransferCurve {
        vgs: gates.clone(),
        vds: vd,
        id: samples
            .iter()
            .map(|s| sign * iv.predict_current(s))
            .collect(),
    };
    let card = TechnologyCard::reference(stco_tcad::materials::Technology::Ltps);
    let template = match spec.channel.polarity {
        stco_tcad::materials::Polarity::NType => card.nfet.clone(),
        stco_tcad::materials::Polarity::PType => card.pfet.clone(),
    };
    let curves = [curve];
    let extraction =
        extract_parameters(&template, &curves).map_err(|e| format!("extract_parameters: {e}"))?;
    out.push(metric(
        "compact.extract_ms",
        time_per_call(20, || extract_parameters(&template, &curves)) * 1e3,
        "ms",
    ));
    out.push(metric(
        "compact.lm_iters",
        extraction.iterations as f64,
        "count",
    ));
    Ok(())
}

/// FLOPs of one forward of the production-width cell model (the
/// set-up trains `CellModelConfig::default()`) over `graphs`: the GCN
/// linear layers, the adjacency products (self loops + both edge
/// directions) and every metric head on the pooled rows.
fn cell_forward_flops(graphs: &[&CellGraph], metrics: usize) -> f64 {
    let c = CellModelConfig::default();
    let nodes: usize = graphs.iter().map(|g| g.num_nodes()).sum();
    let nnz: usize = graphs
        .iter()
        .map(|g| g.num_nodes() + 2 * g.edges.len())
        .sum();
    let mut flops = 0.0;
    for d in 0..c.depth {
        let in_dim = if d == 0 {
            stco_cells::encode::FEATURE_DIM
        } else {
            c.hidden
        };
        flops += 2.0 * (nodes * in_dim * c.hidden) as f64 + 2.0 * (nnz * c.hidden) as f64;
    }
    flops + 2.0 * (graphs.len() * metrics * (c.hidden * c.head_hidden + c.head_hidden)) as f64
}

/// Cell-model inference one graph at a time (the fast loop's shape) and
/// batched (the server's shape), on the serve leg's own request graphs.
fn cell_inference(ctx: &Context<'_>, rep: &Report, out: &mut Vec<Metric>) {
    let model = &ctx.bundle.cells;
    let graphs: Vec<&CellGraph> = rep
        .serve_inputs
        .iter()
        .filter_map(|r| match r {
            Request::Predict {
                input: PredictInput::Cell { graph, .. },
                ..
            } => Some(graph),
            _ => None,
        })
        .collect();
    if graphs.len() < 32 {
        return;
    }
    let timing = [
        metric_index("delay").expect("known metric"),
        metric_index("output_slew").expect("known metric"),
    ];
    let mut k = 0usize;
    out.push(metric(
        "surrogate.cell_predict_many_us",
        time_per_call(200, || {
            k = (k + 1) % graphs.len();
            model.predict_many(graphs[k], &timing)
        }) * 1e6,
        "us",
    ));
    let all: Vec<usize> = (0..METRICS.len()).collect();
    for b in [1usize, 8, 32] {
        let batch = BatchedCellGraph::pack(&graphs[..b]);
        let lists: Vec<&[usize]> = (0..b).map(|_| all.as_slice()).collect();
        let s = time_per_call(60, || model.predict_batch(&batch, &lists));
        out.push(metric(
            format!("surrogate.cell_predict_batch_us.b{b}"),
            s * 1e6,
            "us",
        ));
        if b == 32 {
            let flops = cell_forward_flops(&graphs[..b], all.len());
            out.push(metric(
                "surrogate.cell_predict_batch_gflops.b32",
                flops / s * 1e-9,
                "GFLOP/s",
            ));
            out.push(metric(
                "surrogate.cell_pack_us.b32",
                time_per_call(60, || BatchedCellGraph::pack(&graphs[..b])) * 1e6,
                "us",
            ));
        }
    }
}

/// The batched GAT trunk GEMM shape, f64, through the public dispatch.
fn numerics_gemm(out: &mut Vec<Metric>) {
    let (m, k, n) = (2048usize, 32usize, 32usize);
    let mut rng = Xorshift::new(4242);
    let mut fill = |rows: usize, cols: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.uniform_in(-1.0, 1.0))
                .collect(),
        )
    };
    let a = fill(m, k);
    let b = fill(k, n);
    let mut c = Matrix::zeros(m, n);
    let s = time_per_call(100, || {
        a.gemm_into(&b, &mut c);
        c.get(0, 0)
    });
    let flops = 2.0 * (m * k * n) as f64;
    // A and B read once, C read and written (accumulating GEMM).
    let bytes = 8.0 * (m * k + k * n + 2 * m * n) as f64;
    out.push(metric(
        "numerics.gemm_gflops.2048x32x32",
        flops / s * 1e-9,
        "GFLOP/s",
    ));
    out.push(metric(
        "numerics.gemm_gbps.2048x32x32",
        bytes / s * 1e-9,
        "GB/s",
    ));
}

/// SPICE characterization of the first loop benchmark's cells at the
/// middle seeded corner, with the solver counters it moves.
fn characterization(ctx: &Context<'_>, out: &mut Vec<Metric>) -> Result<(), String> {
    let corner = ctx.corners[ctx.corners.len() / 2];
    let card = TechnologyCard::reference(stco_tcad::materials::Technology::Ltps).at_corner(corner);
    let names = [
        "spice.newton_iters",
        "spice.timestep_accepts",
        "spice.timestep_rejects",
        "cells.tran_memo_hits",
        "cells.tran_memo_misses",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
    let t0 = Instant::now();
    Library::characterize_subset(&card, ctx.char_config, ctx.flows[0].cells())
        .map_err(|e| format!("characterize_subset: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    let d: Vec<f64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| (counter(n) - b) as f64)
        .collect();
    out.push(metric("cells.characterize_s", seconds, "s"));
    out.push(metric("spice.newton_iters", d[0], "count"));
    out.push(metric("spice.timestep_accepts", d[1], "count"));
    out.push(metric("spice.timestep_rejects", d[2], "count"));
    out.push(metric(
        "cells.tran_memo_hit_ratio",
        d[3] / (d[3] + d[4]).max(1.0),
        "ratio",
    ));
    Ok(())
}

/// System evaluation per sweep design on a surrogate library, and one
/// journal record write per sweep scenario.
fn system_and_store(ctx: &Context<'_>, out: &mut Vec<Metric>) -> Result<(), String> {
    let card = TechnologyCard::reference(stco_tcad::materials::Technology::Ltps);
    let mut per_design = Vec::new();
    for flow in ctx.sweep_flows {
        let library = predicted_library(flow.cells(), &card, &ctx.bundle.cells, ctx.char_config);
        let config = EvalConfig::fast();
        let mut err = None;
        per_design.push(time_per_call(3, || {
            if let Err(e) = evaluate_system(flow.logic(), &library, &config) {
                err = Some(format!("evaluate_system: {e}"));
            }
        }));
        if let Some(e) = err {
            return Err(e);
        }
    }
    out.push(metric(
        "system.evaluate_ms",
        per_design.iter().sum::<f64>() / per_design.len().max(1) as f64 * 1e3,
        "ms",
    ));

    let registry =
        Registry::open(&ctx.dir.join("journal-timing")).map_err(|e| format!("journal: {e}"))?;
    let journal = SweepJournal::open(registry);
    let scenarios = ctx.spec.expand().map_err(|e| format!("spec: {e}"))?;
    let result = stco_sweep::ScenarioResult {
        delay: 1e-9,
        power: 1e-3,
        area: 1e-9,
        cost: 0.0,
    };
    let mut samples = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let t0 = Instant::now();
        journal
            .record_scenario(scenario, &result)
            .map_err(|e| format!("record_scenario: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    out.push(metric("store.record_ms", median(&samples) * 1e3, "ms"));
    Ok(())
}

/// Server-side figures from the `metrics` op, the protocol codec on the
/// workload's payloads, and how late the generator ran.
fn serve_layers(rep: &mut Report, out: &mut Vec<Metric>) {
    let num = |snap: &Option<stco_obs::json::JsonValue>, name: &str, field: &str| {
        snap.as_ref()
            .and_then(|s| snapshot_num(s, name, field))
            .unwrap_or(0.0)
    };
    let fixed = &rep.server_after_fixed;
    let count = num(fixed, "serve.batch_size", "count");
    out.push(metric(
        "serve.batch_size.mean",
        num(fixed, "serve.batch_size", "sum") / count.max(1.0),
        "count",
    ));
    out.push(metric(
        "serve.queue_wait_ms.p50",
        num(fixed, "serve.queue_wait_seconds", "p50") * 1e3,
        "ms",
    ));
    out.push(metric(
        "serve.queue_wait_ms.p99",
        num(fixed, "serve.queue_wait_seconds", "p99") * 1e3,
        "ms",
    ));
    let lo = &rep.server_after_lo;
    let server_p50_ms = num(lo, "serve.latency_seconds", "window.p50") * 1e3;
    out.push(metric(
        "serve.server_p99_ms",
        num(lo, "serve.latency_seconds", "window.p99") * 1e3,
        "ms",
    ));
    if let Some(first) = rep.lo_steps.first() {
        let client_p50 = stats::quantile_sorted(
            &stats::sorted(&first.latency.iter().map(|&(_, ms)| ms).collect::<Vec<_>>()),
            0.5,
        );
        out.push(metric(
            "serve.outside_server_ms.p50",
            client_p50 - server_p50_ms,
            "ms",
        ));
    }
    // Client-side figures too unsteady on a shared 2-vCPU host to gate
    // on: the median over the fixed-rate steps of each step's p50 / p99
    // (≥ 1500 requests per step, so ≥ 15 beyond the p99).
    out.push(metric(
        "serve.client_p50_ms.lo",
        fixed_rate(&rep.lo_steps, 0.5),
        "ms",
    ));
    out.push(metric(
        "serve.client_p50_ms.hi",
        fixed_rate(&rep.hi_steps, 0.5),
        "ms",
    ));
    out.push(metric(
        "serve.client_p99_ms.lo",
        fixed_rate(&rep.lo_steps, 0.99),
        "ms",
    ));
    out.push(metric(
        "serve.client_p99_ms.hi",
        fixed_rate(&rep.hi_steps, 0.99),
        "ms",
    ));
    // A search whose lowest rung failed read NaN: not measured.
    let goodput = if rep.goodput.iter().all(|g| g.is_finite()) {
        median_or_nan(&rep.goodput)
    } else {
        f64::NAN
    };
    out.push(metric("serve.goodput_rps", goodput, "1/s"));
    for (name, counter) in [
        ("serve.shed", "serve.shed_total"),
        ("serve.deadline_exceeded", "serve.deadline_exceeded"),
        ("serve.errors", "serve.errors"),
    ] {
        out.push(metric(name, num(fixed, counter, "value"), "count"));
    }
    if let Some((enc, dec)) = rep.protocol_us {
        out.push(metric("protocol.encode_us", enc, "us"));
        out.push(metric("protocol.decode_us", dec, "us"));
    }
    let late: Vec<f64> = rep
        .lo_steps
        .iter()
        .chain(&rep.hi_steps)
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    let sorted_late = stats::sorted(&late);
    if !sorted_late.is_empty() {
        let tail = stats::tail_percentile(sorted_late.len()).unwrap_or(100.0);
        out.push(metric(
            "loadgen.late_ms.p99",
            stats::quantile_sorted(&sorted_late, tail.min(99.0) / 100.0),
            "ms",
        ));
        out.push(metric(
            "loadgen.late_ms.max",
            sorted_late[sorted_late.len() - 1],
            "ms",
        ));
    }
}
