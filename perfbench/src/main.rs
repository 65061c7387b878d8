//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_loop --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every run sets up the surrogate environment (several times, median
//! reported as `setup_s`) and runs the legs behind the end-to-end
//! metrics on the workload's designs: the fast-flow sweep, the
//! traditional Table I iterations and the fast Table I loop, in
//! interleaved rounds, plus the open-loop cell server on `table1_loop`
//! before them. With `--trace 0` the last stdout line carries every
//! end-to-end metric; with `--trace 1` the same legs run, followed by
//! the serving leg where the workload has none, the goodput search and
//! the per-layer pass, and the last line carries every per-layer
//! metric.
//!
//! Exit status: 0 when every output check passed, 1 when one failed
//! (the result line still prints, with `"correct": false`), 2 on bad
//! arguments or a set-up failure (no result line).
//!
//! `perfbench compare RUN...` summarizes saved outputs per host
//! fingerprint (see `compare.rs`).

mod compare;
mod flowleg;
mod layers;
mod loadgen;
mod report;
mod serve;
mod setup;
mod stats;
mod sweepleg;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stco_cells::library::CellType;
use stco_core::flow::{FlowConfig, StcoFlow};
use stco_store::ArtifactKey;
use stco_surrogate::cell_model::CellModel;
use stco_system::bench_gen::Benchmark;
use stco_tcad::materials::Technology;

use report::Report;

/// Rounds per run: each runs a set-up rep (`setup_s` is the median of
/// these and the first rep, whose models the legs use), a sweep rep
/// (`sweep_scen_per_s` is the median rep), a traditional round
/// (`trad_iter_s.p50` is the median round mean) and an equal share of
/// the fast loop, so that a burst of load from the host's
/// other tenants lands on a few samples of every figure rather than on
/// all samples of one.
const ROUNDS: usize = 6;
/// Goodput searches per traced run (`serve.goodput_rps` is their median).
const GOODPUT_SEARCHES: usize = 3;
/// Fixed-rate (lo, hi) step pairs per run.
const SERVE_REPS: usize = 3;
/// Fixed open-loop rates, requests per second.
const LO_RATE: f64 = 1000.0;
const HI_RATE: f64 = 4000.0;
/// Requests per fixed-rate step: enough for p99 to leave ≥ 10 beyond.
const STEP_REQUESTS: f64 = 1500.0;
/// Latency limit on p99 for the goodput search, ms.
const P99_LIMIT_MS: f64 = 50.0;
/// Fewest fast iterations in any run (p90 needs ≥ 100 for 10 beyond).
const MIN_FAST: usize = 120;

/// A named set of designs. Every leg behind an end-to-end metric runs
/// on the workload's designs, so no figure is measured twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Small designs (s298/s1488): the Table I loop is most of the run;
    /// the cell server runs at fixed rates.
    Table1Loop,
    /// Large designs (32bit MAC/Darkriscv): the sweep is most of the run.
    SweepLarge,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1_loop" => Some(Workload::Table1Loop),
            "sweep_large" => Some(Workload::SweepLarge),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1Loop => "table1_loop",
            Workload::SweepLarge => "sweep_large",
        }
    }

    /// Designs of the Table I loop. Darkriscv is left out of the large
    /// loop: at about 240 ms a fast iteration, the 100 samples p90 needs
    /// would not fit a run.
    fn loop_designs(self) -> &'static [Benchmark] {
        match self {
            Workload::Table1Loop => &[Benchmark::S298, Benchmark::S1488],
            Workload::SweepLarge => &[Benchmark::Mac32],
        }
    }

    /// Designs of the sweep, and the corner-grid levels per axis: 162
    /// and 48 scenarios, about 2.5 s a rep either way.
    fn sweep(self) -> ([Benchmark; 2], usize) {
        match self {
            Workload::Table1Loop => ([Benchmark::S298, Benchmark::S1488], 3),
            Workload::SweepLarge => ([Benchmark::Mac32, Benchmark::Darkriscv], 2),
        }
    }

    /// Fast iterations per second of `--seconds`, sized so that a run
    /// measures about `--seconds` on a 2-vCPU x86-64 host. The count is
    /// fixed by `--seconds`, not by how fast the host runs, because the
    /// program's resident set grows with each fast iteration: a
    /// time-filled loop would make `peak_rss_mb` track the host's load.
    fn fast_per_second(self) -> f64 {
        match self {
            Workload::Table1Loop => 10.0,
            Workload::SweepLarge => 6.0,
        }
    }

    /// Supplies of the traditional flow's corners, V. Every round runs
    /// each loop design at each of them: both Table I designs at the
    /// middle supply on `table1_loop` (two iterations a round), the
    /// single large design at all three on `sweep_large`.
    fn trad_supplies(self) -> &'static [f64] {
        match self {
            Workload::Table1Loop => &flowleg::SUPPLIES[1..2],
            Workload::SweepLarge => &flowleg::SUPPLIES,
        }
    }

    /// Whether the fixed-rate serving leg counts into the end-to-end
    /// metrics (its reply checks into `ok_ratio`). Elsewhere it runs in
    /// traced runs only, for the per-layer `serve.*` figures.
    fn serves(self) -> bool {
        self == Workload::Table1Loop
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory private to this run, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = Path::new(".bench_run").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_run");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        if let Err(e) = compare::run(&argv[1..]) {
            eprintln!("perfbench compare: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload table1_loop|sweep_large \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let ok = report.print(args.workload.name(), args.seed, args.trace);
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let dir = RunDir::create()?;
    let workload = args.workload;
    let mut rep = Report::default();
    let build = |b: &Benchmark| {
        StcoFlow::new(FlowConfig::fast(Technology::Ltps, *b))
            .map_err(|e| format!("flow {}: {e}", b.name()))
    };
    let flows = |designs: &[Benchmark]| designs.iter().map(build).collect::<Result<Vec<_>, _>>();
    // The environment is the same for every workload: the cell model
    // learns the library cells of the paper's Table I designs.
    let table1_flows = flows(Workload::Table1Loop.loop_designs())?;
    let char_config = FlowConfig::fast(Technology::Ltps, Benchmark::S298).char_config;
    let mut cells: Vec<CellType> = table1_flows
        .iter()
        .flat_map(|f| f.cells().to_vec())
        .collect();
    cells.sort_by_key(|c| c.kind);
    cells.dedup_by_key(|c| c.kind);
    let loop_flows = flows(workload.loop_designs())?;

    // Set-up: the environment, cold. The legs use the first rep's
    // models; the other reps are spread over the rounds.
    let setup_rep =
        |k: usize| setup::build_bundle(&dir.0.join(format!("setup-{k}")), &cells, &char_config);
    let (bundle, first) = setup_rep(0)?;
    rep.setup.push(first);
    let registry_dir = dir.0.join("setup-0");
    let key = ArtifactKey::from_parts(CellModel::ARTIFACT_KIND, &["perfbench"]);

    if workload.serves() {
        serve_leg(&registry_dir, key, &cells, args, &mut rep)?;
    }

    let (sweep_benchmarks, levels) = workload.sweep();
    let spec = sweepleg::spec(args.seed, &sweep_benchmarks, levels);
    let corners = flowleg::corners(args.seed);
    let mut table1 =
        flowleg::TableLoop::new(&loop_flows, &corners, workload.trad_supplies(), &bundle);
    let fast_total = ((args.seconds * workload.fast_per_second()) as usize).max(MIN_FAST);
    let fast_per_round = fast_total.div_ceil(ROUNDS);
    let records_before = counter("sweep.records_written");
    let start = Instant::now();
    for round in 0..ROUNDS {
        rep.setup.push(setup_rep(round + 1)?.1);
        // The fast-flow sweep, in a fresh journal.
        match sweepleg::run_rep(&dir.0.join(format!("sweep-{round}")), &spec, &bundle) {
            Ok(r) => rep.sweeps.push(r),
            Err(e) => rep.failures.push(e),
        }
        rep.attempted += spec.scenario_count();
        table1.trad_round();
        table1.fast(fast_per_round);
    }
    rep.records_written = counter("sweep.records_written") - records_before;
    rep.measured_s = start.elapsed().as_secs_f64();
    let outcome = table1.finish();
    rep.attempted += outcome.attempted;
    rep.failures.extend(outcome.failures.iter().cloned());
    rep.loop_outcome = outcome;
    // Peak memory of set-up and of every leg behind an end-to-end
    // metric; what only traced runs do comes after.
    rep.peak_rss_mb = peak_rss_mb();

    if args.trace {
        if !workload.serves() {
            serve_leg(&registry_dir, key, &cells, args, &mut rep)?;
        }
        // The goodput search, on a fresh server: a per-layer figure,
        // because which ladder rung a shared host sustains flips
        // between runs by more than any usable bound.
        let rig = serve::ServeRig::start(&registry_dir, key, &cells, args.seed)?;
        for _ in 0..GOODPUT_SEARCHES {
            rep.goodput.push(goodput_search(&rig));
        }
        rig.stop();

        let ctx = layers::Context {
            flows: &loop_flows,
            sweep_flows: &flows(&sweep_benchmarks)?,
            corners: &corners,
            bundle: &bundle,
            spec: &spec,
            char_config: &char_config,
            dir: &dir.0,
        };
        layers::measure(&ctx, &mut rep);
    }
    Ok(rep)
}

/// Open-loop serving of the set-up's cell model at the fixed rates,
/// with the server's `metrics` snapshots a traced run reads.
fn serve_leg(
    registry_dir: &Path,
    key: ArtifactKey,
    cells: &[CellType],
    args: &Args,
    rep: &mut Report,
) -> Result<(), String> {
    let mut rig = serve::ServeRig::start(registry_dir, key, cells, args.seed)?;
    for r in 0..SERVE_REPS {
        let lo = rig.step(LO_RATE, STEP_REQUESTS / LO_RATE);
        if r == 0 && args.trace {
            rep.server_after_lo = Some(rig.metrics()?);
        }
        let hi = rig.step(HI_RATE, STEP_REQUESTS / HI_RATE);
        rep.lo_steps.push(lo);
        rep.hi_steps.push(hi);
    }
    if args.trace {
        rep.server_after_fixed = Some(rig.metrics()?);
        rep.protocol_us = Some(serve::protocol_us(&rig.inputs, 5)?);
        rep.serve_inputs = rig.inputs.clone();
    }
    rig.stop();
    Ok(())
}

/// The goodput search: the highest rung of a fixed geometric rate
/// ladder whose step meets the p99 limit with no failed or refused
/// request and no growing backlog, found by bisection over the ladder.
/// NaN (not measured) when even the lowest rung fails.
fn goodput_search(rig: &serve::ServeRig) -> f64 {
    let ladder = report::goodput_ladder();
    let passes = |rate: f64| {
        let step = rig.step(rate, (STEP_REQUESTS / rate).max(0.3));
        report::step_meets_limit(&step, P99_LIMIT_MS)
    };
    if !passes(ladder[0]) {
        return f64::NAN;
    }
    // Invariant: rung `lo` passes, rungs at or above `hi` fail.
    let (mut lo, mut hi) = (0usize, ladder.len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if passes(ladder[mid]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    ladder[lo]
}

/// Current value of a stco-obs counter.
fn counter(name: &str) -> u64 {
    stco_obs::Recorder::global().metrics().counter(name).get()
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
