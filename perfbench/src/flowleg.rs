//! The Table I leg: `StcoFlow::run_iteration`, closed loop with one
//! caller, on the workload's loop designs (LTPS) at corners drawn by
//! the seed.
//!
//! The traditional flow runs the same set of (benchmark, supply) pairs
//! in every round; the fast flow repeats round-robin over every
//! (benchmark, corner) pair. Corners are stratified on V_DD (see
//! [`corners`]).

use std::time::Instant;

use stco_compact::tech::{Corner, CornerGrid};
use stco_core::flow::{
    IterationResult, StageSeconds, StcoFlow, TechnologyStage, TrainedSurrogates,
};
use stco_numerics::rng::Xorshift;

/// Supplies of the three corners, V: spread over the upper two thirds
/// of `CornerGrid::default()`, because SPICE cost tracks the supply and
/// at the lowest supply characterization cannot switch a NAND4 once the
/// threshold rises (the traditional flow fails there by design).
pub const SUPPLIES: [f64; 3] = [3.0, 3.5, 4.0];

/// The seeded corners: one per supply in [`SUPPLIES`], with V_th shift
/// and C_ox scale drawn from the middle of the default grid's ranges,
/// so every seed prices the same mix of cheap and expensive corners.
pub fn corners(seed: u64) -> Vec<Corner> {
    let grid = CornerGrid::default();
    let mut rng = Xorshift::new(seed ^ 0x00C0_4E45);
    let mut middle = |(lo, hi): (f64, f64)| {
        let (mid, half) = ((lo + hi) / 2.0, (hi - lo) / 4.0);
        rng.uniform_in(mid - half, mid + half)
    };
    SUPPLIES
        .iter()
        .map(|&vdd| Corner {
            vdd,
            vth_shift: middle(grid.vth_shift),
            cox_scale: middle(grid.cox_scale),
        })
        .collect()
}

/// One timed iteration. Only the times are kept: a run holds hundreds
/// of iterations, and their PPA reports would inflate `peak_rss_mb` in
/// step with the iteration count.
pub struct Timed {
    /// Wall time around `run_iteration`, s.
    pub wall_s: f64,
    /// The stage times the public API returned.
    pub seconds: StageSeconds,
}

/// Outcome of the leg.
#[derive(Default)]
pub struct LoopOutcome {
    /// Fast iterations, in run order.
    pub fast: Vec<Timed>,
    /// Traditional iterations, in run order.
    pub trad: Vec<Timed>,
    /// Mean wall time of each round's traditional iterations, s, for
    /// every round in which all of them succeeded.
    pub trad_rounds: Vec<f64>,
    /// Iterations attempted.
    pub attempted: usize,
    /// Failed iterations and failed output checks, with reasons.
    pub failures: Vec<String>,
}

fn timed(
    flow: &StcoFlow,
    corner: Corner,
    stage: TechnologyStage,
    surrogates: Option<&TrainedSurrogates>,
) -> Result<(Timed, IterationResult), String> {
    let t0 = Instant::now();
    let result = flow
        .run_iteration(corner, stage, surrogates)
        .map_err(|e| format!("{} {stage:?} at {corner:?}: {e}", flow.logic().name))?;
    let t = Timed {
        wall_s: t0.elapsed().as_secs_f64(),
        seconds: result.seconds,
    };
    Ok((t, result))
}

/// Bit pattern of everything an iteration decides: PPA and the
/// extracted compact parameters.
pub fn fingerprint(r: &IterationResult) -> Vec<u64> {
    let (mu0, vth, gamma) = r.extracted;
    [
        r.ppa.timing.min_clock_period,
        r.ppa.power.total(),
        r.ppa.area,
        r.ppa.wirelength,
        mu0,
        vth,
        gamma,
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect()
}

/// Every PPA value must be finite and positive.
pub fn check_ppa(r: &IterationResult) -> Result<(), String> {
    let ppa = &r.ppa;
    for (name, v) in [
        ("min_clock_period", ppa.timing.min_clock_period),
        ("power", ppa.power.total()),
        ("area", ppa.area),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!(
                "{}: {name} = {v} is not finite and positive",
                ppa.name
            ));
        }
    }
    Ok(())
}

/// The leg in progress: the run calls [`TableLoop::trad_round`] and
/// [`TableLoop::fast`] a little in each round, so every figure's
/// samples spread over the whole run.
pub struct TableLoop<'a> {
    flows: &'a [StcoFlow],
    /// Every (benchmark, corner) pair of the fast flow, and the first
    /// result's bit pattern for each.
    pairs: Vec<(&'a StcoFlow, Corner, Option<Vec<u64>>)>,
    /// The traditional flow's corners, at nominal threshold and oxide
    /// and the same for every seed: SPICE cost swings with the
    /// threshold and oxide draw far more than the fast flow's does, and
    /// `trad_iter_s` must price the same work in every run.
    trad_corners: Vec<Corner>,
    surrogates: &'a TrainedSurrogates,
    out: LoopOutcome,
}

impl<'a> TableLoop<'a> {
    pub fn new(
        flows: &'a [StcoFlow],
        corners: &[Corner],
        trad_supplies: &[f64],
        surrogates: &'a TrainedSurrogates,
    ) -> TableLoop<'a> {
        let pairs = flows
            .iter()
            .flat_map(|f| corners.iter().map(move |c| (f, *c, None)))
            .collect();
        TableLoop {
            flows,
            pairs,
            trad_corners: trad_supplies.iter().map(|&v| Corner::nominal(v)).collect(),
            surrogates,
            out: LoopOutcome::default(),
        }
    }

    /// One round of the traditional flow: every benchmark at every
    /// traditional corner, once. Every round runs the same work, so the
    /// round means are samples of one quantity rather than a mixture of
    /// cheap and expensive corners whose median depends on the mix.
    pub fn trad_round(&mut self) {
        let mut wall = Vec::new();
        for flow in self.flows {
            for &corner in &self.trad_corners {
                self.out.attempted += 1;
                match timed(flow, corner, TechnologyStage::Traditional, None) {
                    Ok((t, result)) => {
                        if let Err(e) = check_ppa(&result) {
                            self.out.failures.push(e);
                        }
                        wall.push(t.wall_s);
                        self.out.trad.push(t);
                    }
                    Err(e) => self.out.failures.push(e),
                }
            }
        }
        if wall.len() == self.flows.len() * self.trad_corners.len() {
            self.out
                .trad_rounds
                .push(wall.iter().sum::<f64>() / wall.len() as f64);
        }
    }

    /// Whole round-robin passes of fast iterations over the pairs until
    /// at least `count` more ran. Repeated fast iterations of a pair must
    /// agree bitwise.
    pub fn fast(&mut self, count: usize) {
        let target = self.out.fast.len() + count;
        while self.out.fast.len() < target {
            for (flow, corner, reference) in &mut self.pairs {
                self.out.attempted += 1;
                let (t, result) =
                    match timed(flow, *corner, TechnologyStage::Fast, Some(self.surrogates)) {
                        Ok(r) => r,
                        Err(e) => {
                            self.out.failures.push(e);
                            continue;
                        }
                    };
                let bits = fingerprint(&result);
                match reference {
                    None => {
                        if let Err(e) = check_ppa(&result) {
                            self.out.failures.push(e);
                        }
                        *reference = Some(bits);
                    }
                    Some(first) if *first != bits => self.out.failures.push(format!(
                        "{} at {corner:?}: repeated fast iteration changed PPA or extracted parameters",
                        flow.logic().name
                    )),
                    Some(_) => {}
                }
                self.out.fast.push(t);
            }
            if self.out.failures.len() > 16 {
                break;
            }
        }
    }

    pub fn finish(self) -> LoopOutcome {
        self.out
    }
}
