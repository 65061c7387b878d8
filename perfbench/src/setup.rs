//! The environment set-up the paper prices separately (8.12 s): device
//! dataset → Poisson + IV training, SPICE cell dataset → cell-model
//! training, each model stored into a registry private to the run and
//! rehydrated from it. This is the only place `stco-nn` training runs.
//!
//! The schedule is smaller than `table1_runtime`'s so that a run can set
//! up several times and report the median; the architectures are the
//! production ones, so inference cost in the timed loops is unchanged.

use std::path::Path;
use std::time::Instant;

use stco_cells::charac::CharConfig;
use stco_cells::library::CellType;
use stco_compact::tech::{Corner, TechnologyCard};
use stco_core::flow::TrainedSurrogates;
use stco_nn::train::TrainConfig;
use stco_store::{ArtifactKey, Registry};
use stco_surrogate::cell_model::{CellModel, CellModelConfig};
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::pipeline::build_cell_dataset;
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::generate_dataset;
use stco_tcad::materials::Technology;

/// Devices simulated by TCAD for the device surrogates (last one held out).
const DEVICES: usize = 8;
/// Fixed dataset seed: the set-up is the environment, not a workload input.
const DATASET_SEED: u64 = 505;

/// Seconds spent in each set-up step of one rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// TCAD device dataset generation.
    pub tcad_dataset_s: f64,
    /// Poisson emulator training.
    pub train_poisson_s: f64,
    /// IV predictor training.
    pub train_iv_s: f64,
    /// SPICE cell dataset (characterization + encoding).
    pub cells_dataset_s: f64,
    /// Cell model training.
    pub train_cell_s: f64,
    /// Storing the three artifacts.
    pub store_put_s: f64,
    /// Loading and rehydrating the three artifacts.
    pub store_load_s: f64,
    /// `par.pool_utilization` after the last training region.
    pub pool_util_train: f64,
    /// `par.pool_utilization` after the cell characterization region.
    pub pool_util_charac: f64,
    /// Whole rep, wall clock.
    pub total_s: f64,
}

fn pool_utilization() -> f64 {
    stco_obs::Recorder::global()
        .metrics()
        .gauge("par.pool_utilization")
        .get()
}

fn ctx<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("set-up {what}: {e}")
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// Trains the surrogate bundle cold into a fresh registry at `dir` and
/// returns the models rehydrated from that registry.
///
/// `cells` are the library cells the cell model learns, characterized
/// on `char_config` at the nominal 3 V corner.
pub fn build_bundle(
    dir: &Path,
    cells: &[CellType],
    char_config: &CharConfig,
) -> Result<(TrainedSurrogates, SetupTimes), String> {
    let start = Instant::now();
    let mut t = SetupTimes::default();
    let registry = Registry::open(dir).map_err(ctx("registry"))?;
    let schedule = TrainConfig {
        epochs: 6,
        batch_size: 2,
        patience: None,
        ..TrainConfig::default()
    };
    let poisson_config = PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    };
    let iv_config = IvConfig {
        depth: 2,
        head_dim: 8,
        mlp_hidden: 12,
        ..IvConfig::default()
    };
    let cell_schedule = TrainConfig {
        epochs: 4,
        batch_size: 16,
        patience: None,
        ..TrainConfig::default()
    };

    let devices = timed(&mut t.tcad_dataset_s, || {
        generate_dataset(DATASET_SEED, DEVICES, &[Technology::Ltps])
    })
    .map_err(ctx("device dataset"))?;
    let (train, val) = devices.split_at(DEVICES - 1);
    let mut poisson = PoissonEmulator::new(poisson_config);
    timed(&mut t.train_poisson_s, || {
        poisson.train(train, val, &schedule)
    })
    .map_err(ctx("poisson training"))?;
    let mut iv = IvPredictor::new(iv_config);
    timed(&mut t.train_iv_s, || iv.train(train, val, &schedule)).map_err(ctx("iv training"))?;

    let base = TechnologyCard::reference(Technology::Ltps);
    let corners = [Corner::nominal(3.0)];
    let samples = timed(&mut t.cells_dataset_s, || {
        build_cell_dataset(&base, &corners, cells, char_config)
    })
    .map_err(ctx("cell dataset"))?;
    t.pool_util_charac = pool_utilization();
    let mut cell = CellModel::new(CellModelConfig::default());
    timed(&mut t.train_cell_s, || {
        cell.train(&samples, &[], &cell_schedule)
    })
    .map_err(ctx("cell training"))?;
    t.pool_util_train = pool_utilization();

    let keys = [
        (PoissonEmulator::ARTIFACT_KIND, poisson.to_artifact()),
        (IvPredictor::ARTIFACT_KIND, iv.to_artifact()),
        (CellModel::ARTIFACT_KIND, cell.to_artifact()),
    ]
    .map(|(kind, artifact)| {
        (
            kind,
            ArtifactKey::from_parts(kind, &["perfbench"]),
            artifact,
        )
    });
    timed(&mut t.store_put_s, || {
        keys.iter()
            .try_for_each(|(_, key, artifact)| registry.put(*key, artifact).map(|_| ()))
    })
    .map_err(ctx("store put"))?;
    let load = |i: usize| {
        let (kind, key, _) = &keys[i];
        registry
            .load(kind, *key)
            .map_err(ctx("store load"))?
            .ok_or_else(|| format!("set-up: artifact {kind} missing after put"))
    };
    let load_start = Instant::now();
    let bundle = TrainedSurrogates {
        poisson: PoissonEmulator::from_artifact(&load(0)?).map_err(ctx("rehydrate"))?,
        iv: IvPredictor::from_artifact(&load(1)?).map_err(ctx("rehydrate"))?,
        cells: CellModel::from_artifact(&load(2)?).map_err(ctx("rehydrate"))?,
    };
    t.store_load_s = load_start.elapsed().as_secs_f64();
    t.total_s = start.elapsed().as_secs_f64();
    Ok((bundle, t))
}
