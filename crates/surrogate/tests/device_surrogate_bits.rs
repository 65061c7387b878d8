//! Bit pins for the two RelGAT device surrogates: a tiny seeded Poisson
//! emulator and IV predictor are trained, and the FNV-1a hashes of the
//! f64 bits of their loss histories, held-out predictions and Table II
//! metrics, and of their artifact bytes, must match recorded values.
//!
//! Any refactor of the shared RelGAT core must keep every one of these
//! bits: registry caches are keyed on artifact bytes, and training runs
//! are compared across commits by their loss trajectories. The values
//! are independent of the stco-par thread count.

use stco_nn::train::TrainConfig;
use stco_store::fnv1a64;
use stco_surrogate::iv_predictor::{IvConfig, IvPredictor};
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::{generate_dataset, DeviceSample};
use stco_tcad::materials::Technology;

/// FNV-1a over the little-endian bit patterns of `values`.
fn bits_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 2,
        patience: Some(2),
        ..TrainConfig::default()
    }
}

/// Train / validation / held-out split of one small seeded dataset.
fn splits(
    seed: u64,
    tech: Technology,
) -> (Vec<DeviceSample>, Vec<DeviceSample>, Vec<DeviceSample>) {
    let mut data = generate_dataset(seed, 8, &[tech]).expect("dataset");
    let held_out = data.split_off(6);
    let val = data.split_off(4);
    (data, val, held_out)
}

/// `[train loss, val loss, held-out predictions, metrics, artifact]`.
type Pins = [u64; 5];

#[test]
fn poisson_emulator_bits_are_pinned() {
    let (train, val, held_out) = splits(41, Technology::Igzo);
    let mut model = PoissonEmulator::new(PoissonConfig {
        depth: 2,
        heads: 2,
        head_dim: 4,
        learning_rate: 5.0e-3,
        seed: 11,
    });
    let history = model
        .train(&train, &val, &train_config())
        .expect("training");
    let metrics = model.evaluate(&held_out).expect("evaluation");
    let got: Pins = [
        bits_hash(history.train_loss.iter().copied()),
        bits_hash(history.val_loss.iter().copied()),
        bits_hash(held_out.iter().flat_map(|s| model.predict(s))),
        bits_hash([metrics.mse, metrics.r_squared, metrics.count as f64]),
        fnv1a64(&model.to_artifact().to_bytes()),
    ];
    assert_eq!(
        got, POISSON_PINS,
        "Poisson emulator bits moved: {got:#018x?}"
    );
}

#[test]
fn iv_predictor_bits_are_pinned() {
    let (train, val, held_out) = splits(43, Technology::Ltps);
    let mut model = IvPredictor::new(IvConfig {
        depth: 2,
        head_dim: 6,
        mlp_hidden: 8,
        learning_rate: 5.0e-3,
        ..IvConfig::default()
    });
    let history = model
        .train(&train, &val, &train_config())
        .expect("training");
    let metrics = model.evaluate(&held_out).expect("evaluation");
    let got: Pins = [
        bits_hash(history.train_loss.iter().copied()),
        bits_hash(history.val_loss.iter().copied()),
        bits_hash(held_out.iter().map(|s| model.predict_log_current(s))),
        bits_hash([metrics.mse, metrics.r_squared, metrics.count as f64]),
        fnv1a64(&model.to_artifact().to_bytes()),
    ];
    assert_eq!(got, IV_PINS, "IV predictor bits moved: {got:#018x?}");
}

const POISSON_PINS: Pins = [
    0xe1c9_c2c3_f552_fb2a,
    0xa3dc_6bea_bb33_01bd,
    0xe5ec_94e4_e881_c321,
    0x434f_4b47_c702_5379,
    0x2a6d_05a8_4c5b_8dba,
];

const IV_PINS: Pins = [
    0xb0e3_6e95_5a37_22e3,
    0x64a0_0d41_4371_4ebf,
    0x6829_9295_7c66_1511,
    0x955d_3240_3154_fb86,
    0xb6e0_c455_a1a1_5c63,
];
