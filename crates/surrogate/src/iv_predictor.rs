//! The IV predictor: graph regression of the terminal drain current.
//!
//! Architecture (paper §II-A): a shallower RelGAT — 3 layers, one
//! attention head — followed by a 4-layer MLP over the mean-pooled graph
//! embedding (≈0.15 M parameters at paper scale). The node features
//! include both the self-consistent charge density and the potential,
//! and the regression target is `log₁₀|I_D|` (currents span many
//! decades).
//!
//! This file holds only what is specific to the predictor: the
//! architecture config, the mean-pool readout and 4-layer head, and the
//! log-current target. Training, prediction, evaluation and the artifact
//! round-trip are the shared RelGAT device-surrogate core's, which the
//! Poisson emulator runs too.

use stco_nn::gnn::GraphData;
use stco_nn::train::TrainConfig;
use stco_numerics::Matrix;
use stco_obs::json::JsonValue;
use stco_tcad::dataset::DeviceSample;

use crate::artifact::{meta_usize, num};
use crate::device_gnn::{DeviceGnn, Readout, RegressionMetrics, Task};
use crate::encoding::TaskFeatures;
use crate::Result;

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct IvConfig {
    /// RelGAT depth (paper: 3).
    pub depth: usize,
    /// Attention heads (paper: 1).
    pub heads: usize,
    /// Per-head width.
    pub head_dim: usize,
    /// MLP hidden width (4 linear layers total, as the paper).
    pub mlp_hidden: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight seed.
    pub seed: u64,
}

impl Default for IvConfig {
    fn default() -> Self {
        IvConfig {
            depth: 3,
            heads: 1,
            head_dim: 12,
            mlp_hidden: 24,
            learning_rate: 3.0e-3,
            seed: 7,
        }
    }
}

impl IvConfig {
    /// The paper-scale configuration (≈0.15 M parameters).
    pub fn paper_scale() -> Self {
        IvConfig {
            depth: 3,
            heads: 1,
            head_dim: 144,
            mlp_hidden: 192,
            learning_rate: 1.0e-3,
            seed: 7,
        }
    }
}

/// The predictor's task: charge-density and potential features in, one
/// `log₁₀|I_D|` per device out.
pub(crate) const TASK: Task = Task {
    features: TaskFeatures::Iv,
    readout: Readout::MeanPool,
    target: |sample| Matrix::from_vec(1, 1, vec![sample.log_current()]),
};

/// A trained (or trainable) IV predictor.
#[derive(Debug, Clone)]
pub struct IvPredictor {
    core: DeviceGnn,
    config: IvConfig,
}

impl IvPredictor {
    /// Artifact kind tag for [`IvPredictor::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "iv-predictor";

    /// Builds an untrained predictor.
    pub fn new(config: IvConfig) -> Self {
        let m = config.mlp_hidden;
        IvPredictor {
            // 4-layer MLP head, as the paper specifies.
            core: DeviceGnn::new(
                TASK,
                config.seed,
                config.depth,
                config.heads,
                config.head_dim,
                &[m, m, m / 2],
            ),
            config,
        }
    }

    /// Total scalar parameter count (paper quotes ≈0.15 M at full scale).
    pub fn parameter_count(&self) -> usize {
        self.core.parameter_count()
    }

    /// The configuration in use.
    pub fn config(&self) -> &IvConfig {
        &self.config
    }

    /// Trains on the samples, validating each epoch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SurrogateError::BadDataset`] on an empty training
    /// set.
    pub fn train(
        &mut self,
        train: &[DeviceSample],
        val: &[DeviceSample],
        train_config: &TrainConfig,
    ) -> Result<stco_nn::train::TrainHistory> {
        self.core
            .train(train, val, train_config, self.config.learning_rate)
    }

    /// Predicts `log₁₀|I_D|` for one sample.
    pub fn predict_log_current(&self, sample: &DeviceSample) -> f64 {
        self.core.predict(sample)[0]
    }

    /// Predicts `log₁₀|I_D|` from an already-encoded device graph (the
    /// serving path). Bitwise-identical to
    /// [`IvPredictor::predict_log_current`] on the sample the graph was
    /// encoded from.
    pub fn predict_log_current_graph(&self, graph: &GraphData) -> f64 {
        self.core.predict_graph(graph)[0]
    }

    /// Serializes the trained model into an artifact of kind
    /// `"iv-predictor"` (weights + normalization + architecture).
    pub fn to_artifact(&self) -> stco_store::Artifact {
        let c = &self.config;
        self.core.to_artifact(
            Self::ARTIFACT_KIND,
            vec![
                ("depth".to_string(), num(c.depth)),
                ("heads".to_string(), num(c.heads)),
                ("head_dim".to_string(), num(c.head_dim)),
                ("mlp_hidden".to_string(), num(c.mlp_hidden)),
                ("learning_rate".to_string(), JsonValue::Num(c.learning_rate)),
                ("seed".to_string(), JsonValue::Str(c.seed.to_string())),
            ],
        )
    }

    /// Rehydrates a predictor from an artifact; bitwise-faithful to the
    /// saved model.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s on kind mismatch, missing meta
    /// fields, or tensors that do not fit the architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        // Kind first: another kind's meta need not carry these fields.
        artifact.expect_kind(Self::ARTIFACT_KIND)?;
        let mut model = IvPredictor::new(IvConfig {
            depth: meta_usize(artifact, "depth")?,
            heads: meta_usize(artifact, "heads")?,
            head_dim: meta_usize(artifact, "head_dim")?,
            mlp_hidden: meta_usize(artifact, "mlp_hidden")?,
            learning_rate: artifact.meta_f64("learning_rate")?,
            seed: artifact.meta_u64_str("seed")?,
        });
        model.core.restore(artifact, Self::ARTIFACT_KIND)?;
        Ok(model)
    }

    /// Predicted drain-current magnitude, A.
    pub fn predict_current(&self, sample: &DeviceSample) -> f64 {
        10.0_f64.powf(self.predict_log_current(sample))
    }

    /// Table II metrics on normalized log-current targets.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SurrogateError::BadDataset`] on an empty set.
    pub fn evaluate(&self, samples: &[DeviceSample]) -> Result<RegressionMetrics> {
        self.core.evaluate(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stco_tcad::dataset::generate_dataset;
    use stco_tcad::materials::Technology;

    #[test]
    fn predictor_learns_current_scale() {
        let data = generate_dataset(31, 10, &[Technology::Igzo]).unwrap();
        let (train, val) = data.split_at(8);
        let mut model = IvPredictor::new(IvConfig {
            depth: 2,
            head_dim: 8,
            mlp_hidden: 16,
            learning_rate: 5.0e-3,
            ..IvConfig::default()
        });
        let before = model.evaluate(val).unwrap();
        model
            .train(
                train,
                val,
                &TrainConfig {
                    epochs: 40,
                    batch_size: 2,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let after = model.evaluate(val).unwrap();
        assert!(
            after.mse < before.mse,
            "training must reduce val MSE: {} → {}",
            before.mse,
            after.mse
        );
    }

    #[test]
    fn paper_scale_parameter_count_is_about_150k() {
        let model = IvPredictor::new(IvConfig::paper_scale());
        let count = model.parameter_count();
        assert!(
            (90_000..260_000).contains(&count),
            "paper-scale params: {count}"
        );
    }

    #[test]
    fn predicted_current_is_positive() {
        let data = generate_dataset(32, 1, &[Technology::Cnt]).unwrap();
        let model = IvPredictor::new(IvConfig::default());
        assert!(model.predict_current(&data[0]) > 0.0);
    }

    #[test]
    fn empty_sets_are_rejected() {
        let mut model = IvPredictor::new(IvConfig::default());
        assert!(model.train(&[], &[], &TrainConfig::default()).is_err());
        assert!(model.evaluate(&[]).is_err());
    }
}
