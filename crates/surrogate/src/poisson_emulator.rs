//! The Poisson emulator: node regression of the electrostatic potential
//! over the unified device encoding.
//!
//! Architecture (paper §II-A): a deep RelGAT — graph attention with edge
//! features — with LayerNorm after every layer and an MLP head. The paper
//! uses 12 layers × 2 heads (≈1 M parameters); depth, head count and
//! width are configurable so scaled-down reproductions state their
//! configuration explicitly.
//!
//! This file holds only what is specific to the emulator: the
//! architecture config, a one-hidden-layer head applied per node, and
//! the potential-map target over charge-density-only features. Training,
//! prediction, evaluation and the artifact round-trip are the shared
//! RelGAT device-surrogate core's, which the IV predictor runs too.

use stco_nn::gnn::GraphData;
use stco_nn::train::TrainConfig;
use stco_obs::json::JsonValue;
use stco_tcad::dataset::DeviceSample;
use stco_tcad::poisson::PotentialSolution;

use crate::artifact::{meta_usize, num};
use crate::device_gnn::{DeviceGnn, Readout, Task};
use crate::encoding::{potential_targets, TaskFeatures};
use crate::Result;

pub use crate::device_gnn::RegressionMetrics;

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PoissonConfig {
    /// Number of RelGAT layers (paper: 12).
    pub depth: usize,
    /// Attention heads per layer (paper: 2).
    pub heads: usize,
    /// Per-head feature width.
    pub head_dim: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight seed.
    pub seed: u64,
}

impl Default for PoissonConfig {
    fn default() -> Self {
        PoissonConfig {
            depth: 4,
            heads: 2,
            head_dim: 8,
            learning_rate: 3.0e-3,
            seed: 42,
        }
    }
}

impl PoissonConfig {
    /// The paper-scale configuration (12 layers, 2 heads, ≈1 M params).
    pub fn paper_scale() -> Self {
        PoissonConfig {
            depth: 12,
            heads: 2,
            head_dim: 128,
            learning_rate: 1.0e-3,
            seed: 42,
        }
    }
}

/// The emulator's task: charge-density features in, one potential per
/// mesh node out.
pub(crate) const TASK: Task = Task {
    features: TaskFeatures::Poisson,
    readout: Readout::PerNode,
    target: potential_targets,
};

/// A trained (or trainable) Poisson emulator.
#[derive(Debug, Clone)]
pub struct PoissonEmulator {
    core: DeviceGnn,
    config: PoissonConfig,
}

impl PoissonEmulator {
    /// Artifact kind tag for [`PoissonEmulator::to_artifact`].
    pub const ARTIFACT_KIND: &'static str = "poisson-emulator";

    /// Builds an untrained emulator.
    pub fn new(config: PoissonConfig) -> Self {
        let hidden = config.heads * config.head_dim;
        PoissonEmulator {
            core: DeviceGnn::new(
                TASK,
                config.seed,
                config.depth,
                config.heads,
                config.head_dim,
                &[hidden],
            ),
            config,
        }
    }

    /// Total scalar parameter count (the paper quotes ≈1 M at full scale).
    pub fn parameter_count(&self) -> usize {
        self.core.parameter_count()
    }

    /// The configuration in use.
    pub fn config(&self) -> &PoissonConfig {
        &self.config
    }

    /// Trains on the given samples with validation-based checkpointing.
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

    /// Predicts the potential map of one sample (volts).
    pub fn predict(&self, sample: &DeviceSample) -> Vec<f64> {
        self.core.predict(sample)
    }

    /// Encodes `sample` as the emulator's input graph: the unified device
    /// encoding with the charge-density slot filled.
    pub fn encode(&self, sample: &DeviceSample) -> GraphData {
        self.core.encode(sample)
    }

    /// Rewrites the charge-density slot of a graph from
    /// [`PoissonEmulator::encode`] for a new `solution` on the same mesh.
    /// The result equals a fresh encoding of the updated sample bit for
    /// bit, without re-encoding the mesh.
    pub fn refresh(&self, graph: &mut GraphData, solution: &PotentialSolution) {
        self.core.refresh(graph, solution);
    }

    /// Predicts the potential map from an already-encoded device graph
    /// (the serving path: clients ship the encoding, not the TCAD
    /// sample). Bitwise-identical to [`PoissonEmulator::predict`] on
    /// the sample the graph was encoded from.
    pub fn predict_graph(&self, graph: &GraphData) -> Vec<f64> {
        self.core.predict_graph(graph)
    }

    /// Serializes the trained model (weights + target normalization +
    /// architecture config) into a [`stco_store::Artifact`] of kind
    /// `"poisson-emulator"`.
    pub fn to_artifact(&self) -> stco_store::Artifact {
        let c = &self.config;
        self.core.to_artifact(
            Self::ARTIFACT_KIND,
            vec![
                ("depth".to_string(), num(c.depth)),
                ("heads".to_string(), num(c.heads)),
                ("head_dim".to_string(), num(c.head_dim)),
                ("learning_rate".to_string(), JsonValue::Num(c.learning_rate)),
                ("seed".to_string(), JsonValue::Str(c.seed.to_string())),
            ],
        )
    }

    /// Rehydrates a model from an artifact: rebuilds the architecture
    /// from the meta header, imports the weight tensors in canonical
    /// order and restores the target normalization. The result predicts
    /// bitwise-identically to the model that produced the artifact.
    ///
    /// # Errors
    ///
    /// Typed [`stco_store::StoreError`]s: `WrongKind` for a different
    /// model kind, `Header` for missing meta fields or tensors that do
    /// not fit the declared architecture.
    pub fn from_artifact(
        artifact: &stco_store::Artifact,
    ) -> std::result::Result<Self, stco_store::StoreError> {
        // Kind first: another kind's meta need not carry these fields.
        artifact.expect_kind(Self::ARTIFACT_KIND)?;
        let mut model = PoissonEmulator::new(PoissonConfig {
            depth: meta_usize(artifact, "depth")?,
            heads: meta_usize(artifact, "heads")?,
            head_dim: meta_usize(artifact, "head_dim")?,
            learning_rate: artifact.meta_f64("learning_rate")?,
            seed: artifact.meta_u64_str("seed")?,
        });
        model.core.restore(artifact, Self::ARTIFACT_KIND)?;
        Ok(model)
    }

    /// Evaluates normalized-target MSE and R² (the Table II metrics) over
    /// a dataset.
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
    fn emulator_learns_potential_maps() {
        let data = generate_dataset(21, 8, &[Technology::Igzo]).unwrap();
        let (train, val) = data.split_at(6);
        let mut model = PoissonEmulator::new(PoissonConfig {
            depth: 2,
            heads: 1,
            head_dim: 8,
            learning_rate: 5.0e-3,
            seed: 3,
        });
        let before = model.evaluate(val).unwrap();
        let history = model
            .train(
                train,
                val,
                &TrainConfig {
                    epochs: 30,
                    batch_size: 2,
                    patience: None,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let after = model.evaluate(val).unwrap();
        assert!(
            after.mse < 0.5 * before.mse,
            "training must cut val MSE: {} → {} (history {:?})",
            before.mse,
            after.mse,
            history.train_loss.last()
        );
        assert!(after.r_squared > 0.5, "R² {}", after.r_squared);
    }

    #[test]
    fn paper_scale_parameter_count_is_about_a_million() {
        let model = PoissonEmulator::new(PoissonConfig::paper_scale());
        let count = model.parameter_count();
        assert!(
            (600_000..1_600_000).contains(&count),
            "paper-scale params: {count}"
        );
    }

    #[test]
    fn predict_returns_one_value_per_node() {
        let data = generate_dataset(22, 1, &[Technology::Ltps]).unwrap();
        let model = PoissonEmulator::new(PoissonConfig::default());
        let p = model.predict(&data[0]);
        assert_eq!(p.len(), data[0].device.mesh().num_nodes());
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn refreshed_graph_predicts_like_a_fresh_encoding() -> Result<()> {
        let data = generate_dataset(22, 2, &[Technology::Ltps])?;
        let model = PoissonEmulator::new(PoissonConfig::default());
        let mut changed = data[0].clone();
        changed.solution = data[1].solution.clone();
        let mut graph = model.encode(&data[0]);
        model.refresh(&mut graph, &changed.solution);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(model.predict_graph(&graph)),
            bits(model.predict(&changed))
        );
        Ok(())
    }

    #[test]
    fn empty_sets_are_rejected() {
        let mut model = PoissonEmulator::new(PoissonConfig::default());
        assert!(model.train(&[], &[], &TrainConfig::default()).is_err());
        assert!(model.evaluate(&[]).is_err());
    }
}
