//! The RelGAT device-surrogate core shared by the Poisson emulator and
//! the IV predictor (paper §II-A; Fan & Low, arXiv 2308.11624).
//!
//! Both surrogates are a [`RelGatStack`] over the unified device
//! encoding followed by an ELU MLP head, trained on standardized
//! targets. They differ only in the [`Task`] — encoding features,
//! readout and target — and in their head widths. [`DeviceGnn`] owns
//! everything else: the tape forward that training records, the
//! tape-free forward that prediction and validation run (bitwise equal
//! to it), the training loop, the Table II evaluation and the artifact
//! round-trip.

use std::sync::Arc;

use stco_nn::ad::{mse_forward, segment_mean_forward, Graph, NodeId};
use stco_nn::gnn::{GraphData, RelGatStack};
use stco_nn::layers::{Activation, Mlp};
use stco_nn::optim::Adam;
use stco_nn::train::{fit, parallel_batch_step, TrainConfig, TrainHistory};
use stco_nn::Params;
use stco_numerics::{stats, Matrix};
use stco_obs::json::JsonValue;
use stco_par::ParConfig;
use stco_store::{Artifact, StoreError};
use stco_tcad::dataset::DeviceSample;
use stco_tcad::poisson::PotentialSolution;

use crate::artifact::{import_weights, pack_model, unpack_model};
use crate::encoding::{
    encode_device, index_lists, write_self_consistent, TaskFeatures, EDGE_DIM, NODE_DIM,
};
use crate::{Result, SurrogateError};

/// How node embeddings become the model output.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Readout {
    /// The head runs per node: one value per mesh node.
    PerNode,
    /// Node embeddings are mean-pooled to one graph embedding first:
    /// one value per device.
    MeanPool,
}

/// What one device surrogate regresses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    /// Self-consistent features of the device encoding.
    pub(crate) features: TaskFeatures,
    /// Readout of the RelGAT embeddings.
    pub(crate) readout: Readout,
    /// The regression target of a sample, shaped like the model output.
    pub(crate) target: fn(&DeviceSample) -> Matrix,
}

/// The weight-free model: its task, RelGAT stack and MLP head.
#[derive(Debug, Clone)]
struct Net {
    task: Task,
    stack: RelGatStack,
    head: Mlp,
}

impl Net {
    /// The RelGAT stack, readout and MLP head over one encoded device
    /// graph, recorded on `g` for training.
    fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        graph: &GraphData,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
    ) -> NodeId {
        let n = graph.num_nodes();
        let x = g.input(graph.node_features.clone());
        let e = g.input(graph.edge_features.clone());
        let mut h = self.stack.forward(g, params, x, e, src, dst, n);
        if let Readout::MeanPool = self.task.readout {
            h = g.segment_mean(h, Arc::new(vec![0; n]), 1);
        }
        self.head.forward(g, params, h)
    }

    /// The same forward tape-free, reading `weights` in place (see
    /// [`stco_nn::layers::Linear::infer`]); it equals [`Net::forward`]
    /// bit for bit.
    fn infer(&self, weights: &[Matrix], graph: &GraphData, src: &[usize], dst: &[usize]) -> Matrix {
        let mut h = self.stack.infer(
            weights,
            &graph.node_features,
            &graph.edge_features,
            src,
            dst,
        );
        if let Readout::MeanPool = self.task.readout {
            let mut pooled = Matrix::zeros(1, h.cols());
            segment_mean_forward(&h, &vec![0; h.rows()], 1, &mut pooled);
            h = pooled;
        }
        self.head.infer(weights, &h)
    }

    /// MSE of the forward against an item's standardized target.
    fn loss(&self, g: &mut Graph, params: &Params, item: &Encoded) -> NodeId {
        let pred = self.forward(g, params, &item.graph, &item.src, &item.dst);
        let target = g.input(item.target.clone());
        g.mse_loss(pred, target)
    }
}

/// One pre-encoded training or validation item.
struct Encoded {
    graph: GraphData,
    src: Arc<Vec<usize>>,
    dst: Arc<Vec<usize>>,
    /// Target in the standardized units the model trains on.
    target: Matrix,
}

/// A RelGAT device surrogate: architecture, weights and the target
/// normalization.
#[derive(Debug, Clone)]
pub(crate) struct DeviceGnn {
    net: Net,
    params: Params,
    target_mean: f64,
    target_std: f64,
}

impl DeviceGnn {
    /// Builds an untrained model: a `depth`-layer RelGAT stack with
    /// `heads × head_dim` hidden width, then an MLP head through the
    /// `head_hidden` widths to one output.
    pub(crate) fn new(
        task: Task,
        seed: u64,
        depth: usize,
        heads: usize,
        head_dim: usize,
        head_hidden: &[usize],
    ) -> Self {
        let mut params = Params::new(seed);
        let stack = RelGatStack::new(&mut params, NODE_DIM, EDGE_DIM, head_dim, heads, depth);
        let mut widths = vec![stack.hidden_dim()];
        widths.extend_from_slice(head_hidden);
        widths.push(1);
        let head = Mlp::new(&mut params, &widths, Activation::Elu);
        DeviceGnn {
            net: Net { task, stack, head },
            params,
            target_mean: 0.0,
            target_std: 1.0,
        }
    }

    /// Total scalar parameter count.
    pub(crate) fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Trains with batch-accumulated Adam, validating every epoch (the
    /// mean per-item MSE, on standardized targets) for checkpointing.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::BadDataset`] on an empty training set.
    pub(crate) fn train(
        &mut self,
        train: &[DeviceSample],
        val: &[DeviceSample],
        train_config: &TrainConfig,
        learning_rate: f64,
    ) -> Result<TrainHistory> {
        if train.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty training set".into(),
            });
        }
        let targets: Vec<Matrix> = train.iter().map(self.net.task.target).collect();
        let flat: Vec<f64> = targets
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();
        let (mean, std) = stats::mean_std(&flat)?;
        self.target_mean = mean;
        self.target_std = std.max(1e-9);

        let encoded: Vec<Encoded> = train
            .iter()
            .zip(targets)
            .map(|(s, t)| self.encode_item(s, t))
            .collect();
        let val_encoded: Vec<Encoded> = val
            .iter()
            .map(|s| self.encode_item(s, (self.net.task.target)(s)))
            .collect();

        let mut adam = Adam::with_learning_rate(learning_rate);
        let net = &self.net;
        let history = fit(
            &mut self.params,
            train_config,
            encoded.len(),
            |batch, params| {
                // Batch-accumulated SGD: samples run forward/backward in
                // parallel, gradients merge deterministically, then one
                // optimizer step per batch.
                let loss =
                    parallel_batch_step(ParConfig::current(), params, batch, |g, params, idx| {
                        net.loss(g, params, &encoded[idx])
                    });
                params.clip_grad_norm(5.0);
                adam.step(params);
                loss
            },
            Some(|params: &Params| {
                if val_encoded.is_empty() {
                    return 0.0;
                }
                let mut total = 0.0;
                for item in &val_encoded {
                    let pred = net.infer(params.values(), &item.graph, &item.src, &item.dst);
                    total += mse_forward(pred.as_slice(), item.target.as_slice());
                }
                total / val_encoded.len() as f64
            }),
        );
        Ok(history)
    }

    /// Encodes a training item: the sample's graph with its target
    /// standardized.
    fn encode_item(&self, sample: &DeviceSample, mut target: Matrix) -> Encoded {
        let graph = self.encode(sample);
        let (src, dst) = index_lists(&graph);
        for v in target.as_mut_slice() {
            *v = (*v - self.target_mean) / self.target_std;
        }
        Encoded {
            graph,
            src,
            dst,
            target,
        }
    }

    /// Encodes `sample` with this task's self-consistent features.
    pub(crate) fn encode(&self, sample: &DeviceSample) -> GraphData {
        encode_device(sample, self.net.task.features)
    }

    /// Rewrites the self-consistent features of a graph from
    /// [`DeviceGnn::encode`] to those of `solution`.
    pub(crate) fn refresh(&self, graph: &mut GraphData, solution: &PotentialSolution) {
        write_self_consistent(graph, solution, self.net.task.features);
    }

    /// Predicts the target of one sample, in original units.
    pub(crate) fn predict(&self, sample: &DeviceSample) -> Vec<f64> {
        self.predict_graph(&self.encode(sample))
    }

    /// Predicts from an already-encoded device graph, tape-free.
    pub(crate) fn predict_graph(&self, graph: &GraphData) -> Vec<f64> {
        let (src, dst) = index_lists(graph);
        let pred = self.net.infer(self.params.values(), graph, &src, &dst);
        pred.as_slice()
            .iter()
            .map(|v| v * self.target_std + self.target_mean)
            .collect()
    }

    /// Normalized-target MSE and R² (the Table II metrics) over a
    /// dataset.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::BadDataset`] on an empty set.
    pub(crate) fn evaluate(&self, samples: &[DeviceSample]) -> Result<RegressionMetrics> {
        if samples.is_empty() {
            return Err(SurrogateError::BadDataset {
                context: "empty evaluation set".into(),
            });
        }
        let standardize = |v: &f64| (v - self.target_mean) / self.target_std;
        let mut preds = Vec::new();
        let mut targets = Vec::new();
        for s in samples {
            preds.extend(self.predict(s).iter().map(standardize));
            targets.extend((self.net.task.target)(s).as_slice().iter().map(standardize));
        }
        Ok(RegressionMetrics {
            mse: stats::mse(&preds, &targets)?,
            // R² is undefined for (near-)constant target sets, which tiny
            // smoke-test splits can produce; report NaN rather than fail.
            r_squared: stats::r_squared(&preds, &targets).unwrap_or(f64::NAN),
            count: targets.len(),
        })
    }

    /// Packs the weights, the target normalization and the surrogate's
    /// architecture `meta` into an artifact of `kind`.
    pub(crate) fn to_artifact(&self, kind: &str, meta: Vec<(String, JsonValue)>) -> Artifact {
        pack_model(
            kind,
            meta,
            &self.params,
            Matrix::from_vec(1, 2, vec![self.target_mean, self.target_std]),
        )
    }

    /// Restores the weights and target normalization of an artifact of
    /// `kind` into this freshly built model (whose architecture the
    /// caller rebuilt from the meta header).
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongKind`] for another kind; [`StoreError::Header`]
    /// for tensors that do not fit the architecture.
    pub(crate) fn restore(
        &mut self,
        artifact: &Artifact,
        kind: &str,
    ) -> std::result::Result<(), StoreError> {
        let (weights, norms) = unpack_model(artifact, kind)?;
        import_weights(&mut self.params, weights)?;
        let &[mean, std] = norms.as_slice() else {
            return Err(StoreError::Header {
                context: format!(
                    "{kind} norm tensor has {} values, want 2",
                    norms.as_slice().len()
                ),
            });
        };
        self.target_mean = mean;
        self.target_std = std;
        Ok(())
    }
}

/// MSE/R² pair over a dataset (normalized-target units, as Table II).
#[derive(Debug, Clone, Copy)]
pub struct RegressionMetrics {
    /// Mean squared error on standardized targets.
    pub mse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of scalar predictions evaluated.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{iv_predictor, poisson_emulator};
    use stco_numerics::rng::Xorshift;
    use stco_tcad::dataset::generate_dataset;
    use stco_tcad::materials::Technology;

    /// The tape-free prediction equals the tape forward, denormalized the
    /// same way, bit for bit: through the per-node readout of the Poisson
    /// emulator and the mean-pooled one of the IV predictor, with one and
    /// two heads, on random weights and biases.
    #[test]
    fn predict_graph_matches_tape_forward_bitwise() -> Result<()> {
        let samples = generate_dataset(7, 2, &[Technology::Igzo])?;
        let mut rng = Xorshift::new(3);
        for task in [poisson_emulator::TASK, iv_predictor::TASK] {
            for heads in [1, 2] {
                let mut model = DeviceGnn::new(task, 5, 2, heads, 4, &[6]);
                let tensors: Vec<Matrix> = model
                    .params
                    .export_tensors()
                    .into_iter()
                    .map(|m| {
                        let data = (0..m.rows() * m.cols())
                            .map(|_| rng.uniform_in(-1.0, 1.0))
                            .collect();
                        Matrix::from_vec(m.rows(), m.cols(), data)
                    })
                    .collect();
                import_weights(&mut model.params, &tensors)?;
                model.target_mean = 0.3;
                model.target_std = 1.7;
                for sample in &samples {
                    let graph = encode_device(sample, task.features);
                    let (src, dst) = index_lists(&graph);
                    let mut g = Graph::new();
                    let pred = model.net.forward(&mut g, &model.params, &graph, &src, &dst);
                    let tape: Vec<u64> = g
                        .value(pred)
                        .as_slice()
                        .iter()
                        .map(|v| (v * model.target_std + model.target_mean).to_bits())
                        .collect();
                    let inferred: Vec<u64> = model
                        .predict_graph(&graph)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(inferred, tape, "{:?} readout, {heads} heads", task.readout);
                }
            }
        }
        Ok(())
    }
}
