//! The serving leg: an in-process `ModelService` + `TcpServer`
//! holding the production-width cell model, driven open-loop by
//! [`crate::loadgen`] with requests encoded from the library cells at
//! seeded slew/load/corner contexts.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stco_cells::encode::{encode_cell, CellGraph, EncodingContext};
use stco_cells::library::CellType;
use stco_compact::tech::{CornerGrid, TechnologyCard};
use stco_numerics::rng::Xorshift;
use stco_obs::json::JsonValue;
use stco_serve::protocol::{encode_frame, FrameDecoder, Request};
use stco_serve::service::{BatchConfig, LoadedModel, ModelService, PredictInput};
use stco_serve::{Client, TcpServer};
use stco_store::{ArtifactKey, Registry};
use stco_surrogate::cell_model::{CellModel, METRICS};
use stco_tcad::materials::Technology;

use crate::loadgen::{self, Payload, StepResult};

/// Distinct request payloads per run (requests cycle through them).
const PAYLOADS: usize = 192;

/// A running server plus the prepared requests.
pub struct ServeRig {
    server: Arc<TcpServer>,
    admin: Client,
    /// Request frames and their in-process answers.
    pub payloads: Vec<Payload>,
    /// The decoded requests behind `payloads` (protocol timing).
    pub inputs: Vec<Request>,
    /// Generator connections, two threads each: `nproc / 2`, at least one.
    pub conns: usize,
}

/// One seeded request graph: a library cell built at a corner drawn
/// from the default grid, with a random switching pin, slew and load.
fn request_graph(rng: &mut Xorshift, cells: &[CellType]) -> CellGraph {
    let grid = CornerGrid::default();
    let corner = stco_compact::tech::Corner {
        vdd: rng.uniform_in(grid.vdd.0, grid.vdd.1),
        vth_shift: rng.uniform_in(grid.vth_shift.0, grid.vth_shift.1),
        cox_scale: rng.uniform_in(grid.cox_scale.0, grid.cox_scale.1),
    };
    let card = TechnologyCard::reference(Technology::Ltps).at_corner(corner);
    let cell = &cells[rng.gen_range(cells.len())];
    let built = cell.build(&card, 1.0);
    let mut ctx = EncodingContext::default();
    let slew = rng.uniform_in(1.0e-9, 16.0e-9);
    let switching = rng.gen_range(cell.inputs.len());
    for (k, pin) in cell.inputs.iter().enumerate() {
        let (cur, next) = if k == switching {
            (0.0, 1.0)
        } else {
            (1.0, 1.0)
        };
        ctx.current_state.insert((*pin).to_string(), cur);
        ctx.next_state.insert((*pin).to_string(), next);
        ctx.input_slew.insert((*pin).to_string(), slew);
    }
    let load = rng.uniform_in(2.0e-15, 40.0e-15);
    for pin in &cell.outputs {
        ctx.output_load.insert((*pin).to_string(), load);
    }
    encode_cell(&built, &ctx)
}

impl ServeRig {
    /// Serves the cell model stored under `key` in `registry` and
    /// prepares the seeded payloads with their in-process answers.
    pub fn start(
        registry_dir: &Path,
        key: ArtifactKey,
        cells: &[CellType],
        seed: u64,
    ) -> Result<ServeRig, String> {
        let registry = Registry::open(registry_dir).map_err(|e| format!("serve: registry: {e}"))?;
        let reference = registry
            .load(CellModel::ARTIFACT_KIND, key)
            .map_err(|e| format!("serve: load artifact: {e}"))?
            .ok_or("serve: cell model artifact missing")?;
        let reference =
            LoadedModel::from_artifact(&reference).map_err(|e| format!("serve: rehydrate: {e}"))?;
        let service = ModelService::start(Some(registry), BatchConfig::default());
        let model = service
            .load(CellModel::ARTIFACT_KIND, key)
            .map_err(|e| format!("serve: load model: {e}"))?;
        let server =
            TcpServer::start("127.0.0.1:0", service).map_err(|e| format!("serve: bind: {e}"))?;
        let admin = Client::connect(&server.addr().to_string())
            .map_err(|e| format!("serve: connect: {e}"))?;
        let mut rng = Xorshift::new(seed ^ 0x5E4E_CE11);
        let metrics: Vec<usize> = (0..METRICS.len()).collect();
        let mut payloads = Vec::with_capacity(PAYLOADS);
        let mut inputs = Vec::with_capacity(PAYLOADS);
        for _ in 0..PAYLOADS {
            let input = PredictInput::Cell {
                graph: request_graph(&mut rng, cells),
                metrics: metrics.clone(),
            };
            let expected = reference
                .predict(&input)
                .map_err(|e| format!("serve: in-process predict: {e}"))?;
            let request = Request::Predict {
                model: model.clone(),
                input,
                deadline_ms: None,
            };
            let frame =
                encode_frame(&request.to_json()).map_err(|e| format!("serve: encode: {e}"))?;
            payloads.push(Payload { frame, expected });
            inputs.push(request);
        }
        let conns = (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1);
        Ok(ServeRig {
            server,
            admin,
            payloads,
            inputs,
            conns,
        })
    }

    /// One open-loop step.
    pub fn step(&self, rate: f64, seconds: f64) -> StepResult {
        loadgen::run_step(
            self.server.addr(),
            &self.payloads,
            rate,
            seconds,
            self.conns,
        )
    }

    /// The server's metrics registry snapshot, via the `metrics` op.
    pub fn metrics(&mut self) -> Result<JsonValue, String> {
        self.admin
            .metrics()
            .map(|(snapshot, _)| snapshot)
            .map_err(|e| format!("serve: metrics op: {e}"))
    }

    /// Stops the server; every accepted request is answered first.
    pub fn stop(self) {
        drop(self.admin);
        self.server.stop();
    }
}

/// Mean microseconds to encode (`to_json` + frame) and to decode
/// (frame + JSON + `Request::from_json`) the workload's own requests.
pub fn protocol_us(inputs: &[Request], reps: usize) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let mut frames = Vec::with_capacity(inputs.len());
    for _ in 0..reps {
        frames.clear();
        for request in inputs {
            frames.push(
                encode_frame(&request.to_json()).map_err(|e| format!("protocol encode: {e}"))?,
            );
        }
    }
    let encode_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * inputs.len()) as f64;
    let t0 = Instant::now();
    let mut decoded = Vec::new();
    for _ in 0..reps {
        let mut decoder = FrameDecoder::new();
        for frame in &frames {
            decoded.clear();
            decoder
                .push(frame, &mut decoded)
                .map_err(|e| format!("protocol decode: {e}"))?;
            for doc in decoded.drain(..) {
                let doc = doc.map_err(|e| format!("protocol decode: {e}"))?;
                std::hint::black_box(
                    Request::from_json(&doc).map_err(|e| format!("protocol decode: {e}"))?,
                );
            }
        }
    }
    let decode_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * inputs.len()) as f64;
    Ok((encode_us, decode_us))
}

/// Reads one metric entry of a `metrics`-op snapshot by name.
fn snapshot_entry<'a>(snapshot: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    let JsonValue::Arr(entries) = snapshot.get("metrics")? else {
        return None;
    };
    entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// A numeric field of a snapshot entry (`value`, `count`, `p99`, or a
/// dotted path such as `window.p99` for windowed histograms).
pub fn snapshot_num(snapshot: &JsonValue, name: &str, field: &str) -> Option<f64> {
    let mut v = snapshot_entry(snapshot, name)?;
    for key in field.split('.') {
        v = v.get(key)?;
    }
    v.as_f64()
}
