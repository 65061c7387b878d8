//! GNN ablation bench (a design-choice study DESIGN.md calls out): the
//! Poisson emulator's RelGAT swept over depth (1, 2, 4 layers), head count
//! (1, 2) and per-head width (8, 16) on one CNT dataset — quantifying what
//! depth, heads and width buy in test MSE against parameter count and
//! training time.

use stco_bench::{banner, TraceSession};
use stco_nn::train::TrainConfig;
use stco_surrogate::poisson_emulator::{PoissonConfig, PoissonEmulator};
use stco_tcad::dataset::{generate_dataset, DeviceSample};
use stco_tcad::materials::Technology;

/// Trains one architecture variant and prints its test-set row.
fn train_and_eval(
    name: &str,
    config: PoissonConfig,
    train: &[DeviceSample],
    val: &[DeviceSample],
    test: &[DeviceSample],
) {
    let mut model = PoissonEmulator::new(config);
    let t0 = std::time::Instant::now();
    model
        .train(
            train,
            val,
            &TrainConfig {
                epochs: 25,
                batch_size: 4,
                patience: Some(10),
                ..TrainConfig::default()
            },
        )
        .expect("training");
    let metrics = model.evaluate(test).expect("evaluation");
    println!(
        "{:<28} {:>10.3e} {:>8.4} {:>9} {:>8.1}s",
        name,
        metrics.mse,
        metrics.r_squared,
        model.parameter_count(),
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    let trace = TraceSession::start("ablation_gnn");
    banner("GNN ablation: Poisson emulator architecture sweep");
    let data = generate_dataset(808, 40, &[Technology::Cnt]).expect("devices");
    let (train, rest) = data.split_at(28);
    let (val, test) = rest.split_at(6);
    println!(
        "dataset: {} train / {} val / {} test CNT devices\n",
        train.len(),
        val.len(),
        test.len()
    );
    println!(
        "{:<28} {:>10} {:>8} {:>9} {:>8}",
        "variant", "test MSE", "R2", "params", "train t"
    );
    let base = PoissonConfig {
        depth: 2,
        heads: 1,
        head_dim: 8,
        ..PoissonConfig::default()
    };
    train_and_eval("relgat d2 h1", base, train, val, test);
    train_and_eval(
        "relgat d1 h1 (shallow)",
        PoissonConfig { depth: 1, ..base },
        train,
        val,
        test,
    );
    train_and_eval(
        "relgat d4 h1 (deep)",
        PoissonConfig { depth: 4, ..base },
        train,
        val,
        test,
    );
    train_and_eval(
        "relgat d2 h2 (two heads)",
        PoissonConfig { heads: 2, ..base },
        train,
        val,
        test,
    );
    train_and_eval(
        "relgat d2 h1 wide (x2)",
        PoissonConfig {
            head_dim: 16,
            ..base
        },
        train,
        val,
        test,
    );
    println!("\nexpected shape: deeper/wider stacks reduce MSE at higher train cost —");
    println!("the paper's 12-layer choice sits on this same curve (EXPERIMENTS.md).");

    if let Some(t) = trace {
        let (profile, path) = t.finish();
        banner("Profile (folded from the recorded trace)");
        print!("{}", profile.to_markdown());
        println!("\ntrace: {}", path.display());
    }
}
