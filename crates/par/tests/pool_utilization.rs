//! The pool-health metrics test, alone in its own test binary: it
//! asserts an exact delta on the process-global `par.region_items`
//! counter, which any other test running a parallel region in the same
//! process would disturb.

use stco_par::{par_map, ParConfig};

/// Multi-threaded regions publish pool-health metrics on the global
/// recorder: a utilization gauge in (0, 1] and an item counter.
#[test]
fn parallel_region_publishes_pool_utilization() {
    let items: Vec<u64> = (0..64).collect();
    let before = stco_obs::Recorder::global()
        .metrics()
        .counter("par.region_items")
        .get();
    par_map(ParConfig::with_threads(4), &items, |&x| {
        std::thread::sleep(std::time::Duration::from_micros(200));
        x * 2
    });
    let metrics = stco_obs::Recorder::global().metrics();
    let util = metrics.gauge("par.pool_utilization").get();
    assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    assert_eq!(metrics.counter("par.region_items").get(), before + 64);
}
