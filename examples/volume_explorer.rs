//! The §6 extension in action: 3-D volume visualization on the same
//! middleware. Eight emulated scientists explore two 4 GiB volumes with
//! maximum-intensity projections — panning, changing level of detail, and
//! stepping through depth slabs — while the simulated server schedules
//! their queries under each ranking strategy.
//!
//! Also renders a real MIP projection on a small volume through the actual
//! kernels, verified against the ground-truth reference.
//!
//! Run with: `cargo run --release --example volume_explorer`

use std::sync::Arc;
use vmqs::prelude::*;
use vmqs_storage::DataSource;
use vmqs_volume::kernels::{compute_from_bricks, reference_render};
use vmqs_volume::{
    generate_volume, run_volume_sim, VolCostModel, VolOp, VolQuery, VolWorkloadConfig,
    VolumeDataset,
};

fn main() {
    // Part 1: real kernel execution on a small synthetic volume.
    let small = VolumeDataset::new(DatasetId(42), 200, 200, 160);
    let query = VolQuery::new(small, Rect::new(20, 20, 160, 160), 40, 120, 2, VolOp::Mip);
    let src = SyntheticSource::new();
    let img = compute_from_bricks(&query, |idx| {
        Arc::new(
            src.read_page(small.id, idx, vmqs_volume::PAGE_SIZE)
                .unwrap(),
        )
    });
    assert_eq!(img, reference_render(&query));
    println!(
        "rendered a {}x{} MIP of volume {} (depth slab 40..120), verified against reference",
        img.width, img.height, small.id
    );
    let histogram_max = img.data.iter().copied().max().unwrap_or(0);
    println!("brightest projected voxel value: {histogram_max}\n");

    // Part 2: paper-style scheduling study on the large volumes.
    println!("8 scientists exploring two 4 GiB volumes (simulated, 4 threads, DS = 64 MB):");
    println!(
        "{:>8} | {:>15} {:>10} {:>12}",
        "strategy", "t-mean resp", "reuse", "makespan"
    );
    for strategy in Strategy::paper_set() {
        let streams = generate_volume(&VolWorkloadConfig::standard(VolOp::Mip, 11));
        let cfg = SimConfig::new(EngineConfig::paper_baseline().with_strategy(strategy));
        let report = run_volume_sim(cfg, VolCostModel::calibrated(&cfg.disk), streams);
        println!(
            "{:>8} | {:>13.2} s {:>9.1}% {:>10.1} s",
            strategy.name(),
            report.trimmed_mean_response(),
            100.0 * report.average_overlap(),
            report.makespan,
        );
    }
    println!("\n(The same scheduling graph and caches serve both applications; only the");
    println!(" QuerySpec predicate and the kernels changed — the paper's middleware claim.)");
}
