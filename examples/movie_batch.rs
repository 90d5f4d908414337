//! The movie scenario (paper §5): "if we want to create a movie from a
//! case study using VM, we may submit a set of queries, each of which
//! corresponds to a visualization of the slide being studied. In that
//! case, it is important to decrease the overall execution time of the
//! batch of queries."
//!
//! Builds a camera path over a paper-scale slide (pan + zoom, with the
//! frames naturally overlapping their neighbours), submits all frames as
//! one batch to the discrete-event simulator, and compares the total
//! render time under every ranking strategy — the Fig. 7 effect on a
//! concrete application.
//!
//! Run with: `cargo run --release --example movie_batch`

use vmqs::prelude::*;

/// A 96-frame camera path: a slow pan across the slide at zoom 4 with a
/// zoom-in/zoom-out bounce in the middle. Consecutive frames overlap by
/// 75%, so a reuse-aware schedule renders the movie mostly by projection.
fn camera_path(slide: SlideDataset) -> Vec<VmQuery> {
    let mut frames = Vec::new();
    let side = 4096u32;
    let step = side / 4;
    for i in 0..64u32 {
        let x = (i * step).min(slide.width - side);
        frames.push(VmQuery::new(
            slide,
            Rect::new(x, 8192, side, side),
            4,
            VmOp::Subsample,
        ));
    }
    // Zoom bounce around the midpoint of the pan.
    for &zoom in &[2u32, 1, 1, 2, 4, 8] {
        let side = 1024 * zoom;
        let x = 12000u32.min(slide.width - side);
        frames.push(VmQuery::new(
            slide,
            Rect::new(x, 10000.min(slide.height - side), side, side),
            zoom,
            VmOp::Subsample,
        ));
    }
    // Pan back at coarse zoom (entirely derivable from earlier frames).
    for i in (0..26u32).rev() {
        let x = (i * step * 2).min(slide.width - 8192);
        frames.push(VmQuery::new(
            slide,
            Rect::new(x, 8192, 8192, 8192),
            8,
            VmOp::Subsample,
        ));
    }
    frames
}

fn main() {
    let slide = SlideDataset::paper_scale(DatasetId(0));
    let frames = camera_path(slide);
    println!(
        "movie render: {} frames over a {}x{} slide, batch submission, 4 threads",
        frames.len(),
        slide.width,
        slide.height
    );
    println!(
        "{:>8} | {:>14} {:>10} {:>12} {:>12}",
        "strategy", "batch time", "reuse", "exact hits", "disk reads"
    );
    let mut baseline = None;
    for strategy in Strategy::paper_set() {
        let cfg = SimConfig::new(
            EngineConfig::paper_baseline()
                .with_strategy(strategy)
                .with_ds_budget(64 << 20),
        )
        .with_mode(SubmissionMode::Batch);
        let report = run_sim(
            cfg,
            vec![ClientStream {
                client: ClientId(0),
                queries: frames.clone(),
            }],
        );
        let t = report.makespan;
        let speedup = *baseline.get_or_insert(t) / t;
        println!(
            "{:>8} | {:>10.1} s {:>9.1}% {:>12} {:>12}  ({speedup:.2}x vs FIFO)",
            strategy.name(),
            t,
            100.0 * report.average_overlap(),
            report.ds_stats.exact_hits,
            report.disk_stats.requests,
        );
    }
    println!("\n(Shape per paper Fig. 7: locality-aware CF/CNBF render the movie fastest.)");
}
