//! Quickstart: start a query server over a synthetic slide, submit a few
//! overlapping Virtual Microscope queries, and watch the multi-query
//! optimizations kick in (exact hits, partial projection, sub-queries).
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use vmqs::prelude::*;

fn main() {
    // A 4000×4000-pixel slide (48 MB raw) served from deterministic
    // synthetic data — no files needed.
    let slide = SlideDataset::new(DatasetId(0), 4000, 4000);
    let server = QueryServer::new(
        ServerConfig::new(
            EngineConfig::small()
                .with_strategy(Strategy::Cnbf)
                .with_threads(2),
        ),
        Arc::new(SyntheticSource::new()),
    );

    println!(
        "Virtual Microscope quickstart — slide {}x{}",
        slide.width, slide.height
    );
    println!("{:-<72}", "");

    // 1. A fresh query: computed entirely from raw chunks.
    let q1 = VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 2, VmOp::Subsample);
    let r1 = server.submit(q1).wait().expect("query 1");
    report("q1: fresh 512x512 render at zoom 2", &r1);

    // 2. The identical query again: answered from cache without touching
    //    a single page (common subexpression elimination).
    let r2 = server.submit(q1).wait().expect("query 2");
    report("q2: identical repeat", &r2);

    // 3. A shifted window: partially projected from q1's cached output,
    //    the uncovered strip computed via sub-queries.
    let q3 = VmQuery::new(slide, Rect::new(512, 0, 1024, 1024), 2, VmOp::Subsample);
    let r3 = server.submit(q3).wait().expect("query 3");
    report("q3: half-overlapping pan", &r3);

    // 4. Zooming out over the same region: derivable entirely from q1 by
    //    the `project` transformation (no new I/O).
    let q4 = VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 8, VmOp::Subsample);
    let r4 = server.submit(q4).wait().expect("query 4");
    report("q4: zoom out 2 -> 8 over q1's window", &r4);

    // 5. The averaging function cannot reuse subsampled results: fresh
    //    computation (different query object, paper section 3).
    let q5 = VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 8, VmOp::Average);
    let r5 = server.submit(q5).wait().expect("query 5");
    report("q5: same window but pixel-averaging", &r5);

    println!("{:-<72}", "");
    let ds = server.ds_stats();
    let ps = server.ps_stats();
    println!(
        "data store: {} exact hits, {} partial hits, {} misses",
        ds.exact_hits, ds.partial_hits, ds.misses
    );
    println!(
        "page space: {} pages fetched in {} merged runs, {} hits, {} dedup waits",
        ps.pages_fetched, ps.runs_issued, ps.hits, ps.dedup_waits
    );
    server.shutdown();
}

fn report(label: &str, r: &vmqs::server::QueryResult) {
    println!(
        "{label:44} {:?}  reuse {:>5.1}%  pages {:>3}  {:>7.1?}",
        r.record.path,
        100.0 * r.record.covered_fraction,
        r.record.pages_requested,
        r.record.exec_time,
    );
}
