//! The client emulator: seeded synthetic query workloads.
//!
//! The paper drives its evaluation with an emulated-client driver rather
//! than real user traces ("extensive real user traces are very difficult
//! to acquire", §5); queries model microscope users browsing slides —
//! panning around regions of interest and switching magnification. The
//! generator reproduces the paper's setup: 16 concurrent clients, 16
//! queries each, producing 1024×1024 RGB output images at various
//! magnification levels, with 8/6/2 clients assigned to three datasets.
//!
//! Sessions cluster on shared hotspots so that *different* clients'
//! queries overlap (the classroom scenario of §3: "an entire class can
//! access and individually manipulate the same slide at the same time,
//! searching for a particular feature").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmqs_core::{ClientId, Rect};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_sim::ClientStream;

/// Configuration of the emulated-client workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// The slides being browsed.
    pub datasets: Vec<SlideDataset>,
    /// Clients per dataset (must have the same length as `datasets`).
    pub clients_per_dataset: Vec<usize>,
    /// Queries per client.
    pub queries_per_client: usize,
    /// Output image side in pixels (the paper uses 1024).
    pub output_side: u32,
    /// Allowed magnification levels (powers of two keep projections exact).
    pub zoom_levels: Vec<u32>,
    /// Processing function for all queries.
    pub op: VmOp,
    /// Shared hotspots per dataset that sessions cluster around.
    pub hotspots_per_dataset: usize,
    /// Probability that a query continues the current browsing session
    /// (pan/zoom) rather than jumping to a new hotspot.
    pub session_continue: f64,
    /// RNG seed — every workload is fully reproducible.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's §5 setup: three 30000×30000 slides, 16 clients split
    /// 8/6/2, 16 queries each, 1024×1024 outputs.
    pub fn paper(op: VmOp, seed: u64) -> Self {
        WorkloadConfig {
            datasets: (0..3)
                .map(|i| SlideDataset::paper_scale(vmqs_core::DatasetId(i)))
                .collect(),
            clients_per_dataset: vec![8, 6, 2],
            queries_per_client: 16,
            output_side: 1024,
            zoom_levels: vec![1, 2, 4, 8],
            op,
            hotspots_per_dataset: 4,
            session_continue: 0.65,
            seed,
        }
    }

    /// A laptop-scale variant for the real threaded engine: small slides,
    /// small outputs, same structure.
    pub fn small(op: VmOp, seed: u64) -> Self {
        WorkloadConfig {
            datasets: (0..2)
                .map(|i| SlideDataset::new(vmqs_core::DatasetId(i), 2000, 2000))
                .collect(),
            clients_per_dataset: vec![3, 1],
            queries_per_client: 4,
            output_side: 64,
            zoom_levels: vec![1, 2, 4],
            op,
            hotspots_per_dataset: 2,
            session_continue: 0.65,
            seed,
        }
    }

    /// Total number of clients.
    pub fn total_clients(&self) -> usize {
        self.clients_per_dataset.iter().sum()
    }

    /// Total number of queries.
    pub fn total_queries(&self) -> usize {
        self.total_clients() * self.queries_per_client
    }
}

struct Session {
    hotspot: (u32, u32),
    center: (u32, u32),
    zoom_idx: usize,
}

/// Generates the per-client query streams for `cfg`.
///
/// Deterministic: the same config (including seed) always produces the
/// same workload, which keeps every experiment reproducible.
pub fn generate(cfg: &WorkloadConfig) -> Vec<ClientStream> {
    assert_eq!(
        cfg.datasets.len(),
        cfg.clients_per_dataset.len(),
        "clients_per_dataset must match datasets"
    );
    assert!(!cfg.zoom_levels.is_empty());
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Shared hotspots per dataset.
    let hotspots: Vec<Vec<(u32, u32)>> = cfg
        .datasets
        .iter()
        .map(|d| {
            (0..cfg.hotspots_per_dataset)
                .map(|_| (rng.gen_range(0..d.width), rng.gen_range(0..d.height)))
                .collect()
        })
        .collect();

    let mut streams = Vec::new();
    let mut client_id = 0u64;
    for (d_idx, (&n_clients, dataset)) in cfg
        .clients_per_dataset
        .iter()
        .zip(cfg.datasets.iter())
        .enumerate()
    {
        for _ in 0..n_clients {
            let mut session = new_session(&mut rng, cfg, &hotspots[d_idx]);
            let mut queries = Vec::with_capacity(cfg.queries_per_client);
            for _ in 0..cfg.queries_per_client {
                if !rng.gen_bool(cfg.session_continue) {
                    session = new_session(&mut rng, cfg, &hotspots[d_idx]);
                } else {
                    mutate_session(&mut rng, cfg, &mut session);
                }
                queries.push(query_for(cfg, dataset, &session));
            }
            streams.push(ClientStream {
                client: ClientId(client_id),
                queries,
            });
            client_id += 1;
        }
    }
    streams
}

fn new_session(rng: &mut StdRng, cfg: &WorkloadConfig, hotspots: &[(u32, u32)]) -> Session {
    let hotspot = hotspots[rng.gen_range(0..hotspots.len())];
    Session {
        hotspot,
        center: hotspot,
        zoom_idx: rng.gen_range(0..cfg.zoom_levels.len()),
    }
}

fn mutate_session(rng: &mut StdRng, cfg: &WorkloadConfig, s: &mut Session) {
    match rng.gen_range(0..4u32) {
        // Pan: shift by a quarter of the current window.
        0 | 1 => {
            let zoom = cfg.zoom_levels[s.zoom_idx];
            let step = (cfg.output_side * zoom / 4).max(1) as i64;
            let dx = rng.gen_range(-step..=step);
            let dy = rng.gen_range(-step..=step);
            s.center.0 = (s.center.0 as i64 + dx).max(0) as u32;
            s.center.1 = (s.center.1 as i64 + dy).max(0) as u32;
        }
        // Zoom in.
        2 => {
            s.zoom_idx = s.zoom_idx.saturating_sub(1);
        }
        // Zoom out (and re-center toward the hotspot, as users do).
        _ => {
            s.zoom_idx = (s.zoom_idx + 1).min(cfg.zoom_levels.len() - 1);
            s.center = s.hotspot;
        }
    }
}

fn query_for(cfg: &WorkloadConfig, dataset: &SlideDataset, s: &Session) -> VmQuery {
    let zoom = cfg.zoom_levels[s.zoom_idx];
    let side = cfg.output_side * zoom;
    // Clamp the window inside the slide (shifting rather than shrinking so
    // output size stays constant whenever the slide is large enough).
    let max_x = dataset.width.saturating_sub(side);
    let max_y = dataset.height.saturating_sub(side);
    let x = s.center.0.saturating_sub(side / 2).min(max_x);
    let y = s.center.1.saturating_sub(side / 2).min(max_y);
    let w = side.min(dataset.width);
    let h = side.min(dataset.height);
    VmQuery::new(*dataset, Rect::new(x, y, w, h), zoom, cfg.op)
}

/// A zipfian cache-pressure workload (DESIGN.md §14): `queries` draws
/// over a catalog of `catalog` distinct high-magnification windows on one
/// paper-scale slide, with rank `r` drawn with probability proportional
/// to `1/r^s`. A handful of hot windows repeat many times while the long
/// tail forces continual eviction pressure — the regime where a
/// benefit-aware cache keeps the hot, expensive results and a recency
/// cache churns them. Windows are zoom-4 subsamples (1024² input pixels
/// per 256² output), so a re-heated result is far cheaper than its
/// recomputation.
pub fn zipfian(catalog: usize, queries: usize, s: f64, seed: u64) -> Vec<ClientStream> {
    assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite");
    let tiles = zipfian_catalog(catalog);
    // Inverse-CDF sampling over the truncated zeta weights.
    let mut cum = Vec::with_capacity(catalog);
    let mut total = 0.0f64;
    for r in 1..=catalog {
        total += 1.0 / (r as f64).powf(s);
        cum.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..queries)
        .map(|_| {
            // Uniform in [0, total): the top 53 bits of a u64 draw give
            // an exact dyadic uniform (the rand stub samples no floats).
            use rand::RngCore;
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            tiles[cum.partition_point(|&c| c <= u).min(catalog - 1)]
        })
        .collect();
    vec![ClientStream {
        client: ClientId(0),
        queries,
    }]
}

/// The catalog [`zipfian`] draws from, in rank order: `catalog` disjoint
/// zoom-4 windows (1024² input pixels per 256² output) tiled row-major
/// across one paper-scale slide. Rank `i+1` lives at tile `i`, so the
/// only reuse available is exact repetition of a catalog entry.
pub fn zipfian_catalog(catalog: usize) -> Vec<VmQuery> {
    assert!(catalog > 0, "catalog must be non-empty");
    let slide = SlideDataset::paper_scale(vmqs_core::DatasetId(0));
    const OUT_SIDE: u32 = 256;
    const ZOOM: u32 = 4;
    let side = OUT_SIDE * ZOOM;
    let per_row = (slide.width / side) as usize;
    assert!(
        catalog <= per_row * per_row,
        "catalog larger than the {per_row}x{per_row} tile grid"
    );
    (0..catalog)
        .map(|i| {
            let x = (i % per_row) as u32 * side;
            let y = (i / per_row) as u32 * side;
            VmQuery::new(slide, Rect::new(x, y, side, side), ZOOM, VmOp::Subsample)
        })
        .collect()
}

/// Flattens per-client streams into one batch stream (for the paper's
/// Fig. 7: "a single batch of 256 queries"), interleaving clients
/// round-robin so the batch is not sorted by client.
pub fn flatten_to_batch<S: Copy>(streams: &[ClientStream<S>]) -> Vec<ClientStream<S>> {
    let max_len = streams.iter().map(|s| s.queries.len()).max().unwrap_or(0);
    let mut queries = Vec::new();
    for i in 0..max_len {
        for s in streams {
            if let Some(q) = s.queries.get(i) {
                queries.push(*q);
            }
        }
    }
    vec![ClientStream {
        client: ClientId(0),
        queries,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::QuerySpec;

    #[test]
    fn paper_workload_shape() {
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 42);
        let streams = generate(&cfg);
        assert_eq!(streams.len(), 16);
        assert!(streams.iter().all(|s| s.queries.len() == 16));
        assert_eq!(cfg.total_queries(), 256);
        // 8/6/2 dataset split by construction order.
        let d0 = streams[..8]
            .iter()
            .flat_map(|s| &s.queries)
            .all(|q| q.slide.id.raw() == 0);
        let d2 = streams[14..]
            .iter()
            .flat_map(|s| &s.queries)
            .all(|q| q.slide.id.raw() == 2);
        assert!(d0 && d2);
    }

    #[test]
    fn outputs_are_constant_size() {
        let cfg = WorkloadConfig::paper(VmOp::Average, 7);
        for s in generate(&cfg) {
            for q in &s.queries {
                assert_eq!(q.output_dims(), (1024, 1024), "query {q:?}");
                assert_eq!(q.qoutsize(), 3 * 1024 * 1024);
            }
        }
    }

    #[test]
    fn windows_inside_slides_and_zoom_aligned() {
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 99);
        for s in generate(&cfg) {
            for q in &s.queries {
                assert!(q.slide.bounds().contains(&q.region));
                assert_eq!(q.region.x % q.zoom, 0);
                assert_eq!(q.region.w % q.zoom, 0);
                assert!(cfg.zoom_levels.contains(&q.zoom));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 5);
        let a = generate(&cfg);
        let b = generate(&cfg);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.queries, y.queries);
        }
        let other = generate(&WorkloadConfig::paper(VmOp::Subsample, 6));
        assert_ne!(
            a.iter().flat_map(|s| &s.queries).collect::<Vec<_>>(),
            other.iter().flat_map(|s| &s.queries).collect::<Vec<_>>()
        );
    }

    #[test]
    fn workload_has_interclient_overlap() {
        // The whole point of multi-query optimization: different clients'
        // queries must overlap sometimes.
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 42);
        let streams = generate(&cfg);
        let mut cross_overlaps = 0usize;
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                for qa in &a.queries {
                    for qb in &b.queries {
                        if qa.overlap(qb) > 0.0 {
                            cross_overlaps += 1;
                        }
                    }
                }
            }
        }
        assert!(
            cross_overlaps > 50,
            "expected substantial cross-client overlap, got {cross_overlaps}"
        );
    }

    #[test]
    fn small_workload_fits_small_slides() {
        let cfg = WorkloadConfig::small(VmOp::Average, 1);
        let streams = generate(&cfg);
        assert_eq!(streams.len(), 4);
        for s in &streams {
            for q in &s.queries {
                assert!(q.region.x1() <= 2000 && q.region.y1() <= 2000);
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_deterministic_and_in_catalog() {
        let streams = zipfian(64, 512, 1.1, 9);
        assert_eq!(streams.len(), 1);
        let qs = &streams[0].queries;
        assert_eq!(qs.len(), 512);
        assert_eq!(zipfian(64, 512, 1.1, 9)[0].queries, *qs, "seeded replay");

        // Every draw is a catalog tile, and the catalog tiles are the
        // disjoint zoom-aligned grid the generator promises.
        let catalog: Vec<_> = zipfian(64, 0, 1.1, 9);
        assert!(catalog[0].queries.is_empty());
        let mut counts = std::collections::HashMap::new();
        for q in qs {
            assert_eq!(q.zoom, 4);
            assert_eq!(q.region.x % q.zoom, 0);
            assert!(q.slide.bounds().contains(&q.region));
            *counts.entry((q.region.x, q.region.y)).or_insert(0usize) += 1;
        }
        assert!(counts.len() <= 64, "draws stay inside the catalog");

        // Zipf skew: the hottest window must repeat far above the uniform
        // share, and the head must dominate the tail.
        let hottest = *counts.values().max().unwrap();
        assert!(
            hottest >= 3 * 512 / 64,
            "rank-1 must beat the uniform share: {hottest}"
        );
        let rank1 = counts.get(&(0, 0)).copied().unwrap_or(0);
        assert_eq!(rank1, hottest, "tile 0 carries rank 1");
    }

    #[test]
    fn flatten_to_batch_preserves_all_queries() {
        let cfg = WorkloadConfig::paper(VmOp::Subsample, 3);
        let streams = generate(&cfg);
        let batch = flatten_to_batch(&streams);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].queries.len(), 256);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_config_rejected() {
        let mut cfg = WorkloadConfig::paper(VmOp::Subsample, 1);
        cfg.clients_per_dataset.pop();
        generate(&cfg);
    }
}
