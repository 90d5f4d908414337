//! Emulated-client workloads for the volume application: scientists
//! exploring 3-D datasets — panning over a depth slab, changing level of
//! detail, and occasionally stepping to a different depth.

use crate::dataset::VolumeDataset;
use crate::query::{VolOp, VolQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmqs_core::{ClientId, DatasetId, Rect};
use vmqs_sim::ClientStream;

/// Configuration of the volume workload.
#[derive(Clone, Debug)]
pub struct VolWorkloadConfig {
    /// The volumes being explored.
    pub datasets: Vec<VolumeDataset>,
    /// Clients per dataset.
    pub clients_per_dataset: Vec<usize>,
    /// Queries per client.
    pub queries_per_client: usize,
    /// Output image side in pixels.
    pub output_side: u32,
    /// Allowed levels of detail.
    pub lods: Vec<u32>,
    /// Depth-slab thickness in voxels.
    pub slab_depth: u32,
    /// Projection operator.
    pub op: VolOp,
    /// Probability of continuing the current session.
    pub session_continue: f64,
    /// RNG seed.
    pub seed: u64,
}

impl VolWorkloadConfig {
    /// A paper-style setup: two 4 GiB volumes, 8 clients split 5/3, 16
    /// queries each, 256×256 outputs.
    pub fn standard(op: VolOp, seed: u64) -> Self {
        VolWorkloadConfig {
            datasets: vec![
                VolumeDataset::large(DatasetId(10)),
                VolumeDataset::large(DatasetId(11)),
            ],
            clients_per_dataset: vec![5, 3],
            queries_per_client: 16,
            output_side: 256,
            lods: vec![1, 2, 4],
            slab_depth: 128,
            op,
            session_continue: 0.7,
            seed,
        }
    }
}

struct Session {
    center: (u32, u32),
    z0: u32,
    lod_idx: usize,
}

/// Generates per-client query streams; deterministic per seed.
pub fn generate_volume(cfg: &VolWorkloadConfig) -> Vec<ClientStream<VolQuery>> {
    assert_eq!(cfg.datasets.len(), cfg.clients_per_dataset.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5a5a_5a5a);

    // Shared hotspots: (x, y, depth slab start), 3 per dataset.
    let hotspots: Vec<Vec<(u32, u32, u32)>> = cfg
        .datasets
        .iter()
        .map(|d| {
            (0..3)
                .map(|_| {
                    (
                        rng.gen_range(0..d.width),
                        rng.gen_range(0..d.height),
                        rng.gen_range(0..d.depth.saturating_sub(cfg.slab_depth).max(1)),
                    )
                })
                .collect()
        })
        .collect();

    let mut streams = Vec::new();
    let mut client_id = 100u64; // distinct from VM clients in mixed runs
    for (d_idx, (&n, dataset)) in cfg
        .clients_per_dataset
        .iter()
        .zip(cfg.datasets.iter())
        .enumerate()
    {
        for _ in 0..n {
            let mut s = new_session(&mut rng, cfg, &hotspots[d_idx]);
            let mut queries = Vec::new();
            for _ in 0..cfg.queries_per_client {
                if !rng.gen_bool(cfg.session_continue) {
                    s = new_session(&mut rng, cfg, &hotspots[d_idx]);
                } else {
                    mutate(&mut rng, cfg, dataset, &mut s);
                }
                queries.push(query_for(cfg, dataset, &s));
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

fn new_session(rng: &mut StdRng, cfg: &VolWorkloadConfig, hotspots: &[(u32, u32, u32)]) -> Session {
    let (x, y, z0) = hotspots[rng.gen_range(0..hotspots.len())];
    Session {
        center: (x, y),
        z0,
        lod_idx: rng.gen_range(0..cfg.lods.len()),
    }
}

fn mutate(rng: &mut StdRng, cfg: &VolWorkloadConfig, dataset: &VolumeDataset, s: &mut Session) {
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            // Pan on the projection plane.
            let lod = cfg.lods[s.lod_idx];
            let step = (cfg.output_side * lod / 4).max(1) as i64;
            s.center.0 = (s.center.0 as i64 + rng.gen_range(-step..=step)).max(0) as u32;
            s.center.1 = (s.center.1 as i64 + rng.gen_range(-step..=step)).max(0) as u32;
        }
        2 => s.lod_idx = s.lod_idx.saturating_sub(1),
        3 => s.lod_idx = (s.lod_idx + 1).min(cfg.lods.len() - 1),
        _ => {
            // Step to a different depth slab (breaks projection reuse, as
            // it must).
            let max_z0 = dataset.depth.saturating_sub(cfg.slab_depth).max(1);
            s.z0 = (s.z0 + cfg.slab_depth / 2) % max_z0;
        }
    }
}

fn query_for(cfg: &VolWorkloadConfig, dataset: &VolumeDataset, s: &Session) -> VolQuery {
    let lod = cfg.lods[s.lod_idx];
    let side = cfg.output_side * lod;
    let max_x = dataset.width.saturating_sub(side);
    let max_y = dataset.height.saturating_sub(side);
    let x = s.center.0.saturating_sub(side / 2).min(max_x);
    let y = s.center.1.saturating_sub(side / 2).min(max_y);
    let z1 = (s.z0 + cfg.slab_depth).min(dataset.depth);
    VolQuery::new(
        *dataset,
        Rect::new(x, y, side.min(dataset.width), side.min(dataset.height)),
        s.z0,
        z1,
        lod,
        cfg.op,
    )
}

/// Convenience: run a volume workload through the simulator, costed by
/// `cost`.
pub fn run_volume_sim(
    cfg: vmqs_sim::SimConfig,
    cost: crate::app::VolCostModel,
    workload: Vec<ClientStream<VolQuery>>,
) -> vmqs_sim::SimReport<VolQuery> {
    vmqs_sim::run_sim_app(cfg, cost, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{QuerySpec, Windowed};

    #[test]
    fn workload_shape_and_validity() {
        let cfg = VolWorkloadConfig::standard(VolOp::Mip, 7);
        let streams = generate_volume(&cfg);
        assert_eq!(streams.len(), 8);
        for s in &streams {
            assert_eq!(s.queries.len(), 16);
            for q in &s.queries {
                assert_eq!(q.output_dims(), (256, 256));
                assert!(q.z1 > q.z0);
                assert!(q.z1 <= q.volume.depth);
                assert!(cfg.lods.contains(&q.lod));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = VolWorkloadConfig::standard(VolOp::AvgProj, 3);
        assert_eq!(
            generate_volume(&cfg)
                .iter()
                .flat_map(|s| &s.queries)
                .collect::<Vec<_>>(),
            generate_volume(&cfg)
                .iter()
                .flat_map(|s| &s.queries)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn workload_has_cross_client_overlap() {
        let cfg = VolWorkloadConfig::standard(VolOp::Mip, 42);
        let streams = generate_volume(&cfg);
        let mut overlaps = 0;
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                for qa in &a.queries {
                    for qb in &b.queries {
                        if qa.overlap(qb) > 0.0 {
                            overlaps += 1;
                        }
                    }
                }
            }
        }
        assert!(overlaps > 10, "cross-client overlaps: {overlaps}");
    }

    #[test]
    fn volume_sim_end_to_end() {
        let cfg = VolWorkloadConfig::standard(VolOp::Mip, 1);
        let streams = generate_volume(&cfg);
        let total: usize = streams.iter().map(|s| s.queries.len()).sum();
        let sim_cfg = vmqs_sim::SimConfig::paper_baseline();
        let cost = crate::app::VolCostModel::calibrated(&sim_cfg.disk);
        let report = run_volume_sim(sim_cfg, cost, streams);
        assert_eq!(report.records.len(), total);
        assert!(report.average_overlap() > 0.0, "volume sessions must reuse");
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn volume_sim_caching_matters() {
        let cfg = VolWorkloadConfig::standard(VolOp::AvgProj, 5);
        let streams = generate_volume(&cfg);
        let sim = |ds_budget| {
            let engine = vmqs_core::EngineConfig::paper_baseline().with_ds_budget(ds_budget);
            vmqs_sim::SimConfig::new(engine)
        };
        let cost = crate::app::VolCostModel::calibrated(&sim(0).disk);
        let with = run_volume_sim(sim(128 << 20), cost, streams.clone());
        let without = run_volume_sim(sim(0), cost, streams);
        assert!(with.makespan < without.makespan);
    }
}
