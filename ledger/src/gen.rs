//! Seeded workload inputs. Everything here is a pure function of the
//! seed, so the same seed always yields byte-identical files (the input
//! digests in `digests.json` pin that).

use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netanom_linalg::{vector, Matrix};
use netanom_topology::{builtin, LinkId, Network, RoutingMatrix};
use netanom_traffic::synth::{self, ScaleConfig};
use netanom_traffic::{io as traffic_io, LinkSeries};

/// Links of the `replay-m484` / `distributed-m484` backbone.
pub const M484_LINKS: usize = 484;
/// Training prefix of the m=484 workloads: one week of 10-minute bins.
pub const M484_TRAIN: usize = 1008;
/// Streamed tail of the m=484 workloads.
pub const M484_TAIL: usize = 1152;

/// Tenants of `serve-tenants`: two per registered method.
pub const TENANTS: usize = 10;
/// Training prefix of every serve tenant.
pub const TENANT_TRAIN: usize = 288;
/// Streamed rows per tenant (after training).
pub const TENANT_TAIL: usize = 2304;

/// The m=484 series: a gravity-model week of training bins followed by
/// a tail with staged volume anomalies (a flow's routing column scaled
/// by the anomaly size, added for a few consecutive bins).
pub fn m484(seed: u64) -> (Network, LinkSeries) {
    let cfg = ScaleConfig::new(M484_LINKS, M484_TRAIN + M484_TAIL, seed);
    let (net, links) = synth::workload(&cfg).expect("484 links is a valid synthetic size");
    let mut data = links.matrix().clone();
    stage(&mut data, &net.routing_matrix, M484_TRAIN, seed, 5e7..1.5e8);
    (net, LinkSeries::new(data))
}

/// One serve tenant's series: the Abilene backbone (41 links, 121 flows)
/// with its own seeded gravity traffic and staged anomalies.
pub fn tenant(seed: u64, k: usize) -> (Network, LinkSeries) {
    let net = builtin::abilene();
    let tseed = seed.wrapping_mul(1000).wrapping_add(k as u64);
    let cfg = ScaleConfig::new(41, TENANT_TRAIN + TENANT_TAIL, tseed);
    let links = synth::link_series(&net, &cfg);
    let mut data = links.matrix().clone();
    stage(
        &mut data,
        &net.routing_matrix,
        TENANT_TRAIN,
        tseed,
        1.5e8..4e8,
    );
    (net, LinkSeries::new(data))
}

/// Add seeded volume anomalies to the rows after `from`: onsets 24–72
/// bins apart, 1–4 bins long, on a random flow.
fn stage(
    data: &mut Matrix,
    rm: &RoutingMatrix,
    from: usize,
    seed: u64,
    bytes: std::ops::Range<f64>,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_4147_4544); // "STAGED"
    let mut t = from + rng.random_range(12..48usize);
    while t < data.rows() {
        let flow = rng.random_range(0..rm.num_flows());
        let len = rng.random_range(1..=4usize);
        let size = rng.random_range(bytes.clone());
        let col = rm.column(flow);
        for row in t..(t + len).min(data.rows()) {
            let mut y = data.row(row).to_vec();
            vector::axpy(size, &col, &mut y);
            data.set_row(row, &y);
        }
        t += len + rng.random_range(24..72usize);
    }
}

/// Write `links.csv` (named columns) and `paths.csv` for a network.
pub fn write_network_files(dir: &Path, net: &Network, links: &LinkSeries) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let topo = &net.topology;
    let names: Vec<String> = (0..topo.num_links())
        .map(|l| topo.link_label(LinkId(l)).replace(',', "_"))
        .collect();
    traffic_io::link_series_to_csv(links, Some(&names), &dir.join("links.csv"))
        .map_err(|e| format!("writing links.csv: {e}"))?;
    let rm = &net.routing_matrix;
    let paths: Vec<Vec<usize>> = (0..rm.num_flows())
        .map(|f| rm.flow(f).path.iter().map(|l| l.0).collect())
        .collect();
    fs::write(
        dir.join("paths.csv"),
        netanom_cli::paths_csv::serialize(&paths),
    )
    .map_err(|e| format!("writing paths.csv: {e}"))
}

/// Write the serve workload: one links CSV per tenant.
pub fn write_tenants(dir: &Path, seed: u64) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for k in 0..TENANTS {
        let (_, links) = tenant(seed, k);
        traffic_io::link_series_to_csv(&links, None, &dir.join(format!("tenant{k}.csv")))
            .map_err(|e| format!("writing tenant{k}.csv: {e}"))?;
    }
    Ok(())
}
