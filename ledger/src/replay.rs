//! The m=484 workloads' in-process reference: the streaming engine's
//! `process_batch` over the same rows the release binary reads.

use std::fmt::Write as _;
use std::fs;
use std::io::BufReader;
use std::path::Path;

use netanom_core::stream::{RefitStrategy, StreamConfig, StreamingEngine};
use netanom_core::DiagnoserConfig;
use netanom_topology::RoutingMatrix;
use netanom_traffic::io::CsvChunks;

use crate::gen::M484_TRAIN;

/// Refit cadence of the m=484 workloads (`--refit-every`).
pub const REFIT_EVERY: usize = 144;
/// Ingestion chunk of the m=484 workloads (`--chunk`).
pub const CHUNK: usize = 36;
/// The alarm CSV header `netanom stream` and `netanom tracker` print.
pub const ALARM_HEADER: &str = "bin,spe,threshold,flow,estimated_bytes,explained_fraction";

/// Open `links.csv` as a chunked reader.
pub fn links_reader(dir: &Path) -> Result<CsvChunks<BufReader<fs::File>>, String> {
    let path = dir.join("links.csv");
    let file = fs::File::open(&path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    CsvChunks::new(BufReader::new(file), CHUNK)
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Read and parse `paths.csv`.
pub fn read_paths(dir: &Path) -> Result<Vec<Vec<usize>>, String> {
    let path = dir.join("paths.csv");
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    netanom_cli::paths_csv::parse(&text)
}

/// The stdout `netanom stream` must print for the workload in `dir`.
pub fn reference(dir: &Path) -> Result<String, String> {
    let mut chunks = links_reader(dir)?;
    let rm = RoutingMatrix::from_paths(chunks.num_links(), &read_paths(dir)?);
    let training = chunks.take_rows(M484_TRAIN).map_err(|e| e.to_string())?;
    let stream = StreamConfig::new(M484_TRAIN)
        .refit_every(REFIT_EVERY)
        .strategy(RefitStrategy::truncated());
    let mut engine = StreamingEngine::new(&training, &rm, DiagnoserConfig::default(), stream)
        .map_err(|e| format!("fitting: {e}"))?;
    let mut out = format!("{ALARM_HEADER}\n");
    while let Some(block) = chunks.next_chunk().map_err(|e| e.to_string())? {
        for rep in engine.process_batch(&block).map_err(|e| e.to_string())? {
            if rep.detected {
                let _ = writeln!(out, "{}", netanom_serve::alarm_csv_row(&rep, M484_TRAIN));
            }
        }
    }
    Ok(out)
}
