//! The streaming subspace engine, re-composed from the public calls of
//! each layer so every call can be timed on its own.
//!
//! It mirrors `StreamingEngine<SubspaceBackend>::process_batch` step by
//! step — batched scoring up to each refit boundary (detection, then
//! identification and quantification of the rows that fired), the
//! per-arrival statistics slide, and the cadenced refit — so its alarms
//! must equal the engine's byte for byte; the traced runs check that.

use netanom_core::incremental::IncrementalCovariance;
use netanom_core::stream::{RefitStrategy, RingWindow};
use netanom_core::{
    quantify, Diagnoser, DiagnoserConfig, DiagnosisReport, SeparationPolicy, SubspaceModel,
};
use netanom_linalg::Matrix;
use netanom_topology::RoutingMatrix;

use crate::trace::Tracer;

pub struct TracedSubspace {
    diagnoser: Diagnoser,
    rm: RoutingMatrix,
    config: DiagnoserConfig,
    strategy: RefitStrategy,
    stats: IncrementalCovariance,
    window: RingWindow,
    refit_every: usize,
    since_fit: usize,
    arrivals: usize,
}

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl TracedSubspace {
    /// Bootstrap fit (model, identifier, statistics, window), as
    /// `SubspaceBackend::fit` + `StreamingEngine::with_backend` do.
    pub fn fit(
        t: &mut Tracer,
        training: &Matrix,
        rm: RoutingMatrix,
        config: DiagnoserConfig,
        strategy: RefitStrategy,
        refit_every: usize,
        window: usize,
    ) -> Result<Self> {
        let model = t
            .span("core.fit", |_| {
                SubspaceModel::fit(training, config.separation, config.pca_method)
            })
            .map_err(err)?;
        let diagnoser = t
            .span("core.fit.identifier", |_| {
                Diagnoser::from_model(model, &rm, config.confidence)
            })
            .map_err(err)?;
        let (stats, window) = t.span("core.fit.stats", |_| -> Result<_> {
            let mut stats = IncrementalCovariance::new(training.cols());
            for i in 0..training.rows() {
                stats.add(training.row(i)).map_err(err)?;
            }
            let capacity = window.max(training.rows());
            let mut ring = RingWindow::new(capacity, training.cols());
            for i in training.rows().saturating_sub(capacity)..training.rows() {
                ring.push(training.row(i));
            }
            Ok((stats, ring))
        })?;
        Ok(TracedSubspace {
            diagnoser,
            rm,
            config,
            strategy,
            stats,
            window,
            refit_every,
            since_fit: 0,
            arrivals: 0,
        })
    }

    /// Score, observe and refit a block of arrivals, honoring refits
    /// mid-block.
    pub fn process_batch(
        &mut self,
        t: &mut Tracer,
        links: &Matrix,
    ) -> Result<Vec<DiagnosisReport>> {
        let mut out = Vec::with_capacity(links.rows());
        let mut next = 0;
        while next < links.rows() {
            let until_refit = self.refit_every.saturating_sub(self.since_fit).max(1);
            let take = until_refit.min(links.rows() - next);
            let block = links.row_block(next, take).map_err(err)?;
            for mut rep in self.score(t, &block)? {
                rep.time = self.arrivals;
                self.arrivals += 1;
                self.since_fit += 1;
                out.push(rep);
            }
            t.span("core.observe", |_| -> Result<()> {
                for i in 0..take {
                    let y = block.row(i);
                    match self.window.oldest() {
                        Some(old) => self.stats.slide(old, y).map_err(err)?,
                        None => self.stats.add(y).map_err(err)?,
                    }
                    self.window.push(y);
                }
                Ok(())
            })?;
            t.count("core.observe.rows", take as f64);
            next += take;
            if self.since_fit >= self.refit_every {
                self.refit(t)?;
            }
        }
        Ok(out)
    }

    /// Batched scoring: detection over the block, then identification
    /// and quantification of each row that fired.
    fn score(&self, t: &mut Tracer, block: &Matrix) -> Result<Vec<DiagnosisReport>> {
        t.count("core.score.rows", block.rows() as f64);
        t.span("core.score", |t| {
            let detections = t
                .span("core.detect", |_| {
                    self.diagnoser.detector().detect_matrix(block)
                })
                .map_err(err)?;
            let model = self.diagnoser.model();
            let mut out = Vec::with_capacity(detections.len());
            for d in detections {
                let mut rep = DiagnosisReport {
                    time: d.time,
                    spe: d.spe,
                    threshold: d.threshold,
                    detected: d.anomalous,
                    identification: None,
                    estimated_bytes: None,
                };
                if d.anomalous {
                    let residual = model.residual(block.row(d.time)).map_err(err)?;
                    let id = t
                        .span("core.identify", |_| {
                            self.diagnoser.identifier().identify(&residual)
                        })
                        .map_err(err)?;
                    rep.estimated_bytes = Some(quantify(&id, &self.rm));
                    rep.identification = Some(id);
                    t.count("core.alarms", 1.0);
                }
                out.push(rep);
            }
            Ok(out)
        })
    }

    /// Refreeze the model from the sliding statistics (the normal
    /// dimension frozen under 3σ separation, as the engine does).
    fn refit(&mut self, t: &mut Tracer) -> Result<()> {
        let policy = match self.config.separation {
            SeparationPolicy::ThreeSigma { .. } => {
                SeparationPolicy::FixedCount(self.diagnoser.model().normal_dim())
            }
            other => other,
        };
        t.span("core.refit", |t| -> Result<()> {
            let model = t
                .span("core.refit.solve", |_| match self.strategy {
                    RefitStrategy::Truncated { k, tol } => {
                        self.stats.to_model_truncated(policy, k, tol)
                    }
                    _ => self.stats.to_model(policy),
                })
                .map_err(err)?;
            t.span("core.refit.identifier", |_| {
                self.diagnoser
                    .refit_model(model, &self.rm, self.config.confidence)
            })
            .map_err(err)
        })?;
        self.since_fit = 0;
        Ok(())
    }
}
