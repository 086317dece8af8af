//! The traced runs: each workload re-run in process with spans around
//! the calls into every layer, after an untraced in-process run of the
//! same work (the denominator of `trace.overhead`).
//!
//! Everything here times public calls from outside the crates; nothing
//! inside the program is instrumented. Where a layer's work happens
//! inside another crate's loop (the tracker's merges and refits), it is
//! re-timed after the run on the exact inputs the loopback relay saw.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use netanom_baselines::methods::{MethodBackend, MethodName};
use netanom_core::incremental::{CovarianceShard, IncrementalCovariance};
use netanom_core::method::{merge_coeff_partials, DetectionBackend};
use netanom_core::stream::{RefitStrategy, RingWindow, StreamConfig};
use netanom_core::{Diagnoser, DiagnoserConfig, SeparationPolicy, SubspaceBackend};
use netanom_linalg::Matrix;
use netanom_net::{
    read_frame, write_frame, CsvRowFeed, Message, RowFeed, Tracker, TrackerConfig, WorkerConfig,
};
use netanom_serve::{alarm_csv_row, parse_line, Event, Request, Service, Session, SessionConfig};
use netanom_topology::{LinkPartition, RoutingMatrix};
use netanom_traffic::io::CsvChunks;

use crate::gen::{M484_TRAIN, TENANTS, TENANT_TRAIN};
use crate::replay::{self, links_reader, ALARM_HEADER, CHUNK, REFIT_EVERY};
use crate::serve::{self as serve_wl, identity_routing, Kind, Sequence, Tenants, TENANT_METHODS};
use crate::subspace::TracedSubspace;
use crate::trace::Tracer;

type Result<T> = std::result::Result<T, String>;
pub type Metrics = BTreeMap<String, f64>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn put(m: &mut Metrics, name: &str, v: f64) {
    m.insert(name.to_string(), v);
}

/// The `core.*` metrics a tracer holds.
fn core_metrics(t: &Tracer, m: &mut Metrics) {
    put(m, "core.fit.busy_s", t.busy_s("core.fit"));
    put(m, "core.fit.identifier_s", t.busy_s("core.fit.identifier"));
    put(m, "core.score.rows", t.counter("core.score.rows"));
    put(m, "core.score.busy_s", t.busy_s("core.score"));
    put(m, "core.detect.busy_s", t.busy_s("core.detect"));
    put(m, "core.identify.calls", t.calls("core.identify") as f64);
    put(m, "core.identify.busy_s", t.busy_s("core.identify"));
    let rows = t.counter("core.score.rows");
    put(
        m,
        "core.alarm_frac",
        if rows > 0.0 {
            t.counter("core.alarms") / rows
        } else {
            0.0
        },
    );
    put(m, "core.observe.rows", t.counter("core.observe.rows"));
    put(m, "core.observe.busy_s", t.busy_s("core.observe"));
    put(m, "core.refit.count", t.calls("core.refit") as f64);
    put(m, "core.refit.busy_s", t.busy_s("core.refit"));
    put(m, "core.refit.max_ms", t.max_ms("core.refit"));
    put(m, "core.refit.solve_s", t.busy_s("core.refit.solve"));
    put(
        m,
        "core.refit.identifier_s",
        t.busy_s("core.refit.identifier"),
    );
}

/// Paths, routing and the training prefix, as `netanom stream` and
/// `netanom tracker` load them.
fn load(
    t: &mut Tracer,
    dir: &Path,
) -> Result<(
    RoutingMatrix,
    CsvChunks<std::io::BufReader<fs::File>>,
    Matrix,
)> {
    let path = dir.join("paths.csv");
    let text = t
        .span("cli.read_paths", |_| fs::read_to_string(&path))
        .map_err(err)?;
    let paths = t.span("cli.paths.parse", |_| netanom_cli::paths_csv::parse(&text))?;
    let mut chunks = t.span("traffic.parse", |_| links_reader(dir))?;
    let m = chunks.num_links();
    let rm = t.span("topology.routing.build", |_| {
        RoutingMatrix::from_paths(m, &paths)
    });
    let training = t
        .span("traffic.parse", |_| chunks.take_rows(M484_TRAIN))
        .map_err(err)?;
    t.count("traffic.parse.rows", M484_TRAIN as f64);
    Ok((rm, chunks, training))
}

fn emit(t: &mut Tracer, out: &mut String, reports: &[netanom_core::DiagnosisReport]) {
    t.span("cli.emit", |_| {
        for rep in reports.iter().filter(|r| r.detected) {
            let _ = writeln!(out, "{}", alarm_csv_row(rep, M484_TRAIN));
        }
    });
}

fn check(what: &str, got: &str, want: &str) -> Result<()> {
    if got == want {
        return Ok(());
    }
    let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
    Err(format!(
        "{what}: alarms differ from the reference ({} vs {} lines; first difference at line {:?})",
        got.lines().count(),
        want.lines().count(),
        line.map(|l| l + 1),
    ))
}

fn finish(t: &Tracer, wall: Duration, untraced: Duration, m: &mut Metrics) {
    put(m, "trace.coverage", t.self_total_s() / wall.as_secs_f64());
    put(
        m,
        "trace.overhead",
        wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
}

/// `replay-m484`: `netanom stream` re-composed in process.
pub fn replay(dir: &Path, want: &str, spans: &mut String) -> Result<Metrics> {
    let t0 = Instant::now();
    check("untraced in-process replay", &replay::reference(dir)?, want)?;
    let untraced = t0.elapsed();

    let base = Instant::now();
    let mut t = Tracer::new(base);
    let (rm, mut chunks, training) = load(&mut t, dir)?;
    let mut engine = TracedSubspace::fit(
        &mut t,
        &training,
        rm,
        DiagnoserConfig::default(),
        RefitStrategy::truncated(),
        REFIT_EVERY,
        M484_TRAIN,
    )?;
    let mut out = format!("{ALARM_HEADER}\n");
    while let Some(block) = t
        .span("traffic.parse", |_| chunks.next_chunk())
        .map_err(err)?
    {
        t.count("traffic.parse.rows", block.rows() as f64);
        let reports = engine.process_batch(&mut t, &block)?;
        emit(&mut t, &mut out, &reports);
    }
    let wall = base.elapsed();
    check("traced replay", &out, want)?;

    let mut m = Metrics::new();
    put(
        &mut m,
        "traffic.parse.rows",
        t.counter("traffic.parse.rows"),
    );
    put(&mut m, "traffic.parse.busy_s", t.busy_s("traffic.parse"));
    put(&mut m, "cli.paths.parse_s", t.busy_s("cli.paths.parse"));
    put(
        &mut m,
        "topology.routing.build_s",
        t.busy_s("topology.routing.build"),
    );
    core_metrics(&t, &mut m);
    finish(&t, wall, untraced, &mut m);
    t.to_jsonl("main", spans);
    Ok(m)
}

// ------------------------------------------------------------ distributed

/// A row feed that times every read (the worker's CSV parsing).
struct TimedFeed<'a, F> {
    inner: F,
    t: &'a mut Tracer,
}

impl<F: RowFeed> RowFeed for TimedFeed<'_, F> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn take_rows(&mut self, need: usize) -> netanom_net::Result<Matrix> {
        let inner = &mut self.inner;
        let rows = self.t.span("traffic.parse", |_| inner.take_rows(need))?;
        self.t.count("traffic.parse.rows", rows.rows() as f64);
        Ok(rows)
    }

    fn take_up_to(&mut self, need: usize) -> netanom_net::Result<Option<Matrix>> {
        let inner = &mut self.inner;
        let rows = self.t.span("traffic.parse", |_| inner.take_up_to(need))?;
        self.t.count(
            "traffic.parse.rows",
            rows.as_ref().map_or(0, Matrix::rows) as f64,
        );
        Ok(rows)
    }
}

/// What the relay of one worker connection saw.
#[derive(Default)]
struct LinkLog {
    frames: u64,
    bytes: u64,
    /// Time a tracker request was outstanding (sent, not yet answered).
    wait: Duration,
    /// Phase-A partial coefficients, by round.
    phase_a: Vec<(u64, Matrix)>,
    /// Encoded statistics shards, by round.
    stats: Vec<(u64, Vec<u8>)>,
}

/// Forward frames between one worker and the tracker, counting them and
/// keeping the payloads the tracker merges.
fn relay(listener: TcpListener, tracker: SocketAddr) -> Result<LinkLog> {
    let (worker, _) = listener.accept().map_err(err)?;
    let to_tracker = TcpStream::connect(tracker).map_err(err)?;
    for s in [&worker, &to_tracker] {
        s.set_nodelay(true).map_err(err)?;
    }
    let outstanding: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
    let max = netanom_net::DEFAULT_MAX_FRAME;

    let down = {
        let (mut from, mut to) = (
            to_tracker.try_clone().map_err(err)?,
            worker.try_clone().map_err(err)?,
        );
        let outstanding = Arc::clone(&outstanding);
        thread::spawn(move || -> Result<(u64, u64)> {
            let (mut frames, mut bytes) = (0, 0);
            while let Some(payload) = read_frame(&mut from, max).map_err(err)? {
                outstanding
                    .lock()
                    .expect("relay lock")
                    .get_or_insert_with(Instant::now);
                frames += 1;
                bytes += 8 + payload.len() as u64;
                write_frame(&mut to, &payload).map_err(err)?;
            }
            let _ = to.shutdown(std::net::Shutdown::Write);
            Ok((frames, bytes))
        })
    };

    let mut log = LinkLog::default();
    let (mut from, mut to) = (worker, to_tracker);
    while let Some(payload) = read_frame(&mut from, max).map_err(err)? {
        if let Some(at) = outstanding.lock().expect("relay lock").take() {
            log.wait += at.elapsed();
        }
        log.frames += 1;
        log.bytes += 8 + payload.len() as u64;
        write_frame(&mut to, &payload).map_err(err)?;
        match Message::from_bytes(&payload).map_err(err)? {
            Message::PhaseA { round, coeffs, .. } => log.phase_a.push((round, coeffs)),
            Message::Stats { round, bytes } => log.stats.push((round, bytes)),
            _ => {}
        }
    }
    // The worker is gone; closing both halves also ends the tracker →
    // worker forwarder, which would otherwise wait on a tracker that
    // keeps its connections open until dropped.
    let _ = to.shutdown(std::net::Shutdown::Both);
    let (frames, bytes) = down
        .join()
        .map_err(|_| "relay thread panicked".to_string())??;
    log.frames += frames;
    log.bytes += bytes;
    Ok(log)
}

fn tracker_config() -> TrackerConfig {
    let stream = StreamConfig::new(M484_TRAIN)
        .refit_every(REFIT_EVERY)
        .strategy(RefitStrategy::truncated());
    let mut cfg = TrackerConfig::new(M484_TRAIN, stream);
    cfg.chunk = CHUNK;
    cfg
}

fn worker_feed(dir: &Path) -> Result<CsvRowFeed<std::io::BufReader<fs::File>>> {
    let path = dir.join("links.csv");
    let file = fs::File::open(&path).map_err(err)?;
    Ok(CsvRowFeed::new(
        CsvChunks::new(std::io::BufReader::new(file), 144).map_err(err)?,
    ))
}

/// The untraced in-process deployment: tracker plus two worker threads
/// on loopback, no relay. Returns the alarm CSV.
fn distributed_untraced(dir: &Path) -> Result<String> {
    let mut t = Tracer::new(Instant::now());
    let (rm, _, training) = load(&mut t, dir)?;
    let backend = SubspaceBackend::fit_sharded(
        &training,
        &rm,
        DiagnoserConfig::default(),
        RefitStrategy::truncated(),
    )
    .map_err(err)?;
    let partition = LinkPartition::round_robin(rm.num_links(), 2).map_err(err)?;
    let mut tracker =
        Tracker::bind("127.0.0.1:0", backend, &partition, tracker_config()).map_err(err)?;
    let addr = tracker.local_addr().map_err(err)?.to_string();
    let mut out = format!("{ALARM_HEADER}\n");
    thread::scope(|s| -> Result<()> {
        let workers: Vec<_> = (0..2)
            .map(|shard| {
                let (addr, partition) = (&addr, &partition);
                s.spawn(move || -> Result<()> {
                    let cfg = WorkerConfig::new(shard, 2, M484_TRAIN);
                    netanom_net::run_worker(addr, worker_feed(dir)?, partition.group(shard), &cfg)
                        .map_err(err)?;
                    Ok(())
                })
            })
            .collect();
        tracker
            .run(|block| {
                for rep in block.iter().filter(|r| r.detected) {
                    let _ = writeln!(out, "{}", alarm_csv_row(rep, M484_TRAIN));
                }
            })
            .map_err(err)?;
        for w in workers {
            w.join().map_err(|_| "worker panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(out)
}

/// `distributed-m484`: tracker and two `run_worker` threads in process,
/// each worker behind a loopback relay.
pub fn distributed(dir: &Path, want: &str, spans: &mut String) -> Result<Metrics> {
    let t0 = Instant::now();
    check(
        "untraced in-process deployment",
        &distributed_untraced(dir)?,
        want,
    )?;
    let untraced = t0.elapsed();

    let base = Instant::now();
    let mut t = Tracer::new(base);
    let (rm, _, training) = load(&mut t, dir)?;
    let config = DiagnoserConfig::default();
    let backend = t
        .span("core.fit", |_| {
            SubspaceBackend::fit_sharded(&training, &rm, config, RefitStrategy::truncated())
        })
        .map_err(err)?;
    let partition = LinkPartition::round_robin(rm.num_links(), 2).map_err(err)?;
    let mut tracker =
        Tracker::bind("127.0.0.1:0", backend, &partition, tracker_config()).map_err(err)?;
    let taddr = tracker.local_addr().map_err(err)?;
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(err))
        .collect::<Result<_>>()?;
    let relay_addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()).map_err(err))
        .collect::<Result<_>>()?;

    let mut out = format!("{ALARM_HEADER}\n");
    let mut round_ms = Vec::new();
    let mut worker_tracers: Vec<Tracer> = (0..2).map(|_| Tracer::new(base)).collect();
    let mut summary = None;
    let mut links = Vec::new();
    let mut worker_rejoins = 0;
    thread::scope(|s| -> Result<()> {
        let relays: Vec<_> = listeners
            .into_iter()
            .map(|l| s.spawn(move || relay(l, taddr)))
            .collect();
        let workers: Vec<_> = worker_tracers
            .iter_mut()
            .enumerate()
            .map(|(shard, wt)| {
                let (addr, partition) = (&relay_addrs[shard], &partition);
                s.spawn(move || -> Result<usize> {
                    let cfg = WorkerConfig::new(shard, 2, M484_TRAIN);
                    let feed = TimedFeed {
                        inner: worker_feed(dir)?,
                        t: wt,
                    };
                    let sum = netanom_net::run_worker(addr, feed, partition.group(shard), &cfg)
                        .map_err(err)?;
                    Ok(sum.rejoins)
                })
            })
            .collect();
        let mut last: Option<Instant> = None;
        let run = t.span("net.tracker.run", |t| {
            tracker.run(|block| {
                let now = Instant::now();
                if let Some(prev) = last {
                    round_ms.push((now - prev).as_secs_f64() * 1e3);
                }
                last = Some(now);
                t.span("cli.emit", |_| {
                    for rep in block.iter().filter(|r| r.detected) {
                        let _ = writeln!(out, "{}", alarm_csv_row(rep, M484_TRAIN));
                    }
                });
            })
        });
        summary = Some(run.map_err(err)?);
        for w in workers {
            worker_rejoins += w.join().map_err(|_| "worker panicked".to_string())??;
        }
        for r in relays {
            links.push(r.join().map_err(|_| "relay panicked".to_string())??);
        }
        Ok(())
    })?;
    let wall = base.elapsed();
    check("traced deployment", &out, want)?;
    let summary = summary.expect("tracker ran");

    // Re-time, on the exact partials the relays saw, the merges and
    // refits the tracker performed inside `Tracker::run`.
    let mut post = Tracer::new(base);
    let r = tracker.backend_ref().diagnoser().model().normal_dim();
    let rounds: Vec<u64> = links[0].phase_a.iter().map(|(round, _)| *round).collect();
    for round in rounds {
        let parts: Vec<&Matrix> = links
            .iter()
            .filter_map(|l| {
                l.phase_a
                    .iter()
                    .find(|(rd, _)| *rd == round)
                    .map(|(_, c)| c)
            })
            .collect();
        if parts.len() == links.len() && parts[0].cols() == r {
            let bins = parts[0].rows();
            post.span("core.shard.merge", |_| {
                merge_coeff_partials(bins, r, parts.iter().copied())
            });
        }
    }
    let mut diagnoser: Diagnoser = tracker.backend_ref().diagnoser().clone();
    for (round, bytes) in links[0].stats.clone() {
        let mut shards = vec![CovarianceShard::from_bytes(&bytes).map_err(err)?];
        for l in &links[1..] {
            let (_, b) = l
                .stats
                .iter()
                .find(|(rd, _)| *rd == round)
                .ok_or("stats round missing")?;
            shards.push(CovarianceShard::from_bytes(b).map_err(err)?);
        }
        let merged = post
            .span("core.shard.merge", |_| {
                IncrementalCovariance::merge(shards.iter())
            })
            .map_err(err)?;
        let policy = SeparationPolicy::FixedCount(diagnoser.model().normal_dim());
        let (k, tol) = match RefitStrategy::truncated() {
            RefitStrategy::Truncated { k, tol } => (k, tol),
            _ => unreachable!("truncated() is the truncated strategy"),
        };
        post.span("core.refit", |t| -> Result<()> {
            let model = t
                .span("core.refit.solve", |_| {
                    merged.to_model_truncated(policy, k, tol)
                })
                .map_err(err)?;
            t.span("core.refit.identifier", |_| {
                diagnoser.refit_model(model, &rm, config.confidence)
            })
            .map_err(err)
        })?;
    }
    let model = diagnoser.model().clone();
    post.span("core.fit.identifier", |_| {
        Diagnoser::from_model(model, &rm, config.confidence)
    })
    .map_err(err)?;

    let mut m = Metrics::new();
    let parse_rows = t.counter("traffic.parse.rows")
        + worker_tracers
            .iter()
            .map(|w| w.counter("traffic.parse.rows"))
            .sum::<f64>();
    let parse_s = t.busy_s("traffic.parse")
        + worker_tracers
            .iter()
            .map(|w| w.busy_s("traffic.parse"))
            .sum::<f64>();
    put(&mut m, "traffic.parse.rows", parse_rows);
    put(&mut m, "traffic.parse.busy_s", parse_s);
    put(&mut m, "cli.paths.parse_s", t.busy_s("cli.paths.parse"));
    put(
        &mut m,
        "topology.routing.build_s",
        t.busy_s("topology.routing.build"),
    );
    put(&mut m, "core.fit.busy_s", t.busy_s("core.fit"));
    put(
        &mut m,
        "core.fit.identifier_s",
        post.busy_s("core.fit.identifier"),
    );
    put(&mut m, "core.refit.count", post.calls("core.refit") as f64);
    put(&mut m, "core.refit.busy_s", post.busy_s("core.refit"));
    put(&mut m, "core.refit.max_ms", post.max_ms("core.refit"));
    put(
        &mut m,
        "core.refit.solve_s",
        post.busy_s("core.refit.solve"),
    );
    put(
        &mut m,
        "core.refit.identifier_s",
        post.busy_s("core.refit.identifier"),
    );
    put(
        &mut m,
        "core.shard.merge_s",
        post.busy_s("core.shard.merge"),
    );
    let frames: u64 = links.iter().map(|l| l.frames).sum();
    let bytes: u64 = links.iter().map(|l| l.bytes).sum();
    let rounds = summary.rounds.max(1) as f64;
    put(&mut m, "net.rounds", summary.rounds as f64);
    put(
        &mut m,
        "net.round_ms.p50",
        crate::load::percentile(&round_ms, 50.0),
    );
    put(
        &mut m,
        "net.round_ms.max",
        round_ms.iter().fold(0.0, |a: f64, &b| a.max(b)),
    );
    put(
        &mut m,
        "net.tracker_wait_s",
        links
            .iter()
            .map(|l| l.wait.as_secs_f64())
            .fold(0.0, f64::max),
    );
    put(&mut m, "net.frames", frames as f64);
    put(&mut m, "net.bytes_per_round", bytes as f64 / rounds);
    put(
        &mut m,
        "net.rejoins",
        (summary.rejoins.len() + worker_rejoins) as f64,
    );
    finish(&t, wall, untraced, &mut m);
    t.to_jsonl("tracker", spans);
    for (i, w) in worker_tracers.iter().enumerate() {
        w.to_jsonl(&format!("worker{i}"), spans);
    }
    post.to_jsonl("retimed", spans);
    Ok(m)
}

// ------------------------------------------------------------------ serve

/// The request lines of one burst-mode client session, in order.
fn burst_lines(tenants: &Tenants, ckpt_dir: &Path) -> (Vec<(String, Kind)>, [usize; TENANTS]) {
    let mut seq = Sequence::new(tenants, ckpt_dir);
    let mut lines = seq.setup_lines();
    lines.extend(seq.burst(0));
    (lines, *seq.arrivals())
}

fn tenant_of(sid: &str) -> usize {
    sid[1..].parse().expect("tenant ids are t0..t9")
}

/// One tenant replayed straight through its method backend (the
/// engine's score → observe → refit loop, one arrival at a time as the
/// daemon's auto-drain runs it), timing each backend call.
fn replay_tenant(
    t: &mut Tracer,
    method: &str,
    training: &Matrix,
    rows: &[Matrix],
) -> Result<Vec<String>> {
    let rm = identity_routing(training.cols());
    let mut alarms = Vec::new();
    if method == "subspace" {
        let mut engine = TracedSubspace::fit(
            t,
            training,
            rm,
            DiagnoserConfig::default(),
            RefitStrategy::Incremental,
            serve_wl::REFIT_EVERY,
            TENANT_TRAIN,
        )?;
        for row in rows {
            for rep in engine.process_batch(t, row)? {
                if rep.detected {
                    alarms.push(alarm_csv_row(&rep, TENANT_TRAIN));
                }
            }
        }
        return Ok(alarms);
    }
    let names: [&'static str; 4] = match method {
        "ewma" => [
            "baselines.ewma.score",
            "baselines.ewma.observe",
            "baselines.ewma.refit",
            "baselines.ewma.fit",
        ],
        "holt-winters" => [
            "baselines.holt-winters.score",
            "baselines.holt-winters.observe",
            "baselines.holt-winters.refit",
            "baselines.holt-winters.fit",
        ],
        "fourier" => [
            "baselines.fourier.score",
            "baselines.fourier.observe",
            "baselines.fourier.refit",
            "baselines.fourier.fit",
        ],
        _ => [
            "baselines.wavelet.score",
            "baselines.wavelet.observe",
            "baselines.wavelet.refit",
            "baselines.wavelet.fit",
        ],
    };
    let name = MethodName::parse(method)?;
    let mut backend: MethodBackend = t
        .span(names[3], |_| {
            name.fit(
                training,
                &rm,
                DiagnoserConfig::default(),
                RefitStrategy::FullSvd,
            )
        })
        .map_err(err)?;
    let mut window = RingWindow::new(TENANT_TRAIN, training.cols());
    for i in 0..TENANT_TRAIN {
        window.push(training.row(i));
    }
    let mut since_fit = 0;
    for (i, row) in rows.iter().enumerate() {
        let reports = t
            .span(names[0], |_| backend.score_matrix(row))
            .map_err(err)?;
        for mut rep in reports {
            rep.time = i;
            if rep.detected {
                alarms.push(alarm_csv_row(&rep, TENANT_TRAIN));
            }
        }
        t.span(names[1], |_| -> Result<()> {
            backend.observe(window.oldest(), row.row(0)).map_err(err)?;
            window.push(row.row(0));
            Ok(())
        })?;
        since_fit += 1;
        if since_fit >= serve_wl::REFIT_EVERY {
            t.span(names[2], |_| backend.refit(&window)).map_err(err)?;
            since_fit = 0;
        }
    }
    Ok(alarms)
}

/// `serve-tenants`: the daemon's per-line work (`parse_line`,
/// `Session::push`, `Session::drain`, checkpoints) on the burst-mode
/// request sequence, then every tenant straight through its backend.
pub fn serve(tenants_dir: &Path, ckpt_dir: &Path, spans: &mut String) -> Result<Metrics> {
    let tenants = Tenants::load(tenants_dir)?;
    let (lines, arrivals) = burst_lines(&tenants, ckpt_dir);
    let want = serve_wl::reference_alarms(&tenants, &arrivals)?;

    // Untraced: the service core itself, line by line.
    let t0 = Instant::now();
    let mut service = Service::new();
    let mut untraced_alarms: Vec<Vec<String>> = vec![Vec::new(); TENANTS];
    for (line, _) in &lines {
        for out in service.handle_line(line).lines {
            if let Some(rest) = out.strip_prefix("alarm ") {
                let (sid, payload) = rest.split_once(' ').unwrap_or((rest, ""));
                untraced_alarms[tenant_of(sid)].push(payload.to_string());
            }
        }
    }
    let untraced = t0.elapsed();
    if untraced_alarms != want {
        return Err("untraced in-process service: alarms differ from the reference".to_string());
    }

    let base = Instant::now();
    let mut t = Tracer::new(base);
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    let mut alarms: Vec<Vec<String>> = vec![Vec::new(); TENANTS];
    let (mut busy, mut errors, mut ckpt_bytes) = (0.0, 0.0, 0.0);
    for (line, _) in &lines {
        t.count("serve.lines", 1.0);
        let req = match t.span("serve.parse_line", |_| parse_line(line)) {
            Ok(Some(req)) => req,
            Ok(None) => continue,
            Err(_) => {
                errors += 1.0;
                continue;
            }
        };
        match req {
            Request::Open { sid, params } => {
                let opened = t.span("serve.open", |_| {
                    SessionConfig::from_params(&params).map(Session::open)
                });
                match opened {
                    Ok(s) => {
                        sessions.insert(sid.to_string(), s);
                    }
                    Err(_) => errors += 1.0,
                }
            }
            Request::Obs { sid, row } => {
                let Some(session) = sessions.get_mut(sid) else {
                    errors += 1.0;
                    continue;
                };
                match t.span("serve.push", |_| session.push(row)) {
                    Ok(true) => {}
                    Ok(false) => {
                        busy += 1.0;
                        continue;
                    }
                    Err(_) => {
                        errors += 1.0;
                        continue;
                    }
                }
                match t.span("serve.drain", |_| session.drain(None)) {
                    Ok(outcome) => {
                        for ev in outcome.events {
                            if let Event::Alarm { row } = ev {
                                alarms[tenant_of(sid)].push(row);
                            }
                        }
                    }
                    Err(_) => errors += 1.0,
                }
            }
            Request::Checkpoint { sid, path } => {
                let Some(session) = sessions.get(sid) else {
                    errors += 1.0;
                    continue;
                };
                match t.span("serve.checkpoint", |_| {
                    session.checkpoint().save(Path::new(path))
                }) {
                    Ok(bytes) => ckpt_bytes += bytes as f64,
                    Err(_) => errors += 1.0,
                }
            }
            _ => {}
        }
    }
    let session_wall = base.elapsed();
    if alarms != want {
        return Err("traced service pass: alarms differ from the reference".to_string());
    }

    // The backends under the sessions, tenant by tenant (rows parsed
    // before the clock starts: parsing is the protocol's work, timed above).
    let parsed: Vec<(Matrix, Vec<Matrix>)> = (0..TENANTS)
        .map(|k| {
            let parse = |i: usize| -> Vec<f64> {
                tenants
                    .row(k, i)
                    .split(',')
                    .map(|v| v.parse::<f64>().expect("generated rows are numeric"))
                    .collect()
            };
            let training = Matrix::from_rows(&(0..TENANT_TRAIN).map(parse).collect::<Vec<_>>());
            let rows = (TENANT_TRAIN..arrivals[k])
                .map(|i| Matrix::from_rows(&[parse(i)]))
                .collect();
            (training, rows)
        })
        .collect();
    let b0 = Instant::now();
    for (k, (training, rows)) in parsed.iter().enumerate() {
        let got = replay_tenant(&mut t, TENANT_METHODS[k], training, rows)?;
        if got != want[k] {
            return Err(format!(
                "traced backend replay of tenant t{k}: alarms differ from the reference"
            ));
        }
    }
    let backend_wall = b0.elapsed();

    let mut m = Metrics::new();
    core_metrics(&t, &mut m);
    for method in ["ewma", "holt-winters", "fourier", "wavelet"] {
        let span = |op: &str| -> String { format!("baselines.{method}.{op}") };
        put(
            &mut m,
            &format!("{}.busy_s", span("score")),
            t.busy_s(&span("score")),
        );
        put(
            &mut m,
            &format!("{}.busy_s", span("observe")),
            t.busy_s(&span("observe")),
        );
        put(
            &mut m,
            &format!("{}.busy_s", span("refit")),
            t.busy_s(&span("refit")),
        );
        put(
            &mut m,
            &format!("{}.max_ms", span("refit")),
            t.max_ms(&span("refit")),
        );
    }
    put(&mut m, "serve.lines", t.counter("serve.lines"));
    put(
        &mut m,
        "serve.parse_line.busy_s",
        t.busy_s("serve.parse_line"),
    );
    put(&mut m, "serve.push.busy_s", t.busy_s("serve.push"));
    put(&mut m, "serve.drain.busy_s", t.busy_s("serve.drain"));
    put(&mut m, "serve.busy_replies", busy);
    put(&mut m, "serve.errors", errors);
    put(
        &mut m,
        "serve.checkpoint.count",
        t.calls("serve.checkpoint") as f64,
    );
    put(
        &mut m,
        "serve.checkpoint.busy_s",
        t.busy_s("serve.checkpoint"),
    );
    put(&mut m, "serve.checkpoint.bytes", ckpt_bytes);
    let wall = (session_wall + backend_wall).as_secs_f64();
    put(&mut m, "trace.coverage", t.self_total_s() / wall);
    put(
        &mut m,
        "trace.overhead",
        session_wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    t.to_jsonl("main", spans);
    Ok(m)
}
