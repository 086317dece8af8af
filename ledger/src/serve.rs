//! The `serve-tenants` workload: ten interleaved tenant sessions on one
//! TCP connection to `netanom serve`.
//!
//! The request sequence is a pure function of the tenant files and the
//! schedule: every tenant's training rows (round-robin across tenants),
//! then streamed rows (tenant `j % 10` gets global obs `j`; a tenant's
//! tail is replayed cyclically once exhausted), with a `checkpoint`
//! after every 1,008th arrival of a tenant. The same sequence drives the
//! in-process reference that every tenant's alarm payloads must match.

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use netanom_baselines::methods::build_streaming;
use netanom_linalg::Matrix;
use netanom_serve::{alarm_csv_row, SessionConfig};
use netanom_topology::RoutingMatrix;

use crate::gen::{TENANTS, TENANT_TRAIN};

/// Method of tenant `k`: two tenants per registered method.
pub const TENANT_METHODS: [&str; TENANTS] = [
    "subspace",
    "subspace",
    "ewma",
    "ewma",
    "holt-winters",
    "holt-winters",
    "fourier",
    "fourier",
    "wavelet",
    "wavelet",
];
/// Refit cadence of every tenant.
pub const REFIT_EVERY: usize = 72;
/// A tenant checkpoints after every this many of its own arrivals.
pub const CHECKPOINT_EVERY: usize = 1008;
/// Streamed obs lines of the closed-loop burst (per daemon).
pub const BURST_OBS: usize = 23_040;

/// The `open` line of tenant `k`.
pub fn open_line(k: usize) -> String {
    let method = TENANT_METHODS[k];
    let refit = if method == "subspace" {
        " refit=incremental"
    } else {
        ""
    };
    format!(
        "open t{k} dim=41 train-bins={TENANT_TRAIN} method={method} refit-every={REFIT_EVERY}{refit}"
    )
}

/// The tenant rows as the CSV text the client sends.
pub struct Tenants {
    rows: Vec<Vec<String>>,
}

impl Tenants {
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut rows = Vec::with_capacity(TENANTS);
        for k in 0..TENANTS {
            let path = dir.join(format!("tenant{k}.csv"));
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let lines: Vec<String> = text
                .lines()
                .skip(1)
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string)
                .collect();
            if lines.len() <= TENANT_TRAIN {
                return Err(format!("{} has too few rows", path.display()));
            }
            rows.push(lines);
        }
        Ok(Tenants { rows })
    }

    /// Row text of tenant `k`'s `i`-th arrival (training rows first, the
    /// tail cyclically after).
    pub fn row(&self, k: usize, i: usize) -> &str {
        let rows = &self.rows[k];
        if i < TENANT_TRAIN {
            &rows[i]
        } else {
            let tail = rows.len() - TENANT_TRAIN;
            &rows[TENANT_TRAIN + (i - TENANT_TRAIN) % tail]
        }
    }
}

/// What a request line is, for the reply bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Open,
    Train,
    /// A streamed obs; the payload is its schedule phase.
    Obs(usize),
    Checkpoint,
    Quit,
}

/// Generates the request sequence (one line at a time) and tracks each
/// tenant's arrivals.
pub struct Sequence<'a> {
    tenants: &'a Tenants,
    ckpt_dir: PathBuf,
    arrivals: [usize; TENANTS],
    streamed: usize,
    pending_checkpoint: Option<usize>,
}

impl<'a> Sequence<'a> {
    pub fn new(tenants: &'a Tenants, ckpt_dir: &Path) -> Self {
        Sequence {
            tenants,
            ckpt_dir: ckpt_dir.to_path_buf(),
            arrivals: [0; TENANTS],
            streamed: 0,
            pending_checkpoint: None,
        }
    }

    /// Arrivals sent so far, per tenant.
    pub fn arrivals(&self) -> &[usize; TENANTS] {
        &self.arrivals
    }

    /// The `open` lines followed by every training obs, round-robin.
    pub fn setup_lines(&mut self) -> Vec<(String, Kind)> {
        let mut out: Vec<(String, Kind)> =
            (0..TENANTS).map(|k| (open_line(k), Kind::Open)).collect();
        for i in 0..TENANT_TRAIN {
            for k in 0..TENANTS {
                out.push(self.obs_line(k, Kind::Train));
                debug_assert_eq!(self.arrivals[k], i + 1);
            }
        }
        out
    }

    fn obs_line(&mut self, k: usize, kind: Kind) -> (String, Kind) {
        let line = format!("obs t{k} {}", self.tenants.row(k, self.arrivals[k]));
        self.arrivals[k] += 1;
        if self.arrivals[k].is_multiple_of(CHECKPOINT_EVERY) {
            self.pending_checkpoint = Some(k);
        }
        (line, kind)
    }

    /// The closed-loop burst: [`BURST_OBS`] streamed obs with the
    /// checkpoints that fall due among them.
    pub fn burst(&mut self, phase: usize) -> Vec<(String, Kind)> {
        let mut out = Vec::with_capacity(BURST_OBS + BURST_OBS / CHECKPOINT_EVERY + 1);
        let mut obs = 0;
        while obs < BURST_OBS {
            let (line, kind) = self.next_streamed(phase);
            obs += usize::from(kind != Kind::Checkpoint);
            out.push((line, kind));
        }
        out
    }

    /// The next streamed request: a due checkpoint, else the next obs.
    pub fn next_streamed(&mut self, phase: usize) -> (String, Kind) {
        if let Some(k) = self.pending_checkpoint.take() {
            let path = self.ckpt_dir.join(format!("t{k}.ckpt"));
            return (
                format!("checkpoint t{k} {}", path.display()),
                Kind::Checkpoint,
            );
        }
        let k = self.streamed % TENANTS;
        self.streamed += 1;
        self.obs_line(k, Kind::Obs(phase))
    }
}

/// One final reply as the reader saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub at: Instant,
    pub ok: bool,
    pub busy: bool,
}

/// A request's kind and due time with the reply it got.
pub type Logged = (Kind, Instant, Reply);

/// Per-request metadata the writer hands the reader (in send order).
#[derive(Debug, Clone, Copy)]
struct Sent {
    kind: Kind,
    due: Instant,
}

/// A connected client: the writer is the calling thread, the reader a
/// thread collecting final replies (matched to requests in order) and
/// alarm/fit events.
pub struct Client {
    writer: BufWriter<TcpStream>,
    meta_tx: mpsc::Sender<Sent>,
    done_rx: mpsc::Receiver<(Sent, Reply)>,
    reader: Option<thread::JoinHandle<Result<Events, String>>>,
    /// Every (request, reply) pair received so far, in order.
    pub log: Vec<Logged>,
    sent: usize,
}

/// Events the reader collected.
#[derive(Debug, Default)]
pub struct Events {
    pub alarms: Vec<Vec<String>>,
    pub fits: usize,
    pub checkpoint_bytes: u64,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (meta_tx, meta_rx) = mpsc::channel::<Sent>();
        let (done_tx, done_rx) = mpsc::channel();
        let reader = thread::spawn(move || read_replies(read_half, meta_rx, done_tx));
        Ok(Client {
            writer: BufWriter::with_capacity(1 << 16, stream),
            meta_tx,
            done_rx,
            reader: Some(reader),
            log: Vec::new(),
            sent: 0,
        })
    }

    /// Queue one request line (call [`Client::flush`] to send).
    pub fn send(&mut self, line: &str, kind: Kind, due: Instant) -> Result<(), String> {
        self.meta_tx
            .send(Sent { kind, due })
            .map_err(|_| "reply reader ended early".to_string())?;
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("sending: {e}"))?;
        self.sent += 1;
        Ok(())
    }

    pub fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("sending: {e}"))
    }

    /// Collect replies that have arrived, waiting until at least
    /// `until` replies are in (or `timeout` passes).
    pub fn collect(&mut self, until: usize, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while let Ok((sent, reply)) = self.done_rx.try_recv() {
            self.log.push((sent.kind, sent.due, reply));
        }
        while self.log.len() < until {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!(
                    "timed out with {} of {until} replies",
                    self.log.len()
                ));
            }
            match self.done_rx.recv_timeout(left) {
                Ok((sent, reply)) => self.log.push((sent.kind, sent.due, reply)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(format!(
                        "connection closed with {} of {until} replies",
                        self.log.len()
                    ))
                }
            }
        }
        Ok(())
    }

    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Send `quit`, wait for every reply and the reader's events.
    pub fn finish(mut self) -> Result<(Vec<Logged>, Events), String> {
        self.send("quit", Kind::Quit, Instant::now())?;
        self.flush()?;
        let total = self.sent;
        self.collect(total, Duration::from_secs(60))?;
        drop(self.meta_tx);
        let events = self
            .reader
            .take()
            .expect("reader joined once")
            .join()
            .map_err(|_| "reply reader panicked".to_string())??;
        Ok((self.log, events))
    }
}

fn read_replies(
    stream: TcpStream,
    meta_rx: mpsc::Receiver<Sent>,
    done_tx: mpsc::Sender<(Sent, Reply)>,
) -> Result<Events, String> {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut events = Events {
        alarms: vec![Vec::new(); TENANTS],
        ..Events::default()
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading replies: {e}"))?;
        if n == 0 {
            return Ok(events);
        }
        let at = Instant::now();
        let text = line.trim_end();
        let (head, rest) = text.split_once(' ').unwrap_or((text, ""));
        match head {
            "ok" | "err" | "busy" => {
                let sent = meta_rx
                    .recv()
                    .map_err(|_| format!("reply without a request: {text:?}"))?;
                if let Some(b) = rest.strip_prefix("checkpoint ") {
                    if let Some(bytes) = b.split("bytes=").nth(1) {
                        events.checkpoint_bytes += bytes.parse::<u64>().unwrap_or(0);
                    }
                }
                let reply = Reply {
                    at,
                    ok: head == "ok",
                    busy: head == "busy",
                };
                let quit = sent.kind == Kind::Quit;
                if done_tx.send((sent, reply)).is_err() || quit {
                    return Ok(events);
                }
            }
            "alarm" => {
                let (sid, payload) = rest.split_once(' ').unwrap_or((rest, ""));
                let k = tenant_index(sid)?;
                events.alarms[k].push(payload.to_string());
            }
            "fit" => events.fits += 1,
            _ => {}
        }
    }
}

fn tenant_index(sid: &str) -> Result<usize, String> {
    sid.strip_prefix('t')
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&k| k < TENANTS)
        .ok_or_else(|| format!("event for unknown session {sid:?}"))
}

/// Seconds since the Unix epoch of an `Instant` (for set-up timing
/// against the spawn time the orchestrator recorded).
pub fn epoch_of(at: Instant) -> f64 {
    let now_i = Instant::now();
    let now_e = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64();
    now_e - now_i.saturating_duration_since(at).as_secs_f64()
}

/// In-process reference: each tenant's alarm payloads from a streaming
/// engine fed the same rows one arrival at a time (as the daemon's
/// auto-drain does).
pub fn reference_alarms(
    tenants: &Tenants,
    arrivals: &[usize; TENANTS],
) -> Result<Vec<Vec<String>>, String> {
    let mut out = Vec::with_capacity(TENANTS);
    for (k, &sent) in arrivals.iter().enumerate() {
        let line = open_line(k);
        let params: Vec<(&str, &str)> = line
            .split_whitespace()
            .skip(2)
            .map(|t| t.split_once('=').expect("key=value"))
            .collect();
        let mut cfg = SessionConfig::from_params(&params).map_err(|e| e.to_line())?;
        cfg.engine.normalize();
        let parse = |i: usize| -> Vec<f64> {
            tenants
                .row(k, i)
                .split(',')
                .map(|v| v.parse::<f64>().expect("generated rows are numeric"))
                .collect()
        };
        let training = Matrix::from_rows(&(0..TENANT_TRAIN).map(parse).collect::<Vec<_>>());
        let rm = identity_routing(cfg.dim);
        let mut engine = build_streaming(&cfg.engine, &training, &rm)?;
        let mut alarms = Vec::new();
        for i in TENANT_TRAIN..sent {
            let row = Matrix::from_rows(&[parse(i)]);
            for rep in engine.process_batch(&row).map_err(|e| e.to_string())? {
                if rep.detected {
                    alarms.push(alarm_csv_row(&rep, TENANT_TRAIN));
                }
            }
        }
        out.push(alarms);
    }
    Ok(out)
}

/// Per-tenant alarm payloads as text, one `<tenant> <payload>` line each.
pub fn alarms_to_text(alarms: &[Vec<String>]) -> String {
    let mut out = String::new();
    for (k, rows) in alarms.iter().enumerate() {
        for row in rows {
            out.push_str(&format!("{k} {row}\n"));
        }
    }
    out
}

/// Inverse of [`alarms_to_text`].
pub fn alarms_from_text(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut alarms = vec![Vec::new(); TENANTS];
    for line in text.lines() {
        let (k, row) = line.split_once(' ').ok_or("malformed reference cache")?;
        let k: usize = k.parse().map_err(|_| "malformed reference cache")?;
        alarms
            .get_mut(k)
            .ok_or("malformed reference cache")?
            .push(row.to_string());
    }
    Ok(alarms)
}

/// One candidate flow per link: the routing served sessions use.
pub fn identity_routing(dim: usize) -> RoutingMatrix {
    let paths: Vec<Vec<usize>> = (0..dim).map(|l| vec![l]).collect();
    RoutingMatrix::from_paths(dim, &paths)
}
