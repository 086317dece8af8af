//! The `serve-tenants` client: set-up, a closed-loop burst, and the
//! open-loop schedule (fixed rates plus the rate ladder).

use std::fs;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::TENANTS;
use crate::serve::{self, Client, Kind, Sequence, Tenants, BURST_OBS};

/// Offered rates of the ladder (obs/s), tried in order until one fails.
const LADDER: [f64; 9] = [
    7_500.0, 10_000.0, 12_500.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0, 40_000.0, 50_000.0,
];
/// Latency limit of the rate ladder.
const LADDER_P99_MS: f64 = 50.0;
/// Phase ids of the open-loop schedule (`Kind::Obs(phase)`).
const PHASE_R1K: usize = 1;
const PHASE_R5K: usize = 2;
const PHASE_BURST: usize = 3;
const PHASE_LADDER: usize = 10;

/// What one client run measured; printed as one JSON object.
#[derive(Default)]
struct Report {
    fields: Vec<(String, f64)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.fields.push((name.to_string(), value));
    }

    fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Send every `open` and training line at once and wait for the replies;
/// returns when every tenant has fitted.
fn setup(client: &mut Client, seq: &mut Sequence) -> Result<Instant, String> {
    let now = Instant::now();
    for (line, kind) in seq.setup_lines() {
        client.send(&line, kind, now)?;
    }
    client.flush()?;
    let n = client.sent();
    client.collect(n, Duration::from_secs(60))?;
    if let Some((kind, _, _)) = client.log.iter().find(|(_, _, r)| !r.ok) {
        return Err(format!("set-up request {kind:?} was refused"));
    }
    Ok(client.log[n - 1].2.at)
}

/// Send `count` streamed obs due at `rate` per second from `start`;
/// returns each line's lateness behind its due time (ms).
fn paced(
    client: &mut Client,
    seq: &mut Sequence,
    phase: usize,
    rate: f64,
    count: usize,
    start: Instant,
) -> Result<Vec<f64>, String> {
    let mut late = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            client.flush()?;
            thread::sleep(due - now);
        }
        loop {
            let (line, kind) = seq.next_streamed(phase);
            let sent_at = Instant::now();
            client.send(&line, kind, due)?;
            if kind != Kind::Checkpoint {
                late.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
                break;
            }
        }
    }
    client.flush()?;
    Ok(late)
}

/// Latencies (ms, due → reply) of the logged obs of `phase`, in send
/// order, plus the count of non-`ok` replies among them.
fn latencies(client: &Client, phase: usize) -> (Vec<f64>, usize, usize) {
    let mut lat = Vec::new();
    let (mut refused, mut busy) = (0, 0);
    for (kind, due, reply) in &client.log {
        if *kind == Kind::Obs(phase) {
            lat.push(reply.at.saturating_duration_since(*due).as_secs_f64() * 1e3);
            refused += usize::from(!reply.ok);
            busy += usize::from(reply.busy);
        }
    }
    (lat, refused, busy)
}

/// Run one client session against the daemon at `addr`.
///
/// * `burst`: set-up, then [`BURST_OBS`] streamed lines as fast as the
///   connection takes them (closed loop: the daemon's throughput).
/// * `openloop`: set-up, then 1,000 and 5,000 obs/s phases and the rate
///   ladder, all timed from each line's due time.
///
/// Every tenant's alarm payloads are checked against the in-process
/// reference before the report is printed.
pub fn run(
    addr: &str,
    tenants_dir: &Path,
    ckpt_dir: &Path,
    reference_cache: Option<&Path>,
    mode: &str,
    seconds: f64,
) -> Result<String, String> {
    let tenants = Tenants::load(tenants_dir)?;
    let mut seq = Sequence::new(&tenants, ckpt_dir);
    let mut client = Client::connect(addr)?;
    let mut report = Report::default();
    report.put(
        "ready_epoch",
        serve::epoch_of(setup(&mut client, &mut seq)?),
    );
    let mut late = Vec::new();
    match mode {
        "burst" => {
            let lines = seq.burst(PHASE_BURST);
            let start = Instant::now();
            for (line, kind) in &lines {
                client.send(line, *kind, start)?;
            }
            client.flush()?;
            let n = client.sent();
            client.collect(n, Duration::from_secs(120))?;
            let secs = client.log[n - 1].2.at.duration_since(start).as_secs_f64();
            report.put("burst_obs", BURST_OBS as f64);
            report.put("burst_s", secs);
        }
        "openloop" => {
            let r1k = (seconds * 0.25).max(1.0);
            let r5k = (seconds * 0.2).max(1.0);
            for (phase, rate, secs, name) in [
                (PHASE_R1K, 1000.0, r1k, "r1k"),
                (PHASE_R5K, 5000.0, r5k, "r5k"),
            ] {
                late.extend(paced(
                    &mut client,
                    &mut seq,
                    phase,
                    rate,
                    (rate * secs) as usize,
                    Instant::now(),
                )?);
                let n = client.sent();
                client.collect(n, Duration::from_secs(60))?;
                let (lat, _, _) = latencies(&client, phase);
                report.put(&format!("obs_p50_ms.{name}"), percentile(&lat, 50.0));
                report.put(&format!("obs_p99_ms.{name}"), percentile(&lat, 99.0));
                report.put(&format!("obs_n.{name}"), lat.len() as f64);
            }
            // The ladder: one second per rate, stopping at the first
            // rate that misses the p99 limit, draws a busy reply or
            // builds a backlog (latency rising across the step).
            let ladder_budget = (seconds - r1k - r5k).max(1.0);
            let ladder_start = Instant::now();
            let mut max_rate = 0.0;
            for (step, &rate) in LADDER.iter().enumerate() {
                if step > 0 && ladder_start.elapsed().as_secs_f64() + 1.0 > ladder_budget {
                    break;
                }
                let phase = PHASE_LADDER + step;
                late.extend(paced(
                    &mut client,
                    &mut seq,
                    phase,
                    rate,
                    rate as usize,
                    Instant::now(),
                )?);
                let n = client.sent();
                client.collect(n, Duration::from_secs(60))?;
                let (lat, refused, busy) = latencies(&client, phase);
                let tenth = (lat.len() / 10).max(1);
                let head = percentile(&lat[..tenth], 50.0);
                let tail = percentile(&lat[lat.len() - tenth..], 50.0);
                let p99 = percentile(&lat, 99.0);
                let growing = tail > 2.0 * head + 5.0;
                report.put(&format!("ladder.{}.p99_ms", rate as u64), p99);
                if p99 > LADDER_P99_MS || refused > 0 || busy > 0 || growing {
                    break;
                }
                max_rate = rate;
            }
            report.put("max_obs_per_s", max_rate);
        }
        other => return Err(format!("unknown mode {other:?}; must be burst|openloop")),
    }

    let arrivals = *seq.arrivals();
    let (log, events) = client.finish()?;
    let refused = log.iter().filter(|(_, _, r)| !r.ok).count();
    let busy = log.iter().filter(|(_, _, r)| r.busy).count();
    let checkpoints = log
        .iter()
        .filter(|(k, _, _)| *k == Kind::Checkpoint)
        .count();
    if events.fits != TENANTS {
        return Err(format!(
            "{} of {TENANTS} tenants reported a fit",
            events.fits
        ));
    }
    let want = match reference_cache {
        // Burst sessions send the same sequence every time: compute the
        // reference once per input set.
        Some(path) if mode == "burst" => match fs::read_to_string(path) {
            Ok(text) => serve::alarms_from_text(&text)?,
            Err(_) => {
                let want = serve::reference_alarms(&tenants, &arrivals)?;
                // Written aside and renamed, so a killed run cannot leave
                // a truncated reference behind.
                let tmp = path.with_extension("tmp");
                fs::write(&tmp, serve::alarms_to_text(&want))
                    .and_then(|_| fs::rename(&tmp, path))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                want
            }
        },
        _ => serve::reference_alarms(&tenants, &arrivals)?,
    };
    for (k, (got, want)) in events.alarms.iter().zip(&want).enumerate() {
        if got != want {
            let first = got.iter().zip(want).find(|(a, b)| a != b);
            return Err(format!(
                "tenant t{k}: {} alarms from the daemon, {} from the in-process replay; first difference {first:?}",
                got.len(),
                want.len(),
            ));
        }
    }
    report.put("requests", log.len() as f64);
    report.put("refused", refused as f64);
    report.put("busy", busy as f64);
    report.put("checkpoints", checkpoints as f64);
    report.put("checkpoint_bytes", events.checkpoint_bytes as f64);
    report.put(
        "alarms",
        events.alarms.iter().map(Vec::len).sum::<usize>() as f64,
    );
    report.put("gen_late_ms", percentile(&late, 99.0));
    Ok(report.to_json())
}
