//! Protocol state-machine suite: out-of-order commands answer typed
//! errors without killing the daemon, and the reply grammar is stable.

use netanom_serve::{ErrorCode, Service, Session, SessionCheckpoint, SessionConfig};

/// Drive one line and return the response lines.
fn ask(service: &mut Service, line: &str) -> Vec<String> {
    service.handle_line(line).lines
}

/// The final reply line of a command.
fn reply(service: &mut Service, line: &str) -> String {
    ask(service, line).pop().expect("commands answer one reply")
}

fn row_csv(dim: usize, value: f64) -> String {
    (0..dim)
        .map(|j| format!("{}", value + j as f64))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn out_of_order_commands_answer_typed_errors_and_daemon_survives() {
    let mut service = Service::new();

    // obs before open.
    let r = reply(&mut service, "obs s1 1,2,3");
    assert!(r.starts_with("err no-session "), "{r}");
    // drain / checkpoint / stats / close before open.
    for cmd in [
        "drain s1",
        "checkpoint s1 /tmp/nowhere.bin",
        "restore s1 /tmp/nowhere.bin",
        "stats s1",
        "close s1",
    ] {
        let r = reply(&mut service, cmd);
        assert!(r.starts_with("err no-session "), "{cmd}: {r}");
    }

    // A malformed line and an unknown verb are parse-level errors.
    let r = reply(&mut service, "obs s1 1,zebra");
    assert!(r.starts_with("err parse "), "{r}");
    let r = reply(&mut service, "teleport s1");
    assert!(r.starts_with("err unknown-command "), "{r}");

    // The daemon is still alive and can open a session.
    let r = reply(&mut service, "open s1 dim=3 train-bins=4");
    assert_eq!(r, "ok open s1 phase=training queue=4096");

    // Double open is typed.
    let r = reply(&mut service, "open s1 dim=3 train-bins=4");
    assert!(r.starts_with("err session-exists "), "{r}");

    // Wrong-width rows are typed and do not advance the session.
    let r = reply(&mut service, "obs s1 1,2");
    assert!(r.starts_with("err dim-mismatch "), "{r}");
    let r = reply(&mut service, "stats s1");
    assert_eq!(r, "ok stats sessions=1");

    // Bad open parameters are typed, listing the valid sets.
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 method=kalman");
    assert!(r.starts_with("err bad-config "), "{r}");
    assert!(r.contains("subspace"), "must list valid methods: {r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 refit=sometimes");
    assert!(r.starts_with("err bad-config "), "{r}");
    assert!(r.contains("full|incremental|truncated"), "{r}");
    let r = reply(&mut service, "open s2 dim=0 train-bins=4");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 drain=later");
    assert!(r.starts_with("err bad-config "), "{r}");
    let r = reply(&mut service, "open s2 dim=3 train-bins=4 cadence=7");
    assert!(r.starts_with("err bad-config "), "{r}");

    // Restoring from a file that does not exist is a checkpoint error.
    let r = reply(&mut service, "restore s1 /tmp/netanom-serve-noexist.bin");
    assert!(r.starts_with("err checkpoint "), "{r}");

    // After all of that, the daemon still works end to end (ewma fits
    // on any training rows, unlike the subspace method on a rank-1
    // ramp).
    let r = reply(&mut service, "open ok-sess dim=3 train-bins=4 method=ewma");
    assert!(r.starts_with("ok open ok-sess "), "{r}");
    for t in 0..5 {
        let r = reply(
            &mut service,
            &format!("obs ok-sess {}", row_csv(3, t as f64)),
        );
        assert!(r.starts_with("ok obs ok-sess "), "{r}");
    }
    let r = reply(&mut service, "close s1");
    assert_eq!(r, "ok close s1");
    let r = reply(&mut service, "ping");
    assert_eq!(r, "ok pong");
}

#[test]
fn restore_with_mismatched_dims_or_method_is_typed() {
    let dir = std::env::temp_dir().join("netanom-serve-restore-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("session.bin");
    let cp_arg = cp.to_str().unwrap();

    let mut service = Service::new();
    assert_eq!(
        reply(&mut service, "open a dim=3 train-bins=4"),
        "ok open a phase=training queue=4096"
    );
    for t in 0..2 {
        reply(&mut service, &format!("obs a {}", row_csv(3, t as f64)));
    }
    let r = reply(&mut service, &format!("checkpoint a {cp_arg}"));
    assert!(r.starts_with("ok checkpoint a bytes="), "{r}");

    // A 4-link session cannot adopt a 3-link checkpoint.
    reply(&mut service, "open wide dim=4 train-bins=4");
    let r = reply(&mut service, &format!("restore wide {cp_arg}"));
    assert!(r.starts_with("err dim-mismatch "), "{r}");

    // An ewma session cannot adopt a subspace checkpoint.
    reply(&mut service, "open other dim=3 train-bins=4 method=ewma");
    let r = reply(&mut service, &format!("restore other {cp_arg}"));
    assert!(r.starts_with("err state-mismatch "), "{r}");

    // A truncated checkpoint file is rejected with a checkpoint error.
    let bytes = std::fs::read(&cp).unwrap();
    std::fs::write(&cp, &bytes[..bytes.len() / 2]).unwrap();
    reply(&mut service, "open third dim=3 train-bins=4");
    let r = reply(&mut service, &format!("restore third {cp_arg}"));
    assert!(r.starts_with("err checkpoint "), "{r}");

    // The original session is untouched by the failed restores.
    let r = reply(&mut service, "stats a");
    assert_eq!(r, "ok stats sessions=1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backpressure_is_observable_with_manual_drain() {
    let mut service = Service::new();
    assert_eq!(
        reply(
            &mut service,
            "open q dim=2 train-bins=8 queue=4 drain=manual"
        ),
        "ok open q phase=training queue=4"
    );
    // Four rows fit; the fifth and sixth answer `busy` and are dropped.
    for t in 0..4 {
        let r = reply(&mut service, &format!("obs q {t},{t}"));
        assert_eq!(r, format!("ok obs q queued={} phase=training", t + 1));
    }
    for _ in 0..2 {
        let r = reply(&mut service, "obs q 9,9");
        assert_eq!(r, "busy q queued=4 capacity=4");
    }
    let lines = ask(&mut service, "stats q");
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("queued=4"), "{}", lines[0]);
    assert!(lines[0].contains("drops=2"), "{}", lines[0]);

    // Draining makes room again; a budgeted drain processes only that
    // many rows.
    let r = reply(&mut service, "drain q 3");
    assert_eq!(r, "ok drain q processed=3 queued=1");
    let r = reply(&mut service, "obs q 5,5");
    assert_eq!(r, "ok obs q queued=2 phase=training");
    let r = reply(&mut service, "drain q");
    assert_eq!(r, "ok drain q processed=2 queued=0");
}

#[test]
fn stats_orders_sessions_deterministically() {
    let mut service = Service::new();
    for sid in ["zeta", "alpha", "mid"] {
        reply(&mut service, &format!("open {sid} dim=2 train-bins=4"));
    }
    let lines = ask(&mut service, "stats");
    assert_eq!(lines.len(), 4);
    assert!(lines[0].starts_with("stat alpha "), "{}", lines[0]);
    assert!(lines[1].starts_with("stat mid "), "{}", lines[1]);
    assert!(lines[2].starts_with("stat zeta "), "{}", lines[2]);
    assert_eq!(lines[3], "ok stats sessions=3");
}

#[test]
fn cadence_less_statistics_strategies_downgrade_with_a_note() {
    let mut service = Service::new();
    let lines = ask(&mut service, "open s dim=2 train-bins=4 refit=incremental");
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("note s "), "{}", lines[0]);
    assert!(lines[0].contains("incremental"), "{}", lines[0]);
    assert_eq!(lines[1], "ok open s phase=training queue=4096");
}

/// Feed the mini dataset's rows to one subspace session, splicing the
/// bad row `bad` in front of row `at` when given. Asserts the bad row
/// answers `err bad-row` and that every good row is accepted, then
/// returns the alarm payloads.
fn mini_alarms(bad: Option<(usize, &str)>) -> Vec<String> {
    let ds = netanom_traffic::datasets::mini(1);
    let m = ds.links.num_links();
    let matrix = ds.links.matrix();
    let mut service = Service::new();
    let r = reply(
        &mut service,
        &format!("open s dim={m} train-bins=216 refit=incremental refit-every=24"),
    );
    assert!(r.starts_with("ok open s "), "{r}");
    let mut alarms = Vec::new();
    for i in 0..matrix.rows() {
        if let Some((_, tok)) = bad.filter(|&(at, _)| at == i) {
            let mut row: Vec<String> = matrix.row(i).iter().map(|v| format!("{v}")).collect();
            row[3] = tok.to_string();
            let r = reply(&mut service, &format!("obs s {}", row.join(",")));
            assert!(r.starts_with("err bad-row "), "{tok}: {r}");
            assert!(r.contains("link 3"), "{tok}: {r}");
        }
        let row: Vec<String> = matrix.row(i).iter().map(|v| format!("{v}")).collect();
        let lines = ask(&mut service, &format!("obs s {}", row.join(",")));
        let last = lines.last().unwrap();
        assert!(last.starts_with("ok obs s queued=0 "), "row {i}: {last}");
        alarms.extend(
            lines
                .iter()
                .filter_map(|l| l.strip_prefix("alarm s "))
                .map(String::from),
        );
    }
    let stat = ask(&mut service, "stats s");
    assert!(
        stat[0].contains(&format!("arrivals={} ", matrix.rows())),
        "{}",
        stat[0]
    );
    alarms
}

#[test]
fn non_finite_rows_are_rejected_and_the_session_keeps_going() {
    let clean = mini_alarms(None);
    assert!(!clean.is_empty(), "the mini stream must alarm");
    // Row 5 lands in the training phase, where a queued bad row used to
    // fail the fit and discard the good rows gathered so far; row 250
    // lands in the streaming phase, where it used to stay at the head
    // of the queue and fail every later obs.
    for at in [5, 250] {
        for tok in ["nan", "NaN", "inf", "-inf", "1e400"] {
            assert_eq!(mini_alarms(Some((at, tok))), clean, "{tok} at row {at}");
        }
    }
}

#[test]
fn restore_rejects_non_finite_or_misshapen_checkpoint_rows() {
    let dir = std::env::temp_dir().join("netanom-serve-restore-bad-rows");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("session.bin");
    let cp_arg = cp.to_str().unwrap();

    // Two training rows drained, one row still pending.
    let mut service = Service::new();
    reply(&mut service, "open a dim=3 train-bins=8 drain=manual");
    for t in 0..2 {
        reply(&mut service, &format!("obs a {}", row_csv(3, t as f64)));
    }
    assert_eq!(
        reply(&mut service, "drain a"),
        "ok drain a processed=2 queued=0"
    );
    reply(&mut service, &format!("obs a {}", row_csv(3, 2.0)));
    let r = reply(&mut service, &format!("checkpoint a {cp_arg}"));
    assert!(r.starts_with("ok checkpoint a bytes="), "{r}");
    let good = SessionCheckpoint::from_bytes(&std::fs::read(&cp).unwrap()).unwrap();
    assert_eq!((good.training_rows.len(), good.pending.len()), (2, 1));

    reply(&mut service, "open b dim=3 train-bins=8 drain=manual");
    let before = ask(&mut service, "stats b");
    let mut nan_pending = good.clone();
    nan_pending.pending[0][1] = f64::NAN;
    let mut inf_training = good.clone();
    inf_training.training_rows[1][2] = f64::INFINITY;
    for (bad, msg) in [
        (nan_pending, "pending row 0: measurement for link 1 is NaN"),
        (
            inf_training,
            "training row 1: measurement for link 2 is inf",
        ),
    ] {
        std::fs::write(&cp, bad.to_bytes()).unwrap();
        let r = reply(&mut service, &format!("restore b {cp_arg}"));
        assert!(r.starts_with("err checkpoint "), "{msg}: {r}");
        assert!(r.contains(msg), "{msg}: {r}");
        // The failed restore left session b as it was.
        assert_eq!(ask(&mut service, "stats b"), before, "{msg}");
    }

    // The file layout fixes every row at `dim` values; a checkpoint built
    // in memory can still carry a misshapen row.
    let config = SessionConfig::from_params(&[("dim", "3"), ("train-bins", "8")]).unwrap();
    let mut session = Session::open(config);
    let mut short = good.clone();
    short.pending[0].pop();
    let e = session.restore(short).unwrap_err();
    assert_eq!(e.code, ErrorCode::Checkpoint);
    assert!(
        e.message.contains("pending row 0 has 2 links, expected 3"),
        "{e}"
    );
    let mut long = good.clone();
    long.training_rows[0].push(0.0);
    let e = session.restore(long).unwrap_err();
    assert!(
        e.message.contains("training row 0 has 4 links, expected 3"),
        "{e}"
    );
    assert_eq!((session.arrivals(), session.queued()), (0, 0));

    // The good checkpoint still restores, and its pending row drains.
    std::fs::write(&cp, good.to_bytes()).unwrap();
    let r = reply(&mut service, &format!("restore b {cp_arg}"));
    assert!(r.starts_with("ok restore b "), "{r}");
    assert_eq!(
        reply(&mut service, "drain b"),
        "ok drain b processed=1 queued=0"
    );
    std::fs::remove_dir_all(&dir).ok();
}
