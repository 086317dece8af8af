#!/usr/bin/env python3
"""The netanom ledger: the repository's end-to-end benchmark.

    python3 ledger/run.py --workload replay-m484 --seed 1 --seconds 10 --trace 0

builds the release `netanom` binary and the benchmark's own `ledger`
helper from source, generates (and caches) the seeded inputs, drives the
binary on one workload, checks every output against an in-process
reference, and prints one JSON result object as its last line.
`--trace 1` runs the traced, in-process breakdown instead and reports
the per-layer metrics. `--pin` prints the input digests of the pinned
seeds (the content of `digests.json`). See ledger/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-m484", "serve-tenants", "distributed-m484")
# Inputs whose digests digests.json pins, per input kind.
INPUT_KIND = {
    "replay-m484": "m484",
    "distributed-m484": "m484",
    "serve-tenants": "tenants",
}
INPUT_FILES = {"m484": ["links.csv", "paths.csv"], "tenants": ["tenant%d.csv" % k for k in range(10)]}
PINNED_SEEDS = (7, 2027)  # default seed, held-out seed
M484_TAIL = 1152
ENGINE_FLAGS = ["--train-bins", "1008", "--refit", "truncated", "--refit-every", "144", "--chunk", "36"]
SPAWN_TIMEOUT = 150.0
# Spawns per run at the least: the host drifts on a minute scale, and a
# median of three rides out one slow spawn.
MIN_SPAWNS = 3


def metric_units(section):
    """{name: unit} of a BENCHMARK.json metric section (the one list of
    metric names the runs report)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class Failure(Exception):
    """A correctness-gate, digest or process failure: the run fails."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, **kw):
    return subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build both binaries (a no-op when up to date); exit 2 on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "netanom-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            log("ledger: no Cargo.toml at %s; run from a netanom checkout" % ROOT)
            sys.exit(2)
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            log(r.stderr[-4000:])
            log("ledger: build failed: %s" % " ".join(cmd))
            sys.exit(2)
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "netanom"), os.path.join(rel, "ledger")


def file_digest(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h


# ---------------------------------------------------------------- host


def fingerprint(netanom):
    cpu_model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = sorted(line.split(":", 1)[1].split())
    except OSError:
        pass
    version = subprocess.run([netanom, "--version"], stdout=subprocess.PIPE, text=True).stdout.splitlines()
    tier = next((l.split(":", 1)[1].strip() for l in version if l.startswith("kernel backend")), "unknown")
    try:
        rustc = sh(["rustc", "--version"]).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    try:
        commit = sh(["git", "rev-parse", "HEAD"]).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "third_party", "ledger"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns
            if n.endswith((".rs", ".toml", ".lock", ".py", ".json"))
        )
        for p in files:
            src.update(os.path.relpath(p, ROOT).encode())
            file_digest(p, src)
    return {
        "cpu_model": cpu_model,
        "cpu_flags": flags,
        "cpu_flags_sha256": hashlib.sha256(" ".join(flags).encode()).hexdigest()[:16],
        "kernel_tier": tier,
        "nproc": len(os.sched_getaffinity(0)),
        "rayon_num_threads": os.environ.get("RAYON_NUM_THREADS"),
        "rustc": rustc,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
    }


# -------------------------------------------------------------- inputs


class Inputs:
    """Seeded inputs, generated once per seed and helper build."""

    def __init__(self, ledger):
        self.ledger = ledger
        key = file_digest(ledger).hexdigest()[:16]
        self.cache = os.path.join(ROOT, ".ledger_cache", key)

    def dir(self, kind, seed):
        d = os.path.join(self.cache, "%s-%d" % (kind, seed))
        if not os.path.exists(os.path.join(d, "done")):
            tmp = d + ".tmp%d" % os.getpid()
            cmd = "gen-m484" if kind == "m484" else "gen-tenants"
            subprocess.run([self.ledger, cmd, "--seed", str(seed), "--out", tmp], check=True)
            open(os.path.join(tmp, "done"), "w").close()
            if os.path.exists(d):
                subprocess.run(["rm", "-rf", d], check=True)
            os.rename(tmp, d)
        return d

    def digest(self, kind, seed):
        d = self.dir(kind, seed)
        h = hashlib.sha256()
        for name in INPUT_FILES[kind]:
            h.update(name.encode())
            file_digest(os.path.join(d, name), h)
        return h.hexdigest()

    def check_pins(self, kind):
        with open(os.path.join(HERE, "digests.json")) as f:
            pins = json.load(f)[kind]
        for seed, want in sorted(pins.items()):
            got = self.digest(kind, int(seed))
            if got != want:
                raise Failure("input digest mismatch: %s seed %s generated %s, digests.json pins %s"
                              % (kind, seed, got, want))

    def reference(self, seed):
        """The alarm CSV the m=484 workloads must print, from the
        in-process streaming engine."""
        d = self.dir("m484", seed)
        path = os.path.join(d, "reference.csv")
        if not os.path.exists(path):
            subprocess.run([self.ledger, "reference-m484", "--dir", d, "--out", path + ".tmp"], check=True)
            os.rename(path + ".tmp", path)
        with open(path, "rb") as f:
            return f.read()


# ----------------------------------------------------------- processes


class Proc:
    """A spawned system-under-test process: stderr lines are timestamped
    as they arrive, and the exit is reaped with its resource usage."""

    def __init__(self, cmd, stdout):
        self.cmd = cmd
        self.lines = []
        self.cond = threading.Condition()
        self.start = time.time()
        self.p = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=subprocess.PIPE,
                                  stdin=subprocess.DEVNULL)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.exit_at = None
        self.code = None
        self.rss_mb = None
        self.waiter = threading.Thread(target=self._wait, daemon=True)
        self.waiter.start()

    def _read(self):
        for raw in self.p.stderr:
            with self.cond:
                self.lines.append((time.time(), raw.decode(errors="replace").rstrip("\n")))
                self.cond.notify_all()
        with self.cond:
            self.lines.append((time.time(), None))
            self.cond.notify_all()

    def _wait(self):
        _, status, ru = os.wait4(self.p.pid, 0)
        self.exit_at = time.time()
        self.code = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.code
        self.rss_mb = ru.ru_maxrss / 1024.0

    def wait_line(self, prefix, timeout=SPAWN_TIMEOUT):
        """(time, line) of the first stderr line starting with `prefix`."""
        deadline = time.time() + timeout
        with self.cond:
            while True:
                for at, line in self.lines:
                    if line is None:
                        raise Failure("%s exited before printing %r" % (self.cmd[1], prefix))
                    if line.startswith(prefix):
                        return at, line
                left = deadline - time.time()
                if left <= 0:
                    raise Failure("%s printed no %r within %.0f s" % (self.cmd[1], prefix, timeout))
                self.cond.wait(left)

    def join(self, timeout=SPAWN_TIMEOUT):
        self.waiter.join(timeout)
        if self.waiter.is_alive():
            self.p.kill()
            self.waiter.join()
            raise Failure("%s did not exit within %.0f s" % (self.cmd[1], timeout))
        self.reader.join()
        return self

    def kill(self):
        if self.code is None:
            try:
                self.p.kill()
            except OSError:
                pass
            self.waiter.join()
        self.reader.join()

    def last_line(self, prefix=""):
        for _, line in reversed(self.lines):
            if line and line.startswith(prefix):
                return line
        return ""


def streamed_bins(summary):
    # "<a> alarms in <b> streamed bins; ..."
    parts = summary.split()
    return int(parts[3]) if len(parts) > 4 and parts[1] == "alarms" else -1


def run_stream(netanom, d, out_path):
    with open(out_path, "wb") as out:
        proc = Proc([netanom, "stream", "--links", os.path.join(d, "links.csv"),
                     "--paths", os.path.join(d, "paths.csv")] + ENGINE_FLAGS, out)
        try:
            ready, _ = proc.wait_line("# trained")
            proc.join()
        finally:
            proc.kill()
    bins = streamed_bins(proc.last_line())
    return {
        "setup_s": ready - proc.start,
        "wall_s": proc.exit_at - proc.start,
        "bins": bins,
        "bins_per_s": bins / (proc.exit_at - ready),
        "peak_rss_mb": proc.rss_mb,
        "failed": int(proc.code != 0) + int(bins != M484_TAIL),
        "ops": 1,
    }


def run_distributed(netanom, d, out_path):
    links = os.path.join(d, "links.csv")
    procs = []
    with open(out_path, "wb") as out:
        tracker = Proc([netanom, "tracker", "--listen", "127.0.0.1:0", "--links", links,
                        "--paths", os.path.join(d, "paths.csv"), "--workers", "2"] + ENGINE_FLAGS, out)
        procs.append(tracker)
        try:
            _, listening = tracker.wait_line("# listening on ")
            addr = listening.split()[-1]
            for shard in (0, 1):
                procs.append(Proc([netanom, "worker", "--connect", addr, "--links", links, "--train-bins", "1008",
                                   "--workers", "2", "--shard", str(shard)], subprocess.DEVNULL))
            ready, _ = tracker.wait_line("# trained")
            for p in procs:
                p.join()
        finally:
            for p in procs:
                p.kill()
    summary = tracker.last_line()
    bins = streamed_bins(summary)
    rejoins = 0
    for p in procs:
        line = p.last_line("# worker") if p is not tracker else summary
        for part in line.split(";"):
            words = part.split()
            if words and words[-1] == "rejoins":
                rejoins += int(words[0])
    exit_at = max(p.exit_at for p in procs)
    return {
        "setup_s": ready - tracker.start,
        "wall_s": exit_at - tracker.start,
        "bins": bins,
        "bins_per_s": bins / (exit_at - ready),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "failed": sum(int(p.code != 0) for p in procs) + rejoins + int(bins != M484_TAIL),
        "ops": len(procs),
    }


def run_serve(netanom, ledger, tenants_dir, ckpt_dir, seconds, mode):
    daemon = Proc([netanom, "serve", "--listen", "127.0.0.1:0"], subprocess.DEVNULL)
    try:
        _, listening = daemon.wait_line("# listening on ")
        client = subprocess.run([ledger, "serve-load", "--addr", listening.split()[-1], "--tenants", tenants_dir,
                                 "--ckpt-dir", ckpt_dir, "--mode", mode, "--seconds", str(seconds),
                                 "--reference-cache", os.path.join(tenants_dir, "reference-%s.txt" % mode)],
                                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                timeout=SPAWN_TIMEOUT)
        if client.returncode != 0:
            raise Failure("serve-tenants: %s" % client.stderr.strip())
        daemon.join()
    finally:
        daemon.kill()
    rep = json.loads(client.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready_epoch"] - daemon.start
    rep["wall_s"] = daemon.exit_at - daemon.start
    rep["peak_rss_mb"] = daemon.rss_mb
    rep["failed"] = int(daemon.code != 0) + int(rep["refused"])
    rep["ops"] = int(rep["requests"])
    if "burst_s" in rep:
        rep["bins_per_s"] = rep["burst_obs"] / rep["burst_s"]
    return rep


# ----------------------------------------------------------- workloads


def untraced(args, netanom, ledger, inputs):
    """Spawn the system under test until `--seconds` of measurement (and
    at least MIN_SPAWNS spawns) are done; every spawn's output is checked."""
    w = args.workload
    scratch = os.path.join(ROOT, ".ledger_cache", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    samples = []
    try:
        if w == "serve-tenants":
            tdir = inputs.dir("tenants", args.seed)
            one = lambda: run_serve(netanom, ledger, tdir, scratch, args.seconds, "burst")
        else:
            d = inputs.dir("m484", args.seed)
            want = inputs.reference(args.seed)
            out_path = os.path.join(scratch, "alarms.csv")
            runner = run_stream if w == "replay-m484" else run_distributed

            def one():
                s = runner(netanom, d, out_path)
                with open(out_path, "rb") as f:
                    got = f.read()
                if got != want:
                    raise Failure("%s seed %d: alarm output differs from the in-process reference "
                                  "(%d vs %d bytes)" % (w, args.seed, len(got), len(want)))
                return s

        t0 = time.time()
        while len(samples) < MIN_SPAWNS or time.time() - t0 < args.seconds:
            samples.append(one())
    finally:
        subprocess.run(["rm", "-rf", scratch])
    metrics = {name: statistics.median(s[name] for s in samples) for name in metric_units("end_to_end")}
    if w == "serve-tenants":
        # A serve session lasts about a second, and the host's speed
        # wanders on that scale, so the run pools its sessions instead of
        # taking medians: every burst's obs over every burst's time, and
        # the mean session wall.
        metrics["bins_per_s"] = sum(s["burst_obs"] for s in samples) / sum(s["burst_s"] for s in samples)
        metrics["wall_s"] = statistics.mean(s["wall_s"] for s in samples)
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return metrics, attempted, failed, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), help="`all` runs the three in turn")
    ap.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="print the pinned-seed input digests and exit")
    args = ap.parse_args()
    if not args.pin and not args.workload:
        ap.error("--workload is required")

    netanom, ledger = build()
    inputs = Inputs(ledger)
    if args.pin:
        print(json.dumps({kind: {str(s): inputs.digest(kind, s) for s in PINNED_SEEDS}
                          for kind in INPUT_FILES}, indent=2))
        return 0

    host = fingerprint(netanom)
    status = 0
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        one = argparse.Namespace(**dict(vars(args), workload=w))
        status |= run_workload(one, netanom, ledger, inputs, host)
    return status


def run_workload(args, netanom, ledger, inputs, host):
    """Run one workload, write its record and print its result; returns
    the exit status (1 on any failure)."""
    correct, error = True, None
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics, attempted, failed, samples = {}, 1, 0, []
    try:
        inputs.check_pins(INPUT_KIND[args.workload])
        run = traced if args.trace else untraced
        metrics, attempted, failed, samples = run(args, netanom, ledger, inputs)
    except (Failure, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        correct, error = False, str(e)
        failed = max(failed, 1)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host, "correct": correct, "error": error, "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": samples, "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    runs = os.path.join(ROOT, ".ledger_runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace,
                                                                  int(time.time() * 1000))), "w") as f:
        json.dump(record, f, indent=1)

    print("%s seed %d: %s | %s | nproc=%d | RAYON_NUM_THREADS=%s | %s | commit=%s src=%s"
          % (args.workload, args.seed, host["cpu_model"], host["kernel_tier"], host["nproc"],
             host["rayon_num_threads"], host["rustc"], host["commit"], host["source_sha256"]))
    if error:
        print("FAILED: %s" % error)
    for name in sorted(metrics):
        print("%-32s %14.6g %s" % (name, metrics[name], units[name]))
    print("%-32s %14.6g ratio (%d of %d operations)" % ("failed_frac", failed / max(attempted, 1), failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in sorted(metrics)},
    }))
    return 0 if correct and failed == 0 else 1


def traced(args, netanom, ledger, inputs):
    """The traced run: `ledger trace` re-runs the workload in process with
    spans around each layer's calls (after an untraced in-process run of
    the same work); serve-tenants first drives the daemon open loop for
    the latency metrics. Metrics a workload has no work for read 0."""
    w = args.workload
    runs = os.path.join(ROOT, ".ledger_runs")
    os.makedirs(runs, exist_ok=True)
    spans = os.path.join(runs, "spans-%s-seed%d-%d.jsonl" % (w, args.seed, int(time.time() * 1000)))
    scratch = os.path.join(ROOT, ".ledger_cache", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    names = metric_units("per_layer")
    metrics = {name: 0.0 for name in names}
    samples = []
    try:
        if w == "serve-tenants":
            d = inputs.dir("tenants", args.seed)
            rep = run_serve(netanom, ledger, d, scratch, args.seconds, "openloop")
            samples.append(rep)
            for name in ("obs_p50_ms.r1k", "obs_p99_ms.r1k", "obs_p50_ms.r5k", "obs_p99_ms.r5k", "max_obs_per_s"):
                metrics[name] = rep[name]
            metrics["serve.gen_late_ms"] = rep["gen_late_ms"]
            cmd = ["--dir", d, "--ckpt-dir", scratch]
        else:
            d = inputs.dir("m484", args.seed)
            inputs.reference(args.seed)
            cmd = ["--dir", d, "--reference", os.path.join(d, "reference.csv")]
        r = subprocess.run([ledger, "trace", "--workload", w, "--spans", spans] + cmd, cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=SPAWN_TIMEOUT)
        if r.returncode != 0:
            raise Failure("traced %s: %s" % (w, r.stderr.strip()))
        measured = json.loads(r.stdout.strip().splitlines()[-1])
        unknown = set(measured) - set(names)
        if unknown:
            raise Failure("traced run reported unlisted metrics: %s" % sorted(unknown))
        metrics.update(measured)
    finally:
        subprocess.run(["rm", "-rf", scratch])
    failed = sum(int(s.get("failed", 0)) for s in samples)
    attempted = 1 + sum(int(s.get("ops", 0)) for s in samples)
    return metrics, attempted, failed, samples


if __name__ == "__main__":
    sys.exit(main())
