#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the deobfuscator (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from anywhere; paths are resolved from this file.  The benchmark builds
the CLI and its helper (perfbench/pbtool) with dune, generates its inputs
from the seed, measures, checks the outputs and prints one JSON object as
the last line of standard output.  Scratch files go to perfbench/_work.

--trace 0 runs the shipped CLI as child processes and reports the
end-to-end metrics; --trace 1 is the separate traced run that reports the
per-layer metrics.  --check runs every workload twice on one seed, prints
every end-to-end metric by name and unit, and fails if the outputs or the
deterministic metrics differ between the two runs.  --smoke runs all four
workloads with tiny inputs in both modes and checks that every metric is
present with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CLI = os.path.join(ROOT, "_build", "default", "bin", "invoke_deobfuscation.exe")
# The helpers build only under the `perfbench` profile, into a build
# directory of their own (pbtool/dune says why).
TOOL_BUILD = os.path.join(WORK, "_build")
TOOL = os.path.join(TOOL_BUILD, "default", "perfbench", "pbtool", "pbtool.exe")
REFPROBE = os.path.join(TOOL_BUILD, "default", "perfbench", "refprobe", "refprobe.exe")

# Workloads.  `count` scripts are generated from the seed (plus
# `seed_offset`); batch runs feed them to `deobfuscate --batch --jobs 1` in
# chunks of `chunk` files, one fresh process per chunk (one timed section).
# The serve workload draws `rate` requests per second, with replacement,
# from its corpus.  `slo_ms` is the latency limit of its slo_share.  Quality
# is scored on every `quality_every`-th script (Keyinfo on hard outputs is
# slow).
WORKLOADS = {
    "wild-batch": dict(kind="wild", count=2000, chunk=50, seed_offset=0),
    "hard-batch": dict(kind="hard", count=2000, chunk=20, seed_offset=0, quality_every=4),
    "dynamic-batch": dict(kind="dynamic", count=3000, chunk=150, seed_offset=0),
    "wild-serve": dict(kind="wild", count=300, seed_offset=1000, rate=120.0,
                       window_s=1.0, slo_ms=20.0),
}

END_TO_END = {
    "setup_s": "s",
    "scripts_per_s": "1/s",
    "alloc_kw_per_script": "kw/script",
    "peak_heap_mb": "MB",
    "completed_share": "share",
    "verify_equivalent_share": "share",
    "oracle_match_share": "share",
    "keyinfo_recall": "share",
    "residual_score": "score",
}

# Measured and printed with the end-to-end metrics, but not declared in
# BENCHMARK.json: the latencies spread over seeds, on the 2-core VM of
# NOTES.md, beyond the largest bound (0.25) a declared metric may have, and
# slo_share belongs to the serve workload, which is not declared either.
UNDECLARED = {"latency_p50_ms": "ms", "latency_p99_ms": "ms", "slo_share": "share"}
SERVE_ONLY = {"slo_share"}


def undeclared(wl):
    return {k: u for k, u in UNDECLARED.items() if "rate" in wl or k not in SERVE_ONLY}

# Metrics that depend only on the inputs and the code: two runs of the same
# code on the same seed must report them identically.  Batch allocation must
# agree within ALLOC_TOLERANCE: the runtime's clock reads allocate a few
# words.  (Serve allocation and serve completion depend on timing.)
QUALITY = ["verify_equivalent_share", "oracle_match_share", "keyinfo_recall",
           "residual_score"]
ALLOC_TOLERANCE = 1e-4

SETUP_SPAWNS = 21   # batch: one-line script runs per run (median reported)
SERVE_SPAWNS = 11   # serve: daemon start-ups per run (median reported)
QUALITY_SHARDS = 2  # quality scoring processes (outside every timing)

# Machine-speed reference (perfbench/refprobe, NOTES.md): one run before a
# timed section whenever REF_EVERY_S have passed since the last.  Timings
# are reported at reference speed: each is divided by
# (m / REF_NOMINAL_MS) ** REF_ELASTICITY, m the median of the REF_WINDOW
# reference runs around it.  The CLI's times move about 0.7 as much (in log
# terms) as the reference's on the 2-core VM of NOTES.md.
REF_NOMINAL_MS = 50.0
REF_WINDOW = 7
REF_ELASTICITY = 0.7
REF_EVERY_S = 0.25


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- statistics

def _betacf(a, b, x):
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 2000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            break
    return h


def _betai(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lbt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
           + a * math.log(x) + b * math.log(1.0 - x))
    bt = math.exp(lbt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics.  The CLI reports per-file times to 0.1 ms, so a plain
    order statistic would read the same value run after run."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise BenchError("quantile of no samples")
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    sd = math.sqrt(p * (1.0 - p) / (n + 2))
    lo = max(0, int((p - 12 * sd) * n) - 1)
    hi = min(n, int((p + 12 * sd) * n) + 2)
    total = weight = 0.0
    prev = _betai(a, b, lo / n)
    for i in range(lo, hi):
        cur = _betai(a, b, (i + 1) / n)
        total += (cur - prev) * xs[i]
        weight += cur - prev
        prev = cur
    return total / weight


# ---------------------------------------------------------------- helpers

def run_polled(cmd, timeout=170, **kw):
    """Run cmd to completion; seconds from spawn to exit, and exit code.
    The parent polls instead of sleeping in wait(): on this kind of VM a
    sleeping waiter can be woken a scheduler tick (about 4 ms) late."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, **kw)
    while True:
        pid, status = os.waitpid(p.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - t0 > timeout:
            p.kill()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode


class Reference:
    """The machine-speed reference: perfbench/refprobe, a fixed program
    that uses nothing from this repository, timed from spawn to exit
    between the sections of a run."""

    def __init__(self):
        self.samples = []
        self.last = None

    def due(self):
        """Index of a recent measurement, measuring first when REF_EVERY_S
        have passed since the last one."""
        if self.last is None or time.perf_counter() - self.last >= REF_EVERY_S:
            self.measure()
        return len(self.samples) - 1

    def measure(self):
        wall, code = run_polled([REFPROBE], stdout=subprocess.DEVNULL)
        if code != 0:
            raise BenchError("reference probe failed with exit %d" % code)
        self.samples.append(wall * 1000.0)
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def slowness(self, i):
        """Machine slowness around measurement i: > 1 when the machine runs
        the reference slower than nominal."""
        lo = max(0, i - REF_WINDOW // 2)
        m = statistics.median(self.samples[lo:lo + REF_WINDOW])
        return (m / REF_NOMINAL_MS) ** REF_ELASTICITY



def gc_stats(text):
    """GC counters the OCaml runtime prints at exit under OCAMLRUNPARAM=v=0x400,
    with `words`: every word the process allocated, minor plus major minus
    promoted, so that blocks too large for the minor heap count too."""
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        key = key.strip()
        if key in ("minor_words", "promoted_words", "major_words", "top_heap_words"):
            try:
                out[key] = float(val.strip())
            except ValueError:
                pass
    if all(k in out for k in ("minor_words", "promoted_words", "major_words")):
        out["words"] = out["minor_words"] + out["major_words"] - out["promoted_words"]
    return out


def interquartile_mean(values):
    """Mean of the middle half: robust to the rare chunk that holds a script
    far heavier than the rest (NOTES.md, "Corpus size and heavy scripts")."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def child_env():
    env = dict(os.environ)
    env["OCAMLRUNPARAM"] = "v=0x400"
    env.pop("INVOKE_DEOBF_CHAOS", None)
    return env


def run_tool(args, timeout=170):
    p = subprocess.run([TOOL] + args, capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        raise BenchError("pbtool %s failed (%d): %s" % (args[0], p.returncode, p.stderr.strip()))
    return p.stdout


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def code_digest():
    """Digest of everything that decides outputs: the sources and this
    benchmark.  Keys the cross-run determinism record."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        base = os.path.join(ROOT, top)
        if os.path.isfile(base):
            h.update(top.encode())
            h.update(open(base, "rb").read())
            continue
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(open(path, "rb").read())
    return h.hexdigest()


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("perfbench: %s not found next to perfbench/; run from a full "
                "checkout of the repository" % need)
            sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune is not on PATH")
        sys.exit(2)
    os.makedirs(WORK, exist_ok=True)
    for cmd in (["dune", "build", "--root", ROOT, "bin/invoke_deobfuscation.exe"],
                ["dune", "build", "--root", ROOT, "--profile", "perfbench",
                 "--build-dir", TOOL_BUILD,
                 "perfbench/pbtool/pbtool.exe", "perfbench/refprobe/refprobe.exe"]):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=440)
        if p.returncode != 0:
            log("perfbench: build failed\n" + p.stderr[-4000:])
            sys.exit(3)
    if not all(os.path.exists(x) for x in (CLI, TOOL, REFPROBE)):
        log("perfbench: build produced no executables")
        sys.exit(3)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def generate(wl, seed, count, dest):
    run_tool(["gen", "--kind", wl["kind"], "--seed", str(seed + wl["seed_offset"]),
              "--count", str(count), "--dir", dest])
    return sorted(f for f in os.listdir(os.path.join(dest, "orig")) if f.endswith(".ps1"))


def quality(corpus, out_dir, every=1):
    """Score the outputs of every `every`-th script against the clean
    templates, in QUALITY_SHARDS processes, outside every timed section."""
    procs = [subprocess.Popen([TOOL, "quality", "--dir", corpus, "--out", out_dir,
                               "--every", str(every),
                               "--shard", "%d/%d" % (i, QUALITY_SHARDS)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for i in range(QUALITY_SHARDS)]
    parts = []
    try:
        for p in procs:
            out, err = p.communicate(timeout=120)
            if p.returncode != 0:
                raise BenchError("oracle could not run: " + err.strip())
            parts.append(json.loads(out))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    q = {k: sum(p[k] for p in parts) for k in parts[0] if k != "oracle_misses"}
    q["oracle_misses"] = sorted(m for p in parts for m in p["oracle_misses"])
    if q["template_errors"]:
        raise BenchError("oracle could not run on %d clean templates" % q["template_errors"])
    return q


def quality_metrics(q):
    n = max(1, q["scripts"])
    return {
        "oracle_match_share": q["oracle_match"] / n,
        "keyinfo_recall": q["keyinfo_found"] / max(1, q["keyinfo_total"]),
        "residual_score": q["residual_sum"] / n,
    }


def digest_outputs(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(open(os.path.join(out_dir, name), "rb").read())
    return h.hexdigest()


# ------------------------------------------------------------------ batch

def timed_batch(in_dir, out_dir, extra=()):
    """One timed section: a fresh CLI process over one chunk directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [CLI, "deobfuscate", "--batch", in_dir, "-o", out_dir, "--jobs", "1"] + list(extra)
    err_path = out_dir + ".err"
    with open(err_path, "wb") as err:
        wall, code = run_polled(cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
    with open(err_path, errors="replace") as f:
        gc = gc_stats(f.read())
    # exit 2 means "some file degraded or diverged", reported per file
    if code not in (0, 2):
        return wall, None, gc
    with open(os.path.join(out_dir, "batch_report.json")) as f:
        report = json.load(f)
    return wall, report, gc


def setup_batch_once(setup_script):
    """Spawn to exit of the CLI on a one-line script."""
    wall, code = run_polled([CLI, "deobfuscate", setup_script],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if code != 0:
        raise BenchError("set-up run failed with exit %d" % code)
    return wall


def clean_outcome(o):
    return (o.get("status") == "ok" and o.get("degraded_mode") == "full"
            and o.get("retries", 0) == 0 and not o.get("failures"))


def make_chunks(run_dir, corpus, names, chunk):
    chunks = []
    for i in range(0, len(names), chunk):
        d = os.path.join(run_dir, "in", "c%03d" % (i // chunk))
        os.makedirs(d)
        for name in names[i:i + chunk]:
            src = os.path.join(corpus, "orig", name)
            try:
                os.link(src, os.path.join(d, name))
            except OSError:
                shutil.copyfile(src, os.path.join(d, name))
        chunks.append((d, names[i:i + chunk]))
    return chunks


def batch_run(wl, seed, seconds, count, run_dir):
    corpus = os.path.join(run_dir, "corpus")
    names = generate(wl, seed, count, corpus)
    chunks = make_chunks(run_dir, corpus, names, wl["chunk"])
    first_out = os.path.join(run_dir, "first")
    os.makedirs(first_out)
    setup_script = os.path.join(run_dir, "setup.ps1")
    with open(setup_script, "w") as f:
        f.write("Write-Host 'ready'\n")

    sections = []       # (chunk index, cycle, wall s, reference index, files)
    per_file = {}       # name -> [(wall_ms, reference index)], one per section
    setups = []
    first_gc = {}       # chunk -> words allocated by its first section
    heaps = []
    outputs = {}        # name -> output digest of the first section
    attempted = failed = 0
    first_outcome = {}  # name -> outcome of its first section
    mismatched = []
    k = 0
    ref = Reference()
    start = time.perf_counter()
    while k < len(chunks) or time.perf_counter() - start < seconds:
        ci = k % len(chunks)
        in_dir, chunk_names = chunks[ci]
        if len(setups) < SETUP_SPAWNS:
            setups.append((setup_batch_once(setup_script), len(ref.samples)))
        r = ref.due()
        out_dir = os.path.join(run_dir, "out")
        wall, report, gc = timed_batch(in_dir, out_dir)
        attempted += len(chunk_names)
        k += 1
        if report is None:
            failed += len(chunk_names)
            continue
        sections.append((ci, k // len(chunks), wall, r, len(chunk_names)))
        if "top_heap_words" in gc:
            heaps.append(gc["top_heap_words"] * 8 / 2 ** 20)
        if ci not in first_gc and "words" in gc:
            first_gc[ci] = gc["words"]
        seen = set()
        for o in report["outcomes"]:
            name = os.path.basename(o["file"])
            seen.add(name)
            per_file.setdefault(name, []).append((o["wall_ms"], r))
            first_outcome.setdefault(name, o)
        for name in chunk_names:
            path = os.path.join(out_dir, name)
            if name not in seen or not os.path.exists(path):
                failed += 1
                continue
            d = sha256_file(path)
            if name not in outputs:
                outputs[name] = d
                shutil.copyfile(path, os.path.join(first_out, name))
            elif outputs[name] != d:
                mismatched.append(name)
    ref.measure()
    # completed_share and verify_equivalent_share over the first pass only,
    # so they do not depend on how many passes fitted in the run
    if len(first_outcome) != len(names):
        raise BenchError("%d scripts never answered" % (len(names) - len(first_outcome)))
    firsts = first_outcome.values()
    q = quality(corpus, first_out, wl.get("quality_every", 1))
    # Times at reference speed; then each chunk and each file counts with
    # the median of its repetitions, so a stretch of the machine that the
    # reference misses, over less than half of a run, does not move them.
    # Throughput and allocation are interquartile means over the chunks: a
    # script far heavier than the rest, which a few seeds' corpora hold,
    # moves one chunk, not the figure.  Totals over all chunks stay in the
    # detail file.
    reps = {}
    for ci, _, wall, r, _ in sections:
        reps.setdefault(ci, []).append(wall / ref.slowness(r))
    chunk_wall = {ci: statistics.median(v) for ci, v in reps.items()}
    chunk_files = {ci: len(chunks[ci][1]) for ci in reps}
    file_ms = {n: statistics.median(ms / ref.slowness(r) for ms, r in v)
               for n, v in per_file.items()}
    m = {
        "setup_s": statistics.median(s / ref.slowness(r) for s, r in setups),
        "scripts_per_s": interquartile_mean(chunk_files[c] / w for c, w in chunk_wall.items()),
        "latency_p50_ms": quantile(file_ms.values(), 0.50),
        "latency_p99_ms": quantile(file_ms.values(), 0.99),
        "alloc_kw_per_script": interquartile_mean(
            first_gc[c] / 1000.0 / len(chunks[c][1]) for c in first_gc),
        "peak_heap_mb": statistics.median(heaps) if heaps else 0.0,
        "completed_share": sum(1 for o in firsts if clean_outcome(o)) / len(names),
        "verify_equivalent_share":
            sum(1 for o in firsts if o.get("verdict") == "equivalent") / len(names),
    }
    m.update(quality_metrics(q))
    raw_wall = sum(statistics.median(w for c, _, w, _, _ in sections if c == ci) for ci in reps)
    detail = {
        "sections": sections, "setups": setups, "reference_ms": ref.samples,
        "raw_scripts_per_s": len(names) / raw_wall,
        "all_scripts_per_s": len(names) / sum(chunk_wall.values()),
        "all_alloc_kw_per_script": sum(first_gc.values()) / 1000.0 / len(names),
        "chunk_alloc_kw": {c: first_gc[c] / 1000.0 for c in sorted(first_gc)},
        "latency_samples": sum(len(v) for v in per_file.values()),
        "file_ms": file_ms, "passes": k / len(chunks),
        "oracle_misses": q["oracle_misses"], "keyinfo_blanked": q["keyinfo_blanked"],
        "mismatched_outputs": sorted(set(mismatched)),
    }
    deterministic = {k: m[k] for k in QUALITY + ["completed_share"]}
    return dict(metrics=m, attempted=attempted, failed=failed,
                digest=digest_outputs(first_out, names), detail=detail,
                deterministic=deterministic, alloc=m["alloc_kw_per_script"],
                ok=not mismatched)


# ------------------------------------------------------------------ serve

class Daemon:
    """`deobfuscate --serve` on a Unix socket in the run directory.  The
    socket path is relative, so it stays short whatever the checkout path."""

    def __init__(self, run_dir, tag):
        self.cwd = run_dir
        self.sock_name = "s-%s.sock" % tag
        self.sock_path = os.path.join(run_dir, self.sock_name)
        self.err_path = os.path.join(run_dir, "daemon-%s.err" % tag)
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.err = open(self.err_path, "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "deobfuscate", "--serve", "unix:" + self.sock_name, "--jobs", "1"],
            cwd=run_dir, stdout=subprocess.DEVNULL, stderr=self.err, env=child_env())

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(os.path.relpath(self.sock_path))
        return s

    def wait_ready(self, timeout=30.0):
        """Seconds from spawn to the first health reply."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %d at start-up" % self.proc.returncode)
            try:
                s = self.connect()
            except OSError:
                continue  # polled, not slept: see setup_batch_once
            try:
                s.sendall(b'{"op":"health","id":"h"}\n')
                line = s.makefile("rb").readline()
                if b'"health"' in line:
                    return time.perf_counter() - self.t_spawn
            finally:
                s.close()
        raise BenchError("daemon not ready in %.0fs" % timeout)

    def request(self, obj):
        s = self.connect()
        try:
            s.sendall((json.dumps(obj) + "\n").encode())
            return json.loads(s.makefile("rb").readline())
        finally:
            s.close()

    def stop(self):
        """SIGTERM drains the daemon; returns its GC counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        with open(self.err_path, errors="replace") as f:
            return gc_stats(f.read())


def open_loop(daemon, scripts, rate, duration, window_s, rng, ref):
    """Open-loop client: requests fall due at `rate` per second, whatever the
    daemon's progress, over at most two connections.  The load runs in
    windows of `window_s`; between windows the client waits for the window's
    responses and measures the machine-speed reference.  Returns one record
    per request: [script index, due, sent, answered, response, reference
    index], and the time spent in windows."""
    conns = [daemon.connect() for _ in range(2)]
    sel = selectors.DefaultSelector()
    bufs = {}
    for c in conns:
        sel.register(c, selectors.EVENT_READ)
        bufs[c] = b""
    pending = {}
    records = []
    start = time.perf_counter()
    seq = 0
    elapsed_windows = 0.0

    def pump(timeout):
        for key, _ in sel.select(timeout):
            c = key.fileobj
            data = c.recv(1 << 20)
            if not data:
                raise BenchError("daemon closed the connection")
            bufs[c] += data
            while b"\n" in bufs[c]:
                line, bufs[c] = bufs[c].split(b"\n", 1)
                now = time.perf_counter()
                resp = json.loads(line)
                rec = pending.pop(resp.get("id"), None)
                if rec is not None:
                    rec[3] = now
                    rec[4] = resp

    while time.perf_counter() - start < duration or seq == 0:
        r = ref.measure()
        w0 = time.perf_counter()
        n = max(1, int(round(rate * window_s)))
        for i in range(n):
            due = w0 + i / rate
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                pump(due - now)
            idx = rng.randrange(len(scripts))
            rid = seq
            seq += 1
            rec = [idx, due, time.perf_counter(), None, None, r]
            pending[rid] = rec
            records.append(rec)
            conns[rid % 2].sendall(
                (json.dumps({"id": rid, "script": scripts[idx]}) + "\n").encode())
        stall = time.perf_counter() + 60.0
        while pending:
            if time.perf_counter() > stall:
                raise BenchError("%d requests unanswered" % len(pending))
            pump(0.5)
        elapsed_windows += time.perf_counter() - w0
    ref.measure()
    for c in conns:
        sel.unregister(c)
        c.close()
    return records, elapsed_windows


def serve_run(wl, seed, seconds, count, run_dir):
    corpus = os.path.join(run_dir, "corpus")
    names = generate(wl, seed, count, corpus)
    scripts = [open(os.path.join(corpus, "orig", n)).read() for n in names]
    setups = []
    ref = Reference()
    for i in range(SERVE_SPAWNS):
        r = ref.measure()
        d = Daemon(run_dir, "setup%d" % i)
        try:
            setups.append((d.wait_ready(), r))
        finally:
            d.stop()
    daemon = Daemon(run_dir, "main")
    try:
        daemon.wait_ready()
        # Warm-up, untimed: every script once, in order.  It fills the
        # daemon's piece cache, as a long-lived daemon's is, and gives the
        # outputs for the digest and the quality figures.
        answered = {}
        for idx in range(len(scripts)):
            resp = daemon.request({"id": "warm%d" % idx, "script": scripts[idx]})
            if resp.get("status") not in ("ok", "degraded"):
                raise BenchError("script %s not answered: %s" % (names[idx], resp))
            answered[idx] = resp["output"]
        rng = random.Random(seed)
        records, busy = open_loop(daemon, scripts, wl["rate"], seconds,
                                  wl["window_s"], rng, ref)
        metrics_op = daemon.request({"op": "metrics", "id": "m"})
        mismatched = [names[r[0]] for r in records
                      if r[4] and r[4].get("status") in ("ok", "degraded")
                      and r[4]["output"] != answered[r[0]]]
    finally:
        gc = daemon.stop()
    out_dir = os.path.join(run_dir, "first")
    os.makedirs(out_dir)
    for idx, out in answered.items():
        with open(os.path.join(out_dir, names[idx]), "w") as f:
            f.write(out)
    q = quality(corpus, out_dir)
    # latency from when the request fell due, at reference speed
    def latency(r):
        return (r[3] - r[1]) * 1000.0 / ref.slowness(r[5])

    lat = [latency(r) for r in records if r[3] is not None]
    ok = [r for r in records if r[4] and r[4].get("status") == "ok"]
    limit = wl["slo_ms"]
    completed = sum(1 for r in ok if clean_outcome(r[4]["report"]))
    m = {
        "setup_s": statistics.median(s / ref.slowness(r) for s, r in setups),
        # achieved rate: the open loop offers wl["rate"]; less means backlog
        "scripts_per_s": len(ok) / busy,
        "latency_p50_ms": quantile(lat, 0.50),
        "latency_p99_ms": quantile(lat, 0.99),
        "slo_share": sum(1 for r in ok if latency(r) <= limit) / len(records),
        "alloc_kw_per_script": gc.get("words", 0.0) / 1000.0 / max(1, len(records)),
        "peak_heap_mb": gc.get("top_heap_words", 0.0) * 8 / 2 ** 20,
        "completed_share": completed / len(records),
        # serve runs with verify off: the share of outputs whose sandbox
        # effect log equals the input's, computed outside the timing
        "verify_equivalent_share": q["effects_equal_input"] / max(1, q["scripts"]),
    }
    m.update(quality_metrics(q))
    failed = sum(1 for r in records if not (r[4] and r[4].get("status") in ("ok", "degraded")))
    detail = {
        "requests": len(records), "setups": setups, "reference_ms": ref.samples,
        "latency_samples": len(lat), "oracle_misses": q["oracle_misses"],
        "keyinfo_blanked": q["keyinfo_blanked"],
        "mismatched_outputs": sorted(set(mismatched)),
        "cache": metrics_op.get("cache"),
    }
    return dict(metrics=m, attempted=len(records), failed=failed,
                digest=digest_outputs(out_dir, names), detail=detail,
                deterministic={k: m[k] for k in QUALITY},
                ok=not mismatched, records=records)


# ------------------------------------------------------------- traced run

PER_LAYER = {
    "engine.run_ms": "ms", "engine.iterations": "count/script",
    "engine.phase.parse_ms": "ms", "engine.phase.recovery_ms": "ms",
    "engine.phase.dynamic_ms": "ms", "engine.phase.rename_ms": "ms",
    "engine.phase.reformat_ms": "ms", "engine.phase.check_ms": "ms",
    "engine.unattributed_ms": "ms", "engine.alloc_kw": "kw/script",
    "recover.pieces_attempted": "count/script", "recover.pieces_recovered": "count/script",
    "recover.pieces_blocked": "count/script", "recover.layers_unwrapped": "count/script",
    "recover.edits": "count/script", "recover.dynamic_attempted": "count/script",
    "recover.dynamic_recovered": "count/script", "recover.cache_hits": "count/script",
    "cache.hit_rate": "share", "cache.evictions": "count",
    "pslex.tokenize_ms": "ms", "pslex.tokens": "count/script", "psparse.parse_ms": "ms",
    "token_phase.run_ms": "ms",
    "verify.gate_ms": "ms", "verify.sandbox_runs": "count/script",
    "verify.rollbacks": "count/script", "verify.alloc_kw": "kw/script", "sandbox.run_ms": "ms",
    "rename.rename_ms": "ms", "rename.reformat_ms": "ms",
    "batch.run_source_ms": "ms", "batch.io_ms": "ms",
    "serve.client_ms": "ms", "serve.overhead_ms": "ms", "serve.generator_lag_ms": "ms",
    "serve.shed": "count",
    "telemetry.full_trace_overhead_pct": "%",
    "machine.calib_ms": "ms", "bench.trace_overhead_pct": "%",
    "dynamic_slice.engine.run_ms": "ms", "dynamic_slice.engine.phase.dynamic_ms": "ms",
    "dynamic_slice.recover.dynamic_attempted": "count/script",
    "dynamic_slice.recover.dynamic_recovered": "count/script",
}

# scripts whose layer counts the traced run always covers (NOTES.md)
LAYER_PREFIX = {"wild-batch": 300, "hard-batch": 100, "dynamic-batch": 300, "wild-serve": 300}

# The dynamic slice of every traced run: `generate_dynamic` scripts, the
# only ones that reach Recover.run_dynamic and Pseval.Provenance in
# numbers.  Its counts cover exactly DYNAMIC_SLICE scripts.
DYNAMIC_SLICE = 200
DYNAMIC_SLICE_METRICS = ["engine.run_ms", "engine.phase.dynamic_ms",
                         "recover.dynamic_attempted", "recover.dynamic_recovered"]


def traced_run(name, wl, seed, seconds, count, run_dir):
    """The per-layer run: (a) each layer's public function called in-process
    by pbtool, on the workload's corpus and on the dynamic slice, (b) the
    CLI batch with and without --trace, (c) a serve session seen from the
    client.  Parts (a), (b) and (c) run on the workload's own corpus; its
    own mechanism gets half the time, the dynamic slice a tenth."""
    corpus = os.path.join(run_dir, "corpus")
    names = generate(wl, seed, count, corpus)
    dyn_corpus = os.path.join(run_dir, "dynamic")
    dyn_count = min(DYNAMIC_SLICE, count)
    generate(WORKLOADS["dynamic-batch"], seed, dyn_count, dyn_corpus)
    is_serve = "rate" in wl
    ref = Reference()
    ref.measure()
    t_layers = seconds * (0.15 if is_serve else 0.4)
    t_dynamic = seconds * 0.1
    t_cli = seconds * 0.25
    t_serve = seconds * (0.5 if is_serve else 0.25)

    def layers(corpus, seconds, prefix, tag):
        return json.loads(run_tool(
            ["layers", "--dir", corpus, "--seconds", repr(seconds), "--prefix", str(prefix),
             "--spans", os.path.join(WORK, "spans-%s.json" % tag),
             "--scratch", os.path.join(run_dir, "layers_out")]))

    lay = layers(corpus, t_layers, min(LAYER_PREFIX[name], len(names)), name)
    layer = lay["metrics"]
    dyn = layers(dyn_corpus, t_dynamic, dyn_count, name + "-dynamic")
    layer.update({"dynamic_slice." + k: dyn["metrics"][k] for k in DYNAMIC_SLICE_METRICS})
    ref.measure()

    # (b) full CLI tracing against untraced, alternating which runs first
    chunk = wl.get("chunk", 50)
    chunks = make_chunks(run_dir, corpus, names, chunk)
    sums = {False: 0.0, True: 0.0}
    batch_reports = []
    batch_cache = None
    start = time.perf_counter()
    runs = 0
    while runs < 2 or time.perf_counter() - start < t_cli:
        in_dir, _ = chunks[(runs // 2) % len(chunks)]
        traced = (runs % 2 == 1) != ((runs // 2) % 2 == 1)
        extra = ["--trace", os.path.join(run_dir, "traces")] if traced else []
        out_dir = os.path.join(run_dir, "out-t" if traced else "out-u")
        wall, report, _ = timed_batch(in_dir, out_dir, extra)
        if report is None:
            raise BenchError("traced CLI batch failed")
        sums[traced] += wall
        if not traced:
            batch_reports.append(report)
            with open(os.path.join(out_dir, "metrics.json")) as f:
                batch_cache = json.load(f).get("cache")
        runs += 1

    # (c) serve session, client side
    daemon = Daemon(run_dir, "traced")
    try:
        daemon.wait_ready()
        scripts = [open(os.path.join(corpus, "orig", n)).read() for n in names]
        records, _ = open_loop(daemon, scripts, WORKLOADS["wild-serve"]["rate"], t_serve,
                               WORKLOADS["wild-serve"]["window_s"], random.Random(seed), ref)
        serve_cache = daemon.request({"op": "metrics", "id": "m"}).get("cache")
    finally:
        daemon.stop()
    answered = [r for r in records if r[4] and "report" in r[4]]
    client = [(r[3] - r[2]) * 1000.0 for r in answered]

    m = {k: v["value"] for k, v in layer.items()}
    if is_serve:
        cache = serve_cache
        hits = [r[4]["report"]["stats"]["cache_hits"] for r in answered]
    else:
        cache = batch_cache
        hits = [o["stats"]["cache_hits"] for rep in batch_reports for o in rep["outcomes"]]
    m["cache.hit_rate"] = cache["hit_rate"]
    m["cache.evictions"] = cache["evictions"]
    m["recover.cache_hits"] = statistics.fmean(hits)
    m["serve.client_ms"] = statistics.fmean(client)
    m["serve.overhead_ms"] = statistics.fmean(
        (r[3] - r[2]) * 1000.0 - r[4]["report"]["wall_ms"] for r in answered)
    m["serve.generator_lag_ms"] = statistics.fmean((r[2] - r[1]) * 1000.0 for r in records)
    m["serve.shed"] = sum(1 for r in records if r[4] and r[4].get("status") == "overloaded")
    m["telemetry.full_trace_overhead_pct"] = 100.0 * (sums[True] - sums[False]) / sums[False]
    m["machine.calib_ms"] = statistics.median(ref.samples)
    counts = {k: v["count"] for k, v in layer.items()}
    counts.update({"serve.client_ms": len(client), "telemetry.full_trace_overhead_pct": runs,
                   "machine.calib_ms": len(ref.samples)})
    failed = sum(1 for r in records if not (r[4] and r[4].get("status") in ("ok", "degraded")))
    deterministic = {k: layer[k]["value"] for k in layer
                     if k.startswith(("recover.", "engine.iterations", "pslex.tokens",
                                      "verify.sandbox_runs", "verify.rollbacks",
                                      "dynamic_slice.recover."))}
    return dict(metrics=m, attempted=lay["scripts"] + dyn["scripts"] + len(records),
                failed=failed, digest=lay["digest"] + dyn["digest"],
                deterministic=deterministic, detail={"counts": counts}, ok=True)


# ------------------------------------------------------------ determinism

def check_determinism(key, result):
    """Compare this run with the recorded run of the same code and seed;
    record it when it is the first.  Returns a list of differences."""
    path = os.path.join(WORK, "determinism.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    current = {"digest": result["digest"], "metrics": result["deterministic"],
               "alloc": result.get("alloc")}
    prev = store.get(key)
    if prev is None:
        store[key] = current
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    diffs = []
    if prev["digest"] != current["digest"]:
        diffs.append("output digest %s != %s" % (current["digest"][:12], prev["digest"][:12]))
    for k, v in current["metrics"].items():
        if prev["metrics"].get(k) != v:
            diffs.append("%s %r != %r" % (k, v, prev["metrics"].get(k)))
    a, b = current.get("alloc"), prev.get("alloc")
    if a is not None and b is not None and abs(a - b) > ALLOC_TOLERANCE * max(abs(b), 1e-9):
        diffs.append("alloc_kw_per_script %r != %r" % (a, b))
    return diffs


# ------------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace, count=None, tag=None):
    wl = WORKLOADS[name]
    count = count or wl["count"]
    run_dir = fresh_dir(os.path.join(WORK, tag or name))
    try:
        if trace:
            result = traced_run(name, wl, seed, seconds, count, run_dir)
        elif "rate" in wl:
            result = serve_run(wl, seed, seconds, count, run_dir)
        else:
            result = batch_run(wl, seed, seconds, count, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    key = "%s|trace=%d|seed=%d|count=%d|%s" % (name, trace, seed, count, code_digest())
    diffs = check_determinism(key, result)
    for d in diffs:
        log("perfbench: not deterministic: " + d)
    result["correct"] = result["ok"] and not diffs
    units = PER_LAYER if trace else END_TO_END
    shown = dict(units, **({} if trace else undeclared(wl)))
    missing = [k for k in shown if k not in result["metrics"]]
    if missing:
        raise BenchError("metrics missing: " + ", ".join(missing))
    result["units"] = units
    result["shown"] = shown
    return result


def emit(result, name, seed, trace):
    detail_path = os.path.join(WORK, "detail-%s-%d-%d.json" % (name, seed, trace))
    with open(detail_path, "w") as f:
        json.dump({k: v for k, v in result.items() if k != "records"}, f, indent=1, default=str)
    units, shown = result["units"], result["shown"]
    for k in shown:
        log("  %-44s %14.6g %s" % (k, result["metrics"][k], shown[k]))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": units[k]} for k in units},
    }), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload twice and compare")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, all workloads, both modes")
    args = ap.parse_args()
    if not (args.check or args.smoke or args.workload):
        ap.error("one of --workload, --check or --smoke is required")
    build()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.check:
            return check(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        return 1
    emit(result, args.workload, args.seed, args.trace)
    return 0


SMOKE_COUNT = {"wild-batch": 12, "hard-batch": 6, "dynamic-batch": 12, "wild-serve": 12}


def smoke():
    """All four workloads on tiny inputs, both modes: every metric present,
    with the unit BENCHMARK.json gives it."""
    declared = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                declared[m["name"]] = m["unit"]
        unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
        if unknown:
            log("smoke: BENCHMARK.json names unknown workloads: %s" % unknown)
            return 1
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(name, 1, 0.5, trace, count=SMOKE_COUNT[name],
                             tag="smoke-%s-%d" % (name, trace))
            for k, unit in r["shown"].items():
                if k not in r["metrics"] or not math.isfinite(r["metrics"][k]):
                    bad.append("%s trace=%d: %s missing" % (name, trace, k))
                if declared and k in r["units"] and declared.get(k) != unit:
                    bad.append("%s: unit %s, BENCHMARK.json says %s" % (k, unit, declared.get(k)))
            if not r["correct"]:
                bad.append("%s trace=%d: outputs not correct" % (name, trace))
            log("smoke: %s trace=%d ok (%d attempted)" % (name, trace, r["attempted"]))
    if declared and set(declared) != set(END_TO_END) | set(PER_LAYER):
        bad.append("BENCHMARK.json metrics differ from run.py")
    for b in sorted(set(bad)):
        log("smoke: " + b)
    print(json.dumps({"smoke": "fail" if bad else "ok", "problems": len(set(bad))}))
    return 1 if bad else 0


def check(seed, seconds):
    """Every workload twice on one seed: print every end-to-end metric by
    name and unit, fail if outputs or deterministic metrics differ."""
    bad = []
    for name in WORKLOADS:
        runs = [run_workload(name, seed, seconds, 0, tag="check-%s" % name) for _ in range(2)]
        a, b = runs
        print("%s (seed %d)" % (name, seed))
        for k, unit in a["shown"].items():
            print("  %-26s %-10s %14.6g %14.6g" % (k, unit, a["metrics"][k], b["metrics"][k]))
        if a["digest"] != b["digest"]:
            bad.append("%s: outputs differ between runs" % name)
        for k in a["deterministic"]:
            if a["deterministic"][k] != b["deterministic"][k]:
                bad.append("%s: %s differs between runs" % (name, k))
        if a.get("alloc") is not None and \
                abs(a["alloc"] - b["alloc"]) > ALLOC_TOLERANCE * abs(b["alloc"]):
            bad.append("%s: alloc_kw_per_script differs between runs" % name)
        if not (a["correct"] and b["correct"]):
            bad.append("%s: a run was not correct" % name)
    for x in bad:
        print("FAIL " + x)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
