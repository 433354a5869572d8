"""Benchmark of skelcollar, run from the root of a source checkout.

    python3 bench/run.py --workload duality|splitting|certificates \
        --seed N --seconds S --trace 0|1

Single process, closed loop, one client: one operation at a time, one
workload at a time.  Each fresh worker interpreter (bench/worker.py) runs
the seeded request list once cold and, untraced, once more warm; a run
starts workers one after another while they fit in ``--seconds``.  Every
time is scaled to a fixed reference speed of the host by the speed sampled
next to it (bench/speed.py), and each request keeps the median of its
readings.  Every answer is checked against the closed forms in
bench/workloads.py.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs four cold passes, untraced, traced, traced, untraced,
and reports the per-layer metrics, including the tracing overhead.  A table of every
metric goes to standard output, the full record (run metadata, per-request
report digests) to bench/out/, and the last line of standard output is the
JSON result.  Exit code 2 without a result when the checkout holds no
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 3
NEAREST_SAMPLES = 5
DEADLINE_S = 170.0
PROBE = (
    "import json, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import skelcollar.cli; took = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; print(json.dumps([took, [speed.time_kernel() for _ in range(6)][1:]]))"
)


class BenchError(RuntimeError):
    pass


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, root: Path, requests: list, started: float) -> None:
        self.root = root
        self.src = root / "src"
        self.started = started
        self.payload = json.dumps(requests)
        # the seed override would replace the generated --seed; bytecode is
        # cached, as for an installed package, whatever the caller's setting
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("SKELCOLLAR_SEED", "PYTHONDONTWRITEBYTECODE")}
        self.workdir = BENCH / "out" / f"run-{os.getpid()}"

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def setup_probe(self) -> tuple[float, list]:
        """Import time of skelcollar.cli in a fresh interpreter, with the
        speed samples taken right after it."""
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(self.src), str(BENCH)], capture_output=True,
            text=True, env=self.env, cwd=self.root, timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"importing skelcollar.cli failed:\n{proc.stderr[-2000:]}")
        took, samples = json.loads(proc.stdout)
        return took, samples

    def worker(self, warm: bool, probe: bool, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(self.src),
               "--dir", str(self.workdir), "--warm", str(int(warm)), "--probe", str(int(probe))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, input=self.payload, capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, as (value,
    percentile); with 10 samples or fewer, the maximum at 100."""
    xs = sorted(values)
    if len(xs) > 10:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs)
    return xs[-1], 100.0


def judge_all(requests: list, docs: list, seed: int) -> dict:
    """Check every executed request; a report that differs between passes
    or workers of one run counts as a wrong answer too."""
    counts = {"attempted": 0, "failed": 0, "wrong": 0}
    problems = []
    reference = [op.get("digest") for op in docs[0]["passes"][0]["ops"]]
    for w, doc in enumerate(docs):
        for p, run in enumerate(doc["passes"]):
            for i, (req, res) in enumerate(zip(requests, run["ops"])):
                counts["attempted"] += 1
                verdict, reason = workloads.judge(req, res, seed * 1000 + i)
                if verdict == "ok" and res["digest"] != reference[i]:
                    verdict, reason = "wrong", "report differs from the first pass"
                if verdict != "ok":
                    counts[verdict] += 1
                    problems.append({"request": i, "worker": w, "pass": p, "verdict": verdict,
                                     "reason": reason})
    counts["problems"] = problems
    counts["digests"] = reference
    return counts


def _scaled(ops: list) -> list:
    """Each operation's time at the reference speed, scaled by the speed
    sampled nearest to it: every sample taken while it ran, widened on both
    sides to at least NEAREST_SAMPLES.  The probe samples at a fixed period,
    so the pass's samples in order are evenly spaced in time."""
    samples = [sample for op in ops for sample in op["speed_s"]]
    if len(samples) < NEAREST_SAMPLES:
        raise BenchError(f"a pass took only {len(samples)} speed samples")
    out, start = [], 0
    for op in ops:
        lo = start
        hi = start = start + len(op["speed_s"])
        while hi - lo < NEAREST_SAMPLES:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        out.append(op["s"] * speed.scale(samples[lo:hi]))
    return out


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list, dict]:
    runner.setup_probe()  # discarded: the first import may compile bytecode
    # set-up probes go before, between and after the workers, so that they
    # sample the host's speed across the whole run; a worker starts only
    # if one as long as the last still fits in --seconds
    begin = time.perf_counter()
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    docs = []
    while True:
        started = time.perf_counter()
        docs.append(runner.worker(warm=True, probe=True))
        setups += [runner.setup_probe() for _ in range(SETUP_PROBES)]
        now = time.perf_counter()
        if now - begin + (now - started) > seconds:
            break
    # per request, the median over workers of its time at the reference speed
    cold, warm = ([statistics.median(readings) for readings in
                   zip(*(_scaled(d["passes"][p]["ops"]) for d in docs))]
                  for p in (0, 1))
    tail_s, tail_pct = tail(cold)
    how = f"median of {len(docs)} fresh workers per request, at reference speed"
    setup = [took * speed.scale(samples) for took, samples in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setups)} fresh imports of skelcollar.cli, "
                    "at reference speed"),
        "cold_s": (sum(cold), "s", f"sum over {len(cold)} requests, {how}"),
        "warm_s": (sum(warm), "s", f"sum over {len(warm)} requests, {how}"),
        "op_p50_s": (statistics.median(cold), "s", f"median of {len(cold)} requests, {how}"),
        "op_tail_s": (tail_s, "s", f"p{tail_pct:.1f} of {len(cold)} requests, {how}"),
        "peak_rss_mib": (max(d["peak_rss_kib"] for d in docs) / 1024, "MiB",
                         "largest worker"),
    }
    extra = {"setup_probes": setups,
             "workers": [[p["wall_s"] for p in d["passes"]] for d in docs],
             "ops": [[[[op["s"], op["speed_s"]] for op in p["ops"]] for p in d["passes"]]
                     for d in docs]}
    return metrics, docs, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner: Runner, tag: str) -> tuple[dict, list, dict]:
    # untraced, traced, traced, untraced: the order cancels a steady drift
    # of the host's speed out of the overhead ratio
    plain, traced = [], []
    for k, kind in enumerate(("plain", "traced", "traced", "plain")):
        if kind == "plain":
            plain.append(runner.worker(warm=False, probe=False))
        else:
            traced.append(runner.worker(
                warm=False, probe=False, spans=BENCH / "out" / f"{tag}.{k}.spans.jsonl"))
    # counts repeat exactly from pass to pass; times are the mean of the two
    traces = [doc["trace"] for doc in traced]
    trace, counters = traces[0], traces[0]["counters"]
    stats = {name: {"calls": stat["calls"],
                    **{key: statistics.fmean(t["stats"][name][key] for t in traces)
                       for key in ("total_s", "self_s")}}
             for name, stat in trace["stats"].items()}
    metrics = {}
    for name, stat in stats.items():
        metrics[f"{name}.calls"] = (stat["calls"], "count", "")
        metrics[f"{name}.total_s"] = (stat["total_s"], "s", "")
        metrics[f"{name}.self_s"] = (stat["self_s"], "s", "total minus traced children")
    for name in ("exact.RatMatrix.kernel.cells", "birmaps.samples_checked",
                 "birmaps.samples_skipped"):
        metrics[name] = (counters.get(name, 0), "count", "")
    metrics["exact.LaurentPoly.mul.calls"] = (counters["exact.LaurentPoly.mul"], "count",
                                              "counted, not timed")
    splits = stats["bundles.splitting_type"]["calls"]
    metrics["bundles.h0_per_splitting"] = (
        _ratio(stats["bundles.h0_twist"]["calls"], splits), "ratio",
        f"base: {splits} splitting_type calls")
    searches = stats["bundles.collar_iso_certificate"]["calls"]
    metrics["bundles.cert_found_ratio"] = (
        _ratio(counters.get("bundles.cert_found", 0), searches), "ratio",
        f"base: {searches} searches, all on isomorphic pairs")
    checked = counters.get("birmaps.samples_checked", 0)
    sampled = checked + counters.get("birmaps.samples_skipped", 0)
    metrics["birmaps.checked_ratio"] = (_ratio(checked, sampled), "ratio",
                                        f"base: {sampled} samples")
    untraced_s, traced_s = (statistics.fmean(doc["passes"][0]["wall_s"] for doc in docs)
                            for docs in (plain, traced))
    metrics["trace.overhead_ratio"] = (
        traced_s / untraced_s, "ratio",
        f"traced cold {traced_s:.3f} s / untraced cold {untraced_s:.3f} s, means of 2")
    metrics["trace.missing_boundaries"] = (len(trace["missing"]), "count",
                                           ", ".join(trace["missing"]) or "none")
    for name in trace["unwrapped"]:
        for key, (value, unit, _) in metrics.items():
            if key.startswith(name + "."):
                metrics[key] = (value, unit, "MISSING: no import site resolved")
    return metrics, plain + traced, {"missing": trace["missing"]}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "skelcollar" / "cli.py").is_file():
        print(f"error: no skelcollar sources under {root / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    requests = workloads.build(args.workload, args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": _git_commit(root), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "requests": len(requests),
        "requests_sha256": hashlib.sha256(json.dumps(requests, sort_keys=True).encode())
        .hexdigest(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(root, requests, started)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, docs, extra = per_layer(runner, tag)
        else:
            metrics, docs, extra = end_to_end(runner, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()

    verdicts = judge_all(requests, docs, args.seed)
    attempted, failed, wrong = (verdicts[k] for k in ("attempted", "failed", "wrong"))
    if not args.trace:
        metrics["fail_rate"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
        metrics["wrong_answers"] = (wrong, "count", "against the closed forms")

    print(f"# {tag}: {len(requests)} requests, python {meta['python']}, "
          f"commit {meta['commit'][:12]}, nproc {meta['nproc']}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:>14.6g} {unit:6s} {note}")
    for problem in verdicts["problems"][:10]:
        print(f"! request {problem['request']} worker {problem['worker']} "
              f"pass {problem['pass']}: {problem['verdict']}: {problem['reason']}")
    if len(verdicts["problems"]) > 10:
        print(f"! ... {len(verdicts['problems']) - 10} more in the record")
    record = {
        "meta": meta, "extra": extra,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "problems": verdicts["problems"], "report_sha256": verdicts["digests"],
        "reports_sha256": hashlib.sha256("".join(
            d or "-" for d in verdicts["digests"]).encode()).hexdigest(),
    }
    out = BENCH / "out" / f"{tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# reports sha256 {record['reports_sha256']}; record written to {out}")
    result = {
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
