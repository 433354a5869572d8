"""Execute one request list in this fresh interpreter and print the
results as one JSON document.

The first pass runs with every cache of the package empty (cold); with
``--warm 1`` the same list then runs again in the same process (warm).
CLI requests go through ``skelcollar.cli.main`` in-process; certificate
requests call ``skelcollar.bundles.collar_iso_certificate``.  With
``--spans PATH`` the package is wrapped by ``spans.Tracer`` and the spans
are written to PATH; without it the tracing module is never imported.
With ``--probe 1`` ``speed.SpeedProbe`` samples the host's speed: each
operation records the samples taken while it ran, and its time excludes
the time they took.

Usage: python3 worker.py --src SRC --dir DIR --warm 0|1 --probe 0|1 [--spans PATH] < requests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _run_cli(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    result = {"exit": code, "digest": hashlib.sha256(text.encode()).hexdigest()}
    if code == 0:
        result["payload"] = json.loads(text)
    else:
        result["stderr"] = err.getvalue()[-300:]
    return result


def _run_cert(bundles, exact, req: dict) -> dict:
    def transition(rows):
        return bundles.BundleTransition.from_rows(
            req["n"], [[exact.LaurentPoly.from_json_dict(p) for p in row] for row in rows])

    cert = bundles.collar_iso_certificate(
        transition(req["m1"]), transition(req["m2"]),
        bound=req["bound"], exhaustive=req["exhaustive"])
    payload = None
    if cert is not None:
        payload = {
            key: [[p.to_json_dict() for p in row] for row in getattr(cert, key)]
            for key in ("u_frame", "v_frame")
        }
    text = json.dumps(payload, sort_keys=True)
    return {"exit": 0, "payload": payload, "digest": hashlib.sha256(text.encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--warm", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    requests = json.load(sys.stdin)

    argvs = []
    for i, req in enumerate(requests):
        argv = list(req.get("argv", ()))
        if "matrix" in req:
            path = os.path.join(args.dir, f"m{i:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(req["matrix"], handle)
            argv += ["--matrix", path]
        argvs.append(argv)

    sys.path.insert(0, args.src)
    from skelcollar import bundles, cli, exact

    tracer = probe = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if args.probe:
        from speed import SpeedProbe

        probe = SpeedProbe()
        probe.start()

    passes = []
    for _ in range(1 + args.warm):
        ops = []
        started = time.perf_counter()
        for i, (req, argv) in enumerate(zip(requests, argvs)):
            if tracer is not None:
                tracer.request = i
            spent, first = (probe.spent, len(probe.samples)) if probe else (0.0, 0)
            t0 = time.perf_counter()
            try:
                if req["op"] == "cert":
                    result = _run_cert(bundles, exact, req)
                else:
                    result = _run_cli(cli, argv)
            except Exception as exc:  # a raised error is a measured failure
                result = {"error": f"{type(exc).__name__}: {exc}"[:300], "digest": None}
            result["s"] = time.perf_counter() - t0
            if probe is not None:
                result["s"] -= probe.spent - spent
                result["speed_s"] = probe.samples[first:]
            ops.append(result)
        passes.append({"wall_s": time.perf_counter() - started, "ops": ops})
    if probe is not None:
        probe.stop()

    doc = {
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        doc["trace"] = {"stats": tracer.stats, "counters": tracer.counters,
                        "missing": tracer.missing, "unwrapped": tracer.unwrapped}
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
