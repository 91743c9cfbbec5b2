#!/usr/bin/env python3
"""rayleigh-sums benchmark: closed-loop CLI workloads, checked outputs,
end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 24 --trace 0

One client runs one ``python -m rayleigh_sums ARGV`` process at a time
(PYTHONPATH=src) and starts the next call only when the last has exited.
A pass is one seeded list of calls (see workloads.py) that takes about
PASS_SECONDS on the reference machine. A run makes round(seconds /
PASS_SECONDS) passes, at least one, every second pass the mirror of the one
before. Every output is then checked against an independent reference
(checks.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every call
of a pass twice, untraced and traced, where the traced call runs
trace_call.py in a fresh interpreter instead; then it times each layer on
its own (layers.py) and prints the per-layer metrics. Either way the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The full record (argv of every call, times, verdicts, spans) goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
PASS_SECONDS = 12  # a pass of each workload takes about this long
TAIL_BEYOND = 10
LAYERS = ("import", "cli", "rayleigh_core", "exact_algebra", "zeta", "bessel_numeric")

sys.path.insert(0, str(HERE))
from checks import References, Verdict, check  # noqa: E402
from workloads import LARGE_ORDER_PROBES, WORKLOADS, Draws  # noqa: E402


@dataclass
class Call:
    argv: list[str]
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spans: list[dict] = field(default_factory=list)
    verdict: Verdict | None = None


def _drain(pipes: list[int]) -> dict[int, bytes]:
    """Read every pipe to end of file without letting any of them fill."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in pipes}
    with selectors.DefaultSelector() as sel:
        for fd in pipes:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return {fd: b"".join(parts) for fd, parts in chunks.items()}


def spawn(argv: list[str], env: dict, traced: bool, run_id: str) -> Call:
    """Run one CLI call to completion; rusage comes from this child alone."""
    span_r = span_w = -1
    if traced:
        span_r, span_w = os.pipe()
        cmd = [sys.executable, str(HERE / "trace_call.py"), str(span_w), *argv]
    else:
        cmd = [sys.executable, "-m", "rayleigh_sums", *argv]
    start_ns = time.monotonic_ns()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, pass_fds=(span_w,) if traced else ())
    try:
        if traced:
            os.close(span_w)
        fds = [proc.stdout.fileno(), proc.stderr.fileno()] + ([span_r] if traced else [])
        out = _drain(fds)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if traced:
            os.close(span_r)
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    call = Call(argv, seconds, proc.returncode, out[fds[0]].decode(), out[fds[1]].decode(),
                usage.ru_maxrss)
    if traced:
        root = {"name": "cli.process", "layer": "cli", "start": start_ns,
                "end": start_ns + round(seconds * 1e9), "parent": None, "run": run_id}
        call.spans.append(root)
        for name, layer, s, e, parent in json.loads(out[span_r] or b"[]"):
            call.spans.append({"name": name, "layer": layer, "start": s, "end": e,
                               "parent": parent + 1, "run": run_id})
    return call


def run_pass(argvs: list[list[str]], env: dict, tag: str) -> tuple[float, list[Call]]:
    t0 = time.perf_counter()
    calls = [spawn(a, env, False, f"{tag}.{i}") for i, a in enumerate(argvs)]
    return time.perf_counter() - t0, calls


def traced_pair(argvs: list[list[str]], env: dict, tag: str) -> list[dict]:
    """An untraced and a traced pass over the same calls, run call by call
    in alternating order so that drift in the machine's speed cancels out of
    their difference. Each pass's time is the sum of its calls' times."""
    plain: list[Call] = []
    traced: list[Call] = []
    for i, a in enumerate(argvs):
        for t in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if t else plain).append(spawn(a, env, t, f"{tag}.{i}"))
    return [{"argv": argvs, "wall": sum(c.seconds for c in calls), "calls": calls, "traced": t}
            for t, calls in ((False, plain), (True, traced))]


def self_times(calls: list[Call]) -> dict[str, list[float]]:
    """Per layer: [self seconds, span count] summed over the calls' spans.
    Self time is a span's duration minus that of its direct children."""
    out = {layer: [0.0, 0] for layer in LAYERS}
    for call in calls:
        child_ns = [0] * len(call.spans)
        for sp in call.spans:
            if sp["parent"] is not None:
                child_ns[sp["parent"]] += sp["end"] - sp["start"]
        for sp, kids in zip(call.spans, child_ns):
            out[sp["layer"]][0] += (sp["end"] - sp["start"] - kids) * 1e-9
            out[sp["layer"]][1] += 1
    return out


def _median_wall(cmd: list[str], env: dict, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the minimum when there are too few."""
    xs = sorted(times)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rayleigh_sums" / "__main__.py").is_file():
        print(f"error: no rayleigh_sums package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs = References.load()
    gen = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    # set-up: compile the package's bytecode once, then time fresh imports
    _median_wall([sys.executable, "-m", "rayleigh_sums", "derive", "--p", "1"], env, 1)
    setup_s = None
    if not args.trace:
        setup_s = _median_wall([sys.executable, "-c", "import rayleigh_sums"], env, SETUP_REPEATS)

    # A fixed pass count, not a deadline, so both sides of a comparison run
    # the same calls for a seed; a traced run spends half on traced calls.
    n_pass = max(1, round(args.seconds / PASS_SECONDS))
    if args.trace:
        n_pass = max(1, n_pass // 2)
    passes: list[dict] = []
    for k in range(n_pass):
        if k % 2 == 0:
            state = rng.getrandbits(64)
        argvs = gen(Draws(state, mirror=k % 2 == 1))
        if args.trace:
            passes += traced_pair(argvs, env, f"p{k}")
        else:
            wall, calls = run_pass(argvs, env, f"p{k}")
            passes.append({"argv": argvs, "wall": wall, "calls": calls, "traced": False})

    check_rng = random.Random(f"check:{args.seed}")
    all_calls = [c for p in passes for c in p["calls"]]
    for c in all_calls:
        c.verdict = check(refs, c.argv, c.returncode, c.stdout, check_rng)
    failed = [c for c in all_calls if not c.verdict.ok]
    correct = all(tuple(c.argv) in LARGE_ORDER_PROBES for c in failed)

    untraced = [p for p in passes if not p["traced"]]
    calls = [c for p in untraced for c in p["calls"]]
    run_s = statistics.median(p["wall"] for p in untraced)
    problems: list[str] = []
    if args.trace:
        metrics = trace_metrics(passes, run_s, env, problems)
    else:
        times = [c.seconds for c in calls]
        tail_s, tail_pct = tail(times)
        digits = [c.verdict.digits for c in calls if c.verdict.digits is not None]
        metrics = {
            "run_s": run_s,
            "call_p50_s": statistics.median(times),
            "call_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": max(c.maxrss_kb for c in calls) / 1024.0,
            "ok_frac": 1.0 - sum(not c.verdict.ok for c in calls) / len(calls),
            "sigma_digits_min": min(digits) if digits else 0.0,
        }
        print(f"call_tail_s is p{tail_pct:.1f} of n={len(times)} calls")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(all_calls)} calls, "
          f"{len(failed)} failed (fail_frac {len(failed) / len(all_calls):.4f})")
    for c in failed:
        print(f"FAIL {' '.join(c.argv)}: {c.verdict.note}")
    for p in problems:
        print(f"FAIL layer check: {p}")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_s": setup_s,
            "metrics": metrics,
            "passes": [{
                "traced": p["traced"], "wall_s": p["wall"], "argv": p["argv"],
                "calls": [{"seconds": c.seconds, "returncode": c.returncode,
                           "maxrss_kb": c.maxrss_kb, "ok": c.verdict.ok,
                           "note": c.verdict.note, "stderr": c.stderr[-300:]}
                          for c in p["calls"]],
            } for p in passes],
            "spans": [sp for c in all_calls for sp in c.spans],
        }, fh)
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct and not problems,
        "attempted": len(all_calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def trace_metrics(passes: list[dict], untraced_run_s: float, env: dict,
                  problems: list[str]) -> dict[str, float]:
    import layers

    traced = [p for p in passes if p["traced"]]
    per_pass = [self_times(p["calls"]) for p in traced]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = statistics.median(s[layer][0] for s in per_pass)
        m[f"{layer}.calls"] = statistics.median(s[layer][1] for s in per_pass)
    m["trace.run_s"] = untraced_run_s
    m["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - untraced_run_s
    m["cli.process_s"] = _median_wall([sys.executable, "-c", "pass"], env, SETUP_REPEATS)
    m.update(layers.import_profile(env, str(ROOT)))
    sys.path.insert(0, str(SRC))
    m.update(layers.measure(problems))
    return m


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
