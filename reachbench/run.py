"""The reachcast benchmark command.

    python3 reachbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One workload runs per process, so
peak RSS belongs to that workload alone. With ``--trace 0`` it prints the
end-to-end metrics. With ``--trace 1`` every other round of the session runs
with every layer's public functions wrapped, and it prints the per-layer
metrics of those rounds plus the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import os

# before numpy loads anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# it would silently replace every --out the benchmark passes to the CLI
os.environ.pop("REACHCAST_OUT", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".reachbench_tmp"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gradcheck(rec, cli):
    """Model-level finite-difference gradient check on the tiny preset."""
    rec.attempted += 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["gradcheck"])
    rec.check(code == 0, "gradcheck failed:\n" + out.getvalue())


def measure(w, seed, seconds, trace, tmp):
    """Run one workload; returns (metrics, metadata, recorders)."""
    import layers
    import session
    import tracing
    from reachcast import cli

    rec = session.Recorder()
    gradcheck(rec, cli)
    tracer = tracing.Tracer(layers.targets()) if trace else None
    run = session.Session(w, seed, ROOT, tmp, rec, seconds, tracer)
    run.run()
    metrics, meta = session.end_to_end(rec, peak_rss_mb())
    meta.update(rounds=run.rounds, rounds_s=run.rounds_s, steps=run.steps)
    if not trace:
        return metrics, meta, [rec]
    left = tracing.wrapped_names(tracer.targets)
    rec.check(not left, f"wrappers left after the traced rounds: {left}")
    meta["spans"] = len(tracer.spans)
    per_layer = layers.per_layer(tracer.spans, run.steps, rec.samples, run.traced.samples)
    return per_layer, meta, [rec, run.traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "reachcast" / "__init__.py").is_file():
        print(f"error: no reachcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import session

    if args.workload not in session.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(session.WORKLOADS)}", file=sys.stderr)
        return 2
    w = session.WORKLOADS[args.workload]

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=SCRATCH))
    try:
        metrics, meta, recs = measure(w, args.seed, args.seconds, args.trace, tmp)
    except session.OpFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    failures = [f for r in recs for f in r.failures]
    meta.update(workload=w.name, seed=args.seed, trace=args.trace,
                attempted=attempted, failed=failed, error_rate=failed / attempted,
                nproc=os.cpu_count(), python=platform.python_version(),
                numpy=np.__version__, src_lines=src_lines())
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
