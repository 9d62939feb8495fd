"""Write every deterministic artifact of a fixed reachcast pipeline to OUT.

    PYTHONPATH=src python3 tools/artifacts.py OUT

Each command runs as ``python -m reachcast`` in its own process, so the
``reachcast`` it runs is whichever one ``PYTHONPATH`` selects. Two trees
that should compute the same thing are compared by running this once with
each tree's ``src/`` and then ``diff -r`` of the two OUT directories.

The dataset directories (``raw/``, ``data/``, ``mixed/``, ``paper-raw/``
and ``paper-data/``) hold files of the wire format their tree writes, so a
comparison against a base of another wire format lists them as differing
or only on one side. A set that the base's own ``tools/artifacts.py`` does
not write shows as only on the head's side.

The pipeline:

- ``gen --n 60 --seed 0 --dropout 0.3``, then ``repair`` (its report too);
- ``gen --n 40 --seed 3 --t-min 2 --t-max 40 --frame 8 --dropout 0.9``
  (``mixed/``): lengths from 2 to 40 steps in one dataset, so the
  generator's lock-step stages stack chains of unequal length, and most
  samples keep only the 10 valid depths the dropout cap leaves;
- for each of the global-3d and 2d coordinate modes, on the desk preset:
  ``train --epochs 3 --seed 0 --observation-mode random --batch-size 32``,
  ``eval --ratios 0.1..0.9 --dump`` (model and constant-velocity rows)
  and ``forecast --id s00050``;
- two paper-preset training steps (``--epochs 2``, ``--batch-size 4``)
  on a 4-sample set of 64x64 frames and 32 to 40 steps, generated with
  ``--dropout 0.3`` and repaired first, as the benchmark's train-paper
  workload does, so the checkpoint and optimizer state cover the threaded
  optimizer step from non-zero moments, then ``eval --splits all
  --ratios 0.1..0.9`` of that float32 checkpoint. The set's one training
  sample observes 19 steps, so each step's R = 19 frame rows cross both
  thread gates of the model: the temporal encoders' branches
  and the visual branch's two halves (from R = 16) run on two threads,
  forward and backward. So CI's byte-stability diff covers the threaded
  paths. The eval's batches have R = 15 (ratio 0.1, the visual branch
  serial) to 133;
- the standard output of ``gradcheck`` (``gradcheck.txt``).

OUT must not exist yet, so no file of an earlier run is compared.
"""

import json
import subprocess
import sys
from pathlib import Path


def reachcast(*argv, stdout=subprocess.DEVNULL):
    """Run one ``reachcast`` command in a fresh interpreter; raise on failure."""
    argv = [str(a) for a in argv]
    done = subprocess.run([sys.executable, "-m", "reachcast", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(f"reachcast {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: PYTHONPATH=src python3 tools/artifacts.py OUT")
    out = Path(sys.argv[1])
    if out.exists():
        raise SystemExit(f"{out} exists; name a new directory")
    out.mkdir(parents=True)
    raw, data = out / "raw", out / "data"
    reachcast("gen", "--n", 60, "--seed", 0, "--dropout", 0.3, "--out", raw)
    reachcast("repair", "--data", raw, "--out", data)
    reachcast("gen", "--n", 40, "--seed", 3, "--t-min", 2, "--t-max", 40, "--frame", 8,
              "--dropout", 0.9, "--out", out / "mixed")
    for mode in ("global-3d", "2d"):
        run = out / mode
        run.mkdir()
        config = run / "run.json"
        config.write_text(json.dumps({"model": {"preset": "desk", "coordinate_mode": mode}}))
        reachcast("train", "--config", config, "--data", data, "--out", run, "--epochs", 3,
                  "--seed", 0, "--observation-mode", "random", "--batch-size", 32)
        reachcast("eval", "--ckpt", run / "ckpt", "--data", data, "--ratios", "0.1..0.9",
                  "--out", run / "metrics.csv", "--dump", run / "dump.json")
        reachcast("forecast", "--ckpt", run / "ckpt", "--data", data, "--id", "s00050",
                  "--out", run / "forecast.json")
    paper_raw, paper_data, paper = out / "paper-raw", out / "paper-data", out / "paper"
    reachcast("gen", "--n", 4, "--seed", 0, "--frame", 64, "--t-min", 32, "--t-max", 40,
              "--dropout", 0.3, "--out", paper_raw)
    reachcast("repair", "--data", paper_raw, "--out", paper_data)
    reachcast("train", "--preset", "paper", "--data", paper_data, "--out", paper,
              "--epochs", 2, "--seed", 0, "--batch-size", 4)
    reachcast("eval", "--ckpt", paper / "ckpt", "--data", paper_data, "--splits", "all",
              "--ratios", "0.1..0.9", "--out", paper / "metrics.csv")
    (out / "gradcheck.txt").write_text(reachcast("gradcheck", stdout=subprocess.PIPE))
    print(f"wrote the artifacts to {out}")


if __name__ == "__main__":
    main()
