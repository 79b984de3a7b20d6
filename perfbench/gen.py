"""Generate one workload's inputs from its seed, in a process of its own.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--scale F]

The synthetic task is a frozen copy of the recipe in ``tests/synth.py``
(``make_task``), so that editing a test helper cannot silently change a
workload.  The CSV bytes match that module's ``write_dataset_csv``.
Writes ``manifest.json`` last, listing every file with its sha256 and
size; a directory without a manifest is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from checks import sha256_file
from workloads import ALIGN, NOISE, RADIUS, WORKLOADS


def make_task(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    means = np.zeros((k, k))
    for c in range(k):
        u = rng.standard_normal(k)
        u[c] = 0.0
        u /= np.linalg.norm(u)
        direction = ALIGN * np.eye(k)[c] + np.sqrt(1.0 - ALIGN**2) * u
        means[c] = RADIUS * direction
    labels = rng.integers(0, k, size=n)
    logits = means[labels] + NOISE * rng.standard_normal((n, k))
    return logits, labels


def write_csv(path: str, logits: np.ndarray, labels: np.ndarray) -> None:
    k = logits.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["label"] + [f"z{i}" for i in range(k)]) + "\n")
        for label, row in zip(labels.tolist(), logits):
            fh.write(f"{label},{','.join(map(repr, row.tolist()))}\n")


def generate(name: str, seed: int, out: str, scale: float = 1.0) -> dict:
    w = WORKLOADS[name]
    if scale != 1.0:
        w = w.scaled(scale)
    os.makedirs(out, exist_ok=True)
    files = []
    if w.kind == "sweep":
        logits, labels = make_task(w.n, w.k, seed)
        write_csv(os.path.join(out, "data.csv"), logits, labels)
        with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(w.config("data.csv"), fh, indent=2)
        files = ["data.csv", "config.json"]
    else:
        logits, labels = make_task(w.n_cal + w.test_rows, w.k, seed)
        write_csv(os.path.join(out, "cal.csv"), logits[: w.n_cal], labels[: w.n_cal])
        np.save(os.path.join(out, "test_logits.npy"), logits[w.n_cal :])
        np.save(os.path.join(out, "test_labels.npy"), labels[w.n_cal :])
        files = ["cal.csv", "test_logits.npy", "test_labels.npy"]
    manifest = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "files": {
            f: {
                "sha256": sha256_file(os.path.join(out, f)),
                "bytes": os.path.getsize(os.path.join(out, f)),
            }
            for f in files
        },
    }
    tmp = os.path.join(out, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(out, "manifest.json"))
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()
