"""Benchmark workloads and their seeded input generator.

Each workload is a fixed shape: gallery size and spread, stream length,
method, batch size and corruption. Why each exists is recorded in
BENCHMARK.json and README.md. ``prepare`` turns a (workload, seed) pair
into the files the program reads: gallery and query EMB1 files, a ground
truth TSV and a ``paths`` config. The program under test never sees the
generator; it receives only those files. The benchmark writes and reads
EMB1 itself, so a change to the program's file code cannot change the
inputs or what the oracle reads.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 64
DIM = 32
RECALL_KS = (1, 5, 10)
# Ranking depth the checker compares: the deepest recall the report counts.
TOP = max(RECALL_KS)

MEAN_SHIFT = {"kind": "mean_shift", "delta": 1.0, "domain": 0}
MILD_SHIFT = {"kind": "mean_shift", "delta": 0.3, "domain": 0}
COLLAPSE = {"kind": "uniformity_collapse", "rho": 0.6}
NOISE = {"kind": "gaussian_noise", "sigma": 0.2}


@dataclass(frozen=True)
class Workload:
    name: str
    gallery_size: int
    stream_length: int
    method: str
    batch: int
    corruptions: tuple
    sigma_query: float
    sigma_gallery: float
    # Untraced processes per run that the timing metrics take (N).
    repeats: int

    @property
    def batches(self) -> int:
        return -(-self.stream_length // self.batch)


# Stream lengths are per process; one benchmark run starts several processes
# and pools their batches, so every run has at least MIN_BATCHES samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-rest",
            gallery_size=512,
            stream_length=4096,
            method="rest",
            batch=64,
            corruptions=(MEAN_SHIFT, COLLAPSE, NOISE),
            sigma_query=0.3,
            sigma_gallery=0.1,
            repeats=10,
        ),
        Workload(
            name="gallery-none",
            gallery_size=20000,
            stream_length=384,
            method="none",
            batch=16,
            corruptions=(MILD_SHIFT,),
            # Nothing adapts here, so Recall@1 is a property of the data
            # alone. Tight queries and a mild shift keep it near 0.92 with
            # an IQR of 0.016 of its median over seeds 1-40; with
            # sigma_query 0.3 and delta 1.0 it swung by 0.07.
            sigma_query=0.15,
            # Diffuse clusters keep k-means at its iteration cap for every
            # seed, so set-up work does not swing with the seed.
            sigma_gallery=0.3,
            repeats=6,
        ),
        Workload(
            name="mid-tent",
            gallery_size=4096,
            stream_length=1024,
            method="tent",
            batch=16,
            corruptions=(MEAN_SHIFT,),
            sigma_query=0.3,
            sigma_gallery=0.1,
            repeats=10,
        ),
    )
}

MIN_BATCHES = 100


def tiny(workload: Workload) -> Workload:
    """The same workload at a size that runs in about a second (self-test)."""
    return dataclasses.replace(
        workload,
        gallery_size=min(workload.gallery_size, 256),
        stream_length=3 * workload.batch,
        repeats=2,
    )


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus what the checker needs in memory."""

    config: Path
    gallery: Path
    queries: Path
    ground_truth: Path
    query_class: np.ndarray


def write_emb1(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"EMB1", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_emb1(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    magic, n, d = struct.unpack_from("<4sII", blob)
    if magic != b"EMB1" or len(blob) != 12 + 4 * n * d:
        raise ValueError(f"{path}: not a well-formed EMB1 file")
    return np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d).astype(np.float64)


def gallery_class(ids: np.ndarray) -> np.ndarray:
    """Class of gallery ids; the generator puts item i in class i mod CLASSES."""
    return np.asarray(ids) % CLASSES


def _query_classes(truth) -> np.ndarray:
    """Recover each query's class and check the truth is exactly that class."""
    out = np.empty(len(truth.relevant), dtype=np.int64)
    for qi, rel in enumerate(truth.relevant):
        ids = np.fromiter(rel, dtype=np.int64)
        cls = gallery_class(ids)
        if not np.all(cls == cls[0]):
            raise ValueError("ground truth is not one class per query")
        out[qi] = cls[0]
    return out


def prepare(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate (or reuse) the inputs of one (workload, seed) pair."""
    from queryshift.synth import (
        CorruptionSpec,
        SyntheticSpec,
        corrupt_stream,
        generate_benchmark,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "config": out_dir / "config.json",
        "gallery": out_dir / "gallery.emb1",
        "queries": out_dir / "queries.emb1",
        "ground_truth": out_dir / "ground_truth.tsv",
    }
    # The config is rewritten every time: it holds absolute paths.
    config = {
        "method": workload.method,
        "batch": workload.batch,
        "seed": seed,
        # Configs with a ``paths`` block default decouple to off; only
        # ``rest`` reads it.
        "decouple": True,
        "paths": {k: str(v.resolve()) for k, v in files.items() if k != "config"},
    }
    files["config"].write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    classes_path = out_dir / "query_class.npy"
    shape_path = out_dir / "workload.json"
    shape = json.dumps(dataclasses.asdict(workload), sort_keys=True)
    if classes_path.exists() and shape_path.exists() and shape_path.read_text() == shape:
        return Inputs(query_class=np.load(classes_path), **files)
    classes_path.unlink(missing_ok=True)

    spec = SyntheticSpec(
        classes=CLASSES,
        dim=DIM,
        gallery_size=workload.gallery_size,
        stream_length=workload.stream_length,
        sigma_query=workload.sigma_query,
        sigma_gallery=workload.sigma_gallery,
        seed=seed,
    )
    gallery, stream, truth = generate_benchmark(spec)
    corruptions = [CorruptionSpec(**c) for c in workload.corruptions]
    stream = corrupt_stream(stream, corruptions, seed)
    query_class = _query_classes(truth)

    write_emb1(files["gallery"], gallery.items)
    write_emb1(files["queries"], stream)
    members = [np.flatnonzero(gallery_class(np.arange(workload.gallery_size)) == c)
               for c in range(CLASSES)]
    with open(files["ground_truth"], "w", encoding="utf-8") as fh:
        for qi, c in enumerate(query_class):
            fh.write("".join(f"{qi}\t{gi}\n" for gi in members[c]))
    shape_path.write_text(shape, encoding="utf-8")
    # Written last: its presence marks a complete set of inputs.
    np.save(classes_path, query_class)
    return Inputs(query_class=query_class, **files)
