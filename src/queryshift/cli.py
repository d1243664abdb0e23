"""Command-line harness: file formats, run configuration, orchestration, reports.

Binary embedding files use the EMB1 layout: magic ``EMB1``, then u32
little-endian count and dim, then count*dim float32 little-endian values in
row-major order. Ground truth is UTF-8 text with one ``query<TAB>gallery``
pair per line. Configs and reports are JSON; storage is float32 while all
in-memory math runs in float64.

Exit codes: 0 success, 2 bad config, 3 bad input file, 4 gradient-check
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np

from .adapt import AdaptationSession, AdapterParams, SessionConfig, forward_adapter
from .errors import BadConfigError, BadInputError, QueryShiftError
from .gallery import Gallery, knn_table
from .losses import gradient_check
from .synth import (
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    corrupt_stream,
    count_hits,
    generate_benchmark,
    metric_consistency,
    metric_gap,
    metric_uniformity,
    offset_queries,
    recall_at_k,
    scale_queries,
)
from .vectors import l2_normalize_rows

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")

_METHODS = ("rest", "tent", "pl", "none")
_RECALL_KS = (1, 5, 10)
_JSON_TYPES = {"bool": bool, "int": int, "number": (int, float)}


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_embeddings(path, arr: np.ndarray) -> None:
    """Write a 2-D float array as an EMB1 file (float32 on disk)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise BadInputError("embedding array must be 2-D")
    n, d = arr.shape
    payload = arr.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, d))
        fh.write(payload)


def read_embeddings(path) -> np.ndarray:
    """Read an EMB1 file into float64; rejects bad headers and non-finite data."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise BadInputError(f"{path}: truncated header")
    magic, n, d = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadInputError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise BadInputError(f"{path}: expected {expected} bytes, found {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    if not np.all(np.isfinite(arr)):
        raise BadInputError(f"{path}: non-finite values")
    return arr.astype(np.float64)


def write_ground_truth(path, truth: GroundTruth) -> None:
    lines = []
    for qi, rel in enumerate(truth.relevant):
        for gi in sorted(rel):
            lines.append(f"{qi}\t{gi}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_ground_truth(path, num_queries: int, gallery_size: int) -> GroundTruth:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    relevant = [set() for _ in range(num_queries)]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise BadInputError(f"{path}:{lineno}: expected two tab-separated fields")
        try:
            qi, gi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise BadInputError(f"{path}:{lineno}: non-integer index") from exc
        if not 0 <= qi < num_queries:
            raise BadInputError(f"{path}:{lineno}: query index {qi} out of range")
        if not 0 <= gi < gallery_size:
            raise BadInputError(f"{path}:{lineno}: gallery index {gi} out of range")
        relevant[qi].add(gi)
    if any(not r for r in relevant):
        raise BadInputError(f"{path}: some queries have no relevant items")
    return GroundTruth(relevant=tuple(frozenset(r) for r in relevant))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunConfig:
    method: str
    tau: float = 0.02
    k: int = 10
    batch: int = 64
    lr: float = 1e-3
    decouple: bool = False
    seed: int = 0
    paths: dict | None = None
    synth: SyntheticSpec | None = None
    corruptions: tuple = ()


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise BadConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise BadConfigError(f"{where}: missing keys {sorted(missing)}")


def _typed(obj: dict, key: str, default, kind: str):
    """``obj[key]`` (or ``default``) if it has JSON type ``kind``: bool, int or number."""
    value = obj.get(key, default)
    # Python's bool is an int, but JSON true/false is neither int nor number.
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise BadConfigError(f"config: {key} must be a JSON {kind}, got {value!r}")
    return value


def _parse_corruption(obj: dict, where: str) -> CorruptionSpec:
    if not isinstance(obj, dict):
        raise BadConfigError(f"{where}: corruption must be an object")
    allowed = {"kind", "sigma", "delta", "rho", "domain", "parts"}
    _require_keys(obj, allowed, {"kind"}, where)
    parts = tuple(
        _parse_corruption(p, f"{where}.parts[{i}]") for i, p in enumerate(obj.get("parts", []))
    )
    try:
        return CorruptionSpec(
            kind=obj["kind"],
            sigma=float(obj.get("sigma", 0.0)),
            delta=float(obj.get("delta", 0.0)),
            rho=float(obj.get("rho", 0.0)),
            domain=int(obj.get("domain", 0)),
            parts=parts,
        )
    except (QueryShiftError, TypeError, ValueError) as exc:
        raise BadConfigError(f"{where}: {exc}") from exc


def parse_config(obj: dict) -> RunConfig:
    """Validate a JSON config document; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise BadConfigError("config root must be an object")
    allowed = {"method", "tau", "k", "batch", "lr", "decouple", "seed", "paths", "synth"}
    _require_keys(obj, allowed, {"method"}, "config")
    method = obj["method"]
    if method not in _METHODS:
        raise BadConfigError(f"config: method must be one of {_METHODS}, got {method!r}")
    if ("paths" in obj) == ("synth" in obj):
        raise BadConfigError("config: provide exactly one of 'paths' or 'synth'")

    paths = None
    if "paths" in obj:
        _require_keys(
            obj["paths"],
            {"gallery", "queries", "ground_truth"},
            {"gallery", "queries", "ground_truth"},
            "config.paths",
        )
        paths = {k: str(v) for k, v in obj["paths"].items()}

    synth = None
    corruptions: tuple = ()
    if "synth" in obj:
        s = obj["synth"]
        allowed_s = {
            "classes",
            "dim",
            "gallery_size",
            "stream_length",
            "sigma_query",
            "sigma_gallery",
            "seed",
            "corruptions",
        }
        required_s = {"classes", "dim", "gallery_size", "stream_length"}
        _require_keys(s, allowed_s, required_s, "config.synth")
        try:
            synth = SyntheticSpec(
                classes=int(s["classes"]),
                dim=int(s["dim"]),
                gallery_size=int(s["gallery_size"]),
                stream_length=int(s["stream_length"]),
                sigma_query=float(s.get("sigma_query", 0.0)),
                sigma_gallery=float(s.get("sigma_gallery", 0.0)),
                seed=int(s.get("seed", 0)),
            )
        except (QueryShiftError, TypeError, ValueError) as exc:
            raise BadConfigError(f"config.synth: {exc}") from exc
        corruptions = tuple(
            _parse_corruption(c, f"config.synth.corruptions[{i}]")
            for i, c in enumerate(s.get("corruptions", []))
        )

    # Unless set explicitly, decoupling follows the shift type: on for
    # diverse (per-query) corruption streams, off otherwise.
    decouple_default = len(corruptions) > 1
    try:
        cfg = RunConfig(
            method=method,
            tau=float(_typed(obj, "tau", 0.02, "number")),
            k=_typed(obj, "k", 10, "int"),
            batch=_typed(obj, "batch", 64, "int"),
            lr=float(_typed(obj, "lr", 1e-3, "number")),
            decouple=_typed(obj, "decouple", decouple_default, "bool"),
            seed=_typed(obj, "seed", 0, "int"),
            paths=paths,
            synth=synth,
            corruptions=corruptions,
        )
        # Surface invalid numeric ranges now rather than mid-run.
        SessionConfig(tau=cfg.tau, k=cfg.k, batch_size=cfg.batch, lr=cfg.lr)
    except (QueryShiftError, TypeError, ValueError) as exc:
        if isinstance(exc, BadConfigError):
            raise
        raise BadConfigError(f"config: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BadConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(obj)


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "method": cfg.method,
        "tau": cfg.tau,
        "k": cfg.k,
        "batch": cfg.batch,
        "lr": cfg.lr,
        "decouple": cfg.decouple,
        "seed": cfg.seed,
    }
    if cfg.paths is not None:
        echo["paths"] = dict(cfg.paths)
    if cfg.synth is not None:
        echo["synth"] = {
            "classes": cfg.synth.classes,
            "dim": cfg.synth.dim,
            "gallery_size": cfg.synth.gallery_size,
            "stream_length": cfg.synth.stream_length,
            "sigma_query": cfg.synth.sigma_query,
            "sigma_gallery": cfg.synth.sigma_gallery,
            "seed": cfg.synth.seed,
            "corruptions": [_corruption_echo(c) for c in cfg.corruptions],
        }
    return echo


def _corruption_echo(c: CorruptionSpec) -> dict:
    out = {"kind": c.kind}
    if c.kind == "gaussian_noise":
        out["sigma"] = c.sigma
    elif c.kind == "mean_shift":
        out["delta"] = c.delta
        out["domain"] = c.domain
    elif c.kind == "uniformity_collapse":
        out["rho"] = c.rho
    else:
        out["parts"] = [_corruption_echo(p) for p in c.parts]
    return out


# ---------------------------------------------------------------------------
# Input assembly
# ---------------------------------------------------------------------------

def _load_inputs(cfg: RunConfig):
    """Gallery, raw query stream, and ground truth from files or the synth block."""
    if cfg.synth is not None:
        gallery, stream, truth = generate_benchmark(cfg.synth)
        stream = corrupt_stream(stream, cfg.corruptions, cfg.synth.seed)
        return gallery, stream, truth
    g_arr = read_embeddings(cfg.paths["gallery"])
    stream = read_embeddings(cfg.paths["queries"])
    if g_arr.shape[1] != stream.shape[1]:
        raise BadInputError("gallery and query dims differ")
    # float32 storage perturbs unit norms; re-normalize in float64.
    try:
        gallery = Gallery(l2_normalize_rows(g_arr))
    except QueryShiftError as exc:
        raise BadInputError(f"bad gallery file: {exc}") from exc
    truth = read_ground_truth(cfg.paths["ground_truth"], stream.shape[0], gallery.size)
    return gallery, stream, truth


def _stream_metrics(z: np.ndarray, gallery: Gallery, truth: GroundTruth) -> dict:
    rankings = knn_table(gallery, z, gallery.size)
    return {
        "uniformity": metric_uniformity(z),
        "gap": metric_gap(z, gallery.items),
        "consistency": metric_consistency(z, gallery.items, truth),
        "recall": {
            str(k): recall_at_k(rankings, truth, k) for k in _RECALL_KS
        },
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig, out_dir) -> dict:
    """Write gallery, clean and corrupted query streams, and ground truth."""
    if cfg.synth is None:
        raise BadConfigError("synth command needs a 'synth' block in the config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gallery, stream, truth = generate_benchmark(cfg.synth)
    corrupted = corrupt_stream(stream, cfg.corruptions, cfg.synth.seed)
    files = {
        "gallery": out / "gallery.emb1",
        "queries_clean": out / "queries_clean.emb1",
        "queries_corrupt": out / "queries_corrupt.emb1",
        "ground_truth": out / "ground_truth.tsv",
    }
    write_embeddings(files["gallery"], gallery.items)
    write_embeddings(files["queries_clean"], stream)
    write_embeddings(files["queries_corrupt"], corrupted)
    write_ground_truth(files["ground_truth"], truth)
    return {"schema": 1, "files": {k: str(v) for k, v in files.items()}}


def cmd_adapt(cfg: RunConfig) -> dict:
    """Stream the queries through the configured method and report everything."""
    started = time.monotonic()
    gallery, stream, truth = _load_inputs(cfg)
    session = AdaptationSession(
        gallery,
        SessionConfig(
            tau=cfg.tau,
            k=cfg.k,
            batch_size=cfg.batch,
            lr=cfg.lr,
            decouple=cfg.decouple,
            seed=cfg.seed,
        ),
    )

    z0 = forward_adapter(AdapterParams.identity(gallery.dim), stream)
    initial = _stream_metrics(z0, gallery, truth)

    series: dict = {}
    hits = {k: 0 for k in _RECALL_KS}
    n = stream.shape[0]
    for start in range(0, n, cfg.batch):
        raw = stream[start : start + cfg.batch]
        if cfg.method == "rest":
            result = session.adapt_batch(raw)
        else:
            result = session.run_baseline(raw, cfg.method)

        batch_truth = GroundTruth(relevant=truth.relevant[start : start + cfg.batch])
        batch_hits = {k: count_hits(result.rankings, batch_truth, k) for k in _RECALL_KS}
        for k in _RECALL_KS:
            hits[k] += batch_hits[k]

        row = dataclasses.asdict(result.diagnostics)
        bd = result.breakdown
        for term in ("l_u", "l_g", "l_rem", "l_rhm"):
            row[term] = None if bd is None else getattr(bd, term)
        row["uniformity"] = metric_uniformity(result.z)
        row["gap"] = metric_gap(result.z, gallery.items)
        row["consistency"] = metric_consistency(result.z, gallery.items, batch_truth)
        row["recall_1"] = batch_hits[1] / len(batch_truth)
        for key, value in row.items():
            series.setdefault(key, []).append(value)

    zf = forward_adapter(session.params, stream)
    final = _stream_metrics(zf, gallery, truth)

    report = {
        "schema": 1,
        "config": _config_echo(cfg),
        "recall": {str(k): hits[k] / n for k in _RECALL_KS},
        "initial": initial,
        "final": final,
        "series": series,
        "wall_clock_seconds": time.monotonic() - started,
    }
    if cfg.method == "rest":
        report["final"]["delta_s"] = series["delta_s"][-1]
        report["final"]["e_b"] = series["e_b"][-1]
    return report


def cmd_probe(cfg: RunConfig, lambda_scale, lambda_offset) -> dict:
    """Evaluate scale/offset probes of the non-adapting source embeddings."""
    started = time.monotonic()
    gallery, stream, truth = _load_inputs(cfg)
    z0 = forward_adapter(AdapterParams.identity(gallery.dim), stream)
    gallery_mean = gallery.items.mean(axis=0)

    scale_rows = []
    for lam in lambda_scale:
        row = {"lambda": float(lam)}
        row.update(_stream_metrics(scale_queries(z0, float(lam)), gallery, truth))
        scale_rows.append(row)
    offset_rows = []
    for lam in lambda_offset:
        row = {"lambda": float(lam)}
        row.update(_stream_metrics(offset_queries(z0, gallery_mean, float(lam)), gallery, truth))
        offset_rows.append(row)

    return {
        "schema": 1,
        "config": _config_echo(cfg),
        "probe": {"scale": scale_rows, "offset": offset_rows},
        "wall_clock_seconds": time.monotonic() - started,
    }


def cmd_metrics(cfg: RunConfig) -> dict:
    """One-shot metrics of the source embeddings against the gallery."""
    started = time.monotonic()
    gallery, stream, truth = _load_inputs(cfg)
    z0 = forward_adapter(AdapterParams.identity(gallery.dim), stream)
    report = {
        "schema": 1,
        "config": _config_echo(cfg),
        "metrics": _stream_metrics(z0, gallery, truth),
        "wall_clock_seconds": time.monotonic() - started,
    }
    return report


def cmd_gradcheck(seed: int, perturb: float = 0.0) -> dict:
    """Analytic-vs-finite-difference verification over seeded instances."""
    started = time.monotonic()
    report = gradient_check(seed=seed, dims=(1, 2, 16), instances=5, perturb=perturb)
    report["schema"] = 1
    report["wall_clock_seconds"] = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_lambdas(text: str, positive: bool = False):
    """Comma list of finite floats; ``positive`` also requires each to be > 0."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise BadConfigError(f"bad lambda list {text!r}") from exc
    if not all(math.isfinite(v) and (v > 0 or not positive) for v in values):
        need = "finite and > 0" if positive else "finite"
        raise BadConfigError(f"lambda values must be {need}, got {text!r}")
    return values


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="queryshift",
        description="Test-time adaptation for embedding retrieval under query shift.",
    )
    parser.add_argument("--config", required=False, help="path to a JSON run config")
    parser.add_argument("--out", required=False, help="report path (directory for synth)")
    parser.add_argument("--seed", type=int, required=False, help="override the config seed")
    parser.add_argument(
        "command", choices=["synth", "adapt", "probe", "gradcheck", "metrics"]
    )
    parser.add_argument("--lambda-scale", default="1.0", help="comma list for probe")
    parser.add_argument("--lambda-offset", default="0.0", help="comma list for probe")
    args = parser.parse_args(argv)

    try:
        if args.command == "gradcheck":
            seed = args.seed if args.seed is not None else 0
            report = cmd_gradcheck(seed)
            _emit(report, args.out)
            return 0 if report["passed"] else 4

        if not args.config:
            raise BadConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed

        if args.command == "synth":
            if not args.out:
                raise BadConfigError("synth requires --out <directory>")
            report = cmd_synth(cfg, args.out)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        if args.command == "adapt":
            _emit(cmd_adapt(cfg), args.out)
            return 0
        if args.command == "probe":
            report = cmd_probe(
                cfg,
                _parse_lambdas(args.lambda_scale, positive=True),
                _parse_lambdas(args.lambda_offset),
            )
            _emit(report, args.out)
            return 0
        if args.command == "metrics":
            _emit(cmd_metrics(cfg), args.out)
            return 0
        raise BadConfigError(f"unknown command {args.command!r}")
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BadInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QueryShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
