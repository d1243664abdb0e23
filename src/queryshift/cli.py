"""Command-line harness: file formats, run configuration, orchestration, reports.

Binary embedding files use the EMB1 layout: magic ``EMB1``, then u32
little-endian count and dim, then count*dim float32 little-endian values in
row-major order. Ground truth is UTF-8 text with one ``query<TAB>gallery``
pair per line. Configs and reports are JSON; storage is float32 while all
in-memory math runs in float64.

Exit codes: 0 success, 2 bad config, 3 bad input file or a failed run (such
as a diverging adapter), 4 gradient-check failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np

from .adapt import (
    METHODS,
    RANK_DEPTH,
    AdaptationSession,
    AdapterParams,
    SessionConfig,
    forward_adapter,
)
from .errors import BadConfigError, BadInputError, QueryShiftError
from .gallery import _ROW_BLOCK, Gallery, knn_table
from .losses import gradient_check
from .synth import (
    CORRUPTION_FIELDS,
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    corrupt_stream,
    first_hits,
    generate_benchmark,
    metric_consistency,
    metric_gap,
    metric_uniformity,
    offset_queries,
    recall_of_hits,
    relevant_sums,
    scale_queries,
)
from .vectors import l2_normalize_rows

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")

_RECALL_KS = (1, 5, RANK_DEPTH)
_JSON_TYPES = {"bool": bool, "int": int, "number": (int, float), "string": str, "array": list}
# The JSON kind of each scalar config field annotation (annotations are strings).
_KINDS = {"bool": "bool", "int": "int", "float": "number", "str": "string"}


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _emb1_bytes(arr: np.ndarray) -> bytes:
    """EMB1 file contents of a 2-D float array; refuses values float32 cannot hold."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise BadInputError("embedding array must be 2-D")
    # A value beyond the float32 range becomes inf, which the check rejects.
    with np.errstate(over="ignore"):
        payload = arr.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise BadInputError("embedding values are not finite in float32")
    return _HEADER.pack(MAGIC, *arr.shape) + payload.tobytes(order="C")


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
    pairs = zip(truth.row_ids().tolist(), truth.indices.tolist())
    Path(path).write_text("".join(f"{qi}\t{gi}\n" for qi, gi in pairs), encoding="utf-8")


def read_ground_truth(path, num_queries: int, gallery_size: int) -> GroundTruth:
    """Parse a ``query<TAB>gallery`` file into CSR ground truth.

    Blank and whitespace-only lines are skipped and duplicate pairs collapse.
    Every rejection names the file line at fault.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    # A file whose every line is digits<TAB>digits<LF>, as write_ground_truth
    # writes it, is parsed in one pass. Every other file, and every file with
    # a bad line, goes through the line loop, which names the line at fault.
    pairs = _tab_pairs(data)
    if pairs is None or pairs[:, 0].max() >= num_queries or pairs[:, 1].max() >= gallery_size:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadInputError(f"cannot read {path}: {exc}") from exc
        pairs = _pairs_by_line(path, text, num_queries, gallery_size)
    keys = pairs[:, 0] * gallery_size + pairs[:, 1]
    # write_ground_truth writes each pair once, in order: such keys need no sort.
    if (keys[1:] > keys[:-1]).all():
        rows, ids = pairs[:, 0], pairs[:, 1]
    else:
        keys = np.sort(keys)
        rows, ids = np.divmod(keys[np.diff(keys, prepend=-1) > 0], gallery_size)
    counts = np.bincount(rows, minlength=num_queries)
    if not counts.all():
        raise BadInputError(f"{path}: query {int(np.argmin(counts))} has no relevant items")
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return GroundTruth(indptr=indptr, indices=ids)


def _tab_pairs(data: bytes) -> np.ndarray | None:
    """The (query, gallery) pairs of ``data`` if its every line is
    ``digits<TAB>digits<LF>``, else None.

    A field too large for int64 reads as the int64 maximum, which no range
    admits.
    """
    seps = data.translate(None, b"0123456789")
    if not data.endswith(b"\n") or seps != b"\t\n" * (len(seps) // 2):
        return None
    # Separators alternate, so an empty field leaves fewer numbers than separators.
    pairs = np.fromstring(data, dtype=np.int64, sep=" ")
    return pairs.reshape(-1, 2) if pairs.size == len(seps) else None


def _pairs_by_line(path, text: str, num_queries: int, gallery_size: int) -> np.ndarray:
    """The (query, gallery) pairs of ``text``, read line by line; raises the
    BadInputError of the first line that is not a valid pair."""
    pairs = []
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
        pairs.append((qi, gi))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class InputPaths:
    """The ``paths`` block: gallery and query EMB1 files and a ground-truth TSV."""

    gallery: str
    queries: str
    ground_truth: str


@dataclasses.dataclass(frozen=True, kw_only=True)
class RunConfig(SessionConfig):
    """The fields of a run and of its blocks (``InputPaths``, ``SyntheticSpec``, its
    ``CorruptionSpec``s) are the config keys, scalars typed by ``_KINDS``, with their
    defaults. The session keys and their defaults and ranges are those of ``SessionConfig``."""

    method: str
    paths: InputPaths | None = None
    synth: SyntheticSpec | None = None


def _typed(obj: dict, key: str, default, kind: str):
    """``obj[key]`` (or ``default``) if it has JSON type ``kind`` (a key of _JSON_TYPES);
    a number is returned as a float."""
    value = obj.get(key, default)
    # Python's bool is an int, but JSON true/false is neither int nor number.
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise BadConfigError(f"{key} must be a JSON {kind}, got {value!r}")
    if kind != "number":
        return value
    # Python's json reads Infinity, NaN and integers too large for a float.
    if not abs(value) <= sys.float_info.max:
        raise BadConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _block(obj, cls, where: str, nested=(), **defaults):
    """Dataclass ``cls`` built from the JSON object ``obj``, whose keys are the
    scalar fields of ``cls`` (required if they have no default), its ``tuple``
    fields (JSON arrays of corruption objects) and ``nested``. ``defaults``
    override declared defaults and supply the parsed nested fields."""
    if not isinstance(obj, dict):
        raise BadConfigError(f"{where} must be a JSON object, got {obj!r}")
    fields = dataclasses.fields(cls)
    scalars = [f for f in fields if f.type in _KINDS]
    arrays = [f.name for f in fields if f.type == "tuple"]
    unknown = set(obj) - {f.name for f in scalars} - set(arrays) - set(nested)
    if unknown:
        raise BadConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in scalars if f.default is dataclasses.MISSING and f.name not in obj]
    if missing:
        raise BadConfigError(f"{where}: missing keys {missing}")
    values = dict(defaults)
    for f in scalars:
        values[f.name] = _typed(obj, f.name, values.get(f.name, f.default), _KINDS[f.type])
    for name in arrays:
        values[name] = tuple(
            _block(item, CorruptionSpec, f"{where}.{name}[{i}]")
            for i, item in enumerate(_typed(obj, name, [], "array"))
        )
    try:
        return cls(**values)
    except (QueryShiftError, TypeError, ValueError) as exc:
        raise BadConfigError(f"{where}: {exc}") from exc


def parse_config(obj) -> RunConfig:
    """Validate a JSON config document; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise BadConfigError(f"config must be a JSON object, got {obj!r}")
    if ("paths" in obj) == ("synth" in obj):
        raise BadConfigError("config: provide exactly one of 'paths' or 'synth'")
    paths = _block(obj["paths"], InputPaths, "config.paths") if "paths" in obj else None
    synth = _block(obj["synth"], SyntheticSpec, "config.synth") if "synth" in obj else None
    # Unless set explicitly, decoupling follows the shift type: on for
    # diverse (per-query) corruption streams, off otherwise.
    cfg = _block(obj, RunConfig, "config", nested=("paths", "synth"), paths=paths, synth=synth,
                 decouple=synth is not None and len(synth.corruptions) > 1)
    if cfg.method not in METHODS:
        raise BadConfigError(f"config: method must be one of {METHODS}, got {cfg.method!r}")
    return cfg


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BadConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an integer with more digits than int() takes
        raise BadConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(obj)


def _config_echo(spec) -> dict:
    """A config dataclass as reports echo it: every field that is set, with
    blocks and arrays echoed in turn; a corruption echoes its kind and only
    the fields that kind reads (``CORRUPTION_FIELDS``)."""
    names = [f.name for f in dataclasses.fields(spec)]
    if isinstance(spec, CorruptionSpec):
        names = ["kind", *CORRUPTION_FIELDS[spec.kind]]
    echo = {}
    for name in names:
        value = getattr(spec, name)
        if dataclasses.is_dataclass(value):
            value = _config_echo(value)
        elif isinstance(value, tuple):
            value = [_config_echo(item) for item in value]
        if value is not None:
            echo[name] = value
    return echo


# ---------------------------------------------------------------------------
# Input assembly
# ---------------------------------------------------------------------------

def _synthesize(cfg: RunConfig):
    """Gallery, clean and corrupted raw query streams, and ground truth of the
    synth block; a block whose arrays cannot be allocated or normalized is a bad config."""
    # Values too large for float64 overflow; the row-norm checks catch them.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gallery, stream, truth = generate_benchmark(cfg.synth)
            corrupted = corrupt_stream(stream, cfg.synth.corruptions, cfg.synth.seed)
            l2_normalize_rows(corrupted)
    except (QueryShiftError, ValueError, MemoryError) as exc:
        raise BadConfigError(f"config.synth: {exc}") from exc
    return gallery, stream, corrupted, truth


def _load_inputs(cfg: RunConfig):
    """Gallery, raw query stream, and ground truth from files or the synth block."""
    if cfg.synth is not None:
        gallery, _, stream, truth = _synthesize(cfg)
        return gallery, stream, truth
    g_arr = read_embeddings(cfg.paths.gallery)
    stream = read_embeddings(cfg.paths.queries)
    if stream.shape[0] == 0:
        raise BadInputError(f"{cfg.paths.queries}: no query rows")
    if g_arr.shape[1] != stream.shape[1]:
        raise BadInputError("gallery and query dims differ")
    # float32 storage perturbs unit norms; re-normalize in float64, in place.
    # The Gallery adopts the read-only result: one gallery-sized array is held.
    try:
        l2_normalize_rows(g_arr, out=g_arr)
        g_arr.flags.writeable = False
        gallery = Gallery(g_arr)
    except (QueryShiftError, ValueError) as exc:
        raise BadInputError(f"bad gallery file: {exc}") from exc
    truth = read_ground_truth(cfg.paths.ground_truth, stream.shape[0], gallery.size)
    return gallery, stream, truth


def _stream_metrics(embed, cuts, gallery: Gallery, truth: GroundTruth, sums,
                    hits: np.ndarray | None = None) -> dict:
    """Geometry metrics of embeddings given in row blocks, their consistency
    against the ``relevant_sums`` of ``truth`` and the recall of their
    ``first_hits``.

    ``embed(cut)`` gives the embeddings of the rows ``cut``, and ``cuts``
    covers ``truth``'s queries in order. Each block is ranked for its first
    hits here unless the caller holds them all. A second pass over the blocks
    measures each row's distance to the center of all of them, so at most
    one block of embeddings is built at a time.
    """
    sets, slot = sums
    n, pairs, depth = len(truth), truth.indices.size, min(RANK_DEPTH, gallery.size)
    total, consistency, found = np.zeros(gallery.dim), 0.0, []
    for cut in cuts:
        z = embed(cut)
        total += z.sum(axis=0)
        consistency += metric_consistency(z, sets[slot[cut]], pairs)
        if hits is None:
            found.append(first_hits(knn_table(gallery, z, depth), truth[cut]))
    center = total / n
    return {
        "uniformity": sum(metric_uniformity(embed(cut), center, n) for cut in cuts),
        "gap": metric_gap(center, gallery.center),
        "consistency": consistency,
        "recall": _recall(np.concatenate(found) if hits is None else hits),
    }


def _blocks(n: int) -> list:
    """Slices of ``_ROW_BLOCK`` rows covering ``n`` rows in order."""
    return [slice(a, a + _ROW_BLOCK) for a in range(0, n, _ROW_BLOCK)]


def _recall(hits: np.ndarray) -> dict:
    return {str(k): recall_of_hits(hits, k) for k in _RECALL_KS}


def _report(cfg: RunConfig, body) -> dict:
    """The report of a stream command: schema, config echo and wall clock
    around ``body(gallery, stream, truth)`` of the loaded inputs."""
    started = time.monotonic()
    report = {"schema": 1, "config": _config_echo(cfg), **body(*_load_inputs(cfg))}
    report["wall_clock_seconds"] = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig, out_dir) -> dict:
    """Write gallery, clean and corrupted query streams, and ground truth.

    Every file is encoded before any is written: a synth block whose values
    the EMB1 files cannot hold is a bad config and writes nothing.
    """
    if cfg.synth is None:
        raise BadConfigError("synth command needs a 'synth' block in the config")
    gallery, stream, corrupted, truth = _synthesize(cfg)
    arrays = {"gallery": gallery.items, "queries_clean": stream, "queries_corrupt": corrupted}
    try:
        blobs = {name: _emb1_bytes(arr) for name, arr in arrays.items()}
    except BadInputError as exc:
        raise BadConfigError(f"config.synth: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {name: out / f"{name}.emb1" for name in blobs}
    for name, blob in blobs.items():
        files[name].write_bytes(blob)
    files["ground_truth"] = out / "ground_truth.tsv"
    write_ground_truth(files["ground_truth"], truth)
    return {"schema": 1, "files": {k: str(v) for k, v in files.items()}}


def cmd_adapt(cfg: RunConfig) -> dict:
    """Stream the queries through the configured method and report everything.

    Each batch's rankings on arrival are the online result. The loop holds
    what the batch calls return until they cover a block of ``_ROW_BLOCK``
    queries or the stream ends. Then one first-hit pass over the block's
    rankings gives its ranks (the report's recall, and ``none``'s ``initial``
    and ``final``, which it never leaves), one ``_stream_metrics`` call per
    batch gives its metrics row from its own record, and the records are
    released, so what the stream holds between batches does not grow with
    its length. After the stream, ``initial`` and ``final`` embed and rank
    the stream block by block.
    """
    def body(gallery, stream, truth):
        session = AdaptationSession(gallery, cfg)
        sums = relevant_sums(gallery.items, truth)
        sets, slot = sums
        n, series, hits, held, start = stream.shape[0], {}, [], [], 0
        for a in range(0, n, cfg.batch):
            raw = stream[a : a + cfg.batch]
            if cfg.method == "rest":
                held.append(session.adapt_batch(raw))
            else:
                held.append(session.run_baseline(raw, cfg.method))
            end = a + len(raw)
            # Batch records kept to the stream's end page-faulted the batch
            # calls; a report pass after each batch slowed short batches.
            if end - start < _ROW_BLOCK and end < n:
                continue
            ranks = first_hits(np.concatenate([result.rankings for result in held]),
                               truth[start:end])
            hits.append(ranks)
            for result in held:
                b = len(result.z)
                cut = slice(start, start + b)
                # A batch is one block, so its row does not depend on _ROW_BLOCK.
                row = vars(result.diagnostics) | _stream_metrics(
                    result.z.__getitem__, [slice(0, b)], gallery, truth[cut],
                    (sets, slot[cut]), ranks[:b])
                row["recall_1"] = row.pop("recall")["1"]
                for key, value in row.items():
                    series.setdefault(key, []).append(value)
                ranks, start = ranks[b:], cut.stop
            held.clear()
        hits = np.concatenate(hits)

        def scored(params, kept=None):
            return _stream_metrics(lambda cut: forward_adapter(params, stream[cut]), _blocks(n),
                                   gallery, truth, sums, kept)

        if cfg.method == "none":
            # Its parameters never leave the source: one pass serves both rows.
            initial = scored(session.source_params, hits)
            final = copy.deepcopy(initial)
        else:
            initial, final = scored(session.source_params), scored(session.params)
        if cfg.method == "rest":
            final.update(delta_s=series["delta_s"][-1], e_b=series["e_b"][-1])
        return {"recall": _recall(hits), "initial": initial, "final": final, "series": series}

    return _report(cfg, body)


def cmd_probe(cfg: RunConfig, lambda_scale, lambda_offset) -> dict:
    """Evaluate scale/offset probes of the non-adapting source embeddings."""
    def body(gallery, stream, truth):
        z0 = forward_adapter(AdapterParams.identity(gallery.dim), stream)
        sums, cuts = relevant_sums(gallery.items, truth), _blocks(len(truth))

        def row(lam, z):
            return {"lambda": lam, **_stream_metrics(z.__getitem__, cuts, gallery, truth, sums)}

        scale = [row(lam, scale_queries(z0, lam)) for lam in map(float, lambda_scale)]
        offset = [row(lam, offset_queries(z0, gallery.center, lam))
                  for lam in map(float, lambda_offset)]
        return {"probe": {"scale": scale, "offset": offset}}

    return _report(cfg, body)


def cmd_metrics(cfg: RunConfig) -> dict:
    """One-shot metrics of the source embeddings against the gallery."""
    def body(gallery, stream, truth):
        z0 = forward_adapter(AdapterParams.identity(gallery.dim), stream)
        sums = relevant_sums(gallery.items, truth)
        return {"metrics": _stream_metrics(z0.__getitem__, _blocks(len(truth)), gallery, truth,
                                           sums)}

    return _report(cfg, body)


def cmd_gradcheck(seed: int) -> dict:
    """Analytic-vs-finite-difference verification over seeded instances."""
    started = time.monotonic()
    report = gradient_check(seed=seed, dims=(1, 2, 16), instances=5)
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
        if args.seed is not None and args.seed < 0:
            raise BadConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.seed is not None and args.command == "synth":
            raise BadConfigError("synth takes no --seed: its data follow the config's synth.seed")
        if args.seed is not None and args.command in ("probe", "metrics"):
            raise BadConfigError(f"{args.command} takes no --seed: it draws nothing at random")
        if args.command == "gradcheck":
            seed = args.seed if args.seed is not None else 0
            report = cmd_gradcheck(seed)
            _emit(report, args.out)
            return 0 if report["passed"] else 4

        if not args.config:
            raise BadConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)

        if args.command == "synth":
            if not args.out:
                raise BadConfigError("synth requires --out <directory>")
            _emit(cmd_synth(cfg, args.out), None)
            return 0
        if args.command == "adapt":
            report = cmd_adapt(cfg)
        elif args.command == "probe":
            scale = _parse_lambdas(args.lambda_scale, positive=True)
            report = cmd_probe(cfg, scale, _parse_lambdas(args.lambda_offset))
        else:
            report = cmd_metrics(cfg)
        _emit(report, args.out)
        return 0
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QueryShiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
