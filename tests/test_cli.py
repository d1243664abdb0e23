import copy
import dataclasses
import json
import math
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from csr import csr_rows
from queryshift import adapt, cli, losses, synth
from queryshift.cli import (
    _config_echo,
    _emb1_bytes,
    _stream_metrics,
    cmd_adapt,
    cmd_gradcheck,
    cmd_metrics,
    cmd_probe,
    cmd_synth,
    main,
    parse_config,
    read_embeddings,
    read_ground_truth,
    write_ground_truth,
)
from queryshift.errors import BadConfigError, BadInputError
from queryshift.gallery import Gallery
from queryshift.synth import (
    CORRUPTION_FIELDS,
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    first_hits,
    relevant_sums,
)
from queryshift.vectors import l2_normalize_rows

BASE_SYNTH = {
    "classes": 8,
    "dim": 12,
    "gallery_size": 64,
    "stream_length": 48,
    "sigma_query": 0.1,
    "sigma_gallery": 0.1,
    "seed": 0,
    "corruptions": [],
}


def config_dict(method="none", **over):
    cfg = {
        "method": method,
        "tau": 0.02,
        "k": 5,
        "batch": 16,
        "lr": 0.001,
        "decouple": False,
        "seed": 0,
        "synth": copy.deepcopy(BASE_SYNTH),
    }
    cfg.update(over)
    return cfg


def synth_config_dict(**over):
    """config_dict() with ``over`` applied to its synth block."""
    cfg = config_dict()
    cfg["synth"].update(over)
    return cfg


def corruption_config_dict(**over):
    """config_dict() with one mean-shift corruption, ``over`` applied to it."""
    corruption = {"kind": "mean_shift", "delta": 0.5, "domain": 0}
    corruption.update(over)
    return synth_config_dict(corruptions=[corruption])


def write_emb1(path, arr):
    """Write ``arr`` as an EMB1 file the way ``cmd_synth`` does: encoded in
    full before the file is opened."""
    Path(path).write_bytes(_emb1_bytes(arr))


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.emb1"
        write_emb1(path, arr)
        back = read_embeddings(path)
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_emb1(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        magic, n, d = struct.unpack_from("<4sII", blob)
        assert magic == b"EMB1"
        assert (n, d) == (2, 3)
        assert len(blob) == 12 + 4 * 2 * 3

    @pytest.mark.parametrize("value", [1e39, -1e39, math.inf, math.nan])
    def test_values_float32_cannot_hold_write_no_file(self, tmp_path, value):
        path = tmp_path / "x.emb1"
        arr = np.zeros((2, 3))
        arr[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadInputError, match="not finite in float32"):
                write_emb1(path, arr)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_emb1(path, np.zeros((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadInputError):
            read_embeddings(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_emb1(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(BadInputError):
            read_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.emb1"
        arr = np.zeros((1, 2))
        arr[0, 0] = np.inf
        payload = struct.pack("<4sII", b"EMB1", 1, 2) + arr.astype("<f4").tobytes()
        path.write_bytes(payload)
        with pytest.raises(BadInputError):
            read_embeddings(path)


def read_ground_truth_by_lines(path, num_queries, gallery_size):
    """Frozen copy of the line-loop parser read_ground_truth once was."""
    text = Path(path).read_text(encoding="utf-8")
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
    return tuple(frozenset(r) for r in relevant)


def random_truth_text(rng, num_queries, gallery_size):
    """Every query covered, pairs shuffled and repeated, ids zero-filled. A
    third of the files are plain LF lines of digits. The others hold blank and
    whitespace-only lines and mixed line endings, and half of them pad or sign
    ids."""
    pairs = [(q, int(rng.integers(0, gallery_size))) for q in range(num_queries)]
    pairs += [
        (int(rng.integers(0, num_queries)), int(rng.integers(0, gallery_size)))
        for _ in range(int(rng.integers(0, 3 * num_queries)))
    ]
    pairs += [pairs[int(i)] for i in rng.integers(0, len(pairs), int(rng.integers(0, 5)))]
    order = [pairs[int(i)] for i in rng.permutation(len(pairs))]
    zeros = lambda: str(rng.choice(["", "", "0", "00"]))
    if rng.random() < 1 / 3:
        return "".join(f"{zeros()}{q}\t{zeros()}{g}\n" for q, g in order)
    # Half the other files hold a non-ASCII space.
    spaces = ["", "", " ", "  "] + (["\xa0"] if rng.random() < 0.5 else [])
    pad = lambda: str(rng.choice(spaces))
    if rng.random() < 0.5:
        num = lambda v: pad() + str(rng.choice(["", "", "+", "0", "00"])) + str(v) + pad()
    else:
        num = lambda v: zeros() + str(v)
    lines = []
    for q, g in order:
        while rng.random() < 0.2:
            lines.append(str(rng.choice(["", " ", "\t", " \t "] + spaces)))
        lines.append(f"{num(q)}\t{num(g)}")
    ends = [str(rng.choice(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.7 else text.rstrip("\r\n")


class TestGroundTruthFile:
    def test_matches_line_loop_parser(self, tmp_path):
        rng = np.random.default_rng(30)
        path = tmp_path / "gt.tsv"
        for _ in range(150):
            n, g = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            path.write_bytes(random_truth_text(rng, n, g).encode("utf-8"))
            want = read_ground_truth_by_lines(path, n, g)
            truth = read_ground_truth(path, n, g)
            assert csr_rows(truth) == [sorted(r) for r in want]
            assert truth.indices.tolist() == [i for rel in want for i in sorted(rel)]

    def test_tab_files_parse_without_the_line_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        truth = GroundTruth.from_sets(
            frozenset(rng.choice(50, int(rng.integers(1, 6)), replace=False).tolist())
            for _ in range(20)
        )
        path = tmp_path / "gt.tsv"
        write_ground_truth(path, truth)

        def line_loop(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(cli, "_pairs_by_line", line_loop)
        back = read_ground_truth(path, 20, 50)
        assert np.array_equal(back.indptr, truth.indptr)
        assert np.array_equal(back.indices, truth.indices)
        monkeypatch.undo()
        path.write_bytes(b"0\t1\n1\t2\x00\n1\t3\n")
        with pytest.raises(BadInputError, match=r"gt\.tsv:2: non-integer index"):
            read_ground_truth(path, 2, 4)

    def test_duplicates_collapse_and_rows_sort(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_bytes(b"1\t3\r\n0\t2\r\n1\t0\r\n\r\n1\t3\r\n  \r\n0\t2")
        truth = read_ground_truth(path, 2, 4)
        assert truth.indptr.tolist() == [0, 1, 3]
        assert truth.indices.tolist() == [2, 0, 3]

    def test_sorted_file_with_a_duplicate_pair(self, tmp_path):
        # Keys in order but not strictly increasing still collapse.
        path = tmp_path / "gt.tsv"
        for data in (b"0\t1\n0\t1\n1\t0\n1\t2\n", b"0\t1\n1\t0\n1\t2\n1\t2\n"):
            path.write_bytes(data)
            truth = read_ground_truth(path, 2, 3)
            assert truth.indptr.tolist() == [0, 1, 3]
            assert truth.indices.tolist() == [1, 0, 2]

    def test_empty_file_with_no_queries(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("\n \n", encoding="utf-8")
        assert len(read_ground_truth(path, 0, 4)) == 0

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0\t1\t2", "expected two tab-separated fields"),
            ("0 1", "expected two tab-separated fields"),
            ("0\t", "non-integer index"),
            ("0\tx", "non-integer index"),
            ("0\t1.0", "non-integer index"),
            ("5\t1", "query index 5 out of range"),
            ("-1\t1", "query index -1 out of range"),
            ("0\t9", "gallery index 9 out of range"),
            ("99999999999999999999\t1", "query index 99999999999999999999 out of range"),
        ],
    )
    def test_rejection_names_the_file_line(self, tmp_path, bad, message):
        path = tmp_path / "gt.tsv"
        # The bad line is line 7; a later line is bad in another way. In the
        # CRLF file and the second LF file blank lines come first, so the bad
        # line's number differs from its row. The first LF file's other lines
        # are digits only, so an out-of-range bad line there is parsed in one
        # pass first; the blank lines send the other files to the line loop.
        layouts = [
            ("\r\n", ["0\t1", "", "  ", "1\t2", "\t", ""], ["1\t3", "0\tz", "7\t0"]),
            ("\n", ["0\t1", "1\t2", "0\t3", "1\t0", "0\t2", "1\t1"], ["1\t3", "7\t0"]),
            ("\n", ["", "0\t1", "", "", "1\t2", "0\t3"], ["1\t3", "7\t0"]),
        ]
        for end, head, tail in layouts:
            path.write_text(end.join(head + [bad] + tail) + end, encoding="utf-8")
            with pytest.raises(BadInputError) as got:
                read_ground_truth(path, 2, 4)
            assert str(got.value) == f"{path}:7: {message}"
            with pytest.raises(BadInputError) as old:
                read_ground_truth_by_lines(path, 2, 4)
            assert str(old.value) == str(got.value)

    def test_uncovered_query_is_named(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("\n0\t1\n\n2\t3\n", encoding="utf-8")
        with pytest.raises(BadInputError, match=r"gt\.tsv: query 1 has no relevant items"):
            read_ground_truth(path, 3, 4)

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff11"])
    def test_python_int_fields_read_as_before(self, tmp_path, field):
        # Only ASCII digits take the one-pass parse; the line loop reads these with int().
        path = tmp_path / "gt.tsv"
        path.write_text(f"\n0\t{field}\n", encoding="utf-8")
        want = [sorted(r) for r in read_ground_truth_by_lines(path, 1, 20)]
        assert csr_rows(read_ground_truth(path, 1, 20)) == want

    def test_non_ascii_bad_field_rejected_by_line(self, tmp_path):
        # A non-ASCII field never takes the one-pass parse; the line loop names its line.
        path = tmp_path / "gt.tsv"
        path.write_text("0\t1\n\n0\t\U00097560\n", encoding="utf-8")
        with pytest.raises(BadInputError, match=r"gt\.tsv:3: non-integer index"):
            read_ground_truth(path, 1, 4)
        path.write_text("0\u3000\t\xa01\n", encoding="utf-8")
        assert csr_rows(read_ground_truth(path, 1, 4)) == [[1]]

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_bytes(b"0\t1\n\xff\t2\n")
        with pytest.raises(BadInputError, match="cannot read"):
            read_ground_truth(path, 1, 4)

    def test_round_trip(self, tmp_path):
        truth = GroundTruth.from_sets((frozenset({1, 3}), frozenset({0})))
        path = tmp_path / "gt.tsv"
        write_ground_truth(path, truth)
        back = read_ground_truth(path, 2, 4)
        assert csr_rows(back) == csr_rows(truth) == [[1, 3], [0]]

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("0\t9\n", encoding="utf-8")
        with pytest.raises(BadInputError):
            read_ground_truth(path, 1, 4)

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("0\tx\n", encoding="utf-8")
        with pytest.raises(BadInputError):
            read_ground_truth(path, 1, 4)

    def test_rejects_uncovered_query(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("0\t1\n", encoding="utf-8")
        with pytest.raises(BadInputError):
            read_ground_truth(path, 2, 4)


class TestConfigParsing:
    def test_defaults_applied(self):
        cfg = parse_config({"method": "none", "synth": dict(BASE_SYNTH)})
        assert cfg.tau == 0.02
        assert cfg.k == 10
        assert cfg.batch == 64
        assert cfg.lr == 1e-3
        assert cfg.decouple is False

    def test_unknown_key_rejected(self):
        with pytest.raises(BadConfigError):
            parse_config(config_dict(extra=1))

    def test_unknown_nested_key_rejected(self):
        bad = config_dict()
        bad["synth"]["foo"] = 2
        with pytest.raises(BadConfigError):
            parse_config(bad)

    def test_unknown_method_rejected(self):
        with pytest.raises(BadConfigError):
            parse_config(config_dict(method="shot"))

    def test_requires_exactly_one_input_block(self):
        with pytest.raises(BadConfigError):
            parse_config({"method": "none"})
        both = config_dict()
        both["paths"] = {"gallery": "a", "queries": "b", "ground_truth": "c"}
        with pytest.raises(BadConfigError):
            parse_config(both)

    def test_bad_corruption_rejected(self):
        bad = config_dict()
        bad["synth"]["corruptions"] = [{"kind": "melt"}]
        with pytest.raises(BadConfigError):
            parse_config(bad)

    def test_bad_numeric_range_rejected(self):
        with pytest.raises(BadConfigError):
            parse_config(config_dict(tau=0.0))
        # Values of the wrong JSON type are rejected, not coerced.
        for key, value in [
            ("decouple", "false"),
            ("decouple", 0),
            ("k", 3.7),
            ("k", "5"),
            ("batch", True),
            ("seed", 1.0),
            ("tau", True),
            ("lr", "0.01"),
        ]:
            with pytest.raises(BadConfigError):
                parse_config(config_dict(**{key: value}))
        cfg = parse_config(config_dict(tau=1, lr=0.5, k=3, batch=8, seed=2, decouple=True))
        assert (cfg.tau, cfg.lr, cfg.k, cfg.batch, cfg.seed, cfg.decouple) == (1.0, 0.5, 3, 8, 2, True)
        # The synth block and its corruptions are typed the same way.
        for key, value in [
            ("classes", 8.9),
            ("dim", "12"),
            ("gallery_size", 64.0),
            ("stream_length", False),
            ("seed", True),
            ("sigma_query", "0.1"),
            ("sigma_gallery", True),
        ]:
            with pytest.raises(BadConfigError):
                parse_config(synth_config_dict(**{key: value}))
        for key, value in [
            ("delta", True),
            ("delta", "0.5"),
            ("domain", 1.7),
            ("domain", False),
            ("sigma", None),
            ("rho", True),
        ]:
            with pytest.raises(BadConfigError):
                parse_config(corruption_config_dict(**{key: value}))
        cfg = parse_config(corruption_config_dict(delta=1, domain=2))
        assert (cfg.synth.corruptions[0].delta, cfg.synth.corruptions[0].domain) == (1.0, 2)
        assert isinstance(cfg.synth.corruptions[0].delta, float)
        assert isinstance(parse_config(synth_config_dict(sigma_query=0)).synth.sigma_query, float)

    def test_decouple_defaults_by_shift_type(self):
        single = config_dict(method="rest")
        single["synth"]["corruptions"] = [{"kind": "mean_shift", "delta": 0.5, "domain": 0}]
        del single["decouple"]
        assert parse_config(single).decouple is False
        diverse = copy.deepcopy(single)
        diverse["synth"]["corruptions"].append({"kind": "gaussian_noise", "sigma": 0.2})
        assert parse_config(diverse).decouple is True
        diverse["decouple"] = False
        assert parse_config(diverse).decouple is False

    def test_echo_shapes(self):
        # Shapes the golden reports never hold: a paths block, a nested
        # compose, and kinds given keys they do not read (accepted, not echoed).
        run = {"method": "none", "tau": 0.02, "k": 10, "batch": 64, "lr": 0.001, "seed": 0}
        paths = {"gallery": "g.emb1", "queries": "q.emb1", "ground_truth": "t.tsv"}
        echo = _config_echo(parse_config({"method": "none", "paths": dict(paths)}))
        assert echo == {**run, "decouple": False, "paths": paths}

        synth = {"classes": 8, "dim": 12, "gallery_size": 64, "stream_length": 48}
        compose = {
            "kind": "compose",
            "sigma": 0.3,
            "parts": [
                {"kind": "mean_shift", "delta": 0.5},
                {"kind": "compose", "parts": [{"kind": "uniformity_collapse", "rho": 0.5}]},
            ],
        }
        cfg = parse_config({"method": "none", "synth": {**synth, "corruptions": [compose]}})
        assert _config_echo(cfg) == {
            **run,
            "decouple": False,
            "synth": {
                **synth,
                "sigma_query": 0.0,
                "sigma_gallery": 0.0,
                "seed": 0,
                "corruptions": [
                    {
                        "kind": "compose",
                        "parts": [
                            {"kind": "mean_shift", "delta": 0.5, "domain": 0},
                            {
                                "kind": "compose",
                                "parts": [{"kind": "uniformity_collapse", "rho": 0.5}],
                            },
                        ],
                    }
                ],
            },
        }

        unread = [
            {"kind": "mean_shift", "delta": 1, "domain": 2, "sigma": 0.4, "rho": 0.2},
            {"kind": "gaussian_noise", "rho": 0.5, "domain": 3},
            {"kind": "uniformity_collapse", "delta": 0.7, "parts": [{"kind": "mean_shift"}]},
        ]
        cfg = parse_config({"method": "rest", "synth": {**synth, "seed": 4, "corruptions": unread}})
        assert cfg.synth.corruptions[0].sigma == 0.4
        assert _config_echo(cfg) == {
            **run,
            "method": "rest",
            "decouple": True,
            "synth": {
                **synth,
                "sigma_query": 0.0,
                "sigma_gallery": 0.0,
                "seed": 4,
                "corruptions": [
                    {"kind": "mean_shift", "delta": 1.0, "domain": 2},
                    {"kind": "gaussian_noise", "sigma": 0.0},
                    {"kind": "uniformity_collapse", "rho": 0.0},
                ],
            },
        }


def unsettable_fields(cls) -> list:
    """Fields of ``cls`` that are neither a scalar JSON kind nor a nested block."""
    nested = {"paths", "synth", "corruptions", "parts"}
    fields = dataclasses.fields(cls)
    return [f.name for f in fields if f.type not in cli._KINDS and f.name not in nested]


class TestMergedConfig:
    def test_parsed_config_is_the_session_config(self, monkeypatch):
        cfg = parse_config(config_dict(method="rest", k=4, batch=12, seed=3))
        assert isinstance(cfg, adapt.SessionConfig)
        session_fields = {f.name for f in dataclasses.fields(adapt.SessionConfig)}
        assert not session_fields & set(cli.RunConfig.__annotations__)
        sessions = []

        class Recorded(adapt.AdaptationSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(cli, "AdaptationSession", Recorded)
        cmd_adapt(cfg)
        assert len(sessions) == 1 and sessions[0].config is cfg


class TestConfigSchema:
    def test_every_field_is_a_json_kind_or_a_nested_block(self):
        assert set(cli._KINDS.values()) <= set(cli._JSON_TYPES)
        for cls in (cli.RunConfig, cli.InputPaths, SyntheticSpec, CorruptionSpec):
            assert unsettable_fields(cls) == [], cls.__name__

        @dataclasses.dataclass
        class Extended:
            known: "float" = 0.0
            optional: "float | None" = None

        assert unsettable_fields(Extended) == ["optional"]

    def test_every_field_is_a_key_of_its_block(self):
        corruption = {"kind": "compose", "sigma": 0.1, "delta": 0.5, "rho": 0.2, "domain": 1,
                      "parts": [{"kind": "mean_shift"}]}
        synth = {**BASE_SYNTH, "corruptions": [corruption]}
        paths = {"gallery": "g.emb1", "queries": "q.emb1", "ground_truth": "t.tsv"}
        run = config_dict(method="rest", synth=synth)
        # Each block parses, so each of its keys is one the parser takes.
        parse_config(run)
        parse_config({**{k: v for k, v in run.items() if k != "synth"}, "paths": paths})
        blocks = [(cli.RunConfig, {**run, "paths": paths}), (SyntheticSpec, synth),
                  (CorruptionSpec, corruption), (cli.InputPaths, paths)]
        for cls, block in blocks:
            assert {f.name for f in dataclasses.fields(cls)} == set(block), cls.__name__

    def test_corruption_fields_name_real_fields(self):
        names = {f.name for f in dataclasses.fields(CorruptionSpec)} - {"kind"}
        for kind, fields in CORRUPTION_FIELDS.items():
            assert fields and set(fields) <= names, kind


class TestCmdSynth:
    def test_writes_four_loadable_files(self, tmp_path):
        cfg = parse_config(config_dict())
        report = cmd_synth(cfg, tmp_path / "out")
        files = report["files"]
        assert set(files) == {"gallery", "queries_clean", "queries_corrupt", "ground_truth"}
        g = read_embeddings(files["gallery"])
        q = read_embeddings(files["queries_clean"])
        c = read_embeddings(files["queries_corrupt"])
        truth = read_ground_truth(files["ground_truth"], q.shape[0], g.shape[0])
        assert g.shape == (64, 12)
        assert q.shape == (48, 12)
        assert len(truth) == 48
        # No corruption configured: both streams identical.
        assert np.array_equal(q, c)

    def test_idempotent_byte_identical(self, tmp_path):
        cfg = parse_config(config_dict())
        a = cmd_synth(cfg, tmp_path / "a")
        b = cmd_synth(cfg, tmp_path / "b")
        for key in a["files"]:
            assert open(a["files"][key], "rb").read() == open(b["files"][key], "rb").read()

    def test_corrupt_stream_differs_iff_corruption(self, tmp_path):
        noisy = config_dict()
        noisy["synth"]["corruptions"] = [{"kind": "gaussian_noise", "sigma": 0.2}]
        report = cmd_synth(parse_config(noisy), tmp_path / "n")
        q = read_embeddings(report["files"]["queries_clean"])
        c = read_embeddings(report["files"]["queries_corrupt"])
        assert not np.array_equal(q, c)


class TestCmdAdapt:
    def test_none_matches_zero_shot_metrics(self):
        report = cmd_adapt(parse_config(config_dict(method="none")))
        assert report["recall"] == report["initial"]["recall"]
        assert report["final"]["recall"] == report["initial"]["recall"]

    def test_none_scores_the_stream_once_without_centroids(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_centroids must not run")

        rank, calls = cli.knn_table, []

        def counted(*args):
            calls.append(1)
            return rank(*args)

        monkeypatch.setattr(adapt, "build_centroids", refuse)
        monkeypatch.setattr(cli, "knn_table", counted)
        report = cmd_adapt(parse_config(config_dict(method="none")))
        # initial and final both read the batches' kept ranks.
        assert calls == []
        assert report["final"] == report["initial"]
        assert report["final"] is not report["initial"]
        assert report["final"]["recall"] is not report["initial"]["recall"]

    @pytest.mark.parametrize("method", ["none", "rest", "tent", "pl"])
    def test_whole_stream_rankings_only_where_parameters_moved(self, monkeypatch, method):
        # 384 queries in batches of 16: each batch is ranked once as it
        # arrives. Only a method that steps ranks the whole stream, at the
        # source and at the final parameters, in blocks of 256 and 128 rows:
        # each query once per parameter point.
        calls = []

        def counted(where, rank):
            def call(gallery, z, k):
                calls.append((where, len(z)))
                return rank(gallery, z, k)
            return call

        monkeypatch.setattr(adapt, "knn_table", counted("batch", adapt.knn_table))
        monkeypatch.setattr(cli, "knn_table", counted("stream", cli.knn_table))
        cfg = config_dict(method=method, batch=16)
        cfg["synth"].update(gallery_size=128, stream_length=384)
        report = cmd_adapt(parse_config(cfg))
        whole = [] if method == "none" else [("stream", 128), ("stream", 256)] * 2
        assert sorted(calls) == [("batch", 16)] * 24 + sorted(whole)
        assert len(report["series"]["recall_1"]) == 24

    @pytest.mark.parametrize("method", ["none", "rest", "tent", "pl"])
    def test_each_relevance_pair_gathered_once(self, monkeypatch, method):
        # 384 queries in batches of 16. Nothing is gathered during the stream.
        # After the last batch one hit pass per block of 256 and 128 queries
        # counts the online rankings of their batches, and one relevant_sums
        # call gathers each distinct relevant set of the whole truth once;
        # every block and batch slices its rows from those sums. A method that
        # steps adds one hit pass per block of each whole-stream ranking.
        calls, gathered = [], []

        def sums(z_g, truth):
            calls.append(("sums", len(truth), truth.indices.size))
            sets, slot = relevant_sums(z_g, truth)
            gathered.append(len(sets))
            return sets, slot

        def hits(rankings, truth):
            calls.append(("hits", len(truth)))
            return first_hits(rankings, truth)

        for module in (cli, synth):
            monkeypatch.setattr(module, "relevant_sums", sums)
            monkeypatch.setattr(module, "first_hits", hits)
        cfg = config_dict(method=method, batch=16)
        cfg["synth"].update(gallery_size=128, stream_length=384)
        parsed = parse_config(cfg)
        _, _, _, truth = cli._synthesize(parsed)
        cmd_adapt(parsed)
        blocks = [("hits", 256), ("hits", 128)]
        whole = [] if method == "none" else blocks * 2
        assert calls == blocks + [("sums", 384, truth.indices.size)] + whole
        assert gathered == [len({tuple(rel) for rel in csr_rows(truth)})]

    @pytest.mark.parametrize("method", ["none", "rest", "tent", "pl"])
    def test_stream_loop_makes_only_session_calls(self, monkeypatch, method):
        # 100 queries in batches of 16, the last one short. Every report call
        # comes after the last batch returns, and each batch's recall reads
        # the ranks its own rankings got on arrival.
        calls, online = [], []

        def session_call(fn):
            def call(*args, **kwargs):
                calls.append("batch")
                result = fn(*args, **kwargs)
                online.append(result.rankings.copy())
                calls.append("returned")
                return result
            return call

        def report_call(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        session = adapt.AdaptationSession
        for name in ("adapt_batch", "run_baseline"):
            monkeypatch.setattr(session, name, session_call(getattr(session, name)))
        for name in ("first_hits", "relevant_sums", "_stream_metrics"):
            monkeypatch.setattr(cli, name, report_call(name, getattr(cli, name)))
        cfg = config_dict(method=method, batch=16)
        cfg["synth"].update(stream_length=100)
        parsed = parse_config(cfg)
        _, _, _, truth = cli._synthesize(parsed)
        report = cmd_adapt(parsed)

        last = len(calls) - calls[::-1].index("returned")
        assert calls[:last] == ["batch", "returned"] * 7
        assert {"first_hits", "relevant_sums", "_stream_metrics"} <= set(calls[last:])
        hits = [first_hits(r, truth[a : a + 16]) for a, r in zip(range(0, 100, 16), online)]
        want = [synth.recall_of_hits(h, 1) for h in hits]
        assert report["series"]["recall_1"] == want
        whole = np.concatenate(hits)
        assert report["recall"] == {str(k): synth.recall_of_hits(whole, k) for k in (1, 5, 10)}

    def test_report_memory_does_not_grow_with_the_stream(self, monkeypatch):
        # rest at 4,096 and 16,384 queries. After the last batch returns, the
        # report's passes are to raise the traced peak by at most a block's
        # arrays plus one hit rank and one sum slot per query above what the
        # stream then holds. Whole-stream (queries, dim) arrays rose 4.5 and
        # 17.8 MB here; 256-query blocks rise 0.14 and 0.30 MB.
        held = []

        def session_call(fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return result
            return call

        session = adapt.AdaptationSession
        monkeypatch.setattr(session, "adapt_batch", session_call(session.adapt_batch))
        for n in (4096, 16384):
            cfg = config_dict(method="rest", batch=64, k=10, decouple=True)
            cfg["synth"].update(classes=16, dim=32, gallery_size=128, stream_length=n,
                                sigma_query=0.3, corruptions=[{"kind": "gaussian_noise",
                                                               "sigma": 0.2}])
            parsed = parse_config(cfg)
            tracemalloc.start()
            try:
                cmd_adapt(parsed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(held) == n // 64
            assert peak - held[-1] < 1.5 * 2**20, n
            held.clear()

    def test_metrics_identity_equals_none_initial(self):
        cfg = parse_config(config_dict(method="none", batch=16))
        initial = cmd_adapt(cfg)["initial"]
        metrics = cmd_metrics(cfg)["metrics"]
        assert metrics["consistency"] == initial["consistency"]
        assert metrics["recall"] == initial["recall"]
        assert metrics == initial

    def test_rest_first_step_source_coincidence(self):
        cfg = parse_config(config_dict(method="rest", decouple=True))
        report = cmd_adapt(cfg)
        assert report["series"]["d_kl"][0] == 0.0
        assert report["series"]["w_d"][0] == 1.0
        assert report["series"]["angle_deg"][0] is None

    def test_deterministic_reports(self):
        cfg = config_dict(method="rest", decouple=True)
        cfg["synth"]["corruptions"] = [{"kind": "mean_shift", "delta": 0.5, "domain": 0}]
        a = cmd_adapt(parse_config(cfg))
        b = cmd_adapt(parse_config(cfg))
        a.pop("wall_clock_seconds")
        b.pop("wall_clock_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_file_inputs_round_trip(self, tmp_path):
        synth_cfg = parse_config(config_dict())
        files = cmd_synth(synth_cfg, tmp_path)["files"]
        cfg = parse_config(
            {
                "method": "none",
                "k": 5,
                "batch": 16,
                "paths": {
                    "gallery": files["gallery"],
                    "queries": files["queries_clean"],
                    "ground_truth": files["ground_truth"],
                },
            }
        )
        report = cmd_adapt(cfg)
        assert report["recall"]["1"] >= 0.9

    def test_load_holds_two_gallery_copies(self, tmp_path):
        # The file's float64 rows, their normalized copy and the Gallery's
        # own copy would be three gallery-sized arrays at once; the raw rows
        # must go before the Gallery copies the normalized ones.
        rng = np.random.default_rng(40)
        items = rng.standard_normal((8192, 32))
        paths = {name: tmp_path / name for name in ("gallery", "queries", "ground_truth")}
        write_emb1(paths["gallery"], items)
        write_emb1(paths["queries"], rng.standard_normal((16, 32)))
        write_ground_truth(
            paths["ground_truth"], GroundTruth.from_sets(frozenset({i}) for i in range(16))
        )
        cfg = parse_config({"method": "none", "paths": {k: str(v) for k, v in paths.items()}})
        tracemalloc.start()
        try:
            gallery, _, _ = cli._load_inputs(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gallery.size == 8192
        assert peak < 2.5 * items.nbytes

    def test_diverse_stream_end_to_end(self):
        # Per-query corruption draws from three domains, decoupling active by
        # default: the KL diagnostics must be populated and finite throughout.
        cfg = config_dict(method="rest")
        del cfg["decouple"]
        cfg["synth"]["corruptions"] = [
            {"kind": "mean_shift", "delta": 0.5, "domain": 0},
            {"kind": "mean_shift", "delta": 0.5, "domain": 1},
            {"kind": "gaussian_noise", "sigma": 0.3},
        ]
        parsed = parse_config(cfg)
        assert parsed.decouple is True
        report = cmd_adapt(parsed)
        assert all(v is not None and np.isfinite(v) for v in report["series"]["d_kl"])
        assert all(0.0 < v <= 1.0 for v in report["series"]["w_d"])
        # Angle is undefined only while the general direction is still zero.
        assert all(v is None or np.isfinite(v) for v in report["series"]["angle_deg"])

    def test_report_numbers_finite(self):
        cfg = config_dict(method="rest", decouple=True)
        cfg["synth"]["corruptions"] = [{"kind": "uniformity_collapse", "rho": 0.8}]
        report = cmd_adapt(parse_config(cfg))

        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            elif isinstance(x, float):
                assert np.isfinite(x)

        walk(report)


class TestCmdProbe:
    def test_identity_lambdas_match_none_run(self):
        cfg = parse_config(config_dict(method="none"))
        none_report = cmd_adapt(cfg)
        probe = cmd_probe(cfg, [1.0], [0.0])
        scale_row = probe["probe"]["scale"][0]
        offset_row = probe["probe"]["offset"][0]
        assert scale_row["recall"] == none_report["recall"]
        assert offset_row["recall"] == none_report["recall"]
        assert scale_row["uniformity"] == none_report["initial"]["uniformity"]

    def test_scale_grid_rows(self):
        cfg = config_dict(method="none")
        cfg["synth"]["corruptions"] = [{"kind": "uniformity_collapse", "rho": 0.8}]
        probe = cmd_probe(parse_config(cfg), [1.0, 1.5, 2.0], [0.0])
        lams = [row["lambda"] for row in probe["probe"]["scale"]]
        assert lams == [1.0, 1.5, 2.0]


def offset_analytic_gradients(monkeypatch):
    """Negative control: every analytic gradient the gate checks is off by 1e-2."""
    grad = losses.param_grad
    monkeypatch.setattr(losses, "param_grad", lambda state, dz: grad(state, dz) + 1e-2)


class TestCmdGradcheckAndMetrics:
    def test_gradcheck_passes(self):
        report = cmd_gradcheck(seed=0)
        assert report["passed"]
        assert report["max_relative_error"] < 1e-4

    def test_gradcheck_negative_control(self, monkeypatch):
        offset_analytic_gradients(monkeypatch)
        report = cmd_gradcheck(seed=0)
        assert not report["passed"]

    def test_metrics_report(self):
        report = cmd_metrics(parse_config(config_dict(method="none")))
        m = report["metrics"]
        assert 0.0 <= m["recall"]["1"] <= 1.0
        assert m["uniformity"] >= 0.0
        assert m["gap"] >= 0.0
        assert -1.0 <= m["consistency"] <= 1.0

    def test_stream_metrics_memory_bounded(self):
        # 2,048 queries x 8,192 items: a dense score or index matrix alone
        # would take 128 MB, so the peak shows whether scoring is blocked.
        rng = np.random.default_rng(0)
        gallery = Gallery(l2_normalize_rows(rng.standard_normal((8192, 32))))
        z = l2_normalize_rows(rng.standard_normal((2048, 32)))
        by_class = [frozenset(range(c, 8192, 64)) for c in range(64)]
        truth = GroundTruth.from_sets(tuple(by_class[i % 64] for i in range(2048)))
        tracemalloc.start()
        try:
            sums = relevant_sums(gallery.items, truth)
            metrics = _stream_metrics(z.__getitem__, cli._blocks(2048), gallery, truth, sums)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= metrics["recall"]["10"] <= 1.0
        assert peak < 64 * 2**20


class TestMainEntry:
    def test_adapt_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="none")), encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["--config", str(cfg_path), "adapt", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1

    def test_bad_config_exit_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="bogus")), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 2
        for bad in (
            config_dict(decouple="false"),
            config_dict(k=3.7),
            config_dict(batch=True),
            synth_config_dict(classes=8.9),
            synth_config_dict(seed=True),
            corruption_config_dict(delta=True),
            corruption_config_dict(domain=1.7),
            corruption_config_dict(parts=5),
            config_dict(synth=5),
            synth_config_dict(corruptions=5),
            synth_config_dict(corruptions=[5]),
            {"method": "none", "paths": 5},
            {"method": "none", "paths": {"gallery": 5, "queries": None, "ground_truth": "t"}},
            {"method": "none", "paths": {"gallery": "g", "queries": "q", "ground_truth": ["t"]}},
            config_dict(lr=math.inf),
            config_dict(tau=math.inf),
            synth_config_dict(sigma_query=math.nan),
            corruption_config_dict(delta=math.inf),
            config_dict(lr=10**400),
            config_dict(seed=-3),
            synth_config_dict(seed=-1),
            corruption_config_dict(domain=-1),
            5,
            None,
            [],
            "x",
        ):
            cfg_path.write_text(json.dumps(bad), encoding="utf-8")
            assert main(["--config", str(cfg_path), "adapt"]) == 2

    @pytest.mark.parametrize(
        "bad, message",
        [
            (config_dict(method="rest", seed=-3), "config: seed must be non-negative"),
            (synth_config_dict(seed=-1), "config.synth: seed must be non-negative"),
            (corruption_config_dict(domain=-1), "domain must be non-negative"),
        ],
    )
    def test_negative_seed_in_config_names_the_key(self, tmp_path, capsys, bad, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_override_exit_two(self, tmp_path, capsys):
        # --seed replaces the parsed config's seed, so it is checked on its own.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="rest")), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt", "--seed", "-2"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_synth_seed_flag_exit_two(self, tmp_path, capsys):
        # synth's data follow the synth block's seed, which --seed does not set.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict()), encoding="utf-8")
        out = tmp_path / "bench"
        assert main(["--config", str(cfg_path), "synth", "--out", str(out), "--seed", "5"]) == 2
        assert "synth.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["probe", "metrics"])
    def test_unseeded_command_seed_flag_exit_two(self, tmp_path, capsys, command):
        # probe and metrics build no centroids and draw nothing at random.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict()), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["--config", str(cfg_path), command, "--out", str(out), "--seed", "5"]) == 2
        assert f"{command} takes no --seed" in capsys.readouterr().err
        assert not out.exists()
        assert main(["--config", str(cfg_path), command, "--out", str(out)]) == 0

    def test_failed_gradcheck_exit_four(self, tmp_path, monkeypatch):
        offset_analytic_gradients(monkeypatch)
        out = tmp_path / "gradcheck.json"
        assert main(["gradcheck", "--out", str(out)]) == 4
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert report["max_relative_error"] >= report["tolerance"]

    def test_negative_gradcheck_seed_exit_two(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_exits_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps(config_dict()).replace('"k": 5', '"k": ' + "1" * 5000)
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 2

    def test_probe_bad_lambdas_exit_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="none")), encoding="utf-8")
        out = tmp_path / "probe.json"
        for flag, value in [
            ("--lambda-scale", "inf"),
            ("--lambda-scale", "1.0,nan"),
            ("--lambda-scale", "-1"),
            ("--lambda-scale", "0"),
            ("--lambda-offset", "nan"),
            ("--lambda-offset", "-inf"),
        ]:
            argv = ["--config", str(cfg_path), "probe", "--out", str(out), f"{flag}={value}"]
            assert main(argv) == 2, (flag, value)
        assert not out.exists()
        argv = ["--config", str(cfg_path), "probe", "--out", str(out),
                "--lambda-scale=0.5,2", "--lambda-offset=-0.5,0,1"]
        assert main(argv) == 0
        probe = json.loads(out.read_text())["probe"]
        assert [row["lambda"] for row in probe["offset"]] == [-0.5, 0.0, 1.0]

    def test_diverging_adapter_exit_three(self, tmp_path, monkeypatch, capsys):
        cfg = config_dict(method="rest", lr=1e300)
        cfg["synth"].update(dim=16, gallery_size=48, stream_length=128)
        cfg["synth"]["corruptions"] = [{"kind": "mean_shift", "delta": 1.0, "domain": 0}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "rep.json"
        argv = ["--config", str(cfg_path), "adapt", "--out", str(out)]
        # lr 1e300 keeps the parameters finite but overflows the row norms.
        assert main(argv) == 3
        assert "non-finite norm" in capsys.readouterr().err
        # A NaN gradient makes the stepped parameters themselves non-finite.
        cfg_path.write_text(json.dumps(config_dict(method="tent")), encoding="utf-8")
        monkeypatch.setattr(
            adapt, "_rem_grad", lambda state, w, n_act: (0.0, np.full(state.z.shape, np.nan))
        )
        assert main(argv) == 3
        assert "parameters are no longer finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg, command, flags",
        [
            (synth_config_dict(sigma_gallery=1e308), "adapt", []),
            (synth_config_dict(sigma_gallery=1e308), "metrics", []),
            (synth_config_dict(sigma_gallery=1e308), "probe", []),
            (synth_config_dict(sigma_query=1e308), "adapt", []),
            (synth_config_dict(sigma_query=1e308), "metrics", []),
            (corruption_config_dict(kind="gaussian_noise", sigma=1e308), "adapt", []),
            (config_dict(), "probe", ["--lambda-scale=1e308"]),
            (config_dict(), "probe", ["--lambda-offset=1e308"]),
        ],
        ids=["sigma_gallery-adapt", "sigma_gallery-metrics", "sigma_gallery-probe",
             "sigma_query-adapt", "sigma_query-metrics", "noise_sigma-adapt",
             "lambda_scale-probe", "lambda_offset-probe"],
    )
    def test_overflowing_values_exit_with_one_error_line(
        self, tmp_path, capsys, cfg, command, flags
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["--config", str(cfg_path), command, "--out", str(out), *flags]) in (2, 3)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["rest", "tent", "pl", "none"])
    @pytest.mark.parametrize("tau", [1e-320, 5e-309])
    def test_tau_without_finite_inverse_exits_two(self, tmp_path, capsys, tau, method):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method=method, tau=tau)), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: tau"), err

    # Scores over 6e-309 reach ~1.7e308; the softmax shift of the lowest
    # overflows to -inf, which must pass without a RuntimeWarning.
    @pytest.mark.parametrize("method", ["rest", "tent", "pl", "none"])
    def test_smallest_tau_with_finite_inverse_runs(self, tmp_path, method):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method=method, tau=6e-309)), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt", "--out", str(tmp_path / "r.json")]) == 0

    # The first array of each block needs over 1 PB, past the 128 TiB user
    # address space, so its allocation fails at once whatever the overcommit
    # policy. Never test a size near RAM.
    @pytest.mark.parametrize("command", ["synth", "adapt", "probe", "metrics"])
    @pytest.mark.parametrize(
        "over",
        [{"gallery_size": 10**15}, {"classes": 2, "dim": 10**14}],
        ids=["gallery_size", "dim"],
    )
    def test_synth_too_large_to_allocate_exits_two(self, tmp_path, capsys, command, over):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(synth_config_dict(**over)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), command, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config.synth:"), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [synth_config_dict(sigma_query=1e39), synth_config_dict(sigma_gallery=1e300)],
        ids=["sigma_query-float32-overflow", "sigma_gallery-float64-overflow"],
    )
    def test_synth_that_files_cannot_hold_exits_two_and_writes_nothing(
        self, tmp_path, capsys, cfg
    ):
        # Every file synth writes must load again: values past the float32
        # range would be stored as inf, which read_embeddings rejects.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_dir = tmp_path / "bench"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg_path), "synth", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config.synth:"), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["adapt", "metrics"])
    def test_empty_gallery_file_exit_three(self, tmp_path, capsys, command):
        files = cmd_synth(parse_config(config_dict()), tmp_path / "bench")["files"]
        write_emb1(files["gallery"], np.zeros((0, BASE_SYNTH["dim"])))
        cfg = {
            "method": "none",
            "paths": {
                "gallery": files["gallery"],
                "queries": files["queries_corrupt"],
                "ground_truth": files["ground_truth"],
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["--config", str(cfg_path), command]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad gallery file"), err

    @pytest.mark.parametrize("command", ["adapt", "metrics", "probe"])
    def test_empty_query_file_exit_three(self, tmp_path, capsys, command):
        files = cmd_synth(parse_config(config_dict()), tmp_path / "bench")["files"]
        write_emb1(files["queries_corrupt"], np.zeros((0, BASE_SYNTH["dim"])))
        Path(files["ground_truth"]).write_text("", encoding="utf-8")
        cfg = {
            "method": "none",
            "paths": {
                "gallery": files["gallery"],
                "queries": files["queries_corrupt"],
                "ground_truth": files["ground_truth"],
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["--config", str(cfg_path), command]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {files['queries_corrupt']}: no query rows"], err

    def test_missing_file_exit_three(self, tmp_path):
        cfg = {
            "method": "none",
            "paths": {
                "gallery": str(tmp_path / "missing.emb1"),
                "queries": str(tmp_path / "missing2.emb1"),
                "ground_truth": str(tmp_path / "missing.tsv"),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 3

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"method": "none"\xff}')
        assert main(["--config", str(cfg_path), "adapt"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_ground_truth_not_utf8_exit_three(self, tmp_path, capsys):
        files = cmd_synth(parse_config(config_dict()), tmp_path / "bench")["files"]
        Path(files["ground_truth"]).write_bytes(b"0\t1\n\xff\n")
        cfg = {
            "method": "none",
            "paths": {
                "gallery": files["gallery"],
                "queries": files["queries_corrupt"],
                "ground_truth": files["ground_truth"],
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["--config", str(cfg_path), "adapt"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="none")), encoding="utf-8")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["--config", str(cfg_path), "adapt", "--out", str(out_a), "--seed", "5"]) == 0
        assert main(["--config", str(cfg_path), "adapt", "--out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["config"]["seed"] == 5
        assert b["config"]["seed"] == 0

    def test_synth_writes_directory(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_dict(method="none")), encoding="utf-8")
        out_dir = tmp_path / "bench"
        assert main(["--config", str(cfg_path), "synth", "--out", str(out_dir)]) == 0
        assert (out_dir / "gallery.emb1").exists()
