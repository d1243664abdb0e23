import copy
import json
import struct

import numpy as np
import pytest

from queryshift.cli import (
    cmd_adapt,
    cmd_gradcheck,
    cmd_metrics,
    cmd_probe,
    cmd_synth,
    main,
    parse_config,
    read_embeddings,
    read_ground_truth,
    write_embeddings,
    write_ground_truth,
)
from queryshift.errors import BadConfigError, BadInputError
from queryshift.synth import GroundTruth

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


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.emb1"
        write_embeddings(path, arr)
        back = read_embeddings(path)
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_embeddings(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        magic, n, d = struct.unpack_from("<4sII", blob)
        assert magic == b"EMB1"
        assert (n, d) == (2, 3)
        assert len(blob) == 12 + 4 * 2 * 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_embeddings(path, np.zeros((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadInputError):
            read_embeddings(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.emb1"
        write_embeddings(path, np.zeros((2, 3)))
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


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        truth = GroundTruth(relevant=(frozenset({1, 3}), frozenset({0})))
        path = tmp_path / "gt.tsv"
        write_ground_truth(path, truth)
        back = read_ground_truth(path, 2, 4)
        assert back.relevant == truth.relevant

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

    def test_rest_first_step_source_coincidence(self):
        cfg = parse_config(config_dict(method="rest", decouple=True))
        report = cmd_adapt(cfg)
        assert report["series"]["d_kl"][0] == pytest.approx(0.0, abs=1e-12)
        assert report["series"]["w_d"][0] == 1.0

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


class TestCmdGradcheckAndMetrics:
    def test_gradcheck_passes(self):
        report = cmd_gradcheck(seed=0)
        assert report["passed"]
        assert report["max_relative_error"] < 1e-4

    def test_gradcheck_negative_control(self):
        report = cmd_gradcheck(seed=0, perturb=1e-2)
        assert not report["passed"]

    def test_metrics_report(self):
        report = cmd_metrics(parse_config(config_dict(method="none")))
        m = report["metrics"]
        assert 0.0 <= m["recall"]["1"] <= 1.0
        assert m["uniformity"] >= 0.0
        assert m["gap"] >= 0.0
        assert -1.0 <= m["consistency"] <= 1.0


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
        for bad in ({"decouple": "false"}, {"k": 3.7}, {"batch": True}):
            cfg_path.write_text(json.dumps(config_dict(**bad)), encoding="utf-8")
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
