"""Command line behavior: reports, determinism, and exit statuses."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import termlq
from termlq import GaussianSpec, IoError, TermLqError
from termlq.cli import main
from termlq.fileio import load_instance_file

from golden import EXACT_LAMBDA, FIXTURE_HASH, PRINTED_NU, example_instance
from qkernels import stage_dataset
from replay_logs import write_replay_log
from test_report_digests import write_random_instances


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_stderr(argv):
    # a child process, so numpy warnings reach a real stderr uncaught
    proc = subprocess.run([sys.executable, "-m", "termlq", *map(str, argv)],
                          capture_output=True, text=True, env=checkout_env())
    return proc.stderr.splitlines()


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def overflow_doc(N):
    # A = 1e200 overflows the backward pass: at N = 1 first in Gamma(0), at
    # N = 0 only in P(0), which no Gamma reads
    return {"n": 1, "m": 1, "N": N, "A": [[[1e200]]] * (N + 1), "B": [[[1.0]]] * (N + 1),
            "Q": [[1.0]], "R": [[1.0]], "H": [[1.0]], "x0": [0.0], "xi": [0.0],
            "learn": {"seed": 3}}


def unreachable_doc():
    # zero input matrix and off-drift target: no input sequence can help
    return {
        "n": 1, "m": 1, "N": 0,
        "A": [[[1]]], "B": [[[0]]],
        "Q": [[0]], "R": [[1]], "H": [[0]],
        "x0": [1], "xi": [5],
    }


class TestSolve:
    def test_report_content(self, fixture_file, capsys):
        code, out, _ = run_cli(["solve", "--instance", fixture_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["tool"]["name"] == "termlq"
        assert report["command"] == "solve"
        assert report["seed"] is None
        assert report["instance_hash"] == FIXTURE_HASH
        np.testing.assert_allclose(report["lambda_star"], EXACT_LAMBDA, rtol=1e-12)
        assert report["terminal_error"] <= 1e-6
        assert len(report["trajectory"]["states"]) == 4
        assert len(report["trajectory"]["inputs"]) == 3
        assert len(report["schedule"]["P"]) == 4
        assert len(report["schedule"]["K"]) == 3

    def test_reported_states_replay_through_dynamics(self, fixture_file, capsys):
        code, out, _ = run_cli(["solve", "--instance", fixture_file], capsys)
        assert code == 0
        report = json.loads(out)
        inst = example_instance()
        states = [np.array(s) for s in report["trajectory"]["states"]]
        inputs = [np.array(u) for u in report["trajectory"]["inputs"]]
        x = inst.x0
        np.testing.assert_allclose(states[0], x, atol=1e-12)
        for k in range(inst.N + 1):
            x = inst.A[k] @ x + inst.B[k] @ inputs[k]
            np.testing.assert_allclose(states[k + 1], x, atol=1e-12)

    def test_out_file_matches_stdout(self, fixture_file, tmp_path, capsys):
        out_path = tmp_path / "solve.json"
        code, out, _ = run_cli(
            ["solve", "--instance", fixture_file, "--out", out_path], capsys)
        assert code == 0
        assert out == ""
        code, stdout_text, _ = run_cli(["solve", "--instance", fixture_file], capsys)
        assert code == 0
        assert out_path.read_text() == stdout_text

    def test_repeat_runs_are_byte_identical(self, fixture_file, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert run_cli(["solve", "--instance", fixture_file, "--out", p1], capsys)[0] == 0
        assert run_cli(["solve", "--instance", fixture_file, "--out", p2], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestLearn:
    def test_report_matches_known_coefficients(self, fixture_file, capsys):
        code, out, _ = run_cli(["learn", "--instance", fixture_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 7
        assert report["samples"] == 30
        np.testing.assert_allclose(report["nu"][2], PRINTED_NU[2], atol=1e-6)
        assert report["terminal_error"] <= 1e-6
        assert max(report["fit"]["residuals"]) <= 1e-6
        np.testing.assert_allclose(report["lambda_star"], EXACT_LAMBDA, atol=1e-6)

    def test_seed_flag_overrides_instance_seed(self, fixture_file, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        run_cli(["learn", "--instance", fixture_file, "--out", p1], capsys)
        run_cli(["learn", "--instance", fixture_file, "--seed", 8, "--out", p2], capsys)
        r1 = json.loads(p1.read_text())
        r2 = json.loads(p2.read_text())
        assert r1["seed"] == 7
        assert r2["seed"] == 8
        assert r1["nu"] != r2["nu"]

    def test_repeat_runs_are_byte_identical(self, fixture_file, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert run_cli(["learn", "--instance", fixture_file, "--out", p1], capsys)[0] == 0
        assert run_cli(["learn", "--instance", fixture_file, "--out", p2], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_replay_log_reproduces_plant_run(self, fixture_file, tmp_path, capsys):
        # record the exact probe set the plant run will draw, then rerun
        # against the log alone: the reports must agree byte for byte
        inst = example_instance()
        datasets = [stage_dataset(inst, k, 30, GaussianSpec(), seed=7)
                    for k in range(inst.N + 1)]
        log_path = tmp_path / "probes.log"
        write_replay_log(datasets, log_path)

        from_plant = tmp_path / "plant.json"
        from_log = tmp_path / "log.json"
        assert run_cli(
            ["learn", "--instance", fixture_file, "--out", from_plant], capsys)[0] == 0
        assert run_cli(
            ["learn", "--instance", fixture_file, "--replay", log_path,
             "--out", from_log], capsys)[0] == 0
        assert from_plant.read_bytes() == from_log.read_bytes()

    def test_replay_missing_probe_exits_4(self, fixture_file, tmp_path, capsys):
        # only stage 0 recorded: the first short stage in the order N..0 is 2
        inst = example_instance()
        datasets = [stage_dataset(inst, k, 30, GaussianSpec(), seed=7) for k in range(3)]
        log_path = tmp_path / "partial.log"
        write_replay_log(datasets[:1], log_path)
        code, _, err = run_cli(
            ["learn", "--instance", fixture_file, "--replay", log_path], capsys)
        assert code == 4
        assert err == ("termlq learn: replay log has 0 records for stage 2, "
                       "fewer than the 30 samples per stage\n")
        # every stage recorded, stage 1 one record short of --samples
        write_replay_log(datasets, log_path)
        code, out, err = run_cli(
            ["learn", "--instance", fixture_file, "--replay", log_path, "--samples", "31"],
            capsys)
        assert code == 4
        assert json.loads(out)["error"]["code"] == "OracleMiss"
        assert "30 records for stage 2," in err
        lines = log_path.read_text().splitlines()
        del lines[45]
        log_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            ["learn", "--instance", fixture_file, "--replay", log_path], capsys)
        assert code == 4
        assert "29 records for stage 1," in err

    def test_replay_of_a_multi_block_learn_is_byte_identical(self, tmp_path, capsys):
        # the native (3, 2, 64) instance of long-verify spans three blocks of
        # stages; a replay learn reads neither the seed nor the distribution
        p = write_random_instances(tmp_path)["long"]
        inst = load_instance_file(p).instance
        log_path = tmp_path / "probes.log"
        write_replay_log([stage_dataset(inst, k, 36, GaussianSpec(), seed=7)
                          for k in range(inst.N + 1)], log_path)
        code, from_plant, _ = run_cli(["learn", "--instance", p, "--seed", 7], capsys)
        assert code == 0
        code, from_log, _ = run_cli(["learn", "--instance", p, "--seed", 7,
                                     "--replay", log_path], capsys)
        assert code == 0 and from_log == from_plant
        doc = json.loads(p.read_text())
        doc["learn"] = {"mean": 2.0, "covariance_scale": 3.0}
        p.write_text(json.dumps(doc))
        code, other_seed, _ = run_cli(["learn", "--instance", p, "--seed", 8,
                                       "--replay", log_path], capsys)
        assert code == 0
        assert other_seed == from_plant.replace('"seed": 7,', '"seed": 8,', 1)


class TestVerify:
    def test_comparison_certifies_agreement(self, fixture_file, capsys):
        code, out, _ = run_cli(["verify", "--instance", fixture_file], capsys)
        assert code == 0
        report = json.loads(out)
        comparison = report["comparison"]
        assert comparison["max_gain_error"] <= 1e-8
        assert comparison["lambda_error"] <= 1e-8
        assert abs(comparison["cost_gap"]) <= 1e-8
        assert max(comparison["terminal_errors"]) <= 1e-6
        assert comparison["kkt_residual"] <= 1e-8
        assert comparison["kkt_cost"] == pytest.approx(report["cost"], rel=1e-8)
        assert all(np.isfinite(comparison["per_stage_condition"]))


class TestReach:
    def test_reachable_instance_exits_0(self, fixture_file, capsys):
        code, out, _ = run_cli(["reach", "--instance", fixture_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["reachable"] is True
        assert report["g1_rank"] == 2
        assert report["zeta"] is not None

    def test_unreachable_instance_exits_3(self, tmp_path, capsys):
        p = write_doc(tmp_path, "stuck.json", unreachable_doc())
        code, out, _ = run_cli(["reach", "--instance", p], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["reachable"] is False
        assert report["g1_rank"] == 0
        assert report["zeta"] is None


class TestCampaign:
    def test_summary_shape_and_determinism(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        args = ["campaign", "--seed", 3, "--trials", 5]
        assert run_cli(args + ["--out", p1], capsys)[0] == 0
        assert run_cli(args + ["--out", p2], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        summary = json.loads(p1.read_text())["summary"]
        assert summary["trials"] == 5
        assert summary["completed"] == 5
        assert summary["failures"] == 0
        assert summary["gain_error"]["max"] <= 1e-6
        assert summary["terminal_error"]["max"] <= 1e-6
        assert summary["cost_gap"]["p95"] >= summary["cost_gap"]["median"]

    def test_missing_seed_exits_2(self, capsys):
        code, _, err = run_cli(["campaign", "--trials", 2], capsys)
        assert code == 2
        assert "seed is required" in err


class TestExitStatuses:
    def test_missing_instance_file_exits_5(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["solve", "--instance", tmp_path / "absent.json"], capsys)
        assert code == 5
        assert "termlq solve" in err
        assert json.loads(out)["error"]["code"] == "ParseError"

    def test_invalid_instance_exits_2(self, fixture_file, tmp_path, capsys):
        doc = json.loads(fixture_file.read_text())
        doc["R"] = [[0]]
        p = write_doc(tmp_path, "singular.json", doc)
        code, out, _ = run_cli(["solve", "--instance", p], capsys)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "ValidationError"

    def test_unreachable_solve_exits_3(self, tmp_path, capsys):
        p = write_doc(tmp_path, "stuck.json", unreachable_doc())
        code, out, _ = run_cli(["solve", "--instance", p], capsys)
        assert code == 3
        assert json.loads(out)["error"]["code"] == "NotReachable"

    def test_too_few_samples_exits_4(self, fixture_file, capsys):
        code, out, _ = run_cli(
            ["learn", "--instance", fixture_file, "--samples", 14], capsys)
        assert code == 4
        assert json.loads(out)["error"]["code"] == "InsufficientSamples"

    def test_learn_without_seed_exits_2(self, fixture_file, tmp_path, capsys):
        doc = json.loads(fixture_file.read_text())
        del doc["learn"]
        p = write_doc(tmp_path, "noseed.json", doc)
        code, out, err = run_cli(["learn", "--instance", p], capsys)
        assert code == 2
        assert "seed is required" in err
        assert json.loads(out)["error"]["code"] == "ValidationError"

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        doc = {"n": 1, "m": 1, "N": 1, "A": [[[1e10]], [[1e10]]],
               "B": [[[1.0]], [[1.0]]], "Q": [[1.0]], "R": [[1.0]], "H": [[1.0]],
               "x0": [1e300], "xi": [0.0]}
        p = write_doc(tmp_path, "overflow.json", doc)
        out_path = tmp_path / "fail.json"
        code, _, err = run_cli(["solve", "--instance", p, "--out", out_path], capsys)
        assert code == 2
        assert "non-finite" in err
        assert json.loads(out_path.read_text())["error"]["code"] == "NonFiniteState"
        # no numpy overflow warnings ahead of the one failure line
        assert child_stderr(["solve", "--instance", p]) == [
            "termlq solve: state at stage 1 is non-finite"]

    def test_non_finite_cost_exits_2(self, tmp_path, capsys):
        # every state is finite, but the cost overflows to inf
        doc = {"n": 1, "m": 1, "N": 1, "A": [[[10.0]], [[10.0]]],
               "B": [[[1.0]], [[1.0]]], "Q": [[1.0]], "R": [[1.0]], "H": [[1.0]],
               "x0": [1e307], "xi": [0.0]}
        p = write_doc(tmp_path, "costly.json", doc)
        code, out, _ = run_cli(["solve", "--instance", p], capsys)
        assert code == 2
        failure = json.loads(out)
        assert failure["error"]["code"] == "NonFiniteState"
        assert "cost" in failure["error"]["message"]
        for command in (["solve"], ["learn", "--seed", "1"], ["verify", "--seed", "1"]):
            assert child_stderr([*command, "--instance", p]) == [
                f"termlq {command[0]}: rollout cost is non-finite"]

    def test_reach_overflow_exits_2(self, tmp_path, capsys):
        # native A at N=400: the open-loop products of the Gramian overflow,
        # which is a typed failure, not an SVD traceback
        rng = np.random.default_rng(5)
        n, m, N = 8, 4, 400
        doc = {"n": n, "m": m, "N": N,
               "A": rng.standard_normal((N + 1, n, n)).tolist(),
               "B": rng.standard_normal((N + 1, n, m)).tolist(),
               "Q": np.eye(n).tolist(), "R": np.eye(m).tolist(), "H": np.eye(n).tolist(),
               "x0": rng.standard_normal(n).tolist(), "xi": rng.standard_normal(n).tolist()}
        p = write_doc(tmp_path, "long.json", doc)
        out_path = tmp_path / "fail.json"
        code, _, err = run_cli(["reach", "--instance", p, "--out", out_path], capsys)
        assert code == 2
        assert "non-finite" in err
        assert json.loads(out_path.read_text())["error"]["code"] == "NonFiniteState"
        assert child_stderr(["reach", "--instance", p]) == [
            "termlq reach: reachability Gramian or drift term is non-finite at N=400"]

    @pytest.mark.parametrize("N, message", [
        (1, "Gamma(0) is non-finite: the backward pass overflows"),
        (0, "P(0) is non-finite: the backward pass overflows"),
    ])
    def test_backward_pass_overflow_exits_2(self, tmp_path, N, message):
        p = write_doc(tmp_path, "overflow.json", overflow_doc(N))
        for command, failure in (("solve", message), ("verify", message),
                                 ("learn", f"stage {N} fitted kernel is non-finite")):
            proc = subprocess.run([sys.executable, "-m", "termlq", command, "--instance", str(p)],
                                  capture_output=True, text=True, env=checkout_env())
            assert proc.returncode == 2
            assert proc.stderr.splitlines() == [f"termlq {command}: {failure}"]
            report = json.loads(proc.stdout)
            assert report["error"] == {"code": "NonFiniteState", "message": failure}
            assert report["seed"] == (None if command == "solve" else 3)

    @pytest.mark.parametrize("truncate", [False, True])
    def test_undecodable_instance_exits_5(self, fixture_file, tmp_path, capsys, truncate):
        text = fixture_file.read_bytes()
        bad = text.replace(b'"x0": [1, 2]', b'"x0": [1, \xe92]')
        assert bad != text
        if truncate:   # cut in the middle of the line after the bad byte
            bad = bad[:bad.index(b'"xi"') + 3]
        p = tmp_path / "bad.json"
        p.write_bytes(bad)
        code, out, err = run_cli(["solve", "--instance", p], capsys)
        assert code == 5
        assert json.loads(out)["error"]["code"] == "ParseError"
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("truncate", [False, True])
    def test_undecodable_replay_log_exits_5(self, fixture_file, tmp_path, capsys, truncate):
        inst = example_instance()
        log_path = tmp_path / "probes.log"
        write_replay_log([stage_dataset(inst, k, 30, GaussianSpec(), seed=7)
                          for k in range(inst.N + 1)], log_path)
        lines = log_path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b".", b"\xe9", 1)
        if truncate:   # the log ends in the middle of the line with the bad byte
            lines = lines[:2] + [lines[2][:len(lines[2]) // 2]]
        log_path.write_bytes(b"\n".join(lines))
        code, out, err = run_cli(["learn", "--instance", fixture_file, "--replay", log_path],
                                 capsys)
        assert code == 5
        failure = json.loads(out)
        assert failure["error"]["code"] == "ParseError"
        assert failure["seed"] == 7
        assert len(err.splitlines()) == 1

    def test_unwritable_out_exits_5(self, fixture_file, tmp_path, capsys):
        out_path = tmp_path / "absent_dir" / "solve.json"
        code, out, err = run_cli(
            ["solve", "--instance", fixture_file, "--out", out_path], capsys)
        assert code == 5
        assert "cannot write" in err
        # the failure report falls back to stdout
        assert json.loads(out)["error"]["code"] == "IoError"
        assert not out_path.parent.exists()

    def test_failure_report_written_to_out(self, tmp_path, capsys):
        p = write_doc(tmp_path, "stuck.json", unreachable_doc())
        out_path = tmp_path / "fail.json"
        code, _, _ = run_cli(
            ["solve", "--instance", p, "--out", out_path], capsys)
        assert code == 3
        failure = json.loads(out_path.read_text())
        assert failure["command"] == "solve"
        assert failure["error"]["code"] == "NotReachable"


def declared_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def checkout_env():
    # children import the termlq this suite imported, not an installed one
    src = str(Path(termlq.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
    return env


class TestLearnBlock:
    """Bad learn-block values fail as typed errors in a child process: one
    stderr line, the JSON failure report on stdout (nothing ahead of it) and
    the class's exit status."""

    @pytest.mark.parametrize("entries, code, error, message", [
        ('"seed": "x"', 5, "ParseError", "key 'learn.seed': expected an integer, found str"),
        ('"seed": 1.5', 5, "ParseError", "key 'learn.seed': expected an integer, found float"),
        ('"seed": true', 5, "ParseError", "key 'learn.seed': expected an integer, found bool"),
        ('"seed": 7, "l": "30"', 5, "ParseError", "key 'learn.l': expected an integer, found str"),
        ('"seed": 7, "l": 30.5', 5, "ParseError", "key 'learn.l': expected an integer, found float"),
        ('"seed": 7, "mean": NaN', 5, "ParseError",
         "key 'learn.mean': expected a finite number, found nan"),
        ('"seed": 7, "mean": "0"', 5, "ParseError",
         "key 'learn.mean': expected a number, found str"),
        ('"seed": 7, "covariance_scale": 1e999', 5, "ParseError",
         "key 'learn.covariance_scale': expected a finite number, found inf"),
        ('"seed": 7, "mean": 1e200', 2, "NonFiniteState",
         "probe regressors are non-finite: the probes overflow when squared"),
    ])
    def test_bad_value_is_a_typed_failure(self, fixture_file, tmp_path, entries, code, error,
                                          message):
        doc = json.loads(fixture_file.read_text())
        doc["learn"] = "LEARN"
        p = tmp_path / "learn_block.json"
        p.write_text(json.dumps(doc).replace('"LEARN"', "{" + entries + "}"))
        proc = subprocess.run([sys.executable, "-m", "termlq", "learn", "--instance", str(p)],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == code
        assert proc.stderr.splitlines() == [f"termlq learn: {message}"]
        assert json.loads(proc.stdout)["error"] == {"code": error, "message": message}


FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "example_instance.json"
# the fixture rows whose overflow reaches a range test, or fails before one
OVERFLOW_ROWS = {f"{field}=1e+200" for field in ("A", "B", "x0", "xi")}


def extreme_docs():
    """(id, instance document): the fixture with the first entry of one
    field set to one extreme value, then the two backward-pass overflows."""
    for field in ("A", "B", "Q", "R", "H", "x0", "xi"):
        for value in (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e154, 1e-320, -0.0):
            doc = json.loads(FIXTURE.read_text())
            entry = doc[field]
            while isinstance(entry[0], list):
                entry = entry[0]
            entry[0] = value
            yield f"{field}={value!r}", json.dumps(doc)
    for N in (1, 0):
        yield f"overflow-N{N}", json.dumps(overflow_doc(N))


def _lists(value):
    # every list nested in a JSON value, outermost first
    if isinstance(value, list):
        yield value
        for v in value:
            yield from _lists(v)


def mutated_docs():
    """(id, instance document text): the fixture under one seeded random
    mutation each, drawn with stdlib random: a wrong shape, a missing,
    extra or retyped key, or the file cut at a random byte."""
    text = FIXTURE.read_text()
    rng = random.Random(18)
    for key in ("A", "B", "Q", "R", "H", "x0", "xi"):
        for how in ("drop", "repeat", "wrap", "unwrap"):
            doc = json.loads(text)
            target = rng.choice(list(_lists(doc[key])))
            if how == "drop":
                del target[rng.randrange(len(target))]
            elif how == "repeat":
                target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(target)))
            else:
                doc[key] = [doc[key]] if how == "wrap" else doc[key][0]
            yield f"shape-{key}-{how}", json.dumps(doc)
    retypes = ("2", 2.5, True, None, {}, [], [["x"]], -1, 10 ** 30)
    for key in ("n", "m", "N", "A", "B", "Q", "R", "H", "x0", "xi", "learn"):
        doc = json.loads(text)
        del doc[key]
        yield f"missing-{key}", json.dumps(doc)
        doc = json.loads(text)
        doc[key] = rng.choice(retypes)
        yield f"retyped-{key}", json.dumps(doc)
        if key in ("n", "m", "N", "learn"):
            continue
        doc = json.loads(text)
        entry = rng.choice([v for v in _lists(doc[key]) if not isinstance(v[0], list)])
        entry[rng.randrange(len(entry))] = rng.choice(("1", "x", True, None, [1.0], {}))
        yield f"retyped-entry-{key}", json.dumps(doc)
    for where, extra in (("root", {"extra": 1}), ("learn", {"bogus": 1})):
        doc = json.loads(text)
        (doc if where == "root" else doc["learn"]).update(extra)
        yield f"extra-key-{where}", json.dumps(doc)
    for cut in sorted(rng.sample(range(len(text)), 12)):
        yield f"truncated-at-{cut}", text[:cut]


def replay_mutations():
    """(id, mutation of the list of replay-log lines, given a random.Random):
    one damage each to the log of the fixture's learn run (seed 7, l = 30)."""
    def edit_field(value):
        def mutate(lines, rng):
            i = rng.randrange(len(lines))
            fields = lines[i].split()
            fields[rng.randrange(len(fields))] = value
            lines[i] = " ".join(fields)
        return mutate

    def set_stage(stage):
        def mutate(lines, rng):
            i = rng.randrange(len(lines))
            lines[i] = " ".join([str(stage), *lines[i].split()[1:]])
        return mutate

    def field_count(delta):
        def mutate(lines, rng):
            i = rng.randrange(len(lines))
            fields = lines[i].split()
            lines[i] = " ".join(fields[:delta] if delta < 0 else fields + ["1.0"] * delta)
        return mutate

    def truncate_last(lines, rng):
        lines[-1] = lines[-1][:rng.randrange(1, len(lines[-1]))]

    def drop_row(lines, rng):
        del lines[rng.randrange(len(lines))]

    yield from (("fields-short", field_count(-1)), ("fields-long", field_count(2)),
                ("non-numeric", edit_field("x")), ("non-finite", edit_field("nan")),
                ("non-integer-stage", set_stage(1.5)),
                ("stage-beyond-N", set_stage(3)), ("stage-negative", set_stage(-1)),
                ("stage-beyond-int64", set_stage(2 ** 63)), ("truncated-last-line", truncate_last),
                ("truncated-last-line-again", truncate_last), ("unrecorded-row", drop_row))


EXTREME_DOCS = dict(extreme_docs())
MUTATED_DOCS = dict(mutated_docs())
REPLAY_MUTATIONS = dict(replay_mutations())
# the damaged logs that parse: a stage left one record short of l = 30
REPLAY_ERRORS = dict.fromkeys(("stage-beyond-N", "stage-negative", "unrecorded-row"),
                              "OracleMiss")


def check_contract(argv, seed, capsys) -> dict:
    """Run one command in-process with warnings raised as errors: a class
    exit code and one JSON report carrying the seed used; a failure names a
    TermLqError class (never IoError, never an eigenvalue nan or inf) on one
    stderr line. Returns the report."""
    command = argv[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["seed"] == (seed if command in ("learn", "verify") else None), command
    if "error" not in report:
        assert code == (3 if report.get("reachable") is False else 0), command
        assert err == "", command
        return report
    error = report["error"]
    cls = getattr(termlq, error["code"])
    assert issubclass(cls, TermLqError) and cls is not IoError, (command, error)
    assert code == cls.exit_code, (command, error)
    assert err.splitlines() == [f"termlq {command}: {error['message']}"]
    assert not re.search(r"eigenvalue -?(nan|inf)", error["message"]), (command, error)
    return report


def settled_seed(path):
    # the seed learn and verify report: the instance's, or None when the
    # file is refused before any seed is settled
    try:
        with np.errstate(all="ignore"):
            return load_instance_file(path).seed
    except TermLqError:
        return None


class TestExtremeValues:
    """Every command on every extreme or mutated instance document, and
    learn on every damaged replay log, under check_contract."""

    @pytest.mark.parametrize("name", list(EXTREME_DOCS))
    def test_typed_outcome(self, name, tmp_path, capsys):
        p = tmp_path / "extreme.json"
        p.write_text(EXTREME_DOCS[name])
        for command in ("solve", "reach", "learn", "verify"):
            report = check_contract([command, "--instance", p], settled_seed(p), capsys)
            if name in OVERFLOW_ROWS:
                assert report["error"]["code"] == "NonFiniteState", (command, report["error"])

    @pytest.mark.parametrize("name", list(MUTATED_DOCS))
    def test_mutated_instance(self, name, tmp_path, capsys):
        p = tmp_path / "mutated.json"
        p.write_text(MUTATED_DOCS[name])
        for command in ("solve", "reach", "learn", "verify"):
            report = check_contract([command, "--instance", p], settled_seed(p), capsys)
            if name.startswith("retyped"):
                assert report["error"]["code"] == "ParseError", (command, report["error"])

    @pytest.mark.parametrize("name", list(REPLAY_MUTATIONS))
    def test_mutated_replay_log(self, name, fixture_file, tmp_path, capsys):
        log_path = tmp_path / "probes.log"
        inst = example_instance()
        write_replay_log([stage_dataset(inst, k, 30, GaussianSpec(), seed=7)
                          for k in range(inst.N + 1)], log_path)
        lines = log_path.read_text().splitlines()
        REPLAY_MUTATIONS[name](lines, random.Random(f"replay-{name}"))
        log_path.write_text("\n".join(lines) + "\n")
        report = check_contract(["learn", "--instance", fixture_file, "--replay", log_path], 7,
                                capsys)
        assert report["error"]["code"] == REPLAY_ERRORS.get(name, "ParseError")


class TestEntryPoint:
    def test_installed_script_runs(self, fixture_file, tmp_path):
        # the wrapper pip writes for the [project.scripts] entry, so the
        # declared target is exercised without installing the package, and
        # the package run as a module
        module, attr = (part.strip() for part in declared_script("termlq").split(":"))
        script = tmp_path / "termlq"
        script.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
        for launcher in ([str(script)], ["-m", "termlq"]):
            proc = subprocess.run(
                [sys.executable, *launcher, "reach", "--instance", str(fixture_file)],
                capture_output=True, text=True, env=checkout_env())
            assert proc.returncode == 0, (launcher, proc.stderr)
            assert json.loads(proc.stdout)["reachable"] is True

    def test_unknown_command_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from termlq.cli import main; raise SystemExit(main(['shrink']))"],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr
