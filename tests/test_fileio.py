"""Instance parsing, deterministic reports, hashing, and replay logs."""

from __future__ import annotations

import hashlib
import json
import re
import struct

import numpy as np
import pytest

import termlq.cli
import termlq.fileio
from termlq import (
    GaussianSpec,
    IoError,
    ParseError,
    ValidationError,
    make_instance,
)
from termlq.fileio import (
    dumps_report,
    instance_hash,
    load_instance_file,
    read_replay_log,
    write_report,
)
from termlq.qlearn import ReplayLog, StageDataset

from golden import FIXTURE_HASH, example_instance
from qkernels import stage_dataset
from reference_report import reference_dumps_report
from replay_logs import write_replay_log


class TestLoadInstance:
    def test_fixture_matches_builtin_example(self, fixture_file):
        doc = load_instance_file(fixture_file)
        inst = doc.instance
        ref = example_instance()
        assert (inst.n, inst.m, inst.N) == (2, 1, 2)
        for k in range(3):
            np.testing.assert_array_equal(inst.A[k], ref.A[k])
            np.testing.assert_array_equal(inst.B[k], ref.B[k])
        np.testing.assert_array_equal(inst.x0, ref.x0)
        np.testing.assert_array_equal(inst.xi, ref.xi)
        assert doc.l == 30
        assert doc.seed == 7
        assert doc.dist == GaussianSpec(mean=0.0, covariance_scale=1.0)

    def test_load_instance_drops_learn_block(self, fixture_file):
        inst = load_instance_file(fixture_file).instance
        np.testing.assert_array_equal(inst.xi, [6.0, 7.0])

    def test_short_matrix_list_names_key(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["A"] = doc["A"][:2]
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"key 'A': expected length 3, found 2"):
            load_instance_file(p)

    def test_bad_matrix_shape_names_index(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["B"][1] = [[2, 0], [1, 0]]
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"key 'B\[1\]'"):
            load_instance_file(p)

    def test_stack_of_one_wrong_shape_names_first_index(self, fixture_file, tmp_path):
        # every B(k) transposed: the stack converts, but to the wrong shape
        doc = json.loads(fixture_file.read_text())
        doc["B"] = [[list(col) for col in zip(*M)] for M in doc["B"]]
        p = tmp_path / "transposed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                "key 'B[0]': expected shape (2, 1), found shape (1, 2)")):
            load_instance_file(p)

    @pytest.mark.parametrize("key, index, value, found", [
        ("Q", (1, 1), "1", "str"), ("B", (2, 0, 0), True, "bool"),
        ("A", (0, 1, 0), None, "NoneType"), ("x0", (1,), "x", "str"), ("xi", (0,), {}, "dict"),
        ("H", (0, 1), False, "bool"), ("A", (2, 1, 1), "5", "str"), ("A", (2, 0, 0), True, "bool"),
        ("A", (2, 1, 0), None, "NoneType"), ("B", (1, 1, 0), "1", "str"),
        ("B", (0, 0, 0), False, "bool"), ("B", (2, 1, 0), None, "NoneType")])
    def test_non_number_entry_names_key_and_index(self, fixture_file, tmp_path, key, index,
                                                  value, found):
        # the learn block's number rule, applied to every matrix and vector entry
        doc = json.loads(fixture_file.read_text())
        entry = doc[key]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = value
        p = tmp_path / "retyped.json"
        p.write_text(json.dumps(doc))
        where = re.escape(key + "".join(f"[{i}]" for i in index))
        with pytest.raises(ParseError, match=f"key '{where}': expected a number, found {found}"):
            load_instance_file(p)

    def test_integer_beyond_float_range_is_a_parse_error(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["Q"][0][0] = 10 ** 400
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="key 'Q': not numeric"):
            load_instance_file(p)

    @pytest.mark.parametrize("key, index", [("A", (2, 1, 0)), ("B", (1, 0, 0))])
    def test_integer_beyond_float_range_in_a_stack_names_the_matrix(self, fixture_file,
                                                                     tmp_path, key, index):
        doc = json.loads(fixture_file.read_text())
        k, i, j = index
        doc[key][k][i][j] = 10 ** 400
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=rf"key '{key}\[{k}\]': not numeric"):
            load_instance_file(p)

    @pytest.mark.parametrize("key, value, found", [
        ("A", "x", "str"), ("A", True, "bool"), ("B", None, "NoneType")])
    def test_non_number_in_a_ragged_row_names_key_and_index(self, fixture_file, tmp_path,
                                                           key, value, found):
        # row 1 of stage 1 one entry longer than row 0, the extra entry not a number
        doc = json.loads(fixture_file.read_text())
        row = doc[key][1][1]
        row.append(value)
        p = tmp_path / "ragged.json"
        p.write_text(json.dumps(doc))
        where = re.escape(f"{key}[1][1][{len(row) - 1}]")
        with pytest.raises(ParseError, match=f"key '{where}': expected a number, found {found}"):
            load_instance_file(p)

    def test_stacks_match_the_per_matrix_parse_bit_for_bit(self, fixture_file, tmp_path,
                                                          monkeypatch):
        # ints, exact and rounded, mixed with floats, signed zeros and the
        # extremes of the float range
        doc = json.loads(fixture_file.read_text())
        doc["A"][1] = [[0, 2 ** 53 + 1], [-(2 ** 63), 2 ** 64 + 1]]
        doc["A"][2] = [[10 ** 300, -0.0], [1.7976931348623157e308, -5e-324]]
        doc["B"][0] = [[1 / 3], [-(2 ** 63) - 1]]
        doc["B"][2] = [[0.0], [7]]
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(doc))
        converted = []
        as_array = termlq.fileio._as_array

        def recording(value, key, shape):
            converted.append(key)
            return as_array(value, key, shape)

        monkeypatch.setattr(termlq.fileio, "_as_array", recording)
        inst = load_instance_file(p).instance
        # one conversion per stack: no stage matrix went through _as_array
        assert converted == ["Q", "R", "H", "x0", "xi"]
        for key, stack in (("A", inst.A), ("B", inst.B)):
            per_matrix = np.stack([as_array(M, f"{key}[{k}]", stack.shape[1:])
                                   for k, M in enumerate(doc[key])])
            by_float = np.array([float(v) for v in np.ravel(doc[key])]).reshape(stack.shape)
            assert stack.dtype == np.float64
            assert stack.tobytes() == per_matrix.tobytes() == by_float.tobytes(), key

    def test_missing_key_reported(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        del doc["x0"]
        p = tmp_path / "nox0.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"key 'x0' is missing"):
            load_instance_file(p)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(ParseError, match="document root"):
            load_instance_file(p)

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ParseError, match="expected an object"):
            load_instance_file(p)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_instance_file(tmp_path / "absent.json")

    def test_unknown_learn_key_rejected(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["learn"]["episodes"] = 10
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"unknown entries \['episodes'\]"):
            load_instance_file(p)

    def test_nonpositive_covariance_scale_rejected(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["learn"]["covariance_scale"] = 0.0
        p = tmp_path / "zerocov.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="covariance_scale"):
            load_instance_file(p)

    def test_null_learn_entries_count_as_absent(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["learn"] = {"l": None, "seed": 7, "mean": None, "covariance_scale": None}
        p = tmp_path / "nulls.json"
        p.write_text(json.dumps(doc))
        loaded = load_instance_file(p)
        assert (loaded.l, loaded.seed, loaded.dist) == (None, 7, GaussianSpec())

    def test_invalid_instance_is_a_validation_error(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["R"] = [[0]]
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="R_pd"):
            load_instance_file(p)

    def test_bool_dimension_rejected(self, fixture_file, tmp_path):
        doc = json.loads(fixture_file.read_text())
        doc["N"] = True
        p = tmp_path / "boolN.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"key 'N': expected an integer"):
            load_instance_file(p)


class TestReports:
    def test_round_trip_preserves_values(self, tmp_path):
        report = {
            "name": "solve",
            "count": 3,
            "ok": True,
            "none": None,
            "lam": [-7.2802313354363903, -6.646109358569916],
            "nested": {"P": [[1.5, 0.25], [0.25, 2.0]]},
        }
        p = tmp_path / "r.json"
        write_report(report, p)
        back = json.loads(p.read_text())
        assert back["name"] == "solve"
        assert back["count"] == 3
        assert back["ok"] is True
        assert back["none"] is None
        np.testing.assert_array_equal(back["lam"], report["lam"])
        np.testing.assert_array_equal(back["nested"]["P"], report["nested"]["P"])

    def test_identical_reports_are_byte_identical(self, tmp_path):
        report = {"a": 1 / 3, "b": [np.float64(0.1), 2], "c": {"d": -0.0}}
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floats_rendered_at_full_precision(self):
        text = dumps_report({"v": 1 / 3})
        assert "0.33333333333333331" in text
        assert float(json.loads(text)["v"]) == 1 / 3
        # lists and tuples render element by element, as the reference
        # does; float64 arrays take the stacked path, swept below
        cases = [
            ([True, 1, 2.0], "[true, 1, 2]"),
            ([10**20, 1.0], "[100000000000000000000, 1]"),
            (-0.0, "-0"),
            ([-0.0, 1.5], "[-0, 1.5]"),
            (5e-324, "4.9406564584124654e-324"),
            ([5e-324, 1 / 3], "[4.9406564584124654e-324, 0.33333333333333331]"),
            ((0.5, -2.0), "[0.5, -2]"),
            ([], "[]"),
            ((), "[]"),
        ]
        for value, rendered in cases:
            text = dumps_report({"v": value})
            assert text == f'{{\n  "v": {rendered}\n}}\n', value
            assert text == reference_dumps_report({"v": value}), value

    @pytest.mark.parametrize("shape", [(1,), (7,), (1, 1), (7, 1), (1, 7), (5, 3), (0,),
                                       (0, 7), (7, 0)])
    def test_float_arrays_render_as_the_reference(self, shape):
        a = np.random.default_rng(5).standard_normal(shape)
        for report in ({"v": a}, {"v": {"w": a, "n": 1}}, {"v": {"w": {"x": [a], "y": a}}}):
            assert dumps_report(report) == reference_dumps_report(report), shape

    def test_float_bit_patterns_render_as_the_reference(self):
        bits = np.random.default_rng(6).integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
        special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1 / 3]
        floats = bits.view(np.float64)
        a = np.concatenate([special, floats[np.isfinite(floats)]])
        assert len(a) > 9_900
        for value in (a, a[:9_900].reshape(99, 100)):
            report = {"v": {"w": value}}
            assert dumps_report(report) == reference_dumps_report(report)
        assert dumps_report({"v": a[:5]}) == (
            '{\n  "v": [0, -0, 4.9406564584124654e-324, -4.9406564584124654e-324, '
            '1.7976931348623157e+308]\n}\n')

    def test_float_array_views_render_as_the_reference(self):
        a = np.random.default_rng(7).standard_normal((6, 9))
        frozen = a.copy()
        frozen.setflags(write=False)
        for view in (a.T, a[::2, ::3], a[:, 1], a[::-1, ::-2], a.T[1:4], frozen,
                     frozen[1:, ::2], np.broadcast_to(a[0], (3, 9))):
            report = {"v": {"w": view}}
            assert dumps_report(report) == reference_dumps_report(report), view.strides

    def test_other_arrays_render_as_lists(self):
        cases = [
            (np.array([[1, -2], [2 ** 62, 0]]),
             "[\n    [1, -2],\n    [4611686018427387904, 0]\n  ]"),
            (np.array([True, False]), "[true, false]"),
            (np.array([0.5, -2.0], dtype=np.float32), "[0.5, -2]"),
            (np.array(2.5), "2.5"),
            (np.zeros((2, 2, 1)), "[\n    [\n      [0],\n      [0]\n    ],\n"
                                  "    [\n      [0],\n      [0]\n    ]\n  ]"),
        ]
        for value, rendered in cases:
            text = dumps_report({"v": value})
            assert text == f'{{\n  "v": {rendered}\n}}\n', value
            assert text == reference_dumps_report({"v": value}), value

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_in_a_float_array_refused(self, bad):
        for index in ((0, 0), (2, 3), (4, 0), (0, 6), (4, 6)):
            a = np.ones((5, 7))
            a[index] = bad
            for value in (a, a.T, a[index[0]]):
                with pytest.raises(IoError, match="non-finite value in report"):
                    dumps_report({"v": {"w": value}})

    def test_numpy_scalars_serialize_like_python(self):
        assert dumps_report({"v": np.float64(2.5)}) == dumps_report({"v": 2.5})
        assert dumps_report({"v": np.int64(4)}) == dumps_report({"v": 4})

    def test_non_finite_value_refused(self):
        for value in (float("inf"), [1.0, float("nan")], [float("inf")],
                      np.array([1.0, np.nan])):
            with pytest.raises(IoError, match="non-finite"):
                dumps_report({"v": value})

    def test_unserializable_type_refused(self):
        for value in ({1, 2}, np.True_, [1.0, np.True_]):
            with pytest.raises(IoError, match="cannot serialize"):
                dumps_report({"v": value})


def long_instance():
    # standard-normal data at (n, m, N) = (8, 4, 64) with A scaled by
    # 1/(2 sqrt n), so the open-loop products stay bounded and the model
    # path solves it at this horizon
    n, m, N = 8, 4, 64
    rng = np.random.default_rng(0)
    A = [rng.standard_normal((n, n)) / (2 * np.sqrt(n)) for _ in range(N + 1)]
    B = [rng.standard_normal((n, m)) for _ in range(N + 1)]
    return make_instance(A, B, np.eye(n), np.eye(m), np.eye(n),
                         rng.standard_normal(n), rng.standard_normal(n))


def instance_doc(inst):
    return {
        "n": inst.n, "m": inst.m, "N": inst.N,
        "A": [a.tolist() for a in inst.A], "B": [b.tolist() for b in inst.B],
        "Q": inst.Q.tolist(), "R": inst.R.tolist(), "H": inst.H.tolist(),
        "x0": inst.x0.tolist(), "xi": inst.xi.tolist(),
    }


class TestReferenceSerializer:
    """dumps_report against the per-element reference in
    tests/reference_report.py, on the reports the command line writes, and
    instance_hash against the bytes it hashes, packed by struct."""

    def _reports(self, argv, capsys, monkeypatch):
        seen = []

        def recording(report):
            seen.append(report)
            return dumps_report(report)

        monkeypatch.setattr(termlq.cli, "dumps_report", recording)
        code = termlq.cli.main([str(a) for a in argv])
        out = capsys.readouterr().out
        assert code == 0
        assert len(seen) == 1
        assert out == dumps_report(seen[0])
        return seen[0]

    STACKS = ("schedule.P", "schedule.K", "schedule.K1", "nu", "fit.residuals",
              "fit.conditions", "lambda_star", "trajectory.states", "trajectory.inputs",
              "comparison.per_stage_condition", "zeta")

    def test_fixture_reports_match_reference(self, fixture_file, capsys, monkeypatch):
        found = set()
        for argv in (["solve", "--instance", fixture_file],
                     ["learn", "--instance", fixture_file, "--seed", 7, "--samples", 30],
                     ["verify", "--instance", fixture_file],
                     ["reach", "--instance", fixture_file]):
            report = self._reports(argv, capsys, monkeypatch)
            assert dumps_report(report) == reference_dumps_report(report), argv[0]
            # every per-stage stack reaches the writer as an array: as
            # .tolist() rows it renders the same bytes one float at a time
            for path in self.STACKS:
                value = report
                for part in path.split("."):
                    value = value.get(part) if isinstance(value, dict) else None
                if value is not None:
                    assert isinstance(value, np.ndarray), (argv[0], path, type(value))
                    found.add(path)
        assert found == set(self.STACKS)

    def test_long_solve_report_matches_reference(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "long.json"
        p.write_text(json.dumps(instance_doc(long_instance())))
        report = self._reports(["solve", "--instance", p], capsys, monkeypatch)
        assert len(report["schedule"]["P"]) == 66
        assert dumps_report(report) == reference_dumps_report(report)

    def test_instance_hash_matches_reference(self, example):
        for inst in (example, long_instance()):
            floats = []
            for key in ("A", "B", "Q", "R", "H", "x0", "xi"):
                floats += np.ravel(instance_doc(inst)[key]).tolist()
            data = (struct.pack("<3q", inst.n, inst.m, inst.N)
                    + struct.pack(f"<{len(floats)}d", *floats))
            assert instance_hash(inst) == hashlib.sha256(data).hexdigest()


class TestInstanceHash:
    def test_fixture_hash_is_stable(self, example):
        assert instance_hash(example) == FIXTURE_HASH

    def test_hash_tracks_content(self, example):
        moved = example_instance()
        object.__setattr__(moved, "xi", np.array([6.0, 7.0 + 1e-12]))
        assert instance_hash(moved) != instance_hash(example)

    def test_hash_survives_an_instance_file_round_trip(self, tmp_path):
        inst = long_instance()
        p = tmp_path / "long.json"
        p.write_text(json.dumps(instance_doc(inst)))
        assert instance_hash(load_instance_file(p).instance) == instance_hash(inst)

    def test_signed_zero_changes_the_hash(self, example):
        # the float64 bytes tell -0.0 from 0.0, as the report text does
        x0 = example.x0.copy()
        x0[0] = 0.0
        positive = make_instance(example.A, example.B, example.Q, example.R,
                                 example.H, x0, example.xi)
        x0[0] = -0.0
        negative = make_instance(example.A, example.B, example.Q, example.R,
                                 example.H, x0, example.xi)
        assert instance_hash(positive) != instance_hash(negative)


class TestReplayLogFile:
    def _dataset(self, example):
        return stage_dataset(example, 2, 15, GaussianSpec(), seed=11)

    def test_round_trip_is_exact(self, example, tmp_path):
        ds = self._dataset(example)
        p = tmp_path / "log.txt"
        write_replay_log([ds], p)
        log = read_replay_log(p, example.n, example.m)
        assert len(log.X) == len(ds.X)
        np.testing.assert_array_equal(log.k, np.full(len(ds.X), ds.k))
        np.testing.assert_array_equal(log.X, ds.X)
        np.testing.assert_array_equal(log.U, ds.U)
        np.testing.assert_array_equal(log.L, ds.L)
        np.testing.assert_array_equal(log.Xn, ds.Xn)

    def test_wrong_width_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1 2 3 1 2 3 4\n2 1 2 3\n")
        with pytest.raises(ParseError, match="line 2: expected 8 fields, found 4"):
            read_replay_log(p, 2, 1)

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1 2 3 1 2 3 x\n")
        with pytest.raises(ParseError, match="line 1"):
            read_replay_log(p, 2, 1)

    @pytest.mark.parametrize("field", range(1, 8))
    def test_non_finite_field_reports_line_number(self, tmp_path, field):
        # every field goes into the fit, so a non-finite one is malformed
        p = tmp_path / "bad.txt"
        for value in ("nan", "inf", "-inf", "1e999"):
            fields = "0 1 2 3 1 2 3 4".split()
            fields[field] = value
            p.write_text("0 1 2 3 1 2 3 4\n" + " ".join(fields) + "\n")
            with pytest.raises(ParseError, match="^line 2: non-finite field$"):
                read_replay_log(p, 2, 1)

    def test_oversized_stage_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 2 3 1 2 3 4\n100000000000000000000 1 2 3 1 2 3 4\n")
        with pytest.raises(ParseError, match="line 2: stage"):
            read_replay_log(p, 2, 1)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "gaps.txt"
        p.write_text("\n0 1 2 3 1 2 3 4\n\n")
        log = read_replay_log(p, 2, 1)
        assert len(log.X) == 1
        assert log.k[0] == 0

    def test_python_number_forms_accepted(self, tmp_path):
        # digit separators and full-width digits, which int() and float()
        # accept and np.loadtxt refuses
        p = tmp_path / "forms.txt"
        p.write_text("0 1_0.5 2 3 1 2 3 4\n\uff11 1 2 3 1 2 3 4\n")
        log = read_replay_log(p, 2, 1)
        np.testing.assert_array_equal(log.k, [0, 1])
        assert log.X[0, 0] == 10.5

    def test_float_stage_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 2 3 1 2 3 4\n3.0 1 2 3 1 2 3 4\n")
        with pytest.raises(ParseError, match="line 2: invalid literal for int"):
            read_replay_log(p, 2, 1)

    def test_lines_end_at_newlines_only(self, tmp_path):
        # a form feed separates fields, as in np.loadtxt, not lines
        p = tmp_path / "ff.txt"
        p.write_text("0 1 2 3\f1 2 3 4\n")
        np.testing.assert_array_equal(read_replay_log(p, 2, 1).X, [[1.0, 2.0]])
        p.write_text("0 1 2 3\f1 2 3 4\n1 1_0 2 3 1 2 3 4\n")
        np.testing.assert_array_equal(read_replay_log(p, 2, 1).X, [[1.0, 2.0], [10.0, 2.0]])

    def test_empty_file_is_an_empty_log(self, tmp_path, recwarn):
        p = tmp_path / "empty.txt"
        for text in ("", "\n  \n"):
            p.write_text(text)
            log = read_replay_log(p, 2, 1)
            assert log.X.shape == (0, 2) and log.Xn.shape == (0, 2) and len(log.k) == 0
        assert len(recwarn) == 0

    def test_crlf_line_ends(self, example, tmp_path):
        ds = self._dataset(example)
        p = tmp_path / "log.txt"
        write_replay_log([ds], p)
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        lf, log = read_replay_log(p, 2, 1), read_replay_log(crlf, 2, 1)
        for field in ("k", "X", "U", "L", "Xn"):
            np.testing.assert_array_equal(getattr(log, field), getattr(lf, field))

    def test_write_refuses_unwritable_path(self, tmp_path):
        batch = StageDataset(
            k=0,
            X=np.zeros((1, 2)),
            U=np.zeros((1, 1)),
            L=np.zeros((1, 2)),
            Xn=np.zeros((1, 2)))
        with pytest.raises(IoError, match="cannot write"):
            write_replay_log([batch], tmp_path / "no" / "dir" / "log.txt")

    def test_replay_log_type_round_trips(self, tmp_path):
        batch = StageDataset(
            k=1,
            X=np.array([[0.5, -1.5]]),
            U=np.array([[2.25]]),
            L=np.array([[0.0, 1.0]]),
            Xn=np.array([[1.0 / 3.0, -7.0]]))
        p = tmp_path / "one.txt"
        write_replay_log([batch], p)
        log = read_replay_log(p, 2, 1)
        assert isinstance(log, ReplayLog)
        np.testing.assert_array_equal(log.Xn[0], batch.Xn[0])
