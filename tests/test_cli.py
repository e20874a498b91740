"""End-to-end CLI behavior: JSON documents, exit codes, determinism."""

import argparse
import ast
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import gorlef
from gorlef import (apolar, cli, construct, errors, linalg, points,
                    theorems)
from gorlef.cli import main
from gorlef.gorenstein import DegreeRecord, SlpCertificate
from gorlef.points import PointSet, gen_two_lines

XY = '{"n_vars": 2, "ring": "R", "terms": [{"exp": [1, 1], "coef": "1"}]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_subprocess(argv):
    """The CLI in a fresh interpreter, so a request that used to hang fails
    after 60 s instead of stalling the suite; no traceback reaches stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(gorlef.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gorlef.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert "Traceback" not in proc.stderr
    return proc.returncode, json.loads(proc.stdout)


class TestSeqCheck:
    def test_si_sequence(self, capsys):
        code, doc = run_json(capsys, "seq", "check", "1,3,5,5,3,1")
        assert code == 0
        assert doc["is_O_sequence"] and doc["is_SI"]
        # the full symmetric sequence has a negative first difference,
        # so plain differentiability reports False even though SI holds
        assert doc["is_differentiable"] is False
        assert doc["hbar"] == {"t": 2, "s": 5, "values": [1, 3, 5],
                               "delta": [1, 2, 2]}

    def test_differentiable_first_half(self, capsys):
        code, doc = run_json(capsys, "seq", "check", "1,3,5")
        assert code == 0
        assert doc["is_differentiable"] is True

    def test_o_sequence_but_not_si(self, capsys):
        code, doc = run_json(capsys, "seq", "check", "1,13,12,13,1")
        assert code == 0
        assert doc["is_O_sequence"] is True
        assert doc["is_SI"] is False
        assert doc["hbar"] is None

    def test_not_o_sequence(self, capsys):
        code, doc = run_json(capsys, "seq", "check", "1,2,5")
        assert code == 0
        assert doc["is_O_sequence"] is False

    def test_invalid_input_is_exit_two(self, capsys):
        code, doc = run_json(capsys, "seq", "check", "1,-2,3")
        assert code == 2
        assert "error" in doc


class TestConstruct:
    def test_flagship(self, capsys):
        code, doc = run_json(capsys, "construct", "--h", "1,3,5,5,3,1",
                             "--seed", "42")
        assert code == 0
        assert doc["h"] == [1, 3, 5, 5, 3, 1]
        assert doc["hilbert"] == [1, 3, 5, 5, 3, 1]
        assert doc["certificate"]["verdict"] is True

    def test_byte_identical_reruns(self, capsys):
        args = ("construct", "--h", "1,3,5,5,3,1", "--seed", "42")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("}\n")

    def test_seed_changes_output(self, capsys):
        _, out1 = run(capsys, "construct", "--h", "1,2,2,1", "--seed", "1")
        _, out2 = run(capsys, "construct", "--h", "1,2,2,1", "--seed", "2")
        assert out1 != out2

    def test_the_distraction_is_not_eliminated(self, capsys, monkeypatch):
        # its bases are read off the order ideal (points.gen_distraction)
        reduced = []
        monkeypatch.setattr(linalg, "extend_echelon",
                            lambda *args: reduced.append(args))
        code, doc = run_json(capsys, "construct", "--h", "1,3,6,10,6,3,1",
                             "--seed", "0")
        assert code == 0 and doc["certificate"]["verdict"] is True
        assert reduced == []

    def test_not_si_is_exit_two(self, capsys):
        code, doc = run_json(capsys, "construct", "--h", "1,13,12,13,1")
        assert code == 2
        assert doc["error"]["type"] == "NotSIError"

    def test_exhausted_search_is_exit_one(self, capsys, monkeypatch):
        # Every sampled ell fails its degree-0 line.
        monkeypatch.setattr(
            construct, "certify_at",
            lambda algebra, ell, t: [DegreeRecord(0, "hessian-det", 0, 0, 1)])
        code, doc = run_json(capsys, "construct", "--h", "1,2,1",
                             "--attempts", "2")
        assert code == 1
        assert doc["error"]["type"] == "NoWitnessFoundError"
        assert doc["error"]["diagnostics"]["attempts"] == 2


class TestAnalyze:
    POLY = json.dumps({"n_vars": 3, "ring": "R",
                       "terms": [{"exp": [3, 0, 0], "coef": "1"},
                                 {"exp": [0, 3, 0], "coef": "1"},
                                 {"exp": [0, 0, 3], "coef": "1"}]})

    def test_poly_input(self, capsys):
        code, doc = run_json(capsys, "analyze", "--poly", self.POLY)
        assert code == 0
        assert doc["hilbert"] == [1, 3, 3, 1]
        assert doc["codimension"] == 3
        assert doc["slp"]["verdict"] is True
        assert doc["wlp"]["verdict"] is True

    def test_poly_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(self.POLY)
        code, doc = run_json(capsys, "analyze", "--poly", str(path))
        assert code == 0
        assert doc["hilbert"] == [1, 3, 3, 1]

    def test_structured_input(self, capsys):
        points = json.dumps({"points": [["1", "0"], ["1", "1"], ["1", "2"]]})
        code, doc = run_json(capsys, "analyze", "--points", points,
                             "--alphas", "1,1,-1", "--d", "4",
                             "--expect-slp")
        assert code == 0
        assert doc["hilbert"] == [1, 2, 3, 2, 1]
        assert doc["slp"]["verdict"] is True

    def test_expect_slp_fails_without_witness(self, capsys):
        # Perazzo's cubic X0 X3^2 + X1 X3 X4 + X2 X4^2 fails SLP and WLP.
        perazzo = json.dumps({"n_vars": 5, "ring": "R", "terms": [
            {"exp": [1, 0, 0, 2, 0], "coef": "1"},
            {"exp": [0, 1, 0, 1, 1], "coef": "1"},
            {"exp": [0, 0, 1, 0, 2], "coef": "1"}]})
        code, doc = run_json(capsys, "analyze", "--poly", perazzo,
                             "--attempts", "1", "--expect-slp")
        assert code == 1
        assert doc["slp"]["verdict"] is False

    def test_missing_input_is_exit_two(self, capsys):
        code, doc = run_json(capsys, "analyze", "--alphas", "1,1")
        assert code == 2
        assert "error" in doc

    def test_poly_in_s_is_a_ring_mismatch(self, capsys):
        code, doc = run_json(capsys, "analyze", "--poly",
                             XY.replace('"R"', '"S"'))
        assert code == 2
        assert doc["error"]["type"] == "RingMismatchError"
        assert doc["error"]["message"] == "dual generator must live in R"


class TestPointsGen:
    def test_generic(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "generic",
                             "--n", "2", "--s", "5", "--seed", "7")
        assert code == 0
        assert doc["size"] == 5
        assert doc["hilbert"] == [1, 3, 5]
        assert doc["tau"] == 2
        assert "davis_hint" in doc

    def test_two_lines(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "two-lines",
                             "--s1", "3", "--s2", "3")
        assert code == 0
        assert doc["size"] == 6 and doc["tau"] == 3
        assert doc["delta"] == [1, 2, 2, 1]

    def test_two_lines_missing_args(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "two-lines")
        assert code == 2

    def test_rnc_with_params(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "rnc",
                             "--n", "3", "--s", "7", "--params",
                             "0,1,2,3,4,5,6")
        assert code == 0
        assert doc["size"] == 7 and doc["tau"] == 2

    def test_distraction(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "distraction",
                             "--delta", "1,2,2")
        assert code == 0
        assert doc["size"] == 5
        assert len(doc["order_ideal"]) == 5
        assert [0, 0] in doc["order_ideal"]

    @pytest.mark.parametrize("delta", ["1", "1,2"])
    def test_distraction_names_n_below_zero(self, capsys, delta):
        code, doc = run_json(capsys, "points", "gen", "--kind", "distraction",
                             "--delta", delta, "--n", "-1")
        assert code == 2
        assert doc["error"] == {"type": "ValueError",
                                "message": "need n >= 0, got -1"}

    def test_collinear(self, capsys):
        code, doc = run_json(capsys, "points", "gen", "--kind", "collinear",
                             "--n", "2", "--s", "4")
        assert code == 0
        assert doc["delta"] == [1, 1, 1, 1]
        assert doc["davis_hint"] is not None


class TestVerify:
    def test_rnc_default_degree(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "rnc", "--s", "5")
        assert code == 0
        assert doc["d"] == 4 and doc["verdict"] is True
        assert doc["certificate"]["verdict"] is True

    def test_conic(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "conic",
                             "--s1", "3", "--s2", "3", "--eval-points", "2")
        assert code == 0
        assert doc["d"] == 6 and doc["display_match"] is True
        assert doc["decomposition_checks"] > 0

    def test_conic_eval_points_cost_nothing(self, capsys):
        # the decomposition is proven per point; this ran past 20 s when
        # each of the 10^8 evaluation points per degree was sampled
        start = time.perf_counter()
        code, doc = run_json(capsys, "verify", "--theorem", "conic",
                             "--s1", "2", "--s2", "2", "--d", "4",
                             "--eval-points", "100000000")
        assert time.perf_counter() - start < 2.0
        assert code == 0 and doc["decomposition_checks"] == 2 * 10 ** 8

    def test_tails(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "tails",
                             "--kind", "line", "--tau", "3", "--off", "1",
                             "--trials", "5")
        assert code == 0
        assert doc["k"] == 2 and doc["tau"] == 3
        assert [w["j"] for w in doc["witnesses"]] == [1, 2, 3]
        assert all(w["det"] != "0" for w in doc["witnesses"])

    def test_tails_infeasible_is_exit_one(self, capsys, monkeypatch):
        # in [-1, 1]^2 the 6 points off the line x2 = 0 are all drawn, and
        # with the 5 on it they lie on three lines: no draw has the shape
        monkeypatch.setattr(theorems, "_TAIL_BOX", 1)
        code, doc = run_json(capsys, "verify", "--theorem", "tails",
                             "--kind", "line", "--tau", "4", "--off", "6")
        assert code == 1
        assert doc["error"]["type"] == "ShapeMismatchError"

    def test_families(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "families",
                             "--m", "2")
        assert code == 0
        assert len(doc["results"]) == 5
        assert all(r["verdict"] for r in doc["results"])

    def test_s_minus(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "s-minus",
                             "--s", "7", "--d", "6", "--j", "2")
        assert code == 0
        assert doc["det"] != "0"

    def test_missing_required_flag(self, capsys):
        code, doc = run_json(capsys, "verify", "--theorem", "rnc")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["points", "gen", "--kind", "generic", "--n", "2"],
         "generic needs --n and --s"),
        (["points", "gen", "--kind", "collinear", "--s", "3"],
         "collinear needs --n and --s"),
        (["points", "gen", "--kind", "two-lines", "--s1", "2"],
         "two-lines needs --s1 and --s2"),
        (["points", "gen", "--kind", "rnc", "--n", "2"],
         "rnc needs --n and --s"),
        (["points", "gen", "--kind", "distraction"],
         "distraction needs --delta"),
        (["verify", "--theorem", "rnc"], "rnc needs --s"),
        (["verify", "--theorem", "conic", "--s1", "3"],
         "conic needs --s1 and --s2"),
        (["verify", "--theorem", "tails", "--kind", "line"],
         "tails needs --kind and --tau"),
        (["verify", "--theorem", "s-minus", "--s", "7", "--d", "6"],
         "s-minus needs --s, --d and --j"),
    ], ids=["points-generic", "points-collinear", "points-two-lines",
            "points-rnc", "points-distraction", "verify-rnc", "verify-conic",
            "verify-tails", "verify-s-minus"])
    def test_missing_flags_are_named(self, capsys, argv, message):
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"] == {"type": "ValueError", "message": message}

    def test_conic_default_degree_builds_the_points_once(self, capsys,
                                                         monkeypatch):
        # d = 2 tau is the verifier's to work out: the CLI builds no
        # second two-line point set to find tau
        calls = []
        original = gen_two_lines

        def spy(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if ((name == "gorlef" or name.startswith("gorlef."))
                    and getattr(module, "gen_two_lines", None) is original):
                monkeypatch.setattr(module, "gen_two_lines", spy)
        code, doc = run_json(capsys, "verify", "--theorem", "conic",
                             "--s1", "3", "--s2", "2", "--eval-points", "1")
        assert code == 0 and doc["d"] == 4
        assert calls == [(3, 2, False)]


class TestPlumbing:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        code, out = run(capsys, "seq", "check", "1,3,3,1", "--out", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_json_is_pretty_printed(self, capsys):
        _, out = run(capsys, "seq", "check", "1,1")
        assert out.startswith("{\n  ")
        assert out.endswith("\n")

    def test_unknown_command_is_exit_two(self, capsys):
        code, doc = run_json(capsys, "frobnicate")
        assert code == 2 and "invalid choice" in doc["error"]["message"]

    def test_no_command_is_exit_two(self, capsys):
        code, doc = run_json(capsys)
        assert code == 2 and "required" in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["seq"], ["construct"], ["points", "gen", "--kind", "nope"],
        ["construct", "--h", "1,3,1", "--attempts", "x"],
        ["seq", "check", "1,2,1", "--bogus"],
        # shared flags that the subcommand does not read are not taken
        ["seq", "check", "1,2,1", "--seed", "3"],
        ["construct", "--h", "1,3,1", "--trials", "5"],
    ], ids=["no-subcommand", "missing-flag", "bad-choice", "bad-int",
            "unknown-flag", "seq-seed", "construct-trials"])
    def test_argparse_error_is_a_json_exit_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["type"] == "ValueError"
        assert captured.err == ""

    @staticmethod
    def _leaf_parsers(parser, path=()):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, p in action.choices.items():
                yield from TestPlumbing._leaf_parsers(p, path + (name,))

    @staticmethod
    def _args_read(*functions):
        tree = ast.parse("\n".join(inspect.getsource(f) for f in functions))
        return {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}

    def test_every_option_is_read(self):
        # a flag that nothing reads is accepted and silently ignored
        unread = []
        for path, parser in self._leaf_parsers(cli.build_parser()):
            read = self._args_read(getattr(cli, f"_run_{path[0]}"), cli.main)
            unread += [(" ".join(path), a.dest) for a in parser._actions
                       if a.dest != "help" and a.dest not in read]
        assert unread == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "gorlef" in out


class _List(list):
    pass


class _Dict(dict):
    pass


_JSON_TEXT = st.text(st.one_of(
    st.characters(), st.integers(0xD800, 0xDFFF).map(chr),
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t é€\U0001F600')))
_JSON_KEYS = st.one_of(_JSON_TEXT, st.integers(), st.floats(), st.booleans(),
                       st.none())
_JSON_TREES = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(-10 ** 300, 10 ** 300), st.booleans(),
              st.none(), st.floats(),
              st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -0.0])),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.lists(children).map(_List),
        st.dictionaries(_JSON_KEYS, children),
        st.dictionaries(_JSON_KEYS, children).map(_Dict)),
    max_leaves=40)


class TestJsonWriter:
    """cli._dumps, the one writer of output documents, is
    json.dumps(o, indent=2) byte for byte on whatever json accepts, and
    raises json's TypeError on the rest."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_TREES)
    @example({"é\ud800\"\\\x00": [[], {}, (), ["a", "b"], [1, -2],
                                   -10 ** 300, 2.5, float("nan"), None, True,
                                   False], 1: {}, 2.5: "x", None: 0,
              False: _List(["\x7f"]), "": _Dict({"k": ("é",)})})
    def test_it_is_json_dumps_indent_2(self, o):
        assert cli._dumps(o) == json.dumps(o, indent=2)

    @pytest.mark.parametrize("o", [
        {(1, 2): 0}, [{"a": 1, frozenset(): 2}], {"a": object()},
        [1, [2, {3j}]], _Dict({"k": _List([b"bytes"])})],
        ids=["tuple-key", "frozenset-key", "object-value", "set-value",
             "bytes-in-subclasses"])
    def test_what_json_refuses_raises_its_type_error(self, o):
        with pytest.raises(TypeError) as expected:
            json.dumps(o, indent=2)
        with pytest.raises(TypeError) as got:
            cli._dumps(o)
        assert str(got.value) == str(expected.value)


class TestErrorContract:
    # 1: a search ran out or a checked property failed; 2: malformed input;
    # 3: an internal bug
    EXIT_CODES = {
        "NoWitnessFoundError": 1, "TheoremTensionError": 1,
        "RealizationMismatchError": 1, "ShapeMismatchError": 1,
        "HessianRankMismatchError": 3,
        "NonSquareError": 2, "RingMismatchError": 2,
        "DegreeOutOfRangeError": 2, "ZeroGeneratorError": 2,
        "NotHomogeneousError": 2,
        "NotOSequenceError": 2, "NotSIError": 2,
        "DuplicateParameterError": 2, "NotPlaneConfigError": 2,
        "PreconditionViolatedError": 2, "BadSubsetSizeError": 2,
        "WorkBudgetError": 2,
    }

    def test_an_elimination_above_the_budget_is_exit_two(self, capsys):
        # 1,20,1 takes 21 points in P^19: each evaluation matrix is over
        # 100 entries, far below the default budget
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 100):
            code, doc = run_json(capsys, "construct", "--h", "1,20,1")
        assert code == 2
        assert doc["error"]["type"] == "WorkBudgetError"
        assert run_json(capsys, "construct", "--h", "1,20,1")[0] == 0

    @pytest.mark.parametrize("off, code", [(10, 0), (11, 2)])
    def test_the_conic_tail_bound_is_sharp_at_tau_six(self, capsys, off,
                                                       code):
        # (tau-1)(tau-2)/2 = 10 points fit off the conic at tau = 6; one
        # more is refused before any draw
        got, doc = run_json(capsys, "verify", "--theorem", "tails", "--kind",
                            "conic", "--tau", "6", "--off", str(off))
        assert got == code
        if code:
            assert doc["error"] == {
                "type": "ValueError", "message": "a conic tail with tau=6 "
                "has at most 10 off-curve points, got off=11"}
        else:
            assert doc["verdict"] is True and len(doc["off_indices"]) == 10

    def test_a_polynomial_needs_a_variable(self, capsys):
        # n_vars is refused before the terms are read, whatever they hold
        for n_vars, terms in ((-1, []), (0, [{"exp": [], "coef": 1}])):
            poly = json.dumps({"n_vars": n_vars, "ring": "R", "terms": terms})
            code, doc = run_json(capsys, "analyze", "--poly", poly)
            assert code == 2
            assert doc["error"] == {
                "type": "ValueError",
                "message": f"polynomial n_vars must be at least 1, got {n_vars}"}

    def test_every_error_class_has_its_code(self):
        found = {name: cls.exit_code for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, errors.GorlefError)
                 and cls is not errors.GorlefError}
        assert found == self.EXIT_CODES

    @pytest.mark.parametrize("name", sorted(EXIT_CODES) + ["ValueError"])
    def test_main_exits_with_the_code(self, capsys, monkeypatch, name):
        cls = getattr(errors, name, ValueError)

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "_run_seq", fail)
        code, doc = run_json(capsys, "seq", "check", "1")
        assert code == self.EXIT_CODES.get(name, 2)
        assert doc["error"]["type"] == name
        assert doc["error"]["message"] == "boom"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--poly", "missing.json"],
        ["analyze", "--poly", '{"n_vars": 2}'],
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", "terms": [{}]}'],
        ["analyze", "--points", '{"pts": []}', "--alphas", "1", "--d", "2"],
        ["points", "gen", "--kind", "rnc", "--n", "2"],
        ["points", "gen", "--kind", "rnc", "--s", "5"],
        ["points", "gen", "--kind", "generic", "--s", "5"],
        ["points", "gen", "--kind", "collinear", "--n", "2"],
        ["verify", "--theorem", "rnc", "--s", "5", "--n", "0"],
        ["points", "gen", "--kind", "rnc", "--n", "0", "--s", "3"],
        # n + 1 <= 0 let any s past the cell check: an OverflowError, exit 3
        ["points", "gen", "--kind", "rnc", "--n", "-1", "--s", str(10 ** 30)],
        # s < 1 reached the draw: random.sample's message or "empty point set"
        ["verify", "--theorem", "rnc", "--n", "2", "--s", "-5"],
        ["verify", "--theorem", "rnc", "--n", "2", "--s", "0"],
        ["points", "gen", "--kind", "rnc", "--n", "2", "--s", "-5"],
        ["points", "gen", "--kind", "rnc", "--n", "2", "--s", "0"],
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", "terms": 5}'],
        ["analyze", "--poly",
         '{"n_vars": 2, "ring": "R", "terms": [{"exp": 5, "coef": "1"}]}'],
        ["analyze", "--poly",
         '{"n_vars": 2, "ring": "R", "terms": [{"exp": [1, 1], "coef": "1/0"}]}'],
        ["analyze", "--points", '{"points": [[1, 0], [1, 1]]}',
         "--alphas", "1/0", "--d", "2"],
        ["analyze", "--poly", XY, "--d", "1"],
        ["analyze", "--poly", XY, "--d", "3"],
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", "terms": ['
         '{"exp": [1, 1], "coef": "1"}, {"exp": [1, 0], "coef": "1"}]}'],
        ["analyze", "--poly",
         '{"n_vars": 1, "ring": "R", "terms": [{"exp": [1], "coef": Infinity}]}'],
        ["analyze", "--poly",
         '{"n_vars": 1, "ring": "R", "terms": [{"exp": [1], "coef": -Infinity}]}'],
        ["analyze", "--points", '{"points": [[1, Infinity], [1, 2]]}',
         "--alphas", "1,1", "--d", "2"],
        ["analyze", "--points", '{"points": 5}', "--alphas", "1", "--d", "2"],
        ["analyze", "--points", '{"points": [null]}', "--alphas", "1",
         "--d", "2"],
        ["analyze", "--points", '{"points": [[1, null]]}', "--alphas", "1",
         "--d", "2"],
        ["analyze", "--points", '{"points": [[1, {}]]}', "--alphas", "1",
         "--d", "2"],
        ["analyze", "--points", '{"points": [[1, [2]]]}', "--alphas", "1",
         "--d", "2"],
        ["analyze", "--poly",
         '{"n_vars": true, "ring": "R", "terms": [{"exp": [1], "coef": "1"}]}'],
        ["analyze", "--poly",
         '{"n_vars": 1.9, "ring": "R", "terms": [{"exp": [1], "coef": "1"}]}'],
        ["analyze", "--poly",
         '{"n_vars": "1", "ring": "R", "terms": [{"exp": [1], "coef": "1"}]}'],
        ["analyze", "--poly",
         '{"n_vars": 1, "ring": "R", "terms": [{"exp": [1], "coef": true}]}'],
        ["analyze", "--points", '{"points": [[1, true], [1, 2]]}',
         "--alphas", "1,1", "--d", "2"],
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", "terms": ['
         '{"exp": [1, 1], "coef": "1"}, {"exp": [1, 1], "coef": "-1"}]}'],
        ["analyze", "--points", '{"points": [["1/0"]]}', "--alphas", "1",
         "--d", "2"],
        # an empty list entry used to be dropped, reading a shorter list
        ["seq", "check", "1,,2,1"],
        ["seq", "check", "1,2,1,"],
        ["construct", "--h", "1,3,,1"],
        ["analyze", "--points", '{"points": [[1, 2], [1, 3]]}',
         "--alphas", "1,,1", "--d", "2"],
        ["points", "gen", "--kind", "rnc", "--n", "2", "--s", "2",
         "--params", "1,,2"],
        ["points", "gen", "--kind", "distraction", "--delta", "1,2,"],
        # an empty list flag used to run the default list or random params
        ["verify", "--theorem", "families", "--m", ""],
        ["points", "gen", "--kind", "rnc", "--n", "2", "--s", "4",
         "--params", ""],
        # above the monomial budget: a MemoryError, an OverflowError and
        # two RecursionErrors used to exit 3
        ["construct", "--h", "1,10000000000,1"],
        ["construct", "--h", f"1,{2 ** 64},1"],
        ["construct", "--h", "1,2000,2000,1"],
        ["points", "gen", "--kind", "distraction", "--delta", "1,5000"],
        # a term with a zero coefficient used to be dropped unchecked
        ["analyze", "--poly", '{"n_vars": 2, "ring": "R", "terms": ['
         '{"exp": [2, 0], "coef": "1"}, {"exp": [0, 2], "coef": "1"}, '
         '{"exp": [1, 1, 1], "coef": "0"}]}', "--d", "2"],
    ], ids=["poly-file-missing", "poly-no-terms", "poly-bad-term",
            "points-no-points", "rnc-no-s", "rnc-no-n", "generic-no-n",
            "collinear-no-s", "rnc-n-zero", "points-rnc-n-zero",
            "points-rnc-n-negative-huge-s", "rnc-s-negative", "rnc-s-zero",
            "points-rnc-s-negative", "points-rnc-s-zero",
            "poly-terms-not-a-list",
            "poly-exp-not-a-list", "poly-coef-zero-denominator",
            "alphas-zero-denominator", "poly-d-below-degree",
            "poly-d-above-degree", "poly-not-homogeneous",
            "poly-coef-infinity", "poly-coef-minus-infinity",
            "point-infinity", "points-not-a-list", "point-null",
            "coordinate-null", "coordinate-object", "coordinate-list",
            "n-vars-bool", "n-vars-float", "n-vars-string", "coef-bool",
            "coordinate-bool", "poly-repeated-exponent",
            "points-zero-denominator", "seq-empty-entry",
            "seq-trailing-comma", "h-empty-entry", "alphas-empty-entry",
            "params-empty-entry", "delta-trailing-comma", "m-empty",
            "params-empty",
            "h-ten-billion-variables", "h-two-to-the-64-variables",
            "h-2000-variables", "delta-5000-variables",
            "poly-zero-term-wrong-arity"])
    def test_malformed_input_is_exit_two(self, capsys, tmp_path, monkeypatch,
                                         argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in json.loads(captured.out)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [["verify", "--theorem", "rnc"],
                                         ["points", "gen", "--kind", "rnc"]],
                             ids=["verify", "points"])
    @pytest.mark.parametrize("s", ["0", "-5"])
    def test_rnc_names_s_below_one(self, capsys, command, s):
        code, doc = run_json(capsys, *command, "--n", "2", "--s", s)
        assert code == 2
        assert doc["error"] == {"type": "ValueError",
                                "message": f"need s >= 1, got {s}"}

    @staticmethod
    def _refused_untouched(capsys, monkeypatch, argv):
        """The error of an rnc request, made with no draw and no echelon."""
        def spy(*args, **kwargs):
            raise AssertionError("rnc points drawn or reduced")

        monkeypatch.setattr(random.Random, "sample", spy)
        monkeypatch.setattr(linalg, "extend_echelon", spy)
        code, doc = run_json(capsys, *argv)
        assert code == 2
        return doc["error"]

    @pytest.mark.parametrize("command", [["verify", "--theorem", "rnc"],
                                         ["points", "gen", "--kind", "rnc"]],
                             ids=["verify", "points"])
    def test_rnc_refuses_a_later_frame_before_any_work(self, capsys,
                                                       monkeypatch, command):
        # V_1 of 10 conic points is 10x3, within a budget of 100; the
        # degree-4 frame, h(3) = 7 lifted and 5 new columns, is not
        pts = [[1, t, t * t] for t in range(10)]
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 100):
            with pytest.raises(errors.WorkBudgetError) as basis:
                PointSet(pts)
            error = self._refused_untouched(
                capsys, monkeypatch, [*command, "--n", "2", "--s", "10"])
        assert error == {"type": "WorkBudgetError",
                         "message": str(basis.value)}
        assert str(basis.value) == ("a 10x12 elimination is above the "
                                    "budget of 100 entries")

    @pytest.mark.parametrize("command", [["verify", "--theorem", "rnc"],
                                         ["points", "gen", "--kind", "rnc"]],
                             ids=["verify", "points"])
    def test_rnc_at_s_208_is_refused_up_front(self, capsys, monkeypatch,
                                              command):
        # the degree-103 frame, 205 + 104 columns, was refused only after
        # some 35 s of echelon work on the degrees below, with this message
        error = self._refused_untouched(capsys, monkeypatch,
                                        [*command, "--n", "2", "--s", "208"])
        assert error == {"type": "WorkBudgetError",
                         "message": "a 208x309 elimination is above the "
                                    "budget of 64000 entries"}

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--theorem", "families", "--m", "1500"],
         "a 1503x44 elimination is above the budget of 64000 entries"),
        (["points", "gen", "--kind", "distraction", "--delta",
          "1,2" + ",1" * 600],
         "a 603x108 elimination is above the budget of 64000 entries")],
        ids=["families", "points"])
    def test_a_distraction_is_refused_before_any_table(self, capsys,
                                                       monkeypatch, argv,
                                                       message):
        # these frames were refused only once the order ideal was built,
        # one whole monomial table per degree: 30 s for the families
        def spy(*args, **kwargs):
            raise AssertionError("a monomial table built")

        for module, name in ((points, "monomials_of_degree"),
                             (apolar, "monomials_of_degree"),
                             (apolar, "_monomials")):
            monkeypatch.setattr(module, name, spy)
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"] == {"type": "WorkBudgetError", "message": message}

    def test_an_exhausted_verifier_search_is_exit_one(self, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(theorems, "check_slp",
                            lambda algebra, rng, attempts: SlpCertificate(
                                kind="slp", ell=None, attempts=attempts))
        code = main(["verify", "--theorem", "rnc", "--s", "5",
                     "--attempts", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"] == {
            "type": "NoWitnessFoundError",
            "message": "no Lefschetz witness for 5 curve points in P^2, d=4",
            "diagnostics": {"attempts": 2}}
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("flag, rest", [
        ("--poly", []), ("--points", ["--alphas", "1", "--d", "1"])],
        ids=["poly", "points"])
    def test_deeply_nested_json_is_exit_two(self, capsys, flag, rest):
        # json.loads used to raise RecursionError: an exit 3
        code, doc = run_json(capsys, "analyze", flag,
                             '{"points": ' + "[" * 100_000, *rest)
        assert code == 2
        assert doc["error"] == {"type": "ValueError",
                                "message": "JSON input nests too deeply"}

    def test_a_long_argument_is_not_echoed_whole(self, capsys):
        # no leading "{": read as a path, whose error quoted all of it
        code, doc = run_json(capsys, "analyze", "--poly", "[" * 100_000)
        assert code == 2
        assert doc["error"]["type"] == "ValueError"
        assert len(doc["error"]["message"]) < 200

    @pytest.mark.parametrize("argv", [
        ["seq", "check", "1," * 50_000],
        ["analyze", "--points", '{"points": [[1, 0]]}',
         "--alphas", "x" * 100_000, "--d", "2"]],
        ids=["empty-entry", "alphas-literal"])
    def test_a_long_list_is_not_echoed_whole(self, capsys, argv):
        # the list parser and `exact` quoted all of it: 100,091 and
        # 100,097 bytes of stdout
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(out.encode()) < 300
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_a_thousand_coordinates_within_the_budget_run(self, capsys):
        # 1000 x 1000 monomial cells; power_sum used to recurse once per
        # variable and exit 3 with a RecursionError
        point = json.dumps({"points": [[1] + [0] * 999]})
        code, doc = run_json(capsys, "analyze", "--points", point,
                             "--alphas", "1", "--d", "1")
        assert code == 0
        assert doc["hilbert"] == [1, 1] and doc["slp"]["verdict"] is True

    @pytest.mark.parametrize("argv", [
        ["construct", "--h", "1,3,1", "--attempts", "-3"],
        ["construct", "--h", "1,3,1", "--attempts", "0"],
        # the budget is checked before the trivial path and before hbar
        ["construct", "--h", "1,1", "--attempts", "0"],
        ["construct", "--h", "1,2,5", "--attempts", "0"],
        ["analyze", "--poly", XY, "--attempts", "0"],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "2",
         "--trials", "0"],
        ["verify", "--theorem", "s-minus", "--s", "7", "--d", "6", "--j", "2",
         "--trials", "0"],
        ["verify", "--theorem", "conic", "--s1", "2", "--s2", "2",
         "--eval-points", "-1"],
        # an off-curve count or target tau that no shape can have; these
        # used to exit 1 with ShapeMismatchError, some after 200 draws
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "2",
         "--off", "-1"],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "0"],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "-1"],
        # requests that no draw can satisfy; these exited 1 after a search
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "3",
         "--off", "0"],
        ["verify", "--theorem", "tails", "--kind", "conic", "--tau", "1",
         "--off", "0"],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "1",
         "--off", "1"],
        # more off-curve points than a plane shape with the tail holds;
        # these exited 1 after 200 draws, the last after minutes
        ["verify", "--theorem", "tails", "--kind", "conic", "--tau", "2",
         "--off", "1"],
        ["verify", "--theorem", "tails", "--kind", "conic", "--tau", "5",
         "--off", "100"],
    ], ids=["construct-attempts-negative", "construct-attempts-zero",
            "construct-trivial-attempts-zero", "construct-not-si-attempts-zero",
            "analyze-attempts-zero", "tails-trials-zero",
            "s-minus-trials-zero", "conic-eval-points-negative",
            "tails-off-negative", "tails-tau-zero", "tails-tau-negative",
            "tails-line-off-zero", "tails-conic-tau-one",
            "tails-line-tau-one", "tails-conic-off-past-the-shape",
            "tails-conic-off-far-past-the-shape"])
    def test_budget_below_one_is_exit_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["type"] == "ValueError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["points", "gen", "--kind", "generic", "--n", "-1", "--s", "3"],
        ["verify", "--theorem", "s-minus", "--s", "5", "--d", "4", "--j", "1",
         "--n", "0"],
    ], ids=["generic-n-negative", "s-minus-n-zero"])
    def test_point_budget_beyond_the_box_is_exit_two(self, argv):
        # these used to spin forever in gen_generic's rejection loop
        code, doc = run_subprocess(argv)
        assert code == 2
        assert doc["error"]["type"] == "PreconditionViolatedError"

    @pytest.mark.parametrize("argv", [
        ["points", "gen", "--kind", "collinear", "--n", "1", "--s", "6"],
        ["points", "gen", "--kind", "rnc", "--n", "1", "--s", "6"],
        ["points", "gen", "--kind", "rnc", "--n", "5", "--s", "2"],
        ["points", "gen", "--kind", "rnc", "--n", "5", "--s", "2",
         "--params", "0,1"],
        ["points", "gen", "--kind", "two-lines", "--s1", "2", "--s2", "3"],
        ["points", "gen", "--kind", "generic", "--n", "3", "--s", "3"],
        ["points", "gen", "--kind", "generic", "--n", "10", "--s", "1"],
        ["verify", "--theorem", "rnc", "--n", "1", "--s", "6"],
        ["verify", "--theorem", "conic", "--s1", "3", "--s2", "3"],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "3",
         "--off", "1"],
        ["verify", "--theorem", "s-minus", "--n", "3", "--s", "3", "--d", "4",
         "--j", "1"],
    ], ids=["collinear", "rnc-long", "rnc-wide", "rnc-params", "two-lines",
            "generic", "generic-one-point", "verify-rnc", "verify-conic",
            "verify-tails", "verify-s-minus"])
    def test_points_above_the_budget_are_refused_before_any_draw(
            self, capsys, monkeypatch, argv):
        # s points of n + 1 coordinates above the budget used to be drawn
        # and built first: at the default budget, s = 10^8 ran out of
        # memory (exit 3) and n = 10^8 ran for minutes
        def spy(*args, **kwargs):
            raise AssertionError("points drawn or built above the budget")

        for cls, name in ((PointSet, "__init__"), (random.Random, "sample"),
                          (random.Random, "randint")):
            monkeypatch.setattr(cls, name, spy)
        with mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 10):
            code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "WorkBudgetError"

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "families", "--m", "-1"],
        ["analyze", "--poly",
         '{"n_vars": 0, "ring": "R", "terms": [{"exp": [], "coef": 1}]}'],
        ["verify", "--theorem", "tails", "--kind", "line", "--tau", "2",
         "--off", "1000"],
    ], ids=["families-m-negative", "analyze-no-variables",
            "tails-off-beyond-the-box"])
    def test_empty_sampling_box_is_exit_two(self, argv):
        # a form in no variables used to spin forever drawing a nonzero
        # coefficient vector, as did more distinct off-curve points than the
        # coordinate box holds
        code, doc = run_subprocess(argv)
        assert code == 2
        assert doc["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["construct", "--h", "1,2,1", "--coord-box", "50"],
        ["construct", "--h", "1,2,1", "--alpha-box", "20"],
        ["analyze", "--points", '{"points": [[1, 0], [1, 1], [1, 2]]}',
         "--alphas", "1,2,3", "--d", "2", "--coord-box", "50"],
        ["points", "gen", "--kind", "generic", "--n", "2", "--s", "3",
         "--coord-box", "50"],
        ["verify", "--theorem", "rnc", "--s", "5", "--coord-box", "50"],
        ["verify", "--theorem", "rnc", "--s", "5", "--alpha-box", "20"],
    ])
    def test_the_sampling_boxes_are_no_flags(self, capsys, argv):
        # the ranges ell, the weights and the points are drawn from are
        # constants: the general choice the paper takes needs no setting
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "ValueError"
        assert argv[-2] in doc["error"]["message"]

    def test_huge_entry_is_checked_at_once(self):
        # the Macaulay bound of 10^12 in degree 1 used to step through
        # 10^12 binomials
        code, doc = run_subprocess(["seq", "check", "1,1000000000000,1"])
        assert code == 0
        assert doc["h"] == [1, 10 ** 12, 1] and doc["is_O_sequence"]

    def test_internal_error_is_exit_three(self, capsys, monkeypatch):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_run_seq", fail)
        code = main(["seq", "check", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"error": {
            "type": "InternalError", "message": "RuntimeError: boom"}}
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["seq", "check", "1,2,1"],
        ["construct", "--h", "1,2,3"],
    ], ids=["result", "error"])
    def test_unwritable_out_is_one_error_and_exit_two(self, capsys, tmp_path,
                                                      argv):
        # the result (or error) document must not reach stdout before the
        # write fails, and the error document is not retried at the path
        bad = tmp_path / "missing" / "x.json"
        code = main([*argv, "--out", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["type"] == "FileNotFoundError"
        assert "Traceback" not in captured.err
        assert not bad.parent.exists()

    def test_out_gets_the_stdout_bytes(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        assert main(["seq", "check", "1,2,1", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


# List entries a user might mistype: empty or blank tokens, non-finite and
# non-integral numbers, a zero denominator, and ints of every size up to
# past 64 bits and past int()'s digit limit.
_TOKENS = st.one_of(
    st.sampled_from(["", " ", "\t", "NaN", "nan", "Infinity", "-Infinity",
                     "inf", "1/0", "1/2", "-1", "0", "1", "2", "3", " 2 ",
                     "+1", "1.5", "1e3", "x"]),
    st.integers(4, 2 ** 64).map(str),
    st.integers(2 ** 64, 10 ** 40).map(str),
    st.just("9" * 5000))
_LISTS = st.builds(lambda toks, frame: frame.format(",".join(toks)),
                   st.lists(_TOKENS, min_size=1, max_size=6),
                   st.sampled_from(["{}", "[{}]", " {} ", "[ {} ]"]))
_LIST_ARGVS = {
    "seq": lambda v: ["seq", "check", v],
    "h": lambda v: ["construct", "--h", v, "--attempts", "3"],
    "alphas": lambda v: ["analyze", "--points", '{"points": [[1, 0], [1, 1]]}',
                         "--alphas", v, "--d", "2", "--attempts", "3"],
    "params": lambda v: ["points", "gen", "--kind", "rnc", "--n", "2",
                         "--s", "3", "--params", v],
    "delta": lambda v: ["points", "gen", "--kind", "distraction",
                        "--delta", v],
}


class TestOutputDigits:
    """Output text has no digit limit; inputs keep theirs."""

    PLANE_45 = ["construct", "--h",
                "1,3,6,10,15,21,28,36,45,45,36,28,21,15,10,6,3,1", "--seed", "0"]

    @staticmethod
    def _at_limit(capsys, argv, digits=640):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            return run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_det_past_the_limit_is_written(self, capsys):
        code, out = self._at_limit(capsys, self.PLANE_45)
        assert code == 0
        dets = [r["det"] for r in json.loads(out)["certificate"]["degrees"]]
        assert max(map(len, dets)) > 640
        assert run(capsys, *self.PLANE_45) == (0, out)

    def test_an_input_past_the_limit_is_exit_two(self, capsys):
        code, out = self._at_limit(capsys, ["seq", "check", "1," + "9" * 700])
        assert code == 2 and json.loads(out)["error"]["type"] == "ValueError"


class TestDecimalLiterals:
    """A JSON number is the decimal it spells, not the nearest binary
    float; a decimal exponent past int()'s digit limit is refused before
    10 to its power is built."""

    POINTS = '{"points": [[1, %s], [1, 0.5], [1, 2]]}'
    POLY = ('{"n_vars": 2, "ring": "R", "terms": [{"exp": [2, 0], '
            '"coef": %s}, {"exp": [0, 2], "coef": 1}]}')

    @pytest.mark.parametrize("argv", [
        ["analyze", "--points", '{"points": [[1, 0], [1, 1]]}',
         "--alphas", "1e999999999,1", "--d", "2"],
        ["analyze", "--points", '{"points": [[1, "1e999999999"], [1, 1]]}',
         "--alphas", "1,1", "--d", "2"],
        ["analyze", "--poly", POLY % '"-1e-999999999"'],
    ], ids=["alphas", "points-coordinate", "poly-coefficient"])
    def test_a_huge_decimal_exponent_is_exit_two_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and elapsed < 1
        assert json.loads(captured.out)["error"]["type"] == "ValueError"
        assert "Traceback" not in captured.out + captured.err

    def test_a_json_decimal_is_read_exactly(self, capsys):
        points = ["--alphas", "1,2,3", "--d", "2", "--seed", "1"]
        code, out = run(capsys, "analyze", "--points", self.POINTS % "0.1",
                        *points)
        assert code == 0
        assert run(capsys, "analyze", "--points", self.POINTS % '"1/10"',
                   *points) == (0, out)
        code, out = run(capsys, "analyze", "--poly", self.POLY % "0.1",
                        "--seed", "1")
        assert code == 0
        assert run(capsys, "analyze", "--poly", self.POLY % '"1/10"',
                   "--seed", "1") == (0, out)

    def test_a_json_number_past_the_float_range_is_exact(self, capsys):
        code, doc = run_json(capsys, "analyze", "--points",
                             '{"points": [[1, 1e400], [1, 2]]}',
                             "--alphas", "1,1", "--d", "2")
        assert code == 0
        assert doc["input"]["points"]["points"][0] == ["1", str(10 ** 400)]

    @pytest.mark.parametrize("poly", [
        '{"n_vars": 1.0, "ring": "R", "terms": [{"exp": [1], "coef": 1}]}',
        '{"n_vars": 1, "ring": "R", "terms": [{"exp": [1.0], "coef": 1}]}',
    ], ids=["n-vars", "exp"])
    def test_a_decimal_count_is_still_refused(self, capsys, poly):
        code, doc = run_json(capsys, "analyze", "--poly", poly)
        assert code == 2 and doc["error"]["type"] == "ValueError"


class TestListArgumentFuzz:
    """Any list argument gives exit 0, 1 or 2 and a JSON document, never a
    traceback.  Argparse's own errors (a value that looks like a flag, such
    as "-Infinity,1") are JSON error documents with exit 2 too.

    An int like 50 in --h or --delta asks for a valid problem in 50
    variables.  The monomial budget is lowered to 10,000 exponents here, so
    every such request stays small: it is solved or refused with a
    WorkBudgetError within the deadline.  The default budget bounds memory,
    not time; the refusals at the default are tested below."""

    @pytest.mark.parametrize("flag", sorted(_LIST_ARGVS))
    @settings(max_examples=60, deadline=5000)
    @given(value=_LISTS)
    @example(value="1,50,1")  # 49 variables: refused in degree 2
    @example(value=f"1,{2 ** 64},1")  # an SI-sequence in 2^64 - 1 variables
    def test_exit_code_and_no_traceback(self, flag, value):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.object(apolar, "MAX_MONOMIAL_CELLS", 10_000):
            code = main(_LIST_ARGVS[flag](value))
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        doc = json.loads(out.getvalue())
        assert ("error" in doc) == (code != 0)


# The grammar fuzz draws each value from a small pool: ints -2..6, short
# lists of them, the choices of a choice flag, short JSON documents, malformed
# or not, for --poly and --points, and, in half the argvs, also an empty or
# non-numeric string, a decimal past any float or a huge int.  The counts of
# draws stay at 1..3: they are work you ask for.
_INTS = st.integers(-2, 6).map(str)
_ODD = st.sampled_from(["", "x", "1e999999999", str(10 ** 30)])
_LISTS_OF_INTS = st.lists(st.integers(-2, 6) | st.just(10 ** 30), min_size=1,
                          max_size=4).map(lambda v: ",".join(map(str, v)))
_DOCS = st.sampled_from([
    "{", "[1]", '{"n_vars": 2}', XY, '{"points": [[1, 0], [1, 1]]}',
    '{"points": [[1, 0], [1, 1]', '{"points": [[1, "x"], [1]]}',
    '{"points": [[1, NaN], [1, Infinity]]}',
    '{"n_vars": 2, "ring": "R", "terms": [{"exp": [1], "coef": "1"}]}'])
# no file is written: the one path names a file inside a file
_OUTS = st.sampled_from(["", str(Path(__file__) / "out.json")])
_COUNTS = st.sampled_from(["1", "2", "3"])
_SI_SEQUENCES = st.sampled_from(["1", "1,2,1", "1,3,3,1", "1,2,3,2,1",
                                 "1,3,5,3,1", "1,3,4,4,3,1"])

# Each subcommand's required arguments (None: the positional one), then its
# other flags, each with the values it draws; a switch draws none.  Any argv
# may also carry --out, a removed box flag or an unknown flag.
_GRAMMAR = {
    ("seq", "check"): ({None: _LISTS_OF_INTS}, {}),
    ("construct",): ({"--h": _SI_SEQUENCES | _LISTS_OF_INTS},
                     {"--seed": _INTS, "--attempts": _COUNTS}),
    ("analyze",): ({}, {
        "--poly": _DOCS, "--points": _DOCS, "--alphas": _LISTS_OF_INTS,
        "--d": _INTS, "--expect-slp": None, "--seed": _INTS,
        "--attempts": _COUNTS}),
    ("points", "gen"): (
        {"--kind": st.sampled_from(["generic", "collinear", "two-lines",
                                    "rnc", "distraction"])},
        {"--n": _INTS, "--s": _INTS, "--s1": _INTS, "--s2": _INTS,
         "--share": None, "--params": _LISTS_OF_INTS,
         "--delta": _SI_SEQUENCES | _LISTS_OF_INTS, "--seed": _INTS}),
    ("verify",): (
        {"--theorem": st.sampled_from(["rnc", "conic", "tails", "families",
                                       "s-minus"])},
        {"--n": _INTS, "--s": _INTS, "--s1": _INTS, "--s2": _INTS,
         "--share": None, "--d": _INTS, "--j": _INTS,
         "--kind": st.sampled_from(["line", "conic"]),
         "--kind-num": st.sampled_from(["1", "2"]), "--tau": _INTS,
         "--off": _INTS, "--m": _LISTS_OF_INTS, "--eval-points": _COUNTS,
         "--seed": _INTS, "--attempts": _COUNTS, "--trials": _COUNTS}),
}
_FOREIGN = st.sampled_from(["--coord-box", "--alpha-box", "--bogus", "--h1"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[command]
    odd = draw(st.booleans())

    def value(values):
        return draw(values | _ODD if odd and values is not _COUNTS
                    else values)

    argv = list(command)
    for flag, values in required.items():
        argv += ([] if flag is None else [flag]) + [value(values)]
    # mostly the flags the drawn kind or theorem needs, so that most argvs
    # get past the checks that refuse a missing one
    if command == ("analyze",):
        needed = draw(st.sampled_from([["--poly"],
                                       ["--points", "--alphas", "--d"]]))
    else:
        needed = [f"--{flag}" for flag in
                  cli._NEEDED_FLAGS.get(command[0], {}).get(argv[-1], ())]
    picked = [flag for flag in needed if draw(st.integers(0, 7))]
    picked += draw(st.lists(st.sampled_from(sorted(optional)),
                            max_size=6)) if optional else []
    for flag in picked:
        argv += [flag] if optional[flag] is None else [flag,
                                                       value(optional[flag])]
    if draw(st.integers(0, 3)) == 3:
        argv += ["--out", draw(_OUTS)]
    if draw(st.integers(0, 3)) == 3:
        argv += [draw(_FOREIGN), value(_INTS)]
    return argv


class TestGrammarFuzz:
    """Any argv built from a subcommand's flags, repeated or missing, the
    removed box flags and unknown flags gives exit 0, 1 or 2 and one JSON
    document, never a traceback.  Both work budgets are lowered, as in
    TestListArgumentFuzz, so a large request is refused within the
    deadline."""

    @settings(max_examples=300, deadline=10_000)
    @given(argv=_argvs())
    # 10^30 copies of a tail entry used to be an OverflowError, exit 3
    @example(argv=["verify", "--theorem", "families", "--m", str(10 ** 30)])
    # n + 1 <= 0 let any s past the cell check: OverflowError, exit 3
    @example(argv=["points", "gen", "--kind", "rnc", "--n", "-1",
                   "--s", str(10 ** 30)])
    def test_exit_code_and_one_json_document(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.object(apolar, "MAX_MONOMIAL_CELLS", 10_000), \
                mock.patch.object(linalg, "MAX_ELIMINATION_CELLS", 4_000):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        json.loads(out.getvalue())  # exactly one document: no extra data


class TestParserReuse:
    ARGVS = [
        ["seq", "check", "1,3,5,5,3,1"],
        ["construct", "--h", "1,3,1", "--seed", "2"],
        ["points", "gen", "--kind", "nope"],  # an argparse error
        ["verify", "--theorem", "rnc", "--n", "2", "--s", "4"],
        ["seq", "check", "1,2,3"],
        ["analyze", "--poly", XY],
        ["construct"],  # a missing required flag
        ["points", "gen", "--kind", "two-lines", "--s1", "2", "--s2", "3"],
    ]

    @staticmethod
    def _call(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_per_process_same_output(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli.build_parser.cache_clear()
            fresh.append(self._call(capsys, argv))
        cli.build_parser.cache_clear()
        reused = [self._call(capsys, argv) for argv in self.ARGVS]
        assert cli.build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0, 2, 0]
