"""End-to-end tests of the command line interface.

Most cases drive ``main`` directly; the byte-determinism and bad-flag
cases go through a subprocess so the argparse layer and module entry
point are covered as shipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED
from helpers import random_sequence

from fockstate import cli
from fockstate.cli import main
from fockstate.density import BlockOperatorMatrix, StateHandle, state_eval
from fockstate.fock import FockContext
from fockstate.measures import CircleMeasure
from fockstate.product_states import UnitVectorSequence, extend, rephase
from fockstate.word_algebra import parse_expression

N = 2


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def vacuum_file(tmp_path, depth=3):
    ctx = FockContext(N, depth)
    handle = StateHandle(BlockOperatorMatrix.vacuum(ctx), "singular")
    return write_json(tmp_path / "vacuum.json", handle.to_payload())


def coherent_file(tmp_path, angle=np.pi / 2, depth=4):
    e1 = np.zeros(N, dtype=complex)
    e1[0] = 1.0
    seq = UnitVectorSequence(N, [], [e1])
    handle = extend(seq, CircleMeasure.point_mass(angle), depth)
    return write_json(tmp_path / "coherent.json", handle.to_payload())


def bad_corner_file(tmp_path):
    ctx = FockContext(N, 2)
    blocks = {
        (0, 0): np.array([[1.0 + 0j]]),
        (1, 1): np.diag([-0.2 + 0j, 0.2 + 0j]),
    }
    handle = StateHandle(BlockOperatorMatrix(ctx, blocks))
    return write_json(tmp_path / "bad.json", handle.to_payload())


def geometric_file(tmp_path, depth=4):
    ctx = FockContext(N, depth)
    blocks = {
        (k, k): 0.5**k / N**k * np.eye(N**k, dtype=complex)
        for k in range(depth + 1)
    }
    handle = StateHandle(BlockOperatorMatrix(ctx, blocks))
    return write_json(tmp_path / "geometric.json", handle.to_payload())


def big_file(tmp_path, levels=(0,), entry=1e308):
    """n=1, K=1 state with ``entry`` on the diagonal blocks of ``levels``."""
    blocks = [{"i": k, "j": k, "entries": [[entry, 0.0]]} for k in levels]
    return write_json(tmp_path / "big.json", {"n": 1, "K": 1, "blocks": blocks})


def sequence_file(tmp_path, rng, prefix_len=1, cycle_len=2):
    seq = random_sequence(rng, N, prefix_len, cycle_len)
    return write_json(tmp_path / "seq.json", seq.to_payload()), seq


def measure_file(tmp_path, measure, name="measure.json"):
    return write_json(tmp_path / name, measure.to_payload())


class TestEval:
    def test_vacuum_identity(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        assert main(["eval", state, "1"]) == 0
        assert capsys.readouterr().out == "1 0\n"

    def test_vacuum_range_projection(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        assert main(["eval", state, "v1 v1*"]) == 0
        assert capsys.readouterr().out == "0 0\n"

    def test_coherent_generator_value(self, tmp_path, capsys):
        state = coherent_file(tmp_path)
        assert main(["eval", state, "v1"]) == 0
        re, im = map(float, capsys.readouterr().out.split())
        assert re == pytest.approx(0.0, abs=1e-12)
        assert im == pytest.approx(1.0, abs=1e-12)

    def test_expression_arithmetic(self, tmp_path, capsys):
        state = coherent_file(tmp_path, angle=0.0)
        assert main(["eval", state, "(0.5+0.5i) v1 v1* + 0.25"]) == 0
        re, im = map(float, capsys.readouterr().out.split())
        # range projection of v1 carries the full mass at level 1
        assert re == pytest.approx(0.75, abs=1e-12)
        assert im == pytest.approx(0.5, abs=1e-12)

    def test_syntax_error_is_input_error(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        assert main(["eval", state, "v1 +"]) == 2
        assert "error" in capsys.readouterr().err

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        assert main(["eval", state, "(" * 400 + "v1" + ")" * 400]) == 2
        err = capsys.readouterr().err
        assert "nested deeper than 100 levels (at position 100)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("expression", [
        "1" * 401,
        "{big} + {big}",
        "({big}+{big}i)",
    ])
    def test_overflowing_number_is_input_error(self, tmp_path, capsys, expression):
        big = format(np.finfo(float).max, "f")
        state = vacuum_file(tmp_path, depth=2)
        assert main(["eval", state, expression.format(big=big)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_overflowing_value_is_input_error(self, tmp_path, capsys):
        state = big_file(tmp_path)
        assert main(["eval", state, "1"]) == 0
        assert capsys.readouterr().out == "1e+308 0\n"
        assert main(["eval", state, "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the value overflows")

    def test_letter_out_of_range_is_input_error(self, tmp_path):
        state = vacuum_file(tmp_path)
        assert main(["eval", state, "v7"]) == 2

    def test_beyond_horizon_is_exit_three(self, tmp_path):
        state = vacuum_file(tmp_path, depth=2)
        assert main(["eval", state, "v[1,1,1]"]) == 3

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["eval", str(tmp_path / "nope.json"), "1"]) == 2

    def test_unknown_payload_key_is_input_error(self, tmp_path):
        payload = {"n": 2, "K": 1, "blocks": [], "junk": True}
        state = write_json(tmp_path / "junk.json", payload)
        assert main(["eval", state, "1"]) == 2


class TestCheck:
    def test_positivity_pass(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        assert main(["check", state, "--what", "positivity"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("positivity: pass\n")
        cert = json.loads(out.split("\n", 1)[1])
        assert cert["ok"] is True

    def test_positivity_fail_reports_eigenvalue(self, tmp_path, capsys):
        state = bad_corner_file(tmp_path)
        assert main(["check", state, "--what", "positivity"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("positivity: fail\n")
        cert = json.loads(out.split("\n", 1)[1])
        assert cert["ok"] is False
        assert min(cert["min_eigenvalues"]) == pytest.approx(-0.2, abs=1e-12)

    def test_decreasing_pass(self, tmp_path):
        state = coherent_file(tmp_path)
        assert main(["check", state, "--what", "decreasing"]) == 0

    def test_essential_pass_on_extension(self, tmp_path, capsys):
        state = coherent_file(tmp_path)
        assert main(["check", state, "--what", "essential"]) == 0
        cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert cert["classification"] == "essential"
        assert all(
            x == pytest.approx(1.0, abs=1e-10) for x in cert["trace_profile"]
        )

    def test_singular_pass_on_vacuum(self, tmp_path):
        state = vacuum_file(tmp_path)
        assert main(["check", state, "--what", "singular"]) == 0

    def test_essential_fail_on_vacuum(self, tmp_path):
        state = vacuum_file(tmp_path)
        assert main(["check", state, "--what", "essential"]) == 1

    def test_undetermined_is_exit_four(self, tmp_path, capsys):
        state = geometric_file(tmp_path)
        assert main(["check", state, "--what", "essential"]) == 4
        assert "undetermined" in capsys.readouterr().out

    def test_largest_entries_pass_positivity(self, tmp_path, capsys):
        assert main(["check", big_file(tmp_path), "--what", "positivity"]) == 0
        cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert cert["min_eigenvalues"] == [1e308, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_certificate_is_input_error(self, tmp_path, capsys):
        # The level-1 corner's trace, 3e308, overflows its tolerance.
        state = big_file(tmp_path, levels=(0, 1), entry=1.5e308)
        assert main(["check", state, "--what", "positivity"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_decreasing_at_horizon_zero_is_exit_four(self, tmp_path, capsys):
        state = vacuum_file(tmp_path, depth=0)
        assert main(["check", state, "--what", "decreasing"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "horizon too short" in captured.err

    def test_tolerance_override(self, tmp_path):
        # a loose tolerance accepts the slightly negative corner
        state = bad_corner_file(tmp_path)
        assert main(
            ["check", state, "--what", "positivity", "--tolerance", "0.5"]
        ) == 0


class TestRejectsBadNumbers:
    """Non-finite and boolean numbers in a state file are input errors."""

    NAN_STATE = '{"n":2,"K":1,"blocks":[{"i":0,"j":0,"entries":[[NaN,0.0]]}]}'

    def state(self, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        return str(path)

    def test_nan_positivity_is_input_error(self, tmp_path, capsys):
        state = self.state(tmp_path, self.NAN_STATE)
        assert main(["check", state, "--what", "positivity"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_nan_eval_is_input_error(self, tmp_path, capsys):
        state = self.state(tmp_path, self.NAN_STATE)
        assert main(["eval", state, "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_infinity_is_input_error(self, tmp_path):
        text = self.NAN_STATE.replace("NaN", "-Infinity")
        assert main(["eval", self.state(tmp_path, text), "1"]) == 2

    def test_boolean_size_is_input_error(self, tmp_path):
        text = self.NAN_STATE.replace('"n":2', '"n":true').replace("NaN", "1.0")
        assert main(["check", self.state(tmp_path, text), "--what", "positivity"]) == 2

    def test_boolean_entries_are_input_error(self, tmp_path):
        text = self.NAN_STATE.replace("[NaN,0.0]", "[true,false]")
        assert main(["check", self.state(tmp_path, text), "--what", "positivity"]) == 2

    def test_overflowing_factored_block_is_input_error(self, tmp_path, capsys):
        # Finite numbers whose product, the block's entry, overflows.
        blocks = [{"i": 0, "j": 0, "coeff": [1e308, 0.0],
                   "left": [[0.0, 2.0]], "right": [[0.0, 2.0]]}]
        state = write_json(tmp_path / "state.json", {"n": 1, "K": 0, "blocks": blocks})
        assert main(["eval", state, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: block (0,0) has entries beyond the float range\n"


class TestExactHorizon:
    """``exact_horizon`` must be an integer in 0..K; otherwise the checks
    would run on fewer corners than the file holds."""

    # n=1, K=1: the matrix [[1, 2], [2, 1]], which is not positive.
    NOT_PSD = {"n": 1, "K": 1, "blocks": [
        {"i": i, "j": j, "entries": [[1.0 if i == j else 2.0, 0.0]]}
        for i in (0, 1) for j in (0, 1)]}

    def state(self, tmp_path, metadata):
        return write_json(tmp_path / "state.json", {**self.NOT_PSD, "metadata": metadata})

    def test_full_horizon_fails_positivity(self, tmp_path):
        state = self.state(tmp_path, {"exact_horizon": 1})
        assert main(["check", state, "--what", "positivity"]) == 1

    def test_horizon_zero_checks_one_corner(self, tmp_path, capsys):
        state = self.state(tmp_path, {"exact_horizon": 0})
        assert main(["check", state, "--what", "positivity"]) == 0
        cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert cert["min_eigenvalues"] == [1.0]
        assert len(cert["tolerances"]) == 1

    def test_corner_count_follows_the_horizon(self, tmp_path, capsys):
        # K = 2 stored, horizon 1: positivity checks corners 0..1, and the
        # state minus its slice has horizon 0, so decreasing checks corner 0.
        payload = json.loads(open(coherent_file(tmp_path, depth=2)).read())
        payload["metadata"]["exact_horizon"] = 1
        state = write_json(tmp_path / "h1.json", payload)
        for what, corners in (("positivity", 2), ("decreasing", 1)):
            assert main(["check", state, "--what", what]) == 0
            cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
            assert len(cert["min_eigenvalues"]) == corners
            assert len(cert["tolerances"]) == corners

    @pytest.mark.parametrize("horizon", [-1, True, 2, 1.0])
    def test_bad_horizon_is_input_error(self, tmp_path, capsys, horizon):
        state = self.state(tmp_path, {"exact_horizon": horizon})
        assert main(["check", state, "--what", "positivity"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exact_horizon" in captured.err


class TestTolerance:
    """``--tolerance`` takes finite values >= 0 only; an infinite one would
    pass any state."""

    @pytest.mark.parametrize("value", ["inf", "nan", "-1e-3", "abc"])
    @pytest.mark.parametrize("command", [
        ["check", "--what", "positivity"],
        ["check", "--what", "essential"],
        ["decompose", "--out-prefix", "parts"],
    ], ids=["positivity", "essential", "decompose"])
    def test_bad_tolerance_is_input_error(self, tmp_path, monkeypatch, capsys,
                                          command, value):
        monkeypatch.chdir(tmp_path)
        argv = [command[0], bad_corner_file(tmp_path), *command[1:],
                f"--tolerance={value}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not list(tmp_path.glob("parts.*"))

    def test_zero_tolerance_is_accepted(self, tmp_path):
        state = vacuum_file(tmp_path)
        assert main(["check", state, "--what", "singular", "--tolerance", "0"]) == 0


class TestDeepSupport:
    def test_deep_vacuum_checks_quickly(self, tmp_path, capsys):
        state = vacuum_file(tmp_path, depth=40)
        assert main(["check", state, "--what", "positivity"]) == 0
        cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert cert["min_eigenvalues"] == [1.0] + [0.0] * 40
        assert main(["check", state, "--what", "decreasing"]) == 0


class TestDepthBound:
    """At n >= 2 a depth whose top level has more than np.intp max rows is
    input error, caught before any level is built."""

    def test_too_deep_state_file_is_input_error(self, tmp_path, capsys):
        state = write_json(tmp_path / "deep.json", {
            "n": 2, "K": 64, "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]}]})
        assert main(["eval", state, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err

    def test_too_deep_extend_is_input_error(self, tmp_path, capsys):
        seq_path, _ = sequence_file(tmp_path, np.random.default_rng(SEED + 260))
        m_path = measure_file(tmp_path, CircleMeasure.haar())
        out = tmp_path / "o.json"
        code = main(["extend", seq_path, m_path, "--depth", "64", "--out", str(out)])
        assert code == 2
        assert "too large" in capsys.readouterr().err
        assert not out.exists()

    def test_deep_vacuum_still_loads(self, tmp_path, capsys):
        state = vacuum_file(tmp_path, depth=40)
        assert main(["eval", state, "1"]) == 0
        assert capsys.readouterr().out == "1 0\n"


class TestExtend:
    def run_extend(self, tmp_path, capsys, measure, depth=5):
        rng = np.random.default_rng(SEED + 200)
        seq_path, seq = sequence_file(tmp_path, rng)
        m_path = measure_file(tmp_path, measure)
        out_path = tmp_path / "state.json"
        code = main(
            [
                "extend", seq_path, m_path,
                "--depth", str(depth), "--out", str(out_path),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        return code, report, out_path, seq

    def test_writes_essential_state(self, tmp_path, capsys):
        measure = CircleMeasure.from_atoms([(1.1, 0.4), (4.0, 0.6)])
        code, report, out_path, _ = self.run_extend(tmp_path, capsys, measure)
        assert code == 0
        assert report["classification"] == "essential"
        assert report["period"] == 2
        assert not report["unique_extension"]
        assert any("level 5" in w for w in report["warnings"])
        assert main(["check", str(out_path), "--what", "essential"]) == 0

    def test_accepts_unrephased_input(self, tmp_path, capsys):
        # the command rephases internally; values match the library route
        measure = CircleMeasure.point_mass(0.8)
        code, report, out_path, seq = self.run_extend(
            tmp_path, capsys, measure
        )
        assert code == 0
        expected = extend(rephase(seq), measure, 5)
        back = StateHandle.from_payload(json.loads(out_path.read_text()))
        assert back.matrix.max_abs_diff(expected.matrix) <= 1e-12

    def test_haar_extension_checks_out(self, tmp_path, capsys):
        code, report, out_path, _ = self.run_extend(
            tmp_path, capsys, CircleMeasure.haar()
        )
        assert code == 0
        assert main(["check", str(out_path), "--what", "essential"]) == 0

    UNIT_SEQUENCE = '{"n":2,"prefix":[],"cycle":[[[1.0,0.0],[0.0,0.0]]]}'
    HAAR = '{"haar_weight":1.0,"atoms":[]}'

    @pytest.mark.parametrize("sequence, measure", [
        ('{"n":2,"prefix":[],"cycle":[[[NaN,0.0],[0.0,0.0]]]}', HAAR),
        ('{"n":2,"prefix":[],"cycle":[[[true,0.0],[0.0,0.0]]]}', HAAR),
        (UNIT_SEQUENCE, '{"haar_weight":0.0,"atoms":[{"angle":NaN,"weight":1.0}]}'),
        (UNIT_SEQUENCE, '{"haar_weight":0.0,"atoms":[{"angle":0.5,"weight":NaN}]}'),
        (UNIT_SEQUENCE, '{"haar_weight":0.0,"atoms":[{"angle":true,"weight":1.0}]}'),
        (UNIT_SEQUENCE, '{"haar_weight":Infinity,"atoms":[]}'),
        (UNIT_SEQUENCE, '{"haar_weight":true,"atoms":[]}'),
    ])
    def test_non_finite_or_boolean_input_is_input_error(
            self, tmp_path, capsys, sequence, measure):
        (tmp_path / "s.json").write_text(sequence)
        (tmp_path / "m.json").write_text(measure)
        out = tmp_path / "o.json"
        code = main(["extend", str(tmp_path / "s.json"), str(tmp_path / "m.json"),
                     "--depth", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_malformed_sequence_is_input_error(self, tmp_path):
        seq_path = write_json(tmp_path / "s.json", {"n": 2, "cycle": []})
        m_path = measure_file(tmp_path, CircleMeasure.haar())
        out = str(tmp_path / "o.json")
        code = main(
            ["extend", seq_path, m_path, "--depth", "3", "--out", out]
        )
        assert code == 2


class TestFactoredFiles:
    """Extension states are written with factored blocks."""

    def extension_file(self, tmp_path, capsys, depth):
        rng = np.random.default_rng(SEED + 203)
        seq_path, _ = sequence_file(tmp_path, rng)
        m_path = measure_file(
            tmp_path, CircleMeasure.from_atoms([(0.3, 0.3), (2.2, 0.2)], haar_weight=0.5))
        out = tmp_path / "state.json"
        assert main(["extend", seq_path, m_path, "--depth", str(depth),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_deep_files_stay_small(self, tmp_path, capsys):
        # Densified, each file would hold 12.6 MB at n=2, K=8.
        state = self.extension_file(tmp_path, capsys, depth=8)
        assert state.stat().st_size < 1_000_000
        prefix = str(tmp_path / "parts")
        assert main(["decompose", str(state), "--out-prefix", prefix]) == 0
        assert (tmp_path / "parts.essential.json").stat().st_size < 1_000_000

    def test_checks_agree_with_a_dense_copy(self, tmp_path, capsys):
        state = self.extension_file(tmp_path, capsys, depth=5)
        handle = StateHandle.from_payload(json.loads(state.read_text()))
        matrix = handle.matrix
        dense = BlockOperatorMatrix(
            matrix.ctx, {key: matrix.block(*key) for key in matrix.blocks}, matrix.horizon)
        dense_path = write_json(tmp_path / "dense.json",
                                StateHandle(dense, "essential").to_payload())
        assert "entries" in json.loads(open(dense_path).read())["blocks"][0]
        for what in ("positivity", "decreasing", "essential", "singular"):
            reports = []
            for path in (str(state), dense_path):
                code = main(["check", path, "--what", what])
                first, cert = capsys.readouterr().out.split("\n", 1)
                reports.append((code, first, json.loads(cert)))
            (code, first, cert), (dense_code, dense_first, dense_cert) = reports
            assert (code, first, cert["ok"]) == (dense_code, dense_first, dense_cert["ok"])
            for got, want, tol in zip(cert.get("min_eigenvalues", ()),
                                      dense_cert.get("min_eigenvalues", ()),
                                      cert.get("tolerances", ())):
                assert abs(got - want) <= tol

    def test_eval_matches_in_process_value(self, tmp_path, capsys):
        state = self.extension_file(tmp_path, capsys, depth=4)
        matrix = StateHandle.from_payload(json.loads(state.read_text())).matrix
        text = "(0.5-2i) v1 v2 v[1,1]* + v2* - 0.25 v[2,1,2] v[1,2,2]*"
        value = state_eval(matrix, parse_expression(text, N))
        assert main(["eval", str(state), text]) == 0
        assert capsys.readouterr().out == (
            f"{value.real + 0.0:.15g} {value.imag + 0.0:.15g}\n")


class TestInternalError:
    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("no convergence"),
                                       MemoryError("out of memory")])
    def test_unexpected_exception_is_exit_five(self, tmp_path, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "state_eval", fail)
        assert main(["eval", vacuum_file(tmp_path), "1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"internal error: {type(error).__name__}: {error}" in captured.err


class TestDecompose:
    def mixture_file(self, tmp_path):
        rng = np.random.default_rng(SEED + 201)
        seq = rephase(random_sequence(rng, N, 0, 2))
        essential = extend(seq, CircleMeasure.point_mass(0.4), 4).matrix
        vac = BlockOperatorMatrix.vacuum(FockContext(N, 4))
        mix = 0.3 * essential + 0.7 * vac
        return write_json(
            tmp_path / "mix.json", StateHandle(mix).to_payload()
        )

    def test_splits_mixture(self, tmp_path, capsys):
        state = self.mixture_file(tmp_path)
        prefix = str(tmp_path / "parts")
        assert main(["decompose", state, "--out-prefix", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["essential_mass"] == pytest.approx(0.3, abs=1e-9)
        assert report["singular_mass"] == pytest.approx(0.7, abs=1e-9)
        ess = StateHandle.from_payload(
            json.loads((tmp_path / "parts.essential.json").read_text())
        )
        assert ess.classification == "essential"
        assert main(
            ["check", str(tmp_path / "parts.essential.json"),
             "--what", "essential"]
        ) == 0
        csv = (tmp_path / "parts.profile.csv").read_text()
        assert csv.startswith("k,omega_Ek\n")
        first = float(csv.splitlines()[1].split(",")[1])
        assert first == pytest.approx(1.0, abs=1e-12)

    def test_undetermined_is_exit_four(self, tmp_path, capsys):
        state = geometric_file(tmp_path)
        prefix = str(tmp_path / "parts")
        assert main(["decompose", state, "--out-prefix", prefix]) == 4
        assert "trace profile" in capsys.readouterr().err

    def assert_input_error_without_files(self, tmp_path, capsys, payload):
        state = write_json(tmp_path / "state.json", payload)
        assert main(["decompose", state, "--out-prefix", str(tmp_path / "parts")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not list(tmp_path.glob("parts.*"))

    def test_overflowing_profile_is_input_error(self, tmp_path, capsys):
        # 1e308 times the product state of e1, plus 1e308 on the word 2:
        # both parts are finite, but the input's level-1 trace overflows.
        blocks = []
        for i in range(5):
            for j in range(5):
                entries = [[0.0, 0.0]] * (N**i * N**j)
                entries[0] = [1e308, 0.0]
                if (i, j) == (1, 1):
                    entries[3] = [1e308, 0.0]
                blocks.append({"i": i, "j": j, "entries": entries})
        self.assert_input_error_without_files(
            tmp_path, capsys, {"n": N, "K": 4, "blocks": blocks})

    def test_overflowing_sliced_coefficient_is_input_error(self, tmp_path, capsys):
        # The slice doubles the coefficient to 1.5e308 (1 + i), whose modulus
        # overflows although both of its parts are finite.
        block = {"i": 1, "j": 2, "coeff": [0.75e308, 0.75e308],
                 "left": [[1.0, 0.0]] * 2, "right": [[1.0, 0.0]] * 4}
        vacuum = {"i": 0, "j": 0, "entries": [[1.0, 0.0]]}
        self.assert_input_error_without_files(
            tmp_path, capsys, {"n": N, "K": 2, "blocks": [vacuum, block]})


class TestDeterminism:
    def cli(self, *args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "fockstate.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_extend_reruns_byte_identical(self, tmp_path):
        rng = np.random.default_rng(SEED + 202)
        seq_path, _ = sequence_file(tmp_path, rng, prefix_len=2)
        m_path = measure_file(
            tmp_path, CircleMeasure.from_atoms([(0.9, 1.0)])
        )
        outs = []
        stdouts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = self.cli(
                "extend", seq_path, m_path, "--depth", "4",
                "--out", str(out),
            )
            assert res.returncode == 0
            outs.append(out.read_bytes())
            stdouts.append(res.stdout.replace(name, "out.json"))
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]

    def test_eval_subprocess_matches_direct(self, tmp_path, capsys):
        state = vacuum_file(tmp_path)
        res = self.cli("eval", state, "1")
        assert res.returncode == 0
        assert res.stdout == "1 0\n"

    def test_unknown_what_is_usage_error(self, tmp_path):
        state = vacuum_file(tmp_path)
        res = self.cli("check", state, "--what", "bogus")
        assert res.returncode == 2

    def test_threads_flag_accepted(self, tmp_path):
        state = vacuum_file(tmp_path)
        res = self.cli("--threads", "2", "eval", state, "1")
        assert res.returncode == 0
        assert res.stdout == "1 0\n"
