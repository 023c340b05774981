"""The ``cli-pipeline`` workload: six CLI subprocesses per unit.

Each unit runs ``extend``, ``check --what positivity|decreasing|essential``,
``decompose`` and ``eval`` through ``python -m fockstate.cli``, one child at
a time, on one seeded input: a period-2 extension at n=2, K=8 (total
dimension 511) with a one-vector prefix and a Haar-plus-two-atoms measure.

A traced unit also replays each subcommand in-process through the public
functions the subcommand calls, with a span around each; the subprocesses
themselves are never instrumented.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from time import perf_counter

import numpy as np

from fockstate import (
    CircleMeasure,
    StateHandle,
    classify,
    decompose,
    extend,
    parse_expression,
    period,
    rephase,
    state_eval,
    trace_profile_csv,
)
from fockstate.product_states import UnitVectorSequence

import inputs
from library import expect
from spans import Tracer

N, DEPTH = 2, 8
POOL = 12
CHECKS = ("positivity", "decreasing", "essential")
COMMANDS = ("extend",) + CHECKS + ("decompose", "eval")
# A child still running after this long is killed and its unit fails.
CHILD_TIMEOUT_S = 60.0
VALUE_TOL = 1e-9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fockstate.cli; "
                "print(time.perf_counter() - t)")
UNTRACED = Tracer(False)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliPipeline:
    """Seeded input files in ``workdir``, and the CLI run on them."""

    def __init__(self, seed: int, workdir: str, src: str):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        rng = np.random.default_rng([seed, 1])
        self.inputs = [self._input(rng, f"input{i}") for i in range(POOL)]
        os.makedirs(os.path.join(workdir, "unit"))
        os.makedirs(os.path.join(workdir, "replay"))
        self.peak_rss_kb = 0
        self.first_extend = None
        # Called with each child's wall time; the harness times its
        # reference computation there and returns its time, which goes in
        # child_ref under the child's command.
        self.after_child = None
        self.child_ref = {}

    def _input(self, rng, name: str) -> dict:
        sequence = inputs.sequence_payload(rng, N, 1, 2)
        measure = inputs.measure_payload(rng, 2, float(rng.uniform(0.2, 0.5)))
        expression = inputs.expression_text(
            rng, inputs.X_SHAPES, inputs.relabelled_letters(rng, N, (N, DEPTH)))
        os.makedirs(os.path.join(self.workdir, name))
        paths = {"sequence": f"{name}/sequence.json",
                 "measure": f"{name}/measure.json"}
        for key, payload in (("sequence", sequence), ("measure", measure)):
            with open(os.path.join(self.workdir, paths[key]), "w",
                      encoding="utf-8") as fh:
                json.dump(payload, fh)
        # Expected outputs, computed in-process the way the CLI does.
        seq = UnitVectorSequence.from_payload(sequence)
        matrix = extend(rephase(seq, period(seq)),
                        CircleMeasure.from_payload(measure), DEPTH).matrix
        value = state_eval(matrix, parse_expression(expression, N))
        return dict(paths, expression=expression, trace=matrix.trace(),
                    value=value)

    def warm_up(self) -> None:
        """The CLI pays its start-up in every call, so nothing is warmed."""

    # -- subprocesses ---------------------------------------------------------

    def _argv(self, command: str, inp: dict) -> list[str]:
        state = "unit/state.json"
        if command == "extend":
            return ["extend", inp["sequence"], inp["measure"],
                    "--depth", str(DEPTH), "--out", state]
        if command in CHECKS:
            return ["check", state, "--what", command]
        if command == "decompose":
            return ["decompose", state, "--out-prefix", "unit/dec"]
        return ["eval", state, inp["expression"]]

    def _run(self, argv: list[str], name: str):
        """Run one child; returns (seconds, exit code, stdout path).

        ``os.wait4`` reaps the child and gives its own peak RSS.
        """
        out_path = os.path.join(self.workdir, "unit", f"{name}.stdout")
        err_path = os.path.join(self.workdir, "unit", f"{name}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return seconds, proc.returncode, out_path

    def _cli(self, command: str, inp: dict):
        result = self._run([sys.executable, "-m", "fockstate.cli",
                            *self._argv(command, inp)], command)
        if self.after_child is not None:
            self.child_ref[command] = self.after_child(result[0])
        return result

    def unit(self, index: int, tr) -> dict:
        inp = self.inputs[index % POOL]
        unit_dir = os.path.join(self.workdir, "unit")
        for entry in os.listdir(unit_dir):
            os.remove(os.path.join(unit_dir, entry))
        runs = {command: self._cli(command, inp) for command in COMMANDS}
        record = {
            "size": f"n{N}K{DEPTH}",
            "seconds": sum(seconds for seconds, _, _ in runs.values()),
            "calls": {command: runs[command][0] for command in COMMANDS},
            "output_bytes": sum(os.path.getsize(os.path.join(unit_dir, f))
                                for f in os.listdir(unit_dir)),
        }
        if self.after_child is not None:
            record["ref_units"] = sum(runs[c][0] / self.child_ref[c]
                                      for c in COMMANDS)
        self._check(runs, inp, tr)
        if index == 0:
            self.first_extend = (_sha256(os.path.join(unit_dir, "state.json")),
                                 _sha256(runs["extend"][2]))
        if tr.enabled:
            record.update(self._traced(index, inp, tr, record["calls"]))
        return record

    def _check(self, runs: dict, inp: dict, tr) -> None:
        for command, (_, code, _) in runs.items():
            expect(tr, "cli", code == 0, f"{command} exited with {code}")

        def stdout(command):
            with open(runs[command][2], encoding="utf-8") as fh:
                return fh.read()

        summary = json.loads(stdout("extend"))
        expect(tr, "cli", summary["classification"] == "essential"
               and summary["period"] == 2,
               f"extend reported {summary['classification']!r}, "
               f"period {summary['period']!r}")
        for what in CHECKS:
            first = stdout(what).splitlines()[0]
            expect(tr, "cli", first == f"{what}: pass",
                   f"check --what {what} printed {first!r}")
        masses = json.loads(stdout("decompose"))
        singular, essential = masses["singular_mass"], masses["essential_mass"]
        expect(tr, "cli", abs(singular) <= VALUE_TOL,
               f"singular mass {singular!r} of an extension state")
        expect(tr, "cli", abs(essential + singular - inp["trace"]) <= VALUE_TOL,
               f"masses sum to {essential + singular!r}, "
               f"trace is {inp['trace']!r}")
        re, im = (float(x) for x in stdout("eval").split())
        expected = inp["value"]
        expect(tr, "cli", abs(complex(re, im) - expected)
               <= VALUE_TOL * max(1.0, abs(expected)),
               f"eval printed {re!r} {im!r}, in-process value {expected!r}")

    def finish(self) -> list[int]:
        """Repeat the first unit's ``extend``: the state file and stdout
        must be byte-identical.  Returns the units that failed here."""
        if self.first_extend is None:
            return []
        _, code, out_path = self._cli("extend", self.inputs[0])
        state = os.path.join(self.workdir, "unit", "state.json")
        if code != 0 or (_sha256(state), _sha256(out_path)) != self.first_extend:
            print("error: extend is not deterministic", file=sys.stderr)
            return [0]
        return []

    # -- traced replay --------------------------------------------------------

    def _traced(self, index: int, inp: dict, tr, walls: dict) -> dict:
        """Replay the unit in-process, traced and untraced in alternating
        order, and time a fresh interpreter importing the CLI."""
        out = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            start = perf_counter()
            if traced:
                tr.unit = index
                self._replay(inp, tr)
                out["traced_seconds"] = perf_counter() - start
            else:
                self._replay(inp, UNTRACED)
                out["untraced_seconds"] = perf_counter() - start
        replayed = sum(tr.child_time(index, f"replay.{c}") for c in COMMANDS)
        out["cli_self_seconds"] = sum(walls.values()) - replayed
        _, code, out_path = self._run(
            [sys.executable, "-c", IMPORT_PROBE], "import")
        expect(tr, "cli", code == 0, f"import probe exited with {code}")
        with open(out_path, encoding="utf-8") as fh:
            out["import_seconds"] = float(fh.read())
        return out

    def _replay(self, inp: dict, tr) -> None:
        """The subcommands' work, through the functions each one calls."""
        replay = os.path.join(self.workdir, "replay")
        state = os.path.join(replay, "state.json")
        tr.call("replay.extend", self._replay_extend, inp, state, tr)
        for what in CHECKS:
            tr.call(f"replay.{what}", self._replay_check, what, state, tr)
        tr.call("replay.decompose", self._replay_decompose,
                state, os.path.join(replay, "dec"), tr)
        tr.call("replay.eval", self._replay_eval, inp, state, tr)

    def _replay_extend(self, inp: dict, state: str, tr) -> None:
        seq = tr.call("product_states.sequence_from_payload",
                      UnitVectorSequence.from_payload,
                      _load(os.path.join(self.workdir, inp["sequence"]), tr))
        measure = tr.call("measures.from_payload", CircleMeasure.from_payload,
                          _load(os.path.join(self.workdir, inp["measure"]), tr))
        seq = tr.call("product_states.rephase", rephase, seq, period(seq))
        handle = tr.call("product_states.extend", extend, seq, measure, DEPTH)
        tr.note_state(handle.matrix)
        _dump(tr.call("density.to_payload", handle.to_payload), state, tr)

    @staticmethod
    def _replay_check(what: str, state: str, tr) -> None:
        matrix = _load_state(state, tr)
        if what == "positivity":
            ok = tr.call("density.is_positive", matrix.is_positive).ok
        elif what == "decreasing":
            ok = tr.call("density.is_decreasing", matrix.is_decreasing).ok
        else:
            ok = tr.call("density.classify", classify, matrix).label == what
        expect(tr, "density", ok, f"replayed check --what {what} fails")

    @staticmethod
    def _replay_decompose(state: str, prefix: str, tr) -> None:
        matrix = _load_state(state, tr)
        result = tr.call("density.decompose", decompose, matrix)
        for part, label in ((result.essential, "essential"),
                            (result.singular, "singular")):
            tr.note_state(part)
            payload = tr.call("density.to_payload",
                              StateHandle(part, label).to_payload)
            _dump(payload, f"{prefix}.{label}.json", tr)
        with open(f"{prefix}.profile.csv", "w", encoding="utf-8") as fh:
            fh.write(trace_profile_csv(matrix) + "\n")
        tr.count("cli.bytes_written", os.path.getsize(f"{prefix}.profile.csv"))

    @staticmethod
    def _replay_eval(inp: dict, state: str, tr) -> None:
        matrix = _load_state(state, tr)
        element = tr.call("word_algebra.parse_expression", parse_expression,
                          inp["expression"], N)
        value = tr.call("density.state_eval", state_eval, matrix, element)
        expect(tr, "density",
               abs(value - inp["value"]) <= VALUE_TOL * max(1.0, abs(value)),
               f"replayed eval gives {value!r}, expected {inp['value']!r}")


def _load(path: str, tr):
    tr.count("cli.bytes_read", os.path.getsize(path))

    def load():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    return tr.call("cli.json_load", load)


def _dump(payload, path: str, tr) -> None:
    def dump():
        text = json.dumps(payload, indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    tr.call("cli.json_dump", dump)
    tr.count("cli.bytes_written", os.path.getsize(path))


def _load_state(path: str, tr):
    handle = tr.call("density.from_payload", StateHandle.from_payload,
                     _load(path, tr))
    tr.note_state(handle.matrix)
    return handle.matrix
