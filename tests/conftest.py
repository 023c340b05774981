import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

SEED = int(os.environ.get("FOCKSTATE_SEED", "20260819"))
SEED_LINE = f"session seed: FOCKSTATE_SEED={SEED}"

# One line per acceptance criterion, written by tests/test_acceptance.py and
# echoed after the test summary so the verdicts survive in plain output.
_criterion_lines = []


def pytest_report_header(config):
    return SEED_LINE


def record_criterion(line):
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if terminalreporter.verbosity < 0:
        # -q hides the report header, so a quiet run names its seed here.
        terminalreporter.write_line(SEED_LINE)
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
