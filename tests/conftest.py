from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs, so the suite computes the same
# trajectories; it only takes effect if set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import Phase, settings

from voltctrl import load_case, parse_case, powerflow

# For mutation runs (--hypothesis-profile=no-shrink): a failing search stops at
# its first counterexample instead of shrinking it, which can take minutes.
# Tier-1 runs the default profile.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])

# Two-bus network with a closed-form solution, used as the hand-checked
# oracle throughout the suite: slack at 1.0 pu feeding a 0.736 pu reactive
# load over a lossless x=0.1 line. The load bus settles at exactly 0.92 pu
# and the voltage sensitivity to local injection is exactly 0.1.
TOY2_TEXT = """\
function mpc = toy2
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
\t2\t1\t0\t73.6\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t0\t0\t1.0\t100\t1\t0\t0;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture(scope="session")
def toy2():
    return parse_case(TOY2_TEXT, name="toy2")


@pytest.fixture(scope="session")
def case14():
    return load_case("case14")


@pytest.fixture(scope="session")
def case30():
    return load_case("case30")


@pytest.fixture
def jacobian_builds(monkeypatch):
    """A one-entry list counting the power-flow Jacobians built from here on."""
    calls = [0]
    build = powerflow._jacobian

    def counting(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(powerflow, "_jacobian", counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    import sys

    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(verdicts):
            terminalreporter.write_line(line)
