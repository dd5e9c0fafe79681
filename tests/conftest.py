"""Shared data for the test suite: the 20-agent reference scenario, and the
Hypothesis profiles.

The default profile, ``tier1``, draws the same examples on every run, so a
test goes red only when the code under it changes. ``explore`` draws fresh
examples on every run, ten times as many: 1,000 for each test that takes the
default count, and ten times its own for each test that sets its count
through :func:`scaled`. Select it with ``HYPOTHESIS_PROFILE=explore``, and pin
what it finds as an ``@example`` on the failing test.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from opiniondyn import build_term_set

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def scaled(max_examples: int) -> int:
    """A test's own example count, scaled as the loaded profile scales
    Hypothesis's default of 100: unchanged under tier1, ten times under explore."""
    return max_examples * settings.default.max_examples // 100


# Initial linguistic opinions of the 20-agent worked example, as term indices.
REFERENCE_TERMS = [0, 3, 6, 0, 0, 0, 5, 3, 3, 3, 5, 1, 0, 5, 3, 0, 4, 3, 4, 3]

# Heterogeneous confidence-bound scenarios: case 2 lowers agent 10's bound
# from 0.3 to 0.2, case 3 lowers agent 17's from 0.7 to 0.3.
HETERO_CASE1 = [0.2, 0.5, 0.3, 0.4, 0.2, 0.1, 0.9, 0.6, 0.5, 0.3,
                0.2, 0.1, 0.4, 0.4, 0.5, 0.3, 0.7, 0.4, 0.2, 0.2]
HETERO_CASE2 = list(HETERO_CASE1)
HETERO_CASE2[9] = 0.2
HETERO_CASE3 = list(HETERO_CASE1)
HETERO_CASE3[16] = 0.3


@pytest.fixture(scope="session")
def term_set():
    return build_term_set(3, 2)


@pytest.fixture(scope="session")
def reference_values(term_set):
    return term_set.values[np.array(REFERENCE_TERMS)]
