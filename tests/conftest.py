import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from blrc.analysis import minimal_repair
from blrc.code import decodable
from blrc.presets import blrc_15_10_w3, blrc_16_10_w2, blrc_16_10_w3


@pytest.fixture(scope="session")
def code_15_10():
    return blrc_15_10_w3()


@pytest.fixture(scope="session")
def code_16_10_w3():
    return blrc_16_10_w3()


@pytest.fixture(scope="session")
def code_16_10_w2():
    return blrc_16_10_w2()


@pytest.fixture(scope="session")
def bundled_recoveries(code_15_10, code_16_10_w3, code_16_10_w2):
    """(code, pattern, helper sets) for every decodable pattern of one to
    three blocks of the bundled codes: the plan's helpers, then every
    survivor."""
    out = []
    for code in (code_15_10, code_16_10_w3, code_16_10_w2):
        blocks = range(1, code.n + 1)
        for f in (1, 2, 3):
            for pattern in itertools.combinations(blocks, f):
                if decodable(code, pattern):
                    plan = minimal_repair(code, pattern)
                    survivors = tuple(b for b in blocks if b not in pattern)
                    out.append((code, pattern, (plan.helpers, survivors)))
    return out
