import numpy as np
import pytest

from fisher_fair import build_instance
from fisher_fair.sampling import sample_document, sample_instance

# four buyers with linear valuations on [0, 1]; budgets and intercepts chosen
# so the equilibrium is known to four digits (see test_acceptance)
EX5_BUDGETS = [0.1, 0.3, 0.2, 0.4]
EX5_D = [1.2, 0.6, 0.3, 1.9]
EX5_BETA = np.array([0.8058, 0.8135, 0.7057, 0.6880])
EX5_U = np.array([0.1241, 0.3688, 0.2834, 0.5814])
EX5_CUTS = np.array([0.3713, 0.4921, 0.8199])

# four buyers, three shared segments
EX6_BUDGETS = [0.2270, 0.2584, 0.2642, 0.2505]
EX6_BREAKS = [0.0, 0.3741, 0.8147, 1.0]
EX6_C = [[1.2887, 1.6253, -0.4692],
         [-1.2494, -0.2604, -0.1476],
         [-0.4802, -1.7084, 1.1019],
         [-0.0501, 2.5419, 1.2096]]
EX6_D = [[1.9391, -0.2972, 1.3209],
         [0.4674, 0.4864, 0.1476],
         [0.4137, 1.3919, -0.0462],
         [0.4262, 0.6464, 0.8471]]


def example5_document():
    c = [2.0 * (1.0 - d) for d in EX5_D]
    return {
        "mode": "linear",
        "budgets": list(EX5_BUDGETS),
        "breakpoints": [0.0, 1.0],
        "c": [[v] for v in c],
        "d": [[v] for v in EX5_D],
    }


def example6_document():
    return {
        "mode": "linear",
        "budgets": list(EX6_BUDGETS),
        "breakpoints": list(EX6_BREAKS),
        "c": [row[:] for row in EX6_C],
        "d": [row[:] for row in EX6_D],
    }


def twins_document(s, mode="linear"):
    """sample_document(2 + s % 3, 1 + (s // 3) % 3, s) with buyer 1 made a
    copy of buyer 0 and its budget scaled by U(0.2, 3)."""
    doc = sample_document(2 + s % 3, 1 + (s // 3) % 3, s, mode=mode)
    doc["c"][1] = list(doc["c"][0])
    doc["d"][1] = list(doc["d"][0])
    doc["budgets"][1] = doc["budgets"][0] * np.random.default_rng(s).uniform(0.2, 3)
    return doc


@pytest.fixture(scope="session")
def example5():
    doc = example5_document()
    return build_instance(doc["budgets"], doc["breakpoints"], doc["c"], doc["d"])


@pytest.fixture(scope="session")
def example6():
    doc = example6_document()
    return build_instance(doc["budgets"], doc["breakpoints"], doc["c"], doc["d"])


@pytest.fixture
def random_instance():
    def make(n, k, seed, mode="linear"):
        return sample_instance(n, k, seed, mode=mode)
    return make
