"""Random model generators shared by the property and acceptance tests, and
a runner for child interpreters."""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import obell
from obell.core import LABELS, PAIR_KEYS, DeterministicStrategy, HiddenVariableModel, model_to_json
from obell.lhv import make_detection_model, make_epsilon_model


def random_strategies(rng: np.random.Generator, n: int) -> list[DeterministicStrategy]:
    """n perfect-anticorrelation strategies with random Alice outputs."""
    out = []
    for _ in range(n):
        a_out = {s: int(rng.choice((1, -1))) for s in LABELS}
        out.append(DeterministicStrategy(a_out=a_out, b_out={s: -v for s, v in a_out.items()}))
    return out


def random_perfect_model(rng: np.random.Generator, max_atoms: int = 8) -> HiddenVariableModel:
    """Random mixture of perfect-anticorrelation strategies, float weights."""
    n = int(rng.integers(1, max_atoms + 1))
    weights = rng.dirichlet(np.ones(n))
    return HiddenVariableModel.build([float(w) for w in weights], random_strategies(rng, n))


def random_epsilon_model(
    rng: np.random.Generator, epsilon: float, max_atoms: int = 8
) -> HiddenVariableModel:
    """Random model whose anti-correlation defect mass is <= epsilon per setting."""
    n = int(rng.integers(1, max_atoms + 1))
    weights = [float(w) for w in rng.dirichlet(np.ones(n))]
    base = list(zip(weights, random_strategies(rng, n)))
    flip_sets: dict[str, set[int]] = {}
    for s in LABELS:
        chosen: set[int] = set()
        mass = 0.0
        for i in rng.permutation(n):
            if rng.random() < 0.5 and mass + weights[i] <= epsilon:
                chosen.add(int(i))
                mass += weights[i]
        flip_sets[s] = chosen
    return make_epsilon_model(base, flip_sets, epsilon)


def uniform_fraction_weights(n: int) -> list[Fraction]:
    return [Fraction(1, n)] * n


def random_detection_model(
    rng: np.random.Generator, n_atoms: int, detected_per_pair: int
) -> HiddenVariableModel:
    """Uniform-weight perfect-anticorrelation model with random equal-size
    detection sets (joint efficiency detected_per_pair / n_atoms), exact
    rational weights."""
    base = HiddenVariableModel.build(
        uniform_fraction_weights(n_atoms), random_strategies(rng, n_atoms)
    )
    detect_sets = {
        key: set(int(i) for i in rng.choice(n_atoms, size=detected_per_pair, replace=False))
        for key in PAIR_KEYS
    }
    return make_detection_model(base, detect_sets)


def random_combined_model(
    rng: np.random.Generator, n_atoms: int, flips_per_label: int, detected_per_pair: int
) -> HiddenVariableModel:
    """Uniform-weight model with both defects: epsilon = flips_per_label/n,
    eta = detected_per_pair/n, exact rational weights."""
    weights = uniform_fraction_weights(n_atoms)
    base = list(zip(weights, random_strategies(rng, n_atoms)))
    flip_sets = {
        s: set(int(i) for i in rng.choice(n_atoms, size=flips_per_label, replace=False))
        for s in LABELS
    }
    model = make_epsilon_model(base, flip_sets, Fraction(flips_per_label, n_atoms))
    detect_sets = {
        key: set(int(i) for i in rng.choice(n_atoms, size=detected_per_pair, replace=False))
        for key in PAIR_KEYS
    }
    return make_detection_model(model, detect_sets)


#: Wire values the model JSON reader must refuse, each as (where, value, the
#: message it must give). ``where`` is a path into :func:`model_wire_with`'s
#: wire dict; atom 0 there has a_out = (1, 1, 1), so coercing ``1.9``, ``"1"``
#: or ``true`` to 1, or ``"false"`` or ``"no"`` to true, would change nothing.
BAD_MODEL_WIRE = [
    (("weights", 0), "1/0", 'weights[0] must be a number or a "p/q" string, got \'1/0\''),
    (("weights", 1), 10**400, 'weights[1] must be a number or a "p/q" string, got 1000'),
    (("strategy_at", 0, "a_out", "a"), 1.9, "atom 0: a_out['a'] must be 1 or -1, got 1.9"),
    (("strategy_at", 0, "a_out", "a"), "1", "atom 0: a_out['a'] must be 1 or -1, got '1'"),
    (("strategy_at", 0, "a_out", "a"), True, "atom 0: a_out['a'] must be 1 or -1, got True"),
    (("detect_flag", 0, "ab"), "false", "atom 0: detect_flag['ab'] must be true or false, got 'false'"),
    (("anticorr_flag", 0, "a"), "no", "atom 0: anticorr_flag['a'] must be true or false, got 'no'"),
    (("anticorr_flag", 0, "a"), False, "atom 0: anticorr_flag must be true exactly where b_out = -a_out"),
]
BAD_MODEL_WIRE_IDS = ["weight-1/0", "weight-10**400", "outcome-1.9", "outcome-str", "outcome-bool",
                      "detect-str", "anticorr-str", "anticorr-mismatch"]


def model_wire_with(where: tuple = (), value=None) -> dict:
    """The wire dict of a valid two-atom model, with the entry at ``where``
    (a path of keys and indices) replaced by ``value``."""
    strategies = [
        DeterministicStrategy(a_out=dict(zip(LABELS, a)), b_out={s: -v for s, v in zip(LABELS, a)})
        for a in ((1, 1, 1), (1, -1, 1))
    ]
    wire = model_to_json(HiddenVariableModel.build([Fraction(1, 2)] * 2, strategies))
    if where:
        *parents, last = where
        entry = wire
        for key in parents:
            entry = entry[key]
        entry[last] = value
    return wire


#: Address-space cap of a capped child: enough for numpy, small enough that
#: a loop which keeps allocating fails within seconds.
CHILD_MEMORY_CAP = 2**30


def run_child(script: str, *args: str, timeout: float = 60, cap_memory: bool = False):
    """Run ``python -c script args`` with this checkout's ``obell`` first on
    the path; with ``cap_memory`` the child's address space is capped at
    ``CHILD_MEMORY_CAP``."""
    if cap_memory:
        script = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_MEMORY_CAP}, {CHILD_MEMORY_CAP}))\n"
            + script
        )
    src = str(Path(obell.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=timeout
    )
