"""Shared builders and independent oracles for the test suite."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from hsgt import expr as ex
from hsgt.config import build_config, load_config
from hsgt.gains import GainMatrix
from hsgt.hybrid import SubsystemSpec, compose_network
from hsgt.kfun import KFun
from hsgt.lyapunov import SubsystemLyapunov
from hsgt.sampling import SamplerSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def load_json(name: str) -> dict:
    with open(config_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# network builders


def two_sub_network(coupling=0.25, input_coef=0.25, box_guards=True, stable=True):
    """Two coupled scalar subsystems with halving jumps.

    With box_guards the flow set is the unit max-norm ball and the jump set
    its complement's closure; otherwise flow is allowed everywhere and the
    jump set is empty.
    """
    allowed = ("x_1", "x_2", "u_1")
    sign = "-" if stable else ""
    c_guard = "max(abs(x_1), abs(x_2)) - 1" if box_guards else "-1"
    subs = []
    for i in (1, 2):
        j = 3 - i
        flow = f"{sign}x_{i} + {coupling}*x_{j} + {input_coef}*u_1"
        spec = SubsystemSpec(
            dim=1,
            flow=[ex.parse(flow, allowed)],
            jump=[ex.parse(f"0.5*x_{i}", allowed)],
            c_guard=ex.parse(c_guard, allowed),
            d_guard=(ex.parse("1 - max(abs(x_1), abs(x_2))", allowed)
                     if box_guards else ex.Const(1.0)),
            name=f"sub{i}")
        subs.append(spec)
    return compose_network(subs, input_dim=1)


def two_sub_candidates(gain=0.5, external=0.5, alpha=0.5, lam=0.5):
    out = []
    for i in (0, 1):
        j = 1 - i
        out.append(SubsystemLyapunov(
            v=ex.parse(f"abs(x_{i + 1})", (f"x_{i + 1}",)),
            psi1=KFun.identity(), psi2=KFun.identity(),
            alpha=KFun.linear(alpha), lam=KFun.linear(lam),
            gamma_internal={j: KFun.linear(gain)},
            gamma_external=KFun.linear(external)))
    return out


def linear_gain_matrix(coeffs) -> GainMatrix:
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j or coeffs[i, j] == 0.0:
                row.append(None)
            else:
                row.append(KFun.linear(float(coeffs[i, j])))
        rows.append(row)
    return GainMatrix.from_rows(rows)


def gain_matrix_from_candidates(cands) -> GainMatrix:
    """The gain matrix of the candidates' internal gains."""
    n = len(cands)
    return GainMatrix.from_rows([[cands[i].internal_gain(j) if j != i else None
                                  for j in range(n)] for i in range(n)])


def cert_value(cert, x) -> float:
    """The composite value of ``cert`` at one state."""
    return float(ex.in_row_order(cert.values, np.array([x], dtype=float))[0])


def with_alpha(cert, alpha: KFun):
    """The certificate with its flow decay rate replaced."""
    return dataclasses.replace(cert, alpha=alpha)


def with_lambda(cert, lam: KFun):
    """The certificate with its jump contraction replaced."""
    return dataclasses.replace(cert, lam=lam)


# ---------------------------------------------------------------------------
# independent oracles


def maxlin_radius(coeffs, iterations=840, window=600) -> float:
    """Growth rate of the componentwise-max linear operator, by power iteration."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    s = np.ones(n)
    logs = []
    for _ in range(iterations):
        t = np.array([max([coeffs[i, j] * s[j] for j in range(n) if j != i], default=0.0)
                      for i in range(n)])
        lam = float(t.max())
        if lam <= 0.0:
            return 0.0
        logs.append(math.log(lam))
        s = t / lam
    return math.exp(sum(logs[-window:]) / window)


def random_linear_ensemble(count=50, max_n=6, seed=12345):
    """Random dense linear gain matrices with entries uniform in [0, 2]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        coeffs = rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(coeffs, 0.0)
        out.append(coeffs)
    return out


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def e1_config():
    return load_config(config_path("e1.json"))


@pytest.fixture(scope="session")
def e1_cert(e1_config):
    from hsgt.gains import small_gain_check
    from hsgt.lyapunov import build_composite
    cfg = e1_config
    verdict = small_gain_check(cfg.gain_matrix, cfg.sg_options)
    return build_composite(cfg.candidates, cfg.gain_matrix, cfg.network,
                           anchor=cfg.anchor, verdict=verdict, options=cfg.sg_options)


@pytest.fixture
def small_sampler():
    return SamplerSpec(n_samples=1500, box_radius=2.0, u_box=None, seed=0)
