"""Gain operator, small-gain condition, and scaling-path construction."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsgt.gains as gains
from conftest import (REPO_ROOT, linear_gain_matrix, maxlin_radius, random_linear_ensemble,
                      two_sub_candidates, two_sub_network)
from hsgt.gains import (GainMatrix, GainMatrixError, OmegaPathError, SmallGainError,
                        SmallGainOptions, build_omega_path, compose_cycle, compose_phi,
                        gamma_max_apply, simple_gain_cycles, small_gain_check)
from hsgt.kfun import Classification, KFun
from hsgt.lyapunov import build_composite, gain_matrix_from_candidates


def test_apply_two_sub_example():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    assert gamma_max_apply(gm, [2.0, 4.0]) == pytest.approx([2.0, 1.0])


def test_apply_vanishes_at_zero():
    gm = linear_gain_matrix([[0, 1.7], [0.3, 0]])
    assert gamma_max_apply(gm, [0.0, 0.0]) == pytest.approx([0.0, 0.0])


def test_apply_single_nonlinear_entry():
    rows = [[None, None, KFun.from_text("s^2")], [None] * 3, [None] * 3]
    gm = GainMatrix.from_rows(rows)
    assert gamma_max_apply(gm, [0.0, 0.0, 3.0]) == pytest.approx([9.0, 0.0, 0.0])


def test_apply_dimension_mismatch():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(GainMatrixError):
        gamma_max_apply(gm, [1.0, 2.0, 3.0])


def test_nonzero_diagonal_rejected():
    with pytest.raises(GainMatrixError):
        GainMatrix.from_rows([[KFun.linear(0.1), KFun.linear(0.5)],
                              [KFun.linear(0.5), None]])


def test_bounded_entry_rejected():
    with pytest.raises(GainMatrixError):
        GainMatrix.from_rows([[None, KFun.from_text("s/(1+s)")],
                              [KFun.linear(0.5), None]])


def test_small_gain_holds_for_contractive_cycle():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    verdict = small_gain_check(gm)
    assert verdict.holds and not verdict.inconclusive
    assert verdict.margin == pytest.approx(0.25)
    assert verdict.witness_cycle is None and verdict.witness_vector is None


def test_small_gain_fails_with_cycle_witness():
    gm = linear_gain_matrix([[0, 2.0], [1.0, 0]])
    verdict = small_gain_check(gm)
    assert not verdict.holds
    w = verdict.witness_cycle
    assert w is not None
    assert compose_cycle(gm, w.indices, w.radius) >= w.radius
    assert compose_cycle(gm, w.indices, 1.0) == pytest.approx(2.0)


def test_small_gain_three_cycle_quadratic():
    rows = [[None, KFun.from_text("s^2"), None],
            [None, None, KFun.from_text("s^2")],
            [KFun.from_text("s^2"), None, None]]
    gm = GainMatrix.from_rows(rows)
    verdict = small_gain_check(gm)
    assert not verdict.holds
    w = verdict.witness_cycle
    assert w is not None and len(w.indices) == 3
    assert compose_cycle(gm, w.indices, 2.0) == pytest.approx(256.0)


def test_grid_too_coarse_rejected():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(SmallGainError):
        small_gain_check(gm, SmallGainOptions(grid_points=8))


def test_direct_witness_is_reverified():
    gm = linear_gain_matrix([[0, 1.5], [1.5, 0]])
    verdict = small_gain_check(gm)
    assert not verdict.holds
    if verdict.witness_vector is not None:
        s = verdict.witness_vector
        assert np.all(gamma_max_apply(gm, s) >= s) and np.any(s > 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=2),
       st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=2))
def test_gain_operator_monotone(a, b):
    gm = linear_gain_matrix([[0, 0.7], [1.3, 0]])
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    assert np.all(gamma_max_apply(gm, lo) <= gamma_max_apply(gm, hi) + 1e-15)


def test_linear_oracle_agreement_small_ensemble():
    for coeffs in random_linear_ensemble(count=12, seed=777):
        rho = maxlin_radius(coeffs)
        if abs(rho - 1.0) < 0.02:
            continue
        verdict = small_gain_check(linear_gain_matrix(coeffs))
        assert not verdict.methods_disagreed
        assert verdict.holds == (rho < 1.0)


def test_omega_path_symmetric_half_gains_is_identity():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    path = build_omega_path(gm, [1.0, 1.0])
    for r in (0.1, 1.0, 42.0):
        assert path.vector_eval(r) == pytest.approx([r, r])
        image = gamma_max_apply(gm, path.vector_eval(r))
        assert image == pytest.approx([0.5 * r, 0.5 * r])
    assert all(s.classification is Classification.CLASS_K_INF for s in path.sigmas)


def test_omega_path_single_subsystem_scales_anchor():
    gm = GainMatrix.from_rows([[None]])
    path = build_omega_path(gm, [2.0])
    assert path.sigmas[0](3.0) == pytest.approx(6.0)


def test_omega_path_acyclic():
    gm = linear_gain_matrix([[0, 0.5], [0, 0]])
    path = build_omega_path(gm, [1.0, 1.0])
    for r in (0.5, 2.0):
        assert path.vector_eval(r) == pytest.approx([r, r])


def test_omega_path_needs_inflation_when_plain_iterates_tie():
    # An iterate can reproduce a component exactly, so the strict decrease
    # fails for the plain construction and the inflated retry must engage.
    gm = linear_gain_matrix([[0, 2.0], [0.25, 0]])
    path = build_omega_path(gm, [1.0, 1.0])
    assert path.inflation > 0.0
    for r in np.geomspace(1e-6, 1e6, 25):
        sig = path.vector_eval(float(r))
        assert np.all(gamma_max_apply(gm, sig) < sig)


def test_omega_path_requires_small_gain():
    gm = linear_gain_matrix([[0, 2.0], [1.0, 0]])
    with pytest.raises(SmallGainError):
        build_omega_path(gm, [1.0, 1.0])


def test_anchor_scaling_shifts_argument():
    rows = [[None, KFun.from_text("0.4*s + 0.2*s/(1+s)")],
            [KFun.from_text("0.3*s"), None]]
    gm = GainMatrix.from_rows(rows)
    base = build_omega_path(gm, [1.0, 1.0])
    scaled = build_omega_path(gm, [2.5, 2.5])
    for r in (0.01, 0.3, 4.0):
        assert scaled.vector_eval(r) == pytest.approx(base.vector_eval(2.5 * r),
                                                      rel=1e-12)


def test_phi_is_minimum_and_bounded_by_components():
    gm = linear_gain_matrix([[0, 0], [2.0, 0]])
    path = build_omega_path(gm, [1.0, 1.0])
    phi = compose_phi(path)
    for r in (0.2, 1.0, 5.0):
        values = path.vector_eval(r)
        assert phi(r) == pytest.approx(min(values))


def test_phi_identity_for_identity_path():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    phi = compose_phi(build_omega_path(gm, [1.0, 1.0]))
    assert phi(2.0) == pytest.approx(2.0)


def test_cycle_enumeration_matches_nonzero_pattern():
    gm = linear_gain_matrix([[0, 0.5, 0], [0, 0, 0.5], [0.5, 0, 0]])
    cycles = simple_gain_cycles(gm)
    assert len(cycles) == 1 and sorted(cycles[0]) == [0, 1, 2]


# ---------------------------------------------------------------------------
# cycle enumeration: order contract, networkx as the oracle, no import


def _adjacency_matrix(adj):
    """Gain matrix whose digraph has exactly the edges a -> b with adj[a][b]."""
    n = len(adj)
    return linear_gain_matrix([[0.5 if adj[a][b] else 0.0 for a in range(n)]
                               for b in range(n)])


def _nx_cycles(nx, adj):
    g = nx.DiGraph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((a, b) for a, row in enumerate(adj) for b, e in enumerate(row) if e)
    return [list(c) for c in nx.simple_cycles(g)]


def _min_rotated(cycle):
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def test_cycle_order_is_lexicographic_from_smallest_node():
    # edges 0->1, 0->3, 1->0, 1->2, 2->0, 2->1, 3->0
    adj = [[False, True, False, True],
           [True, False, True, False],
           [True, True, False, False],
           [True, False, False, False]]
    assert simple_gain_cycles(_adjacency_matrix(adj)) == [[0, 1], [0, 1, 2], [0, 3], [1, 2]]


def test_cycle_enumeration_acyclic_and_single_node():
    assert simple_gain_cycles(linear_gain_matrix([[0, 0.5, 0.5], [0, 0, 0.5], [0, 0, 0]])) == []
    assert simple_gain_cycles(GainMatrix.from_rows([[None]])) == []


@pytest.mark.parametrize("n", range(2, 9))
def test_cycles_match_networkx_order_on_complete_digraphs(n):
    nx = pytest.importorskip("networkx")
    adj = [[a != b for b in range(n)] for a in range(n)]
    assert simple_gain_cycles(_adjacency_matrix(adj)) == _nx_cycles(nx, adj)


def test_cycles_match_networkx_set_on_random_digraphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2010)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.uniform(0.1, 0.6)
        adj = [[a != b and rng.random() < p for b in range(n)] for a in range(n)]
        ours = simple_gain_cycles(_adjacency_matrix(adj))
        assert ours == sorted(_min_rotated(c) for c in _nx_cycles(nx, adj))


def test_sparse_witness_is_first_violating_cycle_in_documented_order():
    # Two disjoint violating 2-cycles.  networkx visits the component {3, 4}
    # first; the documented order starts at the smallest node, so the witness
    # is the cycle through 1 and 2, and it is genuine.
    coeffs = [[0, 2.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, 3.0], [0, 0, 1.0, 0]]
    gm = linear_gain_matrix(coeffs)
    verdict = small_gain_check(gm)
    w = verdict.witness_cycle
    assert not verdict.holds and w.indices == [0, 1]
    assert compose_cycle(gm, w.indices, w.radius) >= w.radius
    nx = pytest.importorskip("networkx")
    adj = [[coeffs[b][a] != 0 for b in range(4)] for a in range(4)]
    assert _nx_cycles(nx, adj)[0] == [2, 3]


def test_compose_cycle_scales_every_gain():
    gm = linear_gain_matrix([[0, 0.5, 0], [0, 0, 0.5], [0.5, 0, 0]])
    assert compose_cycle(gm, [0, 2, 1], 8.0) == 1.0
    assert compose_cycle(gm, [0, 2, 1], 8.0, factor=2.0) == 8.0


def count_enumerations(monkeypatch) -> list:
    calls = []
    enumerate_cycles = gains.simple_gain_cycles
    monkeypatch.setattr(gains, "simple_gain_cycles",
                        lambda gm: calls.append(gm) or enumerate_cycles(gm))
    return calls


def test_build_omega_path_enumerates_cycles_once(monkeypatch):
    calls = count_enumerations(monkeypatch)
    gm = linear_gain_matrix([[0, 2.0], [0.25, 0]])
    path = build_omega_path(gm, [1.0, 1.0])  # checks the small-gain condition itself
    assert path.inflation > 0.0 and len(calls) == 1
    calls.clear()
    verdict = small_gain_check(gm)
    assert verdict.cycles == [[0, 1]] and "cycles" not in verdict.to_json()
    build_omega_path(gm, [1.0, 1.0], verdict=verdict)
    assert len(calls) == 1  # the verdict's list is reused


def test_build_composite_with_verdict_enumerates_once(monkeypatch):
    calls = count_enumerations(monkeypatch)
    cands = two_sub_candidates()
    gm = gain_matrix_from_candidates(cands)
    verdict = small_gain_check(gm)
    build_composite(cands, gm, two_sub_network(), verdict=verdict)
    assert len(calls) == 1


def test_import_leaves_networkx_out():
    code = "import sys, hsgt, hsgt.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
