"""Gain operator, small-gain condition, and scaling-path construction."""

import dataclasses
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
from typing import Callable, List, Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsgt.gains as gains
from conftest import (REPO_ROOT, gain_matrix_from_candidates, linear_gain_matrix,
                      maxlin_radius, random_linear_ensemble, two_sub_candidates,
                      two_sub_network)
from hsgt import expr as ex
from hsgt.gains import (CYCLE_SIZE_LIMIT, RADII_POINTS, RANDOM_DIRECTIONS, SEARCH_BLOCK,
                        STRICTNESS, CycleWitness, GainMatrix, GainMatrixError, OmegaPath,
                        OmegaPathError, SmallGainError, SmallGainOptions, SmallGainVerdict,
                        _inflation_candidates, _sigma_component, build_omega_path,
                        compose_cycle, compose_phi, gamma_max_apply, simple_gain_cycles,
                        small_gain_check)
from hsgt.kfun import GRID, UNBOUNDED_PROBE, Classification, KFun, inverse_kfun, pointwise_min
from hsgt.lyapunov import build_composite


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


def test_omega_path_builds_through_a_gain_that_overflows():
    # exp overflows from s ~ 2.03e6 while the term it scales is still ~1e-12, so the
    # gain is finite up to ~4.06e5 and then overflows; the inverse of each path
    # component brackets into the overflow, which counts as above the target
    g = KFun.from_text("0.3*s/(1 + s) + 0.2*s + 1e-320*exp(0.00035*s)")
    gm = GainMatrix.from_rows([[None, g], [KFun.from_text("0.5*s"), None]])
    path = build_omega_path(gm, anchor=[3.0, 3.0], options=SmallGainOptions(grid_hi=1e3))
    assert [s.classification for s in path.sigmas + path.sigma_invs] == \
        [Classification.CLASS_K_INF] * 4
    r = 50.0
    for sigma, inverse in zip(path.sigmas, path.sigma_invs):
        assert inverse(sigma(r)) == pytest.approx(r, rel=1e-9)


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


# ---------------------------------------------------------------------------
# whole-grid small-gain layer against the former scalar loops
#
# The ``_reference_*`` functions are the former radius-by-radius and
# row-by-row code, verbatim but for their names.  They are the oracles for
# the array passes: same verdicts, margins, witnesses and errors, bit for bit.


def _reference_gamma_max_apply(gm: GainMatrix, s: Sequence[float]) -> np.ndarray:
    """Componentwise max of row gains applied to the vector; zero rows give 0."""
    s = np.asarray(s, dtype=float)
    if s.shape != (gm.n,):
        raise GainMatrixError(f"expected a vector of length {gm.n}, got shape {s.shape}")
    if np.any(s < 0.0):
        raise GainMatrixError("gain operator arguments must be nonnegative")
    out = np.zeros(gm.n)
    for i, row in enumerate(gm.entries):
        best = 0.0
        for j, g in enumerate(row):
            if g.is_zero:
                continue
            v = g(float(s[j]))
            if v > best:
                best = v
        out[i] = best
    return out


def _reference_compose_cycle(gm: GainMatrix, cycle: Sequence[int], r: float, factor: float = 1.0) -> float:
    """Gain composed once around the cycle, starting and ending at radius r.

    Each gain is scaled by ``factor`` before the next one is applied.
    """
    v = r
    nodes = list(cycle)
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        v = factor * gm.entries[b][a](v)
    return v


def _reference_small_gain_check(gm: GainMatrix, options: Optional[SmallGainOptions] = None) -> SmallGainVerdict:
    """Decide the small-gain condition by cycle enumeration plus direct search.

    Strict decrease of a composed cycle gain is accepted only with a relative
    margin; grid points inside the margin band make the verdict inconclusive
    instead of a pass.  Any witness is re-evaluated before being reported.
    """
    opts = options or SmallGainOptions()
    grid = opts.grid()
    verdict = SmallGainVerdict(holds=True, margin=0.0)

    if gm.n <= CYCLE_SIZE_LIMIT:
        verdict.cycles = simple_gain_cycles(gm)
        for cycle in verdict.cycles:
            for r in grid:
                v = _reference_compose_cycle(gm, cycle, float(r))
                ratio = v / r
                if ratio > verdict.margin:
                    verdict.margin = ratio
                if v >= r:
                    witness = CycleWitness(list(cycle), float(r), float(v))
                    if _reference_compose_cycle(gm, cycle, witness.radius) >= witness.radius:
                        verdict.holds = False
                        verdict.witness_cycle = witness
                        break
            if verdict.witness_cycle is not None:
                break
        if verdict.witness_cycle is None and verdict.margin > 1.0 - STRICTNESS:
            verdict.holds = False
            verdict.inconclusive = True
            verdict.notes.append("cycle gain inside the strictness band; verdict inconclusive")
    else:
        verdict.cycles_checked = False
        verdict.notes.append(
            f"n={gm.n} exceeds the cycle enumeration limit; direct search only")

    s_witness = _reference_direct_search(gm, opts.seed)
    if s_witness is not None:
        image = _reference_gamma_max_apply(gm, s_witness)
        if np.all(image >= s_witness) and np.any(s_witness > 0.0):
            if verdict.cycles_checked and verdict.witness_cycle is None and not verdict.inconclusive:
                verdict.methods_disagreed = True
                verdict.notes.append("direct witness found although every cycle passed")
            verdict.holds = False
            verdict.witness_vector = s_witness
            verdict.witness_image = image
    return verdict


def _reference_direct_search(gm: GainMatrix, seed: int) -> Optional[np.ndarray]:
    n = gm.n
    rng = np.random.default_rng(seed)
    directions = []
    if n <= 10:
        for mask in itertools.product((0.0, 1.0), repeat=n):
            if any(mask):
                directions.append(np.asarray(mask))
    extra = np.abs(rng.standard_normal((RANDOM_DIRECTIONS, n)))
    norms = extra.max(axis=1)
    keep = norms > 0
    directions.extend(extra[keep] / norms[keep, None])
    radii = np.geomspace(1e-6, 1e6, RADII_POINTS)
    for d in directions:
        for r in radii:
            s = d * r
            image = _reference_gamma_max_apply(gm, s)
            if np.all(image >= s):
                return s
    return None


def _reference_path_vector_fn(gm: GainMatrix, anchor: np.ndarray, inflation: float) -> Callable[[float], np.ndarray]:
    slopes = gm.linear_slopes()
    n = gm.n
    if slopes is not None:
        scaled = slopes * (1.0 + inflation)
        coeff = anchor.copy()
        best = anchor.copy()
        for _ in range(n - 1):
            coeff = np.array([max([scaled[i, j] * coeff[j] for j in range(n) if j != i],
                                  default=0.0) for i in range(n)])
            best = np.maximum(best, coeff)

        def linear_fn(r: float, c=best) -> np.ndarray:
            return c * r
        return linear_fn

    factor = 1.0 + inflation

    def general_fn(r: float) -> np.ndarray:
        v = anchor * r
        best = v.copy()
        for _ in range(n - 1):
            v = factor * _reference_gamma_max_apply(gm, v)
            best = np.maximum(best, v)
        return best
    return general_fn


def _reference_inflated_cycles_ok(gm: GainMatrix, cycles: List[List[int]], inflation: float,
                        grid: np.ndarray) -> bool:
    if inflation == 0.0:
        return True
    factor = 1.0 + inflation
    for cycle in cycles:
        for r in grid:
            if _reference_compose_cycle(gm, cycle, float(r), factor) > (1.0 - STRICTNESS) * r:
                return False
    return True


def _reference_build_omega_path(gm: GainMatrix, anchor: Optional[Sequence[float]] = None,
                     grid: Optional[np.ndarray] = None,
                     verdict: Optional[SmallGainVerdict] = None,
                     options: Optional[SmallGainOptions] = None) -> OmegaPath:
    """Construct the scaling path from iterated gain-operator images of the anchor.

    The plain construction (no inflation) is tried first.  When a grid point
    fails the strict decrease, the iterates are recomputed with mildly
    inflated gains, which restores strictness whenever the small-gain margin
    allows; the path is always verified against the original operator.
    """
    opts = options or SmallGainOptions()
    if grid is None:
        grid = opts.grid()
    if verdict is None:
        verdict = _reference_small_gain_check(gm, opts)
    if not verdict.holds:
        raise SmallGainError("small-gain condition does not hold; no scaling path exists")
    a = np.ones(gm.n) if anchor is None else np.asarray(anchor, dtype=float)
    if a.shape != (gm.n,) or np.any(a <= 0.0):
        raise OmegaPathError("anchor must be a positive vector matching the matrix size")

    cycles = None
    if gm.n <= CYCLE_SIZE_LIMIT:
        cycles = simple_gain_cycles(gm) if verdict.cycles is None else verdict.cycles
    worst_r = None
    for inflation in _inflation_candidates(gm, verdict.margin, cycles is None or bool(cycles)):
        if cycles is not None and not _reference_inflated_cycles_ok(gm, cycles, inflation, grid):
            continue
        vec_fn = _reference_path_vector_fn(gm, a, inflation)
        ok = True
        margin = 0.0
        for r in grid:
            sig = vec_fn(float(r))
            image = _reference_gamma_max_apply(gm, sig)
            ratios = image / sig
            margin = max(margin, float(ratios.max()))
            if np.any(image > (1.0 - STRICTNESS) * sig):
                ok = False
                worst_r = float(r)
                break
        if ok:
            sigmas = [_sigma_component(vec_fn, i) for i in range(gm.n)]
            sigma_invs = [inverse_kfun(sigma) for sigma in sigmas]
            return OmegaPath(sigmas=sigmas, sigma_invs=sigma_invs, anchor=a,
                             gain_matrix=gm, grid=grid, inflation=inflation,
                             margin=margin, vector_eval=vec_fn)
    raise OmegaPathError(
        f"scaling path not strictly decreased at r={worst_r!r}; "
        "the small-gain verdict may be a false positive")


def _outcome(fn):
    """The value, or the class and message of the error it raised."""
    try:
        return fn()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _verdict_key(v: SmallGainVerdict):
    w = v.witness_cycle
    return (json.dumps(v.to_json()), type(v.margin), _bits(v.margin), v.cycles,
            v.methods_disagreed,
            None if w is None else (w.indices, _bits(w.radius), _bits(w.value)),
            None if v.witness_vector is None
            else (v.witness_vector.tobytes(), v.witness_image.tobytes()))


def _path_key(path: OmegaPath):
    return (path.inflation, type(path.margin), _bits(path.margin),
            [path.vector_eval(r).tobytes() for r in (1e-3, 0.7, 50.0)])


def _sat(a: float, b: float) -> str:
    return f"{a!r}*s/(1 + s) + {b!r}*s"


def _entry(rng: random.Random, kind: str) -> str:
    """A gain whose slope stays below 0.7, so every cycle of such gains holds."""
    if kind == "linear":
        return f"{round(rng.uniform(0.05, 0.6), 6)!r}*s"
    sat = _sat(round(rng.uniform(0.05, 0.4), 6), round(rng.uniform(0.05, 0.3), 6))
    if kind == "saturating":
        return sat
    return f"max({round(rng.uniform(0.05, 0.6), 6)!r}*s, {sat})"  # flow/jump max entry


# Planted 2-cycles: violated at every radius, only at small radii, only past
# r ~ 811 (mid-grid), and exactly at the identity.
PLANTED = {"linear": ("1.1*s", "1.2*s"),
           "early": (_sat(1.5, 0.2), "0.9*s"),
           "late": ("0.3*s + 0.001*s^2", "0.9*s"),
           "identity": ("0.5*s", "2.0*s")}


def _texts(n: int, kind: str, seed: int, planted=None, pair=None):
    rng = random.Random(f"{kind}/{n}/{seed}")
    texts = [[None if i == j else _entry(rng, kind) for j in range(n)] for i in range(n)]
    if planted is not None:
        i, j = pair or tuple(rng.sample(range(n), 2))
        texts[i][j], texts[j][i] = PLANTED[planted]
    return texts


def _from_texts(texts) -> GainMatrix:
    return GainMatrix.from_rows([[None if t is None else KFun.from_text(t) for t in row]
                                 for row in texts])


def _ensemble():
    """(label, gain texts, grid points, anchor) for the differential gate."""
    cases = []
    for n in range(2, 7):
        for k, kind in enumerate(("linear", "saturating", "max")):
            anchor = [1.0 + 0.25 * ((i + k) % 3) for i in range(n)]
            points = 128 if n < 6 else 64
            cases.append((f"{kind}{n}-holds", _texts(n, kind, n), points, anchor))
            planted = list(PLANTED)[(n + k) % len(PLANTED)]
            cases.append((f"{kind}{n}-{planted}", _texts(n, kind, n, planted), points, anchor))
    cases.append(("saturating7-holds", _texts(7, "saturating", 7), 32, [1.0] * 7))
    cases.append(("max7-late", _texts(7, "max", 7, "late"), 32, [1.0] * 7))
    cases.append(("linear8-holds", _texts(8, "linear", 8), 16, [1.0] * 8))
    cases.append(("saturating8-linear", _texts(8, "saturating", 8, "linear", (0, 1)), 128,
                  [1.0] * 8))
    # composed cycle gains 1 - 5e-10 times the identity: inside the strictness band
    for kind in ("linear", "saturating"):
        texts = _texts(3, kind, 11)
        texts[0][1], texts[1][0] = "0.5*s", f"{2.0 * (1.0 - 5e-10)!r}*s"
        cases.append((f"{kind}3-band", texts, 128, [1.0] * 3))
    # beyond the enumeration limit: the direct search alone, on a sparse ring
    n = CYCLE_SIZE_LIMIT + 1
    ring = [[None] * n for _ in range(n)]
    for i in range(n):
        ring[i][(i + 1) % n] = _sat(0.2, 0.3)
        ring[i][(i + 3) % n] = "0.4*s"
    cases.append(("ring13-holds", ring, 16, [1.0] * n))
    return cases


ENSEMBLE = _ensemble()


@pytest.fixture
def quick_components(monkeypatch):
    """Stand-ins for the path components and their inverses.  Both paths build
    them with the same unchanged code from ``vector_eval``, which is compared."""
    for module in (gains, sys.modules[__name__]):
        monkeypatch.setattr(module, "_sigma_component", lambda vec_fn, i: KFun.linear(1.0))
        monkeypatch.setattr(module, "inverse_kfun", lambda f: f)


@pytest.mark.parametrize("label,texts,points,anchor", ENSEMBLE, ids=[c[0] for c in ENSEMBLE])
def test_small_gain_layer_matches_scalar_loops(quick_components, label, texts, points, anchor):
    gm = _from_texts(texts)
    opts = SmallGainOptions(grid_points=points, seed=len(label))
    new = small_gain_check(gm, opts)
    ref = _reference_small_gain_check(gm, opts)
    assert _verdict_key(new) == _verdict_key(ref)
    built = _outcome(lambda: _path_key(build_omega_path(gm, anchor, verdict=new, options=opts)))
    assert built == _outcome(lambda: _path_key(
        _reference_build_omega_path(gm, anchor, verdict=ref, options=opts)))
    if gm.n <= 5:
        grid = np.geomspace(1e-8, 1e8, 32)
        for inflation in (1e-6, 0.05, 0.5):
            assert gains._inflated_cycles_ok(gm, new.cycles, inflation, grid) == \
                _reference_inflated_cycles_ok(gm, new.cycles, inflation, grid)


def test_ensemble_reaches_every_verdict():
    kinds, late = set(), 0
    for label, texts, points, _anchor in ENSEMBLE:
        if len(texts) > 5:
            continue
        v = small_gain_check(_from_texts(texts), SmallGainOptions(grid_points=points))
        kinds.add("inconclusive" if v.inconclusive else "holds" if v.holds else "violated")
        if label.endswith("-late"):
            late += 1
            # the first violation is mid-grid, so the margin stops short of the grid's end
            assert 1.0 <= v.margin < 2.0 and v.witness_cycle.radius > 100.0
    assert kinds == {"holds", "violated", "inconclusive"} and late >= 2


def test_inflated_path_matches_scalar_loops():
    # the plain iterates tie, so the inflated retry runs _inflated_cycles_ok with
    # nonlinear gains
    gm = _from_texts([[None, "2.0*s"], [_sat(0.2, 0.2), None]])
    path = build_omega_path(gm, [1.0, 1.0])
    assert path.inflation > 0.0
    assert _path_key(path) == _path_key(_reference_build_omega_path(gm, [1.0, 1.0]))


def test_overflow_past_the_first_violation_does_not_raise():
    # exp(2e-4 r) - 1 >= r from r ~ 6e4 on; exp overflows for r > 3.5e6
    gm = _from_texts([[None, "exp(0.0001*s) - 1"], ["2*s", None]])
    new, ref = small_gain_check(gm), _reference_small_gain_check(gm)
    assert _verdict_key(new) == _verdict_key(ref)
    assert 1e4 < new.witness_cycle.radius < 1e6
    with pytest.raises(ex.EvalOverflowError):  # the whole grid at once would raise
        compose_cycle(gm, [0, 1], SmallGainOptions().grid())
    # node 0 feeds the overflowing gain; the violating pair 1, 2 is hit by the
    # third mask, long before any row whose first component is positive
    gm = _from_texts([[None, None, None], ["exp(s) - 1", None, "2*s"], [None, "2*s", None]])
    new, ref = small_gain_check(gm), _reference_small_gain_check(gm)
    assert _verdict_key(new) == _verdict_key(ref)
    assert new.witness_vector.tolist() == [0.0, 1e-6, 1e-6]
    with pytest.raises(ex.EvalOverflowError):  # the whole first block would raise
        gamma_max_apply(gm, np.full((2, 3), 1e6))


def test_overflow_before_the_first_violation_raises_the_same_error():
    # the cycle gain stays below r/4 + 1e-320 exp(5e-5 r) < r until exp overflows,
    # past r ~ 1.4e7; the saturating term keeps the gain from reading as linear
    gm = _from_texts([[None, _sat(0.3, 0.2) + " + 1e-320*exp(0.0001*s)"], ["0.5*s", None]])
    new = _outcome(lambda: small_gain_check(gm))
    assert new[:2] == ("raised", ex.EvalOverflowError)
    assert new == _outcome(lambda: _reference_small_gain_check(gm))
    # a grid that stops short of the overflow holds; a path over the full grid raises
    opts = SmallGainOptions(grid_hi=1e6)
    verdict = small_gain_check(gm, opts)
    assert verdict.holds
    full = np.geomspace(1e-8, 1e8, 128)
    new = _outcome(lambda: build_omega_path(gm, verdict=verdict, options=SmallGainOptions()))
    assert new[:2] == ("raised", ex.EvalOverflowError)
    assert new == _outcome(lambda: _reference_build_omega_path(
        gm, grid=full, verdict=_reference_small_gain_check(gm, opts), options=opts))


def _negative_zero_gain() -> KFun:
    """A class-Kinf gain whose value at 0 is -0.0."""
    return KFun.from_callable(lambda s: -0.0 if s == 0.0 else 0.5 * s + 0.1 * s * s,
                              "signed zero at 0")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=9))
def test_gamma_max_apply_block_rows_match_vectors(n, seed, rows):
    rng = random.Random(seed)
    kinds = ("linear", "saturating", "max", None, "signed-zero")
    entries = [[None] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        kind = rng.choice(kinds)
        if kind == "signed-zero":
            entries[i][j] = _negative_zero_gain()
        elif kind is not None:
            entries[i][j] = KFun.from_text(_entry(rng, kind))
    gm = GainMatrix.from_rows(entries)
    block = np.array([[rng.choice((0.0, 1e-6, 0.5, 3.0, 1e6, rng.uniform(0.0, 10.0)))
                       for _ in range(n)] for _ in range(rows)])
    image = gamma_max_apply(gm, block)
    assert image.shape == block.shape
    for row, out in zip(block, image):
        assert out.tobytes() == _reference_gamma_max_apply(gm, row).tobytes()
        assert out.tobytes() == gamma_max_apply(gm, row).tobytes()


def test_gamma_max_apply_keeps_the_first_of_equal_values():
    # 0.0 and -0.0 compare equal: a later gain wins only if it is greater
    gm = GainMatrix.from_rows([[None, _negative_zero_gain()], [None, None]])
    for s in (np.zeros(2), np.zeros((3, 2))):
        assert gamma_max_apply(gm, s).tobytes() == np.zeros(s.shape).tobytes()


def test_gamma_max_apply_rejects_bad_blocks():
    gm = linear_gain_matrix([[0, 0.5], [0.5, 0]])
    for bad in (np.ones((2, 3)), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(GainMatrixError):
            gamma_max_apply(gm, bad)
    with pytest.raises(GainMatrixError):
        gamma_max_apply(gm, np.array([[1.0, 1.0], [1.0, -1.0]]))


def test_direct_search_matches_scalar_search():
    for texts in (_texts(4, "saturating", 3, "early"), _texts(3, "max", 5, "linear"),
                  _texts(5, "linear", 2)):
        gm = _from_texts(texts)
        for seed in (0, 7):
            new, ref = gains._direct_search(gm, seed), _reference_direct_search(gm, seed)
            assert (new is None) == (ref is None)
            if new is not None:
                assert new.tobytes() == ref.tobytes()


def _block_calls(cycles, per_block: int, width: int, group) -> list:
    """Lanes of each kernel call the block composition makes, in call order.

    Per block of ``per_block`` consecutive cycles and per depth d, one call per
    shape of the gains on the edges a -> b taken at d, in ascending
    ``group(a, b)`` order, over one grid row for each distinct prefix such an
    edge extends (its first d + 2 nodes) and each cycle it closes.
    """
    calls = []
    for first in range(0, len(cycles), per_block):
        block = cycles[first:first + per_block]
        for depth in range(max(map(len, block))):
            rows = {}
            for c in block:
                if len(c) > depth:
                    edge = (c[depth], c[(depth + 1) % len(c)])
                    rows.setdefault(group(*edge), set()).add(
                        tuple(c[:depth + 2]) if depth + 1 < len(c) else (tuple(c), "closed"))
            calls += [width * len(rows[g]) for g in sorted(rows)]
    return calls


def test_holding_check_makes_only_grid_array_calls(monkeypatch):
    rng = random.Random(2024)
    n = 7
    texts = [[None if i == j else _entry(rng, ("linear", "saturating")[(i + j) % 2])
              for j in range(n)] for i in range(n)]
    gm = _from_texts(texts)
    scalar_calls, array_lanes, kernel_lanes = [], [], []
    call, array, lanes = KFun.__call__, KFun.array, ex.Shape.lanes
    monkeypatch.setattr(KFun, "__call__", lambda f, s: scalar_calls.append(s) or call(f, s))
    monkeypatch.setattr(KFun, "array",
                        lambda f, S: array_lanes.append(len(S)) or array(f, S))
    monkeypatch.setattr(ex.Shape, "lanes", lambda shape, vals, consts, out: kernel_lanes.append(
        out.size) or lanes(shape, vals, consts, out))
    verdict = small_gain_check(gm)
    assert verdict.holds and not verdict.inconclusive
    # no witness, so nothing is re-evaluated with the scalar call, and no gain
    # is evaluated on its own
    assert scalar_calls == [] and array_lanes == []
    # one kernel call per (block, depth, shape) over the 128-point grid rows of
    # the block's distinct prefixes: the linear slopes are one shape and the
    # saturating gains another
    assert len(verdict.cycles) == 2365 and sum(len(c) for c in verdict.cycles) == 13692
    per_block = gains.BUDGET // 128
    assert per_block == 256
    group = gm.by_shape.group.reshape(n, n)
    assert sorted(set(group[~np.eye(n, dtype=bool)].tolist())) == [0, 1]
    expected = _block_calls(verdict.cycles, per_block, 128, lambda a, b: group[a, b])
    # at most 10 blocks x 7 depths x 2 shapes; one array call per (block,
    # depth, edge) took 1,141 calls
    assert len(expected) == 132 and sum(expected) == 128 * 4763
    assert kernel_lanes[:len(expected)] == expected
    # ... and one per shape and block of direct-search directions
    blocks = -(-(2 ** n - 1 + RANDOM_DIRECTIONS) // SEARCH_BLOCK)
    assert len(kernel_lanes) - len(expected) == blocks * 2
    # the inflated scan over every cycle makes the same calls
    kernel_lanes.clear()
    assert gains._inflated_cycles_ok(gm, verdict.cycles, 1e-6, SmallGainOptions().grid())
    assert scalar_calls == [] and array_lanes == [] and kernel_lanes == expected


# ---------------------------------------------------------------------------
# evaluation by shape against the per-gain array calls it replaced.  The
# ``_per_gain_*`` functions are the former block code, verbatim but for their
# names: one ``KFun.array`` call per gain of a row, and per edge of a depth.


def _per_gain_gamma_max_apply(gm: GainMatrix, s: np.ndarray) -> np.ndarray:
    out = np.zeros(s.shape)
    for i, row in enumerate(gm.nonzero_rows):
        out[:, i] = ex.lane_max([0.0, *(g.array(s[:, j]) for j, g in row)])
    return out


def _per_edge_block_rows(gm: GainMatrix, cycles, grid: np.ndarray, factor: float) -> np.ndarray:
    m, n, width = len(cycles), gm.n, grid.size
    lengths = np.array([len(c) for c in cycles])
    nodes = np.full((m, lengths.max() + 1), -1)
    rows = np.repeat(np.arange(m), lengths)
    nodes[rows, np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)] = \
        list(itertools.chain.from_iterable(cycles))
    nodes[np.arange(m), lengths] = nodes[:, 0]
    new = np.ones(nodes.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(nodes[1:] != nodes[:-1], axis=1)
    out = np.empty((m, width))
    prefix_rows = grid[None, :]
    prefix = np.zeros(m, dtype=int)
    for depth in range(nodes.shape[1] - 1):
        closing = lengths == depth + 1
        grows = (lengths > depth + 1) & new[:, depth + 1]
        taken = np.flatnonzero(grows | closing)
        edge = nodes[taken, depth] * n + nodes[taken, depth + 1]
        order = np.argsort(edge, kind="stable")
        taken, edge = taken[order], edge[order]
        parents = prefix[taken]
        values = np.empty((taken.size, width))
        starts = (np.flatnonzero(np.diff(edge)) + 1).tolist()
        for lo, hi in zip([0] + starts, starts + [taken.size]):
            a, b = divmod(int(edge[lo]), n)
            composed = gm.entries[b][a].array(prefix_rows[parents[lo:hi]].ravel())
            np.multiply(factor, composed.reshape(hi - lo, width), out=values[lo:hi])
        growing = grows[taken]
        out[taken[~growing]] = values[~growing]
        if not growing.any():
            break
        at = np.empty(m, dtype=int)
        at[taken[growing]] = np.arange(np.count_nonzero(growing))
        prefix = at[np.flatnonzero(grows)][np.cumsum(grows) - 1]
        prefix_rows = values[growing]
    return out


# class-Kinf gains of several shapes, each drawn with its own constants a, b;
# at 1e300 the exp, pow and squared terms overflow
_SHAPED = {"linear": "{a}*s", "div": "{a}*s/(1 + s) + {b}*s", "pow": "{a}*s^1.5 + {b}*s",
           "exp": "{a}*(exp({b}*s) - 1)", "log": "{a}*s*log(1 + s) + {b}*s",
           "abs": "abs({a}*s) + {b}*s^2", "min": "min({a}*s, {b}*s + s^2)",
           "max": "max({a}*s, {b}*s/(1 + s)) + {b}*s"}
_SHAPE_LANES = st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf, math.nan, 1e-6, 1.0, 1e6]) \
    | st.floats(min_value=0.0, max_value=1e3)


def _bits_or_error(fn):
    value = _outcome(fn)
    return value if isinstance(value, tuple) else _lane_bits(value.ravel().tolist())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(_SHAPE_LANES, min_size=1, max_size=8), st.sampled_from([1.0, 1.03]))
def test_evaluation_by_shape_matches_per_gain_array_calls(n, seed, lanes, factor):
    rng = random.Random(seed)
    kinds = [*_SHAPED, None, "alone"]
    entries = [[None] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        kind = rng.choice(kinds)
        if kind == "alone":  # no expression: evaluated by its own array call
            entries[i][j] = _negative_zero_gain()
        elif kind is not None:
            a, b = (round(rng.uniform(0.05, 2.0), 3) for _ in range(2))
            entries[i][j] = KFun.from_text(_SHAPED[kind].format(a=a, b=b))
    gm = GainMatrix.from_rows(entries)
    lanes = np.array(lanes)
    block = np.array([rng.sample(list(lanes), 1) * n if k % 2 else
                      [rng.choice(lanes) for _ in range(n)] for k in range(len(lanes))])
    assert _bits_or_error(lambda: gamma_max_apply(gm, block)) == \
        _bits_or_error(lambda: _per_gain_gamma_max_apply(gm, block))
    cycles = simple_gain_cycles(gm)
    if cycles:
        assert _bits_or_error(lambda: gains._block_rows(gm, cycles, lanes, factor)) == \
            _bits_or_error(lambda: _per_edge_block_rows(gm, cycles, lanes, factor))


def test_evaluation_by_shape_raises_the_per_gain_error():
    # every exp gain overflows at 1e300, and one kernel call takes them all; the
    # per-gain loop meets row 0's second gain first, though in that call the
    # exp gains of rows 1, 2 and 3 come before it
    gm = _from_texts([[None, "0.5*s", "0.5*(exp(0.2*s) - 1)", None],
                      ["0.3*(exp(0.1*s) - 1)", None, "2*s", "0.2*(exp(0.3*s) - 1)"],
                      ["1e-3*(exp(1e-3*s) - 1)", "s", None, None],
                      [None, "0.4*(exp(0.5*s) - 1)", "3*s", None]])
    block = np.array([[1.0] * 4, [1e300] * 4])
    got = _outcome(lambda: gamma_max_apply(gm, block))
    assert got[:2] == ("raised", ex.EvalOverflowError) and "0.5*(exp(0.2*s) - 1.0)" in got[2]
    assert got == _outcome(lambda: _per_gain_gamma_max_apply(gm, block))


# Every cycle through node 0 of a complete 4-node network starts with the edge
# 0 -> 1, in the order [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 3], [0, 1, 3, 2].
# That edge's gain (about 0.6*s) overflows once its argument passes ~7.1e6, so
# only on the grid that reaches 1e8.  [0, 1, 2, 3] violates from r ~ 1e2 on;
# with the gain 2*s from 1 back to 0, [0, 1] violates at every radius.
_OVERFLOWING_EDGE = "0.5*s + 0.1*s/(1 + s) + 1e-320*exp(0.0001*s)"


def _shared_overflow_texts(back_to_0: str):
    texts = [[None if i == j else "0.5*s" for j in range(4)] for i in range(4)]
    texts[1][0] = _OVERFLOWING_EDGE                       # 0 -> 1, in every prefix above
    texts[0][1] = back_to_0                               # 1 -> 0 closes [0, 1]
    texts[2][1] = texts[3][2] = "2*s"                     # 1 -> 2 -> 3
    texts[0][3] = "0.3*s + 0.001*s^2"                     # 3 -> 0 closes [0, 1, 2, 3]
    return texts


@pytest.mark.parametrize("back_to_0, grid_hi, expected", [
    ("0.5*s", 1e8, "overflow"),  # [0, 1] meets the overflow before [0, 1, 2, 3] violates
    ("0.5*s", 1e6, [0, 1, 2, 3]),
    ("2*s", 1e8, [0, 1]),        # the cycles after the witness never meet the overflow
    ("2*s", 1e6, [0, 1]),
])
def test_overflow_in_a_shared_prefix_matches_scalar_loops(monkeypatch, back_to_0, grid_hi,
                                                          expected):
    gm = _from_texts(_shared_overflow_texts(back_to_0))
    opts = SmallGainOptions(grid_hi=grid_hi)
    replayed = []
    compose = gains.compose_cycle
    monkeypatch.setattr(gains, "compose_cycle", lambda gm, c, r, factor=1.0: replayed.append(
        (list(c), np.ndim(r))) or compose(gm, c, r, factor))
    new = _outcome(lambda: _verdict_key(small_gain_check(gm, opts)))
    assert new == _outcome(lambda: _verdict_key(_reference_small_gain_check(gm, opts)))
    if expected == "overflow":
        assert new[:2] == ("raised", ex.EvalOverflowError)
    else:
        assert new[5][0] == expected
    # the block's call over the whole grid raised only where the grid reaches the
    # overflow; then its cycles were replayed in order through compose_cycle, and
    # [0, 1], the first, ended the replay with the error or the witness
    composed = list(dict.fromkeys(tuple(c) for c, ndim in replayed if ndim))
    assert composed == ([(0, 1)] if grid_hi == 1e8 else [])
    cycles = simple_gain_cycles(gm)
    new = _outcome(lambda: gains._inflated_cycles_ok(gm, cycles, 0.01, opts.grid()))
    assert new == _outcome(lambda: _reference_inflated_cycles_ok(gm, cycles, 0.01,
                                                                 opts.grid()))


# ---------------------------------------------------------------------------
# path components: one array call over each run of points against the scalar pass

_PROBE_GAIN = "0.5*s*(1 + s)/(1 + 2*s)"
_PATH_CASES = [c for c in ENSEMBLE if c[0].endswith("-holds") and len(c[1]) <= 8] + [
    ("nonlinear-probe", [[None, _PROBE_GAIN], [_PROBE_GAIN, None]], 128, [3.0, 1.0])]
_EDGE_LANES = [0.0, -0.0, 1e-300, 3.7, 0.0317, 1e300, math.inf, math.nan]


def _lane_bits(values) -> list:
    return [struct.pack("<d", v) for v in values]


def _scalar_lanes(f: KFun, lanes):
    """Each lane's scalar value, or the first raising lane's error class and message."""
    out = []
    for s in lanes.tolist():
        value = _outcome(lambda: f(s))
        if isinstance(value, tuple):
            return value[1:]
        out.append(value)
    return _lane_bits(out)


def _array_lanes(f: KFun, lanes):
    value = _outcome(lambda: f.array(lanes))
    return value[1:] if isinstance(value, tuple) else _lane_bits(value.tolist())


@pytest.mark.parametrize("label,texts,points,anchor", _PATH_CASES, ids=[c[0] for c in _PATH_CASES])
def test_path_components_match_their_scalar_pass(label, texts, points, anchor):
    gm = _from_texts(texts)
    path = build_omega_path(gm, anchor, options=SmallGainOptions(grid_points=points))
    lanes = np.concatenate([GRID, path.grid, _EDGE_LANES])
    nonlinear = 0
    for sigma in path.sigmas:
        assert sigma.array_rule is not None
        scalar = KFun.from_callable(sigma.fn, sigma.description)  # the point-by-point pass
        assert sigma.classification is scalar.classification
        assert _lane_bits([sigma.linear_slope or 0.0]) == _lane_bits([scalar.linear_slope or 0.0])
        nonlinear += sigma.linear_slope is None
        assert _array_lanes(sigma, lanes) == _scalar_lanes(sigma, lanes)
        # a negative radius raises in the operator's scalar call, so on its lane here
        with_negative = np.concatenate([lanes, [-1.0]])
        assert _array_lanes(sigma, with_negative) == _scalar_lanes(sigma, with_negative)
    if label == "nonlinear-probe":
        assert nonlinear == 1


def _spy_path_vectors(monkeypatch, failing=None) -> list:
    """Record each path-vector evaluation: GRID, the probe, or the argument's
    ndim.  An evaluation on ``failing`` raises."""
    calls = []
    make = gains._path_vector_fn

    def spying(gm, anchor, inflation):
        vec_fn = make(gm, anchor, inflation)

        def spy(r):
            calls.append("GRID" if r is GRID else "probe" if r is UNBOUNDED_PROBE else np.ndim(r))
            if r is failing:
                raise ex.EvalOverflowError("overflow on the whole grid")
            return vec_fn(r)
        return spy
    monkeypatch.setattr(gains, "_path_vector_fn", spying)
    return calls


@pytest.mark.parametrize("failing", [None, GRID, UNBOUNDED_PROBE], ids=["none", "GRID", "probe"])
@pytest.mark.parametrize("texts, anchor", [
    (_texts(3, "saturating", 3), [3.0, 1.0, 0.3]),
    ([[None, _PROBE_GAIN], [_PROBE_GAIN, None]], [3.0, 1.0])], ids=["saturating3", "probe"])
def test_path_vector_is_evaluated_once_for_all_components(monkeypatch, texts, anchor, failing):
    gm = _from_texts(texts)
    built = build_omega_path(gm, anchor)
    calls = _spy_path_vectors(monkeypatch, failing)
    path = build_omega_path(gm, anchor)
    # once on GRID and once on the probe for all the components; one that
    # raises is replayed point by point, by each component on its own
    assert [c for c in calls if isinstance(c, str)] == ["GRID", "probe"]
    for sigma, before in zip(path.sigmas, built.sigmas):
        scalar = KFun.from_callable(sigma.fn, sigma.description)  # the point-by-point pass
        assert sigma.classification is scalar.classification is before.classification
        assert _lane_bits([sigma.linear_slope or 0.0]) == _lane_bits([scalar.linear_slope or 0.0])
    assert sum(sigma.linear_slope is None for sigma in path.sigmas) >= 1


# ---------------------------------------------------------------------------
# the envelope check over the whole grid against the former radius-by-radius loop


def _reference_compose_phi(path: OmegaPath) -> KFun:
    """Common lower envelope of the path components, checked against the gains."""
    phi = pointwise_min(path.sigmas)
    gm = path.gain_matrix
    for r in path.grid:
        sig = path.vector_eval(float(r))
        phi_r = phi(float(r))
        for i in range(path.n):
            lhs = phi_r
            for j in range(path.n):
                if j != i and not gm.entries[i][j].is_zero:
                    lhs = max(lhs, gm.entries[i][j](float(sig[j])))
            if lhs > sig[i] * (1.0 + STRICTNESS):
                raise OmegaPathError(
                    f"envelope bound violated at r={float(r)!r}, component {i + 1}")
    return phi


def _phi_outcome(compose, path):
    phi = _outcome(lambda: compose(path))
    if isinstance(phi, tuple):
        return phi
    return (phi.classification, phi.linear_slope, phi.describe(),
            _lane_bits(phi.array(np.concatenate([GRID, path.grid]))))


@pytest.mark.parametrize("label,texts,points,anchor", _PATH_CASES, ids=[c[0] for c in _PATH_CASES])
def test_compose_phi_matches_scalar_loop_on_built_paths(label, texts, points, anchor):
    path = build_omega_path(_from_texts(texts), anchor,
                            options=SmallGainOptions(grid_points=points))
    new = _phi_outcome(compose_phi, path)
    assert not isinstance(new[0], str)  # a built path meets its envelope bound
    assert new == _phi_outcome(_reference_compose_phi, path)


# On the identity path of the symmetric 0.5*s pair, a gain 0.3*s + q*s^2 breaks
# the envelope bound from grid point K on, and 0.5*s + 1e-320*exp(c*s) overflows
# from grid point K on; each is placed by its coefficient.
_PHI_GRID = np.geomspace(1e-8, 1e8, 128).tolist()
K = 87


def _breaking(k: int) -> str:
    return f"0.3*s + {0.75 / _PHI_GRID[k]!r}*s^2"


def _overflowing(k: int) -> str:
    return f"0.5*s + 1e-320*exp({709.9 / _PHI_GRID[k]!r}*s)"


@pytest.mark.parametrize("into_1, into_2, expected", [
    ("0.5*s", _breaking(K), "component 2"),
    (_breaking(K + 3), _breaking(K), "component 2"),  # the first radius decides
    (_breaking(K), _overflowing(K), "component 1"),   # component 2's gain raises at the miss
    (_overflowing(K + 3), _breaking(K), "component 2"),
    (_overflowing(K), _breaking(K + 3), ex.EvalOverflowError),
    ("0.5*s", f"{1.0 + 5e-10!r}*s", None),              # inside the strictness band
])
def test_compose_phi_reports_the_first_miss_or_error_as_the_scalar_loop(into_1, into_2,
                                                                        expected):
    path = build_omega_path(linear_gain_matrix([[0, 0.5], [0.5, 0]]), [1.0, 1.0])
    assert path.vector_eval(0.7).tolist() == [0.7, 0.7] and path.grid.tolist() == _PHI_GRID
    broken = dataclasses.replace(path, gain_matrix=_from_texts([[None, into_1],
                                                                [into_2, None]]))
    new = _phi_outcome(compose_phi, broken)
    assert new == _phi_outcome(_reference_compose_phi, broken)
    if expected is None:
        assert new[0] is Classification.CLASS_K_INF
    elif isinstance(expected, str):
        assert new[1:] == (OmegaPathError, "envelope bound violated at "
                           f"r={_PHI_GRID[K]!r}, {expected}")
    else:
        assert new[1] is expected
    with pytest.raises(ex.EvalOverflowError):  # the whole grid at once does raise
        _from_texts([[None, _overflowing(K)], [None, None]]).entries[0][1].array(path.grid)


def test_compose_phi_bounds_the_envelope_itself():
    # a path whose vector falls below its own components: phi(r) alone misses
    path = build_omega_path(linear_gain_matrix([[0, 0.5], [0.5, 0]]), [1.0, 1.0])
    base = path.vector_eval
    halved = dataclasses.replace(path, vector_eval=lambda r: 0.5 * base(r))
    new = _phi_outcome(compose_phi, halved)
    assert new == _phi_outcome(_reference_compose_phi, halved)
    assert new[1:] == (OmegaPathError, "envelope bound violated at r=1e-08, component 1")


_SMALL_CASES = [c for c in ENSEMBLE if len(c[1]) <= 5][::3]


@pytest.mark.parametrize("label,texts,points,anchor", _SMALL_CASES,
                         ids=[c[0] for c in _SMALL_CASES])
def test_cycle_rows_match_compose_cycle(label, texts, points, anchor):
    gm = _from_texts(texts)
    grid = SmallGainOptions(grid_points=points).grid()
    cycles = simple_gain_cycles(gm)
    for per_block in (gains.BUDGET // points, 5, 1):
        for factor in (1.0, 1.0 + 1e-6, 1.5):
            for first in range(0, len(cycles), per_block):
                block = cycles[first:first + per_block]
                rows = gains._block_rows(gm, block, grid, factor)
                assert rows.shape == (len(block), grid.size)
                for cycle, row in zip(block, rows.tolist()):
                    scalar = [compose_cycle(gm, cycle, r, factor) for r in grid.tolist()]
                    assert _lane_bits(row) == _lane_bits(scalar)


# ---------------------------------------------------------------------------
# the block scan at block boundaries, and against the scalar loops on random networks


def _blocks_of(monkeypatch, per_block: int, points: int = 128) -> None:
    monkeypatch.setattr(gains, "BUDGET", per_block * points)


@pytest.mark.parametrize("per_block, row", [(2, "first"), (3, "last"), (1, "only"),
                                            (7, "inner"), (256, "inner")])
def test_witness_at_a_block_boundary_matches_scalar_loops(monkeypatch, per_block, row):
    # [0, 1, 2, 3] is cycle 2 in scan order, the first to violate on this grid
    gm = _from_texts(_shared_overflow_texts("0.5*s"))
    opts = SmallGainOptions(grid_hi=1e6)
    _blocks_of(monkeypatch, per_block)
    cycles = simple_gain_cycles(gm)
    assert len(cycles) == 20 and cycles[2] == [0, 1, 2, 3]
    place = {0: "first", per_block - 1: "last"}.get(2 % per_block, "inner")
    assert (place if per_block > 1 else "only") == row
    new = small_gain_check(gm, opts)
    assert _verdict_key(new) == _verdict_key(_reference_small_gain_check(gm, opts))
    assert new.witness_cycle.indices == [0, 1, 2, 3]


@pytest.mark.parametrize("per_block", [0, 1, 3, 6, 256])
@pytest.mark.parametrize("kind", ["linear", "saturating", "max"])
def test_partial_last_block_matches_scalar_loops(monkeypatch, per_block, kind):
    # 20 and 84 cycles: no block size above but 1 divides both; a budget
    # below one grid row still takes one cycle at a time
    blocks = []
    block_rows = gains._block_rows
    monkeypatch.setattr(gains, "_block_rows", lambda gm, cycles, grid, factor: blocks.append(
        len(cycles)) or block_rows(gm, cycles, grid, factor))
    _blocks_of(monkeypatch, per_block, 32)
    for texts in (_texts(4, kind, 3), _texts(5, kind, 4, "late")):
        gm = _from_texts(texts)
        opts = SmallGainOptions(grid_points=32)
        new = small_gain_check(gm, opts)
        assert _verdict_key(new) == _verdict_key(_reference_small_gain_check(gm, opts))
        grid = opts.grid()
        for inflation in (1e-6, 0.5):
            assert gains._inflated_cycles_ok(gm, new.cycles, inflation, grid) == \
                _reference_inflated_cycles_ok(gm, new.cycles, inflation, grid)
    assert max(blocks) == min(max(per_block, 1), 84)


def _nan_band_gain() -> KFun:
    """About 0.5*s, but NaN for s in (2e6, 3e7), which neither GRID nor the
    unbounded probe reads as a fault: a class-Kinf gain with no linear slope."""
    return KFun.from_callable(
        lambda s: math.nan if 2e6 < s < 3e7 else 0.5 * s + 0.01 * s / (1.0 + s), "NaN band")


@pytest.mark.parametrize("per_block", [1, 2, 256])
@pytest.mark.parametrize("back", ["0.5*s", "0.3*s + 6.8e-8*s^2"])
def test_nan_ratios_never_win_the_margin(monkeypatch, per_block, back):
    # [0, 1] is NaN at the grid radii in (2e6, 3e7); with the quadratic way
    # back it violates from r ~ 5e7 on, past the NaN band
    gm = GainMatrix.from_rows([[None, KFun.from_text(back), KFun.from_text("0.2*s")],
                               [_nan_band_gain(), None, None],
                               [KFun.from_text("0.2*s"), None, None]])
    assert gm.entries[1][0].classification is Classification.CLASS_K_INF
    _blocks_of(monkeypatch, per_block)
    new = small_gain_check(gm)
    assert _verdict_key(new) == _verdict_key(_reference_small_gain_check(gm))
    assert not math.isnan(new.margin) and (new.witness_cycle is None) == (back == "0.5*s")
    if new.witness_cycle is not None:
        assert new.witness_cycle.indices == [0, 1] and new.witness_cycle.radius > 3e7
    grid = SmallGainOptions().grid()
    for inflation in (1e-6, 0.5):
        assert gains._inflated_cycles_ok(gm, new.cycles, inflation, grid) == \
            _reference_inflated_cycles_ok(gm, new.cycles, inflation, grid)


@pytest.mark.parametrize("per_block", [1, 2, 256])
def test_unconfirmed_hit_keeps_scanning_and_counts_its_row(monkeypatch, per_block):
    # [0, 1] and [0, 2] violate at every radius, [0, 1, 2] in between never does
    gm = _from_texts([[None, "1.5*s", "1.25*s"], ["0.9*s", None, "0.1*s"],
                      ["0.9*s", "0.1*s", None]])
    grid = SmallGainOptions().grid()
    _blocks_of(monkeypatch, per_block)
    cycles = simple_gain_cycles(gm)
    assert cycles[:3] == [[0, 1], [0, 1, 2], [0, 2]]
    confirmed = []
    compose = gains.compose_cycle

    def rejecting(gm, c, r, factor=1.0):
        if np.ndim(r):
            return compose(gm, c, r, factor)
        confirmed.append((list(c), r))
        return -math.inf if list(c) == [0, 1] else compose(gm, c, r, factor)
    monkeypatch.setattr(gains, "compose_cycle", rejecting)
    verdict = small_gain_check(gm)
    # every hit of [0, 1] was tried and rejected, then [0, 2] is confirmed at once
    assert confirmed == [([0, 1], r) for r in grid.tolist()] + [([0, 2], grid[0])]
    assert verdict.witness_cycle.indices == [0, 2] and verdict.witness_cycle.radius == grid[0]
    margin = 0.0  # every ratio of the rows before the witness, then the witness's own
    rows = [compose(gm, c, grid) / grid for c in cycles[:2]] + [compose(gm, [0, 2], grid[:1])]
    for ratio in np.concatenate(rows):
        if ratio > margin:
            margin = ratio
    assert _bits(verdict.margin) == _bits(margin) == _bits(rows[0].max())


_OVERFLOW_AT = {"low": 1e-1, "mid": 1e-3, "high": 1e-5}  # exp(c*s) overflows past 709.8/c


@st.composite
def _random_network(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    texts = [[None] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        kind = draw(st.sampled_from(["none", "linear", "saturating", "overflow"]))
        if kind == "linear":
            texts[i][j] = f"{draw(st.sampled_from([0.3, 0.9, 1.1, 1.6]))!r}*s"
        elif kind == "saturating":
            texts[i][j] = _sat(draw(st.sampled_from([0.2, 0.8, 1.5])),
                               draw(st.sampled_from([0.05, 0.5, 1.0])))
        elif kind == "overflow":
            c = _OVERFLOW_AT[draw(st.sampled_from(sorted(_OVERFLOW_AT)))]
            texts[i][j] = f"{draw(st.sampled_from([0.3, 0.9]))!r}*s + 1e-320*exp({c!r}*s)"
    return texts


@settings(max_examples=80, deadline=None)
@given(_random_network(), st.integers(min_value=1, max_value=8),
       st.sampled_from([16, 24]), st.sampled_from([1e4, 1e8]))
def test_block_scan_matches_scalar_loops_on_random_networks(texts, per_block, points, grid_hi):
    gm = _from_texts(texts)
    opts = SmallGainOptions(grid_hi=grid_hi, grid_points=points)
    grid = opts.grid()
    with mock.patch.object(gains, "BUDGET", per_block * points), \
            mock.patch.object(gains, "RANDOM_DIRECTIONS", 16), \
            mock.patch.dict(globals(), {"RANDOM_DIRECTIONS": 16}):
        new = _outcome(lambda: _verdict_key(small_gain_check(gm, opts)))
        assert new == _outcome(lambda: _verdict_key(_reference_small_gain_check(gm, opts)))
        cycles = simple_gain_cycles(gm)
        for inflation in (1e-6, 0.3):
            assert _outcome(lambda: gains._inflated_cycles_ok(gm, cycles, inflation, grid)) == \
                _outcome(lambda: _reference_inflated_cycles_ok(gm, cycles, inflation, grid))
