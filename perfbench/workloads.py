"""The three seeded workloads: item generation, timed library calls, checks.

An item is one problem instance.  ``make_items(seed, seconds)`` returns
the same list for the same arguments; ``seconds`` only scales how many
items there are.  Items come in batches of the same composition (a
closed_form block, or one round over the (n, k) grid), run back to back.  ``EXECUTE[item.kind]`` makes the timed library calls
through the public API and ``CHECK[item.kind]`` checks their output
outside the timed region, raising ``CheckFailed`` on a wrong value.

Library functions are looked up on their modules at call time
(``gram.gram_matrix``), so a tracer that patches the modules sees them.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from anomdet import gram, johnson, oracle, protocols, universal

N_MAX = 10_000

# closed_form: one block of items per stratum count.  Every block has the
# same composition, so the share of items from the ROADMAP's
# confirmed-defect regions (the last three strata) is the same in every
# run.
CLOSED_FORM_BLOCK = (
    ("small_k", 26),     # 1 <= k <= 10, k <= n/2, float c
    ("fraction_c", 5),   # 1 <= k <= 10, k <= n/2, small-denominator Fraction c
    ("medium_k", 8),     # k log-spread over the tens to low hundreds
    ("universal", 5),    # universal (n, k, d), d in 2..5
    ("overflow_k", 3),   # k near 200 with lambda_0 beyond the float range
    ("k_gt_half", 2),    # n/2 < k < n
    ("k_eq_n", 1),       # k = n
)
CLOSED_FORM_DEFECTS = frozenset({"overflow_k", "k_gt_half", "k_eq_n"})
MEDIUM_K = (11, 110)
# Timed seconds of one closed_form block, and of one overlap per (n, k)
# of the grid for the other two workloads, at the commit that defined
# the benchmark on a 2-core x86-64 box; used only to size the item list.
CLOSED_FORM_BLOCK_S = 1.5
ORACLE_ROUND_S = 0.8
EXACT_ROUND_S = 0.75

ORACLE_MAX_N = 10
EXACT_MAX_N = 9
MIN_ROUNDS = 5
# Distinct overlaps p/q in (0, 1) with q <= 12: 45 of them.
EXACT_OVERLAPS = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
DENSE_ORACLE_MAX_N = 120


@dataclass(frozen=True)
class Item:
    id: int
    kind: str       # which library calls the item times (a key of EXECUTE)
    stratum: str    # region of the input domain it was drawn from
    n: int
    k: int
    param: object   # overlap c (float or Fraction), local dimension d, or None
    batch: int      # block or round the item belongs to; batches run in order


class CheckFailed(Exception):
    """An item's output is wrong; the message names the failed check."""


def _require(condition: bool, check: str) -> None:
    if not condition:
        raise CheckFailed(check)


def nk_grid(max_n: int) -> list[tuple[int, int]]:
    """The (n, k) grid of ``anomdet verify``: 2 <= n <= max_n, 1 <= k <= min(4, n//2)."""
    return [(n, k) for n in range(2, max_n + 1) for k in range(1, min(4, n // 2) + 1)]


# ---------------------------------------------------------------- generation


def _log10_max_term(n: int, k: int, z: float) -> float:
    """log10 of the largest term C(k,m) C(n-k,m) z^m of lambda_0 = 2F1(-k, k-n; 1; z)."""
    lg = math.lgamma
    return max(
        lg(k + 1) - lg(m + 1) - lg(k - m + 1)
        + lg(n - k + 1) - lg(m + 1) - lg(n - k - m + 1) + m * math.log(z)
        for m in range(k + 1)
    ) / math.log(10)


def _latin_hypercube(rng: random.Random, m: int, dims: int) -> list[tuple[float, ...]]:
    """m points in [0, 1)^dims with exactly one point in each 1/m slice of every axis.

    Item cost depends steeply on k, so stratified draws keep the run's
    cost distribution, and with it the percentiles, nearly seed-free.
    """
    axes = []
    for _ in range(dims):
        slices = list(range(m))
        rng.shuffle(slices)
        axes.append([(s + rng.random()) / m for s in slices])
    return list(zip(*axes))


def _log_spread(u: float, lo: int, hi: int) -> int:
    """The integer at fraction u of [lo, hi] on a log scale."""
    return min(hi, max(lo, int(lo * (hi + 1) ** u / lo ** u)))


def _draw_closed_form(rng: random.Random, stratum: str, u: tuple[float, float, float]):
    """One (kind, n, k, param) from a closed_form stratum, placed by u in [0, 1)^3."""
    uk, un, uc = u
    if stratum in ("small_k", "fraction_c"):
        k = 1 + int(uk * 10)
        n = _log_spread(un, 2 * k, N_MAX)
        if stratum == "small_k":
            return "known", n, k, 0.05 + 0.9 * uc
        q = 2 + int(uc * 11)
        return "known", n, k, Fraction(rng.randint(1, q - 1), q)
    if stratum == "medium_k":
        k = _log_spread(uk, *MEDIUM_K)
        return "known", _log_spread(un, 2 * k, N_MAX), k, 0.1 + 0.8 * uc
    if stratum == "universal":
        n = _log_spread(un, 2, N_MAX)
        return "universal", n, _log_spread(uk, 1, min(200, n // 2)), 2 + int(uc * 4)
    if stratum == "overflow_k":
        while True:
            n, k, c = rng.randint(4000, N_MAX), rng.randint(190, 220), rng.uniform(0.5, 0.9)
            # the largest term alone exceeds the float range (~1.8e308)
            if _log10_max_term(n, k, c * c) >= 310:
                return "known", n, k, c
    if stratum == "k_gt_half":
        n = 16 + int(un * 9)
        k = n // 2 + 1 + int(uk * (n - 1 - n // 2))
        q = rng.randint(2, 12)
        c = Fraction(rng.randint(1, q - 1), q) if uc < 0.5 else rng.uniform(0.1, 0.9)
        return "known", n, k, c
    if stratum == "k_eq_n":
        n = 8 + int(un * 9)
        return "known", n, n, 0.1 + 0.8 * uc
    raise ValueError(f"unknown stratum {stratum!r}")


def closed_form_items(seed: int, seconds: int) -> list[Item]:
    rng = random.Random(f"closed_form:{seed}")
    blocks = max(2, round(seconds / CLOSED_FORM_BLOCK_S))
    seen: set = set()
    items: list[Item] = []
    for batch in range(blocks):
        block = []
        for stratum, count in CLOSED_FORM_BLOCK:
            for u in _latin_hypercube(rng, count, 3):
                drawn = _draw_closed_form(rng, stratum, u)
                while drawn in seen:  # items never repeat within a run
                    drawn = _draw_closed_form(rng, stratum, (rng.random(), rng.random(), rng.random()))
                seen.add(drawn)
                block.append((stratum, drawn))
        rng.shuffle(block)
        for stratum, (kind, n, k, param) in block:
            items.append(Item(len(items), kind, stratum, n, k, param, batch))
    return items


def _rounds(seconds: int, round_s: float) -> int:
    return max(MIN_ROUNDS, round(seconds / round_s))


def _in_rounds(rng: random.Random, rounds: list[list[tuple]], extra: list[tuple]) -> list[Item]:
    """Items round by round, each round in a seeded random order.

    Every round holds one item of every grid cell.  The ``extra`` items
    (one of each kind per run) are dealt one to a round, in a seeded
    order, so which rounds hold one does not change the sum over rounds
    of a per-round statistic.
    """
    rng.shuffle(extra)
    for i, fields in enumerate(extra):
        rounds[i % len(rounds)].append(fields)
    items = []
    for batch, drawn in enumerate(rounds):
        rng.shuffle(drawn)
        items += [Item(len(items), *fields, batch) for fields in drawn]
    return items


def oracle_float_items(seed: int, seconds: int) -> list[Item]:
    rng = random.Random(f"oracle_float:{seed}")
    rounds = [[("oracle_float", "grid", n, k, rng.uniform(0.1, 0.9)) for n, k in nk_grid(ORACLE_MAX_N)]
              for _ in range(_rounds(seconds, ORACLE_ROUND_S))]
    extra = [("universal_oracle", "universal", n, k, 2)
             for n in range(2, 7) for k in range(1, n // 2 + 1)]
    extra += [("universal_oracle", "universal", n, k, 3)
              for n in range(2, 5) for k in range(1, min(2, n // 2) + 1)]
    return _in_rounds(rng, rounds, extra)


def exact_algebra_items(seed: int, seconds: int) -> list[Item]:
    rng = random.Random(f"exact_algebra:{seed}")
    count = min(len(EXACT_OVERLAPS), _rounds(seconds, EXACT_ROUND_S))
    grid = nk_grid(EXACT_MAX_N)
    overlaps = [rng.sample(EXACT_OVERLAPS, count) for _ in grid]
    rounds = [[("exact", "overlap", n, k, cs[r]) for (n, k), cs in zip(grid, overlaps)]
              for r in range(count)]
    extra = [("scheme", "structure", n, k, None) for n, k in grid]
    return _in_rounds(rng, rounds, extra)


@dataclass(frozen=True)
class Workload:
    make_items: Callable[[int, int], list[Item]]
    # Strata that hold the ROADMAP's confirmed defects: their items are
    # counted as failures when they fail, but do not make the run incorrect.
    defect_strata: frozenset = frozenset()


WORKLOADS = {
    "closed_form": Workload(closed_form_items, CLOSED_FORM_DEFECTS),
    "oracle_float": Workload(oracle_float_items),
    "exact_algebra": Workload(exact_algebra_items),
}


# ------------------------------------------------------------- timed calls


def run_known(item: Item):
    inst = gram.ProblemInstance(n=item.n, k=item.k, c=item.param)
    spec = gram.closed_form_spectrum(inst)
    return (spec, protocols.min_error_success(inst).value,
            protocols.unambiguous_success(inst).value)


def run_universal(item: Item):
    return universal.universal_success(universal.UniversalInstance(n=item.n, k=item.k, d=item.param))


def run_oracle_float(item: Item):
    inst = gram.ProblemInstance(n=item.n, k=item.k, c=item.param)
    G = gram.gram_matrix(inst)
    eigenvalues = gram.direct_spectrum(G)
    srm = oracle.srm_success_oracle(oracle.all_hypothesis_states(inst))
    certificate = protocols.verify_unambiguous_certificates(inst)
    return G, eigenvalues, srm, certificate


def run_universal_oracle(item: Item):
    return oracle.universal_success_oracle(item.n, item.k, item.param)


def run_scheme(item: Item):
    basis = johnson.scheme_basis(item.n, item.k)
    numbers = johnson.verify_bose_mesner_closure(basis)
    return basis, numbers, johnson.eigenmatrices(item.n, item.k)


def run_exact(item: Item):
    inst = gram.ProblemInstance(n=item.n, k=item.k, c=item.param)
    G = gram.gram_matrix(inst)
    spec = gram.closed_form_spectrum(inst)
    projectors = [johnson.scheme_projector_exact(item.n, item.k, j) for j in range(item.k + 1)]
    return G, spec, projectors


EXECUTE = {
    "known": run_known,
    "universal": run_universal,
    "oracle_float": run_oracle_float,
    "universal_oracle": run_universal_oracle,
    "scheme": run_scheme,
    "exact": run_exact,
}


# ------------------------------------------------------------------ checks


def distance_matrix(n: int, k: int) -> np.ndarray:
    """Subset distances k - |r ∩ s| in lexicographic pattern order, as k - X X^T."""
    patterns = list(combinations(range(n), k))
    X = np.zeros((len(patterns), n), dtype=np.int64)
    for row, pattern in enumerate(patterns):
        X[row, list(pattern)] = 1
    return k - X @ X.T


def _expand(values, multiplicities) -> np.ndarray:
    """All eigenvalues with repetition, descending."""
    out = np.repeat(np.array([float(v) for v in values]), multiplicities)
    return np.sort(out)[::-1]


def _check_multiplicities(spec, N: int) -> list[int]:
    mults = [e.multiplicity for e in spec.entries]
    _require(all(m >= 0 for m in mults) and sum(mults) == N, "multiplicities")
    return mults


def check_known(item: Item, output) -> None:
    spec, min_error, unambiguous = output
    n, k, c = item.n, item.k, item.param
    N = math.comb(n, k)
    mults = _check_multiplicities(spec, N)
    values = [e.value for e in spec.entries]
    _require(all(isinstance(v, Fraction) or math.isfinite(v) for v in values)
             and min(values) >= 0, "eigenvalues")
    # Moments of the returned eigenvalues, in exact arithmetic, against
    # tr G = N and tr G^2 = N sum_i C(k,i) C(n-k,i) z^(2i), z = c^2.
    z = Fraction(c * c)
    exact = [Fraction(v) for v in values]
    trace_sq = N * sum(math.comb(k, i) * math.comb(n - k, i) * z ** (2 * i) for i in range(k + 1))
    tol = 0 if isinstance(c, Fraction) else Fraction(1, 10**9)
    _require(abs(sum(m * v for m, v in zip(mults, exact)) - N) <= tol * N, "trace")
    _require(abs(sum(m * v * v for m, v in zip(mults, exact)) - trace_sq) <= tol * trace_sq,
             "trace-of-square")
    srm = math.fsum(m / N * math.sqrt(v) for m, v in zip(mults, values)) ** 2
    _require(math.isclose(min_error, srm, rel_tol=1e-9), "min-error-from-spectrum")
    _require(-1e-12 <= unambiguous <= min_error + 1e-12 and min_error <= 1 + 1e-12, "bounds")
    # lambda_min(G) = (1-c^2)^min(k, n-k): the Gram matrices of k and n-k coincide
    reference = float((1 - Fraction(c) ** 2) ** min(k, n - k))
    _require(math.isclose(unambiguous, reference, rel_tol=1e-9, abs_tol=1e-300), "unambiguous")
    if N <= DENSE_ORACLE_MAX_N:
        G = np.power(float(c) ** 2, distance_matrix(n, k).astype(float))
        w, V = np.linalg.eigh(G)
        S = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        dense = np.sort(w)[::-1]
        _require(np.abs(_expand(values, mults) - dense).max() <= 1e-9 * max(1.0, dense[0]),
                 "dense-spectrum")
        _require(abs(min_error - float(np.mean(np.diag(S) ** 2))) <= 1e-9, "dense-min-error")
        _require(abs(unambiguous - dense[-1]) <= 1e-9, "dense-unambiguous")


def check_universal(item: Item, output) -> None:
    _require(isinstance(output, Fraction) and 0 < output <= 1, "universal-range")


def check_oracle_float(item: Item, output) -> None:
    G, eigenvalues, srm, certificate = output
    n, k, c = item.n, item.k, item.param
    inst = gram.ProblemInstance(n=n, k=k, c=c)
    reference = np.power(c * c, distance_matrix(n, k).astype(float))
    _require(np.shape(G) == reference.shape and np.allclose(G, reference, rtol=0, atol=1e-14), "gram")
    spec = gram.closed_form_spectrum(inst)
    mults = _check_multiplicities(spec, inst.N)
    closed = _expand([e.value for e in spec.entries], mults)
    _require(np.abs(closed - eigenvalues).max() <= 1e-9, "spectrum")
    min_error = protocols.min_error_success(inst).value
    _require(abs(min_error - srm.success) <= 1e-10, "min-error-vs-srm")
    unambiguous = protocols.unambiguous_success(inst).value
    _require(-1e-12 <= unambiguous <= min_error + 1e-12 and min_error <= 1 + 1e-12, "bounds")
    _require(abs(unambiguous - eigenvalues[-1]) <= 1e-10, "unambiguous-vs-min-eigenvalue")
    _require(certificate.optimal and certificate.gap <= 1e-10, "certificates")


def check_universal_oracle(item: Item, output) -> None:
    closed = universal.universal_success(universal.UniversalInstance(n=item.n, k=item.k, d=item.param))
    _require(abs(float(closed) - output) <= 1e-8, "universal-vs-density-oracle")


def check_scheme(item: Item, output) -> None:
    basis, numbers, em = output
    n, k = item.n, item.k
    N = math.comb(n, k)
    D = distance_matrix(n, k)
    _require(len(basis.adjacency) == k + 1
             and all(np.array_equal(A, D == i) for i, A in enumerate(basis.adjacency)),
             "adjacency")
    valency = [math.comb(k, i) * math.comb(n - k, i) for i in range(k + 1)]
    _require(all(numbers[(i, j)][0] == (valency[i] if i == j else 0)
                 for i in range(k + 1) for j in range(k + 1)), "intersection-numbers")
    _require(all(numbers[(0, j)] == [int(l == j) for l in range(k + 1)] for j in range(k + 1)),
             "intersection-numbers")
    _require(all(sum(em.P[j][i] * em.Q[i][jp] for i in range(k + 1)) == (N if j == jp else 0)
                 for j in range(k + 1) for jp in range(k + 1)), "eigenmatrix-PQ")
    _require(list(em.P[0]) == valency, "eigenmatrix-P")
    mults = [math.comb(n, j) - math.comb(n, j - 1) if j else 1 for j in range(k + 1)]
    dense = np.sort(np.linalg.eigvalsh(basis.adjacency[1].astype(float)))[::-1]
    _require(np.abs(_expand([em.P[j][1] for j in range(k + 1)], mults) - dense).max() <= 1e-9,
             "adjacency-spectrum")


def check_exact(item: Item, output) -> None:
    G, spec, projectors = output
    n, k, c = item.n, item.k, item.param
    N = math.comb(n, k)
    D = distance_matrix(n, k)
    powers = [(c * c) ** d for d in range(k + 1)]
    reference = np.array(powers, dtype=object)[D]
    G = np.array(G, dtype=object)
    _require(G.shape == (N, N) and (G == reference).all(), "gram")
    mults = _check_multiplicities(spec, N)
    _require(all(isinstance(e.value, Fraction) for e in spec.entries), "exact-spectrum")
    E = [np.array(P, dtype=object) for P in projectors]
    _require(len(E) == k + 1 and all(P.shape == (N, N) for P in E), "projector-shape")
    _require(all(sum(P.diagonal()) == m for P, m in zip(E, mults)), "projector-trace")
    # Each E_j must be constant on the distance classes of D; then the sum
    # sum_j lambda_j E_j = G holds entrywise iff it holds on one entry per
    # class.  Comparing entries is much cheaper than multiplying them.
    first = [int(np.argmax(D == d)) for d in range(k + 1)]
    for P in E:
        _require((P == P.ravel()[first][D]).all(), "projector-in-scheme-span")
    _require(all(sum(e.value * P.flat[f] for e, P in zip(spec.entries, E)) == powers[d]
                 for d, f in enumerate(first)), "spectral-reconstruction")


CHECK = {
    "known": check_known,
    "universal": check_universal,
    "oracle_float": check_oracle_float,
    "universal_oracle": check_universal_oracle,
    "scheme": check_scheme,
    "exact": check_exact,
}


# ------------------------------------------------------------------ runner


@dataclass(frozen=True)
class Outcome:
    item: Item
    seconds: float
    failure: str | None  # "raise:<exception>" or "check:<check name>"; None if passed


def run_item(item: Item, tracer=None) -> Outcome:
    """Time one item's library calls, then check the output untimed.

    A raised exception or a failed check makes the item a failure; the
    failure is named and never dropped.
    """
    execute = EXECUTE[item.kind]
    start = time.perf_counter()
    try:
        output = tracer.item(item.id, execute, item) if tracer else execute(item)
    except Exception as exc:  # a library error is a result to count
        return Outcome(item, time.perf_counter() - start, f"raise:{type(exc).__name__}")
    seconds = time.perf_counter() - start
    try:
        CHECK[item.kind](item, output)
    except CheckFailed as exc:
        return Outcome(item, seconds, f"check:{exc}")
    except Exception as exc:  # output of the wrong shape or type
        return Outcome(item, seconds, f"check:{type(exc).__name__}")
    return Outcome(item, seconds, None)


def run_pass(items, deadline: float, tracer=None) -> list[Outcome]:
    outcomes = []
    for item in items:
        if time.perf_counter() > deadline:
            print(f"perfbench: safety stop after {len(outcomes)} of {len(items)} items",
                  file=sys.stderr)
            break
        outcomes.append(run_item(item, tracer))
    return outcomes


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics (the
    weights by the midpoint rule).  Item times cluster by (n, k), and a
    plain order statistic that falls between two clusters jumps between
    their extreme items; this estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    t = (np.arange(n) + 0.5) / n
    log_w = ((n + 1) * p - 1) * np.log(t) + ((n + 1) * (1 - p) - 1) * np.log1p(-t)
    w = np.exp(log_w - log_w.max())
    return float(w @ x / w.sum())


def batch_quantile(outcomes: list[Outcome], p: float) -> float:
    """The p-quantile of per-item ms within each batch, averaged over the batches.

    The machine's speed moves between a fast and a slow level for seconds
    at a time.  A batch runs in about a second, mostly at one level, so
    its quantile scales with that level, and the mean over batches moves
    in proportion to the share of the run spent slow.  A quantile over
    the whole run instead falls between the two levels of an (n, k) group
    and jumps when that share crosses the quantile's rank.
    """
    batches: dict[int, list[float]] = {}
    for o in outcomes:
        batches.setdefault(o.item.batch, []).append(o.seconds * 1e3)
    return statistics.fmean(quantile(ms, p) for ms in batches.values())


def end_to_end(outcomes: list[Outcome]) -> dict:
    passed = sum(o.failure is None for o in outcomes)
    return {
        "items_per_s": (passed / sum(o.seconds for o in outcomes), "1/s"),
        "item_ms_p50": (batch_quantile(outcomes, 0.5), "ms"),
        "item_ms_p90": (batch_quantile(outcomes, 0.9), "ms"),
        "passed_ratio": (passed / len(outcomes), "ratio"),
    }


def nk_repeat_share(items) -> float:
    """Share of items whose (n, k) an earlier item of the run already had."""
    seen, repeats = set(), 0
    for item in items:
        repeats += (item.n, item.k) in seen
        seen.add((item.n, item.k))
    return repeats / len(items)
