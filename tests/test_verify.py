"""The detection rows share one SRM oracle call per (n, k, c), and the (n, k)
caches hold the grid that verify walks."""

from collections import Counter

from anomdet import combin, oracle, verify
from anomdet.combin import NK_CACHE_SIZE
from anomdet.oracle import STATE_QUBITS_CAP

DETECTION_ROWS = ("min-error-vs-srm-oracle", "min-error-srm-optimality-gap",
                  "unambiguous-vs-min-eigenvalue")


def test_detection_rows_build_and_factor_once_per_instance(monkeypatch):
    built, factored = Counter(), []
    states, srm = verify.all_hypothesis_states, verify.srm_success_oracle

    def counting_states(inst):
        built[(inst.n, inst.k, inst.c)] += 1
        return states(inst)

    def counting_srm(V):
        factored.append(V.shape)
        return srm(V)

    monkeypatch.setattr(verify, "all_hypothesis_states", counting_states)
    monkeypatch.setattr(verify, "srm_success_oracle", counting_srm)
    verify._srm.cache_clear()
    try:
        rows = [check for check in verify.CHECKS if check.name in DETECTION_ROWS]
        results = [r for check in rows for r in check.run(9)]
    finally:
        verify._srm.cache_clear()
    grid = {(inst["n"], inst["k"], inst["c"]) for inst in verify._srm_grid(9)}
    assert len(rows) == 3 and len(results) == 3 * len(grid)
    assert all(r.passed for r in results)
    assert built == Counter(grid) and len(factored) == len(grid)


def test_srm_cache_holds_the_overlap_grid_at_the_cap():
    # every instance of `verify --max-n 14`, the overlap grid and the high-overlap
    # sub-grid, keeps its entry until the last detection row reads it
    grid = {tuple(inst.values()) for inst in verify._srm_grid(STATE_QUBITS_CAP)}
    assert {tuple(inst.values()) for inst in verify._overlap_grid(STATE_QUBITS_CAP)} < grid
    assert verify._srm.cache_info().maxsize == len(grid)


def test_nk_caches_hold_the_scheme_grid_at_the_cap(monkeypatch):
    # every row of `verify --max-n 14` walks these cells, the mirrored ones of
    # the scheme grid included, and the detection rows those of the high-overlap
    # sub-grid (k > min(4, n//2) too, k = 0 and k = n at n <= 10); a second
    # pass over them builds neither a distance matrix nor a sector layout again
    cells = list(dict.fromkeys((inst["n"], inst["k"]) for grid in (verify._scheme_grid,
                                                                   verify._srm_grid)
                               for inst in grid(STATE_QUBITS_CAP)))
    assert len(cells) == 40 + 39 <= NK_CACHE_SIZE
    calls = Counter()
    indicator = combin.pattern_indicator

    def counting(n, k):
        calls[n, k] += 1
        return indicator(n, k)

    monkeypatch.setattr(combin, "pattern_indicator", counting)
    monkeypatch.setattr(oracle, "pattern_indicator", counting)
    combin._distances.cache.clear()
    oracle._sector_layout.cache.clear()
    for _ in range(2):
        for n, k in cells:
            combin.distance_matrix(n, k)
            oracle._sector_layout(n, k)
    assert calls == Counter({nk: 2 for nk in cells})  # one per cell per builder


def test_no_row_walks_more_cells_than_the_nk_caches_hold():
    # a row that walks more (n, k) than an (n, k) cache holds evicts each cell
    # before the next row comes back to it.  The rows whose instances stop at
    # --max-n build the explicit per-(n, k) objects; the closed-form rows
    # (explicit forms, reference spectra, large-n fixed instances) run past it
    walks = {}
    for check in verify.CHECKS:
        for max_n in (9, 12, STATE_QUBITS_CAP):
            cells = {(inst["n"], inst["k"]) for inst in check.grid(max_n) if "n" in inst}
            if cells and max(n for n, _ in cells) <= max_n:
                walks[check.name, max_n] = len(cells)
    assert walks["min-error-vs-srm-oracle", 12] == 71
    assert walks["min-error-vs-srm-oracle", STATE_QUBITS_CAP] == 79
    assert max(walks.values()) <= NK_CACHE_SIZE, max(walks, key=walks.get)
