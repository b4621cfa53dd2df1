"""Benchmark of anomdet: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0

Workloads: closed_form, oracle_float, exact_algebra (see README.md).
The item list is fixed by (workload, seed, seconds); ``--seconds`` sizes
it so the timed work takes about that long at the commit that defined
the benchmark.  Every item's output is checked outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end metrics; with ``--trace 1`` the items run
once untraced and once traced, and the metrics are the per-layer ones.
Spans and a detailed result are written under ``.perfbench_out/``.

Exits with code 2 when the checkout holds no ``src/anomdet``.
"""

import os

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MODULES = ["combin", "gram", "johnson", "protocols", "universal", "oracle"]
FUNCTION_METRICS = [
    "combin.hypergeometric_terminating.calls",
    "combin.hypergeometric_terminating.self_s",
    "combin.pattern_distance.calls",
    "combin.enumerate_patterns.calls",
    "gram.gram_matrix.self_s",
    "gram.closed_form_spectrum.self_s",
    "gram.direct_spectrum.self_s",
    "gram.matrix_sqrt.self_s",
    "johnson.scheme_basis.self_s",
    "johnson.scheme_projector_exact.calls",
    "johnson.scheme_projector_exact.self_s",
    "johnson.verify_bose_mesner_closure.self_s",
    "johnson.eigenmatrices.self_s",
    "johnson.hahn_polynomial.calls",
    "protocols.min_error_success.self_s",
    "protocols.verify_unambiguous_certificates.self_s",
    "universal.universal_success.self_s",
    "oracle.hypothesis_state.calls",
    "oracle.all_hypothesis_states.self_s",
    "oracle.srm_success_oracle.self_s",
    "oracle.universal_success_oracle.self_s",
]
ENTRIES = "gram.gram_matrix.entries"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import anomdet.cli; "
                "print(time.perf_counter() - t)")
IMPORT_LAUNCHES = 9
# Safety stops, far above the sized run: no item starts later than
# DEADLINE_S into the run, and no item of a traced run's untraced pass
# later than UNTRACED_DEADLINE_S.
DEADLINE_S = 150.0
UNTRACED_DEADLINE_S = 70.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "anomdet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def _launch(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=60)


def import_cli_once() -> float:
    """Seconds to ``import anomdet.cli`` in a fresh interpreter."""
    return float(_launch(["-c", IMPORT_PROBE]).stdout)


def run_with_setup_probes(items, deadline: float):
    """Run the items in IMPORT_LAUNCHES chunks, timing one import before each.

    Returns the median import time and the outcomes.  Spreading the
    launches over the run makes the import time the median over the same
    stretch of machine time as the item metrics.  One uncounted launch
    first writes the bytecode cache, so the figure is a user's repeated
    start, not the first after a checkout.
    """
    import workloads

    import_cli_once()
    times, outcomes = [], []
    for chunk in range(IMPORT_LAUNCHES):
        times.append(import_cli_once())
        start, stop = (len(items) * i // IMPORT_LAUNCHES for i in (chunk, chunk + 1))
        outcomes += workloads.run_pass(items[start:stop], deadline)
    return statistics.median(times), outcomes


def import_numpy_seconds(launches: int) -> float:
    """Median cumulative import time of numpy under ``-X importtime``."""
    times = []
    for _ in range(launches + 1):
        stderr = _launch(["-X", "importtime", "-c", "import anomdet.cli"]).stderr
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                times.append(int(fields[1]) * 1e-6)
    if len(times) != launches + 1:
        raise RuntimeError("numpy missing from -X importtime output")
    return statistics.median(times[1:])


def per_layer(tracer, untraced_s: float) -> dict:
    stats = tracer.stats
    out = {}
    for module in MODULES:
        mine = [s for name, s in stats.items() if name.startswith(module + ".")]
        out[f"{module}.calls"] = (sum(s.calls for s in mine), "count")
        out[f"{module}.self_s"] = (sum(s.self_ns for s in mine) * 1e-9, "s")
        out[f"{module}.errors"] = (sum(s.errors for s in mine), "count")
    for metric in FUNCTION_METRICS:
        name, field = metric.rsplit(".", 1)
        s = stats.get(name)
        value = 0 if s is None else (s.calls if field == "calls" else s.self_ns * 1e-9)
        out[metric] = (value, "count" if field == "calls" else "s")
    out[ENTRIES] = (tracer.counters.get(ENTRIES, 0), "count")
    root = stats[spans.ROOT]
    out["bench.self_s"] = (root.self_ns * 1e-9, "s")
    out["trace.wall_s"] = (root.total_ns * 1e-9, "s")
    out["trace.overhead_ratio"] = (root.total_ns * 1e-9 / untraced_s, "ratio")
    return out


def print_accounting(tracer) -> None:
    modules_ns = sum(s.self_ns for name, s in tracer.stats.items() if name != spans.ROOT)
    root = tracer.stats[spans.ROOT]
    print(f"accounting: traced wall {root.total_ns * 1e-9:.6f} s = module self "
          f"{modules_ns * 1e-9:.6f} s + benchmark self {root.self_ns * 1e-9:.6f} s "
          f"(residual {root.total_ns - modules_ns - root.self_ns} ns)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "anomdet" / "__init__.py").is_file():
        fail(f"no anomdet sources under {SRC}; run from a checkout of the repository")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    import anomdet
    import workloads

    if Path(anomdet.__file__).resolve().parent != (SRC / "anomdet").resolve():
        fail(f"imported anomdet from {anomdet.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {', '.join(workloads.WORKLOADS)}")

    env = environment()
    items = workload.make_items(args.seed, args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {tag}: {len(items)} items, seconds={args.seconds}")
    print("env " + json.dumps(env))

    tracer = None
    if args.trace == 0:
        setup_s, outcomes = run_with_setup_probes(items, started + DEADLINE_S)
        metrics = {"setup_s": (setup_s, "s"), **workloads.end_to_end(outcomes)}
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    else:
        import_s, outcomes = run_with_setup_probes(items, started + UNTRACED_DEADLINE_S)
        untraced_s = sum(o.seconds for o in outcomes)
        tracer = spans.Tracer()
        tracer.install("anomdet", MODULES, hooks={
            "gram.gram_matrix": lambda inst, *a, **kw: (ENTRIES, math.comb(inst.n, inst.k) ** 2),
        })
        traced = workloads.run_pass([o.item for o in outcomes], started + DEADLINE_S, tracer)
        tracer.remove()
        if len(traced) < len(outcomes):
            untraced_s = sum(o.seconds for o in outcomes[:len(traced)])
        metrics = per_layer(tracer, untraced_s)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.import_numpy_s"] = (import_numpy_seconds(IMPORT_LAUNCHES), "s")
        outcomes = traced

    failures = Counter(f"{o.item.stratum} {o.failure}" for o in outcomes if o.failure)
    unexpected = [o for o in outcomes if o.failure and o.item.stratum not in workload.defect_strata]
    failed = sum(failures.values())
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {failed / len(outcomes):.6g} ratio "
          f"({failed} of {len(outcomes)} items)")
    print(f"{args.workload} nk_repeat_share = {workloads.nk_repeat_share(items):.6g} ratio")
    print("failures " + json.dumps(dict(sorted(failures.items()))))
    for o in unexpected[:10]:
        print(f"unexpected failure: {o.item} {o.failure}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        print_accounting(tracer)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, failures=dict(failures),
                  nk_repeat_share=workloads.nk_repeat_share(items), items=len(items))
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
