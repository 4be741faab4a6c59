"""qfaeq benchmark: time to verdict on generated automaton pairs and documents.

Usage, from the repository root:

    python3 perfbench/run.py --workload decide|docs --seed N \\
        --seconds S --trace 0|1

The benchmark imports the package from ``src/`` next to this directory and
runs one workload in this process, on one thread, as a closed loop: one
caller issues the operations of a fixed list back to back, cycling through
it until ``--seconds`` have passed.  Every output is checked after the loop.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs the first rounds of the list, each operation once with boundary
tracing on (see ``tracer.py``) and once without, to measure the tracing
overhead, and prints the per-layer metrics; it also reruns the first round
on freshly generated inputs and fails if any count differs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SETUP_REPEATS = 3
TAIL_SAMPLES = 10

# Import the package from this checkout's src/ and from nowhere else.
sys.path.insert(0, str(SRC))
try:
    import qfaeq
    import qfaeq.cli as cli
    import qfaeq.equivalence as equivalence
    import qfaeq.qfa as qfa
except ImportError as exc:
    sys.exit(f"error: cannot import qfaeq from {SRC}: {exc}")
if SRC.resolve() not in Path(qfaeq.__file__).resolve().parents:
    sys.exit(f"error: qfaeq was imported from {qfaeq.__file__}, not from {SRC}")

import tracer as tracer_mod  # noqa: E402  (needs qfaeq on the path)
import workloads  # noqa: E402

# Per-layer metrics that go into the result line.  The self and busy times
# of cli, io, validate and is_unitary are printed above it and kept in the
# trace file instead: `decide` never calls them, so there they would be zero
# on every run.
RESULT_LAYER_METRICS = (
    "cli.calls",
    "io.load_qfa.calls",
    "io.load_qfa.mb_per_s",
    "qfa.validate.calls",
    "qfa.accept_prob.calls",
    "qfa.accept_prob.busy_s",
    "qfa.accept_prob.letters",
    "qfa.accept_prob.max_bits",
    "qfa.random_qfa.busy_s",
    "linalg.is_unitary.calls",
    "linalg.kron.busy_s",
    "linalg.row_times_matrix.busy_s",
    "linalg.row_times_matrix.calls",
    "linalg.span_insert.busy_s",
    "linalg.span_insert.calls",
    "linalg.span_insert.insert_ratio",
    "equivalence.join.self_s",
    "equivalence.basis_search.self_s",
    "equivalence.verdict_from_search.busy_s",
    "equivalence.nodes_dequeued",
    "equivalence.rows_inserted",
    "equivalence.rows_discarded",
    "equivalence.rank_total",
    "equivalence.max_depth",
    "equivalence.max_raw_row_bits",
    "equivalence.max_basis_row_bits",
    "trace.overhead_pct",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- operations ------------------------------------------------------------


def execute(op):
    """Run one operation; returns what its check needs.  An exception is
    returned too: it fails that operation, not the run."""
    try:
        if not op.argv:
            return equivalence.decide(op.a1, op.a2)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(list(op.argv))
        return code, out.getvalue(), err.getvalue()
    except Exception as exc:
        return exc


def _check_witness(a1, a2, witness, p1, p2):
    if witness is None or any(s not in a1.alphabet for s in witness):
        return f"bad witness {witness!r}"
    q1 = workloads.exact_accept_prob(a1, witness)
    q2 = workloads.exact_accept_prob(a2, witness)
    if (p1, p2) != (q1, q2) or q1 == q2:
        return f"witness {witness!r}: reported ({p1}, {p2}), recomputed ({q1}, {q2})"
    return None


def check(op, result):
    """None if the output is right, else a description of what is wrong."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if not op.argv:
        if isinstance(result, tuple):  # a Verdict returned next to its stats
            result = result[0]
        if result.equivalent != op.expect:
            return f"verdict equivalent={result.equivalent}, expected {op.expect}"
        if result.equivalent:
            return None
        return _check_witness(op.a1, op.a2, result.witness, result.p1, result.p2)
    code, out, err = result
    command = op.argv[0]
    want_code = 0 if command != "equiv" or op.expect else 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}: {err.strip()}"
    if command == "validate":
        return None if out.startswith("ok") else f"validate printed {out!r}"
    if command == "prob":
        value = Fraction(out.split(" ", 1)[0])
        return None if value == op.expect else f"prob printed {value}, expected {op.expect}"
    report = json.loads(out)
    if (report["verdict"] == "equivalent") != op.expect:
        return f"equiv verdict {report['verdict']!r}, expected equivalent={op.expect}"
    if op.expect:
        return None
    return _check_witness(
        op.a1, op.a2, report["witness"], Fraction(report["p1"]), Fraction(report["p2"])
    )


def check_all(ops, results):
    """Check every (op index, output); identical repeats are checked once."""
    seen, errors = {}, []
    for index, result in results:
        key = (index, repr(result))
        if key not in seen:
            try:
                seen[key] = check(ops[index], result)
            except Exception as exc:  # malformed output fails its operation
                seen[key] = f"output could not be checked: {exc!r}"
        if seen[key] is not None:
            errors.append(f"op {index} ({ops[index].label}): {seen[key]:.300}")
    return errors


def closed_loop(ops, seconds):
    """Issue ops back to back, cycling the list, until `seconds` pass."""
    latencies, results = [], []
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        op = ops[index % len(ops)]
        t0 = perf_counter()
        result = execute(op)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        results.append((index % len(ops), result))
        index += 1
        if t1 >= deadline:
            return latencies, results, t1 - start


def traced_pass(ops, tracer, untraced=True):
    """Run every op traced, tagging its spans with the op index.  With
    `untraced`, also run it untraced right before or after, alternating, so
    that the two totals see the same machine state; returns the results and
    the traced and untraced seconds."""
    results, seconds = [], [0.0, 0.0]
    gc.collect()
    for index, op in enumerate(ops):
        tracer.op_id = index
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order if untraced else (True,):
            start = perf_counter()
            if traced:
                with tracer:
                    result = execute(op)
            else:
                result = execute(op)
            seconds[traced] += perf_counter() - start
            results.append((index, result))
    return results, seconds[1], seconds[0]


# -- setup -----------------------------------------------------------------


def generate(workload, seed, tag):
    """Generate a workload's inputs from the seed; returns them and the
    seconds it took."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}-{tag}"
    gc.collect()
    start = perf_counter()
    inputs = workloads.generate(workload, seed, str(workdir))
    return inputs, perf_counter() - start


# -- metrics ---------------------------------------------------------------


def tail(latencies):
    """Highest percentile with at least TAIL_SAMPLES samples above it.

    Returns (value, percentile, samples beyond): the (TAIL_SAMPLES + 1)-th
    largest sample and the share of samples at or below it.  With too few
    samples for that, the largest sample.
    """
    ordered = sorted(latencies)
    beyond = TAIL_SAMPLES if len(ordered) > TAIL_SAMPLES else 0
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def _shape_table(ops, latencies, results):
    by_shape = {}
    for (index, _result), seconds in zip(results, latencies):
        by_shape.setdefault(ops[index].label, []).append(seconds * 1000)
    return {
        shape: {"n": len(ms), "median_ms": round(statistics.median(ms), 2)}
        for shape, ms in sorted(by_shape.items())
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ns, ops, first_setup_s, meta):
    latencies, results, elapsed = closed_loop(ops, ns.seconds)
    errors = check_all(ops, results)
    # Set-up runs again after the loop rather than back to back before it,
    # so that its samples meet the machine at different moments: on a shared
    # machine the speed drifts over tens of seconds.
    setup_times = [first_setup_s] + [
        generate(ns.workload, ns.seed, repeat)[1] for repeat in range(1, SETUP_REPEATS)
    ]
    tail_value, tail_pct, beyond = tail(latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(latencies) / elapsed, "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": _metric(tail_value * 1000, "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }
    meta.update(
        setup_times_s=setup_times,
        samples=len(latencies),
        loop_s=elapsed,
        latency_tail_percentile=tail_pct,
        latency_tail_samples_beyond=beyond,
        error_rate=len(errors) / len(latencies),
        per_shape=_shape_table(ops, latencies, results),
    )
    return metrics, len(latencies), errors


def _layer_metrics(tracer, overhead):
    t = tracer.layer_times()

    def get(name, field):
        return t.get(name, {}).get(field, 0)

    counts = {key: 0 for key in tracer_mod.COUNT_FIELDS}
    for op_counts in tracer.counts.values():
        for key, value in op_counts.items():
            combine = max if "max" in key else int.__add__
            counts[key] = combine(counts[key], value)
    inserts = get("linalg.span_insert", "calls")
    load_self = get("io.load_qfa", "self_s")
    metrics = {
        "cli.calls": (get("cli.cli_main", "calls"), "count"),
        "cli.self_s": (get("cli.cli_main", "self_s"), "s"),
        "io.load_qfa.calls": (get("io.load_qfa", "calls"), "count"),
        "io.load_qfa.self_s": (load_self, "s"),
        "io.load_qfa.mb_per_s": (
            tracer.load_bytes / 1e6 / load_self if load_self else 0.0, "MB/s"),
        "qfa.validate.calls": (get("qfa.validate", "calls"), "count"),
        "qfa.validate.self_s": (get("qfa.validate", "self_s"), "s"),
        "qfa.accept_prob.calls": (get("qfa.accept_prob", "calls"), "count"),
        "qfa.accept_prob.busy_s": (get("qfa.accept_prob", "busy_s"), "s"),
        "qfa.accept_prob.letters": (counts["accept_prob_letters"], "count"),
        "qfa.accept_prob.max_bits": (counts["accept_prob_max_bits"], "bits"),
        "qfa.random_qfa.busy_s": (get("qfa.random_qfa", "busy_s"), "s"),
        "linalg.is_unitary.calls": (get("linalg.is_unitary", "calls"), "count"),
        "linalg.is_unitary.busy_s": (get("linalg.is_unitary", "busy_s"), "s"),
        "linalg.kron.busy_s": (get("linalg.kron", "busy_s"), "s"),
        "linalg.row_times_matrix.busy_s": (get("linalg.row_times_matrix", "busy_s"), "s"),
        "linalg.row_times_matrix.calls": (get("linalg.row_times_matrix", "calls"), "count"),
        "linalg.span_insert.busy_s": (get("linalg.span_insert", "busy_s"), "s"),
        "linalg.span_insert.calls": (inserts, "count"),
        "linalg.span_insert.insert_ratio": (
            counts["rows_inserted"] / inserts if inserts else 0.0, "ratio"),
        "equivalence.join.self_s": (get("equivalence.join", "self_s"), "s"),
        "equivalence.basis_search.self_s": (get("equivalence.basis_search", "self_s"), "s"),
        "equivalence.verdict_from_search.busy_s": (
            get("equivalence.verdict_from_search", "busy_s"), "s"),
        "equivalence.nodes_dequeued": (counts["nodes_dequeued"], "count"),
        "equivalence.rows_inserted": (counts["rows_inserted"], "count"),
        "equivalence.rows_discarded": (counts["rows_discarded"], "count"),
        "equivalence.rank_total": (counts["rank_total"], "count"),
        "equivalence.max_depth": (counts["max_depth"], "count"),
        "equivalence.max_raw_row_bits": (counts["max_raw_row_bits"], "bits"),
        "equivalence.max_basis_row_bits": (counts["max_basis_row_bits"], "bits"),
        "trace.overhead_pct": (overhead * 100, "%"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def per_layer(ns, ops, meta):
    """Trace the first rounds, measure the tracing overhead on them, and
    check that every count repeats on freshly generated inputs."""
    prefix = [op for op in ops if op.round < workloads.TRACE_ROUNDS[ns.workload]]
    tracer = tracer_mod.Tracer()
    with tracer:
        tracer.op_id = "setup"
        inputs_again, _ = generate(ns.workload, ns.seed, "traced")
    results, traced_s, plain_s = traced_pass(prefix, tracer)
    errors = check_all(prefix, results)

    again = [op for op in workloads.operations(ns.workload, inputs_again)[0] if op.round == 0]
    recheck = tracer_mod.Tracer()
    traced_pass(again, recheck, untraced=False)
    differing = [i for i in range(len(again)) if recheck.counts.get(i) != tracer.counts.get(i)]
    if differing:
        errors.insert(0, f"counts differ between two runs of ops {differing}")

    trace_path = WORK / f"trace-{ns.workload}-seed{ns.seed}.json"
    tracer.write(trace_path)
    counts = json.dumps(sorted((str(k), v) for k, v in tracer.counts.items()))
    meta.update(
        samples=len(prefix),
        traced_s=traced_s,
        untraced_s=plain_s,
        spans=len(tracer.spans),
        absent_targets=tracer.absent,
        unreadable_results=sorted(tracer.unreadable),
        counts_sha256=hashlib.sha256(counts.encode()).hexdigest(),
        trace_file=str(trace_path.relative_to(ROOT)),
        error_rate=len(errors) / len(results),
    )
    return _layer_metrics(tracer, traced_s / plain_s - 1), len(results), errors


# -- metadata and entry point ----------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfaeq").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ns = _parse_args(argv)
    meta = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "loop": "closed, one caller, one thread",
    }
    WORK.mkdir(exist_ok=True)
    try:
        inputs, setup_s = generate(ns.workload, ns.seed, 0)
        t0 = perf_counter()
        ops, left_out = workloads.operations(ns.workload, inputs)
        meta.update(
            oracle_s=perf_counter() - t0,
            operations=len(ops),
            left_out=left_out,
        )
        if ns.trace:
            metrics, attempted, errors = per_layer(ns, ops, meta)
        else:
            metrics, attempted, errors = end_to_end(ns, ops, setup_s, meta)
    finally:
        for path in WORK.glob(f"{ns.workload}-{ns.seed}-{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)

    meta["errors"] = errors[:20]
    print(json.dumps({"metadata": meta}))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    if not ns.trace:
        print(f"{'error_rate':42s} {meta['error_rate']:>14.6g} ratio "
              f"({len(errors)} of {attempted} failed)")
        print(f"{'latency_tail_ms is p':42s} {meta['latency_tail_percentile']:>14.6g} "
              f"of {meta['samples']} samples")
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    if ns.trace:
        metrics = {name: metrics[name] for name in RESULT_LAYER_METRICS}
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
