"""The closed loop: serve each request, check it, and turn samples into metrics."""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from tritoep import apply_inverse, build_kernel, inverse_entry, make_spec, symmetrise, thomas_solve

from . import workloads as wl
from .harness import (
    REFERENCE_CAL_NS,
    Calibration,
    Direct,
    calibration_ns,
    Tracer,
    machine_note,
    median,
    peak_rss_mb,
    percentile,
    run_timed_child,
)

try:
    from scipy.linalg import solve_banded
except ImportError:  # the banded reference is optional
    solve_banded = None

ns = time.perf_counter_ns

# stored on spans after the call, outside the timed interval
NOTES = {
    "greens.build_kernel": lambda k: {"invertible": bool(k.invertible)},
    "greens.apply_inverse": lambda x: {"finite": bool(np.all(np.isfinite(x)))},
    "cli.main": lambda r: {"stdout_bytes": len(r[1].encode())},
}
KERNEL_KINDS = ("solve_pair", "entry", "solve_kernel", "apply")
# fresh processes per run for set-up time, spread over the run so that
# their median sees the same machine as the requests
SETUP_SAMPLES = 9
# fresh processes per traced run for the CLI start-up floor and import time
CHILD_SAMPLES = 5
# a calibration reading costs about 1 ms; one per 100 ms of requests at most
CALIBRATION_INTERVAL_NS = 100_000_000


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    reasons: list = field(default_factory=list)
    # (wall ns, index of the calibration reading taken before it)
    latency: list = field(default_factory=list)
    legs: dict = field(default_factory=lambda: {"kernel": [], "thomas": []})
    calibration: Calibration | None = None
    setup_s: list = field(default_factory=list)
    untraced_ns: int = 0
    traced_ns: int = 0
    tracer: Tracer | None = None

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind}: {reason}")


def _banded(spec, rhs):
    """scipy's LAPACK banded solve from (a, b, c, rhs), band assembly included."""
    ab = np.empty((3, spec.n))
    ab[0], ab[1], ab[2] = spec.c, spec.b, spec.a
    return solve_banded((1, 1), ab, rhs)


def _replay_cli(req, tracer) -> None:
    """The request's CLI equivalent, in process: library calls alone, then main()."""
    try:
        tracer.call("cli.compute", req.n, wl.cli_compute, req, tracer.call)
    except wl.TYPED_ERRORS:
        pass
    tracer.call("cli.main", req.n, wl.cli_main, wl.cli_argv(req))


def _layer_extras(req, spec, tracer, rhs_kind: bool) -> None:
    """Separately timed pieces the traced request cannot show from outside."""
    if req.kind in KERNEL_KINDS:
        wl.u_sequence(spec.n, symmetrise(spec).x, tracer.call)
    if rhs_kind and solve_banded is not None:
        tracer.call("ref.solve_banded", spec.n, _banded, spec, req.rhs)
    wl.probe_layers(req, spec, tracer.call)


class SolveStream:
    """Green-kernel solve and Thomas solve of one fresh n = 10^5 system per request."""

    name = "solve_stream"

    def __init__(self, seed: int):
        self.plan = wl.solve_stream_plan(seed)

    def prepare(self, req):
        return wl.materialise(req)

    def serve(self, req, call):
        n = req.n
        spec = call("core.make_spec", n, make_spec, req.a, req.b, req.c, n)
        out, legs = {"spec": spec}, {}
        for leg in ("kernel", "thomas") if req.kernel_first else ("thomas", "kernel"):
            t0 = ns()
            if leg == "kernel":
                out["kernel"] = call("greens.build_kernel", n, build_kernel, spec)
                out["kernel_x"] = call("greens.apply_inverse", n, apply_inverse, out["kernel"], req.rhs)
            else:
                out["thomas_x"] = call("greens.thomas_solve", n, thomas_solve, spec, req.rhs)
            legs[leg] = ns() - t0
        return legs, out

    def check(self, req, out, call) -> None:
        for key in ("kernel_x", "thomas_x"):
            wl.check_solution(out["spec"], out[key], req.rhs)

    def extras(self, req, out, tracer) -> None:
        spec = out["spec"]
        _layer_extras(req, spec, tracer, rhs_kind=True)
        tracer.call("greens.inverse_entry", spec.n, inverse_entry, out["kernel"], req.i, req.j)
        kind = "solve_kernel" if req.index % 2 else "solve_thomas"
        _replay_cli(dataclasses.replace(req, kind=kind), tracer)


class QueryMix:
    """One closed-form query, entry, decay bound or small solve per request."""

    name = "query_mix"

    def __init__(self, seed: int):
        self.plan = wl.query_mix_plan(seed)

    def prepare(self, req):
        return wl.materialise(req)

    def serve(self, req, call):
        spec = call("core.make_spec", req.n, make_spec, req.a, req.b, req.c, req.n)
        return {}, (spec, wl.run_kind(req, spec, call))

    def check(self, req, out, call) -> None:
        wl.check_kind(req, *out)

    def extras(self, req, out, tracer) -> None:
        _layer_extras(req, out[0], tracer, rhs_kind=req.kind in wl.KINDS_WITH_RHS)
        _replay_cli(req, tracer)


class CliCalls:
    """One ``python -m tritoep`` process per request, checked against main() in process."""

    name = "cli_calls"

    def __init__(self, seed: int):
        self.plan = wl.cli_calls_plan(seed)
        self.env = wl.cli_env()
        self.argv = None

    def prepare(self, req):
        req = wl.materialise(req)
        self.argv = wl.cli_argv(req)
        return req

    def serve(self, req, call):
        return {}, call("cli.process", req.n, wl.cli_process, self.argv, self.env)

    def check(self, req, proc, call) -> None:
        code, out = call("cli.main", req.n, wl.cli_main, self.argv)
        if proc.returncode != 0 or code != 0:
            reason = proc.stderr.decode(errors="replace").strip()
            raise wl.Failure("typed", f"exit {proc.returncode} (in process {code}): {reason}")
        spec, result = call("cli.compute", req.n, wl.cli_compute, req, call)
        wl.check_cli(req, proc.stdout, out, spec, result)

    def extras(self, req, proc, tracer) -> None:
        spec = make_spec(req.a, req.b, req.c, req.n)
        _layer_extras(req, spec, tracer, rhs_kind=req.kind in wl.KINDS_WITH_RHS)


def make(name: str, seed: int):
    return {w.name: w for w in (SolveStream, QueryMix, CliCalls)}[name](seed)


def run_loop(workload, seconds: float, trace: bool) -> Stats:
    """Serve requests back to back until ``seconds`` have passed.

    Traced runs serve each request twice, traced and untraced in
    alternating order, so the tracing overhead is measured on equal work.
    Untraced runs take their set-up samples at even intervals between
    requests, so they see the same machine as the requests do.
    """
    stats = Stats(tracer=Tracer(NOTES) if trace else None,
                  calibration=None if trace else Calibration(CALIBRATION_INTERVAL_NS))
    direct = Direct()
    tracer = stats.tracer
    cal = stats.calibration
    start = time.perf_counter()
    deadline = start + seconds
    setup_at = [] if trace else [start + (k + 0.5) * seconds / SETUP_SAMPLES
                                 for k in range(SETUP_SAMPLES)]
    index = 0
    while time.perf_counter() < deadline:
        if len(stats.setup_s) < len(setup_at) and time.perf_counter() >= setup_at[len(stats.setup_s)]:
            stats.setup_s.append(setup_seconds(workload.name))
        req = workload.prepare(workload.plan.request(index))
        index += 1
        stats.attempted += 1
        try:
            if trace:
                tracer.request_id = req.index
                for traced in (True, False) if req.index % 2 else (False, True):
                    if traced:
                        root = tracer.open("request", req.n)
                        try:
                            legs, out = workload.serve(req, tracer.call)
                        finally:
                            tracer.close(root)
                        stats.traced_ns += root.duration_ns
                    else:
                        t0 = ns()
                        legs, out = workload.serve(req, direct.call)
                        stats.untraced_ns += ns() - t0
            else:
                cal_index = cal.tick()
                t0 = ns()
                legs, out = workload.serve(req, direct.call)
                latency = ns() - t0
            workload.check(req, out, tracer.call if trace else direct.call)
        except wl.TYPED_ERRORS as exc:
            stats.fail("typed", f"{req.kind} #{req.index}: {type(exc).__name__}: {exc}")
            continue
        except wl.Failure as exc:
            stats.fail(exc.kind, f"{req.kind} #{req.index}: {exc}")
            continue
        if trace:
            workload.extras(req, out, tracer)
            continue
        stats.latency.append((latency, cal_index))
        if not legs and req.kind in wl.SOLVE_CLASS:
            legs = {wl.SOLVE_CLASS[req.kind]: latency}
        for leg, value in legs.items():
            stats.legs[leg].append((value, cal_index))
    if cal is not None:
        cal.close()
    while len(stats.setup_s) < len(setup_at):
        stats.setup_s.append(setup_seconds(workload.name))
    return stats


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(workload: str) -> float:
    """Import plus warm-up calls, timed inside a fresh process.

    Scaled to the reference machine speed by calibration readings taken
    just before and just after the process, as request times are.
    """
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(wl.SRC)!r}, {str(wl.ROOT)!r}]\n"
        "from perfbench import workloads\n"
        f"workloads.setup({workload!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    before = calibration_ns()
    elapsed = float(run_timed_child(code, wl.cli_env(), str(wl.ROOT)))
    return elapsed * REFERENCE_CAL_NS / ((before + calibration_ns()) / 2.0)


_IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import tritoep.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def end_to_end_metrics(workload, stats: Stats) -> dict:
    """The bounded metrics; times in calibration units (see Calibration)."""
    # the CLI workload's program is the child process; the others run in this one
    rss = peak_rss_mb(children=isinstance(workload, CliCalls))
    setup = median(stats.setup_s)
    lat = _cal_units(stats, stats.latency)
    busy = sum(lat)
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "latency_p50_cal": (_q(lat, 50), "cal"),
        "latency_p90_cal": (_q(lat, 90), "cal"),
        "requests_per_cal": (len(lat) / busy if busy else 0.0, "1/cal"),
        "kernel_solve_p50_cal": (_q(_cal_units(stats, stats.legs["kernel"]), 50), "cal"),
        "thomas_solve_p50_cal": (_q(_cal_units(stats, stats.legs["thomas"]), 50), "cal"),
    }


def _cal_units(stats: Stats, samples) -> list[float]:
    return [stats.calibration.units(elapsed, index) for elapsed, index in samples]


def _q(values, q) -> float:
    return percentile(values, q).value if values else 0.0


def layer_metrics(stats: Stats) -> dict:
    """Per-layer figures from the spans, plus the CLI start-up floor and import time."""
    tracer = stats.tracer
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)

    def ok(name):
        return [s for s in spans[name] if s.error is None]

    def p50(name, scale):
        vals = [s.duration_ns for s in ok(name)]
        return median(vals) / scale if vals else 0.0

    def per_unit(name):
        vals = [s.duration_ns / s.size for s in ok(name) if s.size]
        return median(vals) if vals else 0.0

    def errors(name, error):
        return sum(1 for s in spans[name] if s.error == error)

    def flagged(name, key):
        return sum(1 for s in ok(name) if s.attrs and not s.attrs[key])

    def by_request(name):
        return {s.request_id: s.duration_ns for s in ok(name)}

    banded = by_request("ref.solve_banded")
    useq = by_request("cheby.u_sequence")
    compute = by_request("cli.compute")

    def x_banded(name):
        vals = [s.duration_ns / banded[s.request_id] for s in ok(name) if s.request_id in banded]
        return median(vals) if vals else 0.0

    build_self = [s.duration_ns - useq[s.request_id] for s in ok("greens.build_kernel")
                  if s.request_id in useq]
    main_minus_compute = [s.duration_ns - compute[s.request_id] for s in ok("cli.main")
                          if s.request_id in compute]
    stdout = [s.attrs["stdout_bytes"] for s in ok("cli.main")]
    env, root = wl.cli_env(), str(wl.ROOT)
    interp, imports = [], []
    for _ in range(CHILD_SAMPLES):
        t0 = ns()
        run_timed_child("pass", env, root)
        interp.append((ns() - t0) / 1e6)
        imports.append(float(run_timed_child(_IMPORT_CODE, env, root)) * 1e3)

    m = {
        "greens.apply_inverse.calls": (len(spans["greens.apply_inverse"]), "count"),
        "greens.apply_inverse.ms_p50": (p50("greens.apply_inverse", 1e6), "ms"),
        "greens.apply_inverse.ns_per_unknown": (per_unit("greens.apply_inverse"), "ns"),
        "greens.apply_inverse.nonfinite": (flagged("greens.apply_inverse", "finite"), "count"),
        "greens.build_kernel.calls": (len(spans["greens.build_kernel"]), "count"),
        "greens.build_kernel.ms_p50": (p50("greens.build_kernel", 1e6), "ms"),
        "greens.build_kernel.self_ms_p50": (median(build_self) / 1e6 if build_self else 0.0, "ms"),
        "greens.build_kernel.ns_per_unknown": (per_unit("greens.build_kernel"), "ns"),
        "greens.build_kernel.not_invertible": (flagged("greens.build_kernel", "invertible"), "count"),
        "greens.build_kernel.selfcheck_errors": (errors("greens.build_kernel", "TriToeplitzError"), "count"),
        "cheby.u_sequence.calls": (len(spans["cheby.u_sequence"]), "count"),
        "cheby.u_sequence.ns_per_term": (per_unit("cheby.u_sequence"), "ns"),
        "greens.thomas_solve.calls": (len(spans["greens.thomas_solve"]), "count"),
        "greens.thomas_solve.ms_p50": (p50("greens.thomas_solve", 1e6), "ms"),
        "greens.thomas_solve.ns_per_unknown": (per_unit("greens.thomas_solve"), "ns"),
        "greens.thomas_solve.pivot_errors": (errors("greens.thomas_solve", "NearSingularPivot"), "count"),
    }
    for name in ("greens.inverse_entry", "greens.decay_bound", "spectral.determinant",
                 "spectral.char_poly_eval", "spectral.eigenvalues", "spectral.eigenvector",
                 "conditioning.weighted_condition", "cheby.eval_U_scaled", "core.make_spec",
                 "core.symmetrise"):
        m[f"{name}.us_p50"] = (p50(name, 1e3), "us")
    m.update({
        "cli.interp_start_ms": (median(interp), "ms"),
        "cli.import_ms": (median(imports), "ms"),
        "cli.main_ms_p50": (p50("cli.main", 1e6), "ms"),
        "cli.compute_ms_p50": (p50("cli.compute", 1e6), "ms"),
        "cli.format_ms_p50": (median(main_minus_compute) / 1e6 if main_minus_compute else 0.0, "ms"),
        "cli.stdout_bytes": (median(stdout) if stdout else 0.0, "B"),
        "trace.overhead_frac": (stats.traced_ns / stats.untraced_ns - 1.0 if stats.untraced_ns else 0.0,
                                "ratio"),
    })
    if solve_banded is not None:
        m["greens.apply_inverse.x_banded"] = (x_banded("greens.apply_inverse"), "ratio")
        m["greens.thomas_solve.x_banded"] = (x_banded("greens.thomas_solve"), "ratio")
        m["ref.solve_banded_ms_p50"] = (p50("ref.solve_banded", 1e6), "ms")
    return m


def report_lines(args, stats: Stats) -> list[str]:
    """Comment lines printed before the result: failures, sample counts, machine."""
    frac = stats.failed / stats.attempted if stats.attempted else 0.0
    lines = [
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"clients=1 attempted={stats.attempted} failed={stats.failed} "
        f"failed_frac={frac:.6g} by_kind={json.dumps(dict(stats.failures))}",
    ]
    for reason in stats.reasons:
        lines.append(f"# failure {reason}")
    if not args.trace:
        for label, samples in (("latency", stats.latency), ("kernel_solve", stats.legs["kernel"]),
                               ("thomas_solve", stats.legs["thomas"])):
            if not samples:
                lines.append(f"# {label}: no samples (metrics reported as 0)")
                continue
            wall = [elapsed / 1e6 for elapsed, _ in samples]
            p50, p90 = percentile(wall, 50), percentile(wall, 90)
            lines.append(f"# {label}: {p90.count} samples, p90 has {p90.beyond} above it; "
                         f"wall ms p50 {p50.value:.6g} p90 {p90.value:.6g}")
        readings = [r / 1e3 for r in stats.calibration.readings]
        lines.append(f"# calibration: {len(readings)} readings, us p10 {percentile(readings, 10).value:.4g} "
                     f"p50 {percentile(readings, 50).value:.4g} p90 {percentile(readings, 90).value:.4g}")
    elif solve_banded is None:
        lines.append("# scipy is not installed: x_banded and ref.solve_banded_ms_p50 omitted")
    lines.append(f"# machine {json.dumps(machine_note())}")
    return lines
