"""Host-time benchmark of the repro simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process runs one workload
(``perfbench/workloads.py``), single-threaded: BLAS/OpenMP pools are
pinned to one thread before numpy loads, and the codec cache is cleared
at the start of every pass.  Inputs are generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics in untraced passes for
``--seconds``, with a share of a host-speed probe
(``perfbench/calibrate.py``) after every job so that ``wall_norm`` can
divide the host's speed out; ``--trace 1`` runs untraced and traced
passes (``perfbench/layers.py``) and reports the per-layer metrics.  The metric
names and units come from ``BENCHMARK.json``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: setup probes per run (plus one discarded probe that compiles bytecode)
SETUP_PROBES = 7
#: fewest untraced passes: one warm-up plus two timed
MIN_PASSES = 3
#: fewest untraced passes in the traced run: one warm-up plus one timed
MIN_UNTRACED = 2
#: share of ``--seconds`` the traced run spends on untraced passes
UNTRACED_SHARE = 0.35


def _use_checkout_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: no repro sources under src/ in this checkout")
    sys.path[:0] = [SRC, ROOT]


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import, generate inputs, build the
    clusters, then report readiness on stdout."""
    from perfbench import workloads

    workloads.build(workload, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median host seconds from process start to the first job, over
    fresh interpreter processes."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_passes(seconds: float, min_passes: int, run_pass):
    """Run passes until the next one would overrun ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass())
        spent = time.perf_counter() - t0
        if len(passes) >= min_passes and spent + spent / len(passes) > seconds:
            return passes


def probed_pass(wl):
    """One untraced pass with a share of the host-speed probe after every
    job (outside the timed region); returns ``(PassResult, norm)``, the
    norm being the pass wall divided by the probe seconds of the pass."""
    from perfbench import calibrate, workloads

    share = 1.0 / len(wl.jobs)
    probe_s = []
    res = workloads.run_pass(
        wl, lambda job, outcome: probe_s.append(calibrate.probe(share)))
    return res, res.wall / sum(probe_s)


def _signatures_agree(reference, passes) -> bool:
    sig = reference.signature()
    return all(p.signature() == sig for p in passes)


def _report_failures(passes) -> None:
    seen = set()
    for p in passes:
        for o in p.outcomes:
            if not o.ok and o.name not in seen:
                seen.add(o.name)
                _log(f"FAILED {o.name}: {o.error}")


def end_to_end(args, spec) -> dict:
    from perfbench import workloads

    setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    probed = run_passes(args.seconds, MIN_PASSES, lambda: probed_pass(wl))
    passes = [p for p, _ in probed]
    norms = [n for _, n in probed]  # the first pass warms the interpreter up
    first = passes[0]
    consistent = _signatures_agree(first, passes)
    if not consistent:
        _log("simulated outputs differ between passes")
    _report_failures(passes)
    latencies = [o.latency for o in first.outcomes]
    metrics = {
        "wall_norm": statistics.median(norms[1:]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_latency_us": workloads.geomean(latencies) * 1e6,
    }
    _log(f"{args.workload}: {len(passes)} passes, walls "
         + " ".join(f"{p.wall:.3f}" for p in passes) + "; norms "
         + " ".join(f"{n:.3f}" for n in norms))
    return _result(spec, "end_to_end", metrics, passes, consistent)


def per_layer(args, spec) -> dict:
    from perfbench import layers, workloads
    from repro.core.config import CompressionConfig

    wl = workloads.build(args.workload, args.seed)
    t0 = time.perf_counter()
    untraced = run_passes(args.seconds * UNTRACED_SHARE, MIN_UNTRACED,
                          lambda: workloads.run_pass(wl))
    untraced_wall = statistics.median([p.wall for p in untraced[1:]])
    threshold = CompressionConfig().threshold
    traced = []  # (PassResult, Recorder, fault-hit jobs, of which verified)

    def traced_pass():
        rec = layers.Recorder()
        hit = verified = seen = 0

        def observer(job, outcome):
            nonlocal hit, verified, seen
            injected = rec.counts["faults.injected"]
            if injected > seen:
                hit += 1
                verified += outcome.ok
            seen = injected

        with layers.Instrumentation(rec, threshold):
            res = workloads.run_pass(wl, observer)
        traced.append((res, rec, hit, verified))
        return res

    run_passes(args.seconds - (time.perf_counter() - t0), 1, traced_pass)
    consistent = _signatures_agree(untraced[0], untraced + [t[0] for t in traced])
    if not consistent:
        _log("traced pass changed the simulated outputs")
    _report_failures(untraced + [t[0] for t in traced])
    res, rec, fault_jobs, fault_ok = sorted(traced, key=lambda t: t[0].wall)[
        len(traced) // 2]
    metrics = layers.layer_metrics(rec, res, untraced_wall, fault_jobs, fault_ok)
    rec.write(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-"
                                               f"seed{args.seed}.npz"))
    _log(f"{args.workload}: untraced {untraced_wall:.3f}s traced {res.wall:.3f}s; "
         + " ".join(f"{k}={v:.3f}" for k, v in metrics.items()
                    if k.endswith("self_s")))
    return _result(spec, "per_layer", metrics,
                   untraced + [t[0] for t in traced], consistent)


def _result(spec, section: str, metrics: dict, passes, consistent: bool) -> dict:
    names = [m["name"] for m in spec[section]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failed = sum(p.failed for p in passes)
    return {
        "correct": bool(consistent and failed == 0),
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in spec[section]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = (per_layer if args.trace else end_to_end)(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
