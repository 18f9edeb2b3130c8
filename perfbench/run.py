#!/usr/bin/env python3
"""bchbound benchmark: seeded workloads, end-to-end times, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 36 --trace 0

Each repetition runs the workload's whole job list in a fresh,
single-threaded Python process (perfbench/worker.py), calling
``bchbound.cli.main(argv)`` in-process as the ``bchbound`` command does;
repetitions continue while another fits in ``--seconds`` (three at least).
Times are in reference seconds: plain seconds corrected for the drifting
speed of a shared machine with probes taken between and during jobs
(calib.py). Each job's time is its median over the repetitions; a time
metric sums those medians. Every answer is checked (checks.py). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit code is 0 only when
every answer is right.

``--trace 1`` runs the list once untraced and once traced (tracing.py);
the difference of the two wall times is ``trace.overhead_s``.
``--quick`` runs a tiny job list; ``--selftest`` checks the harness.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 150      # start no repetition expected to end past this
WORKER_LIMIT_S = 170   # hard cap on any one worker process
MIN_REPS = 3
SETUP_SAMPLES = 21     # set-up is timed in every repetition, topped up to this

# Traced spans and counters that must record work on each workload; a zero
# there means a binding was missed and the span silently saw nothing.
EXPECT_WORK = {
    "spectra": ("galois.mul.calls", "galois.inv.calls", "galois.power.calls",
                "polyring.eval.calls", "spectral.dft", "spectral.idft",
                "polyring.minimal_polynomial", "codes.code_from_defining_set",
                "bounds.code_apparent_distance", "codes.bose_distance",
                "modring.cyclotomic_cosets", "modring.coset_closure.calls",
                "cli.main"),
    "distance": ("wtdist.min_distance", "wtdist.min_distance.words",
                 "tables.recompute", "bounds.code_apparent_distance",
                 "codes.bose_distance", "modring.cyclotomic_cosets",
                 "modring.coset_closure.calls", "cli.main"),
    "certify": ("polyring.divisor_enumerate",
                "polyring.divisor_enumerate.emitted",
                "bounds.certify_equality", "spectral.is_rational",
                "polyring.factor_xn", "galois.mul.calls",
                "polyring.eval.calls", "forge.primitive_family",
                "forge.congruence_construct", "forge.construct_from_divisor",
                "forge.find_shift", "forge.extend_to_bch", "forge.verify",
                "wtdist.min_distance", "cli.main"),
}


def load_benchmark():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run_worker(job_list, deadline, *flags):
    """One fresh process over the job list; {"error": ...} on a crash."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("BCHBOUND_WORKERS", None)  # single-threaded table recomputation
    probe_start, probe_end = calib.probe()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=json.dumps(job_list), env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: "
                         + proc.stderr.strip()[-500:]}
    try:
        rep = json.loads(proc.stdout)
    except ValueError:
        return {"error": "worker printed no result"}
    # interpreter start-up, timed here and scaled by the probe just taken;
    # the rest of set-up is timed and scaled in the worker
    startup = rep["ready"] - spawned
    rep["setup_raw_s"] = startup + rep["setup_plain_s"]
    rep["setup_s"] = (startup * calib.REF_S / (probe_end - probe_start)
                      + rep["setup_ref_s"])
    rep["took_s"] = time.monotonic() - spawned
    return rep


def check_rep(job_list, rep, expected, witnesses, problems):
    """Number of failed jobs in one repetition; reasons go to problems."""
    if "error" in rep:
        problems.append(rep["error"])
        return len(job_list)
    failed = 0
    for job, result in zip(job_list, rep["jobs"]):
        problem = checks.job_problem(job, result, expected, witnesses)
        if problem:
            failed += 1
            label = " ".join(job["argv"]) if "argv" in job else \
                f"roundtrip n={job['n']} q={job['q']}"
            problems.append(f"{label}: {problem}")
    return failed


def end_to_end(workload, reps):
    """{metric: (value, raw)} for every end-to-end metric but setup_s.

    A time is the sum over the jobs it covers of each job's median over
    the repetitions, in reference seconds (calib.py); raw is the same sum
    of medians in plain seconds.
    """
    primary, secondary = jobs.KINDS[workload]
    job_list = reps[0]["job_list"]

    def kind_total(key, kinds):
        return sum(statistics.median(rep["jobs"][i][key] for rep in reps)
                   for i, job in enumerate(job_list) if job["kind"] in kinds)

    out = {name: (kind_total("scaled", kinds), kind_total("elapsed", kinds))
           for name, kinds in (("wall_s", (primary, secondary)),
                               ("primary_s", (primary,)),
                               ("secondary_s", (secondary,)))}
    rss = statistics.median(r["peak_rss_kb"] / 1024 for r in reps)
    out["peak_rss_mb"] = (rss, rss)
    return out


def layer_value(name, trace, overhead):
    spans, counts = trace["spans"], trace["counts"]
    if name == "trace.overhead_s":
        return overhead
    if name == "wtdist.min_distance.words_per_s":
        busy = spans.get("wtdist.min_distance", [0, 0.0])[1]
        return counts["wtdist.min_distance.words"] / busy if busy else 0.0
    if name in counts:
        return counts[name]
    base, _, field = name.rpartition(".")
    if field not in ("calls", "self_s") or base not in tracing.SPAN_NAMES:
        raise KeyError(f"no traced source for metric {name}")
    calls, self_s = spans.get(base, [0, 0.0])
    return calls if field == "calls" else self_s


def work_recorded(name, trace):
    if name in trace["counts"]:
        return trace["counts"][name]
    return trace["spans"].get(name, [0])[0]


def environment(seed, kernel):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    pkg = os.path.join("src", "bchbound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "compiled_kernel": kernel, "seed": seed,
            "commit": git_commit(), "src_bchbound_lines": src_lines}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _show(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def layer_metrics(bench, workload, plain, traced, problems):
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics, lines = {}, []
    for spec in bench["per_layer"]:
        value = layer_value(spec["name"], traced["trace"], overhead)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        lines.append(f"  {spec['name']:<40} {_show(value)} {spec['unit']}")
    for name in EXPECT_WORK[workload]:
        if not work_recorded(name, traced["trace"]):
            problems.append(f"trace: {name} recorded no work on {workload}")
    return metrics, lines


def end_to_end_metrics(bench, workload, reps, setups):
    values = end_to_end(workload, reps)
    values["setup_s"] = (statistics.median(s for s, _ in setups),
                         statistics.median(r for _, r in setups))
    primary, secondary = jobs.KINDS[workload]
    shown = {"primary_s": f"{primary}_s (primary_s)",
             "secondary_s": f"{secondary}_s (secondary_s)"}
    metrics, lines = {}, []
    for spec in bench["end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        value, raw = values[name]
        metrics[name] = {"value": value, "unit": unit}
        note = f"  (plain seconds: {raw:.4f})" if unit == "s" else ""
        lines.append(f"  {shown.get(name, name):<26} {value:.4f} {unit}{note}")
    return metrics, lines


def run(args):
    bench = load_benchmark()
    calib.warm_up()
    with open(args.expected) as fh:
        expected = json.load(fh)
    job_list = jobs.job_list(args.workload, args.seed, quick=args.quick)
    witnesses = checks.WitnessChecker()
    problems, reps = [], []
    failed = attempted = 0
    start = time.monotonic()
    deadline = start + WORKER_LIMIT_S

    def repeat(*flags):
        nonlocal failed, attempted
        rep = run_worker(job_list, deadline, *flags)
        attempted += len(job_list)
        failed += check_rep(job_list, rep, expected, witnesses, problems)
        if "error" in rep:
            return False
        rep["job_list"] = job_list
        reps.append(rep)
        return True

    if args.trace:  # one untraced and one traced repetition
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        ok = repeat() and repeat("--trace", "1", "--spans", spans)
    elif args.quick:
        ok = repeat()
    else:  # while another repetition fits in --seconds; MIN_REPS at least
        ok = True
        while ok:
            elapsed = time.monotonic() - start
            last = reps[-1]["took_s"] if reps else 0.0
            if len(reps) >= MIN_REPS and (
                    elapsed + last > min(args.seconds, RUN_LIMIT_S)):
                break
            ok = repeat()
    setups = [(r["setup_s"], r["setup_raw_s"]) for r in reps]
    while ok and not (args.trace or args.quick) and len(setups) < SETUP_SAMPLES:
        extra = run_worker(job_list, deadline, "--setup-only")
        ok = "error" not in extra
        if ok:
            setups.append((extra["setup_s"], extra["setup_raw_s"]))
        else:
            problems.append(extra["error"])

    metrics, lines = {}, []
    if ok and args.trace:
        metrics, lines = layer_metrics(bench, args.workload, *reps, problems)
    elif ok:
        metrics, lines = end_to_end_metrics(bench, args.workload, reps, setups)
    correct = ok and failed == 0 and not problems
    lines.append(f"  {'fail_frac':<26} {failed / max(attempted, 1):.4f}  "
                 f"({failed} of {attempted} jobs)")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetition(s) of {len(job_list)} jobs in "
          f"{time.monotonic() - start:.1f} s")
    print("\n".join(lines))
    kernel = reps[0]["compiled_kernel"] if reps else None
    print("env " + json.dumps(environment(args.seed, kernel), sort_keys=True))
    if not kernel:
        print("note: pure-Python Gray walk (no compiled kernel); not "
              "comparable with results that use the compiled kernel")
    for problem in problems[:20]:
        print("FAIL " + problem)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    """Quick runs of every workload and mode, plus one altered answer."""
    bench = load_benchmark()
    me = [sys.executable, os.path.abspath(__file__)]
    problems = []

    def invoke(workload, trace, extra=()):
        cmd = me + ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--quick", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None

    for workload in jobs.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = invoke(workload, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in (result or {}).get(
                "metrics", {}).items()}
            if rc != 0 or not result or not result["correct"]:
                problems.append(f"{workload} trace={trace}: exit {rc}")
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ "
                                f"from BENCHMARK.json")
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    job = next(j for j in jobs.job_list("spectra", 1, quick=True)
               if j["kind"] == "analyze")
    expected[" ".join(job["argv"])]["bch_bound"] += 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=OUT_DIR,
                                     delete=False) as fh:
        json.dump(expected, fh)
    try:
        rc, result = invoke("spectra", 0, ("--expected", fh.name))
    finally:
        os.unlink(fh.name)
    if rc == 0 or not result or result["failed"] == 0 or result["correct"]:
        problems.append("an altered expected answer was not caught")
    for problem in problems:
        print("selftest FAIL " + problem)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    # a SystemExit on SIGTERM makes subprocess.run kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny job list, one repetition")
    parser.add_argument("--expected", default=EXPECTED,
                        help="frozen answers (default: perfbench/expected.json)")
    parser.add_argument("--selftest", action="store_true",
                        help="check the harness itself and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "bchbound", "__init__.py")):
        sys.exit("run from the root of a bchbound checkout: "
                 "src/bchbound is missing")
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
