"""Benchmark of the topiary command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Generates the workload's input files from the seed (numpy only), then
drives `topiary.cli.run` in-process as one closed-loop client: jobs run
back to back for S seconds and every job's output is checked. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. A table above it names
every metric with its unit; details (environment, digests, per-job times,
layer self times) go to .perfbench/results/ and, for traced runs, the span
list to a gzip CSV beside them. See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# the keys of workloads.GENERATORS; workloads imports numpy, so it is only
# imported once topiary's own import has been timed
WORKLOADS = ("euclid-diagnose", "gram-exchange", "portfolio-returns", "maze-ring")
SETUP_PROBES = 2  # fresh processes timing import + first job, beside this one
MIN_JOBS = 3
# One BLAS thread: on a small shared machine a second BLAS thread makes the
# job times of one run swing by +-10% with the neighbours' load; one thread
# holds them to about +-3%.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("job_p50_s", "s"), ("jobs_per_s", "1/s"), ("cpu_per_job_s", "s"),
    ("setup_s", "s"), ("peak_alloc_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken checkout)."""


# -- one job -------------------------------------------------------------------

class Jobs:
    """Runs jobs of one workload, checks them and keeps the tallies."""

    def __init__(self, cli, wl, out_dir):
        self.cli, self.wl, self.out_dir = cli, wl, out_dir
        self.attempted = 0
        self.problems = []  # (job number, problem)
        self.digest = None

    def run(self, wrap=None):
        """One job; returns (wall seconds, cpu seconds, stdout). wrap(body),
        when given, must call body() and return its result."""
        for path in self.wl.outputs(self.out_dir).values():
            if os.path.exists(path):
                os.remove(path)
        argvs = self.wl.job(self.out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()

        def body():
            return [self.cli.run(argv) for argv in argvs]

        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                codes = body() if wrap is None else wrap(body)
            except Exception:  # a crash the CLI did not map to an exit code
                traceback.print_exc()
                codes = [1]
            t1, cpu1 = time.perf_counter(), time.process_time()
        self.record(self.out_dir, codes, stdout.getvalue(), stderr.getvalue())
        return t1 - t0, cpu1 - cpu0, stdout.getvalue()

    def record(self, out_dir, codes, stdout, stderr=""):
        """Check one finished job and count it."""
        self.attempted += 1
        job = self.attempted
        if any(codes):
            self.problems.append((job, "exit codes %s: %s" % (codes, stderr.strip()[-300:])))
            return
        from workloads import output_digest

        try:
            found = self.wl.check(out_dir, stdout)
            digest = output_digest(self.wl.outputs(out_dir), stdout)
        except (OSError, ValueError, KeyError) as exc:
            found, digest = ["unreadable output: %r" % exc], None
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append("output digest %s differs from the first job's %s"
                         % (digest, self.digest))
        self.problems.extend((job, p) for p in found)

    @property
    def failed(self):
        return len({job for job, _ in self.problems})


def timed_loop(seconds, step):
    """Call step() until `seconds` have passed and MIN_JOBS jobs ran."""
    start = time.perf_counter()
    count = 0
    while count < MIN_JOBS or time.perf_counter() - start < seconds:
        step()
        count += 1


# -- environment -----------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def code_digest():
    """sha256 over the program's sources, naming the code a digest came from."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "topiary")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def environment(seed):
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "seed": seed,
    }


# -- setup -------------------------------------------------------------------------

def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads():
    """Fix the BLAS pool size, capped at nproc, before numpy is imported;
    the set-up probes inherit it."""
    threads = str(min(BLAS_THREADS, nproc()))
    for var in BLAS_ENV:
        os.environ[var] = threads


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "topiary", "__init__.py")):
        raise BenchError("no topiary sources under %s" % SRC)


def import_program():
    """Import the checkout's topiary; returns (topiary.cli, seconds)."""
    require_sources()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import topiary.cli as cli

    seconds = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError("imported topiary from %s, not from %s" % (cli.__file__, SRC))
    return cli, seconds


def probe_main(args):
    """Fresh-process set-up sample: import, then one job on existing inputs."""
    cli, import_s = import_program()
    import workloads

    wl = workloads.locate(args.workload, args.in_dir)
    argvs = wl.job(args.out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        codes = [cli.run(argv) for argv in argvs]
    job_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "job_s": job_s, "codes": codes,
                      "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-300:]}))
    return 0


def setup_probe(workload, in_dir, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", workload, "--in-dir", in_dir, "--out-dir", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one workload --------------------------------------------------------------------

def run_workload(args, work, spans_path):
    cli, import_s = import_program()
    import workloads

    in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    t0 = time.perf_counter()
    wl = workloads.GENERATORS[args.workload](args.seed, in_dir)
    gen_s = time.perf_counter() - t0

    jobs = Jobs(cli, wl, out_dir)
    warm_s, _, _ = jobs.run()  # warm-up: untimed, checked, sets the digest
    report = {"workload": args.workload, "env": environment(args.seed),
              "gen_s": gen_s, "seconds": args.seconds}
    if args.trace:
        metrics = traced_pass(jobs, args.seconds, report, spans_path)
    else:
        metrics = untraced_pass(jobs, args, import_s + warm_s, report, work)
    check_digest_store(jobs, args, report["env"]["code_sha256"])
    report.update(attempted=jobs.attempted, failed=jobs.failed, digest=jobs.digest,
                  problems=jobs.problems[:50])
    return jobs, metrics, report


def untraced_pass(jobs, args, first_setup_s, report, work):
    import tracemalloc

    setups = [first_setup_s]
    for k in range(SETUP_PROBES):
        probe_out = os.path.join(work, "probe%d" % k)
        probe = setup_probe(args.workload, os.path.join(work, "in"), probe_out)
        setups.append(probe["import_s"] + probe["job_s"])
        jobs.record(probe_out, probe["codes"], probe["stdout"], probe["stderr"])

    walls, cpus = [], []

    def step():
        wall, cpu, _ = jobs.run()
        walls.append(wall)
        cpus.append(cpu)

    timed_loop(args.seconds, step)

    tracemalloc.start()
    try:
        jobs.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    report.update(setup_samples_s=setups, job_wall_s=walls, job_cpu_s=cpus)
    return {
        "job_p50_s": statistics.median(walls),
        "jobs_per_s": len(walls) / sum(walls),
        "cpu_per_job_s": sum(cpus) / len(cpus),
        "setup_s": statistics.median(setups),
        "peak_alloc_mb": peak / 1e6,
    }


def traced_pass(jobs, seconds, report, spans_path):
    """Alternate untraced and traced jobs; per-layer medians of the traced."""
    rec = tracer.Recorder()
    job_root = rec.wrap(lambda body: body(), "cli.job", "cli")
    plain, traced, per_job = [], [], []
    sizes = file_sizes(jobs)

    def step():
        wall, _, _ = jobs.run()
        plain.append(wall)
        rec.job = len(traced)
        rec.install()
        try:
            wall, _, _ = jobs.run(wrap=job_root)
        finally:
            rec.uninstall()
        traced.append(wall)
        m = tracer.job_metrics(rec, rec.job)
        m.update(sizes)
        per_job.append(m)

    timed_loop(seconds, step)
    metrics = tracer.medians(per_job)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {name: metrics.get(name, 0) for name, _ in tracer.PER_LAYER}

    layer_totals = [tracer.layer_self_times(tracer.job_spans(rec, j), rec.layers)
                    for j in range(len(traced))]
    layers = tracer.medians(layer_totals)
    report.update(job_wall_s=plain, traced_job_wall_s=traced, layer_self_s=layers,
                  largest_self_layer=max(layers, key=layers.get),
                  failures_by_class=sorted(set(rec.failures)), spans=len(rec.spans),
                  spans_file=os.path.relpath(spans_path, ROOT))
    rec.write_spans(spans_path)
    return metrics


def file_sizes(jobs):
    """Bytes the job reads (its input files) and writes (its output files)."""
    outputs = jobs.wl.outputs(jobs.out_dir).values()
    return {"formats.bytes_in": sum(os.path.getsize(p) for p in jobs.wl.inputs.values()),
            "formats.bytes_out": sum(os.path.getsize(p) for p in outputs)}


def check_digest_store(jobs, args, code_sha):
    """Compare this run's output digest with earlier runs of the same code
    and seed; a mismatch fails the run's last job."""
    path = os.path.join(STATE, "digests.json")
    key = "%s/%s/%d" % (code_sha, args.workload, args.seed)
    try:
        with open(path, encoding="utf-8") as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    known = store.get(key)
    if jobs.digest is None:
        return
    if known is not None and known != jobs.digest:
        jobs.problems.append((jobs.attempted, "digest %s differs from an earlier run's %s"
                              % (jobs.digest, known)))
        return
    store[key] = jobs.digest
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(store, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


# -- entry points ----------------------------------------------------------------------

def single(args):
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    tag = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, metrics, report = run_workload(args, work, tag + "-spans.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["metrics"] = metrics
    with open(tag + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for job, problem in jobs.problems[:10]:
        print("job %d: %s" % (job, problem), file=sys.stderr)
    unit_of = dict(tracer.PER_LAYER if args.trace else END_TO_END)
    rows = [(name, value, unit_of[name]) for name, value in metrics.items()]
    if args.trace:
        rows.append(("largest_self_layer", report["largest_self_layer"], ""))
        rows.append(("traced_jobs", len(report["traced_job_wall_s"]), "count"))
    else:
        # printed, not gated: it is 0 on correct code; `failed` carries it
        rows.append(("failed_ratio", jobs.failed / jobs.attempted, "ratio"))
        rows.append(("timed_jobs", len(report["job_wall_s"]), "count"))
    rows.append(("gen_s", report["gen_s"], "s"))
    for name, value, unit in rows:
        print("%-18s %-24s %16s %s" % (args.workload, name,
                                        value if isinstance(value, str) else "%.6g" % value, unit))
    print(json.dumps({
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; one combined table and result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError("workload %s exited %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        rows.extend(lines[:-1])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print("\n".join(rows))
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that times import plus one job
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--in-dir", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    try:
        require_sources()
        if args.probe:
            return probe_main(args)
        if args.workload == "all":
            return run_all(args)
        return single(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
