#!/usr/bin/env python3
"""cpops benchmark: the real ``cpops`` CLI, driven in subprocesses.

    python3 perfbench/run.py --workload char-direct --seed 1 --seconds 25 --trace 0

Each workload is a ladder of CLI invocations (``workloads.json``). The seed
picks one weight per rung from a pool of same-rank weights and the order of
the invocations; the library sees only the generated CLI arguments. The loop
is closed with one client: the next invocation starts after the previous one
has exited, and a pass is all invocations of the ladder once.

``--trace 0`` runs passes for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` alternates an untraced pass with a pass run under
``traced.py``, which records spans around calls between cpops modules, and
reports the per-layer metrics. Every invocation's output is checked; the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBES_PER_PASS = 2
INVOCATION_TIMEOUT_S = 60

# The host reference: a fixed Python program that uses no cpops code. Like an
# invocation it starts an interpreter, imports modules and fills about 20 MB
# of dicts, lists and tuples; the host's slow phases are mostly in that
# allocation and start-up work, which a loop over a small dict misses. Its
# median time in a run measures the speed the host gave that run's children,
# and the end-to-end times are scaled to a host on which it takes REFERENCE_S,
# about its median on the machine the benchmark was written on (see timed_run).
REFERENCE_CODE = (
    "import argparse, dataclasses, fractions, functools, hashlib, itertools, json, tempfile, typing\n"
    "d = {}\n"
    "for i in range(80000):\n"
    "    d[(i * 7919) % 1000003, i % 13] = [i, -i]\n"
    "print(sum(len(v) for v in d.values()))\n")
REFERENCE_OUTPUT = "160000\n"
REFERENCE_S = 0.25

# -E keeps the caller's PYTHON* variables (PYTHONOPTIMIZE would strip the
# asserts the direct path pays for) out of the children; they find the
# checkout's sources because -m puts their working directory on sys.path.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "CPOPS_CACHE_DIR"}


@cache
def spec() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


@cache
def digests() -> dict:
    """Stdout SHA-256 per invocation, recorded by digests.py."""
    return json.loads((HERE / "digests.json").read_text())


@dataclass
class Invocation:
    args: list
    weights: list       # DominantWeight values the invocation covers
    work: int           # sum of their POP counts, known before the run
    check: str          # "character" | "lines" | "verify" | "setup"
    digest: str | None  # recorded SHA-256 of stdout, when the check uses one

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def rank(self) -> int:
        return self.weights[0].rank


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_kb: int
    returncode: int
    digest: str
    stdout_bytes: int
    lines: int
    text: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, inv: Invocation, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{inv.key}: {error}")


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_kb: int
    work: int
    stdout_bytes: int
    summaries: list  # per-invocation span summaries of a traced pass


def predicted_work(args: list, weights: list) -> int:
    from cpops.pops import pop_count_formula, restricted_pop_count_formula
    if "--restricted" in args:
        return sum(restricted_pop_count_formula(w.lam) for w in weights)
    return sum(pop_count_formula(w) for w in weights)


def make_invocation(args: list, weights: list, check: str) -> Invocation:
    return Invocation(args, weights, predicted_work(args, weights), check,
                      digests().get(" ".join(args)))


def omega_args(omegas) -> list:
    return ["--omegas", ",".join(str(m) for m in omegas)]


def rung_invocations(rung: dict) -> list:
    """Every invocation a rung can produce, one per pool member."""
    from cpops.rootsys import DominantWeight, sweep_dominant_weights
    if "sweep" in rung:
        rank, total = rung["sweep"]
        args = rung["args"] + ["--rank", str(rank), "--max-total", str(total)]
        return [make_invocation(args, list(sweep_dominant_weights(rank, total)),
                                rung["check"])]
    return [make_invocation(rung["args"] + omega_args(omegas),
                            [DominantWeight.from_omegas(omegas)], rung["check"])
            for omegas in rung["pool"]]


def plan(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    invocations = [rng.choice(rung_invocations(rung))
                   for rung in spec()["workloads"][workload]["rungs"]]
    rng.shuffle(invocations)
    return invocations


REFERENCE = Invocation(["reference"], [], 0, "reference", None)


def setup_invocation() -> Invocation:
    from cpops.rootsys import DominantWeight
    args = spec()["setup"]["args"]
    omegas = [int(x) for x in args[args.index("--omegas") + 1].split(",")]
    return make_invocation(args, [DominantWeight.from_omegas(omegas)], "setup")


def launch(cmd: list, keep_text: bool, stderr_path: Path) -> Outcome:
    """Run one child to completion, hashing its stdout as it streams."""
    digest = hashlib.sha256()
    nbytes = lines = 0
    chunks = []
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=SRC, env=CHILD_ENV,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                fd = proc.stdout.fileno()
                while chunk := os.read(fd, 1 << 16):
                    digest.update(chunk)
                    nbytes += len(chunk)
                    lines += chunk.count(b"\n")
                    if keep_text:
                        chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Outcome(
        wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss,
        returncode=proc.returncode, digest=digest.hexdigest(),
        stdout_bytes=nbytes, lines=lines,
        text=b"".join(chunks).decode("utf-8", "replace"),
        stderr=stderr_path.read_text("utf-8", "replace"))


def output_error(inv: Invocation, out: Outcome) -> str | None:
    """Why the invocation's output is wrong, or None when every check holds."""
    if out.returncode != 0:
        return f"exit status {out.returncode}"
    if "Traceback" in out.stderr:
        return "traceback on stderr"
    if inv.check in ("character", "lines"):
        if inv.digest is None:
            return "no recorded stdout digest"
        if out.digest != inv.digest:
            return "stdout differs from the recorded digest"
    try:
        if inv.check == "reference" and out.text != REFERENCE_OUTPUT:
            return f"printed {out.text.strip()!r}, expected {REFERENCE_OUTPUT.strip()}"
        if inv.check == "setup" and out.text != f"{inv.work}\n":
            return f"printed {out.text.strip()!r}, expected {inv.work}"
        if inv.check == "lines" and out.lines != inv.work:
            return f"{out.lines} lines, expected {inv.work}"
        if inv.check == "character":
            total = sum(term["mult"] for term in json.loads(out.text)["terms"])
            if total != inv.work:
                return f"sum of multiplicities {total}, expected {inv.work}"
        if inv.check == "verify":
            reports = json.loads(out.text)
            if len(reports) != len(inv.weights):
                return f"{len(reports)} reports, expected {len(inv.weights)}"
            if not all(report["ok"] is True for report in reports):
                return "a report is not ok"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({exc!r})"
    return None


def cli_command(args: list) -> list:
    return [sys.executable, "-E", "-m", "cpops.cli", *args]


def traced_command(args: list, summary: Path, cache_dir: Path) -> list:
    return [sys.executable, "-E", str(HERE / "traced.py"), str(summary),
            str(cache_dir), *args]


def run_checked(inv: Invocation, tmp: Path, tally: Tally) -> Outcome:
    out = launch(cli_command(inv.args), keeps_text(inv), tmp / "stderr")
    tally.record(inv, output_error(inv, out))
    return out


def keeps_text(inv: Invocation) -> bool:
    return inv.check in ("character", "verify", "setup", "reference")


def run_reference(tmp: Path, tally: Tally) -> Outcome:
    out = launch([sys.executable, "-E", "-c", REFERENCE_CODE], True, tmp / "stderr")
    tally.record(REFERENCE, output_error(REFERENCE, out))
    return out


def run_traced(inv: Invocation, tmp: Path, tally: Tally) -> tuple:
    """Run one invocation under traced.py; returns its outcome and span
    summary, the summary None when the invocation failed."""
    summary_path = tmp / "summary.json"
    summary_path.unlink(missing_ok=True)
    cache_dir = Path(tempfile.mkdtemp(dir=tmp, prefix="cache-"))
    out = launch(traced_command(inv.args, summary_path, cache_dir),
                 keeps_text(inv), tmp / "stderr")
    error = output_error(inv, out)
    summary = read_summary(summary_path)
    if error is None and summary is None:
        error = "no trace summary"
    elif error is None and not summary["cache"]["ok"]:
        error = "cache hit differs from the computed character"
    tally.record(inv, error)
    if error is not None:
        return out, None
    out.wall -= summary["tail_s"]
    summary.update(rank=inv.rank, key=inv.key)
    return out, summary


def run_pass(invocations: list, max_work: int, tmp: Path, tally: Tally,
             traced: bool = False) -> Pass:
    wall = cpu = 0.0
    rss_kb = work = nbytes = 0
    summaries = []
    for inv in invocations:
        if inv.work > max_work:
            tally.record(inv, f"refused: predicts {inv.work} POPs, "
                              f"above the ladder maximum {max_work}")
            continue
        if traced:
            out, summary = run_traced(inv, tmp, tally)
            if summary is not None:
                summaries.append(summary)
        else:
            out = run_checked(inv, tmp, tally)
        wall += out.wall
        cpu += out.cpu
        rss_kb = max(rss_kb, out.rss_kb)
        work += inv.work
        nbytes += out.stdout_bytes
    return Pass(wall, cpu, rss_kb, work, nbytes, summaries)


def read_summary(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# --- end-to-end run -------------------------------------------------------

def tail_percentile(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, fewer than 11 samples: no tail percentile"
    k = n - 10
    return f"p{100 * k / n:.0f}={sorted(samples)[k - 1]:.6g} n={n}"


def repeat_until(deadline: float, step) -> None:
    """Call ``step`` at least once, and again while a call of the median
    duration so far would still end before the deadline."""
    durations = []
    while True:
        started = time.perf_counter()
        step()
        durations.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def timed_run(invocations, max_work, setup, deadline, tmp, tally):
    # Probes are spread over the run so that their median does not hang on
    # one moment of the host's load.
    setup_walls, reference_walls, passes = [], [], []

    def step():
        for _ in range(PROBES_PER_PASS):
            setup_walls.append(run_checked(setup, tmp, tally).wall)
            reference_walls.append(run_reference(tmp, tally).wall)
        passes.append(run_pass(invocations, max_work, tmp, tally))

    repeat_until(deadline, step)
    samples = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "dim_per_s": [p.work / p.wall if p.wall else 0.0 for p in passes],
        "peak_rss_mb": [p.rss_kb / 1024 for p in passes],
        "setup_s": setup_walls,
        "reference_s": reference_walls,
    }
    # The host runs these programs at speeds that differ by up to two times,
    # in phases of seconds to minutes, and a whole run can fall into a slow
    # one. The reference's median measures the speed the run was given, so
    # every time is scaled by REFERENCE_S over it; the ratio of two medians
    # taken over the same run depends far less on the host than either.
    scale = REFERENCE_S / statistics.median(reference_walls)
    medians = {name: statistics.median(series) for name, series in samples.items()}
    values = {
        "wall_s": medians["wall_s"] * scale,
        "cpu_s": medians["cpu_s"] * scale,
        "dim_per_s": passes[0].work / (medians["wall_s"] * scale),
        "peak_rss_mb": medians["peak_rss_mb"],
        "setup_s": medians["setup_s"] * scale,
    }
    units = {"wall_s": "s", "cpu_s": "s", "dim_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s", "reference_s": "s"}
    for name, series in samples.items():
        reported = f"reported {values[name]:.6g}, " if name in values else ""
        print(f"{name:12} {reported}median {medians[name]:.6g} {units[name]}"
              f"  ({tail_percentile(series)})")
    print(f"host scale {scale:.4f} (reference {REFERENCE_S} s over its median)")
    print(f"work per pass: {passes[0].work} POPs (sum of pop_count_formula)")
    print("samples " + json.dumps(samples))
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


# --- traced run -----------------------------------------------------------

def summed(summaries: list, field_name: str, kind: str) -> float:
    return sum(s["kinds"].get(kind, {}).get(field_name, 0) for s in summaries)


def per_unit(seconds: float, count: float) -> float:
    return seconds * 1e6 / count if count else 0.0


def layer_metrics(p: Pass, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced pass, by name, with units."""
    s = p.summaries

    def own(kind):
        return summed(s, "self_s", kind)

    def total(kind):
        return summed(s, "total_s", kind)

    def calls(kind):
        return summed(s, "calls", kind)

    def count(name):
        return sum(x["counts"].get(name, 0) for x in s)

    patterns = count("patterns.items")
    pops = count("pops.items")
    terms = count("characters.terms")
    edges = sum(x["qbinomial_calls"] for x in s)
    dominant = count("oracle.dominant_weights")
    character_s = total("characters.direct") + total("characters.fermionic")
    cache = [x["cache"] for x in s]
    compute_s = sum(c["compute_s"] for c in cache)
    lookup_s = sum(c["lookup_s"] for c in cache)
    m = {
        "rootsys.root_vector_calls": (count("rootsys.root_vector"), "count"),
        "patterns.enumerate_s": (own("patterns.enumerate"), "s"),
        "patterns.count": (patterns, "count"),
        "patterns.us_per_pattern": (per_unit(own("patterns.enumerate"), patterns), "us"),
        "patterns.differences_calls": (calls("patterns.differences"), "count"),
        "patterns.differences_s": (own("patterns.differences"), "s"),
        "pops.enumerate_s": (own("pops.enumerate"), "s"),
        "pops.count": (pops, "count"),
        "pops.us_per_pop": (per_unit(own("pops.enumerate"), pops), "us"),
        "pops.weight_calls": (calls("pops.weight"), "count"),
        "pops.weight_s": (own("pops.weight"), "s"),
        "pops.boxes_s": (own("pops.boxes"), "s"),
        "pops.serialize_s": (own("pops.serialize"), "s"),
        "characters.direct_s": (total("characters.direct"), "s"),
        "characters.direct_self_s": (own("characters.direct"), "s"),
        "characters.fermionic_s": (total("characters.fermionic"), "s"),
        "characters.fermionic_self_s": (own("characters.fermionic"), "s"),
        "characters.terms": (terms, "count"),
        "characters.us_per_term": (per_unit(character_s, terms), "us"),
        "characters.us_per_edge": (per_unit(total("characters.fermionic"), edges), "us"),
        "characters.qpoly_mul_calls": (calls("characters.qpoly_mul"), "count"),
        "characters.qpoly_mul_s": (own("characters.qpoly_mul"), "s"),
        "characters.qbinomial_calls": (edges, "count"),
        "characters.add_term_calls": (calls("characters.add_term"), "count"),
        "characters.add_term_s": (own("characters.add_term"), "s"),
        "characters.serialize_s": (own("characters.serialize"), "s"),
        "oracle.freudenthal_s": (total("oracle.freudenthal"), "s"),
        "oracle.dominant_weights": (dominant, "count"),
        "oracle.us_per_dominant_weight": (per_unit(total("oracle.freudenthal"), dominant), "us"),
        "oracle.orbit_calls": (calls("oracle.orbit"), "count"),
        "oracle.orbit_s": (own("oracle.orbit"), "s"),
        "oracle.weyl_dim_s": (own("oracle.weyl_dim"), "s"),
        "branching.verify_s": (total("branching.verify"), "s"),
        "branching.self_s": (own("branching.verify"), "s"),
        "branching.weights": (calls("branching.verify"), "count"),
        "cli.import_s": (statistics.median(x["import_s"] for x in s) if s else 0.0, "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.stdout_bytes": (p.stdout_bytes, "bytes"),
        "cache.store_s": (sum(c["store_s"] for c in cache), "s"),
        "cache.lookup_s": (lookup_s, "s"),
        "cache.entry_bytes": (sum(c["entry_bytes"] for c in cache), "bytes"),
        "cache.lookup_over_compute": (lookup_s / compute_s if compute_s else 0.0, "ratio"),
        "trace.overhead_ratio": (p.wall / untraced_wall if untraced_wall else 0.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def self_times(summaries: list) -> dict:
    kinds = {k for s in summaries for k in s["kinds"]}
    return {k: summed(summaries, "self_s", k) for k in kinds}


def check_predictions(workload: str, p: Pass, metrics: dict) -> None:
    """Print whether the bypass predictions of workloads.json hold. They are
    reported, not enforced: a change that moves work between layers is
    expected to break some of them."""
    pred = spec()["workloads"][workload].get("predictions", {})
    for prefix in pred.get("zero", []):
        nonzero = [n for n, v in metrics.items()
                   if n.startswith(prefix) and v["value"]]
        print(f"prediction: metrics named {prefix}* are zero: "
              + ("holds" if not nonzero else f"MISSED ({', '.join(nonzero)})"))
    largest = pred.get("largest_self")
    if largest:
        groups = ([[s] for s in p.summaries if s["rank"] in largest["ranks"]]
                  if "ranks" in largest else [p.summaries])
        for group in groups:
            times = self_times(group)
            top = max(times, key=times.get)
            where = group[0]["key"] if "ranks" in largest else "the pass"
            print(f"prediction: the largest self time on {where} is {largest['kind']}: "
                  + ("holds" if top == largest["kind"] else f"MISSED ({top})"))


def print_layer_report(p: Pass, metrics: dict) -> None:
    total_s = {k: summed(p.summaries, "total_s", k) for k in self_times(p.summaries)}
    own = {k: v for k, v in self_times(p.summaries).items()
           if summed(p.summaries, "calls", k)}
    print(f"{'span kind':24} {'calls':>10} {'total s':>10} {'self s':>10}")
    for kind in sorted(own, key=own.get, reverse=True):
        print(f"{kind:24} {summed(p.summaries, 'calls', kind):>10} "
              f"{total_s[kind]:>10.4f} {own[kind]:>10.4f}")
    v = {name: m["value"] for name, m in metrics.items()}
    print("work-normalised:")
    print(f"  patterns.enumerate_s {v['patterns.enumerate_s']:.4f} s over "
          f"{v['patterns.count']} patterns = {v['patterns.us_per_pattern']:.3f} us/pattern")
    print(f"  pops.enumerate_s {v['pops.enumerate_s']:.4f} s over "
          f"{v['pops.count']} POPs = {v['pops.us_per_pop']:.3f} us/POP")
    print(f"  characters (direct+fermionic) {v['characters.direct_s'] + v['characters.fermionic_s']:.4f} s "
          f"over {v['characters.terms']} output terms = {v['characters.us_per_term']:.3f} us/term")
    print(f"  characters.fermionic_s {v['characters.fermionic_s']:.4f} s over "
          f"{v['characters.qbinomial_calls']} walk edges = {v['characters.us_per_edge']:.3f} us/edge")
    print(f"  oracle.freudenthal_s {v['oracle.freudenthal_s']:.4f} s over "
          f"{v['oracle.dominant_weights']} dominant weights = "
          f"{v['oracle.us_per_dominant_weight']:.3f} us/dominant weight")
    for s in p.summaries:
        times = s["kinds"]
        top = max(times, key=lambda k: times[k]["self_s"])
        print(f"  {s['key']}: {s['spans']} spans, largest self time {top} "
              f"{times[top]['self_s']:.4f} s of {times['cli.main']['total_s']:.4f} s")


def traced_run(workload, invocations, max_work, deadline, tmp, tally):
    untraced, traced = [], []

    def step():
        untraced.append(run_pass(invocations, max_work, tmp, tally))
        traced.append(run_pass(invocations, max_work, tmp, tally, traced=True))

    repeat_until(deadline, step)
    untraced_wall = statistics.median(p.wall for p in untraced)
    per_pass = [layer_metrics(p, untraced_wall) for p in traced]
    metrics = {name: {"value": statistics.median(m[name]["value"] for m in per_pass),
                      "unit": per_pass[0][name]["unit"]}
               for name in per_pass[0]}
    print_layer_report(traced[0], per_pass[0])
    check_predictions(workload, traced[0], per_pass[0])
    print(f"untraced passes {len(untraced)}, traced passes {len(traced)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec()["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpops" / "cli.py").is_file():
        print(f"perfbench: no cpops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    max_work = spec()["workloads"][args.workload]["max_rung_work"]
    invocations = plan(args.workload, args.seed)
    setup = setup_invocation()
    tally = Tally()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print("order: " + " | ".join(inv.key for inv in invocations))
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp_name:
        tmp = Path(tmp_name)
        run_checked(setup, tmp, tally)  # warm-up: bytecode and file cache
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics = traced_run(args.workload, invocations, max_work,
                                 deadline, tmp, tally)
        else:
            metrics = timed_run(invocations, max_work, setup, deadline, tmp, tally)
    for error in tally.errors:
        print(f"FAILED {error}")
    print(f"error_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
