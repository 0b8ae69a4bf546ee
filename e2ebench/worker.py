"""Time one part of one pass of a workload in this (fresh) interpreter
and print one JSON line.

``run.py`` starts this script once per part: a pass of programs is split
into ``PROCESSES_PER_PASS`` parts, each timed in its own interpreter, so
plan caches, interned terms and term tables never cross from one part into
another.  Several interpreters are needed because the analyser's search
order follows some object addresses, so the same programs cost up to half
as much again in one interpreter as in another: one seed's eleven
functional_guard programs took a median of 573 ms in one interpreter and
843 ms in another, and four of them made 14.6 to 22.0 million Python
calls in four interpreters with the same hash seed.  A run pools many
interpreters instead of sampling one.

A pass is about a hundred programs drawn from the seed's corpus draws
with a fixed mix of Table 2 class and termination character (see
:func:`make_pass`).  One process runs the programs of its part one at a
time, a closed loop.

Program times are CPU time of this process (``time.process_time``).  The
work is single-threaded and CPU-bound, so on an idle machine CPU time and
wall time agree; on a shared virtual machine wall time also counts the
time the host ran other tenants instead (steal time).  Set-up time is wall
time from ``run.py`` starting the interpreter to the first program.

CPU time still swings with the host: the same pass of programs took 23 to
34 s of CPU minutes apart, and the speed moves by a third within seconds.
So every program is preceded by :func:`reference_loop`, a fixed loop that
runs no analyser code, and the reported times are scaled to a host on
which that loop takes :data:`REFERENCE_MS`: each program's time is
multiplied by ``REFERENCE_MS`` over the median loop time of the programs
around it (:func:`host_scaled`).  Set-up time is scaled by the median of
loops run right after set-up.  The result keeps every program's CPU time
and loop time next to the scaled time.

Usage (normally through run.py)::

    python3 e2ebench/worker.py --workload classify --seed 20160396 \\
        --pass 0 --part 1 --parts 6 --spawned-at <time.monotonic()> --out .bench_out
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Workloads call the analyser through module attributes (repro.classify,
# repro.batch.evaluate_corpus, repro.run_chase) so a traced run's wrappers
# are picked up at call time.
import layers
import repro
import repro.batch
import repro.matching.config
import repro.model.kernels
from oracle import chase_error, known_corner, verdict_error
from repro.analysis.evaluation import HALT_STRATEGIES
from repro.batch.cache import ResultCache
from repro.generators.corpus import DEFAULT_CHARACTER_MIX, TABLE2A_CLASSES, generate_corpus
from repro.generators.databases import seed_database
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 20160396
#: Spans kept in the Chrome trace file (about 100 bytes each); the JSON
#: span file keeps every span.
CHROME_TRACE_SPANS = 200_000
#: Corpus draws one pass may consume before its quotas count as unfillable;
#: pass k starts at draw ``k * MAX_DRAWS_PER_PASS``.
MAX_DRAWS_PER_PASS = 64
#: About the CPU time of :func:`reference_loop` on an unloaded core of the
#: 2-core x86-64 box the benchmark was tuned on (Python 3.11): scaled times
#: read as that box's unloaded times.
REFERENCE_MS = 2.0
#: A program's host speed is the median reference time of the programs up
#: to this many places before and after it.
REFERENCE_WINDOW = 5
#: Reference loops run after set-up to scale the set-up time.
SETUP_REFERENCES = 11

#: The evaluate and chase workloads share one draw: Table 2's classes with
#: the per-program size capped so two passes of 107 programs fit a run (an
#: evaluate pass takes about 20 s of CPU on the busy box named below).
TABLE2_DRAW = {"scale": 0.06, "tests_scale": 0.6, "max_size": 15}


def draw_seed(seed: int, k: int) -> int:
    """The corpus seed of the k-th draw of a run (the 0th is ``seed``)."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def quotas(tests_scale: float) -> dict[tuple[str, str], int]:
    """Programs per (class, character) in one pass: each class's test
    count split over the generator's own character mix, rounded by
    largest remainder.  A fixed mix keeps a pass's cost from swinging
    with how many programs of each character a seed happens to draw."""
    out: dict[tuple[str, str], int] = {}
    for cls in TABLE2A_CLASSES:
        tests = max(1, round(cls["tests"] * tests_scale))
        mix = [(c, tests * p) for c, p in DEFAULT_CHARACTER_MIX[cls["name"]] if p > 0]
        counts = {c: int(x) for c, x in mix}
        by_remainder = sorted(mix, key=lambda cx: cx[1] - int(cx[1]), reverse=True)
        for c, _ in by_remainder[: tests - sum(counts.values())]:
            counts[c] += 1
        out.update({(cls["name"], c): n for c, n in counts.items() if n})
    return out


def make_pass(seed: int, draw: dict, k: int) -> list:
    """Pass k: corpus draws ``first``, ``first+1``, ... of the run's seed
    (``first = k * MAX_DRAWS_PER_PASS``), taken in draw order into the
    :func:`quotas` until every one is full, then shuffled by the seed.

    The draw order groups programs of one class and size; on a shared host
    whose speed swings by a third over a few seconds, such a group timed in
    one slow or fast spell moved the percentiles that fall inside it.
    Shuffled, every part of the distribution is timed across the whole run."""
    left = quotas(draw["tests_scale"])
    programs = []
    first = k * MAX_DRAWS_PER_PASS
    for i in range(first, first + MAX_DRAWS_PER_PASS):
        # Later draws build only the classes still short of programs (the
        # generator keeps its seed stream aligned), so a seed that needs
        # many draws barely lengthens set-up.
        classes = None if i == first else sorted({c for (c, _), n in left.items() if n})
        for ont in generate_corpus(seed=draw_seed(seed, i), classes=classes, **draw):
            key = (ont.class_name, ont.character)
            if left.get(key, 0) > 0:
                left[key] -= 1
                programs.append(ont)
        if not any(left.values()):
            random.Random(f"{seed}:{k}").shuffle(programs)
            return programs
    raise RuntimeError(f"quotas not filled from {MAX_DRAWS_PER_PASS} draws")


class Classify:
    """``repro.classify(σ)``: all 13 criteria, default configuration."""

    name = "classify"
    #: Programs capped at 3 dependencies: a pass of 107 programs then takes
    #: up to about 32 s of CPU on a busy shared 2-core x86-64 box (Python
    #: 3.11), so the two passes of a run fit the benchmark's time limit.
    #: Larger caps add programs with two or three existential TGDs whose
    #: LS time runs to seconds.
    draw = {"scale": 0.06, "tests_scale": 0.6, "max_size": 3}

    def __init__(self, tmp: str) -> None:
        pass

    def new_pass(self, k: int) -> None:
        pass

    def run(self, ont):
        return repro.classify(ont.sigma)

    def outcome(self, ont, report) -> tuple[dict, str | None, bool]:
        accepted = report.accepted_by
        error = verdict_error(ont.character, report.guarantees_all, report.guarantees_exists)
        summary = {"verdict": report.verdict, "accepted_by": accepted}
        return summary, error, error is not None and known_corner(ont.character, accepted)

    def store_bytes(self) -> float:
        return 0.0


class Evaluate:
    """``repro batch`` evaluate mode: Adn∃ plus the bounded-chase ground
    truth, one program per ``evaluate_corpus`` call, each interpreter into
    a fresh cache directory so every program takes the cold path."""

    name = "evaluate"
    draw = TABLE2_DRAW
    chase_steps = 1200  # the batch engine's default

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.cache_dirs: list[str] = []
        self.records = 0

    def new_pass(self, k: int) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix=f"cache{k}-", dir=self.tmp)
        ResultCache(self.cache_dir).close()  # create the store up front
        self.cache_dirs.append(self.cache_dir)

    def run(self, ont):
        config = repro.batch.BatchConfig(
            mode="evaluate", jobs=1, cache_dir=self.cache_dir, chase_steps=self.chase_steps
        )
        return repro.batch.evaluate_corpus([ont], config)

    def outcome(self, ont, report) -> tuple[dict, str | None, bool]:
        (result,) = report.results
        self.records += report.computed
        data = result.record["data"]
        error = verdict_error(ont.character, False, data["semi_acyclic"])
        if error is None and ont.character == "acyclic" and not data["chase_halted"]:
            error = "acyclic program's chase did not halt"
        corner = error is not None and known_corner(
            ont.character, ["SAC"] if data["semi_acyclic"] else []
        )
        summary = {
            "semi_acyclic": data["semi_acyclic"],
            "chase_halted": data["chase_halted"],
            "halted_strategy": data["halted_strategy"],
            "adorned_size": data["adorned_size"],
            "cached": result.cached,
        }
        return summary, error, corner

    def store_bytes(self) -> float:
        size = sum(
            os.path.getsize(os.path.join(d, f)) for d in self.cache_dirs for f in os.listdir(d)
        )
        return size / self.records if self.records else 0.0


class Chase:
    """``run_chase(seed_database(σ), σ, strategy=s, max_steps=N)`` for each
    halting strategy of the evaluation pipeline."""

    name = "chase"
    draw = TABLE2_DRAW
    #: Non-terminating programs grow to a couple of thousand facts; a pass
    #: takes 7-14 s of CPU.  Not in BENCHMARK.json (see run.py).
    max_steps = 1000

    def __init__(self, tmp: str) -> None:
        pass

    def new_pass(self, k: int) -> None:
        pass

    def run(self, ont):
        return [
            repro.run_chase(
                seed_database(ont.sigma), ont.sigma, strategy=s, max_steps=self.max_steps
            )
            for s in HALT_STRATEGIES
        ]

    def outcome(self, ont, results) -> tuple[dict, str | None, bool]:
        runs = [
            (r.status.value, list(r.instance) if r.successful else None) for r in results
        ]
        database = list(seed_database(ont.sigma))
        error = chase_error(ont.character, runs, database, ont.sigma)
        summary = {
            "runs": [[r.status.value, r.step_count] for r in results],
            "facts": [len(r.instance) if r.instance is not None else None for r in results],
        }
        return summary, error, False

    def store_bytes(self) -> float:
        return 0.0


WORKLOADS = {w.name: w for w in (Classify, Evaluate, Chase)}


def metadata(workload, seed: int) -> dict:
    """What produced these numbers: code, interpreter, machine, knobs."""
    src = os.path.join(ROOT, "src")
    loc = 0
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    data = fh.read()
                loc += data.count(b"\n")
                sha.update(fname.encode() + b"\0" + data)
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    params = dict(workload.draw)
    for knob in ("chase_steps", "max_steps"):
        if hasattr(workload, knob):
            params[knob] = getattr(workload, knob)
    return {
        "git_rev": rev,
        "src_sha256": sha.hexdigest(),
        "src_py_lines": loc,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "kernels": repro.model.kernels.describe(),
        "matching_backend": repro.matching.config.get_backend(),
        "seed": seed,
        "draw": params,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def reference_loop() -> float:
    """CPU seconds one fixed pure-Python loop takes now: the host's speed.
    It calls no analyser code, so no change to the analyser moves it, and
    it allocates no containers, so the collector never runs inside it."""
    start = time.process_time()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.process_time() - start


def host_scaled(times_ms: list[float], refs_s: list[float]) -> list[float]:
    """Program times scaled to a host on which the reference loop takes
    REFERENCE_MS; ``refs_s[i]`` is the loop timed just before program i."""
    out = []
    for i, t in enumerate(times_ms):
        window = refs_s[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1]
        out.append(t * REFERENCE_MS / (statistics.median(window) * 1e3))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--pass", dest="pass_", type=int, default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args: argparse.Namespace, tmp: str) -> int:
    workload = WORKLOADS[args.workload](tmp)
    programs = make_pass(args.seed, workload.draw, args.pass_)[args.part :: args.parts]
    workload.new_pass(args.pass_)
    tracer = patches = None
    if args.trace:
        tracer = Tracer()
        patches = layers.install(tracer)
    setup_unscaled_s = time.monotonic() - args.spawned_at
    setup_ref = statistics.median(reference_loop() for _ in range(SETUP_REFERENCES))

    run_program = workload.run
    if tracer is not None:
        run_program = tracer.wrap(workload.run, "bench.program", "bench")
    times: list[float] = []
    refs: list[float] = []
    failures: list[dict] = []
    verdicts: list[list] = []
    wall_start = time.monotonic()
    try:
        for ont in programs:
            refs.append(reference_loop())
            start = time.process_time()
            try:
                result = run_program(ont)
            except Exception as exc:  # a raising program is a failed program
                elapsed = time.process_time() - start
                summary, error, corner = None, f"raised {exc!r}", False
            else:
                elapsed = time.process_time() - start
                summary, error, corner = workload.outcome(ont, result)
                del result
            times.append(elapsed * 1e3)
            verdicts.append([ont.name, summary])
            if error is not None:
                failures.append({
                    "program": ont.name, "pass": args.pass_, "character": ont.character,
                    "error": error, "known_corner": corner,
                })
    finally:
        if patches is not None:
            patches.restore()

    out = {
        "workload": args.workload,
        "pass": args.pass_,
        "part": args.part,
        "parts": args.parts,
        "traced": bool(args.trace),
        "setup_s": setup_unscaled_s * REFERENCE_MS / (setup_ref * 1e3),
        "setup_unscaled_s": setup_unscaled_s,
        "programs": len(times),
        "busy_s": sum(times) / 1e3,
        "wall_s": time.monotonic() - wall_start,
        "program_ms": times,
        "reference_ms": [r * 1e3 for r in refs],
        "scaled_ms": host_scaled(times, refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": len(failures),
        "unexpected_failures": sum(1 for f in failures if not f["known_corner"]),
        "failures": failures,
        "verdicts": verdicts,
        "meta": metadata(workload, args.seed),
    }
    if tracer is not None:
        extra = {"store.bytes_per_record": workload.store_bytes()}
        out["per_layer"] = {
            name: list(v) for name, v in layers.per_layer_metrics(tracer, extra).items()
        }
        stem = os.path.join(args.out, f"trace-{args.workload}-{args.seed}")
        tracer.write_json(stem + ".spans.json", out["meta"])
        tracer.write_chrome_trace(stem + ".chrome.json", out["meta"], CHROME_TRACE_SPANS)
        out["trace_files"] = [stem + ".spans.json", stem + ".chrome.json"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
