"""Pipeline benchmark: cold-build, edit-rebuild and analyze.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 15 --trace 0

Every workload is a closed loop, one operation at a time from this
process, on one seeded multi-TU C++ project (``corpus.py``):

* ``cold-build`` — ``pdbbuild -j 2`` of the project into an empty cache;
* ``edit-rebuild`` — append a new function to one seeded TU, then
  ``pdbbuild -j 2`` against the cache warmed during set-up;
* ``analyze`` — ``pdbcheck`` (SARIF), ``pdbtree`` (all trees),
  ``pdbhtml`` (with sources), TAU (select, instrument, simulate on 4
  nodes) and SILOON over the merged PDB that set-up wrote.

Builds and tools run through the CLIs' ``main(argv)`` or the paper-level
API; every output is checked against the generator's ground truth
(``verify.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer breakdown of a separate traced run.

The end-to-end times are reported at a reference speed: each timed
build, tool and set-up sits between runs of a fixed calibration job
(:func:`calibrate`; for builds and set-ups also in :class:`Calibrators`,
on the pool workers' CPUs) and is scaled by ``CAL_REF_S`` over the job's
mean time there.  On a shared host the raw times of the same code swing
by 2x and more between runs; the scaled times follow the program, not
the host.  The human-readable lines print the raw medians next to them.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  ``--workload all``
runs every workload both ways and prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold-build", "edit-rebuild", "analyze")
BUILD_WORKLOADS = ("cold-build", "edit-rebuild")
#: pool workers per build; never more than the CPUs ``nproc`` reports
JOBS = 2
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
TOOLS = ("pdbcheck", "pdbtree", "pdbhtml", "tau", "siloon")
CHECKS = ("deadcode", "bloat", "odr", "hierarchy", "includes")

#: end-to-end metrics sampled once per operation (or per tool run)
TIMED = ("wall_s", "cpu_s", *(f"{tool}_s" for tool in TOOLS))
#: end-to-end metrics: name -> unit (``--trace 0``)
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    **{f"{tool}_s": "s" for tool in TOOLS},
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metrics: name -> unit (``--trace 1``), from layers.json."""
    with open(HERE / "layers.json") as f:
        layers = json.load(f)["layers"]
    return {name: unit for layer in layers for name, unit in layer["metrics"].items()}

clock = time.perf_counter


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children
    (the build's pool workers are reaped when the pool shuts down)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def median(values) -> float:
    return statistics.median(values)


#: seconds :func:`calibrate` takes on the reference machine (the
#: 2-vCPU Xeon host in layers.json, when quiet)
CAL_REF_S = 0.04

#: fixed inputs of the calibration job
_WORDS = [f"w{i}" for i in range(500)]
_INDEX = {w: i for i, w in enumerate(_WORDS)}
_LINE = " ".join(_WORDS[:40])
_NODES = [{"name": f"r{i}", "calls": list(range(i % 5)), "kind": i % 3} for i in range(3000)]


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed job that shares no code with the
    program, in four parts of about equal time: building, sorting and
    joining a few MB of small objects; integer arithmetic; splitting a
    line and looking its words up in a dict; and scanning a fixed graph
    of dicts the way ``callers_of`` scans routines.

    On a shared host the speed of such work swings by 2x within seconds
    and between minutes.  Every timed operation sits between two runs of
    this job and is reported at the speed at which the job takes
    ``CAL_REF_S``, so the host's swing cancels out of the ratio while a
    change to the program does not."""
    c0, t0 = time.process_time(), clock()
    table = {}
    for i in range(7000):
        key = f"item{i % 3001}:{i}"
        table[key] = (i, key.split(":")[0], [i & 7, i >> 3])
    ordered = sorted(table, key=lambda k: table[k][0] % 97)
    text = "\n".join(f"{k} {table[k][1]} {table[k][2][0]}" for k in ordered)
    words = sum(len(line.split(" ")) for line in text.split("\n"))
    acc = 0
    for i in range(100000):
        acc += i * i & 1023
    for _ in range(3000):
        parts = _LINE.split(" ")
        for part in parts:
            acc += _INDEX[part]
    for k in range(60):
        for node in _NODES:
            if node["kind"] == k % 3 and k in node["calls"]:
                acc += 1
    if words != 3 * len(table) or acc <= 0:
        raise AssertionError("calibration job miscounted")
    return clock() - t0, time.process_time() - c0


def reference_scale(cals: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors that take a wall and a CPU time measured amid the
    calibrations ``cals`` to the reference speed."""
    return (
        CAL_REF_S * len(cals) / sum(wall for wall, _ in cals),
        CAL_REF_S * len(cals) / sum(cpu for _, cpu in cals),
    )


def _calibrator(conn) -> None:
    """Body of a :class:`Calibrators` process: one calibration per
    request, until ``None``."""
    while conn.recv() is not None:
        conn.send(calibrate())


class Calibrators:
    """``JOBS`` idle processes that, on request, each run
    :func:`calibrate` at the same time.  A ``-j 2`` build's pool workers
    run on every CPU, not only on this process's, so its reference speed
    is taken there too."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conns, self.procs = [], []
        for _ in range(JOBS):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_calibrator, args=(child,), daemon=True)
            proc.start()
            child.close()
            self.conns.append(conn)
            self.procs.append(proc)

    def run(self) -> list[tuple[float, float]]:
        for conn in self.conns:
            conn.send(True)
        return [conn.recv() for conn in self.conns]

    def __enter__(self) -> "Calibrators":
        return self

    def __exit__(self, *exc) -> None:
        for conn in self.conns:
            with contextlib.suppress(OSError):
                conn.send(None)
        for proc in self.procs:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()


class Spans:
    """The benchmark's own spans around calls into a layer: name ->
    list of durations.  Inactive instances cost one attribute test."""

    def __init__(self, active: bool):
        self.active = active
        self.times: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        if not self.active:
            yield
            return
        t0 = clock()
        try:
            yield
        finally:
            self.times.setdefault(name, []).append(clock() - t0)

    def total(self, name: str) -> float:
        return sum(self.times.get(name, ()))


def call_main(main, argv: list[str]) -> tuple[int, str]:
    """Run a CLI's ``main(argv)`` with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse errors
            rc = e.code if isinstance(e.code, int) else 1
    return rc, out.getvalue()


def rmtree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


class OperationFailed(Exception):
    pass


def require(problems: list[str], what: str) -> None:
    if problems:
        raise OperationFailed(f"{what}: " + "; ".join(problems))


# --------------------------------------------------------------- pipeline


class Pipeline:
    """The project on disk and the operations over it.  All paths are
    relative to the current directory, the set-up's work directory."""

    def __init__(self, corpus):
        self.corpus = corpus

    def build(self, out: str, cache: str | None, jobs: int = JOBS, trace: str | None = None) -> dict:
        """``pdbbuild`` through its CLI; returns the stats report."""
        from repro.tools import pdbbuild

        argv = [*self.corpus.sources, "-I", "kai", "-j", str(jobs), "-o", out]
        argv += ["--cache-dir", cache] if cache else ["--no-cache"]
        argv += ["--stats-json", out + ".stats.json"]
        if trace:
            argv += ["--trace-json", trace]
        rc, _ = call_main(pdbbuild.main, argv)
        require([f"exit {rc}"] if rc else [], f"pdbbuild {out}")
        with open(out + ".stats.json") as f:
            return json.load(f)

    def check_build(self, out: str, stats: dict, hits: int, misses: int) -> None:
        from verify import check_build

        problems = check_build(Path(out).read_text(), self.corpus)
        if stats["warnings"] or stats["errors"]:
            problems.append(f"{stats['warnings']} warnings, {stats['errors']} errors")
        cache = stats["cache"]
        if (cache["hits"], cache["misses"]) != (hits, misses):
            problems.append(f"cache hits/misses {cache['hits']}/{cache['misses']}, expected {hits}/{misses}")
        require(problems, out)

    # -- the analysis tools, each from the PDB file to finished output;
    # -- only the tool's own work runs inside ``watch``, not the checks

    def pdbcheck(self, pdb: str, watch: "Stopwatch", spans: Spans) -> None:
        from repro.tools import pdbcheck
        from verify import check_sarif

        rmtree("findings.sarif")
        with watch:
            rc, _ = call_main(pdbcheck.main, [pdb, "-f", "sarif", "-o", "findings.sarif"])
        # findings at warning level make pdbcheck exit 1: the planted set
        require([f"exit {rc}"] if rc != 1 else check_sarif("findings.sarif", self.corpus), "pdbcheck")

    def pdbtree(self, pdb: str, watch: "Stopwatch", spans: Spans) -> None:
        from repro.tools import pdbtree
        from verify import check_tree

        with watch:
            rc, out = call_main(pdbtree.main, [pdb])
        require([f"exit {rc}"] if rc else check_tree(out, self.corpus), "pdbtree")

    def pdbhtml(self, pdb: str, watch: "Stopwatch", spans: Spans) -> None:
        from repro.tools import pdbhtml
        from verify import check_html, expected_pages

        rmtree("html")
        with watch:
            rc, _ = call_main(pdbhtml.main, [pdb, "-o", "html", "-s", "proj"])
        pages = expected_pages(Path(pdb).read_text())
        require([f"exit {rc}"] if rc else check_html("html", pages), "pdbhtml")

    def tau(self, pdb_path: str, watch: "Stopwatch", spans: Spans) -> None:
        from repro.ductape.pdb import PDB
        from repro.tau import ExecutionSimulator, WorkloadSpec, instrument_sources, select_instrumentation
        from repro.tau.simulate import TauNaming
        from verify import check_tau

        rmtree("tau-out")
        with watch:
            with spans("ductape.load"):
                pdb = PDB.read(pdb_path)
            with spans("tau.select"):
                points = select_instrumentation(pdb)
            with spans("tau.instrument"):
                sources = {p: Path(p).read_text() for p in self.corpus.project_files()}
                instrumented = instrument_sources(pdb, sources)
                os.makedirs("tau-out")
                for path, result in instrumented.items():
                    Path("tau-out", Path(path).name).write_text(result.text)
            with spans("tau.simulate"):
                spec = WorkloadSpec(entry="main", nodes=4)
                profiler = ExecutionSimulator(pdb, spec, namer=TauNaming(points).timer_for).run()
        spans.counts["tau.points"] = len(points)
        require(check_tau(instrumented, profiler, self.corpus), "tau")

    def siloon(self, pdb_path: str, watch: "Stopwatch", spans: Spans) -> None:
        from repro.ductape.pdb import PDB
        from repro.siloon import generate_bindings
        from verify import check_siloon

        rmtree("siloon-out")
        with watch:
            with spans("ductape.load"):
                pdb = PDB.read(pdb_path)
            with spans("siloon.generate"):
                bindings = generate_bindings(pdb)
            os.makedirs("siloon-out")
            Path("siloon-out/wrapper.py").write_text(bindings.wrapper_source)
            Path("siloon-out/bridging.cpp").write_text(bindings.bridging_source)
        spans.counts["siloon.routines_bound"] = len(bindings.all_routine_bindings())
        require(check_siloon(bindings, self.corpus), "siloon")

    def suite(self, pdb: str, watch: "Stopwatch", spans: Spans, cals: list | None = None) -> dict[str, float]:
        """Every analysis tool once; returns tool -> seconds.  With a
        ``cals`` list, :func:`calibrate` runs before each tool and after
        the last, and its results are appended there."""
        times = {}
        for tool in TOOLS:
            gc.collect()  # no tool pays for another's garbage
            if cals is not None:
                cals.append(calibrate())
            before = watch.wall
            getattr(self, tool)(pdb, watch, spans)
            times[tool] = watch.wall - before
        if cals is not None:
            gc.collect()
            cals.append(calibrate())
        return times


class Stopwatch:
    """Wall and CPU seconds accumulated over the ``with`` blocks."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> None:
        self._cpu0, self._t0 = cpu_seconds(), clock()

    def __exit__(self, *exc) -> None:
        self.wall += clock() - self._t0
        self.cpu += cpu_seconds() - self._cpu0


# ------------------------------------------------------- layer breakdowns


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered


def build_layers(trace_path: str, stats: dict, op_wall: float) -> dict[str, float]:
    """Per-layer seconds and counts of one traced build, from the spans
    ``pdbbuild --trace-json`` records and its stats report."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]

    def total(pred) -> float:
        return sum(e["dur"] for e in events if pred(e["name"])) / 1e6

    lex = total(lambda n: n == "frontend.lex")
    compiles = [(e["ts"], e["ts"] + e["dur"]) for e in events if e["name"].startswith("compile ")]
    lookup_merge = [
        (e["ts"], e["ts"] + e["dur"]) for e in events if e["name"] in ("cache.lookup", "pdb.merge")
    ]
    covered = _union(compiles + lookup_merge) / 1e6
    hc = stats["header_cache"]
    cache = stats["cache"]
    merge = stats["merge"]
    return {
        # lexing runs inside preprocessing: report preprocessing's self time
        "cpp.preprocess_s": total(lambda n: n == "frontend.preprocess") - lex,
        "cpp.lex_s": lex,
        "cpp.parse_s": total(lambda n: n == "frontend.parse"),
        "cpp.instantiate_s": total(lambda n: n == "frontend.instantiate"),
        "cpp.header_cache.hit_ratio": hc["hits"] / max(1, hc["hits"] + hc["misses"]),
        "analyzer.s": total(lambda n: n.startswith("analyze.")),
        "analyzer.items": sum(t["items"] for t in stats["tus"] if not t["cache_hit"]),
        "pdbfmt.write_s": total(lambda n: n == "pdb.write"),
        "buildcache.lookup_s": total(lambda n: n == "cache.lookup"),
        "buildcache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "buildcache.evictions": cache["evictions"],
        "ductape.merge_s": total(lambda n: n == "pdb.merge"),
        "ductape.merge.items_in": merge["items_in"],
        "ductape.merge.dedup_ratio": merge["duplicates_eliminated"] / max(1, merge["items_in"]),
        "tools.pdbbuild.compile_wall_s": (
            (max(b for _, b in compiles) - min(a for a, _ in compiles)) / 1e6 if compiles else 0.0
        ),
        "tools.pdbbuild.unaccounted_s": op_wall - covered,
        "obs.span_coverage": covered / op_wall,
    }


def per_tu_layers(cache_dir: str) -> dict[str, float]:
    """``parse_pdb`` and ``BuildCache.store`` over the per-TU texts a
    merge consumes: the cache objects of one cold build."""
    from repro.buildcache import BuildCache
    from repro.pdbfmt import parse_pdb

    texts = [p.read_text() for p in sorted(Path(cache_dir).rglob("*.pdb"))]
    t0 = clock()
    for text in texts:
        parse_pdb(text)
    read_s = clock() - t0
    rmtree("store-probe")
    store = BuildCache("store-probe")
    t0 = clock()
    for i, text in enumerate(texts):
        store.store("perfbench", f"tu{i}", [(f"tu{i}", str(i))], text)
    store_s = clock() - t0
    mb = sum(len(t.encode()) for t in texts) / 1e6
    return {"pdbfmt.read_s": read_s, "pdbfmt.read_mb_per_s": mb / read_s, "buildcache.store_s": store_s}


def analysis_layers(pipe: Pipeline, pdb_path: str) -> dict[str, float]:
    """The DUCTAPE queries and analysis layers, each called directly on
    a freshly loaded database so no query profits from another."""
    from repro.check import run_checks
    from repro.ductape.pdb import PDB
    from repro.tools import pdbtree
    from repro.tools.pdbhtml import generate_html

    m: dict[str, float] = {}

    def timed(name: str, fn):
        t0 = clock()
        result = fn()
        m[name] = clock() - t0
        return result

    timed("ductape.load_s", lambda: PDB.read(pdb_path))
    pdb = PDB.read(pdb_path)
    timed("ductape.callers_of_s", lambda: [pdb.callers_of(r) for r in pdb.getRoutineVec()])
    pdb = PDB.read(pdb_path)
    timed("ductape.call_tree_s", pdb.getCallTree)
    pdb = PDB.read(pdb_path)
    timed("ductape.class_hierarchy_s", pdb.getClassHierarchy)
    report = run_checks(PDB.read(pdb_path))
    for name in CHECKS:
        m[f"check.{name}_s"] = report.timings[name]
    m["check.findings"] = len(report.findings)

    spans = Spans(True)
    pipe.tau(pdb_path, Stopwatch(), spans)
    pipe.siloon(pdb_path, Stopwatch(), spans)
    for name in ("tau.select", "tau.instrument", "tau.simulate", "siloon.generate"):
        m[name + "_s"] = spans.total(name)
    m.update(spans.counts)

    rmtree("html-probe")
    pdb = PDB.read(pdb_path)
    sources = {p: Path(p).read_text() for p in pipe.corpus.project_files()}
    pages = timed("tools.pdbhtml.generate_s", lambda: generate_html(pdb, "html-probe", sources))
    m["tools.pdbhtml.pages"] = len(pages)
    timed("tools.pdbtree.s", lambda: call_main(pdbtree.main, [pdb_path]))
    return m


# -------------------------------------------------------------- the runs


class Run:
    """One benchmark run: set-up, the timed loop, the run-level checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size, calibrators: Calibrators):
        # import every layer up front, so no timing includes an import
        import repro.check  # noqa: F401
        import repro.siloon  # noqa: F401
        import repro.tau.simulate  # noqa: F401
        import repro.tools.pdbbuild  # noqa: F401
        import repro.tools.pdbcheck  # noqa: F401
        import repro.tools.pdbhtml  # noqa: F401
        import repro.tools.pdbtree  # noqa: F401

        self.per_layer = per_layer_metrics()
        self.calibrators = calibrators
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.rng = random.Random(seed * 7919 + WORKLOADS.index(workload))
        self.attempted = 0
        self.failed = 0
        self.run_problems: list[str] = []
        #: untraced per-operation samples of the timed end-to-end
        #: metrics, as measured and at the reference speed
        self.samples: dict[str, list[float]] = {name: [] for name in TIMED}
        self.scaled: dict[str, list[float]] = {name: [] for name in TIMED}
        self.setup_raw: list[float] = []
        self.traced_walls: list[float] = []
        self.layer_samples: dict[str, list[float]] = {}
        self.pipe: Pipeline | None = None

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        """Generate the project, write it, warm the cache and build the
        input PDB; ``SETUPS`` times in fresh directories.  Returns the
        median seconds at the reference speed and leaves the last set-up
        as the work directory."""
        import corpus as corpus_mod

        times = []
        base = Path.cwd()
        # the calibrations after a set-up also serve the next one
        cals = self.build_cals()
        for i in range(SETUPS):
            work = base / f"setup{i}"
            rmtree(str(work))
            t0 = clock()
            corpus = corpus_mod.generate(self.seed, self.size)
            corpus_mod.write(corpus, str(work))
            os.chdir(work)
            pipe = Pipeline(corpus)
            stats = pipe.build("input.pdb", "cache")
            wall = clock() - t0
            self.setup_raw.append(wall)
            after = self.build_cals()
            times.append(wall * reference_scale(cals + after)[0])
            cals = after
            pipe.check_build("input.pdb", stats, 0, len(corpus.sources))
            os.chdir(base)
            if i + 1 < SETUPS:
                rmtree(str(work))
        os.chdir(work)
        self.pipe = pipe
        return median(times)

    # -- operations --------------------------------------------------------

    def operation(self, op, traced: bool = False) -> None:
        """One closed-loop operation; failures are counted, not raised.
        ``op(traced)`` returns its wall time and its samples: end-to-end
        metrics when untraced, per-layer metrics when traced."""
        self.attempted += 1
        gc.collect()  # every operation starts from the same heap state
        try:
            wall, values, scaled = op(traced)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        if traced:
            self.traced_walls.append(wall)
            for name, value in values.items():
                self.layer_samples.setdefault(name, []).append(value)
            return
        for name, value in values.items():
            self.samples[name].append(value)
            self.scaled[name].append(scaled[name])

    # Each operation returns its wall time, its samples (end-to-end
    # metrics when untraced, per-layer metrics when traced) and, when
    # untraced, the same samples at the reference speed.

    def build_cals(self) -> list[tuple[float, float]]:
        """Calibrations for a ``-j 2`` build: two in this process, which
        merges, and one in each of the calibrators at once."""
        gc.collect()
        return [calibrate(), calibrate(), *self.calibrators.run()]

    def _timed_build(self, out: str, cache: str, traced: bool):
        trace = out + ".trace.json" if traced else None
        cals = None if traced else self.build_cals()
        c0, t0 = cpu_seconds(), clock()
        stats = self.pipe.build(out, cache, trace=trace)
        wall, cpu = clock() - t0, cpu_seconds() - c0
        if traced:
            return wall, stats, build_layers(trace, stats, wall), None
        wall_scale, cpu_scale = reference_scale(cals + self.build_cals())
        values = {"wall_s": wall, "cpu_s": cpu}
        return wall, stats, values, {"wall_s": wall * wall_scale, "cpu_s": cpu * cpu_scale}

    def op_cold_build(self, traced: bool):
        rmtree("cold-cache")
        wall, stats, values, scaled = self._timed_build("cold.pdb", "cold-cache", traced)
        self.pipe.check_build("cold.pdb", stats, 0, len(self.pipe.corpus.sources))
        return wall, values, scaled

    def op_edit_rebuild(self, traced: bool):
        path, text = self.pipe.corpus.append_function(self.rng)
        Path(path).write_text(text)
        wall, stats, values, scaled = self._timed_build("edit.pdb", "cache", traced)
        n = len(self.pipe.corpus.sources)
        self.pipe.check_build("edit.pdb", stats, n - 1, 1)
        return wall, values, scaled

    def _timed_suite(self, pdb: str) -> tuple[Stopwatch, dict, dict, list]:
        """The untraced tool suite; each tool is scaled by the two
        calibrations around it."""
        watch, cals = Stopwatch(), []
        times = self.pipe.suite(pdb, watch, Spans(False), cals)
        values = {tool + "_s": t for tool, t in times.items()}
        scaled = {
            tool + "_s": t * reference_scale(cals[i : i + 2])[0]
            for i, (tool, t) in enumerate(times.items())
        }
        return watch, values, scaled, cals

    def op_tools(self, traced: bool):
        """The tool suite over a build workload's latest output: the
        tools' end-to-end times on the PDB this workload produces."""
        watch, values, scaled, _ = self._timed_suite(self.output())
        return watch.wall, values, scaled

    def op_analyze(self, traced: bool):
        from repro import obs

        if not traced:
            watch, values, scaled, cals = self._timed_suite("input.pdb")
            wall_scale, cpu_scale = reference_scale(cals)
            values.update(wall_s=watch.wall, cpu_s=watch.cpu)
            scaled.update(wall_s=watch.wall * wall_scale, cpu_s=watch.cpu * cpu_scale)
            return watch.wall, values, scaled
        spans, watch = Spans(True), Stopwatch()
        observer = obs.enable()
        try:
            self.pipe.suite("input.pdb", watch, spans)
        finally:
            obs.disable()
        # what the spans explain: the check.* spans pdbcheck records
        # itself, and the benchmark's spans inside the TAU and SILOON calls
        covered = sum(s.dur for s in observer.spans if s.name.startswith("check.")) / 1e6
        covered += sum(sum(v) for v in spans.times.values())
        layers = {"obs.span_coverage": covered / watch.wall}
        layers.update(analysis_layers(self.pipe, "input.pdb"))
        return watch.wall, layers, None

    # -- run-level checks ------------------------------------------------------

    def output(self) -> str:
        return {"cold-build": "cold.pdb", "edit-rebuild": "edit.pdb"}.get(self.workload, "input.pdb")

    def verify_builds(self) -> None:
        """Once per run: ``-j 1`` output equals ``-j 2`` output, and an
        incremental rebuild equals a cold build of the same tree."""
        if self.workload == "cold-build":
            self.pipe.build("serial.pdb", None, jobs=1)
            if Path("serial.pdb").read_bytes() != Path("cold.pdb").read_bytes():
                self.run_problems.append("-j 1 output differs from -j 2 output")
        elif self.workload == "edit-rebuild":
            rmtree("cold-cache")
            self.pipe.build("fresh.pdb", "cold-cache")
            if Path("fresh.pdb").read_bytes() != Path("edit.pdb").read_bytes():
                self.run_problems.append("edit-rebuild output differs from a cold build of the edited tree")

    # -- the run -----------------------------------------------------------

    def execute(self) -> dict:
        setup_s = self.setup()
        op = getattr(self, "op_" + self.workload.replace("-", "_"))
        # build workloads run the tool suite after each build, so the
        # tools' times sample the same stretch of the run
        tools = self.workload in BUILD_WORKLOADS and not self.trace
        start = clock()
        traced = False
        while True:
            self.operation(op, traced)
            if tools:
                self.operation(self.op_tools)
            if self.trace:
                traced = not traced
                if not traced and clock() - start >= self.seconds:
                    break
            elif clock() - start >= self.seconds:
                break
        if self.workload in BUILD_WORKLOADS and self.samples["wall_s"]:
            try:
                self.verify_builds()
            except Exception as e:
                self.run_problems.append(f"{type(e).__name__}: {e}")
                traceback.print_exc(file=sys.stderr)
        metrics = self.trace_metrics() if self.trace else self.e2e_metrics(setup_s)
        return {
            "correct": self.failed == 0 and not self.run_problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }

    def e2e_metrics(self, setup_s: float) -> dict:
        m = {name: median(values) for name, values in self.scaled.items()}
        m["peak_rss_mb"] = peak_rss_mb()
        m["setup_s"] = setup_s
        return {name: (m[name], unit) for name, unit in END_TO_END.items()}

    def trace_metrics(self) -> dict:
        """Medians of the traced operations; the layers a workload's
        operation does not enter are measured once on its data."""
        layers = {name: median(v) for name, v in self.layer_samples.items()}
        if self.workload == "analyze":
            # the build layers, from one traced cold build of the project
            rmtree("probe-cache")
            _, _, probe, _ = self._timed_build("probe.pdb", "probe-cache", True)
            layers.update({k: v for k, v in probe.items() if k not in layers})
            layers.update(per_tu_layers("probe-cache"))
        else:
            layers.update(analysis_layers(self.pipe, self.output()))
            # verify_builds left one cold build of the current tree here
            layers.update(per_tu_layers("cold-cache"))
        layers["obs.trace_overhead"] = median(self.traced_walls) / median(self.samples["wall_s"]) - 1
        self.report_shares()
        return {name: (layers[name], unit) for name, unit in self.per_layer.items()}

    def report_shares(self) -> None:
        """Each layer's share of the traced operation's wall time, for
        the layers the operation itself enters.  Front-end layers are
        summed over both workers, so their shares can add up past 1."""
        wall = median(self.traced_walls)
        shares = {
            name: median(values) / wall
            for name, values in self.layer_samples.items()
            if self.per_layer.get(name) == "s"
        }
        print("shares " + json.dumps({self.workload: shares}, sort_keys=True))


def describe(run: Run, result: dict) -> None:
    """Human-readable lines before the JSON result."""
    c = run.pipe.corpus
    text = Path(run.output()).read_text()
    items = sum(1 for line in text.split("\n") if "#" in line.split(" ", 1)[0])
    print(
        f"corpus seed={run.seed} tus={len(c.sources)} lines={c.lines} "
        f"items={items} pdb_bytes={len(text.encode())}"
    )
    n = run.attempted
    print(f"operations {n}, failed {run.failed}, fail_ratio {run.failed / n:.4f} ratio")
    for problem in run.run_problems:
        print(f"run check failed: {problem}")
    for name, m in result["metrics"].items():
        raw = run.setup_raw if name == "setup_s" else run.samples.get(name)
        tail = ""
        if raw and not run.trace:
            tail = f"  (median of {len(raw)}; as measured: median {median(raw):.6g}, best {min(raw):.6g})"
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{tail}")


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace, "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().split("\n")
            print(f"== {workload} --trace {trace}")
            print("\n".join(lines[:-1]))
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="project size; tiny is for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import corpus

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    rmtree(str(work))
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        size = corpus.FULL if args.size == "full" else corpus.TINY
        with Calibrators() as calibrators:
            run = Run(args.workload, args.seed, args.seconds, bool(args.trace), size, calibrators)
            result = run.execute()
        describe(run, result)
    finally:
        os.chdir(ROOT)
        rmtree(str(work))
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
