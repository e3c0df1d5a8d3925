"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One closed-loop client in this single-threaded process sends requests
in seeded rounds: ``dslice.cli.main(argv)`` with stdout captured, or
``dslice.replay_certificate`` for replay requests.  Each output is
checked (see ``workloads.py``).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` a pass without
tracing is followed by a traced pass over the same request sequence,
whose stdout must be byte-identical, and the line carries the
per-layer metrics.  Untraced timings are rescaled to a reference host
speed by ``speed.Probe``.  Run metadata goes to stderr and
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
import percentiles
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dslice" / "data"
OUT = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"
ENV_CACHE_DIR = "DSLICE_CACHE_DIR"
# set-up is timed this many times before the timed pass and again after
# it, and the median is reported
SETUPS = 4


class Client:
    """The imported package, the inputs and the checks of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, expected: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.setups = 0
        self.certs: dict = {}
        self.generated: list = []
        self.diagrams: dict = {}
        self.requests: list = []

    def timed_setup(self) -> tuple:
        t0 = time.perf_counter()
        self.setup()
        return t0, time.perf_counter()

    def setup(self) -> None:
        """Import afresh, warm the corpus caches, make the inputs."""
        self.setups += 1
        os.environ[ENV_CACHE_DIR] = str(self.workdir / f"cache-{self.setups}")
        for name in [n for n in sys.modules if n == "dslice" or n.startswith("dslice.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("dslice")
        self.cli = importlib.import_module("dslice.cli")
        cache = importlib.import_module("dslice.cache")
        if Path(cache.cache_dir()) != Path(os.environ[ENV_CACHE_DIR]):
            raise RuntimeError("the run's cache directory is not in effect")
        registry = self.pkg.default_registry()
        for name in self.pkg.bundled_names():
            self.pkg.bundled_document(name)
        if self.workload == "unregistered":
            self._generate(registry)
        self.requests = workloads.round_requests(self.workload, DATA, self.generated)
        by_id = {req.id: req for req in self.requests}
        # replays need their certificates; cache-hit needs a full cache
        if self.workload == "cache-hit":
            sources = self.requests
        else:
            sources = [by_id[req.replay] for req in self.requests if req.replay]
        for req in sources:
            _, _, code, out = self.call(req)
            if not self.check(req, code, out):
                raise RuntimeError(f"set-up request {req.id!r} failed its check")
            self.certs[req.id] = out

    def _generate(self, registry) -> None:
        inputs = self.workdir / f"inputs-{self.setups}"
        inputs.mkdir()
        docs = workloads.unregistered_documents(
            self.seed, self.pkg.bundled_document("946"),
            self.pkg.diagram_from_document, self.pkg.diagram_hash,
            registry["ext"],
        )
        self.generated, self.diagrams = [], {}
        for tag, doc in docs:
            path = inputs / f"{tag}.json"
            self.pkg.dump_document(doc, str(path))
            diagram, _ = self.pkg.diagram_from_document(self.pkg.load_document(str(path)))
            self.diagrams[self.pkg.diagram_hash(diagram)] = diagram
            self.generated.append((tag, path))

    def call(self, req):
        """(start, end, exit code, stdout) of one request."""
        if req.replay:
            cert_text = self.certs[req.replay]
            t0 = time.perf_counter()
            ok = self.pkg.replay_certificate(
                json.loads(cert_text), self.pkg.resolve_hash,
                registry=self.pkg.default_registry(),
            )
            t1 = time.perf_counter()
            return t0, t1, 0 if ok else 1, workloads.replay_output(ok)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.main(list(req.argv))
            t1 = time.perf_counter()
        return t0, t1, code, out.getvalue()

    def check(self, req, code: int, stdout: str) -> bool:
        if self.workload == "unregistered":
            return workloads.check_unregistered(
                self.expected, code, stdout, self._replay_generated)
        return workloads.check_stable(self.expected, req.id, code, stdout)

    def _replay_generated(self, cert: dict) -> bool:
        return self.pkg.replay_certificate(
            cert, self.diagrams.get, registry=self.pkg.default_registry())


class Pass:
    """Per-request results of one pass over seeded rounds.

    Request start and end times sit in compact arrays so that a longer
    or faster run does not move ``peak_rss_mb``; stdout digests are kept
    only when a traced pass must be compared against this one.
    """

    def __init__(self, keep_digests: bool):
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.digests = [] if keep_digests else None
        self.failed = 0
        self.maps = 0
        self.rounds = 0
        self.start = 0.0
        self.wall = 0.0


def run_pass(client: Client, seconds=None, rounds=None, tracer=None,
             keep_digests=False) -> Pass:
    """Whole seeded rounds: a fixed number, or as many as fit ``seconds``.

    With ``seconds``, another round starts only while the pass would end
    nearer the deadline with it than without it.
    """
    order = random.Random(f"{client.seed}:order")
    result = Pass(keep_digests)
    start = result.start = time.perf_counter()
    while True:
        for req in order.sample(client.requests, len(client.requests)):
            if tracer is None:
                t0, t1, code, out = client.call(req)
            else:
                t0, t1, code, out = tracer.run(
                    "request", client.call, req, attrs={"id": req.id})
            ok = client.check(req, code, out)
            maps = workloads.maps_reported(out) if ok else 0
            result.starts.append(t0)
            result.ends.append(t1)
            if keep_digests:
                result.digests.append(workloads.digest(out))
            result.failed += not ok
            result.maps += maps
        result.rounds += 1
        result.wall = time.perf_counter() - start
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif result.wall + result.wall / result.rounds / 2 >= seconds:
            return result


def end_to_end(p: Pass, probe: speed.Probe) -> dict:
    """The timed pass's end-to-end metrics, in reference-host time.

    Every request's latency is rescaled by the probe (``speed.py``), and
    the pass holds whole rounds, so every request kind weighs the same.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seconds = [probe.rescale(t0, t1) for t0, t1 in zip(p.starts, p.ends)]
    ms = [x * 1000.0 for x in seconds]
    busy_s = sum(seconds)
    return {
        "requests_per_s": (len(ms) / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentiles.percentile(ms, 90), "ms"),
        "maps_per_s": (p.maps / busy_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def measured(p: Pass) -> dict:
    """Plain wall-clock figures, with the tail the sample count supports."""
    ms = [(t1 - t0) * 1000.0 for t0, t1 in zip(p.starts, p.ends)]
    tail = percentiles.tail_percentile(len(ms))
    return {
        "samples": len(ms),
        "requests_per_s": len(ms) / (sum(ms) / 1000.0),
        "p50_ms": statistics.median(ms),
        "p90_ms": percentiles.percentile(ms, 90),
        "tail_percentile": tail,
        "tail_ms": None if tail is None else percentiles.percentile(ms, tail),
    }


def _commit():
    """The checked-out commit, read from ``.git`` when there is one."""
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


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "dslice"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cache_entries(workdir: Path) -> dict:
    """Every file in the run's cache directories, with its mtime."""
    return {str(p.relative_to(workdir)): p.stat().st_mtime_ns
            for p in workdir.glob("cache-*/*")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dslice" / "__init__.py").is_file() or not EXPECTED.is_file():
        sys.stderr.write(f"perfbench: no dslice sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, expected: dict, workdir: Path) -> int:
    client = Client(args.workload, args.seed, workdir, expected)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    problems = []
    if args.trace:
        client.setup()
        before = _cache_entries(workdir)
        tracer = spans.Tracer()
        # the passes run at different host speeds; the probe evens that
        # out of trace.overhead_ratio, and adds about 1% to self times
        with speed.Probe() as probe:
            plain = run_pass(client, seconds=args.seconds / 2, keep_digests=True)
            restore, missing = spans.install(tracer, layers.targets())
            try:
                traced = run_pass(client, rounds=plain.rounds, tracer=tracer,
                                  keep_digests=True)
            finally:
                restore()
        after = _cache_entries(workdir)
        overhead = (probe.rescale(traced.start, traced.start + traced.wall)
                    / probe.rescale(plain.start, plain.start + plain.wall) - 1.0)
        meta["untraced_functions"] = missing
        mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
        if mismatched:
            problems.append(f"{mismatched} traced outputs differ from untraced ones")
        attempted = len(plain.starts) + len(traced.starts)
        failed = plain.failed + traced.failed + mismatched
        totals = spans.layer_totals(tracer.spans)
        values = layers.per_layer(
            totals, tracer.spans, traced.rounds, len(traced.starts),
            traced.maps, traced.wall, overhead,
        )
        bench = json.loads(BENCHMARK.read_text())
        metrics = {m["name"]: (values[m["name"]], m["unit"])
                   for m in bench["per_layer"]}
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_jsonl(tracer.spans, trace_path)
        meta["spans"] = str(trace_path.relative_to(ROOT))
        timed = traced
    else:
        probe = speed.Probe()
        with probe:
            setups = [client.timed_setup() for _ in range(SETUPS)]
            before = _cache_entries(workdir)
            timed = run_pass(client, seconds=args.seconds)
            after = _cache_entries(workdir)
            # after the cache check: each set-up fills a cache directory of its own
            setups += [client.timed_setup() for _ in range(SETUPS)]
        attempted, failed = len(timed.starts), timed.failed
        setup_s = [probe.rescale(t0, t1) for t0, t1 in setups]
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   **end_to_end(timed, probe)}
        meta.update(setup_s=setup_s,
                    measured_setup_s=[t1 - t0 for t0, t1 in setups],
                    measured=measured(timed),
                    probes=len(probe.costs),
                    probe_ms=statistics.median(probe.costs) * 1000.0)

    if args.workload == "cache-hit":
        if after != before:
            problems.append("a timed cache-hit request missed and stored an entry")
    elif after:
        problems.append(f"--no-cache run left {len(after)} cache entries")
    meta.update(inputs=[tag for tag, _ in client.generated],
                rounds=timed.rounds, requests=len(timed.starts),
                problems=problems)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
