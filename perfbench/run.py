#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ihcmine CLI chain.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload endpoint-bound --seed 1 --seconds 45 --trace 0

One chain is the user's sequence of ``python -m ihcmine`` processes:
fetch, classify, classify --retry-quarantined, extract, normalize,
aggregate, compare, report, eval-classify, eval-tables. It runs against
the endpoint simulator (``simulator.py``, its own process) on inputs that
``generate.py`` derives from the seed. The load is a closed loop: the one
pipeline process sends its next request after a reply, ``--concurrency 2``.
Chains repeat until ``--seconds`` is spent (at least three untraced
chains), each in a fresh run directory, and every chain is checked against
the generator's ground truth.

``--trace 0`` reports the end-to-end metrics (medians over chains).
``--trace 1`` alternates untraced chains with chains whose stages run under
``tracer.py`` and reports the per-layer metrics (medians over traced
chains) plus ``trace.overhead_s``. The last line of stdout is one JSON
object; the exit code is 0 only when every chain passed every check
except the known-defect checks, which are reported by name.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import checks
import generate
import layers
from workloads import BACKOFF_S, CONCURRENCY, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SETUP_PROBE_S = 1.0  # probe time before the first chain, between chains and after the last
MIN_CHAINS = 3
STAGE_TIMEOUT_S = 90.0
RUN_LIMIT_S = 150.0  # stop starting chains that would end after this
END_TO_END_UNITS = {
    "makespan_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_abstract": "1/abstract",
    "llm_tokens_per_abstract": "tok/abstract",
    "outcome_ratio": "ratio",
}
_SETUP_CODE = "import sys, ihcmine.cli, ihcmine.normalize as n; n.load_index(sys.argv[1])"


class BenchError(Exception):
    pass


def stage_env(root: Path, home: Path) -> dict[str, str]:
    """Fixed, minimal environment: ``requests`` scans os.environ for proxies on every call."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        # numpy's OpenBLAS would start one spinning thread per CPU in every
        # stage; on a 2-CPU machine they compete with the stage and the simulator.
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "NO_PROXY": "127.0.0.1,localhost",
        "no_proxy": "127.0.0.1,localhost",
    }


class Spawner:
    """Runs one child at a time and reports its wall time and own rusage."""

    def __init__(self, root: Path, env: dict[str, str], log: Path):
        self.root = root
        self.env = env
        self.log = log
        self.current: subprocess.Popen | None = None

    def run(self, argv: list[str]) -> tuple[int, float, float, int]:
        """Returns (exit code, wall s, user+sys CPU s, max RSS KiB)."""
        with self.log.open("ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            self.current = proc
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                self.current = None
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def kill_current(self) -> None:
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:
                pass


class SimulatorProcess:
    def __init__(self, world: Path, env: dict[str, str], log: Path):
        self._log = log.open("ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "simulator.py"), str(world)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError(f"simulator did not start (see {log})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.url + path, method=method, data=b"" if method == "POST" else None)
        with self._opener.open(request, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call("POST", "/_quit")
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def stage_commands(w: Workload, inputs: Path, run_dir: Path, url: str) -> list[tuple[str, list[str]]]:
    common = ["--run-dir", str(run_dir)]
    gateway = ["--llm-base", url, "--emb-base", url, "--concurrency", str(CONCURRENCY), "--backoff", str(BACKOFF_S)]
    entrez = ["--entrez-base", f"{url}/entrez", "--rps", str(w.entrez_rps), "--backoff", str(BACKOFF_S)]
    return [
        ("fetch", ["fetch", *common, "--markers", str(inputs / "markers.txt"), *entrez]),
        ("classify", ["classify", *common, *gateway]),
        ("classify", ["classify", *common, *gateway, "--retry-quarantined"]),
        ("extract", ["extract", *common, *gateway]),
        ("normalize", ["normalize", *common, *gateway, "--dictionary", str(inputs / "dictionary.tsv")]),
        ("aggregate", ["aggregate", *common]),
        ("compare", ["compare", *common, "--reference", str(inputs / "reference.csv")]),
        ("report", ["report", *common]),
        ("eval-classify", ["eval-classify", *common, "--gold", str(inputs / "gold_classify.jsonl")]),
        ("eval-tables", ["eval-tables", *common, "--gold", str(inputs / "gold_tables.jsonl")]),
    ]


def _lines(path: Path, label: str | None = None) -> int:
    if not path.exists():
        return 0
    with path.open(encoding="utf-8") as handle:
        if label is None:
            return sum(1 for line in handle if line.strip())
        return sum(1 for line in handle if json.loads(line)["label"] == label)


def stage_records(run_dir: Path, inputs: Path) -> dict[str, int]:
    """Work per stage: the records of its main input (fetch: its output)."""
    corpus = _lines(run_dir / "corpus.jsonl")
    aggregates = _lines(run_dir / "aggregates.jsonl")
    return {
        "fetch": corpus,
        "classify": corpus,
        "extract": _lines(run_dir / "classified.jsonl", "Include"),
        "normalize": _lines(run_dir / "tables_parsed.jsonl"),
        "aggregate": _lines(run_dir / "normalized.jsonl"),
        "compare": aggregates,
        "report": aggregates,
        "eval-classify": _lines(inputs / "gold_classify.jsonl"),
        "eval-tables": _lines(inputs / "gold_tables.jsonl"),
    }


class Bench:
    def __init__(self, w: Workload, inputs: Path, area: Path, spawner: Spawner):
        self.w = w
        self.inputs = inputs
        self.area = area
        self.spawner = spawner
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.n_unique = len(self.truth["pmids"])
        self.sim: SimulatorProcess | None = None
        self.reference_digest: str | None = None

    def setup_probe(self) -> float:
        code, wall, _, _ = self.spawner.run([sys.executable, "-c", _SETUP_CODE, str(self.inputs / "dictionary.tsv")])
        if code != 0:
            raise BenchError(f"setup probe exited {code} (see {self.spawner.log})")
        return wall

    def setup_probes(self) -> list[float]:
        """Probes until SETUP_PROBE_S is spent: one on a large dictionary, several on a small one."""
        walls = [self.setup_probe()]
        while sum(walls) < SETUP_PROBE_S:
            walls.append(self.setup_probe())
        return walls

    def chain(self, traced: bool) -> dict:
        run_dir = self.area / "run"
        spans_dir = self.area / "spans"
        for d in (run_dir, spans_dir):
            shutil.rmtree(d, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        self.sim.call("POST", "/_reset")
        stage_runs = []
        failure = None
        start = time.perf_counter()
        for i, (stage, args) in enumerate(stage_commands(self.w, self.inputs, run_dir, self.sim.url)):
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_dir / f"{i:02d}-{stage}.jsonl"), *args]
            else:
                argv = [sys.executable, "-m", "ihcmine", *args]
            code, wall, cpu, rss_kib = self.spawner.run(argv)
            stage_runs.append((stage, wall, cpu, rss_kib))
            if code != 0:
                failure = f"stage {stage} exited {code}"
                break
        makespan = time.perf_counter() - start
        sim = self.sim.call("GET", "/_stats")

        results = checks.run_checks(run_dir, self.truth) if failure is None else {}
        if failure is None:
            digest = checks.artifact_digest(run_dir)
            self.reference_digest = self.reference_digest or digest
            results["deterministic"] = (digest == self.reference_digest, digest[:16])
        gating = {k: v for k, v in results.items() if k not in checks.KNOWN_DEFECTS}
        ok = failure is None and all(passed for passed, _ in gating.values())
        tokens = sim["prompt_tokens"] + sim["completion_tokens"] + sim["embed_input_tokens"]
        out = {
            "traced": traced,
            "ok": ok,
            "failure": failure,
            "checks": results,
            "stages": [[s, round(w, 4), round(c, 4), r] for s, w, c, r in stage_runs],
            "sim": sim,
            "makespan_s": makespan,
            "cpu_s": sum(c for _, _, c, _ in stage_runs),
            "peak_rss_mb": max(r for _, _, _, r in stage_runs) / 1024,
            "requests_per_abstract": sum(sim["requests"].values()) / self.n_unique,
            "llm_tokens_per_abstract": tokens / self.n_unique,
            "outcome_ratio": checks.outcomes(run_dir) / self.n_unique if ok else 0.0,
        }
        if traced and failure is None:
            spans = [span for path in sorted(spans_dir.glob("*.jsonl")) for span in layers.load_spans(path)]
            bytes_written = sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file())
            out["layers"] = layers.layer_metrics(
                [(s, w, c) for s, w, c, _ in stage_runs],
                spans,
                sim,
                stage_records(run_dir, self.inputs),
                self.n_unique,
                bytes_written,
            )
        return out


def environment(root: Path, w: Workload, seed: int) -> dict:
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": importlib.metadata.version("requests"),
        "commit": commit,
        "seed": seed,
        "workload": w.describe(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(chains: list[dict], setup: list[float], trace: bool) -> tuple[dict, list[str]]:
    untraced = [c for c in chains if not c["traced"] and c["ok"]]
    notes = [f"chains: {len(untraced)} untraced, {sum(c['traced'] for c in chains)} traced"]
    if not trace:
        metrics = {
            "makespan_s": _median([c["makespan_s"] for c in untraced]),
            "setup_s": _median(setup),
            "cpu_s": _median([c["cpu_s"] for c in untraced]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
            "requests_per_abstract": _median([c["requests_per_abstract"] for c in untraced]),
            "llm_tokens_per_abstract": _median([c["llm_tokens_per_abstract"] for c in untraced]),
            "outcome_ratio": statistics.fmean(c["outcome_ratio"] for c in chains),
        }
        makespans = sorted(c["makespan_s"] for c in untraced)
        notes.append(
            f"makespan_s samples={len(makespans)} min={makespans[0]:.4f} max={makespans[-1]:.4f} "
            "(fewer than 20 samples: no percentile above the median has ten beyond it)"
            if makespans else "makespan_s: no complete chain"
        )
        notes.append(f"setup_s samples={len(setup)} " + " ".join(f"{s:.4f}" for s in setup))
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes

    traced = [c for c in chains if c["traced"] and c["ok"]]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = _median([c["layers"][name] for c in traced])
        metrics["trace.overhead_s"] = _median([c["makespan_s"] for c in traced]) - _median(
            [c["makespan_s"] for c in untraced]
        )
        shares = {layer: metrics[f"layer.{layer}.self_share"] for layer in layers.LAYERS}
        ranked = sorted(shares, key=shares.get, reverse=True)
        notes.append("self-time shares: " + " ".join(f"{layer}={shares[layer]:.3f}" for layer in ranked))
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}, notes


def _layer_unit(name: str) -> str:
    for suffix, unit in (
        ("records_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"), (".p50", "ms"), (".p99", "ms"), ("_request", "ms"), ("_query", "ms"),
        ("us_per_table", "us"), ("us_per_call", "us"), ("bytes_written", "bytes"),
    ):
        if name.endswith(suffix):
            return unit
    if name.endswith("_per_call"):
        return "1/call"
    if name.endswith(("_ratio", "_share", "_per_unique")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "ihcmine" / "cli.py").is_file():
        print(f"perfbench: no src/ihcmine/cli.py under {root}; run from the root of an ihcmine checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / ".perfbench"
    area = work / "runs" / f"{w.name}-s{args.seed}-{os.getpid()}"
    home = area / "home"
    home.mkdir(parents=True)
    spawner = Spawner(root, stage_env(root, home), area / "stages.log")
    bench = None
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        inputs = generate.ensure(w, args.seed, work / "cache")
        bench = Bench(w, inputs, area, spawner)
        if spawner.run([sys.executable, "-c", "import ihcmine.cli"])[0] != 0:  # compiles bytecode once
            raise BenchError(f"cannot import ihcmine.cli (see {spawner.log})")
        bench.sim = SimulatorProcess(inputs / "world.json", spawner.env, area / "simulator.log")

        # The machine's CPU speed drifts over seconds, so the set-up probes are
        # spread over the whole run instead of taken back to back.
        setup: list[float] = []
        kinds = (False, True) if args.trace else (False,)
        min_chains = 2 if args.trace else MIN_CHAINS
        chains: list[dict] = []
        start = time.perf_counter()
        while True:
            if not args.trace:
                setup += bench.setup_probes()
            chains.append(bench.chain(traced=kinds[len(chains) % len(kinds)]))
            now = time.perf_counter()
            per_chain = (now - start) / len(chains)
            if not chains[-1]["ok"] or now - began + per_chain > RUN_LIMIT_S:
                break
            if len(chains) >= min_chains and now - start + per_chain > args.seconds:
                break
        if not args.trace:
            setup += bench.setup_probes()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.kill_current()
        if bench is not None and bench.sim is not None:
            bench.sim.stop()

    metrics, notes = summarize(chains, setup, bool(args.trace))
    failed = sum(not c["ok"] for c in chains)
    env = environment(root, w, args.seed)
    names = sorted({name for c in chains for name in c["checks"]})
    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in names:
        outcomes = [c["checks"][name] for c in chains if name in c["checks"]]
        passed = all(ok for ok, _ in outcomes)
        label = "known-defect" if name in checks.KNOWN_DEFECTS else "check"
        detail = next((d for ok, d in outcomes if not ok), outcomes[-1][1])
        why = f" [{checks.KNOWN_DEFECTS[name]}]" if name in checks.KNOWN_DEFECTS and not passed else ""
        print(f"{label} {name}: {'pass' if passed else 'FAIL'} ({detail}){why}")
    for c in chains:
        if c["failure"]:
            print(f"chain failed: {c['failure']} (see {spawner.log})")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": len(chains), "failed": failed, "metrics": metrics}
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {**result, "env": env, "chains": chains, "setup_s": setup, "notes": notes}
    (results_dir / f"{w.name}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if failed == 0:
        shutil.rmtree(area, ignore_errors=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
