"""relgnn benchmark: drives the real `relgnn` CLI, one fresh process per invocation.

Usage, from the root of a checkout that holds src/relgnn:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's dataset from --seed with
relgnn.synth.generate; the CLI only ever sees the generated files. It then runs
the workload's invocations back to back (a closed loop with one client) until
--seconds have passed, each iteration followed by one set-up probe
(setup_probe.py) and one run of reference.py, and checks every output
(checks.py). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every metric
with its unit, the raw times and the environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 alternates
untraced iterations with iterations run under tracer.py, which records spans
around calls into each relgnn module, and reports the per-layer metrics.

Children are started by spawner.py with BLAS threads pinned to 1. Work files,
spans and result.json go to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Tally, check_datapoints, check_report, sha256_file  # noqa: E402

BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_LIMIT_S = 170.0  # a run must exit within 180 s, so no invocation may run past this
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0  # the default seed; recorded outputs are compared only on this seed
AUROC_TOLERANCE = 1e-3  # per-fold test AUROC may drift this far from the recorded value
# Times are reported in reference seconds: wall time x REFERENCE_S / the wall time of
# reference.py measured right before and after. The host's speed drifts by up to 2x over
# minutes, which no run length averages out; the ratio to the reference cancels it.
REFERENCE_S = 0.4


@dataclass(frozen=True)
class Dataset:
    template: str
    signal: str
    n_targets: int
    children: tuple[int, int]
    signal_table: str  # the table whose `amount` sum decides the label

    def quarter(self) -> "Dataset":
        return Dataset(self.template, self.signal, self.n_targets // 4, self.children, self.signal_table)


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]  # subcommand first; --dataset and --out are added
    folds: int = 0  # train only
    samples: bool = True  # runs the subgraph sampler


@dataclass(frozen=True)
class Workload:
    dataset: Dataset
    invocations: tuple[Invocation, ...]


# Deep three-level closure: each target reaches its children and grandchildren.
DEEP = Dataset("three_level", "grandchild_aggregate", 3000, (1, 4), "Grand")
# Shallow subgraphs (about 4.5 nodes each), so model code rather than sampling dominates training.
SHALLOW = Dataset("parent_child", "child_aggregate", 1000, (1, 6), "Child")
# --patience equals --max-epochs, so early stopping never changes the amount of work.
GNN_FLAGS = ("--folds", "2", "--max-epochs", "3", "--patience", "3", "--lr", "0.01")
DFS_FLAGS = ("--folds", "5", "--max-epochs", "20", "--patience", "20")

WORKLOADS = {
    # The sampler's workload: no encoder, autodiff or model code runs.
    "sample-deep": Workload(DEEP, (Invocation("sample", ("sample",)),)),
    # Encoder, batch building, autodiff, models and optimizer; gcn takes the homogeneous
    # path and ergat the per-edge-type path, so neither model can slow unseen.
    "train-gnn": Workload(SHALLOW, (
        Invocation("train-gcn", ("train", "--model", "gcn", *GNN_FLAGS), folds=2),
        Invocation("train-ergat", ("train", "--model", "ergat", *GNN_FLAGS), folds=2),
    )),
    # Bypasses the sampler and the GNN models; the only workload that runs dfs, and it
    # encodes whole tables instead of gathering per batch.
    "train-dfs": Workload(DEEP, (
        Invocation("train-dfs-logreg", ("train", "--model", "dfs-logreg", *DFS_FLAGS), folds=5, samples=False),
    )),
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("test_auroc", "ratio"),
    ("ok_rate", "ratio"),
]

OPS = ("matmul", "add", "multiply", "embedding_lookup", "segment_sum", "segment_softmax", "concat")
LAYERS = ("rdb", "graph", "sampler", "encode", "models", "tensor", "optim", "training", "dfs")
PER_LAYER = [
    ("rdb.load_s", "s"),
    ("graph.build_s", "s"),
    ("sampler.batch_sample_s", "s"),
    ("sampler.us_per_target", "us"),
    ("sampler.scaling_exponent", "exponent"),
    ("sampler.nodes_out", "count"),
    ("sampler.write_jsonl_s", "s"),
    ("encode.fit_s", "s"),
    ("encode.encode_node_calls", "count"),
    ("encode.cache_hit_ratio", "ratio"),
    ("encode.single_table_s", "s"),
    ("models.build_batch_s", "s"),
    ("models.forward_s.train", "s"),
    ("models.forward_s.score", "s"),
    ("models.forward_ms.p50", "ms"),
    ("models.forward_ms.p99", "ms"),
    ("tensor.backward_s", "s"),
    *[(f"tensor.op_calls.{op}", "count") for op in OPS],
    *[(f"tensor.op_s.{op}", "s") for op in OPS],
    ("optim.step_s", "s"),
    ("training.step_ms.p50", "ms"),
    ("training.step_ms.p99", "ms"),
    ("training.score_s", "s"),
    ("training.auroc_s", "s"),
    ("dfs.compute_features_s", "s"),
    ("dfs.encode_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def make_dataset(ds: Dataset, seed: int, path: Path) -> dict:
    """Write the dataset for `seed` under `path`; return what the output checks expect of it."""
    from relgnn.rdb import target_labels
    from relgnn.synth import SynthSpec, generate

    db = generate(SynthSpec(seed=seed, n_targets=ds.n_targets, template=ds.template,
                            signal=ds.signal, children=ds.children), path)
    signal = db.table_index(ds.signal_table)
    return {
        "target_table": db.target[0],
        "labels": target_labels(db),
        "signal_table": signal,
        "amounts": db.tables[signal].columns[db.tables[signal].column_index("amount")].values,
    }


# ---------------------------------------------------------------------------
# environment


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'none' outside a repository."""
    git = root / ".git"
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
    return "none"


def steal_ticks() -> int:
    """Cumulative `steal` ticks of all CPUs from /proc/stat, or -1 where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


# ---------------------------------------------------------------------------
# spans written by tracer.py


def summarize_spans(doc: dict) -> dict:
    """Busy time, self time and call count per span name, plus the pieces the metrics split."""
    names = doc["names"]
    spans = doc["spans"]
    duration = [end - start for _, _, start, end in spans]
    children = [0.0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    forward = {"train": 0.0, "score": 0.0}
    forward_ms = []
    root = 0.0
    for i, (nid, parent, _, _) in enumerate(spans):
        name = names[nid]
        busy[name] = busy.get(name, 0.0) + duration[i]
        own[name] = own.get(name, 0.0) + duration[i] - children[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            root += duration[i]
        if name == "models.forward":
            forward_ms.append(duration[i] * 1e3)
            up = parent
            while up >= 0 and names[spans[up][0]] != "training.scores":
                up = spans[up][1]
            forward["score" if up >= 0 else "train"] += duration[i]
    return {"busy": busy, "self": own, "calls": calls, "forward": forward, "forward_ms": forward_ms,
            "root": root, "counters": doc["counters"], "step_ms": [s * 1e3 for s in doc["step_s"]]}


def percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_iteration_metrics(summaries: list[tuple[float, dict]]) -> tuple[dict, list, list]:
    """Per-layer metrics of one traced iteration from (wall, span summary) per invocation."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    forward = {"train": 0.0, "score": 0.0}
    forward_ms, step_ms = [], []
    wall = root = 0.0
    for invocation_wall, s in summaries:
        wall += invocation_wall
        root += s["root"]
        for into, src in ((busy, s["busy"]), (own, s["self"]), (calls, s["calls"]), (counters, s["counters"])):
            for key, value in src.items():
                into[key] = into.get(key, 0) + value
        for key in forward:
            forward[key] += s["forward"][key]
        forward_ms += s["forward_ms"]
        step_ms += s["step_ms"]

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    targets = counters.get("sampler.targets", 0)
    gathered = counters.get("models.nodes_gathered", 0)
    m = {
        "rdb.load_s": b("rdb.load_database", "rdb.remove_target_column"),
        "graph.build_s": b("graph.database_to_graph"),
        "sampler.batch_sample_s": b("sampler.batch_sample"),
        "sampler.us_per_target": b("sampler.batch_sample") / targets * 1e6 if targets else 0.0,
        "sampler.nodes_out": counters.get("sampler.nodes_out", 0),
        "sampler.write_jsonl_s": b("sampler.write_datapoints_jsonl"),
        "encode.fit_s": b("encode.fit_encoders"),
        "encode.encode_node_calls": calls.get("encode.encode_node", 0),
        "encode.cache_hit_ratio": 1.0 - calls.get("encode.encode_node", 0) / gathered if gathered else 0.0,
        "encode.single_table_s": b("encode.single_table_features"),
        "models.build_batch_s": b("models.build_batch"),
        "models.forward_s.train": forward["train"],
        "models.forward_s.score": forward["score"],
        "tensor.backward_s": b("tensor.backward"),
        "optim.step_s": b("optim.step"),
        "training.score_s": b("training.scores"),
        "training.auroc_s": b("training.auroc"),
        "dfs.compute_features_s": b("dfs.compute_features"),
        "dfs.encode_s": b("dfs.fit_feature_encoders", "dfs.apply_feature_encoders"),
        "cli.self_s": wall - root,
        "trace.wall_s": wall,
    }
    for op in OPS:
        m[f"tensor.op_calls.{op}"] = calls.get(f"tensor.{op}", 0)
        m[f"tensor.op_s.{op}"] = b(f"tensor.{op}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    m["_self_by_name"] = own
    m["_per_call_sample_s"] = b("sampler.batch_sample") / counters["sampler.calls"] if counters.get("sampler.calls") else 0.0
    m["_targets_per_call"] = targets / counters["sampler.calls"] if counters.get("sampler.calls") else 0
    return m, forward_ms, step_ms


# ---------------------------------------------------------------------------
# the runner


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool, record_golden: bool):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.record_golden = record_golden
        self.started = time.perf_counter()
        self.work = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=root, env=self.env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.tally = Tally()
        self.golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        self.recorded: dict[str, dict] = {}
        self.first_digest: dict[str, str] = {}
        self.first_aurocs: dict[str, list[float]] = {}
        self.planted: dict[str, float] = {}
        self.info = {
            "workload": workload, "seed": seed, "trace": int(trace), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_env": BLAS_ENV, "git_sha": git_sha(root),
        }

        # datasets: the workload's own and, for the traced scaling probe, one at a quarter size
        self.data = {"main": (self.work / "data-main", make_dataset(self.workload.dataset, seed, self.work / "data-main"))}
        if trace and self.samples():
            path = self.work / "data-quarter"
            self.data["quarter"] = (path, make_dataset(self.workload.dataset.quarter(), seed, path))

    def samples(self) -> bool:
        return any(inv.samples for inv in self.workload.invocations)

    # -- processes --------------------------------------------------------

    def spawn(self, argv: list[str], log: Path) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds from spawn to exit, ru_maxrss KiB, exit code)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        self.spawner.stdin.write(json.dumps({"argv": argv, "log": str(log), "timeout": timeout}) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner exited with code {self.spawner.wait()}")
        reply = json.loads(reply)
        return reply["wall_s"], reply["maxrss_kib"], reply["code"]

    def close(self) -> None:
        """Stop the spawner; it waits for its running child, which the timeout bounds."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.spawner.terminate()
            self.spawner.wait()

    def setup_probe(self, tag: str) -> float | None:
        path, _ = self.data["main"]
        wall, _, code = self.spawn([sys.executable, str(HERE / "setup_probe.py"), str(path)],
                                   self.work / f"setup-{tag}.log")
        self.tally.record(f"setup {tag}", [] if code == 0 else [f"exit code {code}"])
        return wall if code == 0 else None

    def invoke(self, inv: Invocation, data_key: str, tag: str, traced: bool):
        """One CLI invocation plus its output checks: (wall, maxrss KiB, spans summary or None, auroc)."""
        data, expect = self.data[data_key]
        out = self.work / f"out-{inv.label}-{data_key}"
        shutil.rmtree(out, ignore_errors=True)
        cli = [inv.args[0], "--dataset", str(data), "--out", str(out), *inv.args[1:]]
        spans_path = self.work / f"spans-{inv.label}-{data_key}-{tag}.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *cli]
        else:
            argv = [sys.executable, "-m", "relgnn.cli", *cli]
        wall, rss, code = self.spawn(argv, self.work / f"{inv.label}-{data_key}-{tag}.log")
        label = f"{inv.label} {data_key} {tag}"
        if code != 0:
            self.tally.record(label, [f"exit code {code}"])
            return wall, rss, None, None
        if inv.args[0] == "sample":
            problems, auroc = self.check_sample(out / "datapoints.jsonl", inv, data_key, expect)
        else:
            problems, auroc = self.check_train(out / "report.json", inv)
        summary = None
        if traced:
            try:
                summary = summarize_spans(json.loads(spans_path.read_text()))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable spans {spans_path.name}: {exc}")
        self.tally.record(label, problems)
        return wall, rss, summary, auroc

    # -- output checks ------------------------------------------------------

    def golden_entry(self, label: str) -> dict | None:
        if self.seed != GOLDEN_SEED or self.record_golden:
            return None
        return self.golden.get(self.name, {}).get(label, {})

    def check_sample(self, path: Path, inv: Invocation, data_key: str, expect: dict):
        try:
            digest = sha256_file(path)
        except OSError as exc:
            return [f"cannot read {path.name}: {exc}"], None
        problems = []
        first = self.first_digest.setdefault(data_key, digest)
        if digest != first:
            problems.append(f"datapoints.jsonl sha256 {digest} differs from this run's first {first}")
        elif data_key not in self.planted:
            found, auroc = check_datapoints(path, expect["target_table"], expect["labels"],
                                            expect["signal_table"], expect["amounts"])
            if found:
                return problems + found, None
            self.planted[data_key] = auroc
        if data_key == "main":
            golden = self.golden_entry(inv.label)
            if golden is not None and golden.get("sha256") != digest:
                problems.append(f"datapoints.jsonl sha256 {digest} is not the recorded {golden.get('sha256')}")
            self.recorded[inv.label] = {"sha256": digest}
        return problems, self.planted.get(data_key)

    def check_train(self, path: Path, inv: Invocation):
        golden = self.golden_entry(inv.label)
        problems, aurocs, mean = check_report(path, inv.folds, None if golden is None else golden.get("test_auroc", []),
                                              AUROC_TOLERANCE)
        first = self.first_aurocs.setdefault(inv.label, aurocs)
        if aurocs != first:
            problems.append(f"per-fold test AUROC {aurocs} differs from this run's first {first}")
        self.recorded[inv.label] = {"test_auroc": aurocs}
        return problems, mean

    # -- iterations ---------------------------------------------------------

    def iteration(self, tag: str, traced: bool) -> dict:
        wall, rss, aurocs, summaries = 0.0, 0, [], []
        for inv in self.workload.invocations:
            w, r, summary, auroc = self.invoke(inv, "main", tag, traced)
            wall += w
            rss = max(rss, r)
            if auroc is not None:
                aurocs.append(auroc)
            if summary is not None:
                summaries.append((w, summary))
        result = {"wall_s": wall, "rss_kib": rss, "auroc": statistics.fmean(aurocs) if aurocs else None}
        if traced and len(summaries) == len(self.workload.invocations):
            result["layers"] = traced_iteration_metrics(summaries)
            if self.samples():
                result["layers"][0]["sampler.scaling_exponent"] = self.scaling_exponent(tag, result["layers"][0])
        return result

    def scaling_exponent(self, tag: str, metrics: dict) -> float:
        """Fit t ~ n^k from batch_sample at the workload's size and at a quarter of it."""
        probe = Invocation("sample", ("sample",))
        _, _, summary, _ = self.invoke(probe, "quarter", tag, traced=True)
        if summary is None:
            return 0.0
        t_small = summary["busy"].get("sampler.batch_sample", 0.0)
        n_small = summary["counters"].get("sampler.targets", 0)
        t_big, n_big = metrics["_per_call_sample_s"], metrics["_targets_per_call"]
        if min(t_small, t_big) <= 0 or n_small <= 0 or n_big <= n_small:
            return 0.0
        return math.log(t_big / t_small) / math.log(n_big / n_small)

    def reference(self, tag: str) -> float | None:
        wall, _, code = self.spawn([sys.executable, str(HERE / "reference.py"), str(self.work / "reference.out")],
                                   self.work / f"reference-{tag}.log")
        self.tally.record(f"reference {tag}", [] if code == 0 else [f"exit code {code}"])
        return wall if code == 0 else None

    def run(self, seconds: float) -> dict:
        """Loop until `seconds` have passed: reference, workload iteration, set-up probe,
        a traced iteration when tracing; then one last reference."""
        steal_before = steal_ticks()
        self.setup_probe("warmup")  # compiles bytecode once; users do not pay that on every run
        deadline = self.started + seconds
        plain, traced, setups, refs = [], [], [], [self.reference("r0")]
        k = 0
        while True:
            loop_start = time.perf_counter()
            plain.append(self.iteration(f"i{k}", traced=False))
            setups.append(self.setup_probe(f"i{k}"))
            if self.trace:
                traced.append(self.iteration(f"t{k}", traced=True))
            refs.append(self.reference(f"r{k + 1}"))
            k += 1
            now = time.perf_counter()
            if now >= deadline or now - self.started + (now - loop_start) > RUN_LIMIT_S - 20:
                break
        self.info["steal_ticks"] = steal_ticks() - steal_before if steal_before >= 0 else -1
        self.info["iterations"] = k
        self.info["measured_s"] = time.perf_counter() - self.started
        # each iteration and its set-up probe are normalised by the references on either side
        for i in range(k):
            around = [r for r in refs[i:i + 2] if r is not None]
            host = statistics.fmean(around) / REFERENCE_S if around else math.nan
            plain[i]["host_factor"] = host
            plain[i]["setup_s"] = setups[i]
        return {"plain": plain, "traced": traced, "refs": [r for r in refs if r is not None]}


# ---------------------------------------------------------------------------
# reporting


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def end_to_end_metrics(runner: Runner, samples: dict) -> tuple[dict, list[str]]:
    plain = samples["plain"]
    walls = [it["wall_s"] / it["host_factor"] for it in plain if math.isfinite(it["host_factor"])]
    setups = [it["setup_s"] / it["host_factor"] for it in plain
              if it["setup_s"] is not None and math.isfinite(it["host_factor"])]
    rss = [it["rss_kib"] / 1024.0 for it in plain]
    aurocs = [it["auroc"] for it in plain if it["auroc"] is not None]
    values = {
        "wall_s": (statistics.median(walls) if walls else math.nan, spread(walls)),
        "setup_s": (statistics.median(setups) if setups else math.nan, spread(setups)),
        "peak_rss_mib": (max(rss), f"max over {len(rss)} iterations"),
        "test_auroc": (statistics.median(aurocs) if aurocs else math.nan, spread(aurocs)),
        "ok_rate": (1.0 - runner.tally.fail_rate,
                    f"{runner.tally.attempted - runner.tally.failed} of {runner.tally.attempted} invocations"),
    }
    lines = [f"{name:14s} {values[name][0]:12.6f} {unit:6s} ({values[name][1]})" for name, unit in END_TO_END]
    lines.append(f"{'fail_rate':14s} {runner.tally.fail_rate:12.6f} {'ratio':6s} "
                 f"({runner.tally.failed} failed of {runner.tally.attempted} invocations)")
    raw_walls = [it["wall_s"] for it in plain]
    raw_setups = [it["setup_s"] for it in plain if it["setup_s"] is not None]
    lines.append(f"wall_s and setup_s are in reference seconds (host speed factor 1 = reference.py takes "
                 f"{REFERENCE_S} s); measured on this host:")
    lines.append(f"{'raw wall_s':14s} {statistics.median(raw_walls):12.6f} {'s':6s} ({spread(raw_walls)})")
    if raw_setups:
        lines.append(f"{'raw setup_s':14s} {statistics.median(raw_setups):12.6f} {'s':6s} ({spread(raw_setups)})")
    if samples["refs"]:
        lines.append(f"{'reference':14s} {statistics.median(samples['refs']):12.6f} {'s':6s} ({spread(samples['refs'])})")
    return {name: values[name][0] for name, _ in END_TO_END}, lines


def per_layer_metrics(samples: dict) -> tuple[dict, list[str]]:
    layered = [it["layers"] for it in samples["traced"] if "layers" in it]
    if not layered:
        return {name: math.nan for name, _ in PER_LAYER}, ["no traced iteration completed"]
    values = {}
    for name, _ in PER_LAYER:
        present = [m[name] for m, _, _ in layered if name in m]
        values[name] = statistics.median(present) if present else 0.0  # 0: the layer was not called
    forward_ms = [x for _, f, _ in layered for x in f]
    step_ms = [x for _, _, s in layered for x in s]
    values["models.forward_ms.p50"] = percentile(forward_ms, 50)
    values["models.forward_ms.p99"] = percentile(forward_ms, 99)
    values["training.step_ms.p50"] = percentile(step_ms, 50)
    values["training.step_ms.p99"] = percentile(step_ms, 99)
    plain = [it["wall_s"] for it in samples["plain"]]
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)

    units = dict(PER_LAYER)
    lines = [f"{name:30s} {values[name]:14.6f} {units[name]}" for name, _ in PER_LAYER]
    lines.append(f"(traced iterations: {len(layered)}; {len(forward_ms)} forward calls, {len(step_ms)} minibatch steps)")
    self_by_name: dict[str, list[float]] = {}
    for m, _, _ in layered:
        for name, v in m["_self_by_name"].items():
            self_by_name.setdefault(name, []).append(v)
    lines.append("self time per traced name (median over traced iterations):")
    for name, v in sorted(self_by_name.items(), key=lambda kv: -statistics.median(kv[1])):
        lines.append(f"  {name:40s} {statistics.median(v):10.4f} s")
    for i, (m, _, _) in enumerate(layered):
        layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        lines.append(f"accounting, traced iteration {i}: layer self times {layer_self:.4f} s + cli.self_s "
                     f"{m['cli.self_s']:.4f} s = {layer_self + m['cli.self_s']:.4f} s; traced wall {m['trace.wall_s']:.4f} s")
    return values, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relgnn benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"write this run's outputs to golden.json (seed {GOLDEN_SEED} only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "relgnn" / "cli.py").is_file():
        print(f"error: {root} holds no src/relgnn/cli.py; run from the root of a relgnn checkout",
              file=sys.stderr)
        return 2
    if args.record_golden and args.seed != GOLDEN_SEED:
        print(f"error: goldens are recorded on seed {GOLDEN_SEED} only", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    runner = Runner(root, args.workload, args.seed, bool(args.trace), args.record_golden)
    try:
        samples = runner.run(args.seconds)
    finally:
        runner.close()

    e2e, e2e_lines = end_to_end_metrics(runner, samples)
    print("environment: " + json.dumps(runner.info, sort_keys=True))
    for line in e2e_lines:
        print(line)
    metrics, units = e2e, dict(END_TO_END)
    if args.trace:
        metrics, layer_lines = per_layer_metrics(samples)
        units = dict(PER_LAYER)
        for line in layer_lines:
            print(line)
    for problem in runner.tally.problems:
        print(f"FAILED {problem}")

    if args.record_golden:
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        golden[args.workload] = runner.recorded
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")

    (runner.work / "result.json").write_text(json.dumps(
        {"environment": runner.info, "metrics": metrics, "problems": runner.tally.problems,
         "iterations": samples["plain"], "references": samples["refs"]}, indent=2))
    result = {
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        # a metric that could not be measured reads 0; the run then also counts failures
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0, "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
