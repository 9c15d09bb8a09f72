"""Run the relgnn CLI in this process with spans recorded around calls into each module.

Usage: python3 tracer.py SPANS_JSON -- <relgnn cli arguments>

The program is not changed: each traced name is replaced, in the module or class
where the CLI looks it up, by a wrapper that records a span (name, start, end,
parent) in memory. The spans, a few counters and the minibatch step times are
written to SPANS_JSON when the CLI returns.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import relgnn.cli
import relgnn.models
import relgnn.optim
import relgnn.training

# Forward ops that relgnn.models imports from relgnn.tensor.
OPS = ("matmul", "add", "multiply", "embedding_lookup", "segment_sum", "segment_softmax", "concat")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.step_s: list[float] = []
        self._step_start = 0.0

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        nid = self.ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_step(self) -> None:
        """Time each minibatch from AdamW.zero_grad entry to AdamW.step exit."""
        zero_grad, step = relgnn.optim.AdamW.zero_grad, relgnn.optim.AdamW.step

        def timed_zero_grad(opt):
            self._step_start = perf_counter()
            zero_grad(opt)

        def timed_step(opt):
            step(opt)
            self.step_s.append(perf_counter() - self._step_start)

        relgnn.optim.AdamW.zero_grad = timed_zero_grad
        relgnn.optim.AdamW.step = timed_step

    def install(self) -> None:
        cli, training, models = relgnn.cli, relgnn.training, relgnn.models

        def sampled(datapoints):
            self.count("sampler.calls", 1)
            self.count("sampler.targets", len(datapoints))
            self.count("sampler.nodes_out", sum(dp.num_nodes for dp in datapoints))

        self.wrap_step()
        for attr in ("load_database", "remove_target_column"):
            self.wrap(cli, attr, f"rdb.{attr}")
        self.wrap(cli, "database_to_graph", "graph.database_to_graph")
        self.wrap(cli, "batch_sample", "sampler.batch_sample", sampled)
        self.wrap(cli, "write_datapoints_jsonl", "sampler.write_datapoints_jsonl")
        self.wrap(cli, "fit_encoders", "encode.fit_encoders")
        self.wrap(cli, "single_table_features", "encode.single_table_features")
        self.wrap(models, "encode_node", "encode.encode_node")
        self.wrap(training, "encode_node", "encode.encode_node.single_table")
        self.wrap(training, "build_batch", "models.build_batch",
                  lambda batch: self.count("models.nodes_gathered", batch.num_nodes))
        self.wrap(models.Model, "forward", "models.forward")
        for op in OPS:
            self.wrap(models, op, f"tensor.{op}")
        self.wrap(training, "backward", "tensor.backward")
        self.wrap(relgnn.optim.AdamW, "step", "optim.step")
        self.wrap(relgnn.optim.AdamW, "zero_grad", "optim.zero_grad")
        self.wrap(cli, "train", "training.train")
        self.wrap(training, "train", "training.train")
        self.wrap(cli, "evaluate", "training.evaluate")
        self.wrap(training.GraphDataset, "scores", "training.scores")
        self.wrap(training.TableDataset, "scores", "training.scores")
        self.wrap(training, "auroc", "training.auroc")
        self.wrap(cli, "compute_features", "dfs.compute_features")
        self.wrap(cli, "fit_feature_encoders", "dfs.fit_feature_encoders")
        self.wrap(cli, "apply_feature_encoders", "dfs.apply_feature_encoders")

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in zip(self.name_of, self.parent, self.start, self.end)],
            "counters": self.counters,
            "step_s": self.step_s,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <relgnn cli arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    try:
        code = relgnn.cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(recorder.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
