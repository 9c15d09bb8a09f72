"""Byte-identity check between two checkouts of relgnn.

    python tools/compare_outputs.py PARENT_CHECKOUT CHANGE_CHECKOUT

Runs one command matrix once per checkout, each command a fresh `python -m relgnn.cli` process whose
PYTHONPATH is that checkout's `src`, in a directory of its own. It synthesizes two 300-target datasets
(three_level with seed 5 and 1-3 children, parent_child with seed 7), then runs on each of them
validate, graph-stats, sample (plain and --edge-type-once), dfs, and train with all ten models
(--folds 2 --max-epochs 3 --patience 3, GNNs at --hidden 8) followed by eval --fold 1. It also runs
the built-in gradcheck, gradcheck on tests/fixtures/clinic at --hidden 2, and dfs --depth 6 on
tests/fixtures/employees, whose foreign key references its own table. Every path a command
reads or writes is relative to its run directory, so outputs that name a path read the same on both
sides.

It then compares the two output trees, each command's stdout included, leaving out manifest.json
and log.txt, which record paths and times. It prints each file that differs or exists on one side
only, and exits 1 if there is one, 0 otherwise. A command that fails stops the run with exit 2.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GNNS = ("gcn", "gin", "gat", "ergcn", "ergin", "ergat", "poolmlp")
MODELS = GNNS + ("logreg", "mlp", "dfs-logreg")
DATASETS = {
    "three_level": ["--template", "three_level", "--seed", "5", "--children", "1", "3"],
    "parent_child": ["--template", "parent_child", "--seed", "7"],
}
SKIPPED = {"manifest.json", "log.txt"}
FIXTURES = ("clinic", "employees")  # each side runs on its copy of its own tests/fixtures/<name> under data/


def command_matrix() -> list[tuple[str, list[str]]]:
    """(name, relgnn arguments) in run order; the name is also the file that keeps the command's stdout."""
    commands = [(f"synth_{name}", ["synth", "--out", f"data/{name}", "--targets", "300", *flags])
                for name, flags in DATASETS.items()]
    for name in DATASETS:
        data = ["--dataset", f"data/{name}"]
        commands += [
            (f"validate_{name}", ["validate", *data, "--out", f"out/{name}/validate"]),
            (f"graph_stats_{name}", ["graph-stats", *data, "--out", f"out/{name}/graph_stats"]),
            (f"sample_{name}", ["sample", *data, "--out", f"out/{name}/sample"]),
            (f"sample_once_{name}", ["sample", *data, "--out", f"out/{name}/sample_once", "--edge-type-once"]),
            (f"dfs_{name}", ["dfs", *data, "--out", f"out/{name}/dfs"]),
        ]
        for model in MODELS:
            run = f"out/{name}/train_{model}"
            hidden = ["--hidden", "8"] if model in GNNS else []
            commands += [
                (f"train_{model}_{name}", ["train", *data, "--out", run, "--model", model, "--folds", "2",
                                           "--max-epochs", "3", "--patience", "3", *hidden]),
                (f"eval_{model}_{name}", ["eval", *data, "--run", run, "--fold", "1", "--out", f"{run}_eval"]),
            ]
    commands += [
        ("gradcheck", ["gradcheck", "--out", "out/gradcheck"]),
        ("gradcheck_clinic", ["gradcheck", "--dataset", "data/clinic", "--hidden", "2",
                              "--out", "out/gradcheck_clinic"]),
        ("dfs_employees", ["dfs", "--dataset", "data/employees", "--depth", "6", "--out", "out/employees/dfs"]),
    ]
    return commands


def run_matrix(checkout: Path, workdir: Path) -> None:
    """Every command of the matrix with `checkout`'s relgnn, its outputs under `workdir`."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    (workdir / "stdout").mkdir(parents=True)
    for name in FIXTURES:
        shutil.copytree(checkout / "tests" / "fixtures" / name, workdir / "data" / name)
    for name, argv in command_matrix():
        proc = subprocess.run([sys.executable, "-m", "relgnn.cli", *argv], cwd=workdir, env=env,
                              capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(f"{checkout}: relgnn {' '.join(argv)} exited {proc.returncode}\n")
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(2)
        (workdir / "stdout" / f"{name}.txt").write_bytes(proc.stdout)


def tree_files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file() and p.name not in SKIPPED}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    checkouts = [Path(a).resolve() for a in argv]
    for checkout in checkouts:
        if not (checkout / "src" / "relgnn" / "cli.py").is_file():
            sys.stderr.write(f"{checkout} is not a relgnn checkout: it has no src/relgnn/cli.py\n")
            return 2
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        trees = [Path(tmp) / side for side in ("parent", "change")]
        for checkout, tree in zip(checkouts, trees):
            run_matrix(checkout, tree)
        before, after = tree_files(trees[0]), tree_files(trees[1])
        differing = [name for name in sorted(before.keys() | after.keys())
                     if name not in before or name not in after
                     or before[name].read_bytes() != after[name].read_bytes()]
        for name in differing:
            side = " (parent only)" if name not in after else " (change only)" if name not in before else ""
            print(f"differs: {name}{side}")
        print(f"{len(before.keys() | after.keys())} files compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
