"""The set-up every relgnn subcommand pays before its per-target work.

Usage: python3 setup_probe.py DATASET_DIR

The benchmark times this process from spawn to exit: interpreter start, importing
the CLI (which imports every relgnn module), loading the dataset, masking the
target column and building the graph.
"""
import sys

import relgnn.cli  # noqa: F401  every subcommand imports the whole CLI
from relgnn.graph import database_to_graph
from relgnn.rdb import load_database, remove_target_column

if __name__ == "__main__":
    graph = database_to_graph(remove_target_column(load_database(sys.argv[1])))
    print(graph.num_nodes)
