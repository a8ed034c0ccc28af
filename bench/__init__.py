"""The repository's one benchmark: DKG wall time and gateway signing on
five workloads, attributed layer by layer.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the contract in
``BENCHMARK.json``); ``python3 -m bench`` without ``--workload`` runs
all five, each in a fresh subprocess; ``python3 -m bench compare A B``
judges two result files.  See ``bench/README.md``.
"""
