"""Host-time benchmark of the repro simulator stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload as a closed loop in fresh processes;
``python3 perfbench/run.py compare <base dir> <new dir>`` compares two
sets of saved results. See :mod:`perfbench.run`.
"""
