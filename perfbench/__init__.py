"""SecurityKG performance benchmark: one ruler, three workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload end to end through SecurityKG's
public API; see ``perfbench/README.md`` for the workloads, the metric
catalogue and the layer -> end-to-end -> workload map.
"""
