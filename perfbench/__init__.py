"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

See ``perfbench/run.py`` for the command line and the output contract.
"""
