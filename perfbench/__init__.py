"""perfbench — the repo's offload benchmark.

One command (``python -m perfbench run``) measures the real offload path
end to end and layer by layer, from outside, through the public API
only. It claims no gain: it is the instrument later claims are measured
with. See ``perfbench/README.md`` for the run protocol and
``perfbench/spec.py`` for every workload and metric name.
"""
