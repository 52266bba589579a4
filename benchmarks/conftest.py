"""Shared benchmark configuration.

Each benchmark runs one ablation or extension study and asserts its
outcome (captured with ``pytest -s``). The paper's own tables and
figures are not here: their sizes and claims live in the experiment
modules (``SCALES``/``CLAIMS``), checked by ``python -m repro all``.
"""


def once(benchmark, func, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
