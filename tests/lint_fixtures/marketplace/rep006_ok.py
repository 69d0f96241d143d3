"""REP006 no-fire fixture: a branched flag that the matrix exercises.

``use_vectorized_step`` is branched on here and appears in the repo's
real flag-matrix tests (tests/test_perf_regression.py /
benchmarks/bench_perf_engine.py), which the linter discovers by walking
up to pyproject.toml.
"""


class ToyEngine:
    def __init__(self, use_vectorized_step: bool = True) -> None:
        self.fleet = object() if use_vectorized_step else None
