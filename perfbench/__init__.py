"""The repository benchmark (see NOTES.md and BENCHMARK.json at the repo root)."""

#: Thread-count variables the benchmark pins to 1 before NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
