"""The repo's one benchmark lives in ``benchmarks/e2e`` (see its README)."""
