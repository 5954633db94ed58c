"""Import path of :func:`~repro.runtime.ingress.decode_item` that the
frozen benchmark (``benchmarks/e2e/service.py``) uses; the ingress itself
lives in :mod:`repro.runtime.ingress`."""

from repro.runtime.ingress import decode_item

__all__ = ["decode_item"]
