"""Property: observation never changes what the engine computes.

Across random streams/queries and the mode × parallel × resilient
composition matrix, a ``build_engine`` stack with observability enabled
must emit exactly what the untraced serial engine emits — and actually
record the run (every emission is covered by an ``evaluate`` root span).
"""

from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.runtime import Ingress, PoolExecutor
from repro.seraph import SeraphEngine

from .test_prop_parallel import _run_serial, scenario


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


def _run_traced(elements, texts, engine):
    for text in texts:
        engine.register(text)
    engine.run_stream(elements)
    return [
        e.render()
        for index in range(len(texts))
        for e in engine.sink(f"q{index}").emissions
    ]


@given(data=scenario(), parallel=st.booleans(), resilient=st.booleans())
@settings(max_examples=25, deadline=None)
def test_traced_stack_is_emission_equal_to_the_untraced_serial_engine(
    data, parallel, resilient, pool
):
    elements, texts, reference = data
    baseline = _run_serial(elements, texts, reference)
    engine = SeraphEngine(
        reference=reference,
        obs=Observability.create(),
        ingress=Ingress() if resilient else None,
        # The module pool, not one spawned per example.
        executor=PoolExecutor(2, pool=pool, offload_threshold=0.0)
        if parallel else None,
    )
    assert _run_traced(elements, texts, engine) == baseline
    tracer = engine.obs.tracer
    evaluates = [root for root in tracer.roots if root.name == "evaluate"]
    assert len(evaluates) == len(baseline)
    assert all(span.end is not None for span in evaluates)
    assert engine.obs.registry.counter("engine.evaluations").value \
        == len(baseline)
