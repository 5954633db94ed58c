"""Baselines: the Cypher polling workaround (Section 3.3)."""

from repro.baselines.polling import CypherPollingBaseline, PollResult

__all__ = [
    "CypherPollingBaseline",
    "PollResult",
]
