"""Multi-tenant continuous-query service over the engine front door.

``python -m repro serve`` boots a dependency-free asyncio HTTP/1.1
server (:mod:`repro.service.server`) in front of
:func:`repro.build_engine`: per-tenant namespaces with quotas and
token-bucket admission (:mod:`~repro.service.tenants`,
:mod:`~repro.service.admission`), bearer-token auth
(:mod:`~repro.service.auth`), SSE emission streams with heartbeats,
``Last-Event-ID`` resume, and slow-consumer circuit breakers
(:mod:`~repro.service.sse`), plus tenant checkpoint/restore riding the
PR 1 checkpoint format.  Full contract in docs/SERVICE.md.
"""

from repro.service.admission import TokenBucket
from repro.service.auth import Authenticator, parse_bearer
from repro.service.client import ServiceClient, ServiceResponse, SseEvent
from repro.service.server import (
    SeraphService,
    ServiceConfig,
    engine_config_from_dict,
    run_service,
    tenant_spec_from_dict,
)
from repro.service.sse import (
    EmissionLog,
    ServiceSink,
    emission_document,
    emission_json,
    format_event,
)
from repro.service.tenants import (
    TENANT_CHECKPOINT_VERSION,
    TenantManager,
    TenantQuotas,
    TenantSpec,
    TenantState,
)

__all__ = [
    "TENANT_CHECKPOINT_VERSION",
    "Authenticator",
    "EmissionLog",
    "SeraphService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceSink",
    "SseEvent",
    "TenantManager",
    "TenantQuotas",
    "TenantSpec",
    "TenantState",
    "TokenBucket",
    "emission_document",
    "emission_json",
    "engine_config_from_dict",
    "format_event",
    "parse_bearer",
    "run_service",
    "tenant_spec_from_dict",
]
