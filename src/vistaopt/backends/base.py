"""Generation backend contract shared by the synthetic world and the HTTP
chat-completions client."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Protocol, runtime_checkable

ROLES = ("base", "hypothesis_agent", "reflection_agent")

# Default sampling for base-role requests against Qwen-style local models.
QWEN_BASE_SAMPLING = MappingProxyType({
    "temperature": 0.6,
    "top_p": 0.95,
    "top_k": 20,
    "min_p": 0,
    "presence_penalty": 1.5,
})


@dataclass(frozen=True)
class GenerationRequest:
    """One generation call.

    ``extras`` holds hints for scripted backends (e.g. ``slot_origins`` for
    the synthetic hypothesis agent); the HTTP backend sends none of them.
    """

    role: str
    messages: tuple[tuple[str, str], ...]
    extras: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.messages:
            raise ValueError("messages must be non-empty")

    def text(self) -> str:
        return "\n".join(content for _speaker, content in self.messages)


@runtime_checkable
class Backend(Protocol):
    def generate(self, request: GenerationRequest) -> str:
        """Return the response text for one generation request.

        Must be safe for concurrent invocation up to ``max_parallel``,
        unless the backend declares ``in_process = True`` (it is then called
        serially).  A backend that declares ``deterministic = True`` promises
        the same text for the same request, so the evaluator generates each
        base (prompt, item) pair once per run.  Both are read per role, from
        the backend serving the role (``declared``).  Budget exhaustion is
        never signalled here; the budget meters metric calls, not generations.
        """
        ...


class RoleRouter:
    """Dispatch requests to per-role backends, e.g. a synthetic base model
    with HTTP-backed agents.  It declares nothing itself: each role's
    requests run as that role's backend declares."""

    def __init__(self, default: Backend, **per_role: Backend):
        unknown = set(per_role) - set(ROLES)
        if unknown:
            raise ValueError(f"unknown roles: {sorted(unknown)}")
        self._backends = {role: per_role.get(role, default) for role in ROLES}

    def generate(self, request: GenerationRequest) -> str:
        return self._backends[request.role].generate(request)


def declared(backend: Backend, name: str, role: str) -> bool:
    """Whether the backend serving ``role`` declares ``name`` (``in_process``
    or ``deterministic``): a router's backend for that role, else ``backend``."""
    if isinstance(backend, RoleRouter):
        backend = backend._backends[role]
    return getattr(backend, name, False)
