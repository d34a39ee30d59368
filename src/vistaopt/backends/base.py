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

    ``sampling`` holds optional overrides; ``extras`` is an opaque map:
    ``extras["wire"]`` is passed through to the HTTP body (e.g. fields with
    no portable name), other keys are hints for scripted backends (e.g.
    ``slot_origins`` for the synthetic hypothesis agent).
    """

    role: str
    messages: tuple[tuple[str, str], ...]
    sampling: Mapping[str, float] | None = None
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
        base (prompt, item) pair once per run.  Budget exhaustion is never
        signalled here; the budget meters metric calls, not generations.
        """
        ...


class RoleRouter:
    """Dispatch requests to per-role backends, e.g. a synthetic base model
    with HTTP-backed agents.  It declares ``in_process`` and ``deterministic``
    as its base-role backend does, so with a synthetic base, HTTP reflections run one at a time."""

    def __init__(self, default: Backend, **per_role: Backend):
        unknown = set(per_role) - set(ROLES)
        if unknown:
            raise ValueError(f"unknown roles: {sorted(unknown)}")
        self._default = default
        self._per_role = per_role
        base = per_role.get("base", default)
        self.in_process = getattr(base, "in_process", False)
        self.deterministic = getattr(base, "deterministic", False)

    def generate(self, request: GenerationRequest) -> str:
        backend = self._per_role.get(request.role, self._default)
        return backend.generate(request)
