from .base import Backend, GenerationRequest, RoleRouter
from .synthetic import (
    SyntheticBackend,
    SyntheticWorldConfig,
    extract_features,
    make_synthetic_dataset,
    prompt_skill,
    synthetic_base_answer,
    synthetic_reflect,
)

__all__ = [
    "Backend",
    "GenerationRequest",
    "RoleRouter",
    "HttpBackend",
    "SyntheticBackend",
    "SyntheticWorldConfig",
    "extract_features",
    "make_synthetic_dataset",
    "prompt_skill",
    "synthetic_base_answer",
    "synthetic_reflect",
]


def __getattr__(name: str):  # HttpBackend brings requests, ssl and http.client: load on use
    if name == "HttpBackend":
        from .http import HttpBackend
        return HttpBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), "HttpBackend"])
