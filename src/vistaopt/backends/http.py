"""Chat-completions HTTP client with bounded retry and exponential backoff.

Speaks the ubiquitous wire shape (model, messages, sampling fields) with
bearer-token auth from an environment variable; the base URL covers both
hosted APIs and local servers.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import warnings

import requests

from ..errors import InvalidConfigError, TransportFailureError
from .base import QWEN_BASE_SAMPLING, GenerationRequest

logger = logging.getLogger(__name__)

API_KEY_ENV = "VISTAOPT_API_KEY"
BASE_URL_ENV = "VISTAOPT_BASE_URL"

RETRYABLE_STATUS = (429, 500, 502, 503, 504)


class HttpBackend:
    """One chat-completion round trip per generate(), with bounded retries
    on transport failure; the evaluator's pool caps concurrency."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "qwen3-4b",
        role_models: dict[str, str] | None = None,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        max_in_flight: int | None = None,
    ):
        base_url = base_url or os.environ.get(BASE_URL_ENV)
        if not base_url:
            raise InvalidConfigError([f"base_url required (or set {BASE_URL_ENV})"])
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.role_models = dict(role_models or {})
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        if max_in_flight is not None:
            warnings.warn("max_in_flight is deprecated and ignored; max_parallel is the "
                          "one concurrency limit", DeprecationWarning, stacklevel=2)
        self.requests_sent = 0
        self.retries = 0
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, section: dict) -> "HttpBackend":
        known = {"base_url", "model", "role_models", "timeout", "max_retries",
                 "backoff_base", "max_in_flight"}
        return cls(**{k: v for k, v in section.items() if k in known})

    def _model_for(self, role: str) -> str:
        return self.role_models.get(role, self.model)

    def _body(self, request: GenerationRequest) -> dict:
        model = self._model_for(request.role)
        body: dict = {
            "model": model,
            "messages": [{"role": speaker, "content": content}
                         for speaker, content in request.messages],
        }
        if request.role == "base" and "qwen" in model.lower():
            body.update(QWEN_BASE_SAMPLING)
        if request.sampling:
            body.update(request.sampling)
        wire_extras = request.extras.get("wire")
        if isinstance(wire_extras, dict):
            body.update(wire_extras)
        return body

    def generate(self, request: GenerationRequest) -> str:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = self._body(request)
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                delay = self.backoff_base * 2 ** (attempt - 1)
                time.sleep(delay)
                with self._lock:
                    self.retries += 1
            try:
                with self._lock:
                    self.requests_sent += 1
                response = requests.post(url, json=body, headers=headers,
                                         timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("transport error (attempt %d): %s", attempt + 1, exc)
                continue
            if response.status_code in RETRYABLE_STATUS:
                last_error = TransportFailureError(
                    f"server returned {response.status_code}")
                logger.warning("retryable status %d (attempt %d)",
                               response.status_code, attempt + 1)
                continue
            if response.status_code >= 400:
                raise TransportFailureError(
                    f"request failed with status {response.status_code}: "
                    f"{response.text[:200]}")
            try:
                payload = response.json()
                return payload["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportFailureError(f"malformed completion body: {exc}") from exc
        raise TransportFailureError(
            f"gave up after {self.max_retries + 1} attempts: {last_error}")
