"""Chat-completions HTTP client with bounded retry and jittered backoff.

Speaks the ubiquitous wire shape (model, messages, sampling fields) with
bearer-token auth from an environment variable; the base URL covers both
hosted APIs and local servers.

Transport: picked once, at construction.  A plain ``http://`` URL to which
``requests`` would add nothing from the environment (no proxy from
``*_proxy``/``NO_PROXY``, no netrc entry, no credentials in the URL) is
posted with ``http.client``, sending the body bytes and headers ``requests``
would, at a quarter of its client CPU, on kept-alive connections: one per
concurrent caller until ``close()``; one closed while idle is replaced once,
not as a retry.  ``TCP_QUICKACK`` before each reply spares a server that
sends headers and body apart with Nagle on (RFC 896) a ~40 ms wait for the
delayed ACK (RFC 1122 §4.2.3.2); without it a connection serves one reply.
HTTPS, proxied and netrc URLs go through ``requests.post``.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import random
import socket
import threading
import time
import warnings
import zlib
from typing import Annotated
from urllib.parse import urlsplit

import requests

from ..domain import Range, check_config
from ..errors import InvalidConfigError, TransportFailureError
from .base import QWEN_BASE_SAMPLING, GenerationRequest

logger = logging.getLogger(__name__)

API_KEY_ENV = "VISTAOPT_API_KEY"
BASE_URL_ENV = "VISTAOPT_BASE_URL"

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
RETRY_AFTER_STATUS = (429, 503)


def _direct_route(url: str) -> tuple[str, int | None, str] | None:
    """Host, port and request target of ``url`` as ``requests`` would send
    it, when that is a plain ``http://`` request it would add nothing to from
    the environment or from credentials in the URL; else None."""
    try:
        prepared = requests.Request("POST", url).prepare()
    except requests.RequestException:
        return None
    parts = urlsplit(prepared.url)
    if (parts.scheme != "http" or parts.username is not None
            or requests.utils.get_environ_proxies(prepared.url)
            or requests.utils.get_netrc_auth(prepared.url) is not None):
        return None
    return parts.hostname, parts.port, prepared.path_url


class HttpBackend:
    """One chat-completion round trip per generate(), with bounded retries
    on transport failure; the evaluator's pool caps concurrency."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "qwen3-4b",
        role_models: dict[str, str] | None = None,
        timeout: Annotated[float, Range(exclusiveMinimum=0)] = 120.0,
        max_retries: Annotated[int, Range(minimum=0)] = 3,
        backoff_base: Annotated[float, Range(minimum=0)] = 0.5,
        max_in_flight: int | None = None,
        *,
        api_key: str | None = None,  # keyword-only, so never a config key
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
        self._url = f"{self.base_url}/chat/completions"
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._route = _direct_route(self._url)
        self._keep_alive = hasattr(socket, "TCP_QUICKACK")
        self._idle: list[http.client.HTTPConnection] = []
        # requests' defaults, with the encodings ``_post`` decodes (requests
        # adds br and zstd when their packages are installed).
        self._direct_headers = {**requests.utils.default_headers(),
                                "Accept-Encoding": "gzip, deflate", **self._headers}

    @classmethod
    def from_config(cls, section: dict) -> "HttpBackend":
        """Build from a config's ``http`` section, checked against ``__init__``."""
        return cls(**check_config(section, [("", cls.__init__)])[0])

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

    def _post(self, body: dict) -> tuple[int, str | None, bytes]:
        """One attempt: status, Retry-After header and decoded body bytes."""
        if self._route is None:
            response = requests.post(self._url, json=body, headers=self._headers,
                                     timeout=self.timeout)
            return response.status_code, response.headers.get("Retry-After"), response.content
        payload = json.dumps(body, allow_nan=False).encode()
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            try:
                response = self._exchange(connection, payload) if connection else None
            except (ConnectionResetError, BrokenPipeError):  # closed while idle: resend once
                connection.close()
                response = None
            if response is None:
                connection = http.client.HTTPConnection(*self._route[:2], timeout=self.timeout)
                response = self._exchange(connection, payload)
            content = response.read()
        except BaseException:
            if connection is not None:
                connection.close()
            raise
        if self._keep_alive and not response.will_close:
            with self._lock:
                self._idle.append(connection)
        else:
            connection.close()
        if response.getheader("Content-Encoding", "").lower() in ("gzip", "deflate"):
            content = zlib.decompress(content, zlib.MAX_WBITS | 32)  # gzip or zlib wrapper
        return response.status, response.getheader("Retry-After"), content

    def _exchange(self, connection, payload: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._route[2], payload, self._direct_headers)
        if self._keep_alive:  # the kernel clears it again, so set it per reply
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return connection.getresponse()

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._lock:
            while self._idle:
                self._idle.pop().close()

    def _retry_delay(self, retry: int, retry_after: str | None) -> float:
        """Seconds before retry number ``retry``: a Retry-After given in
        seconds, capped at the timeout (RFC 9110 §10.2.3), else full-jitter
        exponential backoff.  Timing only, so not drawn from a run stream."""
        try:
            seconds = float(retry_after)
        except (TypeError, ValueError):  # absent, or an HTTP-date
            seconds = -1.0
        if seconds >= 0:  # false for NaN
            return min(seconds, self.timeout)
        return random.uniform(0, self.backoff_base * 2 ** (retry - 1))

    def generate(self, request: GenerationRequest) -> str:
        body = self._body(request)
        last_error: Exception | None = None
        retry_after: str | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(self._retry_delay(attempt, retry_after))
                with self._lock:
                    self.retries += 1
            retry_after = None
            try:
                with self._lock:
                    self.requests_sent += 1
                status, header, content = self._post(body)
            # requests wraps a bad header value or a non-JSON body (ValueError)
            # and an undecodable body (zlib.error) as RequestException.
            except (requests.RequestException, OSError, http.client.HTTPException,
                    ValueError, zlib.error) as exc:
                last_error = exc
                logger.warning("transport error (attempt %d): %s", attempt + 1, exc)
                continue
            if status in RETRYABLE_STATUS:
                last_error = TransportFailureError(f"server returned {status}")
                logger.warning("retryable status %d (attempt %d)", status, attempt + 1)
                if status in RETRY_AFTER_STATUS:
                    retry_after = header
                continue
            if status >= 400:
                raise TransportFailureError(
                    f"request failed with status {status}: "
                    f"{content.decode('utf-8', 'replace')[:200]}")
            try:
                text = json.loads(content)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportFailureError(f"malformed completion body: {exc}") from exc
            if not isinstance(text, str):
                raise TransportFailureError(
                    f"malformed completion body: content is {type(text).__name__}")
            return text
        raise TransportFailureError(
            f"gave up after {self.max_retries + 1} attempts: {last_error}")
