"""Chat-completions HTTP client with bounded retry and jittered backoff.

Speaks the ubiquitous wire shape (model, messages, sampling fields) with
bearer-token auth from an environment variable; the base URL covers both
hosted APIs and local servers.

Transport: one route, worked out at construction as ``requests`` would send
the request (headers, netrc or URL credentials, proxy, CA bundle).  Every
attempt goes by ``http.client`` over kept-alive connections, one per
concurrent caller until ``close()``, and through a proxy to HTTPS by CONNECT;
one closed while idle is replaced once, not as a retry.  ``TCP_QUICKACK``
before each reply spares a server that sends headers and body apart with
Nagle on (RFC 896) a ~40 ms delayed-ACK wait (RFC 1122 §4.2.3.2).
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import random
import socket
import ssl
import threading
import time
import warnings
import zlib
from types import SimpleNamespace
from typing import Annotated
from urllib.parse import urlsplit

import requests

from ..domain import Range
from ..errors import InvalidConfigError, TransportFailureError
from .base import QWEN_BASE_SAMPLING, GenerationRequest

logger = logging.getLogger(__name__)

API_KEY_ENV = "VISTAOPT_API_KEY"
BASE_URL_ENV = "VISTAOPT_BASE_URL"

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
RETRY_AFTER_STATUS = (429, 503)


class HttpBackend:
    """One chat-completion round trip per generate(), with bounded retries
    on transport failure; the evaluator's pool caps concurrency."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "qwen3-4b",
        role_models: dict[str, str] | None = None,
        timeout: Annotated[float, Range(exclusiveMinimum=0, maximum=86400)] = 120.0,
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
        self._keep_alive = hasattr(socket, "TCP_QUICKACK")
        self._idle: list[http.client.HTTPConnection] = []
        # requests' default headers, with only the encodings ``_post`` decodes.
        headers = {"Accept-Encoding": "gzip, deflate", "Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        session, adapter = requests.Session(), requests.adapters.HTTPAdapter()
        try:  # adds Basic auth from netrc or from credentials in the URL
            prepared = session.prepare_request(
                requests.Request("POST", f"{self.base_url}/chat/completions", headers=headers))
        except requests.RequestException as exc:
            raise InvalidConfigError([f"base_url: {exc}"]) from exc
        env = session.merge_environment_settings(prepared.url, {}, None, None, None)
        proxy = requests.utils.select_proxy(prepared.url, env["proxies"])
        proxy = proxy and requests.utils.prepend_scheme_if_needed(proxy, "http")
        url, hop = urlsplit(prepared.url), urlsplit(proxy or prepared.url)
        if url.scheme not in ("http", "https") or proxy and hop.scheme != "http":
            raise InvalidConfigError([f"base_url: cannot post to a {url.scheme!r} URL"
                                      + (f" through a {hop.scheme!r} proxy" if proxy else "")])
        self._target = adapter.request_url(prepared, env["proxies"])
        del prepared.headers["Content-Length"]  # http.client sets it per body
        self._headers = dict(prepared.headers)
        self._hop = hop.hostname, hop.port or (443 if hop.scheme == "https" else 80)
        self._tls = self._tunnel = None
        if url.scheme == "https":  # requests' CA bundle, checked as requests checks it
            ca = SimpleNamespace(ca_certs=None, ca_cert_dir=None)
            adapter.cert_verify(ca, prepared.url, env["verify"], None)
            self._tls = ssl.create_default_context(cafile=ca.ca_certs, capath=ca.ca_cert_dir)
            if proxy:
                self._tunnel = url.hostname, url.port or 443, adapter.proxy_headers(proxy)
        elif proxy:  # the target in absolute form, with the proxy's credentials
            self._headers.update(adapter.proxy_headers(proxy))

    def _body(self, request: GenerationRequest) -> dict:
        model = self.role_models.get(request.role, self.model)
        body: dict = {
            "model": model,
            "messages": [{"role": speaker, "content": content}
                         for speaker, content in request.messages],
        }
        if request.role == "base" and "qwen" in model.lower():
            body.update(QWEN_BASE_SAMPLING)
        return body

    def _post(self, body: dict) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One attempt: status, headers and decoded body bytes."""
        payload = json.dumps(body, allow_nan=False).encode()
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            try:
                response = self._exchange(connection, payload) if connection else None
            except (ConnectionResetError, BrokenPipeError, ssl.SSLEOFError):
                connection.close()  # closed while idle: resend once
                response = None
            if response is None:
                connection = self._connect()
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
        return response.status, response.headers, content

    def _connect(self) -> http.client.HTTPConnection:
        """A new connection to the proxy, if any, tunnelled to an https target."""
        if self._tls is None:
            return http.client.HTTPConnection(*self._hop, timeout=self.timeout)
        connection = http.client.HTTPSConnection(*self._hop, timeout=self.timeout,
                                                 context=self._tls)
        if self._tunnel:
            connection.set_tunnel(*self._tunnel)
        return connection

    def _exchange(self, connection, payload: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._target, payload, self._headers)
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
        seconds, else full-jitter exponential backoff, either capped at the
        timeout (RFC 9110 §10.2.3).  Timing only, so not drawn from a run stream."""
        try:
            seconds = float(retry_after)
        except (TypeError, ValueError):  # absent, or an HTTP-date
            seconds = -1.0
        if seconds >= 0:  # false for NaN
            return min(seconds, self.timeout)
        # 2.0 ** 1024 overflows a float; a base above 1e-303 meets the cap sooner.
        return random.uniform(0, min(self.backoff_base * 2.0 ** min(retry - 1, 1023), self.timeout))

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
                status, headers, content = self._post(body)
            except (OSError, http.client.HTTPException, ValueError, zlib.error) as exc:
                last_error = exc
                logger.warning("transport error (attempt %d): %s", attempt + 1, exc)
                continue
            if status in RETRYABLE_STATUS:
                last_error = TransportFailureError(f"server returned {status}")
                logger.warning("retryable status %d (attempt %d)", status, attempt + 1)
                if status in RETRY_AFTER_STATUS:
                    retry_after = headers.get("Retry-After")
                continue
            if status // 100 != 2:  # a redirect too: neither retried nor followed
                location = headers.get("Location")
                raise TransportFailureError(
                    f"request failed with status {status}"
                    + (f" (Location: {location})" if location else "")
                    + f": {content.decode('utf-8', 'replace')[:200]}")
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
