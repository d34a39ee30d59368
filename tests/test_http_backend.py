import gzip
import http.client
import json
import socket
import socketserver
import ssl
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

from vistaopt.backends.base import GenerationRequest, RoleRouter
from vistaopt.backends.http import HttpBackend
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.cli import EXIT_IO_FAILURE, EXIT_OK, EXIT_TRANSPORT_FAILURE, main
from vistaopt.domain import RunConfig, check_config, default_taxonomy, load_seed_prompt
from vistaopt.errors import InvalidConfigError, TransportFailureError
from vistaopt.evaluation import Evaluator
from vistaopt.optimizer import run

# A self-signed certificate for IP 127.0.0.1, valid 2025-2125; for tests only.
TLS_CERT = Path(__file__).parent / "data" / "tls" / "cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "tls" / "key.pem"


def completion(content):
    return {"choices": [{"message": {"content": content}}]}


class StubServer:
    """Recorded-response chat-completions stub.  The script is a list of
    (status, payload) or (status, payload, headers) entries consumed one per
    POST; the last entry repeats.  A ``bytes`` payload is sent as it is,
    any other as JSON.  Each request is served on its own thread after
    ``delay`` seconds, and ``in_flight_max`` records the most requests
    served at once.  ``connections`` counts accepted connections.

    Replies are HTTP/1.0, one per connection, unless ``keep_alive`` is set.
    With ``hang_up`` as well, the server closes each connection after its
    reply without saying so, as a server closes an idle connection.  Like
    perfbench's stub, a reply is written in two sends, headers then body,
    with Nagle's algorithm on.  With ``tls`` it serves HTTPS with the test
    certificate.
    """

    def __init__(self, script, delay=0.0, keep_alive=False, hang_up=False, tls=False):
        self.script = list(script)
        self.delay = delay
        self.requests = []
        self.connections = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                with stub._lock:
                    index = len(stub.requests)
                    stub.requests.append({
                        "path": self.path,
                        "raw": raw,
                        "body": json.loads(raw) if length else {},
                        "headers": dict(self.headers),
                        "auth": self.headers.get("Authorization"),
                    })
                    stub.in_flight += 1
                    stub.in_flight_max = max(stub.in_flight_max, stub.in_flight)
                time.sleep(stub.delay)
                with stub._lock:
                    stub.in_flight -= 1
                status, payload, *extra = stub.script[min(index, len(stub.script) - 1)]
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = self.close_connection or hang_up

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.scheme = "https" if tls else "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self.server.socket = context.wrap_socket(self.server.socket, server_side=True)
        # A short poll interval, so that shutdown() returns within 10 ms.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"{self.scheme}://{host}:{port}/v1"


class ConnectRelay:
    """An HTTP proxy that serves only CONNECT: it records each request head
    in ``heads``, then relays bytes both ways until either side closes."""

    def __init__(self):
        self.heads = []
        relay = self

        def pipe(source, sink):
            try:
                while data := source.recv(65536):
                    sink.sendall(data)
                sink.shutdown(socket.SHUT_WR)
            except OSError:  # the other direction closed first
                pass

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                head = b""
                while not head.endswith(b"\r\n\r\n"):  # the client waits for the reply
                    chunk = self.request.recv(4096)
                    if not chunk:
                        return
                    head += chunk
                relay.heads.append(head.decode("latin-1"))
                host, port = head.split()[1].decode().rsplit(":", 1)
                with socket.create_connection((host, int(port)), timeout=10) as upstream:
                    self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                    back = threading.Thread(target=pipe, args=(upstream, self.request))
                    back.start()
                    pipe(self.request, upstream)
                    back.join(timeout=10)

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"


@pytest.fixture()
def trusted(monkeypatch):
    """Trust the test certificate, named by ``REQUESTS_CA_BUNDLE``."""
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS_CERT))
    monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """Clear the proxy variables, so that only those a test sets apply."""
    for name in ("NO_PROXY", "no_proxy", "HTTP_PROXY", "http_proxy", "HTTPS_PROXY",
                 "https_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)


def agent_request(text="hello"):
    return GenerationRequest(role="hypothesis_agent", messages=(("user", text),))


def test_recorded_response_returned():
    with StubServer([(200, completion("recorded body"))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, api_key="k", backoff_base=0.0)
        assert backend.generate(agent_request()) == "recorded body"
        assert stub.requests[0]["path"] == "/v1/chat/completions"
        assert stub.requests[0]["auth"] == "Bearer k"
        assert stub.requests[0]["body"]["messages"] == [{"role": "user", "content": "hello"}]


def test_retry_then_success():
    with StubServer([(500, {}), (200, completion("ok after retry"))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        assert backend.generate(agent_request()) == "ok after retry"
        assert backend.requests_sent == 2
        assert backend.retries == 1


def test_gives_up_after_bounded_retries():
    with StubServer([(503, {})]) as stub:
        backend = HttpBackend(base_url=stub.base_url, max_retries=2, backoff_base=0.0)
        with pytest.raises(TransportFailureError):
            backend.generate(agent_request())
        assert backend.requests_sent == 3  # initial + 2 retries


def test_client_error_not_retried():
    with StubServer([(404, {"error": "nope"})]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        with pytest.raises(TransportFailureError):
            backend.generate(agent_request())
        assert backend.requests_sent == 1


def test_redirect_is_a_transport_failure_and_not_followed(tmp_path, capsys):
    with StubServer([(307, b"", {"Location": "/v2/chat/completions"})]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        with pytest.raises(TransportFailureError,
                           match=r"status 307 \(Location: /v2/chat/completions\)"):
            backend.generate(agent_request())
        assert backend.requests_sent == 1
        assert [r["path"] for r in stub.requests] == ["/v1/chat/completions"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "budget": 0, "max_parallel": 1,
            "dataset": {"synthetic": {"train_size": 8, "val_size": 4}},
            "http": {"base_url": stub.base_url, "backoff_base": 0.0}}))
        code = main(["optimize", str(config), "defective", str(tmp_path / "run"),
                     "--backend", "http"])
    assert code == EXIT_TRANSPORT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("transport failure:") and "307" in err and "/v2/chat" in err
    assert all(r["path"] == "/v1/chat/completions" for r in stub.requests)


@pytest.mark.parametrize("content", [None, ["part"], 7])
def test_non_string_content_is_a_transport_failure(content):
    # OpenAI-compatible servers answer reasoning or tool-call turns with
    # "content": null; that must end the run as a transport failure.
    with StubServer([(200, completion(content))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        with pytest.raises(TransportFailureError, match="malformed completion body"):
            backend.generate(agent_request())
        assert backend.requests_sent == 1


@pytest.mark.parametrize("credentials", ["plain", "url", "netrc"])
def test_direct_transport_sends_what_requests_sends(credentials, tmp_path, monkeypatch):
    # Credentials in the URL or a netrc entry replace the bearer token with
    # Basic auth, as requests sends them.
    netrc = tmp_path / "netrc"
    monkeypatch.setenv("NETRC", str(netrc))
    if credentials == "netrc":
        netrc.write_text("machine 127.0.0.1 login user password pass\n", encoding="utf-8")
    request = agent_request("héllo")
    with StubServer([(200, completion("x"))]) as stub:
        base_url = stub.base_url
        if credentials == "url":
            base_url = base_url.replace("://", "://user:pass@")
        backend = HttpBackend(base_url=base_url, api_key="k", backoff_base=0.0)
        with monkeypatch.context() as patched:
            patched.setattr(requests, "post", None)  # the backend never calls it
            assert backend.generate(request) == "x"
        requests.post(f"{base_url}/chat/completions", json=stub.requests[0]["body"],
                      headers={"Content-Type": "application/json", "Authorization": "Bearer k"},
                      timeout=10)
    direct, reference = stub.requests
    assert direct["raw"] == reference["raw"]
    assert direct["headers"] == reference["headers"]
    assert direct["path"] == reference["path"] == "/v1/chat/completions"
    assert direct["auth"] == ("Bearer k" if credentials == "plain" else "Basic dXNlcjpwYXNz")


def test_direct_transport_decodes_gzip():
    body = gzip.compress(json.dumps(completion("zipped")).encode())
    with StubServer([(200, body, {"Content-Encoding": "gzip"})]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        assert backend.generate(agent_request()) == "zipped"


def test_connection_refused_is_retried_then_fails():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend = HttpBackend(base_url=f"http://127.0.0.1:{port}/v1", max_retries=2,
                          backoff_base=0.0)
    with pytest.raises(TransportFailureError, match="gave up after 3 attempts"):
        backend.generate(agent_request())
    assert backend.requests_sent == 3 and backend.retries == 2


requires_quickack = pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                                       reason="connections are reused only with TCP_QUICKACK")


@pytest.fixture()
def opened(monkeypatch):
    """Every ``HTTPConnection`` the direct transport creates."""
    connections = []

    class Recorded(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            connections.append(self)

    monkeypatch.setattr(http.client, "HTTPConnection", Recorded)
    return connections


def check_pooled_generations_reuse_connections(**stub_options):
    items = make_synthetic_dataset(40, 2).train
    with StubServer([(200, completion('{"final_answer": "1"}'))], delay=0.002,
                    keep_alive=True, **stub_options) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        (records,) = Evaluator(backend, max_parallel=2).evaluate(["system prompt"], items,
                                                                 charged=True)
        backend.close()
    assert len(records) == len(stub.requests) == 40
    assert 1 <= stub.connections <= 2
    assert backend.requests_sent == 40 and backend.retries == 0


@requires_quickack
def test_pooled_generations_open_one_connection_per_worker():
    check_pooled_generations_reuse_connections()


@requires_quickack
def test_pooled_https_generations_open_one_connection_per_worker(trusted):
    check_pooled_generations_reuse_connections(tls=True)


def test_http_10_server_gets_one_connection_per_request(opened):
    with StubServer([(200, completion("x"))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        assert [backend.generate(agent_request()) for _ in range(5)] == ["x"] * 5
    assert stub.connections == len(opened) == 5
    assert all(connection.sock is None for connection in opened)


def check_closed_idle_connection_is_replaced(**stub_options):
    with StubServer([(200, completion("x"))], keep_alive=True, hang_up=True,
                    **stub_options) as stub:
        backend = HttpBackend(base_url=stub.base_url, max_retries=0, backoff_base=0.0)
        assert [backend.generate(agent_request()) for _ in range(3)] == ["x"] * 3
        backend.close()
    assert stub.connections == len(stub.requests) == 3
    assert backend.requests_sent == 3 and backend.retries == 0


@requires_quickack
def test_connection_closed_while_idle_is_replaced_without_a_retry():
    check_closed_idle_connection_is_replaced()


@requires_quickack
def test_tls_connection_closed_while_idle_is_replaced_without_a_retry(trusted):
    check_closed_idle_connection_is_replaced(tls=True)


@requires_quickack
def test_idle_connections_are_shared_safely_between_threads(opened):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with StubServer([(200, completion("x"))], keep_alive=True) as stub:
            backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
            with ThreadPoolExecutor(max_workers=8) as pool:
                replies = list(pool.map(lambda _: backend.generate(agent_request()), range(100)))
            backend.close()
    finally:
        sys.setswitchinterval(interval)
    assert replies == ["x"] * 100 and len(stub.requests) == 100
    # A connection handed to two threads, or lost from the idle list, shows here.
    assert stub.connections == len(opened) <= 8
    assert all(connection.sock is None for connection in opened)
    assert backend.retries == 0


@requires_quickack
def test_reused_connection_is_not_held_by_delayed_ack():
    # The stub sends headers and body apart with Nagle on: were the client
    # to delay its ACK of the headers (~40 ms), 20 replies would take >= 0.8 s.
    with StubServer([(200, completion("x"))], keep_alive=True) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        start = time.perf_counter()
        for _ in range(20):
            backend.generate(agent_request())
        elapsed = time.perf_counter() - start
        backend.close()
    assert stub.connections == 1
    assert elapsed < 0.5


@requires_quickack
def test_close_closes_idle_connections_and_the_backend_stays_usable(opened):
    with StubServer([(200, completion("x"))], keep_alive=True) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        backend.generate(agent_request())
        assert opened[0].sock is not None, "kept open for reuse"
        backend.close()
        assert all(connection.sock is None for connection in opened)
        assert backend.generate(agent_request()) == "x"
        backend.close()
    assert stub.connections == len(opened) == 2
    assert all(connection.sock is None for connection in opened)


def test_proxy_from_the_environment_is_honoured(no_proxy_env, monkeypatch):
    with StubServer([(200, completion("via proxy"))]) as stub:
        host, port = stub.server.server_address
        monkeypatch.setenv("HTTP_PROXY", f"http://{host}:{port}")
        backend = HttpBackend(base_url="http://model.invalid/v1", backoff_base=0.0)
        assert backend.generate(agent_request()) == "via proxy"
    assert stub.requests[0]["path"] == "http://model.invalid/v1/chat/completions"


def test_https_through_a_proxy_is_tunnelled_with_connect(trusted, no_proxy_env, monkeypatch):
    with StubServer([(200, completion("tunnelled"))], keep_alive=True, tls=True) as stub, \
            ConnectRelay() as relay:
        monkeypatch.setenv("HTTPS_PROXY", relay.url.replace("://", "://pu:pp@"))
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        assert [backend.generate(agent_request()) for _ in range(2)] == ["tunnelled"] * 2
        backend.close()
    host, port = stub.server.server_address
    assert relay.heads and len(relay.heads) == stub.connections
    for head in relay.heads:
        assert head.startswith(f"CONNECT {host}:{port} HTTP/1.")
        assert "Proxy-Authorization: Basic cHU6cHA=\r\n" in head  # for the proxy only
    for served in stub.requests:
        assert served["path"] == "/v1/chat/completions"
        assert "Proxy-Authorization" not in served["headers"]


@pytest.mark.parametrize("bundle, named, exit_code", [
    (None, None, EXIT_TRANSPORT_FAILURE),  # certifi's bundle, which lacks the test certificate
    ("REQUESTS_CA_BUNDLE", TLS_CERT, EXIT_OK),
    ("CURL_CA_BUNDLE", TLS_CERT, EXIT_OK),
    ("REQUESTS_CA_BUNDLE", TLS_CERT.with_name("absent.pem"), EXIT_IO_FAILURE),
], ids=["certifi", "requests-ca-bundle", "curl-ca-bundle", "absent-bundle"])
def test_https_certificate_is_verified_against_requests_ca_bundle(bundle, named, exit_code,
                                                                   tmp_path, monkeypatch):
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    if bundle:
        monkeypatch.setenv(bundle, str(named))
    config = tmp_path / "config.json"
    with StubServer([(200, completion('{"final_answer": "1"}'))], tls=True) as stub:
        if bundle is None:
            backend = HttpBackend(base_url=stub.base_url, max_retries=0)
            with pytest.raises(TransportFailureError, match="CERTIFICATE_VERIFY_FAILED"):
                backend.generate(agent_request())
        config.write_text(json.dumps({
            "budget": 0, "max_parallel": 1,  # the seed's validation pass only
            "dataset": {"synthetic": {"train_size": 8, "val_size": 4}},
            "http": {"base_url": stub.base_url, "max_retries": 0, "timeout": 10}}))
        code = main(["optimize", str(config), "defective", str(tmp_path / "run"),
                     "--backend", "http"])
    assert code == exit_code
    assert len(stub.requests) == (4 if exit_code == EXIT_OK else 0)


@pytest.mark.parametrize("base_url, https_proxy", [
    ("ftp://x", None),
    ("http://", None),
    ("https://model.invalid/v1", "socks5://127.0.0.1:1080"),
], ids=["ftp", "no-host", "socks-proxy"])
def test_route_that_cannot_be_posted_on_is_invalid_config(base_url, https_proxy, no_proxy_env,
                                                         monkeypatch):
    if https_proxy:
        monkeypatch.setenv("HTTPS_PROXY", https_proxy)
    with pytest.raises(InvalidConfigError, match="base_url"):
        HttpBackend(base_url=base_url)


def test_backoff_is_capped_at_the_timeout_for_any_retry():
    backend = HttpBackend(base_url="http://127.0.0.1:9/v1", backoff_base=1e300, timeout=0.5)
    assert all(0 <= backend._retry_delay(retry, None) <= 0.5 for retry in (2, 1024, 1025, 2000))


@pytest.mark.parametrize("status, retry_after, timeout, least", [
    (503, "0.2", 120.0, 0.2),
    (429, "3600", 0.3, 0.3),  # capped at the backend's timeout
])
def test_retry_after_seconds_are_honoured(status, retry_after, timeout, least):
    script = [(status, {}, {"Retry-After": retry_after}), (200, completion("ok"))]
    with StubServer(script) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.0, timeout=timeout)
        start = time.monotonic()
        assert backend.generate(agent_request()) == "ok"
        elapsed = time.monotonic() - start
    assert least <= elapsed < least + 2.0


def test_retry_after_date_falls_back_to_full_jitter_backoff(monkeypatch):
    draws = []
    monkeypatch.setattr("random.uniform", lambda low, high: draws.append((low, high)) or 0.0)
    script = [(503, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
              (500, {}, {"Retry-After": "5"}),  # only 429 and 503 carry a Retry-After
              (200, completion("ok"))]
    with StubServer(script) as stub:
        backend = HttpBackend(base_url=stub.base_url, backoff_base=0.25)
        start = time.monotonic()
        assert backend.generate(agent_request()) == "ok"
        assert time.monotonic() - start < 1.0
    assert draws == [(0, 0.25), (0, 0.5)]


def test_qwen_base_sampling_defaults():
    with StubServer([(200, completion("x"))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, model="qwen3-4b", backoff_base=0.0)
        backend.generate(GenerationRequest(
            role="base", messages=(("system", "s"), ("user", "u"))))
        body = stub.requests[0]["body"]
        assert body["temperature"] == 0.6 and body["top_p"] == 0.95
        assert body["top_k"] == 20 and body["presence_penalty"] == 1.5
        # Other roles get no sampling fields, and the scripted agents' hints are not sent.
        backend.generate(GenerationRequest(role="hypothesis_agent", messages=(("user", "u"),),
                                           extras={"slot_origins": ("free",)}))
        assert set(stub.requests[1]["body"]) == {"model", "messages"}


def test_role_models_routing():
    with StubServer([(200, completion("x"))]) as stub:
        backend = HttpBackend(base_url=stub.base_url, model="base-model",
                              role_models={"reflection_agent": "big-model"},
                              backoff_base=0.0)
        backend.generate(GenerationRequest(role="reflection_agent",
                                           messages=(("user", "u"),)))
        assert stub.requests[0]["body"]["model"] == "big-model"


def test_max_parallel_is_the_one_concurrency_limit():
    items = make_synthetic_dataset(8, 2).train
    with StubServer([(200, completion('{"final_answer": "1"}'))], delay=0.02) as stub:
        evaluator = Evaluator(HttpBackend(base_url=stub.base_url, backoff_base=0.0),
                              max_parallel=2)
        (records,) = evaluator.evaluate(["system prompt"], items, charged=True)
    assert [r.item_id for r in records] == [item.id for item in items]
    assert len(stub.requests) == 8
    assert stub.in_flight_max == 2


def test_max_in_flight_is_deprecated_and_ignored():
    with StubServer([(200, completion("same body"))]) as stub:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        with pytest.warns(DeprecationWarning) as by_keyword:
            keyword = HttpBackend(base_url=stub.base_url, backoff_base=0.0, max_in_flight=2)
        with pytest.warns(DeprecationWarning) as by_config:  # built as the CLI builds it
            (args,) = check_config(
                {"base_url": stub.base_url, "backoff_base": 0.0, "max_in_flight": 2},
                [("", HttpBackend.__init__)])
            configured = HttpBackend(**args)
        for record in (by_keyword, by_config):
            assert [w.category for w in record] == [DeprecationWarning]
            assert "max_in_flight" in str(record[0].message)
        replies = [b.generate(agent_request()) for b in (plain, keyword, configured)]
    assert replies == ["same body"] * 3


HYPOTHESIS_RESPONSE = """[HYPOTHESIS 1]
TAG: cot_field_ordering
DESCRIPTION: The answer field comes before the reasoning field.
FIX: Reorder the output schema.

[HYPOTHESIS 2]
TAG: task_instruction_clarity
DESCRIPTION: Ambiguous framing.
FIX: Clarify it.

[HYPOTHESIS 3]
TAG: reasoning_strategy
DESCRIPTION: Too shallow.
FIX: Demand steps.
"""


def test_one_round_through_stubbed_agents():
    """One full optimization round with HTTP-backed agents: exactly K
    reflection rewrites plus one hypothesis call, with a bounded retry on
    an injected transport failure."""
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    world = SyntheticWorldConfig()
    defective = load_seed_prompt("defective")
    repaired = load_seed_prompt("repaired")
    script = [
        (500, {}),                                  # injected transport failure
        (200, completion(HYPOTHESIS_RESPONSE)),     # hypothesis agent call
        (200, completion(repaired)),                # reflection for slot 0
        (200, completion(defective + "\n\nnote a")),  # slot 1: no structural change
        (200, completion(defective + "\n\nnote b")),  # slot 2: no structural change
    ]
    with StubServer(script) as stub:
        http = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        backend = RoleRouter(
            default=SyntheticBackend(world, dataset, taxonomy, run_seed=0),
            hypothesis_agent=http,
            reflection_agent=http,
        )
        config = RunConfig(rng_seed=0, p=0.0, budget=1, max_parallel=1)
        result = run(config, dataset, taxonomy, backend, defective)

    assert len(result.outcomes) == 1
    outcome = result.outcomes[0]
    assert outcome.branch == "hypotheses"
    # K rewrites + 1 hypothesis call; the injected failure adds one POST
    assert len(stub.requests) == config.K + 2
    assert http.retries == 1
    assert outcome.winner is not None and outcome.winner_label == "cot_field_ordering"
    assert outcome.charge == config.b * config.K + len(dataset.val)
    assert result.best.val_accuracy > result.candidates[0].val_accuracy
