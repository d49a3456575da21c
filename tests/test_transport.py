"""The shared HTTP transport: keep-alive reuse, Retry-After, jitter, proxies and HTTP/1.1 framing."""

import email.utils
import shutil
import ssl
import subprocess
import time
from http.server import BaseHTTPRequestHandler

import pytest

from ihcmine.domain import AbstractRecord
from ihcmine.errors import ValidationError
from ihcmine.gateway import LlmGateway
from ihcmine.pubmed import EntrezClient, RateLimiter
from ihcmine.transport import (
    MAX_HEADERS,
    MAX_LINE,
    MAX_RETRIES,
    MAX_WAIT_S,
    HttpTransport,
    TransportError,
    _tls_context,
)

from mockservers import EntrezState, LlmState, ScriptedState, run_entrez, run_llm, run_scripted, run_server


def record(i=0):
    """A record the mock server labels Exclude: its text holds no X/Y count."""
    return AbstractRecord(pmid=str(i + 1), title="t", abstract_text=f"abstract {i}", source_markers={"ER"})


class TestConnectionReuse:
    def test_sequential_calls_on_one_thread_share_one_connection(self):
        state = LlmState(keep_alive=True)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
            for i in range(5):
                gateway.chat("classify", record(i))
            gateway.embed(["a", "b"])
            gateway.close()
        assert len(state.requests) == 6
        assert state.connections == 1

    def test_entrez_calls_share_one_connection(self):
        articles = {str(100 + i): (f"t{i}", f"body {i}") for i in range(25)}
        state = EntrezState(articles=articles, keep_alive=True)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, batch_size=10, requests_per_second=500.0, backoff_base=0.01)
            records, _ = client.fetch_abstracts(dict.fromkeys(articles, {"ER"}))
            client.close()
        assert len(records) == 25
        assert len(state.requests) == 3
        assert state.connections == 1

    def test_connection_dropped_while_idle_costs_no_attempt(self):
        state = LlmState(keep_alive=True, drop_idle=True)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", retries=1, backoff_base=0.01)
            answers = [gateway.chat("classify", record(i)) for i in range(3)]
            gateway.close()
        assert answers == ["Exclude"] * 3
        assert len(state.requests) == 3
        assert state.connections == 3


class TestRetryAfter:
    def test_waits_delta_seconds(self):
        state = LlmState(throttle_next=1, retry_after="1")
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", retries=2, backoff_base=0.01)
            start = time.monotonic()
            assert gateway.chat("classify", record()) == "Exclude"
            elapsed = time.monotonic() - start
        assert len(state.requests) == 2
        assert 1.0 <= elapsed < 1.9

    def test_waits_until_http_date(self):
        # HTTP-dates have whole-second resolution, so 2 s ahead means a wait in (1, 2] s.
        state = LlmState(throttle_next=1, retry_after=email.utils.formatdate(time.time() + 2, usegmt=True))
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", retries=2, backoff_base=0.01)
            start = time.monotonic()
            assert gateway.chat("classify", record()) == "Exclude"
            elapsed = time.monotonic() - start
        assert len(state.requests) == 2
        assert 0.9 <= elapsed < 2.5

    def test_wait_capped_at_timeout(self):
        state = EntrezState(markers={"ER": ["1"]}, throttle_next=1, retry_after="3600")
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, requests_per_second=500.0, backoff_base=0.01, timeout=0.3)
            start = time.monotonic()
            assert client.search_pmids("ER") == ["1"]
            elapsed = time.monotonic() - start
        assert len(state.requests) == 2
        assert 0.3 <= elapsed < 1.5


def test_backoff_is_full_jitter():
    transport = HttpTransport(retries=4, backoff_base=1.0, timeout=60.0)
    delays = [transport._delay(3, None) for _ in range(200)]
    assert all(0.0 <= d <= 4.0 for d in delays)
    assert min(delays) < 1.0 and max(delays) > 3.0


def test_backoff_capped_at_timeout():
    transport = HttpTransport(retries=4, backoff_base=1e20, timeout=0.5)
    delays = [transport._delay(3, None) for _ in range(200)]
    assert all(0.0 <= d <= 0.5 for d in delays) and max(delays) > 0.4


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), MAX_WAIT_S * 1.01, 1e10])
def test_timeout_outside_the_bound_rejected(timeout):
    with pytest.raises(ValidationError, match="timeout must be in"):
        HttpTransport(retries=1, backoff_base=1.0, timeout=timeout)
    HttpTransport(retries=1, backoff_base=1.0, timeout=MAX_WAIT_S)


def test_rate_limiter_window_bounded():
    assert RateLimiter(1 / MAX_WAIT_S).window == MAX_WAIT_S
    for rate in (1e-300, 0.5 / MAX_WAIT_S):
        with pytest.raises(ValidationError, match="window"):
            RateLimiter(rate)


def test_retries_below_one_rejected():
    with pytest.raises(ValidationError, match="retries must be >= 1"):
        LlmGateway("http://localhost:1", retries=0)


def test_retries_above_the_bound_rejected():
    with pytest.raises(ValidationError, match=f"retries must be <= {MAX_RETRIES}"):
        HttpTransport(retries=MAX_RETRIES + 1, backoff_base=1.0, timeout=1.0)


@pytest.mark.parametrize("backoff", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_negative_or_non_finite_backoff_rejected(backoff):
    with pytest.raises(ValidationError, match="backoff_base must be finite and >= 0"):
        HttpTransport(retries=3, backoff_base=backoff, timeout=1.0)


@pytest.mark.parametrize("backoff", [0.0, 1.0, 1e300])
def test_backoff_at_the_last_retry_stays_within_the_timeout(backoff):
    # 2 ** 1024 does not convert to a float, so attempt 1025 used to raise OverflowError.
    transport = HttpTransport(retries=MAX_RETRIES, backoff_base=backoff, timeout=1.0)
    assert all(0.0 <= transport._delay(MAX_RETRIES, None) <= 1.0 for _ in range(20))


class _ProxyRecorder(BaseHTTPRequestHandler):
    """Records each request line and its proxy credentials; answers GET 200 and refuses CONNECT."""

    def log_message(self, *args) -> None:
        pass

    def _record(self, status: int) -> None:
        self.server.state.append((self.command, self.path, self.headers.get("Proxy-Authorization")))
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_GET(self) -> None:
        self._record(200)

    def do_CONNECT(self) -> None:
        self._record(502)


@pytest.fixture
def proxy(monkeypatch):
    """A recording proxy named by the proxy variables, with credentials in its URL."""
    for name in ("NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    seen = []
    with run_server(_ProxyRecorder, seen) as url:
        proxy_url = url.replace("http://", "http://user:p%40ss@")
        for name in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy"):
            monkeypatch.setenv(name, proxy_url)
        yield seen


BASIC = "Basic dXNlcjpwQHNz"  # user:p@ss


def test_plain_http_goes_to_the_proxy_with_an_absolute_uri(proxy):
    status, _ = HttpTransport(1, 0.01, 5.0).request("GET", "http://eutils.invalid/esearch.fcgi?db=pubmed")
    assert status == 200
    assert proxy == [("GET", "http://eutils.invalid/esearch.fcgi?db=pubmed", BASIC)]


def test_https_goes_through_a_connect_tunnel(proxy):
    with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
        HttpTransport(1, 0.01, 5.0).request("GET", "https://eutils.invalid/esearch.fcgi?api_key=SECRET")
    assert proxy == [("CONNECT", "eutils.invalid:443", BASIC)]


def test_no_proxy_bypasses_the_proxy(proxy, monkeypatch):
    state = EntrezState(markers={"ER": ["1"]})
    with run_entrez(state) as url:
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        client = EntrezClient(base_url=url, requests_per_second=500.0, backoff_base=0.01, retries=1)
        assert client.search_pmids("ER") == ["1"]
    assert proxy == []


# -- HTTP/1.1 framing, against scripted raw-socket servers ---------------------------

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def exchange(state, n=1, retries=1, method="GET"):
    """``n`` requests on one transport against ``state``'s script; their (status, body) answers."""
    with run_scripted(state) as url:
        transport = HttpTransport(retries, 0.01, 2.0)
        try:
            return [transport.request(method, f"{url}/path?q={i}") for i in range(n)]
        finally:
            transport.close()


def connection_of_each_request(state):
    return [index for index, _ in state.requests]


def test_request_bytes():
    state = ScriptedState([[OK]])
    with run_scripted(state) as url:
        transport = HttpTransport(1, 0.01, 2.0)
        assert transport.request("POST", f"{url}/v1/chat?x=1", b'{"a":1}', {"Content-Type": "application/json"})
        transport.close()
    host = url.split("//")[1]
    assert state.requests == [
        (
            0,
            f"POST /v1/chat?x=1 HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            'Content-Type: application/json\r\nContent-Length: 7\r\n\r\n{"a":1}'.encode(),
        )
    ]


def test_chunked_body_with_an_extension_and_a_trailer():
    chunked = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Checksum: 1\r\n\r\n"
    )
    state = ScriptedState([[chunked, OK]])
    assert exchange(state, 2) == [(200, b"hello world"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 0]


def test_interim_100_continue_is_skipped():
    state = ScriptedState([[b"HTTP/1.1 100 Continue\r\n\r\n" + OK, OK]])
    assert exchange(state, 2) == [(200, b"ok"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 0]


def test_http10_body_ends_where_the_server_closes():
    state = ScriptedState([[b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nup to the close"], [OK]])
    assert exchange(state, 2) == [(200, b"up to the close"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 1]


def test_connection_close_on_http11_opens_a_new_connection():
    close = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
    state = ScriptedState([[close], [OK]])
    assert exchange(state, 2) == [(200, b"ok"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 1]  # nothing was sent on the closed connection


@pytest.mark.parametrize(
    "method, answer, status",
    [
        ("GET", b"HTTP/1.1 204 No Content\r\n\r\n", 204),
        ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n", 304),
        ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", 200),
    ],
)
def test_answer_without_a_body_keeps_the_connection(method, answer, status):
    state = ScriptedState([[answer, answer]])
    assert exchange(state, 2, method=method) == [(status, b""), (status, b"")]
    assert connection_of_each_request(state) == [0, 0]


def test_short_body_costs_one_attempt():
    short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello"
    state = ScriptedState([[short], [OK]])
    assert exchange(state, retries=2) == [(200, b"ok")]
    assert connection_of_each_request(state) == [0, 1]
    with pytest.raises(TransportError, match="incomplete body: got 5 of 10 bytes"):
        exchange(ScriptedState([[short]]))


def with_fields(fields: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\n" + fields + b"Content-Length: 2\r\n\r\nok"


def numbered_fields(n: int) -> bytes:
    return b"".join(b"X-Field-%d: v\r\n" % i for i in range(n))


def test_head_at_its_limits_is_read():
    longest = b"X-Long: " + b"a" * (MAX_LINE - 10) + b"\r\n"
    answers = [with_fields(numbered_fields(MAX_HEADERS - 1)), with_fields(longest)]
    assert exchange(ScriptedState([answers]), 2) == [(200, b"ok"), (200, b"ok")]


@pytest.mark.parametrize(
    "answer, error",
    [
        (with_fields(b"X-Long: " + b"a" * MAX_LINE + b"\r\n"), "header line longer than 65536 bytes"),
        (with_fields(numbered_fields(MAX_HEADERS)), "got more than 100 headers"),  # 101 with Content-Length
        (b"HTTP/1.1 2x0 OK\r\n\r\n", "malformed status line"),
        (b"ICY 200 OK\r\n\r\n", "malformed status line"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nok", "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "malformed chunk size line"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", "connection closed inside the answer's head"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokXX0\r\n\r\n", "chunk data not followed by CRLF"),
    ],
)
def test_malformed_head_costs_an_attempt(answer, error):
    with pytest.raises(TransportError, match=f"ProtocolError: {error}"):
        exchange(ScriptedState([[answer]]))


@pytest.mark.parametrize(
    "fields, error",
    [
        (b"Content-Length : 2\r\n", "malformed header line"),  # RFC 9112 §5.1
        (b"X-No-Colon\r\n", "malformed header line"),
        (b" X-Folded: before any field\r\n", "malformed header line"),  # §2.2
        (b"Transfer-Encoding: gzip, chunked\r\n", "refused framing"),  # §6.1
        (b"Transfer-Encoding: identity\r\n", "refused framing"),
        (b"Transfer-Encoding: chunked\r\nContent-Length: 2\r\n", "refused framing"),  # §6.3
    ],
    ids=["space-before-colon", "no-colon", "fold-first", "gzip-chunked", "identity", "chunked-and-length"],
)
def test_ambiguous_framing_is_refused_and_closes_the_connection(fields, error):
    answer = b"HTTP/1.1 200 OK\r\n" + fields + b"\r\n0\r\n\r\n"
    with pytest.raises(TransportError, match=f"ProtocolError: {error}"):
        exchange(ScriptedState([[answer]]))
    state = ScriptedState([[answer, OK], [OK]])  # a kept connection would get the first connection's OK
    assert exchange(state, retries=2) == [(200, b"ok")]
    assert connection_of_each_request(state) == [0, 1]


def test_obs_fold_continues_the_previous_field():
    folded = b"HTTP/1.1 200 OK\r\nContent-Length:\r\n 2\r\nX-Note: a\r\n\tb\r\n\r\nok"  # RFC 9112 §5.2
    state = ScriptedState([[folded, OK]])
    assert exchange(state, 2) == [(200, b"ok"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 0]


@pytest.mark.parametrize(
    "url_suffix, headers, error",
    [
        ("/", {"Authorization": "Bearer abc\r\nX-Injected: 1"}, "header 'Authorization' contains CR, LF or NUL"),
        ("/", {"X-A\nB": "v"}, "contains CR, LF or NUL"),
        ("/", {"X-Key": "abc\0def"}, "header 'X-Key' contains CR, LF or NUL"),
        ("/a\0b", {}, "request target must be printable ASCII"),
    ],
)
def test_unsendable_request_refused_before_any_byte_is_sent(url_suffix, headers, error):
    state = ScriptedState([[OK]])
    with run_scripted(state) as url:
        transport = HttpTransport(1, 0.01, 2.0)
        with pytest.raises(ValidationError, match=error) as raised:
            transport.request("POST", url + url_suffix, b"{}", headers)
        transport.close()
    assert "abc" not in str(raised.value)
    assert state.connections == 0 and state.requests == []


def test_api_key_with_a_newline_is_a_validation_error():
    with run_scripted(ScriptedState([[OK]])) as url:
        gateway = LlmGateway(url, model_id="m", api_key="abc\ndef")
        with pytest.raises(ValidationError, match="Authorization"):
            gateway.chat("classify", record())
        gateway.close()


# -- TLS ------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A self-signed certificate and key for 127.0.0.1, made by ``openssl req -x509``."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not installed")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "2", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1",
         "-addext", "keyUsage=critical,digitalSignature,keyEncipherment,keyCertSign",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


@pytest.fixture
def tls_server(certificate, monkeypatch):
    """A server-side TLS context for the certificate, which the client trusts through ``SSL_CERT_FILE``."""
    cert, key = certificate
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    _tls_context.cache_clear()
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    yield context
    _tls_context.cache_clear()


def test_https_round_trips_share_one_connection(tls_server):
    state = ScriptedState([[OK, OK]], tls=tls_server)
    assert exchange(state, 2) == [(200, b"ok"), (200, b"ok")]
    assert connection_of_each_request(state) == [0, 0]


def test_https_name_mismatch_is_a_transport_error(tls_server):
    state = ScriptedState([[OK]], tls=tls_server)
    with run_scripted(state) as url:
        transport = HttpTransport(1, 0.01, 2.0)
        with pytest.raises(TransportError, match="SSLCertVerificationError"):
            transport.request("GET", url.replace("127.0.0.1", "localhost") + "/")
        transport.close()
    assert state.requests == []
