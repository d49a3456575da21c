"""The shared HTTP transport: keep-alive reuse, Retry-After, jitter and proxies, via both clients."""

import email.utils
import time
from http.server import BaseHTTPRequestHandler

import pytest

from ihcmine.errors import ValidationError
from ihcmine.gateway import ChatRequest, LlmGateway
from ihcmine.pubmed import EntrezClient, RateLimiter, build_query
from ihcmine.transport import MAX_WAIT_S, HttpTransport, TransportError

from mockservers import EntrezState, LlmState, run_entrez, run_llm, run_server


def chat_request(i=0):
    return ChatRequest(
        model_id="m", system_prompt="sys", user_prompt=f"Answer with exactly one word: {i}", max_new_tokens=4
    )


class TestConnectionReuse:
    def test_sequential_calls_on_one_thread_share_one_connection(self):
        state = LlmState(keep_alive=True)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
            for i in range(5):
                gateway.chat(chat_request(i))
            gateway.embed(["a", "b"])
            gateway.close()
        assert len(state.requests) == 6
        assert state.connections == 1

    def test_entrez_calls_share_one_connection(self):
        state = EntrezState(markers={"ER": [str(i) for i in range(25)]}, keep_alive=True)
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, page_size=10, requests_per_second=500.0, backoff_base=0.01)
            assert len(client.search_pmids(build_query("ER"))) == 25
            client.close()
        assert len(state.requests) == 3
        assert state.connections == 1

    def test_connection_dropped_while_idle_costs_no_attempt(self):
        state = LlmState(keep_alive=True, drop_idle=True)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", retries=1, backoff_base=0.01)
            answers = [gateway.chat(chat_request(i)) for i in range(3)]
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
            assert gateway.chat(chat_request()) == "Exclude"
            elapsed = time.monotonic() - start
        assert len(state.requests) == 2
        assert 1.0 <= elapsed < 1.9

    def test_waits_until_http_date(self):
        # HTTP-dates have whole-second resolution, so 2 s ahead means a wait in (1, 2] s.
        state = LlmState(throttle_next=1, retry_after=email.utils.formatdate(time.time() + 2, usegmt=True))
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", retries=2, backoff_base=0.01)
            start = time.monotonic()
            assert gateway.chat(chat_request()) == "Exclude"
            elapsed = time.monotonic() - start
        assert len(state.requests) == 2
        assert 0.9 <= elapsed < 2.5

    def test_wait_capped_at_timeout(self):
        state = EntrezState(markers={"ER": ["1"]}, throttle_next=1, retry_after="3600")
        with run_entrez(state) as url:
            client = EntrezClient(base_url=url, requests_per_second=500.0, backoff_base=0.01, timeout=0.3)
            start = time.monotonic()
            assert client.search_pmids(build_query("ER")) == ["1"]
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
        assert client.search_pmids(build_query("ER")) == ["1"]
    assert proxy == []
