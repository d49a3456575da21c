"""The one HTTP transport behind Entrez, chat completions and embeddings.

``HttpTransport.request`` is the pipeline's one retry loop, on ``http.client``
with one keep-alive connection per thread and host. Before a retry it waits
what ``Retry-After`` asks (RFC 9110 §10.2.3), else a full-jitter exponential
backoff (Brooker, "Exponential Backoff and Jitter", AWS Architecture Blog,
2015), either capped at the timeout. Logs and errors never show a URL's query
string, which carries the NCBI API key. ``http.client`` and ``ssl`` load on
first use, so stages that call no endpoint never import them.
"""

from __future__ import annotations

import functools
import logging
import random
import threading
import time
from urllib.parse import unquote, urlsplit

from .errors import ValidationError

logger = logging.getLogger(__name__)

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_WAIT_S = 86_400.0  # one day: the longest timeout and rate-limiter window a setting may ask for


class TransportError(Exception):
    """The last attempt got no HTTP answer; the message names the error, not the URL."""


class HttpTransport:
    """Retrying HTTP/1.1 client; safe to share between threads."""

    def __init__(self, retries: int, backoff_base: float, timeout: float) -> None:
        if retries < 1:
            raise ValidationError(f"retries must be >= 1, got {retries}")
        if not 0 < timeout <= MAX_WAIT_S:  # a longer one overflows the socket's timeout
            raise ValidationError(f"timeout must be in (0, {MAX_WAIT_S:g}] seconds, got {timeout}")
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list = []  # every connection, on any thread, for close()

    def request(self, method: str, url: str, body: bytes | None = None, headers=None, pace=None) -> tuple[int, bytes]:
        """(status, body) of the first answer that is not retryable, else of the last attempt.

        ``pace`` runs before every attempt, e.g. a rate limiter's ``acquire``.
        Raises ``TransportError`` when the last attempt got no answer.
        """
        import http.client

        parts = urlsplit(url)
        where = f"{method} {parts.scheme}://{parts.netloc}{parts.path}"
        conn, prefix, proxy_headers = self._connection(parts.scheme, parts.netloc)
        target = prefix + (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        headers = {**(headers or {}), **proxy_headers}
        for attempt in range(1, self.retries + 1):
            if pace is not None:
                pace()
            retry_after = None
            try:
                status, data, retry_after = _exchange(conn, method, target, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                error = f"{type(exc).__name__}: {exc}"
                logger.warning("%s failed (attempt %d of %d): %s", where, attempt, self.retries, error)
            else:
                if status not in RETRYABLE_STATUS or attempt == self.retries:
                    return status, data
                logger.warning("%s: HTTP %d (attempt %d of %d)", where, status, attempt, self.retries)
            if attempt < self.retries:
                time.sleep(self._delay(attempt, retry_after))
        raise TransportError(error)

    def close(self) -> None:
        """Closes every connection this transport opened; call it when no request is in flight."""
        with self._lock:
            for conn in self._opened:
                conn.close()

    def _delay(self, attempt: int, retry_after: str | None) -> float:
        seconds = _retry_after_seconds(retry_after) if retry_after else None
        if seconds is not None:
            return min(seconds, self.timeout)  # one header may not stall a stage longer than a hung request
        return random.uniform(0, min(self.backoff_base * 2 ** (attempt - 1), self.timeout))

    def _connection(self, scheme: str, netloc: str):
        """This thread's (connection, target prefix, proxy headers) for ``scheme://netloc``."""
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        if (scheme, netloc) not in conns:
            conns[scheme, netloc] = _open(scheme, netloc, self.timeout)
            with self._lock:
                self._opened.append(conns[scheme, netloc][0])
        return conns[scheme, netloc]


def _exchange(conn, method: str, target: str, body: bytes | None, headers: dict[str, str]):
    """One round trip: (status, body, Retry-After).

    A kept-alive connection the server closed while idle fails before any
    answer; the request then goes once more, on a fresh connection, without
    costing an attempt.
    """
    reused = conn.sock is not None
    try:
        conn.request(method, target, body, headers)
        response = conn.getresponse()
    except ConnectionError:
        if not reused:
            raise
        conn.close()
        conn.request(method, target, body, headers)
        response = conn.getresponse()
    return response.status, response.read(), response.getheader("Retry-After")


def _retry_after_seconds(value: str) -> float | None:
    """Retry-After as seconds from now, from delta-seconds or an HTTP-date; None if neither."""
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    from email.utils import parsedate_to_datetime

    try:
        return max(0.0, parsedate_to_datetime(value).timestamp() - time.time())
    except (TypeError, ValueError):
        return None


def _open(scheme: str, netloc: str, timeout: float):
    """A new connection, through the proxy that ``HTTP(S)_PROXY``/``NO_PROXY`` name, if any.

    Returns it with the prefix that makes a path the request target (a
    plain-HTTP proxy needs the absolute URI) and the headers each request
    on it carries. HTTPS through a proxy uses a CONNECT tunnel.
    """
    import base64
    import http.client
    from urllib.request import getproxies, proxy_bypass

    if scheme not in ("http", "https"):
        raise ValidationError(f"unsupported URL scheme {scheme!r}")
    tls = {"context": _tls_context()} if scheme == "https" else {}
    connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
    proxy = getproxies().get(scheme)
    if not proxy or proxy_bypass(urlsplit(f"//{netloc}").hostname or ""):
        return connection(netloc, timeout=timeout, **tls), "", {}
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if via.username:
        credentials = f"{unquote(via.username)}:{unquote(via.password or '')}".encode("utf-8")
        auth = {"Proxy-Authorization": "Basic " + base64.b64encode(credentials).decode("ascii")}
    conn = connection(via.hostname, via.port or 80, timeout=timeout, **tls)
    if tls:
        conn.set_tunnel(netloc, headers=auth)
        return conn, "", {}
    return conn, f"http://{netloc}", auth


@functools.cache
def _tls_context():
    """Verifies against the system CA store, or ``SSL_CERT_FILE``/``SSL_CERT_DIR``; built once."""
    import ssl

    return ssl.create_default_context()
