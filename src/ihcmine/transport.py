"""The one HTTP transport behind Entrez, chat completions and embeddings.

``HttpTransport.request`` is the pipeline's one retry loop. Each thread keeps
one kept-alive socket per origin and speaks HTTP/1.1 on it itself (RFC 9112):
a request goes out in one ``sendall``, and an answer is read through the
connection's one buffered reader, parsing the status line and only the header
fields that frame the body, end the connection or pace a retry. Before a retry
it waits what ``Retry-After`` asks (RFC 9110 §10.2.3), else a full-jitter
exponential backoff (Brooker, "Exponential Backoff and Jitter", AWS
Architecture Blog, 2015), either capped at the timeout. Logs and errors never
show a URL's query string, which carries the NCBI API key. ``socket`` loads on
first use, ``ssl`` only for an https origin and ``urllib.request`` only when a
``<scheme>_proxy`` variable is set, so stages that call no endpoint never
import them and plain-HTTP stages never load ``ssl``, ``http.client`` or
``email``.
"""

from __future__ import annotations

import functools
import logging
import math
import random
import threading
import time
from urllib.parse import unquote, urlsplit

from .errors import ValidationError

logger = logging.getLogger(__name__)

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_WAIT_S = 86_400.0  # one day: the longest timeout and rate-limiter window a setting may ask for
MAX_RETRIES = 1000  # from attempt 1025 on, the backoff's 2 ** (attempt - 1) overflows a float
MAX_HEADERS = 100  # header lines in one answer's head or chunked trailer
MAX_LINE = 65_536  # bytes in a status, header or chunk-size line


class TransportError(Exception):
    """The last attempt got no HTTP answer; the message names the error, not the URL."""


class ProtocolError(OSError):
    """The answer broke HTTP/1.1 framing: a malformed or oversized head, or a short body."""


class HttpTransport:
    """Retrying HTTP/1.1 client; safe to share between threads."""

    def __init__(self, retries: int, backoff_base: float, timeout: float) -> None:
        if retries < 1:
            raise ValidationError(f"retries must be >= 1, got {retries}")
        if retries > MAX_RETRIES:
            raise ValidationError(f"retries must be <= {MAX_RETRIES}, got {retries}")
        if not (math.isfinite(backoff_base) and backoff_base >= 0):  # else the backoff sleep is negative or NaN
            raise ValidationError(f"backoff_base must be finite and >= 0, got {backoff_base}")
        if not 0 < timeout <= MAX_WAIT_S:  # a longer one overflows the socket's timeout
            raise ValidationError(f"timeout must be in (0, {MAX_WAIT_S:g}] seconds, got {timeout}")
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[_Connection] = []  # every connection, on any thread, for close()

    def request(self, method: str, url: str, body: bytes | None = None, headers=None, pace=None) -> tuple[int, bytes]:
        """(status, body) of the first answer that is not retryable, else of the last attempt.

        ``pace`` runs before every attempt, e.g. a rate limiter's ``acquire``.
        Raises ``ValidationError`` before sending anything when the URL or a
        header cannot be sent, and ``TransportError`` when the last attempt
        got no answer.
        """
        parts = urlsplit(url)
        where = f"{method} {parts.scheme}://{parts.netloc}{parts.path}"
        conn = self._connection(parts.scheme, parts.netloc)
        target = conn.prefix + (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        fields = {"Host": parts.netloc.rpartition("@")[2], "Accept-Encoding": "identity", **(headers or {})}
        message = _message(method, target, {**fields, **conn.headers}, body)
        for attempt in range(1, self.retries + 1):
            if pace is not None:
                pace()
            retry_after = None
            try:
                status, data, retry_after = _exchange(conn, method, message)
            except OSError as exc:
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

    def _connection(self, scheme: str, netloc: str) -> _Connection:
        """This thread's connection to ``scheme://netloc``."""
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        conn = conns.get((scheme, netloc))
        if conn is None:
            conn = conns[scheme, netloc] = _Connection(scheme, netloc, self.timeout)
            with self._lock:
                self._opened.append(conn)
        return conn


def _exchange(conn: _Connection, method: str, message: bytes) -> tuple[int, bytes, str | None]:
    """One round trip: (status, body, Retry-After).

    A kept-alive connection the server closed while idle fails before the
    status line; the request then goes once more, on a fresh connection,
    without costing an attempt.
    """
    reused = conn.sock is not None
    try:
        line = conn.send(message)
    except ConnectionError:
        if not reused:
            raise
        conn.close()
        line = conn.send(message)
    return conn.read_response(method, line)


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


class _Connection:
    """A kept-alive socket to one origin, direct or through a proxy, and its buffered reader.

    The proxy is the one ``<scheme>_proxy`` names, unless ``no_proxy``
    bypasses the host. ``prefix`` makes a path the request target (a
    plain-HTTP proxy needs the absolute URI) and ``headers`` go on every
    request. HTTPS through a proxy uses a CONNECT tunnel. The socket opens
    on the first ``send`` and again after ``close``.
    """

    def __init__(self, scheme: str, netloc: str, timeout: float) -> None:
        if scheme not in ("http", "https"):
            raise ValidationError(f"unsupported URL scheme {scheme!r}")
        self.tls = scheme == "https"
        self.address = _address(netloc, 443 if self.tls else 80, netloc)
        self.host, port = self.address
        self.timeout = timeout
        self.prefix = ""
        self.headers: dict[str, str] = {}
        self.tunnel: bytes | None = None
        self.sock = self.reader = None
        proxy = _proxy(scheme, self.host)
        if proxy is None:
            return
        via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        self.address = _address(via.netloc.rpartition("@")[2], 80, f"{scheme}_proxy")
        auth = {}
        if via.username:
            import base64

            credentials = f"{unquote(via.username)}:{unquote(via.password or '')}".encode("utf-8")
            auth = {"Proxy-Authorization": "Basic " + base64.b64encode(credentials).decode("ascii")}
        if self.tls:
            authority = f"[{self.host}]:{port}" if ":" in self.host else f"{self.host}:{port}"
            self.tunnel = _message("CONNECT", authority, {"Host": authority, **auth}, None)
        else:
            self.prefix, self.headers = f"http://{netloc}", auth

    def send(self, message: bytes) -> bytes:
        """Sends ``message``, connecting first if closed; returns the answer's status line."""
        if self.sock is None:
            self._connect()
        self.sock.sendall(message)
        line = self.reader.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the server closed the connection without an answer")
        return line

    def read_response(self, method: str, line: bytes) -> tuple[int, bytes, str | None]:
        """(status, body, Retry-After) of the answer that starts with status line ``line``.

        Interim 1xx answers are skipped. The connection closes when the
        answer asks it to, when HTTP/1.0 does not keep it alive, and after a
        body that the server's close ended.
        """
        reader = self.reader
        version, status = _status_line(line)
        fields = _header_fields(reader)
        while 100 <= status < 200:
            version, status = _status_line(reader.readline(MAX_LINE + 1))
            fields = _header_fields(reader)
        options = {token.strip() for token in fields.get(b"connection", b"").lower().split(b",")}
        close = b"close" in options or (version == b"HTTP/1.0" and b"keep-alive" not in options)
        coding = fields.get(b"transfer-encoding")
        if coding is not None and (coding.lower() != b"chunked" or b"content-length" in fields):
            length = fields.get(b"content-length")
            raise ProtocolError(f"refused framing: Transfer-Encoding {coding[:40]!r}, Content-Length {length!r:.40}")
        if method == "HEAD" or status in (204, 304):
            body = b""
        elif coding is not None:
            body = _chunked_body(reader)
        elif b"content-length" in fields:
            body = _read_exact(reader, _content_length(fields[b"content-length"]))
        else:
            body, close = reader.read(), True
        if close:
            self.close()
        retry_after = fields.get(b"retry-after")
        return status, body, None if retry_after is None else retry_after.decode("latin-1")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def _connect(self) -> None:
        import socket

        sock = socket.create_connection(self.address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tunnel is not None:
                sock.sendall(self.tunnel)
                with sock.makefile("rb") as reader:  # a 200 to CONNECT has no body; TLS starts after it
                    status = _status_line(reader.readline(MAX_LINE + 1))[1]
                    _header_fields(reader)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status}")
            if self.tls:
                sock = _tls_context().wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")


def _message(method: str, target: str, headers: dict[str, str], body: bytes | None) -> bytes:
    """A request's bytes: request line, ``headers`` in order, ``Content-Length`` and body.

    Refuses what would change the message's framing (CR, LF or NUL in a
    header, a space or control character in the target) before anything is
    sent.
    """
    if not (target.isascii() and target.isprintable()) or " " in target:
        raise ValidationError("request target must be printable ASCII without spaces")
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in headers.items():
        field = name + value
        if "\r" in field or "\n" in field or "\0" in field:
            raise ValidationError(f"HTTP header {name.strip()[:40]!r} contains CR, LF or NUL")
        lines.append(f"{name}: {value}")
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    lines.append("\r\n")
    try:
        head = "\r\n".join(lines).encode("latin-1")
    except UnicodeEncodeError:
        raise ValidationError("HTTP header fields must be Latin-1 text") from None
    return head + body if body else head


def _address(netloc: str, default_port: int, name: str) -> tuple[str, int]:
    """(host, port) of a URL's authority; ``name`` stands for it in the error."""
    parts = urlsplit(f"//{netloc}")
    try:
        port = parts.port or default_port
    except ValueError:
        port = None
    if not parts.hostname or port is None:
        raise ValidationError(f"{name!r} names no host or a bad port")
    return parts.hostname, port


def _proxy(scheme: str, host: str) -> str | None:
    """The proxy URL that ``<scheme>_proxy`` names for ``host`` (either case), unless ``no_proxy`` bypasses it."""
    import os

    variable = f"{scheme}_proxy"
    if not any(name.lower() == variable for name in os.environ):
        return None
    from urllib.request import getproxies_environment, proxy_bypass_environment

    proxies = getproxies_environment()
    proxy = proxies.get(scheme)
    return None if not proxy or proxy_bypass_environment(host, proxies) else proxy


def _status_line(line: bytes) -> tuple[bytes, int]:
    """(HTTP version, status code) of a status line."""
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if (
        len(line) > MAX_LINE
        or not version.startswith(b"HTTP/1.")
        or not (len(code) == 3 and code.isdigit())
        or rest[3:4] not in (b" ", b"\r", b"\n")
    ):
        raise ProtocolError(f"malformed status line {line[:40]!r}")
    return version, int(code)


def _header_fields(reader) -> dict[bytes, bytes]:
    """The header section (or chunked trailer) up to its empty line: lower-cased name to value.

    An obs-fold line (one that starts with SP or HTAB) continues the previous field's value
    after one SP. A line without a colon, or with whitespace before it, is refused (RFC 9112 §5).
    """
    fields: dict[bytes, bytes] = {}
    name = None
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ProtocolError(f"header line longer than {MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise ProtocolError("connection closed inside the answer's head")
        if line.startswith((b" ", b"\t")) and name is not None:
            fields[name] += b" " + line.strip()
            continue
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise ProtocolError(f"malformed header line {line[:40]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise ProtocolError(f"got more than {MAX_HEADERS} headers")


def _content_length(value: bytes) -> int:
    lengths = {length.strip() for length in value.split(b",")}  # repeated equal values are allowed
    length = lengths.pop() if len(lengths) == 1 else b""
    if not length.isdigit():
        raise ProtocolError(f"bad Content-Length {value[:40]!r}")
    return int(length)


def _read_exact(reader, n: int) -> bytes:
    """``n`` bytes, read at most 1 MiB at a time so a huge announced length allocates nothing up front."""
    parts = []
    left = n
    while left:
        part = reader.read(min(left, 1 << 20))
        if not part:
            raise ProtocolError(f"incomplete body: got {n - left} of {n} bytes")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _chunked_body(reader) -> bytes:
    """A chunked body: chunk extensions and trailer fields are read and dropped."""
    parts = []
    while True:
        line = reader.readline(MAX_LINE + 1)
        digits = line.partition(b";")[0].strip()
        if len(line) > MAX_LINE or not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise ProtocolError(f"malformed chunk size line {line[:40]!r}")
        size = int(digits, 16)
        if not size:
            _header_fields(reader)
            return b"".join(parts)
        parts.append(_read_exact(reader, size))
        if reader.readline(3) not in (b"\r\n", b"\n"):
            raise ProtocolError("chunk data not followed by CRLF")


@functools.cache
def _tls_context():
    """Verifies against the system CA store, or ``SSL_CERT_FILE``/``SSL_CERT_DIR``; built once."""
    import ssl

    return ssl.create_default_context()
