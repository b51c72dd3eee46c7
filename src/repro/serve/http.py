"""Minimal dependency-free HTTP/1.1 framing over asyncio streams.

The service needs exactly enough HTTP to be scraped by Prometheus,
probed by an orchestrator, and queried by a load generator: request-line
plus headers plus an optional ``Content-Length`` body in; status-line
plus headers plus body out, with keep-alive.  Anything fancier
(chunked transfer, multipart, TLS) is out of scope and rejected with an
explicit status instead of being half-implemented.

Parsing is defensive by construction: header and body sizes are bounded
*before* allocation, a malformed request produces a 400 response rather
than an exception escaping the connection handler, and a clean EOF
between requests (the normal end of a keep-alive connection) is simply
``None``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro.errors import GraftError

#: Bounds chosen for an API service, not a browser target.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(GraftError):
    """A request that cannot be served; carries the HTTP status to emit."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"
    #: The request-target as sent (path plus query string).
    target: str = ""

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def param(self, name: str, default: str | None = None) -> str | None:
        return self.query.get(name, default)

    def header(self, name: str, default: str | None = None) -> str | None:
        """A header by case-insensitive name (parsing lowercases keys)."""
        return self.headers.get(name.lower(), default)

    def int_param(self, name: str, default: int) -> int:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name!r} must be an integer, "
                     f"got {raw!r}"
            ) from None

    def float_param(self, name: str, default: float | None) -> float | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name!r} must be a number, got {raw!r}"
            ) from None

    def bool_param(self, name: str, default: bool) -> bool:
        raw = self.query.get(name)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise HttpError(
            400, f"query parameter {name!r} must be a boolean, got {raw!r}"
        )


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request off the stream.

    Returns ``None`` on a clean EOF before any request bytes (the peer
    closed a keep-alive connection); raises :class:`HttpError` for
    malformed or oversized input, which the server turns into a 4xx
    response before closing.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head exceeds the header limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head exceeds the header limit")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise HttpError(
                400, f"malformed Content-Length {raw_length!r}"
            ) from None
        if length < 0:
            raise HttpError(400, f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body exceeds the body limit")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than its "
                                 "Content-Length") from None

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
        version=version,
        target=target,
    )


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Read one response off the stream: (status, headers, body), header
    names lowercased.  The client side of :func:`response_bytes`."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(502, f"malformed status line {status_line!r}")
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return int(parts[1]), headers, body


def request_bytes(
    method: str,
    target: str,
    *,
    headers: dict[str, str] | None = None,
    body: bytes = b"",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one complete HTTP/1.1 request."""
    lines = [
        f"{method} {target} HTTP/1.1",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def response_bytes(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one complete HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    extra = dict(extra_headers or {})
    # An explicit Content-Type in extra_headers overrides the default
    # (e.g. text/plain for the Prometheus exposition endpoint).
    for name in list(extra):
        if name.lower() == "content-type":
            content_type = extra.pop(name)
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body
