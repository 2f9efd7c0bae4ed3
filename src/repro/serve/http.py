"""Minimal HTTP/1.1 on asyncio streams: just enough for the service.

No routing, no middleware, no framework -- one connection handler that
parses requests (request line, headers, ``Content-Length`` bodies),
dispatches them through a caller-supplied async function, and writes
responses.  Three deliberate simplifications:

* only ``Content-Length`` bodies are accepted (no request chunking);
* keep-alive is honoured for ordinary responses (the load bench reuses
  connections); streaming responses -- the SSE endpoints -- send
  ``Connection: close`` and the connection ends with the stream, which
  is exactly what ``curl -N`` and ``EventSource`` polyfills expect;
* a malformed request gets a 400 and the connection is closed; a
  handler crash gets a 500 with the exception class name, never a
  traceback leak or a wedged connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
)
from urllib.parse import parse_qsl, unquote, urlsplit

#: largest accepted request body (a controller-step trajectory of ~1M
#: samples encodes to well under this); bigger requests get a 413.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: request-line / header-line length limit.
MAX_LINE_BYTES = 16 * 1024
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """Raised by handlers/parsers for malformed client input (-> 400)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.target = target
        split = urlsplit(target)
        self.path = unquote(split.path)
        self.query: Dict[str, str] = dict(parse_qsl(split.query))
        self.headers = headers
        self.body = body
        #: path captures filled in by the router (``{param}`` segments).
        self.params: Dict[str, str] = {}

    def json(self) -> Any:
        """Parse the body as JSON; raises :class:`BadRequest` on garbage."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


class Response:
    """One buffered HTTP response (for streaming, see ``StreamResponse``)."""

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "application/json",
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message, "status": status}, status=status)

    def head_bytes(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class StreamResponse:
    """A streaming response: headers now, body chunks as they come.

    ``chunks`` is an async iterator of byte strings; the connection is
    closed when it ends (``Connection: close``, no ``Content-Length``).
    """

    def __init__(
        self,
        chunks: AsyncIterator[bytes],
        content_type: str = "text/event-stream",
        status: int = 200,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.status = status
        self.chunks = chunks
        self.content_type = content_type
        self.headers = dict(headers or {})

    def head_bytes(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            "Cache-Control: no-store",
            "Connection: close",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


#: what a dispatcher returns
AnyResponse = Union[Response, StreamResponse]
Dispatch = Callable[[Request], Awaitable[AnyResponse]]


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line; over-long lines are a :class:`BadRequest`,
    whether past :data:`MAX_LINE_BYTES` or past the stream's own buffer
    limit (which ``readline`` reports as ``ValueError``)."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise BadRequest(f"{what} too long")
    if len(line) > MAX_LINE_BYTES:
        raise BadRequest(f"{what} too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`BadRequest` on malformed input and lets transport
    errors (``ConnectionResetError`` etc.) propagate to the caller.
    """
    line = await _read_line(reader, "request line")
    if not line:
        return None
    try:
        text = line.decode("latin-1").rstrip("\r\n")
        method, target, version = text.split(" ", 2)
    except ValueError:
        raise BadRequest(f"malformed request line: {line!r}")
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = await _read_line(reader, "header line")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise BadRequest("connection closed mid-headers")
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise BadRequest("undecodable header")
        if not _:
            raise BadRequest(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise BadRequest("too many headers")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise BadRequest(f"bad Content-Length: {length_text!r}")
        if length < 0:
            raise BadRequest("negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise BadRequest("request body too large", status=413)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequest("connection closed mid-body")
    return Request(method.upper(), target, headers, body)


async def _write_stream(
    writer: asyncio.StreamWriter, response: StreamResponse
) -> None:
    writer.write(response.head_bytes())
    await writer.drain()
    async for chunk in response.chunks:
        if chunk:
            writer.write(chunk)
            await writer.drain()


async def handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Dispatch,
) -> None:
    """Serve one client connection: a request/response keep-alive loop."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                response = Response.error(exc.status, str(exc))
                writer.write(response.head_bytes(keep_alive=False))
                writer.write(response.body)
                await writer.drain()
                return
            if request is None:
                return

            try:
                result = await dispatch(request)
            except BadRequest as exc:
                result = Response.error(exc.status, str(exc))
            except Exception as exc:  # noqa: BLE001 -- isolate handler faults
                result = Response.error(
                    500, f"internal error: {type(exc).__name__}"
                )

            if isinstance(result, StreamResponse):
                await _write_stream(writer, result)
                return
            keep_alive = not request.wants_close
            writer.write(result.head_bytes(keep_alive=keep_alive))
            writer.write(result.body)
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        # client went away (or server shutdown cancelled us): nothing to do
        pass
    finally:
        try:
            writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - teardown race
            pass


def server_address(server: asyncio.AbstractServer) -> Tuple[str, int]:
    """The (host, port) the server actually bound (resolves port 0)."""
    sockets = server.sockets or []
    if not sockets:
        raise RuntimeError("server has no bound sockets")
    host, port = sockets[0].getsockname()[:2]
    return str(host), int(port)
