"""Tests for the hand-rolled HTTP/1.1 layer."""

import asyncio
import json

import pytest

from repro.serve.http import (
    BadRequest,
    Request,
    Response,
    StreamResponse,
    handle_connection,
    read_request,
    server_address,
)


def parse(data: bytes):
    async def _main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_main())


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /v1/healthz?x=1 HTTP/1.1\r\nHost: h\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/healthz"
        assert request.query == {"x": "1"}
        assert request.headers["host"] == "h"
        assert request.body == b""

    def test_post_with_body(self):
        body = json.dumps({"a": 1}).encode()
        raw = (
            b"POST /v1/runs HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.json() == {"a": 1}

    def test_eof_returns_none(self):
        assert parse(b"") is None

    def test_percent_decoded_path(self):
        request = parse(b"GET /v1/a%20b HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/a b"

    @pytest.mark.parametrize(
        "raw",
        [
            b"NONSENSE\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            # past the stream's 64 KiB buffer limit, not just MAX_LINE_BYTES
            pytest.param(
                b"GET /x HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
                id="header-over-stream-limit",
            ),
        ],
    )
    def test_malformed_requests_raise(self, raw):
        with pytest.raises(BadRequest):
            parse(raw)

    def test_oversized_body_is_413(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
        with pytest.raises(BadRequest) as excinfo:
            parse(raw)
        assert excinfo.value.status == 413

    def test_bad_json_body(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\n{{{{"
        with pytest.raises(BadRequest):
            parse(raw).json()


class TestResponse:
    def test_json_roundtrip(self):
        response = Response.json({"ok": True})
        assert response.status == 200
        assert json.loads(response.body) == {"ok": True}

    def test_error_shape(self):
        response = Response.error(404, "nope")
        assert response.status == 404
        assert json.loads(response.body) == {"error": "nope", "status": 404}

    def test_head_bytes_carry_length_and_connection(self):
        response = Response.json({"k": 1})
        head = response.head_bytes(keep_alive=True).decode()
        assert f"Content-Length: {len(response.body)}" in head
        assert "Connection: keep-alive" in head
        assert "Connection: close" in response.head_bytes(False).decode()

    def test_stream_head_closes_connection(self):
        async def _gen():
            yield b""

        head = StreamResponse(_gen()).head_bytes().decode()
        assert "Connection: close" in head
        assert "text/event-stream" in head


class TestHandleConnection:
    """Full request/response loops over a real localhost socket."""

    def _roundtrip(self, dispatch, payloads):
        async def _main():
            server = await asyncio.start_server(
                lambda r, w: handle_connection(r, w, dispatch),
                host="127.0.0.1",
                port=0,
            )
            host, port = server_address(server)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(payloads))
            await writer.drain()
            writer.write_eof()
            data = await reader.read()
            writer.close()
            server.close()
            await server.wait_closed()
            return data

        return asyncio.run(_main())

    def test_keep_alive_serves_multiple_requests(self):
        calls = []

        async def dispatch(request: Request):
            calls.append(request.path)
            return Response.json({"path": request.path})

        data = self._roundtrip(
            dispatch,
            [
                b"GET /one HTTP/1.1\r\n\r\n",
                b"GET /two HTTP/1.1\r\nConnection: close\r\n\r\n",
            ],
        )
        assert calls == ["/one", "/two"]
        assert data.count(b"HTTP/1.1 200") == 2

    def test_handler_crash_becomes_500_without_traceback(self):
        async def dispatch(request: Request):
            raise ValueError("secret internals")

        data = self._roundtrip(dispatch, [b"GET / HTTP/1.1\r\n\r\n"])
        assert b"HTTP/1.1 500" in data
        assert b"ValueError" in data
        assert b"secret internals" not in data

    def test_malformed_request_gets_400(self):
        async def dispatch(request: Request):  # pragma: no cover
            return Response.json({})

        data = self._roundtrip(dispatch, [b"NOT-HTTP\r\n\r\n"])
        assert b"HTTP/1.1 400" in data

    def test_stream_response_ends_connection(self):
        async def chunks():
            yield b"data: 1\n\n"
            yield b"data: 2\n\n"

        async def dispatch(request: Request):
            return StreamResponse(chunks())

        data = self._roundtrip(dispatch, [b"GET /events HTTP/1.1\r\n\r\n"])
        assert b"data: 1" in data and b"data: 2" in data
        assert data.count(b"HTTP/1.1") == 1  # no second response possible
