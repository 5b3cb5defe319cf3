"""SIP wire-format parser and serializer (RFC 3261 subset).

Parses the textual format SIPp puts on the wire::

    INVITE sip:bob@biloxi.example.com SIP/2.0\\r\\n
    Via: SIP/2.0/UDP client.example.com\\r\\n
    ...\\r\\n
    \\r\\n
    <body>

Strict on structure (status lines, header colons, Content-Length), and
raises :class:`repro.errors.SipParseError` with a reason on malformed
input — the proxy answers those with 400-class behaviour in its own
error path.
"""

from __future__ import annotations

import re

from repro.errors import SipParseError
from repro.sip.message import Header, SipMessage

__all__ = ["parse_message", "serialize_message"]

_VERSION = "SIP/2.0"

#: The empty line that ends the head, with CRLF or bare LF endings.
_BLANK_LINE = re.compile(r"\r?\n\r?\n")


def parse_message(wire: str) -> SipMessage:
    """Parse one SIP message from its wire text."""
    if not wire or not wire.strip():
        raise SipParseError("empty message")
    # Only the head's line endings are normalised (SIPp uses CRLF): the
    # body is opaque, and Content-Length counts it as sent.
    blank = _BLANK_LINE.search(wire)
    if blank is None:
        head, body = wire, ""
    else:
        head, body = wire[: blank.start()], wire[blank.end():]
    lines = head.replace("\r\n", "\n").split("\n")
    start = lines[0].strip()
    headers = _parse_headers(lines[1:])
    message = _parse_start_line(start)
    message.headers = headers
    message.body = _check_body(headers, body)
    _validate(message)
    return message


def _parse_start_line(line: str) -> SipMessage:
    parts = line.split(" ", 2)
    if len(parts) < 3:
        raise SipParseError(f"malformed start line: {line!r}")
    if parts[0] == _VERSION:
        # Status line: SIP/2.0 200 OK
        try:
            status = int(parts[1])
        except ValueError:
            raise SipParseError(f"bad status code in {line!r}") from None
        if not 100 <= status <= 699:
            raise SipParseError(f"status code {status} out of range")
        return SipMessage(status=status, reason=parts[2])
    # Request line: INVITE sip:x SIP/2.0
    method, uri, version = parts
    if version != _VERSION:
        raise SipParseError(f"unsupported version {version!r}")
    if not method.isupper():
        raise SipParseError(f"malformed method {method!r}")
    return SipMessage(method=method, request_uri=uri)


def _parse_headers(lines: list[str]) -> list[Header]:
    headers: list[Header] = []
    for raw in lines:
        if not raw.strip():
            continue
        if raw[0] in " \t" and headers:
            # Folded continuation line (obsolete but legal).
            last = headers[-1]
            headers[-1] = Header(last.name, last.value + " " + raw.strip())
            continue
        if ":" not in raw:
            raise SipParseError(f"malformed header line: {raw!r}")
        name, value = raw.split(":", 1)
        name = name.strip()
        if not name:
            raise SipParseError(f"empty header name in {raw!r}")
        headers.append(Header(name, value.strip()))
    return headers


def _check_body(headers: list[Header], body: str) -> str:
    declared = None
    for h in headers:
        if h.name.lower() == "content-length":
            try:
                declared = int(h.value)
            except ValueError:
                raise SipParseError(f"bad Content-Length {h.value!r}") from None
    if declared is not None and declared != len(body):
        raise SipParseError(
            f"Content-Length {declared} does not match body of {len(body)} bytes"
        )
    return body


def _validate(message: SipMessage) -> None:
    """Minimal RFC 3261 §8.1.1 mandatory-header check for requests."""
    if message.is_request:
        for required in ("Via", "From", "To", "Call-ID", "CSeq"):
            if message.header(required) is None:
                raise SipParseError(f"request missing mandatory header {required}")
        number, cseq_method = message.cseq
        if cseq_method != message.method:
            raise SipParseError(
                f"CSeq method {cseq_method!r} does not match request method "
                f"{message.method!r}"
            )


def serialize_message(message: SipMessage) -> str:
    """Render a message back to wire text (CRLF line endings)."""
    if message.is_request:
        start = f"{message.method} {message.request_uri} {_VERSION}"
    elif message.is_response:
        start = f"{_VERSION} {message.status} {message.reason}"
    else:
        raise SipParseError("message is neither request nor response")
    lines = [start]
    lines.extend(str(h) for h in message.headers)
    return "\r\n".join(lines) + "\r\n\r\n" + message.body
