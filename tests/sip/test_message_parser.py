"""Tests for the SIP message model and wire parser."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SipParseError
from repro.sip.message import Header, SipMessage
from repro.sip.parser import parse_message, serialize_message

INVITE_WIRE = (
    "INVITE sip:bob@biloxi.example.com SIP/2.0\r\n"
    "Via: SIP/2.0/UDP client.atlanta.example.com\r\n"
    "Max-Forwards: 70\r\n"
    "From: sip:alice@atlanta.example.com\r\n"
    "To: sip:bob@biloxi.example.com\r\n"
    "Call-ID: 3848276298220188511@atlanta\r\n"
    "CSeq: 1 INVITE\r\n"
    "Content-Length: 4\r\n"
    "\r\n"
    "v=0\n"
)


class TestParsing:
    def test_request_line(self):
        msg = parse_message(INVITE_WIRE)
        assert msg.is_request
        assert msg.method == "INVITE"
        assert msg.request_uri == "sip:bob@biloxi.example.com"

    def test_headers(self):
        msg = parse_message(INVITE_WIRE)
        assert msg.header("Via") == "SIP/2.0/UDP client.atlanta.example.com"
        assert msg.header("call-id") == "3848276298220188511@atlanta"  # case-insensitive
        assert msg.header("Nope") is None

    def test_body_with_content_length(self):
        msg = parse_message(INVITE_WIRE)
        assert msg.body == "v=0\n"

    def test_crlf_body_is_kept_verbatim(self):
        """A multi-line (SDP-style) body keeps its CRLFs, which its
        Content-Length counts."""
        body = "v=0\r\no=- s=call\r\n"
        wire = INVITE_WIRE.replace(
            "Content-Length: 4\r\n\r\nv=0\n",
            f"Content-Length: {len(body)}\r\n\r\n{body}",
        )
        assert parse_message(wire).body == body

    def test_response_line(self):
        msg = parse_message("SIP/2.0 200 OK\r\nVia: x\r\n\r\n")
        assert msg.is_response
        assert msg.status == 200
        assert msg.reason == "OK"

    def test_folded_header(self):
        wire = (
            "OPTIONS sip:a SIP/2.0\r\nVia: first\r\n part2\r\nFrom: f\r\nTo: t\r\n"
            "Call-ID: c\r\nCSeq: 1 OPTIONS\r\n\r\n"
        )
        msg = parse_message(wire)
        assert msg.header("Via") == "first part2"

    @pytest.mark.parametrize(
        "wire, match",
        [
            ("", "empty"),
            ("BROKEN\r\n\r\n", "start line"),
            ("SIP/2.0 xx OK\r\n\r\n", "status code"),
            ("SIP/2.0 99 Low\r\n\r\n", "out of range"),
            ("INVITE sip:x HTTP/1.1\r\n\r\n", "version"),
            ("invite sip:x SIP/2.0\r\nVia: v\r\n\r\n", "method"),
            ("OPTIONS sip:a SIP/2.0\r\nNoColonHere\r\n\r\n", "header line"),
            ("OPTIONS sip:a SIP/2.0\r\n: empty\r\n\r\n", "header name"),
        ],
    )
    def test_malformed_inputs(self, wire, match):
        with pytest.raises(SipParseError, match=match):
            parse_message(wire)

    def test_missing_mandatory_header(self):
        wire = "INVITE sip:x SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCSeq: 1 INVITE\r\n\r\n"
        with pytest.raises(SipParseError, match="Call-ID"):
            parse_message(wire)

    def test_cseq_method_mismatch(self):
        wire = (
            "INVITE sip:x SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\n"
            "Call-ID: c\r\nCSeq: 1 BYE\r\n\r\n"
        )
        with pytest.raises(SipParseError, match="CSeq method"):
            parse_message(wire)

    def test_content_length_mismatch(self):
        wire = (
            "INVITE sip:x SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\n"
            "Call-ID: c\r\nCSeq: 1 INVITE\r\nContent-Length: 99\r\n\r\nshort"
        )
        with pytest.raises(SipParseError, match="Content-Length"):
            parse_message(wire)


class TestRoundTrip:
    def test_serialize_parse_roundtrip(self):
        msg = parse_message(INVITE_WIRE)
        again = parse_message(serialize_message(msg))
        assert again.method == msg.method
        assert again.headers == msg.headers
        assert again.body == msg.body

    def test_request_constructor(self):
        msg = SipMessage.request(
            "REGISTER",
            "sip:example.com",
            call_id="c1",
            cseq=2,
            from_uri="sip:alice@example.com",
            to_uri="sip:alice@example.com",
        )
        wire = serialize_message(msg)
        parsed = parse_message(wire)
        assert parsed.method == "REGISTER"
        assert parsed.cseq == (2, "REGISTER")

    def test_response_to_echoes_dialog_headers(self):
        req = parse_message(INVITE_WIRE)
        resp = SipMessage.response_to(req, 180)
        assert resp.status == 180
        assert resp.reason == "Ringing"
        assert resp.call_id == req.call_id
        assert resp.header("CSeq") == req.header("CSeq")


class TestAccessors:
    def test_cseq(self):
        msg = parse_message(INVITE_WIRE)
        assert msg.cseq == (1, "INVITE")

    def test_domain_extraction(self):
        msg = parse_message(INVITE_WIRE)
        assert msg.domain == "biloxi.example.com"

    def test_domain_with_params(self):
        msg = SipMessage(method="OPTIONS", request_uri="sip:bob@host.net;transport=udp")
        assert msg.domain == "host.net"

    def test_transaction_key_folds_ack_cancel(self):
        base = dict(
            uri="sip:x", call_id="c9", from_uri="f", to_uri="t"
        )
        invite = SipMessage.request("INVITE", base["uri"], call_id="c9", cseq=1, from_uri="f", to_uri="t")
        ack = SipMessage.request("ACK", base["uri"], call_id="c9", cseq=1, from_uri="f", to_uri="t")
        cancel = SipMessage.request("CANCEL", base["uri"], call_id="c9", cseq=1, from_uri="f", to_uri="t")
        assert invite.transaction_key == ack.transaction_key == cancel.transaction_key

    def test_max_forwards_default_and_bad(self):
        msg = SipMessage(method="OPTIONS", headers=[Header("Max-Forwards", "junk")])
        assert msg.max_forwards == 70
        msg2 = SipMessage(method="OPTIONS", headers=[Header("Max-Forwards", "0")])
        assert msg2.max_forwards == 0

    def test_with_header_prepends(self):
        msg = SipMessage(method="OPTIONS", headers=[Header("Via", "old")])
        new = msg.with_header("Via", "new")
        assert new.all_headers("Via") == ["new", "old"]
        assert msg.all_headers("Via") == ["old"]  # original untouched

    def test_without_top_header(self):
        msg = SipMessage(
            status=200, reason="OK", headers=[Header("Via", "a"), Header("Via", "b")]
        )
        popped = msg.without_top_header("via")
        assert popped.all_headers("Via") == ["b"]


@given(
    st.sampled_from(["INVITE", "BYE", "OPTIONS", "REGISTER"]),
    st.integers(1, 99),
    st.text(alphabet="abcdefg0123456789", min_size=1, max_size=12),
)
def test_property_request_roundtrip(method, cseq, call_id):
    msg = SipMessage.request(
        method,
        "sip:user@example.com",
        call_id=call_id,
        cseq=cseq,
        from_uri="sip:a@x.com",
        to_uri="sip:b@y.com",
    )
    parsed = parse_message(serialize_message(msg))
    assert parsed.method == method
    assert parsed.cseq == (cseq, method)
    assert parsed.call_id == call_id
