"""CoAP message construction and size accounting."""

import pytest

from repro.middleware.coap.codes import CoapCode, CoapType
from repro.middleware.coap.message import CoapMessage, CoapOptions


class TestCodes:
    def test_request_response_classification(self):
        assert CoapCode.GET.is_request
        assert not CoapCode.GET.is_response
        assert CoapCode.CONTENT.is_response
        assert CoapCode.CONTENT.is_success
        assert not CoapCode.NOT_FOUND.is_success

    def test_str_format(self):
        assert str(CoapCode.CONTENT) == "2.05 CONTENT"


class TestOptions:
    def test_path_round_trip(self):
        options = CoapOptions(uri_path=("sensors", "temp"))
        assert options.path == "/sensors/temp"

    def test_size_grows_with_options(self):
        bare = CoapOptions()
        rich = CoapOptions(uri_path=("a", "bb"), observe=0,
                           content_format="json", max_age_s=60.0)
        assert rich.size_bytes > bare.size_bytes


class TestMessage:
    def test_request_constructor(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/sensors/temp")
        assert request.mtype is CoapType.CON
        assert request.token is not None
        assert request.options.path == "/sensors/temp"

    def test_non_confirmable_request(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/x", confirmable=False)
        assert request.mtype is CoapType.NON

    def test_response_code_required_for_request_constructor(self, sim):
        with pytest.raises(ValueError):
            CoapMessage.request(sim, CoapCode.CONTENT, "/x")

    def test_piggybacked_response_shares_message_id(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/x")
        response = request.response(CoapCode.CONTENT, payload=5, payload_bytes=4)
        assert response.mtype is CoapType.ACK
        assert response.message_id == request.message_id
        assert response.token == request.token

    def test_separate_response_for_non(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/x", confirmable=False)
        response = request.response(CoapCode.CONTENT, sim=sim)
        assert response.mtype is CoapType.NON
        assert response.message_id != request.message_id

    def test_request_code_rejected_as_response(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/x")
        with pytest.raises(ValueError):
            request.response(CoapCode.PUT)

    def test_ack_is_empty(self, sim):
        request = CoapMessage.request(sim, CoapCode.GET, "/x")
        assert request.ack().code is CoapCode.EMPTY

    def test_size_includes_payload_marker(self, sim):
        without = CoapMessage.request(sim, CoapCode.GET, "/x")
        with_payload = CoapMessage.request(sim, CoapCode.PUT, "/x",
                                           payload=1, payload_bytes=10)
        assert with_payload.size_bytes == without.size_bytes + 11

    def test_unique_message_ids(self, sim):
        a = CoapMessage.request(sim, CoapCode.GET, "/x")
        b = CoapMessage.request(sim, CoapCode.GET, "/x")
        assert a.message_id != b.message_id
        assert a.token != b.token
