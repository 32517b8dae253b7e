"""CoAP resources: path normalisation and method dispatch."""

from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.resource import CallbackResource, Resource


def test_path_is_normalised():
    assert Resource("sensors//temp/").path == "/sensors/temp"
    assert Resource("/").path == "/"


def test_callback_resource_answers_get():
    resource = CallbackResource("/valve", on_get=lambda: (0.5, 4))
    assert resource.dispatch(CoapCode.GET, None) == (CoapCode.CONTENT, 0.5, 4)


def test_unhandled_methods_are_not_allowed():
    refused = (CoapCode.METHOD_NOT_ALLOWED, None, 0)
    bare = Resource("/x")
    for code in (CoapCode.GET, CoapCode.PUT, CoapCode.POST, CoapCode.DELETE,
                 CoapCode.CONTENT):
        assert bare.dispatch(code, None) == refused
    served = CallbackResource("/x", on_get=lambda: (0.5, 4))
    for code in (CoapCode.PUT, CoapCode.POST, CoapCode.DELETE,
                 CoapCode.CONTENT):
        assert served.dispatch(code, None) == refused
