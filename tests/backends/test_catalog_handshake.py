"""Tests for the catalog-digest handshake of the TCP backend.

The paper's design requires host and target to be "built" from the same
application. This library verifies that at connect time instead of
silently dispatching through shifted handler keys.
"""

import pytest

from repro.backends import TcpBackend, spawn_local_server
from repro.errors import BackendError
from repro.ham import serialization
from repro.ham.registry import Catalog, ProcessImage


def make_catalog(names):
    catalog = Catalog()
    for name in names:
        catalog.register((lambda n: (lambda: n))(name), name=name)
    return catalog


class TestDigest:
    def test_same_type_set_same_digest(self):
        a = ProcessImage("a", make_catalog(["x::f", "y::g"]))
        b = ProcessImage("b", make_catalog(["y::g", "x::f"]))  # other order
        assert a.digest() == b.digest()

    def test_different_type_sets_differ(self):
        a = ProcessImage("a", make_catalog(["x::f"]))
        b = ProcessImage("b", make_catalog(["x::f", "y::g"]))
        assert a.digest() != b.digest()

    def test_digest_stable_across_calls(self):
        image = ProcessImage("a", make_catalog(["m::f"]))
        assert image.digest() == image.digest()


class TestHandshake:
    def test_matching_catalogs_connect(self):
        process, address = spawn_local_server()
        backend = TcpBackend(address, on_shutdown=lambda: process.join(timeout=5))
        backend.shutdown()

    def test_mismatched_catalogs_rejected_at_connect(self):
        # Server forks with the (large) global catalog; client presents a
        # tiny private one.
        process, address = spawn_local_server()
        try:
            with pytest.raises(BackendError, match="catalogs differ"):
                TcpBackend(address, catalog=make_catalog(["only::one"]))
        finally:
            process.terminate()
            process.join(timeout=5)

    def test_other_codec_revision_rejected_at_connect(self, monkeypatch):
        """Same catalog, another argument format: the digest covers the
        value codec, so the peer is refused here instead of mis-parsed."""
        process, address = spawn_local_server()  # forked with this revision
        image = ProcessImage("a", make_catalog(["m::f"]))
        before = image.digest()
        monkeypatch.setattr(
            serialization, "CODEC_REVISION", serialization.CODEC_REVISION + 1
        )
        assert image.digest() != before
        try:
            with pytest.raises(BackendError, match="catalogs differ"):
                TcpBackend(address)
        finally:
            process.terminate()
            process.join(timeout=5)
