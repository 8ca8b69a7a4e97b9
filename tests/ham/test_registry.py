"""Tests for the HAM registry and cross-image key translation (Fig. 6)."""

import random
import sys
import threading

import pytest

from repro.errors import HamError, HandlerKeyError
from repro.ham.registry import Catalog, ProcessImage, offloadable, type_name_of


def make_catalog(names):
    """Build a catalog with one distinct function per name."""
    catalog = Catalog()
    for name in names:
        catalog.register((lambda n: (lambda: n))(name), name=name)
    return catalog


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()

        def fn():
            return 1

        name = catalog.register(fn)
        assert catalog.function(name) is fn
        assert name in catalog
        assert len(catalog) == 1

    def test_idempotent_reregistration(self):
        catalog = Catalog()

        def fn():
            return 1

        assert catalog.register(fn) == catalog.register(fn)
        assert len(catalog) == 1

    def test_name_collision_rejected(self):
        catalog = Catalog()
        catalog.register(lambda: 1, name="same::name")
        with pytest.raises(HamError, match="already registered"):
            catalog.register(lambda: 2, name="same::name")

    def test_unknown_function(self):
        with pytest.raises(HamError):
            Catalog().function("ghost")

    def test_type_name_module_qualified(self):
        def inner():
            pass

        name = type_name_of(inner)
        assert name.endswith("::TestCatalog.test_type_name_module_qualified.<locals>.inner")
        assert "::" in name


class TestCrossImageTranslation:
    """The paper's core correctness property: keys agree across images
    that registered the same types, regardless of registration order and
    local addresses."""

    NAMES = [f"app::kernel_{i}" for i in range(20)]

    def test_keys_agree_between_images(self):
        cat_host = make_catalog(self.NAMES)
        shuffled = list(self.NAMES)
        random.Random(42).shuffle(shuffled)
        cat_target = make_catalog(shuffled)

        host = ProcessImage("vh", cat_host)
        target = ProcessImage("ve", cat_target)
        for name in self.NAMES:
            assert host.key_for(name) == target.key_for(name)

    def test_local_addresses_differ(self):
        catalog = make_catalog(self.NAMES)
        host = ProcessImage("vh", catalog)
        target = ProcessImage("ve", catalog)
        differing = [
            n
            for n in self.NAMES
            if host.local_address_of(n) != target.local_address_of(n)
        ]
        assert differing == self.NAMES  # all of them

    def test_key_to_handler_roundtrip(self):
        catalog = make_catalog(self.NAMES)
        image = ProcessImage("ve", catalog)
        for name in self.NAMES:
            key = image.key_for(name)
            handler = image.handler_for_key(key)
            assert handler() == name  # each stub returns its own name

    def test_keys_are_sorted_indices(self):
        catalog = make_catalog(["b::f", "a::f", "c::f"])
        image = ProcessImage("img", catalog)
        assert image.key_for("a::f") == 0
        assert image.key_for("b::f") == 1
        assert image.key_for("c::f") == 2
        assert image.type_names() == ["a::f", "b::f", "c::f"]

    def test_unknown_type_name(self):
        image = ProcessImage("img", make_catalog(["a::f"]))
        with pytest.raises(HandlerKeyError):
            image.key_for("z::ghost")
        with pytest.raises(HandlerKeyError):
            image.local_address_of("z::ghost")

    def test_out_of_range_key(self):
        image = ProcessImage("img", make_catalog(["a::f"]))
        with pytest.raises(HandlerKeyError):
            image.handler_for_key(1)
        with pytest.raises(HandlerKeyError):
            image.handler_for_key(-1)

    def test_num_types(self):
        image = ProcessImage("img", make_catalog(self.NAMES))
        image.build_tables()
        assert image.num_types == len(self.NAMES)

    def test_late_registration_rebuilds_tables(self):
        catalog = make_catalog(["m::f"])
        image = ProcessImage("img", catalog)
        assert image.key_for("m::f") == 0
        catalog.register(lambda: None, name="a::early")
        image.snapshot_catalog()
        # "a::early" sorts first, shifting the key of "m::f".
        assert image.key_for("a::early") == 0
        assert image.key_for("m::f") == 1

    def test_first_use_from_many_threads_builds_one_whole_table(self):
        """A fresh image is finalized by whoever uses it first; a second
        thread must not sort a half-taken snapshot (wrong keys, or none,
        for a fresh runtime under concurrent posters)."""
        names = [f"m::f{i:03d}" for i in range(200)]
        catalog = make_catalog(names)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                image = ProcessImage("img", catalog)
                barrier = threading.Barrier(6)
                keys = []

                def first_use():
                    barrier.wait(10.0)
                    keys.append(image.key_for(names[-1]))

                threads = [threading.Thread(target=first_use) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert keys == [len(names) - 1] * 6
        finally:
            sys.setswitchinterval(interval)


class TestOffloadableDecorator:
    def test_registers_in_global_catalog(self):
        from repro.ham.registry import global_catalog

        @offloadable
        def my_unique_kernel_xyz(x):
            return x + 1

        assert type_name_of(my_unique_kernel_xyz) in global_catalog()
        assert my_unique_kernel_xyz(1) == 2  # still locally callable
