"""Tests for the scheme registry and capability descriptors."""

from dataclasses import fields

import pytest

from repro.adt import Counter
from repro.errors import EngineError
from repro.kernel import (
    Scheme,
    SchemeCapabilities,
    get_scheme,
    scheme_names,
)


class TestLookup:
    def test_builtin_names_registered(self):
        names = scheme_names()
        for name in (
            "moss-rw", "exclusive", "flat-2pl", "semantic",
            "serial", "mvto", "broken-no-inherit",
        ):
            assert name in names
        assert names == tuple(sorted(names))

    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(EngineError) as excinfo:
            get_scheme("two-phase-hopes")
        assert "two-phase-hopes" in str(excinfo.value)
        assert "moss-rw" in str(excinfo.value)

    def test_lookup_is_cached(self):
        assert get_scheme("moss-rw") is get_scheme("moss-rw")

    def test_scheme_passes_through(self):
        scheme = get_scheme("exclusive")
        assert get_scheme(scheme) is scheme

    def test_policy_instance_becomes_ad_hoc_scheme(self):
        from repro.analysis.faults import NoInheritPolicy

        scheme = get_scheme(NoInheritPolicy())
        assert isinstance(scheme, Scheme)
        assert scheme.name == NoInheritPolicy.name
        engine = scheme.build([Counter("c")])
        assert engine.scheme_name == NoInheritPolicy.name


class TestCapabilities:
    def test_the_three_flags(self):
        assert [field.name for field in fields(SchemeCapabilities)] == [
            "waits_are_acyclic", "model_conformant", "durable",
        ]

    def test_locking_schemes_can_deadlock(self):
        for name in ("moss-rw", "exclusive", "flat-2pl"):
            caps = get_scheme(name).capabilities
            assert not caps.waits_are_acyclic
            assert caps.durable

    def test_model_conformance_flags(self):
        assert get_scheme("moss-rw").capabilities.model_conformant
        assert get_scheme("exclusive").capabilities.model_conformant
        assert not get_scheme("flat-2pl").capabilities.model_conformant
        assert not get_scheme("mvto").capabilities.model_conformant

    def test_mvto_shape(self):
        caps = get_scheme("mvto").capabilities
        assert caps.waits_are_acyclic
        assert not caps.durable

    def test_serial_is_moss_rw_forced_serial(self):
        serial = get_scheme("serial")
        moss = get_scheme("moss-rw")
        assert serial.force_serial
        assert not moss.force_serial
        assert serial.capabilities == moss.capabilities


class TestBuild:
    def test_built_engines_expose_the_scheme_protocol(self):
        for name in ("moss-rw", "mvto"):
            engine = get_scheme(name).build([Counter("c")])
            assert engine.scheme_name == name
            top = engine.begin_top()
            top.perform("c", Counter.increment(2))
            top.commit()
            assert engine.object_value("c") == 2
            assert engine.stats["commits"] == 1
