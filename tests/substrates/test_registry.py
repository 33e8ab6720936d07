"""The string-keyed substrate registry."""

import pytest

from repro.errors import SubstrateError
from repro.substrates import (
    OnlineValidationSubstrate,
    ProfilingSubstrate,
    StatsSubstrate,
    Substrate,
    TracingSubstrate,
    available_substrates,
    get_substrate,
    register_substrate,
    unregister_substrate,
)


def test_builtins_are_registered():
    names = available_substrates()
    for builtin in ("profiling", "tracing", "validation", "stats"):
        assert builtin in names


@pytest.mark.parametrize(
    "name,cls",
    [
        ("profiling", ProfilingSubstrate),
        ("tracing", TracingSubstrate),
        ("validation", OnlineValidationSubstrate),
        ("stats", StatsSubstrate),
    ],
)
def test_get_substrate_instantiates_builtin(name, cls):
    substrate = get_substrate(name)
    assert isinstance(substrate, cls)
    assert substrate.name == name
    # A second get returns a *fresh* instance (substrates hold run state).
    assert get_substrate(name) is not substrate


def test_get_substrate_forwards_kwargs():
    substrate = get_substrate("profiling", max_call_path_depth=3, per_event_cost=0.5)
    assert substrate.max_call_path_depth == 3
    assert substrate.per_event_cost == 0.5


def test_unknown_name_raises_with_suggestion():
    with pytest.raises(SubstrateError, match="did you mean 'profiling'"):
        get_substrate("profilng")
    with pytest.raises(SubstrateError, match="available:"):
        get_substrate("definitely-not-a-substrate")


def test_register_and_unregister_third_party():
    class CustomSubstrate(Substrate):
        name = "custom-test"

    try:
        register_substrate("custom-test", CustomSubstrate)
        assert "custom-test" in available_substrates()
        assert isinstance(get_substrate("custom-test"), CustomSubstrate)
        with pytest.raises(SubstrateError, match="already registered"):
            register_substrate("custom-test", CustomSubstrate)
        register_substrate("custom-test", CustomSubstrate, replace=True)
    finally:
        unregister_substrate("custom-test")
    assert "custom-test" not in available_substrates()


def test_register_rejects_non_callable():
    with pytest.raises(TypeError):
        register_substrate("bad", object())


def test_factory_must_return_a_substrate():
    try:
        register_substrate("not-a-substrate", lambda: object())
        with pytest.raises(SubstrateError, match="not a Substrate"):
            get_substrate("not-a-substrate")
    finally:
        unregister_substrate("not-a-substrate")
