"""The package's export table: smoothdio.__all__ is served lazily by the
module-level __getattr__ (PEP 562), one name per module attribute."""

import importlib

import pytest

import smoothdio


def test_every_export_resolves_to_its_module_attribute():
    listed = dir(smoothdio)
    assert smoothdio.__all__ == sorted(name for names in smoothdio._EXPORTS.values() for name in names)
    for module_name, names in smoothdio._EXPORTS.items():
        module = importlib.import_module(f"smoothdio.{module_name}")
        for name in names:
            value = getattr(module, name)
            assert smoothdio.__getattr__(name) is value, name
            assert getattr(smoothdio, name) is value, name
            # defined in that module, not an alias it imports
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
            assert name in listed, name


@pytest.mark.parametrize("name", ["SmoothSieve", "Factorization", "no_such_name", "gcd_sum", "euler_phi",
                                  "incomplete_inverse_sum", "psi_q", "psi_q_estimate", "hildebrand_estimate",
                                  "mod_inverse", "rho_table", "RhoTable", "KloostermanParams", "SaddlePoint"])
def test_names_off_the_table_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(smoothdio, name)
    assert name not in dir(smoothdio)
