import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["lie", "lattice", "fields", "lagrangian", "dynamics"])
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"latspin.{name}")
    defined = {
        key for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(defined)
